import json

import numpy as np
import pytest

from chaossat import cli

SAT_TEXT = "p cnf 2 1\n1 2 0\n"
UNSAT_TEXT = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    path.write_text(SAT_TEXT)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT_TEXT)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    # CSV trajectories without --csv precede the JSON report on stdout
    brace = out.find("{")
    return code, json.loads(out[brace:]) if brace >= 0 else out


class TestOracle:
    def test_sat(self, capsys, sat_file):
        code, payload = run(capsys, "oracle", sat_file)
        assert code == cli.EXIT_SAT
        assert payload == {"n": 2, "m": 1, "r": 3, "total_assignments": 4}

    def test_unsat(self, capsys, unsat_file):
        code, payload = run(capsys, "oracle", unsat_file)
        assert code == cli.EXIT_UNSAT
        assert payload["r"] == 0

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, "oracle", str(tmp_path / "nope.cnf"))
        assert code == cli.EXIT_ERROR

    def test_satlib_trailer(self, capsys, tmp_path):
        path = tmp_path / "satlib.cnf"
        path.write_text("c SATLIB style\np cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n\n")
        code, payload = run(capsys, "oracle", str(path))
        assert code == cli.EXIT_SAT
        assert payload == {"n": 3, "m": 2, "r": 5, "total_assignments": 8}

    def test_memory_error_is_clean_exit(self, capsys, monkeypatch, sat_file):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB")

        monkeypatch.setattr(cli.cnf, "count_satisfying", exhausted)
        assert cli.main(["oracle", sat_file]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_width_cap_does_not_raise_the_oracle_limit(self, capsys, monkeypatch, tmp_path):
        # the oracle's own limit refuses n=30 before it touches numpy at all
        class NoNumpy:
            def __getattr__(self, name):
                pytest.fail(f"the oracle used numpy.{name} before refusing")

        monkeypatch.setattr(cli.cnf, "np", NoNumpy())
        path = tmp_path / "n30.cnf"
        path.write_text("p cnf 30 1\n1 30 0\n")
        assert cli.main(["--width-cap", "40", "oracle", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=30 exceeds brute-force limit 24\n"

    def test_width_cap_does_not_lower_the_oracle_limit(self, capsys, tmp_path):
        path = tmp_path / "n22.cnf"
        path.write_text("p cnf 22 1\n1 2 0\n")
        code, payload = run(capsys, "--width-cap", "20", "oracle", str(path))
        assert code == cli.EXIT_SAT
        assert payload["r"] == 3 * 2**20


class TestCompile:
    def test_layout_fields(self, capsys, sat_file):
        code, payload = run(capsys, "compile", sat_file)
        assert code == 0
        assert payload["n"] == 2
        assert payload["mu"] == 1
        assert payload["total_qubits"] == 4
        assert payload["gate_count"] == 3
        assert payload["circuit"] == {
            "width": 4,
            "ops": [
                {"kind": "H_BLOCK", "wires": [1, 2], "neg": []},
                {"kind": "OR", "wires": [1, 2, 3], "neg": [False, False]},
                {"kind": "COPY", "wires": [3, 4], "neg": []},
            ],
        }


class TestSimulate:
    def test_probability(self, capsys, sat_file):
        code, payload = run(capsys, "simulate", sat_file)
        assert code == 0
        assert payload["probability"] == pytest.approx(0.75)
        assert payload["r_inferred"] == pytest.approx(3.0)

    def test_amplitude_dump(self, capsys, sat_file):
        code, payload = run(capsys, "simulate", sat_file, "--dump-amplitudes")
        assert code == 0
        amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12

    def test_amplitude_dump_over_width_12_is_refused_before_simulating(
        self, capsys, monkeypatch, tmp_path
    ):
        def no_state(*args, **kwargs):
            pytest.fail("the dense state was allocated before the dump limit was checked")

        monkeypatch.setattr(cli.simulator, "init_state", no_state)
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 7 3\n1 2 3 0\n-4 5 6 0\n7 -1 0\n")
        assert cli.main(["simulate", str(path), "--dump-amplitudes"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "amplitude dump capped at width 12\n"

    def test_builds_no_state_vector_and_keeps_the_width_cap(self, capsys, monkeypatch, sat_file):
        def dense(*args, **kwargs):
            pytest.fail("simulate built the dense state without --dump-amplitudes")

        monkeypatch.setattr(cli.simulator, "init_state", dense)
        monkeypatch.setattr(cli.simulator, "apply", dense)
        code, payload = run(capsys, "simulate", sat_file)
        assert code == 0
        assert payload["probability"] == pytest.approx(0.75)
        assert cli.main(["--width-cap", "3", "simulate", sat_file]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: width 4 exceeds cap 3\n"

    def test_non_finite_value_is_refused_not_printed(self, capsys, monkeypatch, sat_file):
        monkeypatch.setattr(cli.simulator, "row_probability", lambda seq, cap: float("nan"))
        assert cli.main(["simulate", sat_file]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestAmplify:
    def test_sat_decision(self, capsys):
        code, payload = run(capsys, "amplify", "--q2", "1/1024", "--steps", "20")
        assert code == cli.EXIT_SAT
        assert payload == {"decision": "SAT", "first_crossing": 5}

    def test_unsat_decision(self, capsys):
        code, payload = run(capsys, "amplify", "--q2", "0", "--steps", "20")
        assert code == cli.EXIT_UNSAT
        assert payload["first_crossing"] is None

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, _ = run(
            capsys, "amplify", "--q2", "0.5", "--steps", "3", "--csv", str(csv_path)
        )
        assert code == cli.EXIT_SAT
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,x"
        assert len(lines) == 5

    def test_zero_denominator_is_clean_exit(self, capsys):
        assert cli.main(["amplify", "--q2", "1/0", "--steps", "3"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1", "2"])
    def test_threshold_outside_unit_interval_is_clean_exit(self, capsys, threshold):
        argv = ["amplify", "--q2", "0.5", "--steps", "3", "--threshold", threshold]
        assert cli.main(argv) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must lie in [0, 1)")


class TestLindblad:
    def test_nonzero_q(self, capsys):
        code, payload = run(capsys, "lindblad", "--q", "0.03125", "--csv", "/dev/null")
        assert code == 0
        assert payload == {"classification": "DAMPED", "decision": "q_nonzero"}

    def test_zero_q(self, capsys):
        code, payload = run(capsys, "lindblad", "--q", "0", "--csv", "/dev/null")
        assert code == 0
        assert payload == {"classification": "OSCILLATORY", "decision": "q_zero"}

    def test_q_one_is_error(self, capsys):
        code, _ = run(capsys, "lindblad", "--q", "1.0")
        assert code == cli.EXIT_ERROR

    def test_csv_values_are_plain_numbers(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, _ = run(capsys, "lindblad", "--q", "0.03125", "--csv", str(csv_path))
        assert code == 0
        header, *rows = csv_path.read_text().splitlines()
        assert header == "t,p1,abs_c"
        assert rows
        for row in rows:
            assert len([float(token) for token in row.split(",")]) == 3

    @pytest.mark.parametrize("grid", [("--t-final", "1e308"), ("--dt", "1e-9")])
    def test_oversized_grid_is_clean_exit(self, capsys, grid):
        # 1e308 / dt overflows to inf; dt = 1e-9 asks for 1e10 steps
        assert cli.main(["lindblad", "--q", "0.5", *grid]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def cx(matrix):
    """Nested [re, im] pairs, the spec's entry format."""
    return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in np.asarray(matrix)]


class TestEntropy:
    def test_report(self, capsys, tmp_path):
        spec = {
            "rho": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
            "channel": {
                "kraus": [
                    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                ]
            },
            "base": 2,
        }
        path = tmp_path / "entropy.json"
        path.write_text(json.dumps(spec))
        code, payload = run(capsys, "entropy", "--in", str(path))
        assert code == 0
        assert payload["S"] == pytest.approx(0.8112781244591328)
        assert payload["I2"] == pytest.approx(0.0, abs=1e-10)
        assert payload["I3"] == pytest.approx(payload["S"], abs=1e-10)
        assert all(payload["theorem7"].values())

    def test_non_unital_channel(self, capsys, tmp_path):
        gamma = 0.3
        kraus = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
        ]
        spec = {"rho": cx(np.diag([0.4, 0.6])), "channel": {"kraus": [cx(a) for a in kraus]}}
        path = tmp_path / "entropy.json"
        path.write_text(json.dumps(spec))
        code, payload = run(capsys, "entropy", "--in", str(path))
        assert code == 0
        assert list(payload) == ["S", "S_out", "S_e", "I1", "I2", "I3"]
        # W = diag(0.82, 0.18)
        s_e = -(0.82 * np.log2(0.82) + 0.18 * np.log2(0.18))
        assert payload["S_e"] == pytest.approx(s_e, abs=1e-12)


def write_spec(tmp_path, text):
    path = tmp_path / "entropy.json"
    path.write_text(text)
    return str(path)


DIAGONAL_SPEC = {
    "rho": cx(np.diag([0.75, 0.25])),
    "channel": {"kraus": [cx(np.diag([1.0, 0.0])), cx(np.diag([0.0, 1.0]))]},
}


class TestEntropySpecErrors:
    @pytest.mark.parametrize(
        "text, reason",
        [
            (json.dumps(DIAGONAL_SPEC).replace("0.75", "NaN", 1), "rho: entries must be finite"),
            (json.dumps(DIAGONAL_SPEC).replace("0.75", "Infinity", 1), "must be finite"),
            (json.dumps({"rho": DIAGONAL_SPEC["rho"]}), "needs the keys"),
            (json.dumps({"rho": DIAGONAL_SPEC["rho"], "channel": {}}), "needs the keys"),
            (json.dumps({"channel": DIAGONAL_SPEC["channel"]}), "needs the keys"),
            (json.dumps([DIAGONAL_SPEC]), "needs the keys"),
            # a 2x2 and a 1x2 Kraus operator, complete together
            (
                json.dumps(
                    {
                        "rho": DIAGONAL_SPEC["rho"],
                        "channel": {
                            "kraus": [
                                cx(np.diag([1.0, np.sqrt(0.5)])),
                                cx([[0.0, np.sqrt(0.5)]]),
                            ]
                        },
                    }
                ),
                "channel.kraus: entries must form one rectangular array",
            ),
            (
                json.dumps({**DIAGONAL_SPEC, "rho": [[0.75, 0.0], [0.0, 0.25]]}),
                "rho: expected a rank-2 array of [re, im] pairs",
            ),
            (
                json.dumps({**DIAGONAL_SPEC, "rho": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}),
                "rho: entries must be [re, im] pairs of numbers",
            ),
            (
                json.dumps({**DIAGONAL_SPEC, "channel": {"kraus": []}}),
                "channel.kraus: expected a rank-3 array",
            ),
        ],
        ids=[
            "nan", "inf", "no-channel", "no-kraus", "no-rho", "not-an-object",
            "ragged-kraus", "real-entries", "string-entry", "no-operators",
        ],
    )
    def test_bad_spec_is_clean_exit(self, capsys, tmp_path, text, reason):
        assert cli.main(["entropy", "--in", write_spec(tmp_path, text)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert reason in captured.err
        assert "Traceback" not in captured.err

    def test_pure_state_entropy_is_positive_zero(self, capsys, tmp_path):
        spec = {**DIAGONAL_SPEC, "rho": cx(np.diag([1.0, 0.0]))}
        assert cli.main(["entropy", "--in", write_spec(tmp_path, json.dumps(spec))]) == 0
        out = capsys.readouterr().out
        assert '"S": 0.0,' in out
        assert "-0.0" not in out


class TestSolve:
    def test_chaos_sat(self, capsys, sat_file):
        code, payload = run(capsys, "solve", sat_file)
        assert code == cli.EXIT_SAT
        assert payload["status"] == "SAT"
        assert payload["r"] == 3
        assert payload["chaos"]["decision"] == "SAT"

    def test_chaos_unsat(self, capsys, unsat_file):
        code, payload = run(capsys, "solve", unsat_file)
        assert code == cli.EXIT_UNSAT
        assert payload["status"] == "UNSAT"
        assert payload["chaos"]["first_crossing"] is None

    def test_builds_no_state_vector_and_keeps_the_width_cap(self, capsys, monkeypatch, sat_file):
        def dense(*args, **kwargs):
            pytest.fail("solve ran the dense engine")

        monkeypatch.setattr(cli.simulator, "init_state", dense)
        monkeypatch.setattr(cli.simulator, "apply", dense)
        code, payload = run(capsys, "solve", sat_file, "--engine", "both")
        assert code == cli.EXIT_SAT
        assert payload["probability"] == pytest.approx(0.75)
        assert cli.main(["--width-cap", "3", "solve", sat_file]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: width 4 exceeds cap 3\n"

    def test_both_engines_agree(self, capsys, sat_file):
        code, payload = run(capsys, "solve", sat_file, "--engine", "both")
        assert code == cli.EXIT_SAT
        assert payload["chaos"]["decision"] == "SAT"
        assert payload["lindblad"]["decision"] == "q_nonzero"

    def test_lindblad_unsupported_on_tautology(self, capsys, tmp_path):
        path = tmp_path / "taut.cnf"
        path.write_text("p cnf 1 1\n1 -1 0\n")
        code, payload = run(capsys, "solve", str(path), "--engine", "lindblad")
        assert code == cli.EXIT_ERROR
        assert payload["lindblad"] == {"decision": "unsupported", "reason": "q = 1"}
        assert payload["status"] == "FAILED"
        assert "lindblad" not in payload["timings"]

    def test_engine_disagreement_exits_3(self, capsys, monkeypatch, sat_file):
        def always_unsat(q_squared, params):
            return "UNSAT", cli.amplifier.ChaosTrajectory((q_squared,), None)

        monkeypatch.setattr(cli.amplifier, "decide_sat", always_unsat)
        code, payload = run(capsys, "solve", sat_file)
        # 3, not argparse's usage-error status 2
        assert code == cli.EXIT_DISAGREEMENT == 3
        assert payload["status"] == "FAILED"
        assert payload["r"] == 3

    def test_timings_per_stage(self, capsys, sat_file):
        _, payload = run(capsys, "solve", sat_file, "--engine", "both")
        timings = payload["timings"]
        assert list(timings) == ["parse", "oracle", "compile", "simulate", "amplify", "lindblad"]
        assert all(isinstance(t, float) and t >= 0 for t in timings.values())

    def test_seed_option_removed(self, capsys, sat_file):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["solve", sat_file, "--seed", "1"])
        assert exit_info.value.code == 2

    def test_deterministic_output(self, capsys, sat_file):
        _, first = run(capsys, "solve", sat_file)
        _, second = run(capsys, "solve", sat_file)
        for key in ("n", "m", "mu", "r", "probability", "chaos", "status"):
            assert first[key] == second[key]
