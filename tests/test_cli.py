import importlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chaossat
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
    return code, json.loads(out) if out else out


def run_child(*argv):
    """cli.main(argv) in a child process: its result, and its peak RSS in MiB.

    The child reads its peak as VmHWM: on Linux its ru_maxrss would also
    count the peak of this process, which it carries across exec."""
    child = (
        "import sys\n"
        "from chaossat import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(*(line.split()[1] for line in status if line.startswith('VmHWM:')),\n"
        "          file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = os.path.dirname(os.path.dirname(chaossat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode in (0, cli.EXIT_SAT), done.stderr
    return done, int(done.stderr) / 1024  # VmHWM is in KiB


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

    def test_oversized_header_is_refused_before_compiling(self, capsys, monkeypatch, tmp_path):
        def no_compile(instance):
            pytest.fail("compile ran on more variables than its limit")

        monkeypatch.setattr(cli.compiler, "compile", no_compile)
        path = tmp_path / "huge.cnf"
        path.write_text("p cnf 4000000 1\n1 0\n")
        assert cli.main(["compile", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n = 4000000 exceeds compile limit 65536\n"

    def test_the_limit_itself_compiles(self, capsys, tmp_path):
        path = tmp_path / "limit.cnf"
        path.write_text(f"p cnf {2**16} 1\n1 0\n")
        code, payload = run(capsys, "compile", str(path))
        assert code == 0
        assert payload["n"] == 2**16


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
        assert captured.err == "error: amplitude dump capped at width 12\n"

    def test_builds_no_state_vector_and_ignores_the_width_cap(
        self, capsys, monkeypatch, sat_file
    ):
        def dense(*args, **kwargs):
            pytest.fail("simulate built the dense state without --dump-amplitudes")

        monkeypatch.setattr(cli.simulator, "init_state", dense)
        monkeypatch.setattr(cli.simulator, "apply", dense)
        code, payload = run(capsys, "simulate", sat_file)
        assert code == 0
        assert payload["probability"] == pytest.approx(0.75)
        # the cap bounds only the dense vector, which plain simulate never builds
        assert run(capsys, "--width-cap", "3", "simulate", sat_file) == (0, payload)

    def test_width_cap_bounds_the_amplitude_dump(self, capsys, sat_file):
        assert cli.main(["--width-cap", "3", "simulate", sat_file, "--dump-amplitudes"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: width 4 exceeds cap 3\n"

    def test_more_variables_than_the_cap_are_refused_before_compiling(
        self, capsys, monkeypatch, tmp_path
    ):
        # simulate calls the oracle's own check, n <= 24, whatever --width-cap says
        def no_compile(instance):
            pytest.fail("simulate compiled a circuit for more variables than the limit")

        monkeypatch.setattr(cli.compiler, "compile", no_compile)
        path = tmp_path / "huge.cnf"
        for n in (25, 4000000):
            path.write_text(f"p cnf {n} 1\n1 0\n")
            assert cli.main(["--width-cap", "40", "simulate", str(path)]) == cli.EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: n={n} exceeds brute-force limit 24\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
    def test_width_26_stays_under_200_mib(self, tmp_path):
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 24 1\n1 2 0\n")
        done, peak = run_child("simulate", str(path))
        payload = json.loads(done.stdout)
        assert payload["probability"] == 0.7499999999999971
        assert payload["r_inferred"] == 3 * 2**22
        assert peak < 200

    def test_non_finite_value_is_refused_not_printed(self, capsys, monkeypatch, sat_file):
        monkeypatch.setattr(cli.simulator, "row_probability", lambda seq: (float("nan"), 0))
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
        code, payload = run(
            capsys, "amplify", "--q2", "0.5", "--steps", "3", "--csv", str(csv_path)
        )
        assert code == cli.EXIT_SAT
        assert payload == {"decision": "SAT", "first_crossing": 1}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,x"
        assert len(lines) == 5

    def test_csv_to_dev_stdout_precedes_the_report(self):
        # the CSV goes only where --csv names; /dev/stdout puts it before the JSON
        argv = ["-m", "chaossat.cli", "amplify", "--q2", "0.5", "--steps", "1",
                "--csv", "/dev/stdout"]
        src = os.path.dirname(os.path.dirname(chaossat.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == cli.EXIT_SAT, done.stderr
        csv, report = done.stdout.split("{", 1)
        assert csv == "step,x\n0,0.5\n1,0.9275\n"
        assert json.loads("{" + report) == {"decision": "SAT", "first_crossing": 1}

    def test_zero_denominator_is_clean_exit(self, capsys):
        assert cli.main(["amplify", "--q2", "1/0", "--steps", "3"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --q2 must be a number or a ratio like 1/1024, got '1/0'\n"

    # 1e400 parses as inf, and the 401-digit ratio overflows float division
    @pytest.mark.parametrize("q2", ["abc", "1/x", "", "1e400", "inf", "nan",
                                    pytest.param("1" + "0" * 400 + "/1", id="401-digit-ratio")])
    def test_non_numeric_q2_is_refused_by_name(self, capsys, q2):
        assert cli.main(["amplify", "--q2", q2, "--steps", "3"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --q2 must be a number or a ratio like 1/1024, got {q2!r}\n"
        )

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1", "2"])
    def test_threshold_outside_unit_interval_is_clean_exit(self, capsys, threshold):
        argv = ["amplify", "--q2", "0.5", "--steps", "3", "--threshold", threshold]
        assert cli.main(argv) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must lie in [0, 1)")


    @pytest.mark.parametrize("command", ["amplify", "solve"])
    def test_steps_above_a_million_are_refused(self, capsys, sat_file, command):
        args = ["--q2", "0"] if command == "amplify" else [sat_file]
        assert cli.main([command, *args, "--steps", "1000001"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_steps must be <= 1000000, got 1000001\n"

    def test_solve_refuses_steps_before_the_oracle(self, capsys, monkeypatch, tmp_path):
        def oracle(*args, **kwargs):
            pytest.fail("solve ran the oracle before refusing --steps")

        monkeypatch.setattr(cli.cnf, "count_satisfying", oracle)
        path = tmp_path / "n24.cnf"
        path.write_text("p cnf 24 1\n1 2 0\n")
        assert cli.main(["solve", str(path), "--steps", "2000000"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_steps must be <= 1000000, got 2000000\n"


class TestLindblad:
    # without --csv, run() reads the whole stdout as one JSON document
    def test_nonzero_q(self, capsys):
        code, payload = run(capsys, "lindblad", "--q", "0.03125")
        assert code == 0
        assert payload == {"classification": "DAMPED", "decision": "q_nonzero"}

    def test_zero_q(self, capsys):
        code, payload = run(capsys, "lindblad", "--q", "0")
        assert code == 0
        assert payload == {"classification": "OSCILLATORY", "decision": "q_zero"}

    def test_q_one_is_error(self, capsys):
        code, _ = run(capsys, "lindblad", "--q", "1.0")
        assert code == cli.EXIT_ERROR

    def test_holds_one_block_without_csv(self, capsys):
        run(capsys, "lindblad", "--q", "0.5")
        tracemalloc.start()
        try:
            code, payload = run(capsys, "lindblad", "--q", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, payload) == (0, {"classification": "DAMPED", "decision": "q_nonzero"})
        assert peak < 256 * 2**10  # the 10 001-point arrays alone take 313 KiB

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
    def test_csv_of_a_million_points_stays_under_150_mib(self, tmp_path):
        # the rows are written one by one, so the peak holds the trajectory's arrays
        # (about 60 MiB) but not the 57 MB of CSV text
        csv_path = tmp_path / "traj.csv"
        done, peak = run_child("lindblad", "--q", "0.5", "--dt", "1e-5", "--csv", str(csv_path))
        assert json.loads(done.stdout) == {"classification": "DAMPED", "decision": "q_nonzero"}
        with open(csv_path) as handle:
            assert sum(1 for _ in handle) == 1 + 10**6 + 1
        assert peak < 150

    def test_csv_values_are_plain_numbers(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, _ = run(capsys, "lindblad", "--q", "0.03125", "--csv", str(csv_path))
        assert code == 0
        header, *rows = csv_path.read_text().splitlines()
        assert header == "t,p1,abs_c"
        assert rows
        for row in rows:
            assert len([float(token) for token in row.split(",")]) == 3

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(e0=st.integers(-3, 3), gap=st.integers(2, 6), dt=st.floats(1e-3, 4.0),
           t_final=st.floats(1e-3, 60.0))
    @example(e0=0, gap=2, dt=0.001, t_final=3 * 2 * math.pi)  # DEFAULT_DT
    @example(e0=0, gap=2, dt=0.37, t_final=3 * 2 * math.pi)
    @example(e0=0, gap=2, dt=math.pi, t_final=10.0)  # two samples a period
    @example(e0=0, gap=2, dt=0.5, t_final=6.0)  # 12 steps of 0.5 fall short of 2 pi
    @example(e0=0, gap=2, dt=0.5, t_final=6.5)
    def test_zero_q_oscillates_exactly_when_the_grid_samples_a_period(
            self, capsys, e0, gap, dt, t_final):
        # the coherence turns by theta = |(E0 + 1) - E1| dt per step, and the grid
        # has round(t_final / dt) steps
        theta = abs((e0 + 1 - (e0 + gap)) * dt)
        steps = round(t_final / dt)
        argv = ["lindblad", "--q", "0", "--e0", str(e0), "--e1", str(e0 + gap),
                "--dt", repr(dt), "--t-final", repr(t_final)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        if 0.0 < theta < math.pi and steps * theta >= 2.0 * math.pi:
            assert (code, captured.err) == (0, "")
            assert json.loads(captured.out) == {"classification": "OSCILLATORY",
                                                "decision": "q_zero"}
        else:
            assert (code, captured.out) == (cli.EXIT_ERROR, "")
            assert captured.err == ("error: trajectory classified STATIONARY, "
                                    "inconsistent with q=0.0\n")

    @pytest.mark.parametrize("grid", [("--t-final", "1e308"), ("--dt", "1e-9")])
    def test_oversized_grid_is_clean_exit(self, capsys, grid):
        # 1e308 / dt overflows to inf; dt = 1e-9 asks for 1e10 steps
        assert cli.main(["lindblad", "--q", "0.5", *grid]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


    @pytest.mark.parametrize("command", ["lindblad", "solve"])
    @pytest.mark.parametrize(
        "gamma", ["--gamma-re=nan", "--gamma-re=inf", "--gamma-im=nan", "--gamma-im=-inf"]
    )
    def test_non_finite_gamma_is_clean_exit(self, capsys, sat_file, command, gamma):
        args = ["--q", "0.5"] if command == "lindblad" else [sat_file, "--engine", "lindblad"]
        assert cli.main([command, *args, gamma]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma must be finite, got ")

    @pytest.mark.parametrize("gamma, shown", [
        (["--gamma-re", "1e308"], "(1e+308+0j)"),
        (["--gamma-im", "1e200"], "(1+1e+200j)"),
    ])
    def test_overflowing_gamma_is_refused_by_name(self, capsys, gamma, shown):
        # z**3 in the RK4 step factor passes the float range at these values; with no
        # --dt, Re gamma 1e308 steps by a thousandth of its horizon 10 / Re gamma
        dt = "1e-310" if gamma[0] == "--gamma-re" else "0.001"
        assert cli.main(["lindblad", "--q", "0.5", *gamma]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma {shown} with dt {dt} overflows the RK4 step factor\n"

    @pytest.mark.parametrize("t_final, dt", [("1e-300", "1.0000000000000001e-303"),
                                             ("1e-322", "0.0")])
    def test_horizon_too_short_to_step_is_refused_by_name(self, capsys, t_final, dt):
        # with no --dt the step is t_final / 1000; here it moves no state, and the value
        # at fault is --t-final, not a --dt that was never given
        assert cli.main(["lindblad", "--q", "0.5", "--t-final", t_final]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: t_final {t_final} is too short: its step "
                                f"t_final / 1000 = {dt} leaves the state unchanged\n")
        # an explicit --dt keeps its own refusal
        assert cli.main(["lindblad", "--q", "0.5", "--t-final", t_final, "--dt", "1e-303"]) == 1
        assert capsys.readouterr().err.startswith("error: gamma (1+0j) with dt 1e-303 gives an ")
        # so does a gamma that not even the default step 1e-3 moves: gamma is at fault
        assert cli.main(["lindblad", "--q", "0.5", "--gamma-re", "1e-20", "--t-final", "0.5"]) == 1
        assert capsys.readouterr().err.startswith("error: gamma (1e-20+0j) with dt 0.0005 gives an ")


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

    def test_leak_off_the_output_support_gives_finite_i1(self, capsys, tmp_path):
        # Lambda rho = diag(1 - lam, 0.95 lam, 0.05 lam): its last eigenvalue, 5e-13, is
        # below SUPPORT_TOL, and Lambda E_1 puts weight 0.05 there
        lam, p = 1e-11, 0.05
        kraus = [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)], [0.0, 0.0]]),
                 np.array([[0.0, 0.0], [0.0, 0.0], [0.0, np.sqrt(p)]])]
        spec = {"rho": cx(np.diag([1.0 - lam, lam])), "channel": {"kraus": [cx(a) for a in kraus]}}
        path = tmp_path / "leak.json"
        path.write_text(json.dumps(spec))
        code, payload = run(capsys, "entropy", "--in", str(path))
        assert code == 0
        # H(1 - lam, 0.95 lam), with 0.05 lam cut as zero, minus lam h(0.05)
        h_out = -((1.0 - lam) * math.log2(1.0 - lam) + (1.0 - p) * lam * math.log2((1.0 - p) * lam))
        h_p = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        assert payload["I1"] == pytest.approx(h_out - lam * h_p, abs=1e-12)

    def test_loose_channel_is_refused_by_the_channel(self, capsys, tmp_path):
        # sum A+ A = I is off by 5e-11, past the 1e-12 that the output state's trace must meet
        spec = {"rho": cx(np.diag([0.75, 0.25])),
                "channel": {"kraus": [cx(np.diag([math.sqrt(1.0 + 5e-11), 0.0])),
                                      cx(np.diag([0.0, 1.0]))]}}
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["entropy", "--in", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Kraus operators must satisfy sum A+ A = I\n"


def write_spec(tmp_path, text):
    path = tmp_path / "entropy.json"
    path.write_text(text)
    return str(path)


DIAGONAL_SPEC = {
    "rho": cx(np.diag([0.75, 0.25])),
    "channel": {"kraus": [cx(np.diag([1.0, 0.0])), cx(np.diag([0.0, 1.0]))]},
}


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def replace_one(draw, node, value):
    """Put value in place of one element of the nested list node, at a drawn depth."""
    index = draw(st.integers(0, len(node) - 1))
    if isinstance(node[index], list) and draw(st.booleans()):
        replace_one(draw, node[index], value)
    else:
        node[index] = value


@st.composite
def entropy_specs(draw):
    """(spec text, whether the spec is valid) for states and channels of dimension <= 4.

    A valid spec is a full-rank state and a unitary, depolarizing or rank-1
    PVM channel; a mutation then breaks an entry, a rank, a shape, a key,
    the top level or the base.
    """
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + 0.05 * np.eye(dim)
    rho = (rho + rho.conj().T) / 2
    rho /= np.trace(rho).real
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    kraus = {
        "unitary": [basis],
        "depolarizing": np.eye(dim * dim).reshape(dim * dim, dim, dim) / np.sqrt(dim),
        "pvm": [np.outer(basis[:, j], basis[:, j].conj()) for j in range(dim)],
    }[draw(st.sampled_from(("unitary", "depolarizing", "pvm")))]
    spec = {"rho": cx(rho), "channel": {"kraus": [cx(a) for a in kraus]}}
    base = draw(st.sampled_from((None, 2, "e", 3)))
    if base is not None:
        spec["base"] = base
    valid = base != 3
    mutation = draw(st.sampled_from(
        ("none", "entry", "rank", "shape", "missing-key", "top-level")
    ))
    if mutation == "entry":
        # bool, string, null, NaN, inf, any float or a list where a number belongs
        value = draw(st.one_of(
            st.booleans(), st.text(max_size=2), st.none(), st.floats(),
            st.lists(st.floats(-2.0, 2.0), max_size=3),
        ))
        replace_one(draw, spec["rho"] if draw(st.booleans()) else spec["channel"]["kraus"], value)
        valid = False
    elif mutation == "rank":
        key = draw(st.sampled_from(("rho", "kraus")))
        holder = spec if key == "rho" else spec["channel"]
        holder[key] = draw(st.sampled_from((holder[key][0], [holder[key]])))
        valid = False
    elif mutation == "shape":
        if draw(st.booleans()):
            spec["rho"] = spec["rho"][:-1] or [[]]  # not square
        else:
            operator = spec["channel"]["kraus"][0]
            spec["channel"]["kraus"][0] = [row[:-1] for row in operator]  # ragged stack
        valid = False
    elif mutation == "missing-key":
        holder, key = draw(st.sampled_from(((spec, "rho"), (spec, "channel"),
                                            (spec["channel"], "kraus"))))
        del holder[key]
        valid = False
    elif mutation == "top-level":
        spec = draw(st.sampled_from(([spec], 3, 2.5, "spec", None)))
        valid = False
    return json.dumps(spec), valid


class TestEntropySpecErrors:
    @pytest.mark.parametrize(
        "text, reason",
        [
            (json.dumps(DIAGONAL_SPEC).replace("0.75", "NaN", 1),
             "density matrix entries must be finite"),
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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=entropy_specs())
    def test_fuzzed_spec_exits_cleanly(self, capsys, tmp_path, spec):
        text, valid = spec
        code = cli.main(["entropy", "--in", write_spec(tmp_path, text)])
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
            json.loads(captured.out, parse_constant=reject_constant)
        else:
            assert not valid, captured.err
            assert code == cli.EXIT_ERROR
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert "Traceback" not in captured.err

    def test_dimension_mismatch_is_refused_by_name(self, capsys, tmp_path):
        spec = json.dumps({**DIAGONAL_SPEC, "rho": cx(np.eye(3) / 3)})
        assert cli.main(["entropy", "--in", write_spec(tmp_path, spec)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dimension mismatch 3 != 2\n"

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

    def test_builds_no_state_vector_and_ignores_the_width_cap(
        self, capsys, monkeypatch, sat_file
    ):
        def dense(*args, **kwargs):
            pytest.fail("solve ran the dense engine")

        monkeypatch.setattr(cli.simulator, "init_state", dense)
        monkeypatch.setattr(cli.simulator, "apply", dense)
        code, payload = run(capsys, "solve", sat_file, "--engine", "both")
        assert code == cli.EXIT_SAT
        assert payload["probability"] == pytest.approx(0.75)
        code, capped = run(capsys, "--width-cap", "3", "solve", sat_file, "--engine", "both")
        assert code == cli.EXIT_SAT
        del payload["timings"], capped["timings"]
        assert capped == payload

    @pytest.mark.parametrize("n, m", [(8, m) for m in range(7, 25)] + [(18, 76)])
    def test_runs_past_the_old_width_cap(self, capsys, monkeypatch, tmp_path, n, m):
        # 3-SAT at n = 8, m = 7 compiles to 28 wires, n = 18, m = 76 to 245;
        # the engine's own count must equal the oracle's
        counts = []
        row_probability = cli.simulator.row_probability

        def engine(seq):
            probability, rows = row_probability(seq)
            counts.append(rows)
            return probability, rows

        monkeypatch.setattr(cli.simulator, "row_probability", engine)
        rng = random.Random(1000 * n + m)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(m)
        ]
        instance = cli.cnf.CnfInstance(n, tuple(clauses))
        path = tmp_path / "random.cnf"
        path.write_text(cli.cnf.render_dimacs(instance))
        code, payload = run(capsys, "solve", str(path))
        r = cli.cnf.count_satisfying(instance)
        assert payload["total_qubits"] > 26
        assert counts == [r] and payload["r"] == r
        assert code == (cli.EXIT_SAT if r else cli.EXIT_UNSAT)

    @pytest.mark.parametrize("engine", ["lindblad", "both"])
    @pytest.mark.parametrize("gamma", [
        "--gamma-re=nan", "--gamma-re=0", "--gamma-re=-1", "--gamma-re=1e308", "--gamma-re=1e-4",
        "--gamma-im=3000",
    ])
    def test_gamma_is_refused_before_the_oracle(self, capsys, monkeypatch, tmp_path,
                                                 unsat_file, engine, gamma):
        # solve calls the probe's own set-up, so it refuses each gamma with the line
        # lindblad prints, at any q; 1e308 overflows the RK4 step factor, 1e-4
        # asks for a grid of 1e8 steps and Im gamma 3000 gives a coherence step
        # with |R(z)| > 1
        assert cli.main(["lindblad", "--q", "0.5", gamma]) == cli.EXIT_ERROR
        probe = capsys.readouterr()
        assert probe.out == "" and probe.err.startswith("error: ")
        assert probe.err.count("\n") == 1
        assert cli.main(["lindblad", "--q", "0", gamma]) == cli.EXIT_ERROR
        assert capsys.readouterr() == probe

        def oracle(*args, **kwargs):
            pytest.fail("solve ran the oracle before refusing gamma")

        monkeypatch.setattr(cli.cnf, "count_satisfying", oracle)
        path = tmp_path / "n24.cnf"
        path.write_text("p cnf 24 1\n1 2 0\n")
        for formula in (str(path), unsat_file):
            assert cli.main(["solve", formula, "--engine", engine, gamma]) == cli.EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == probe.err

    def test_gamma_below_the_stability_limit_still_decides(self, capsys, sat_file):
        # Re gamma dt = 1 at the default grid step: |R(z)| = 1/3 for p1, 3/8 for the coherence
        code, payload = run(capsys, "solve", sat_file, "--engine", "lindblad", "--gamma-re", "1e3")
        assert code == cli.EXIT_SAT
        assert payload["lindblad"] == {"decision": "q_nonzero", "classification": "DAMPED"}

    def test_large_real_gamma_decides(self, capsys, sat_file):
        # past Re gamma 10 the default horizon 10 / Re gamma is shorter than 1, and the
        # default step, a thousandth of it, keeps 1001 points that reach the floor
        for gamma in [1200.0, 1.4e3, 1e5, *np.logspace(1.0, 6.0, 200)]:
            code, payload = run(capsys, "solve", sat_file, "--engine", "lindblad",
                                "--gamma-re", repr(float(gamma)))
            assert code == cli.EXIT_SAT, gamma
            assert payload["lindblad"] == {"decision": "q_nonzero", "classification": "DAMPED"}

    @pytest.mark.parametrize("engine", ["chaos", "lindblad", "both"])
    def test_engine_count_must_equal_the_oracle(self, capsys, monkeypatch, sat_file, engine):
        # one row too many flips no verdict: r = 3 of 4 stays SAT
        row_probability = cli.simulator.row_probability

        def miscount(seq):
            probability, rows = row_probability(seq)
            return probability, rows + 1

        monkeypatch.setattr(cli.simulator, "row_probability", miscount)
        code, payload = run(capsys, "solve", sat_file, "--engine", engine)
        assert code == cli.EXIT_DISAGREEMENT
        assert payload["status"] == "FAILED"
        assert payload["r"] == 3

    def test_plane_bound_is_refused_before_the_oracle(self, capsys, monkeypatch, tmp_path):
        def oracle(*args, **kwargs):
            raise AssertionError("solve ran the oracle before the plane bound")

        monkeypatch.setattr(cli.cnf, "count_satisfying", oracle)
        rng = random.Random(24)
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 25), 3))
            for _ in range(1000)
        )
        path = tmp_path / "wide.cnf"
        path.write_text(cli.cnf.render_dimacs(cli.cnf.CnfInstance(24, clauses)))
        assert cli.main(["solve", str(path), "--engine", "both"]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: width 3023 at 16777216 rows exceeds 436207616 plane bits\n"

    def test_oracle_limit_is_refused_before_compiling(self, capsys, monkeypatch, tmp_path):
        def compile_(*args, **kwargs):
            raise AssertionError("solve compiled past the oracle's limit")

        monkeypatch.setattr(cli.compiler, "compile", compile_)
        # n = 10^6 is refused before the chaos engine's default 2n steps pass its 10^6
        for n, text in ((25, "p cnf 25 1\n1 2 0\n"), (1000000, "p cnf 1000000 1\n1 0\n")):
            path = tmp_path / f"n{n}.cnf"
            path.write_text(text)
            assert cli.main(["solve", str(path)]) == cli.EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: n={n} exceeds brute-force limit 24\n"

    def test_probe_keeps_no_trajectory(self, capsys, monkeypatch, sat_file, unsat_file):
        def read(*args):
            pytest.fail("solve read the probe's trajectory arrays")

        for name in ("times", "p1", "coherence", "abs_c"):
            monkeypatch.setattr(cli.lindblad.Trajectory, name, property(read))
        code, payload = run(capsys, "solve", sat_file, "--engine", "lindblad")
        assert code == cli.EXIT_SAT
        assert payload["lindblad"] == {"decision": "q_nonzero", "classification": "DAMPED"}
        # q = 0 is decided from the rotation angle: no grid point is checked or evaluated
        monkeypatch.setattr(cli.lindblad.Trajectory, "check", read)
        monkeypatch.setattr(cli.lindblad.Trajectory, "_at", read)
        code, payload = run(capsys, "solve", unsat_file, "--engine", "lindblad")
        assert code == cli.EXIT_UNSAT
        assert payload["lindblad"] == {"decision": "q_zero", "classification": "OSCILLATORY"}

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

    def test_lindblad_unsupported_on_a_20_variable_tautology(self, capsys, tmp_path):
        # the engine counts r = 2^20 exactly; its probability rounds to just under 1
        path = tmp_path / "taut20.cnf"
        path.write_text("p cnf 20 2\n1 -1 0\n20 -20 2 0\n")
        code, payload = run(capsys, "solve", str(path), "--engine", "lindblad")
        assert code == cli.EXIT_ERROR
        assert payload["r"] == 2**20
        assert payload["probability"] < 1.0
        assert payload["lindblad"] == {"decision": "unsupported", "reason": "q = 1"}
        assert payload["status"] == "FAILED"

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


class TestReusedParser:
    def test_one_parser_gives_what_fresh_parsers_give(self, capsys, monkeypatch, tmp_path,
                                                      sat_file):
        # every op of the benchmark's four workloads at seed 1, each followed by an error
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        workloads = importlib.import_module("workloads")
        errors = [
            ["oracle", sat_file, "--no-such-flag"],
            ["oracle", str(tmp_path / "missing.cnf")],
            ["solve", sat_file, "--steps", "2000000"],
            ["amplify", "--q2", "1/1024", "--steps", "20", "--threshold", "1"],
        ]
        argvs = []
        for name in sorted(workloads.WORKLOADS):
            directory = tmp_path / name
            directory.mkdir()
            for op in workloads.generate(name, 1, str(directory)):
                argvs += [list(op.argv), errors[len(argvs) // 2 % len(errors)]]

        def outcomes():
            for argv in argvs:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                out = json.loads(captured.out) if captured.out else None
                if isinstance(out, dict):
                    out.pop("timings", None)
                yield argv, code, out, captured.err

        fresh = list(outcomes())
        shared = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: shared)
        assert list(outcomes()) == fresh
        assert {code for _, code, _, _ in fresh} == {0, 1, 2, 10, 20}
