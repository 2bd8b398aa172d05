"""Tests of the benchmark's generators, references, checks, replay and metrics.

    python3 -m pytest perfbench
"""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chaossat import cli, cnf, compiler  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _files(directory) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _generate(name, seed, tmp_path):
    directory = tmp_path / f"{name}-{seed}"
    directory.mkdir(exist_ok=True)
    return workloads.generate(name, seed, str(directory)), directory


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    _, first = _generate(name, 7, tmp_path)
    (tmp_path / "again").mkdir()
    workloads.generate(name, 7, str(tmp_path / "again"))
    _, other = _generate(name, 8, tmp_path)
    assert _files(first) == _files(tmp_path / "again")
    assert _files(first) != _files(other)


def test_every_dense_formula_has_width_20_and_12_gates(tmp_path):
    for seed in range(3):
        ops, _ = _generate("solve-dense", seed, tmp_path)
        for op in ops:
            with open(op.argv[1]) as handle:
                circuit = compiler.compile(cnf.parse_dimacs(handle.read()))
            assert circuit.layout.total == 20
            assert len(circuit.sequence.ops) == 12


def test_probe_unsat_share_is_exactly_one_fifth(tmp_path):
    for seed in range(3):
        ops, _ = _generate("solve-probe", seed, tmp_path)
        unsat = [op for op in ops if workloads.reference_count(op.n, op.clauses) == 0]
        assert 5 * len(unsat) == len(ops)


def test_reference_count_equals_oracle_on_small_random_formulas():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 10)
        clauses = tuple(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            )
            for _ in range(rng.randint(1, 12))
        )
        instance = cnf.parse_dimacs(workloads.dimacs(n, clauses))
        assert workloads.reference_count(n, clauses) == cnf.count_satisfying(instance)


def _tampered(name, payload):
    if name == "entropy":
        return {**payload, "I2": 0.5}
    return {**payload, "r": payload["r"] + 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_accepts_cli_output_and_rejects_wrong_answers(name, tmp_path):
    ops, _ = _generate(name, 3, tmp_path)
    checker = workloads.Checker(name)
    call = run.cli_call(cli.main)
    for op in ops[:5]:
        code, stdout = call(op.argv)
        assert checker.check(op, code, stdout) is None
        wrong = json.dumps(_tampered(name, json.loads(stdout)))
        assert checker.check(op, code, wrong) is not None
        assert checker.check(op, code, "") is not None
    if name != "entropy":
        assert checker.check(ops[0], 1, stdout) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_replay_matches_cli_and_yields_every_per_layer_metric(name, tmp_path):
    ops, _ = _generate(name, 4, tmp_path)
    call = run.cli_call(cli.main)
    tracer = spans.Tracer()
    for op in ops[:5]:
        tracer.op += 1
        code, stdout = spans.replay(op.argv, tracer)
        cli_code, cli_stdout = call(op.argv)
        expected = json.loads(cli_stdout)
        expected.pop("timings", None)
        assert (code, json.loads(stdout)) == (cli_code, expected)
    metrics = spans.per_layer_metrics(tracer, [1.0, 2.0], [1.0, 2.0])
    assert list(metrics) == list(spans.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert sum(spans.span_shares(tracer).values()) == pytest.approx(100.0)


def test_exact_counts_of_a_dense_op(tmp_path):
    ops, _ = _generate("solve-dense", 5, tmp_path)
    tracer = spans.Tracer()
    spans.replay(ops[0].argv, tracer)
    metrics = spans.per_layer_metrics(tracer, [1.0], [1.0])
    counts = {name: metrics[name]["value"] for name in metrics if name.startswith("gates.")}
    assert counts == {
        "gates.count.H_BLOCK": 1,
        "gates.count.OR": 8,
        "gates.count.AND": 3,
        "gates.count.COPY": 0,
        "gates.count.NOT": 0,
    }
    assert metrics["compiler.width"]["value"] == 20
    assert metrics["simulator.state_mib"]["value"] == 16


def test_self_time_subtracts_the_time_children_cover():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["b", 50, 60, 0, 0],
        ["c", 52, 55, 2, 0],
    ]
    assert tracer.self_ns() == [60, 30, 7, 3]
    assert spans.layer_shares(spans.span_shares(tracer)) == {"cli": 60.0, "a": 30.0, "b": 7.0, "c": 3.0}


def test_linalg_counter_restores_numpy():
    import numpy as np

    eigh = np.linalg.eigh
    with spans.LinalgCounter() as calls:
        np.linalg.eigvalsh(np.eye(2))
        np.linalg.eigvalsh(np.eye(2))
    assert calls == {"eigh": 0, "eigvalsh": 2}
    assert np.linalg.eigh is eigh


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *spans.PER_LAYER, *workloads.WORKLOADS]:
        assert METRIC_NAME.match(name) and len(name) <= 64


def test_end_to_end_metrics_cover_every_name():
    results = [(None, 10, "", wall, wall) for wall in (0.1, 0.2, 0.3)]
    metrics = run.end_to_end_metrics(results, 0.5)
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(200.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(5.0)


def test_p50_is_the_mean_of_one_second_window_medians():
    walls = [0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.125]
    assert run.windows(walls, 1.0) == [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25, 0.125]]
    assert run.windowed_median(walls) == pytest.approx(0.375)
    assert run.windowed_median([0.1, 0.3, 0.2]) == pytest.approx(0.2)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "entropy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
