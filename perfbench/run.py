#!/usr/bin/env python3
"""Benchmark of the chaossat command line, driven in-process.

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports chaossat from ``src/``.
One client calls ``chaossat.cli.main`` in a closed loop: each op starts
when the previous one has returned.  Inputs are generated from the seed
into files under ``.perfbench/``, and every op's output is checked
against the benchmark's own references after the timed loop.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends half its time on untraced ops and half on a
traced replay of the same ops, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
# op_p50_ms is the mean of the medians of consecutive windows of this much op time
WINDOW_S = 1.0
MAX_REPORTED_FAILURES = 10

# metric name -> unit, for every metric an untraced run reports
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that sets up, prints its ready time and exits
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cli_call(main):
    """Wrap chaossat.cli.main as argv -> (exit code, stdout text)."""

    def call(argv):
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = main(list(argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        return code, buffer.getvalue()

    return call


def setup(name: str, seed: int, directory: str):
    """Import the program, write the inputs and warm up; returns (ops, call)."""
    sys.path.insert(0, SRC)
    from chaossat import cli

    ops = workloads.generate(name, seed, directory)
    call = cli_call(cli.main)
    for i in range(workloads.WORKLOADS[name].warmup_ops):
        call(ops[i % len(ops)].argv)
    return ops, call


def measure_setup(args) -> float:
    """Seconds from spawning a fresh process until its set-up is done."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    start = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return float(done.stdout.split()[-1]) - start


def timed_loop(ops, seconds: float, call) -> list[tuple]:
    """Closed loop, one client; returns (op, code, stdout, wall s, cpu s) per op."""
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        cpu = time.process_time()
        start = time.perf_counter()
        code, stdout = call(op.argv)
        wall = time.perf_counter() - start
        results.append((op, code, stdout, wall, time.process_time() - cpu))
        i += 1
    return results


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def windows(walls, seconds: float) -> list[list[float]]:
    """Consecutive runs of op times that each sum to at least seconds.

    Left-over ops join the last window; a run shorter than seconds is one window.
    """
    groups, current, total = [], [], 0.0
    for wall in walls:
        current.append(wall)
        total += wall
        if total >= seconds:
            groups.append(current)
            current, total = [], 0.0
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def windowed_median(walls) -> float:
    """Mean over WINDOW_S windows of the median op time in each.

    The host's speed switches between two levels every few seconds; a plain
    median over the run flips between them when the run spends about half
    its time at each, while this moves with the share of time at each.
    """
    return statistics.fmean(statistics.median(w) for w in windows(walls, WINDOW_S))


def end_to_end_metrics(results, setup_s: float) -> dict:
    walls = [r[3] for r in results]
    values = {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": 1e3 * windowed_median(walls),
        "op_p90_ms": 1e3 * p90(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What a result depends on besides the code, so that runs are compared knowingly."""
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.endswith("_NUM_THREADS") or key in ("OMP_PROC_BIND", "OMP_PLACES")
    }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "thread_env": threads,
    }


def check(name: str, results) -> list[str]:
    checker = workloads.Checker(name)
    failures = []
    for op, code, stdout, _, _ in results:
        reason = checker.check(op, code, stdout)
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason}")
    return failures


def run(args) -> dict:
    setup_s = statistics.median(measure_setup(args) for _ in range(SETUP_SAMPLES))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as directory:
        ops, call = setup(args.workload, args.seed, directory)
        if not args.trace:
            results = timed_loop(ops, args.seconds, call)
            metrics = end_to_end_metrics(results, setup_s)
            extra = {}
        else:
            import spans

            untraced = timed_loop(ops, args.seconds / 2, call)
            tracer = spans.Tracer()

            def traced_call(argv):
                tracer.op += 1
                try:
                    return spans.replay(argv, tracer)
                except (Exception, SystemExit):
                    traceback.print_exc()
                    return None, ""

            traced = timed_loop(ops, args.seconds / 2, traced_call)
            results = untraced + traced
            metrics = spans.per_layer_metrics(
                tracer, [1e3 * r[3] for r in untraced], [1e3 * r[4] for r in untraced]
            )
            tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))
            shares = spans.span_shares(tracer)
            extra = {"span_share_pct": shares, "layer_share_pct": spans.layer_shares(shares)}
        failures = check(args.workload, results)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "metrics": metrics,
        **extra,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(summary, handle, indent=2)
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chaossat", "cli.py")):
        print(f"error: no chaossat sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as directory:
            setup(args.workload, args.seed, directory)
            print(time.monotonic())
        return 0

    summary = run(args)
    print(f"environment {json.dumps(summary['environment'])}")
    for failure in summary["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, share in summary.get("layer_share_pct", {}).items():
        print(f"share {name:<12} {share:6.2f} %")
    print(f"{summary['workload']} seed {summary['seed']}: {summary['attempted']} ops, "
          f"{summary['failed']} failed")
    for name, metric in summary["metrics"].items():
        print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
