"""Traced replay of each workload's CLI command, and the per-layer metrics.

The replay calls the same public functions, in the same order, as the
CLI command it stands for (``cmd_solve``, ``cmd_oracle`` and
``cmd_entropy`` in ``chaossat.cli``), with a span around each call.  A
span is (name, start ns, end ns, parent span index, op id); spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.  The op's own span is
named ``cli``, so its self time is the CLI's argument parsing, file
reading and JSON output.

The replay must follow the CLI by hand until ``solve`` can write a run
report of its own; the benchmark should then read that report instead.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from chaossat import amplifier, cli, cnf, compiler, entropy, lindblad, simulator
from chaossat.gates import GateSequence

GATE_KINDS = ("H_BLOCK", "OR", "AND", "COPY", "NOT")
AMPLITUDE_BYTES = 16  # complex128

# span name -> per-layer metric (median self time per op, in ms)
SPAN_METRICS = {
    "cli": "cli.self_ms",
    "cnf.parse": "cnf.parse_ms",
    "cnf.oracle": "cnf.oracle_ms",
    "compiler.compile": "compiler.compile_ms",
    "simulator.init": "simulator.init_ms",
    "simulator.h_block": "simulator.h_block_ms",
    "simulator.permute": "simulator.permute_ms",
    "simulator.readout": "simulator.readout_ms",
    "amplifier.decide": "amplifier.decide_ms",
    "lindblad.discriminate": "lindblad.discriminate_ms",
    "entropy.construct": "entropy.construct_ms",
    "entropy.vn_entropy": "entropy.vn_entropy_ms",
    "entropy.exchange": "entropy.exchange_ms",
    "entropy.ohya_mutual": "entropy.ohya_mutual_ms",
    "entropy.coherent": "entropy.coherent_ms",
    "entropy.theorem7": "entropy.theorem7_ms",
}
# per-op counts, reported as their low median over the ops that record them,
# so that the value is one an op produced
COUNT_METRICS = (
    "compiler.width",
    *(f"gates.count.{kind}" for kind in GATE_KINDS),
    "simulator.minflt",
    "simulator.state_mib",
    "amplifier.steps",
    "amplifier.first_crossing",
    "lindblad.steps",
    "entropy.eigh_calls",
    "entropy.eigvalsh_calls",
)
# metric name -> unit, for every metric a traced run reports
PER_LAYER = {
    **{name: "ms" for name in SPAN_METRICS.values()},
    "cli.cpu_ms": "ms",
    **{name: "count" for name in COUNT_METRICS},
    "simulator.state_mib": "MiB",
    "simulator.gib_per_s": "GiB/s",
    "cnf.oracle_lit_evals_per_s": "1/s",
    "lindblad.steps_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.op])
        t.stack.append(self.index)

    def __exit__(self, *exc_info):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t.stack.pop()


class Tracer:
    """In-memory spans and per-op counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: list[tuple] = []  # (name, value, op)
        self.stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value) -> None:
        self.counts.append((name, value, self.op))

    def self_ns(self) -> list[int]:
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class LinalgCounter:
    """Counts numpy.linalg.eigh and eigvalsh calls while installed."""

    NAMES = ("eigh", "eigvalsh")

    def __enter__(self):
        self.calls = dict.fromkeys(self.NAMES, 0)
        self._saved = {name: getattr(np.linalg, name) for name in self.NAMES}
        for name, func in self._saved.items():
            setattr(np.linalg, name, self._counting(name, func))
        return self.calls

    def _counting(self, name, func):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def __exit__(self, *exc_info):
        for name, func in self._saved.items():
            setattr(np.linalg, name, func)


def _read(path: str) -> cnf.CnfInstance:
    with open(path) as handle:
        return cnf.parse_dimacs(handle.read())


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def computed_bytes(seq: GateSequence) -> int:
    """Least bytes one simulator.apply must read and write, from the gate list.

    The state is copied once, each Hadamard wire reads and writes the whole
    state, and each conditional swap reads and writes the share its
    controls select (OR is three swaps).  Temporaries and cache misses
    are ignored.
    """
    state = AMPLITUDE_BYTES * 2**seq.width
    total = 2 * state
    for op in seq.ops:
        if op.kind == "H_BLOCK":
            total += 2 * state * len(op.wires)
        elif op.kind == "OR":
            total += 2 * state * (1 / 2 + 1 / 2 + 1 / 4)
        else:
            total += 2 * state / 2 ** len(op.controls)
    return int(total)


def replay_solve(argv, tr: Tracer) -> tuple[int, str]:
    """cmd_solve's stages, with simulate split at the end of the Hadamard prefix."""
    args = cli.build_parser().parse_args(argv)
    with tr.span("cnf.parse"):
        instance = _read(args.path)
    with tr.span("cnf.oracle"):
        r = cnf.count_satisfying(instance)
    tr.count("cnf.lit_evals", 2**instance.n * sum(len(c) for c in instance.clauses))
    with tr.span("compiler.compile"):
        circuit = compiler.compile(instance)
    layout, seq = circuit.layout, circuit.sequence
    tr.count("compiler.width", seq.width)
    for kind in GATE_KINDS:
        tr.count(f"gates.count.{kind}", sum(op.kind == kind for op in seq.ops))
    k = next((i for i, op in enumerate(seq.ops) if op.kind != "H_BLOCK"), len(seq.ops))
    prefix = GateSequence(seq.width, seq.ops[:k])
    rest = GateSequence(seq.width, seq.ops[k:])
    tr.count("simulator.state_mib", AMPLITUDE_BYTES * 2**seq.width / 2**20)
    tr.count("simulator.bytes", computed_bytes(prefix) + computed_bytes(rest))

    faults = _minflt()
    with tr.span("simulator.init"):
        state = simulator.init_state(layout, cap=args.width_cap)
    with tr.span("simulator.h_block"):
        state = simulator.apply(state, prefix)
    with tr.span("simulator.permute"):
        state = simulator.apply(state, rest)
    with tr.span("simulator.readout"):
        probability = simulator.success_probability(state, layout)
    tr.count("simulator.minflt", _minflt() - faults)

    steps = args.steps if args.steps is not None else 2 * instance.n
    report = {
        "n": instance.n,
        "m": instance.m,
        "mu": layout.mu,
        "total_qubits": layout.total,
        "gate_count": len(seq.ops),
        "r": r,
        "probability": float(probability),
    }
    verdicts = []
    if args.engine in ("chaos", "both"):
        params = amplifier.LogisticParams(a=args.a, max_steps=steps)
        with tr.span("amplifier.decide"):
            decision, trajectory = amplifier.decide_sat(probability, params)
        tr.count("amplifier.steps", len(trajectory.xs) - 1)
        if trajectory.first_crossing is not None:
            tr.count("amplifier.first_crossing", trajectory.first_crossing)
        report["chaos"] = {"decision": decision, "first_crossing": trajectory.first_crossing}
        verdicts.append(decision)
    if args.engine in ("lindblad", "both"):
        q = float(np.sqrt(probability))
        if q >= 1.0 - 1e-12:
            report["lindblad"] = {"decision": "unsupported", "reason": "q = 1"}
        else:
            gamma = complex(args.gamma_re, args.gamma_im)
            with tr.span("lindblad.discriminate"):
                decision, classification, record = lindblad.discriminate(q, gamma)
            tr.count("lindblad.steps", len(record.times) - 1)
            report["lindblad"] = {"decision": decision, "classification": classification}
            verdicts.append("SAT" if decision == "q_nonzero" else "UNSAT")

    expected = "SAT" if r > 0 else "UNSAT"
    if any(v != expected for v in verdicts):
        report["status"] = "FAILED"
        code = cli.EXIT_DISAGREEMENT
    else:
        report["status"] = expected
        code = cli.EXIT_SAT if r > 0 else cli.EXIT_UNSAT
    return code, json.dumps(report, indent=2)


def replay_oracle(argv, tr: Tracer) -> tuple[int, str]:
    args = cli.build_parser().parse_args(argv)
    with tr.span("cnf.parse"):
        instance = _read(args.path)
    with tr.span("cnf.oracle"):
        r = cnf.count_satisfying(instance, limit=args.width_cap)
    tr.count("cnf.lit_evals", 2**instance.n * sum(len(c) for c in instance.clauses))
    payload = {"n": instance.n, "m": instance.m, "r": r, "total_assignments": 2**instance.n}
    return (cli.EXIT_SAT if r > 0 else cli.EXIT_UNSAT), json.dumps(payload, indent=2)


def replay_entropy(argv, tr: Tracer) -> tuple[int, str]:
    args = cli.build_parser().parse_args(argv)
    with open(args.input) as handle:
        data = json.load(handle)

    def matrix(entries):
        return np.array([[complex(re, im) for re, im in row] for row in entries])

    rho_matrix = matrix(data["rho"])
    kraus = tuple(matrix(k) for k in data["channel"]["kraus"])
    base = data.get("base", 2)
    with LinalgCounter() as calls:
        with tr.span("entropy.construct"):
            rho = entropy.DensityMatrix(rho_matrix)
            channel = entropy.KrausChannel(kraus)
        with tr.span("entropy.vn_entropy"):
            s_rho = entropy.vn_entropy(rho, base)
        with tr.span("entropy.construct"):
            out = channel(rho)
        with tr.span("entropy.vn_entropy"):
            s_out = entropy.vn_entropy(out, base)
        with tr.span("entropy.exchange"):
            s_e = entropy.entropy_exchange(rho, channel, base)
        with tr.span("entropy.ohya_mutual"):
            i1 = entropy.ohya_mutual(rho, channel, base)
        with tr.span("entropy.coherent"):
            i2, i3 = entropy.coherent_informations(rho, channel, base)
        payload = {"S": s_rho, "S_out": s_out, "S_e": s_e, "I1": i1, "I2": i2, "I3": i3}
        payload = {key: float(value) for key, value in payload.items()}
        with tr.span("entropy.theorem7"):
            if channel.is_rank1_pvm():
                payload["theorem7"] = entropy.theorem7_report(rho, channel, base)[
                    "inequalities_hold"
                ]
    tr.count("entropy.eigh_calls", calls["eigh"])
    tr.count("entropy.eigvalsh_calls", calls["eigvalsh"])
    return 0, json.dumps(payload, indent=2)


REPLAYS = {"solve": replay_solve, "oracle": replay_oracle, "entropy": replay_entropy}


def replay(argv, tr: Tracer) -> tuple[int, str]:
    """Run one op under a ``cli`` span; returns (exit code, stdout text)."""
    with tr.span("cli"):
        return REPLAYS[argv[0]](list(argv), tr)


def span_shares(tr: Tracer) -> dict[str, float]:
    """Each span name's share of traced op time, in percent, largest first."""
    total = sum(end - start for name, start, end, _, _ in tr.spans if name == "cli")
    shares = defaultdict(float)
    for span, own in zip(tr.spans, tr.self_ns()):
        shares[span[0]] += 100.0 * own / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_shares(shares: dict[str, float]) -> dict[str, float]:
    """Span shares summed by layer, the part of the span name before the first dot."""
    layers = defaultdict(float)
    for name, share in shares.items():
        layers[name.split(".")[0]] += share
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def per_layer_metrics(tr: Tracer, untraced_ms: list[float], cpu_ms: list[float]) -> dict:
    """Every PER_LAYER metric, from the traced spans and the untraced op times."""
    ops = sorted({span[4] for span in tr.spans})
    own = defaultdict(lambda: defaultdict(int))  # op -> span name -> self ns
    for span, ns in zip(tr.spans, tr.self_ns()):
        own[span[4]][span[0]] += ns
    values = {
        metric: statistics.median(own[op].get(name, 0) for op in ops) / 1e6
        for name, metric in SPAN_METRICS.items()
    }
    recorded = defaultdict(list)
    for name, value, _ in tr.counts:
        recorded[name].append(value)
    for name in COUNT_METRICS:
        values[name] = statistics.median_low(recorded[name]) if recorded[name] else 0

    def rate(count, *names):
        """Sum of a count per second of the named spans' self time."""
        busy = sum(own[op].get(name, 0) for op in ops for name in names)
        return sum(recorded[count]) / (busy / 1e9) if busy else 0.0

    values["simulator.gib_per_s"] = (
        rate("simulator.bytes", "simulator.h_block", "simulator.permute") / 2**30
    )
    values["cnf.oracle_lit_evals_per_s"] = rate("cnf.lit_evals", "cnf.oracle")
    values["lindblad.steps_per_s"] = rate("lindblad.steps", "lindblad.discriminate")
    values["cli.cpu_ms"] = statistics.median(cpu_ms)
    traced_ms = [(end - start) / 1e6 for name, start, end, _, _ in tr.spans if name == "cli"]
    values["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
