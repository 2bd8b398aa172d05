"""Command-line front end.

Subcommands expose each stage (oracle, compile, simulate, amplify,
lindblad, entropy) and `solve` runs the full pipeline: parse, compile,
simulate, extract q^2 and decide satisfiability with the selected
discriminator.  Exit codes follow the SAT-solver convention: 10 SAT,
20 UNSAT, 1 errors, 3 engine/oracle disagreement (argparse exits 2 on a
usage error).  `simulate` and `solve` both read q^2 from the row engine;
only `simulate --dump-amplitudes` builds the dense state vector.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import amplifier, cnf, compiler, entropy, lindblad, simulator
from .gates import sequence_to_json

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1
EXIT_DISAGREEMENT = 3
COMPILE_LIMIT = 1 << 16  # variables; the circuit JSON at the limit is about 1.1 MB


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _read_instance(path: str) -> cnf.CnfInstance:
    with open(path, "rb") as handle:
        return cnf.parse_dimacs(handle.read())


def _parse_q2(text: str) -> float:
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ArithmeticError):  # 1/0, or a ratio past the float range
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"--q2 must be a number or a ratio like 1/1024, got {text!r}")
    return value


def _write_csv(path: str, header: str, rows) -> None:
    """Write a trajectory to --csv PATH row by row; stdout holds only the JSON report."""
    with open(path, "w") as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(str(v) for v in row) + "\n" for row in rows)


def cmd_oracle(args) -> int:
    instance = _read_instance(args.path)
    r = cnf.count_satisfying(instance)
    _emit({"n": instance.n, "m": instance.m, "r": r, "total_assignments": 2**instance.n})
    return EXIT_SAT if r > 0 else EXIT_UNSAT


def _sizes(instance: cnf.CnfInstance, circuit: compiler.CompiledCircuit) -> dict:
    """The size keys that compile and solve both report, in their order."""
    layout = circuit.layout
    return {
        "n": layout.n,
        "m": instance.m,
        "mu": layout.mu,
        "total_qubits": layout.total,
        "gate_count": len(circuit.sequence.ops),
    }


def cmd_compile(args) -> int:
    instance = _read_instance(args.path)
    if instance.n > COMPILE_LIMIT:  # refused from the header, before compiling
        raise ValueError(f"n = {instance.n} exceeds compile limit {COMPILE_LIMIT}")
    circuit = compiler.compile(instance)
    _emit(
        {
            **_sizes(instance, circuit),
            "clause_starts": list(circuit.layout.s),
            "circuit": sequence_to_json(circuit.sequence),
        }
    )
    return 0


def cmd_simulate(args) -> int:
    instance = _read_instance(args.path)
    cnf.check_brute_force_limit(instance.n)  # solve's oracle limit, before compiling
    circuit = compiler.compile(instance)
    layout = circuit.layout
    if args.dump_amplitudes and layout.total > 12:
        raise ValueError("amplitude dump capped at width 12")
    probability, r = simulator.row_probability(circuit.sequence)
    payload = {
        "probability": probability,
        "r_inferred": r,
        "layout": {"n": layout.n, "mu": layout.mu, "total": layout.total},
    }
    if args.dump_amplitudes:
        amps = simulator.apply(simulator.init_state(layout, args.width_cap), circuit.sequence)
        payload["amplitudes"] = [[float(a.real), float(a.imag)] for a in amps]
    _emit(payload)
    return 0


def cmd_amplify(args) -> int:
    q2 = _parse_q2(args.q2)
    params = amplifier.LogisticParams(a=args.a, max_steps=args.steps, threshold=args.threshold)
    decision, trajectory = amplifier.decide_sat(q2, params)
    if args.csv is not None:
        _write_csv(args.csv, "step,x", enumerate(trajectory.xs))
    _emit({"decision": decision, "first_crossing": trajectory.first_crossing})
    return EXIT_SAT if decision == "SAT" else EXIT_UNSAT


def cmd_lindblad(args) -> int:
    gamma = complex(args.gamma_re, args.gamma_im)
    energies = lindblad.HamiltonianParams(args.e0, args.e1)
    decision, classification, trajectory = lindblad.discriminate(
        args.q, gamma, energies, t_final=args.t_final, dt=args.dt
    )
    if args.csv is not None:  # the only reader of the trajectory's arrays
        _write_csv(args.csv, "t,p1,abs_c",
                   zip(trajectory.times, trajectory.p1, trajectory.abs_c))
    _emit({"classification": classification, "decision": decision})
    return 0


def _complex_entries(entries, name: str, rank: int) -> np.ndarray:
    """A spec array of [re, im] pairs as a complex array of the given rank."""
    try:
        pairs = np.asarray(entries)
    except ValueError:
        raise ValueError(f"{name}: entries must form one rectangular array") from None
    if pairs.dtype.kind not in "iuf":
        raise ValueError(f"{name}: entries must be [re, im] pairs of numbers")
    if pairs.ndim != rank + 1 or pairs.shape[-1] != 2:
        raise ValueError(f"{name}: expected a rank-{rank} array of [re, im] pairs, "
                         f"got shape {pairs.shape}")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def cmd_entropy(args) -> int:
    with open(args.input) as handle:
        data = json.load(handle)
    try:
        rho_entries, kraus_entries = data["rho"], data["channel"]["kraus"]
    except (KeyError, TypeError):
        raise ValueError("entropy spec needs the keys rho and channel.kraus") from None
    rho = entropy.DensityMatrix(_complex_entries(rho_entries, "rho", 2))
    channel = entropy.KrausChannel(_complex_entries(kraus_entries, "channel.kraus", 3))
    base = data.get("base", 2)
    values = entropy.mutual_entropies(rho, channel, base)
    payload = {key: float(value) for key, value in values.items()}
    if channel.is_rank1_pvm():
        payload["theorem7"] = entropy.theorem7_holds(values)
    _emit(payload)
    return 0


def cmd_solve(args) -> int:
    timings = dict.fromkeys(("parse", "oracle"))  # pipeline order, though compile runs first

    def timed(stage, func, *func_args):
        start = time.perf_counter()
        result = func(*func_args)
        timings[stage] = time.perf_counter() - start
        return result

    instance = timed("parse", _read_instance, args.path)
    cnf.check_brute_force_limit(instance.n)  # before the chaos engine's default of 2n steps
    chaos = args.engine in ("chaos", "both")
    if chaos:  # bad parameters are refused before the oracle and the engine run
        if args.steps is None:
            params = amplifier.params_for_instance(instance.n, a=args.a)
        else:
            params = amplifier.LogisticParams(a=args.a, max_steps=args.steps)
    if args.engine in ("lindblad", "both"):  # the probe's check of gamma, at any q
        gamma = complex(args.gamma_re, args.gamma_im)
        lindblad.dissipative_grid(gamma)
    circuit = timed("compile", compiler.compile, instance)
    simulator.check_plane_bound(circuit.sequence.width, instance.n)  # before the oracle's 2^n work
    r = timed("oracle", cnf.count_satisfying, instance)
    probability, rows = timed("simulate", simulator.row_probability, circuit.sequence)
    report = {**_sizes(instance, circuit), "r": r, "probability": probability}
    verdicts = []
    if chaos:
        decision, trajectory = timed("amplify", amplifier.decide_sat, probability, params)
        report["chaos"] = {
            "decision": decision,
            "first_crossing": trajectory.first_crossing,
        }
        verdicts.append(decision)
    if args.engine in ("lindblad", "both"):
        if rows == 1 << instance.n:  # a tautology: the probe cannot decide q = 1
            report["lindblad"] = {"decision": "unsupported", "reason": "q = 1"}
        else:
            q = float(np.sqrt(probability))
            decision, classification, _ = timed("lindblad", lindblad.discriminate, q, gamma)
            report["lindblad"] = {
                "decision": decision,
                "classification": classification,
            }
            verdicts.append("SAT" if decision == "q_nonzero" else "UNSAT")
    report["timings"] = timings

    expected = "SAT" if r > 0 else "UNSAT"
    report["status"] = "FAILED"
    if rows != r or any(v != expected for v in verdicts):
        code = EXIT_DISAGREEMENT
    elif not verdicts:  # the only engine asked for could not decide
        code = EXIT_ERROR
    else:
        report["status"] = expected
        code = EXIT_SAT if r > 0 else EXIT_UNSAT
    _emit(report)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chaossat")
    parser.add_argument(
        "--width-cap", type=int, default=simulator.DEFAULT_WIDTH_CAP,
        help="widest dense state vector, which only simulate --dump-amplitudes builds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="brute-force satisfying-assignment count")
    p.add_argument("path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compile", help="emit the compiled circuit as JSON")
    p.add_argument("path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="success probability, optionally the state vector")
    p.add_argument("path")
    p.add_argument("--dump-amplitudes", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("amplify", help="logistic-map amplification of q^2")
    p.add_argument("--q2", required=True, help="initial value, float or rational like 1/1024")
    p.add_argument("--a", type=float, default=amplifier.DEFAULT_A)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--threshold", type=float, default=amplifier.DEFAULT_THRESHOLD)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("lindblad", help="open-system damping vs oscillation probe")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--gamma-re", type=float, default=1.0)
    p.add_argument("--gamma-im", type=float, default=0.0)
    p.add_argument("--e0", type=int, default=0)
    p.add_argument("--e1", type=int, default=2)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_lindblad)

    p = sub.add_parser("entropy", help="mutual-entropy metrics from a JSON spec")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("solve", help="full pipeline on a DIMACS file")
    p.add_argument("path")
    p.add_argument("--engine", choices=("chaos", "lindblad", "both"), default="chaos")
    p.add_argument("--a", type=float, default=amplifier.DEFAULT_A)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--gamma-re", type=float, default=1.0)
    p.add_argument("--gamma-im", type=float, default=0.0)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
