"""Seeded inputs, reference answers and output checks for each workload.

Every workload runs ops of one instance shape, so that the median and
the p90 of its op times measure the same work.  Inputs are written to
files; the program under test receives only the file paths.  References
are computed here, without calling the program, and compared with each
op's output outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

# (n, m) for uniform random 3-SAT: width n + 3m - 1 = 20, 12 gates
DENSE_SHAPE = (9, 4)
# (n, m) for the SAT share of solve-probe: width 14
PROBE_SHAPE = (6, 3)
PROBE_UNSAT_EVERY = 5  # one op in five is UNSAT
# (n, m) near the 3-SAT threshold (m/n ~ 4.2), so SAT and UNSAT both occur
ORACLE_SHAPE = (18, 76)
ENTROPY_DIM = 4
POOL_SIZE = 20

EXIT_SAT, EXIT_UNSAT = 10, 20
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the data its reference is computed from."""

    argv: tuple[str, ...]
    n: int = 0
    clauses: tuple[tuple[int, ...], ...] = ()
    rho: np.ndarray | None = field(default=None, compare=False)
    basis: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI words; "{path}" stands for the input file
    warmup_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-dense", ("solve", "{path}"), 2),
        Workload("solve-probe", ("solve", "{path}", "--engine", "both"), 5),
        Workload("oracle-count", ("oracle", "{path}"), 2),
        Workload("entropy", ("entropy", "--in", "{path}"), 10),
    )
}


def random_3sat(rng: random.Random, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """m clauses of 3 distinct variables with random signs."""
    return tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    )


def contradiction(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A contradictory unit pair plus one random 2-clause: always UNSAT."""
    x = rng.randint(1, n)
    pair = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 2))
    return ((x,), (-x,), pair)


def dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def random_state(rng: random.Random, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A full-rank density matrix and a random orthonormal basis (columns)."""

    def gaussian():
        return np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
        )

    g = gaussian()
    rho = g @ g.conj().T + 0.05 * np.eye(dim)  # bounded away from singular
    rho = (rho + rho.conj().T) / 2
    rho /= np.trace(rho).real
    basis, _ = np.linalg.qr(gaussian())
    return rho, basis


def _entries(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def entropy_spec(rho: np.ndarray, basis: np.ndarray) -> str:
    kraus = [np.outer(basis[:, j], basis[:, j].conj()) for j in range(basis.shape[1])]
    spec = {"rho": _entries(rho), "channel": {"kraus": [_entries(k) for k in kraus]}, "base": 2}
    return json.dumps(spec)


def generate(name: str, seed: int, directory: str) -> list[Op]:
    """Write the workload's input files into directory and return its ops."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    ops = []
    for i in range(POOL_SIZE):
        if name == "entropy":
            rho, basis = random_state(rng, ENTROPY_DIM)
            path = os.path.join(directory, f"spec{i:02d}.json")
            text = entropy_spec(rho, basis)
            data = dict(rho=rho, basis=basis)
        else:
            if name == "solve-dense":
                n, m = DENSE_SHAPE
                clauses = random_3sat(rng, n, m)
            elif name == "solve-probe":
                n, m = PROBE_SHAPE
                unsat = i % PROBE_UNSAT_EVERY == PROBE_UNSAT_EVERY - 1
                clauses = contradiction(rng, n) if unsat else random_3sat(rng, n, m)
            else:
                n, m = ORACLE_SHAPE
                clauses = random_3sat(rng, n, m)
            path = os.path.join(directory, f"f{i:02d}.cnf")
            text = dimacs(n, clauses)
            data = dict(n=n, clauses=clauses)
        with open(path, "w") as handle:
            handle.write(text)
        argv = tuple(word.format(path=path) for word in workload.command)
        ops.append(Op(argv=argv, **data))
    return ops


def _plane(n: int, var: int) -> int:
    """Truth table of a variable as a 2^n-bit int; bit i is variable var of index i.

    Variable 1 is the most significant bit of the assignment index.
    """
    block = 1 << (n - var)
    plane = ((1 << block) - 1) << block
    length = 2 * block
    while length < 1 << n:
        plane |= plane << length
        length *= 2
    return plane


def reference_count(n: int, clauses) -> int:
    """Satisfying-assignment count from bit-parallel truth tables in Python ints."""
    full = (1 << (1 << n)) - 1
    planes = {v: _plane(n, v) for v in {abs(lit) for c in clauses for lit in c}}
    sat = full
    for clause in clauses:
        value = 0
        for lit in clause:
            value |= planes[lit] if lit > 0 else full ^ planes[-lit]
        sat &= value
    return sat.bit_count()


def _shannon_bits(values) -> float:
    return -sum(v * math.log2(v) for v in values if v > 0)


class Checker:
    """Compares op outputs with references; references are computed once per op."""

    def __init__(self, name: str):
        self.name = name
        self._counts: dict[tuple, int] = {}

    def count(self, op: Op) -> int:
        key = (op.n, op.clauses)
        if key not in self._counts:
            self._counts[key] = reference_count(op.n, op.clauses)
        return self._counts[key]

    def check(self, op: Op, code, stdout: str) -> str | None:
        """None if the output is correct, else a one-line reason."""
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"exit {code}, output is not JSON"
        try:
            return self._check(op, code, payload)
        except (KeyError, TypeError) as exc:
            return f"exit {code}, malformed output ({exc!r})"

    def _check(self, op: Op, code, payload: dict) -> str | None:
        # comparisons are written so that NaN fails them
        if self.name == "entropy":
            return self._check_entropy(op, code, payload)
        r = self.count(op)
        expected_code = EXIT_SAT if r > 0 else EXIT_UNSAT
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        if payload.get("r") != r:
            return f"r={payload.get('r')}, reference {r}"
        if self.name == "oracle-count":
            return None
        expected = "SAT" if r > 0 else "UNSAT"
        if payload.get("status") != expected:
            return f"status {payload.get('status')}, expected {expected}"
        if not abs(payload["probability"] - r / 2**op.n) <= TOLERANCE:
            return f"probability {payload['probability']}, reference {r}/2^{op.n}"
        return None

    @staticmethod
    def _check_entropy(op: Op, code, p: dict) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        s_ref = _shannon_bits(np.linalg.eigvalsh(op.rho))
        # a rank-1 PVM maps rho to its diagonal in the measured basis
        out_ref = _shannon_bits(
            [float((op.basis[:, j].conj() @ op.rho @ op.basis[:, j]).real) for j in range(len(op.rho))]
        )
        if not (abs(p["S"] - s_ref) <= TOLERANCE and abs(p["S_out"] - out_ref) <= TOLERANCE):
            return f"S={p['S']}, S_out={p['S_out']}, reference {s_ref}, {out_ref}"
        if not abs(p["I2"]) <= TOLERANCE:
            return f"I2={p['I2']}, expected 0"
        if not abs(p["I3"] - p["S"]) <= TOLERANCE:
            return f"I3={p['I3']}, expected S={p['S']}"
        if not p["I1"] <= min(p["S"], p["S_out"]) + TOLERANCE:
            return f"I1={p['I1']} exceeds min(S, S_out)"
        if not p.get("theorem7") or not all(p["theorem7"].values()):
            return f"theorem7 flags {p.get('theorem7')}"
        return None
