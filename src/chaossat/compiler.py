"""Compile CNF instances into reversible circuits.

Layout: variable qubits 1..n, dust (work) qubits n+1..n+mu, result qubit
n+mu+1.  Each clause ORs its literals pairwise into a work region; clause
results are then folded by an AND chain into the result qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfInstance
from .gates import GateOp, GateSequence


class LayoutOverflowError(RuntimeError):
    """A clause fragment wrote outside its work region (layout bug)."""


@dataclass(frozen=True)
class QubitLayout:
    """Wire allocation for a compiled instance."""

    n: int
    mu: int
    s: tuple[int, ...]  # per-clause work-region start indices

    def __post_init__(self):
        if self.s and self.s[0] != self.n + 1:
            raise ValueError("first work region must start at n+1")
        if any(b <= a for a, b in zip(self.s, self.s[1:])):
            raise ValueError("work-region starts must be strictly increasing")

    @property
    def total(self) -> int:
        return self.n + self.mu + 1


@dataclass(frozen=True)
class CompiledCircuit:
    layout: QubitLayout
    sequence: GateSequence


def _slot(clause: tuple[int, ...]) -> int:
    # work qubits charged to a clause in the start-index recursion
    return len(clause) + (1 if len(clause) == 1 else 0)


def compute_layout(instance: CnfInstance) -> QubitLayout:
    """Work-qubit start indices and dust count for an instance.

    For m >= 2 the recursion leaves a one-qubit gap before each clause
    region from the third on; those gaps hold the AND chain's partial
    results.  The single-clause case allocates just the clause's own
    chain qubits.
    """
    n = instance.n
    clauses = instance.clauses
    m = len(clauses)
    s = [n + 1]
    if m == 1:
        mu = _slot(clauses[0]) - 1
        return QubitLayout(n, mu, tuple(s))
    s.append(s[0] + _slot(clauses[0]) - 1)
    for i in range(2, m):
        s.append(s[i - 1] + _slot(clauses[i - 1]))
    s_value = s[m - 1] - 1 + _slot(clauses[m - 1])
    mu = s_value - 1 - n
    return QubitLayout(n, mu, tuple(s))


def clause_result_wire(instance: CnfInstance, k: int, layout: QubitLayout) -> int:
    """Wire holding clause k's truth value (k is 0-based)."""
    clause = instance.clauses[k]
    if len(clause) == 1:
        return layout.s[k]
    return layout.s[k] + len(clause) - 2


def compile_clause(instance: CnfInstance, k: int, layout: QubitLayout) -> list[GateOp]:
    """Gate fragment computing the disjunction of clause k (0-based).

    The fragment's last target wire is clause_result_wire(instance, k, layout).
    A 1-literal clause is copied (NOT-conjugated if negated); longer clauses
    build a left-to-right OR chain through fresh work qubits.  A tautological
    leading pair (x and not-x on one variable) degenerates to a NOT on the
    work qubit, since a 2-wire OR cannot take the same control twice.
    """
    clause = instance.clauses[k]
    start = layout.s[k]
    result = clause_result_wire(instance, k, layout)
    if result > layout.n + layout.mu:
        raise LayoutOverflowError(f"clause {k} work region exceeds dust qubits")
    ops: list[GateOp] = []
    if len(clause) == 1:
        lit = clause[0]
        ops.append(GateOp("COPY", (abs(lit), start), (lit < 0,)))
        return ops
    first, second = clause[0], clause[1]
    if abs(first) == abs(second):
        ops.append(GateOp("NOT", (start,)))
    else:
        u, v = sorted((first, second), key=abs)
        ops.append(GateOp("OR", (abs(u), abs(v), start), (u < 0, v < 0)))
    work = start
    for lit in clause[2:]:
        ops.append(GateOp("OR", (abs(lit), work, work + 1), (lit < 0, False)))
        work += 1
    if work != result:
        raise LayoutOverflowError(f"clause {k} chain ended at {work}, expected {result}")
    return ops


def compile(instance: CnfInstance) -> CompiledCircuit:
    """Full circuit: Hadamard block, clause OR chains, then the AND chain.

    After the clause fragments, clause k's result sits at s[k+1]-1 for
    k < m-1 and at layout.total-1 for the last clause; AND-chain partials land
    in the gap qubits s[k+2]-1.  For a single clause the result is copied
    straight to the result qubit.
    """
    layout = compute_layout(instance)
    m = instance.m
    ops: list[GateOp] = [GateOp("H_BLOCK", tuple(range(1, instance.n + 1)))]
    for k in range(m):
        ops.extend(compile_clause(instance, k, layout))
    s, total = layout.s, layout.total
    if m == 1:
        ops.append(GateOp("COPY", (clause_result_wire(instance, 0, layout), total)))
    else:
        for k in range(1, m - 1):  # chain steps 1..m-2, 1-based
            ops.append(GateOp("AND", (s[k] - 1, s[k + 1] - 2, s[k + 1] - 1)))
        ops.append(GateOp("AND", (s[m - 1] - 1, total - 1, total)))
    return CompiledCircuit(layout, GateSequence(total, tuple(ops)))
