"""Compile CNF instances into reversible circuits.

Layout: variable qubits 1..n, dust (work) qubits n+1..n+mu, result qubit
n+mu+1.  Each clause ORs its literals pairwise into a work region; clause
results are then folded by an AND chain into the result qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfInstance
from .gates import GateOp, GateSequence


@dataclass(frozen=True)
class QubitLayout:
    """Wire allocation for a compiled instance."""

    n: int
    mu: int
    s: tuple[int, ...]  # per-clause work-region start indices

    @property
    def total(self) -> int:
        return self.n + self.mu + 1


@dataclass(frozen=True)
class CompiledCircuit:
    layout: QubitLayout
    sequence: GateSequence


def compile(instance: CnfInstance) -> CompiledCircuit:
    """Full circuit: Hadamard block, clause OR chains, then the AND chain.

    One counter hands out the work wires in the order the gates use them.
    A 1-literal clause is copied (NOT-conjugated if negated) onto one wire;
    a longer clause builds a left-to-right OR chain through fresh wires.  A
    tautological leading pair (x and not-x on one variable) degenerates to a
    NOT on the work wire, since a 2-wire OR cannot take the same control
    twice.  Each clause leaves its truth value on its last wire.  From the
    third clause on, a gap wire precedes the clause's region to hold an
    AND-chain partial; the wire after the last clause is the result qubit.
    A single clause's result is copied straight to the result qubit.
    """
    n = instance.n
    ops = [GateOp("H_BLOCK", tuple(range(1, n + 1)))]
    starts, results, gaps = [], [], []
    wire = n + 1
    for k, clause in enumerate(instance.clauses):
        if k >= 2:
            gaps.append(wire)
            wire += 1
        starts.append(wire)
        first = clause[0]
        if len(clause) == 1:
            ops.append(GateOp("COPY", (abs(first), wire), (first < 0,)))
        elif abs(first) == abs(clause[1]):
            ops.append(GateOp("NOT", (wire,)))
        else:
            u, v = sorted(clause[:2], key=abs)
            ops.append(GateOp("OR", (abs(u), abs(v), wire), (u < 0, v < 0)))
        for lit in clause[2:]:
            ops.append(GateOp("OR", (abs(lit), wire, wire + 1), (lit < 0, False)))
            wire += 1
        results.append(wire)
        wire += 1
    total = wire
    if len(results) == 1:
        ops.append(GateOp("COPY", (results[0], total)))
    partial = results[0]
    for result, target in zip(results[1:], gaps + [total]):
        ops.append(GateOp("AND", (partial, result, target)))
        partial = target
    layout = QubitLayout(n, total - n - 1, tuple(starts))
    return CompiledCircuit(layout, GateSequence(total, tuple(ops)))
