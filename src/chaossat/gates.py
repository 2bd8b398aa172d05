"""Symbolic gate instructions and their computational-basis semantics.

Gates are stored as (kind, wires, negate_controls) instructions; the
exponential-size unitaries are never materialized.  ``SEMANTICS`` is the
one place a kind's arity and action are written: every kind except
H_BLOCK flips its target (the last wire) when a Boolean function of its
effective control values is 1, so every such gate is an involution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

# kind -> (wire count, flip rule on the effective control bits);
# H_BLOCK takes any number of wires and is the one non-permutation
SEMANTICS = {
    "NOT": (1, lambda: 1),
    "CN": (2, lambda a: a),
    "COPY": (2, lambda a: a),
    "CCN": (3, lambda a, b: a & b),
    "AND": (3, lambda a, b: a & b),
    "OR": (3, lambda a, b: a | b),
    "H_BLOCK": (None, None),
}


@dataclass(frozen=True)
class GateOp:
    """A single gate instruction.

    Wires are 1-based and ordered with control wires before the target.
    ``negate_controls`` aligns with the control wires and realizes
    NOT-conjugated controls without emitting explicit NOT pairs.
    """

    kind: str
    wires: tuple[int, ...]
    negate_controls: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in SEMANTICS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        expected = SEMANTICS[self.kind][0]
        if expected is not None and len(self.wires) != expected:
            raise ValueError(f"{self.kind} takes {expected} wires, got {len(self.wires)}")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"duplicate wire in {self.kind} gate: {self.wires}")
        if any(w < 1 for w in self.wires):
            raise ValueError(f"wires are 1-based, got {self.wires}")
        n_controls = len(self.controls)
        if self.negate_controls and len(self.negate_controls) != n_controls:
            raise ValueError(
                f"{self.kind} has {n_controls} controls, got "
                f"{len(self.negate_controls)} negate flags"
            )
        if any(w > self.wires[-1] for w in self.controls):
            raise ValueError(f"controls must precede target in {self.kind} {self.wires}")

    @property
    def controls(self) -> tuple[int, ...]:
        if SEMANTICS[self.kind][0] is None:
            return ()
        return self.wires[:-1]

    @property
    def target(self) -> int:
        if self.kind == "H_BLOCK":
            raise ValueError("H_BLOCK has no single target wire")
        return self.wires[-1]

    def control_flags(self) -> tuple[bool, ...]:
        """Negation flags padded to the control count."""
        return self.negate_controls or (False,) * len(self.controls)

    def flip_patterns(self) -> tuple[tuple[int, ...], ...]:
        """Raw control-bit patterns on which the target flips, negations applied."""
        flip = SEMANTICS[self.kind][1]
        if flip is None:
            raise ValueError(f"{self.kind} is not a basis permutation")
        flags = self.control_flags()
        return tuple(
            tuple(bit ^ neg for bit, neg in zip(effective, flags))
            for effective in product((0, 1), repeat=len(flags))
            if flip(*effective)
        )


@dataclass(frozen=True)
class GateSequence:
    """An ordered gate list on a fixed-width register, applied left to right."""

    width: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        for op in self.ops:
            if max(op.wires) > self.width:
                raise ValueError(f"gate {op} exceeds width {self.width}")


def run_basis(seq: GateSequence, basis_in) -> tuple[int, ...]:
    """Propagate a basis state through a sequence of classical gates."""
    bits = list(basis_in)
    if len(bits) != seq.width:
        raise ValueError(f"input width {len(bits)} != sequence width {seq.width}")
    for op in seq.ops:
        if tuple(bits[w - 1] for w in op.controls) in op.flip_patterns():
            bits[op.target - 1] ^= 1
    return tuple(bits)


def sequence_to_json(seq: GateSequence) -> dict:
    """The sequence as a JSON-ready dict: width and ops with kind, wires and negation flags."""
    ops = [
        {"kind": op.kind, "wires": list(op.wires), "neg": [bool(b) for b in op.negate_controls]}
        for op in seq.ops
    ]
    return {"width": seq.width, "ops": ops}
