"""Dense state-vector engine that visits only the nonzero amplitudes.

Qubit 1 is the most significant bit of the amplitude index, so the
register reads left to right like a tensor product.  The state stays a
dense 2^width vector, but ``apply`` works on its support: the indices
whose amplitude has any bit set (so -0.0 counts), found by one scan.  A
classical gate XORs its target bit into the support indices whose
control bits match a pattern on which the gate table flips the target,
and moves those amplitudes.  Only the Hadamard block mixes amplitudes:
each wire pairs every support index with its partner across that wire,
present in the support or not.  The results are bit for bit those of a
pass over the whole register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compiler import QubitLayout
from .gates import GateOp, GateSequence

DEFAULT_WIDTH_CAP = 26

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class WidthCapError(ValueError):
    """Register would exceed the configured memory bound."""


def check_width(width: int, cap: int = DEFAULT_WIDTH_CAP) -> None:
    if width > cap:
        raise WidthCapError(f"width {width} exceeds cap {cap}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")


@dataclass
class StateVector:
    """2^width complex amplitudes; qubit 1 is the most significant index bit."""

    width: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (2**self.width,):
            raise ValueError(
                f"expected {2**self.width} amplitudes, got shape {self.amps.shape}"
            )


def init_state(layout: QubitLayout | int, cap: int = DEFAULT_WIDTH_CAP) -> StateVector:
    """The all-zeros basis state for a layout (or explicit width)."""
    width = layout if isinstance(layout, int) else layout.total
    check_width(width, cap)
    amps = np.zeros(2**width, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(width, amps)


def _live(words: np.ndarray) -> np.ndarray:
    """Mask of the (real, imag) word pairs with any bit set, so -0.0 is live."""
    return (words[..., 0] | words[..., 1]) != 0


def apply(state: StateVector, seq: GateSequence) -> StateVector:
    """Run a gate sequence, returning a new state.

    Only the support, the indices whose amplitude has any bit set, is
    visited: every index outside it holds +0.0 in the input and, since a
    gate maps +0.0 pairs to +0.0, in the output too.
    """
    if seq.width != state.width:
        raise ValueError(f"sequence width {seq.width} != state width {state.width}")
    support = np.flatnonzero(_live(state.amps.view(np.uint64).reshape(-1, 2)))
    out = np.zeros_like(state.amps)
    out[support] = state.amps[support]
    words = out.view(np.uint64).reshape(-1, 2)
    for op in seq.ops:
        if op.kind == "H_BLOCK":
            for wire in op.wires:
                bit = 1 << (state.width - wire)
                support = support[_live(words[support])]
                partner = support ^ bit
                high = (support & bit) != 0
                # a live upper index whose lower partner is +0.0 still pairs
                lower = np.concatenate(
                    (support[~high], partner[high & ~_live(words[partner])])
                )
                upper = lower | bit
                a0, a1 = out[lower], out[upper]
                out[lower] = (a0 + a1) * _SQRT1_2
                out[upper] = (a0 - a1) * _SQRT1_2
                support = np.concatenate((lower, upper))
            continue
        key = np.zeros_like(support)
        for wire in op.controls:
            key = (key << 1) | ((support >> (state.width - wire)) & 1)
        flips = np.zeros((2,) * len(op.controls), dtype=bool)
        for pattern in op.flip_patterns():
            flips[pattern] = True
        moved = flips.reshape(-1)[key]
        source = support[moved]
        target = source ^ (1 << (state.width - op.target))
        # a target is a source too (the controls exclude the target wire) or
        # lies outside the support and holds +0.0, so this one swap also
        # zeroes every source whose target was empty
        out[np.concatenate((source, target))] = out[np.concatenate((target, source))]
        support[moved] = target
    return StateVector(state.width, out)


def success_probability(state: StateVector, layout: QubitLayout) -> float:
    """Probability that the result qubit (the last wire) reads 1."""
    if state.width != layout.total:
        raise ValueError(f"state width {state.width} != layout total {layout.total}")
    pairs = state.amps.reshape(-1, 2)
    return float(np.sum(np.abs(pairs[:, 1]) ** 2))
