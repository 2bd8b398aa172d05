"""State-vector engines for the compiled circuit.

Qubit 1 is the most significant bit of a basis index, so the register
reads left to right like a tensor product.

``apply`` is the dense engine behind ``simulate``: the state stays a
dense 2^width vector, but each gate works on its support, the indices
whose amplitude has any bit set (so -0.0 counts), found by one scan.  A
classical gate XORs its target bit into the support indices whose
control bits match a pattern on which the gate table flips the target,
and moves those amplitudes.  Only the Hadamard block mixes amplitudes:
each wire pairs every support index with its partner across that wire,
present in the support or not.  The results are bit for bit those of a
pass over the whole register.

``row_probability`` is the row engine behind ``solve``.  A compiled
circuit is one Hadamard block followed only by basis permutations, so
its state is a sum of 2^k basis rows (k wires in the block) that all
carry one amplitude.  The engine keeps just those row indices, moves
them with the same gate step as ``apply`` and never builds the
2^width vector.  Both engines read the success probability as the
correctly rounded sum of |a|^2, so they return the same float.
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


def _permute(op: GateOp, indices: np.ndarray, width: int) -> np.ndarray:
    """Images of basis indices under a permutation gate.

    The target bit is flipped in every index whose control bits match a
    pattern on which the gate table flips the target.
    """
    key = np.zeros_like(indices)
    for wire in op.controls:
        key <<= 1
        key |= (indices >> (width - wire)) & 1
    flips = np.zeros((2,) * len(op.controls), dtype=indices.dtype)
    for pattern in op.flip_patterns():
        flips[pattern] = 1
    image = flips.reshape(-1)[key]
    image <<= width - op.target
    image ^= indices
    return image


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
        image = _permute(op, support, state.width)
        moved = image != support
        source, target = support[moved], image[moved]
        # a target is a source too (the controls exclude the target wire) or
        # lies outside the support and holds +0.0, so this one swap also
        # zeroes every source whose target was empty
        out[np.concatenate((source, target))] = out[np.concatenate((target, source))]
        support = image
    return StateVector(state.width, out)


def success_probability(state: StateVector, layout: QubitLayout) -> float:
    """Probability that the result qubit (the last wire) reads 1.

    The sum of |a|^2 is correctly rounded (``math.fsum``), so it does
    not depend on where in the register the amplitudes sit.
    """
    if state.width != layout.total:
        raise ValueError(f"state width {state.width} != layout total {layout.total}")
    odd = state.amps[1::2]
    return math.fsum((np.abs(odd[odd != 0]) ** 2).tolist())


def row_probability(seq: GateSequence, cap: int = DEFAULT_WIDTH_CAP) -> float:
    """Probability that the result qubit (the last wire) reads 1, from the basis rows alone.

    ``seq`` must open with one H_BLOCK and continue with basis
    permutations only.  The block's amplitude comes from the same
    butterfly as in ``apply``, so it is bit for bit the dense engine's;
    the r rows whose result bit is 1 all carry it, and r * |a|^2 in
    floating point is the correctly rounded sum that ``success_probability``
    computes.
    """
    width = seq.width
    check_width(width, cap)
    if width > 63:
        raise ValueError(f"width {width} exceeds the 63 bits of a row index")
    if not seq.ops or seq.ops[0].kind != "H_BLOCK":
        raise ValueError("the row engine needs a circuit that opens with an H_BLOCK")
    block, permutations = seq.ops[0], seq.ops[1:]
    if any(op.kind == "H_BLOCK" for op in permutations):
        raise ValueError("the row engine takes one H_BLOCK, then basis permutations only")
    rows = np.zeros(1, dtype=np.int64)
    amp = np.ones(1, dtype=np.complex128)
    empty = np.zeros(1, dtype=np.complex128)  # every partner across a block wire holds +0.0
    for wire in block.wires:
        rows = np.concatenate((rows, rows | (1 << (width - wire))))
        amp = (amp + empty) * _SQRT1_2
    for op in permutations:
        rows = _permute(op, rows, width)
    return np.count_nonzero(rows & 1) * float((np.abs(amp) ** 2)[0])
