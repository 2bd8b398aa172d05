"""State-vector engines for the compiled circuit.

Qubit 1 is the most significant bit of a basis index, so the register
reads left to right like a tensor product.

``apply`` is the dense engine behind ``simulate --dump-amplitudes``:
the state is a plain array of 2^width complex amplitudes, and each gate
makes one pass over all of it.  A Hadamard wire is a butterfly over the
two halves of that wire's axis; a classical gate swaps the two target
halves of each slice whose control bits match a pattern on which the
gate table flips the target.

``row_probability`` is the engine behind the success probability that
``simulate`` and ``solve`` print.  A compiled circuit is one Hadamard
block followed only by basis permutations, so its state is a sum of 2^k
basis rows (k wires in the block) that all carry one amplitude.  The
engine holds each wire as a bit plane over those rows and counts the
rows whose result bit is 1 exactly.  It holds one 2^k-bit int per written
wire, and refuses width * 2^k > MAX_PLANE_BITS before it builds any.
"""

from __future__ import annotations

import math

import numpy as np

from .compiler import QubitLayout
from .gates import SEMANTICS, GateSequence

DEFAULT_WIDTH_CAP = 26
MAX_PLANE_BITS = 26 << 24  # 52 MiB, the planes of width 26 at n = 24

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class WidthCapError(ValueError):
    """A register or its bit planes would exceed a memory bound."""


def init_state(layout: QubitLayout | int, cap: int = DEFAULT_WIDTH_CAP) -> np.ndarray:
    """The 2^width complex amplitudes of the all-zeros basis state for a layout
    (or explicit width); qubit 1 is the most significant index bit."""
    width = layout if isinstance(layout, int) else layout.total
    if width > cap:
        raise WidthCapError(f"width {width} exceeds cap {cap}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    amps = np.zeros(2**width, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def apply(amps: np.ndarray, seq: GateSequence) -> np.ndarray:
    """Run a gate sequence on 2**seq.width amplitudes, returning a new array.

    Every gate is one pass over the whole register, seen as a
    (2,) * width tensor with wire w on axis w - 1.  The halves of an
    axis are views into one copy of the input, which each gate updates
    in place.
    """
    if np.shape(amps) != (2**seq.width,):
        raise ValueError(f"expected {2**seq.width} amplitudes, got shape {np.shape(amps)}")
    out = np.array(amps, dtype=np.complex128)
    view = out.reshape((2,) * seq.width)
    for op in seq.ops:
        if op.kind == "H_BLOCK":
            for wire in op.wires:
                lead = (slice(None),) * (wire - 1)
                a0, a1 = view[(*lead, 0, ...)], view[(*lead, 1, ...)]
                total = a0 + a1
                np.subtract(a0, a1, out=a1)
                a1 *= _SQRT1_2
                np.multiply(total, _SQRT1_2, out=a0)
            continue
        for pattern in op.flip_patterns():
            lead = [slice(None)] * (op.target - 1)  # every control precedes the target
            for wire, bit in zip(op.controls, pattern):
                lead[wire - 1] = bit
            half0, half1 = view[(*lead, 0, ...)], view[(*lead, 1, ...)]
            saved = half0.copy()
            half0[...] = half1
            half1[...] = saved
    return out


def success_probability(amps: np.ndarray, layout: QubitLayout) -> float:
    """Probability that the result qubit (the last wire) reads 1.

    The sum of |a|^2 is correctly rounded (``math.fsum``), so it does
    not depend on where in the register the amplitudes sit.
    """
    if np.shape(amps) != (2**layout.total,):
        raise ValueError(f"expected {2**layout.total} amplitudes, got shape {np.shape(amps)}")
    odd = amps[1::2]
    return math.fsum((np.abs(odd[odd != 0]) ** 2).tolist())


def check_plane_bound(width: int, block: int) -> None:
    """Refuse the planes of width wires over the 2**block rows of a Hadamard
    block past MAX_PLANE_BITS, before any is built."""
    rows = 1 << block
    if width * rows > MAX_PLANE_BITS:
        raise WidthCapError(f"width {width} at {rows} rows exceeds {MAX_PLANE_BITS} plane bits")


def row_probability(seq: GateSequence) -> tuple[float, int]:
    """Probability that the result qubit (the last wire) reads 1, and the
    number r of basis rows in which it does.

    ``seq`` must open with one H_BLOCK and continue with basis
    permutations only.  Bit j of a wire's plane is its value in row j; a
    permutation XORs its flip rule, applied to the control planes, into
    the target plane.  The r rows all carry the amplitude of the block's
    butterfly, bit for bit the dense engine's, and r * |a|^2 in floating
    point is the correctly rounded sum that ``success_probability`` computes.
    """
    width = seq.width
    if not seq.ops or seq.ops[0].kind != "H_BLOCK":
        raise ValueError("the row engine needs a circuit that opens with an H_BLOCK")
    block, permutations = seq.ops[0], seq.ops[1:]
    check_plane_bound(width, len(block.wires))
    rows = 1 << len(block.wires)
    if any(op.kind == "H_BLOCK" for op in permutations):
        raise ValueError("the row engine takes one H_BLOCK, then basis permutations only")
    ones = (1 << rows) - 1
    planes = {}
    for i, wire in enumerate(block.wires):
        # 2^i zeros then 2^i ones, doubled until it spans every row
        run = 2 << i
        plane = ((1 << (1 << i)) - 1) << (1 << i)
        while run < rows:
            plane |= plane << run
            run <<= 1
        planes[wire] = plane
    for op in permutations:
        controls = [
            planes.get(wire, 0) ^ (ones if negated else 0)
            for wire, negated in zip(op.controls, op.control_flags())
        ]
        flip = SEMANTICS[op.kind][1](*controls) if controls else ones
        planes[op.target] = planes.get(op.target, 0) ^ flip
    r = planes.get(width, 0).bit_count()
    a = 1.0
    for _ in block.wires:
        a *= _SQRT1_2
    return r * (a * a), r
