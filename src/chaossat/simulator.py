"""Dense state-vector engine with bit-indexed gate application.

Qubit 1 is the most significant bit of the amplitude index, so the
register reads left to right like a tensor product.  A classical gate
swaps the target-axis halves of one numpy view per control pattern on
which the gate table flips the target; only the Hadamard block mixes
amplitudes.
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


def _halves(view: np.ndarray, axis: int, fixed=()) -> tuple[np.ndarray, np.ndarray]:
    """Views of the axis-0 and axis-1 halves of the subarray that fixed selects.

    fixed holds (axis, value) pairs.  The target axis is sliced, never
    indexed, so each half stays a view even when every other axis is fixed;
    the fixed axes are indexed with integers, which is faster to write
    through than slicing them too.
    """
    index = [slice(None)] * view.ndim
    for fixed_axis, value in fixed:
        index[fixed_axis] = value
    index[axis] = slice(0, 1)
    half0 = view[tuple(index)]
    index[axis] = slice(1, 2)
    return half0, view[tuple(index)]


def _apply_op(view: np.ndarray, op: GateOp) -> None:
    if op.kind == "H_BLOCK":
        for wire in op.wires:
            a0, a1 = _halves(view, wire - 1)
            # a0 is overwritten first, so keep a copy; forms without one were
            # faster at width 20 but slower at width 14 (solve-probe)
            a0c = a0.copy()
            np.multiply(a0c + a1, _SQRT1_2, out=a0)
            np.multiply(a0c - a1, _SQRT1_2, out=a1)
        return
    controls = [w - 1 for w in op.controls]
    for pattern in op.flip_patterns():
        h0, h1 = _halves(view, op.target - 1, zip(controls, pattern))
        tmp = h0.copy()
        h0[...] = h1
        h1[...] = tmp


def apply(state: StateVector, seq: GateSequence) -> StateVector:
    """Run a gate sequence, returning a new state."""
    if seq.width != state.width:
        raise ValueError(f"sequence width {seq.width} != state width {state.width}")
    out = state.amps.copy()
    view = out.reshape((2,) * state.width)
    for op in seq.ops:
        _apply_op(view, op)
    return StateVector(state.width, out)


def success_probability(state: StateVector, layout: QubitLayout) -> float:
    """Probability that the result qubit (the last wire) reads 1."""
    if state.width != layout.total:
        raise ValueError(f"state width {state.width} != layout total {layout.total}")
    pairs = state.amps.reshape(-1, 2)
    return float(np.sum(np.abs(pairs[:, 1]) ** 2))
