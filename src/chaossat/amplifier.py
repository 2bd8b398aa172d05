"""Logistic-map amplification of the success amplitude.

The post-computation qubit is encoded as a diagonal density matrix whose
z-polarization carries the iterate x_m; starting from x_0 = q^2, the map
x -> a x (1-x) at a = 3.71 pushes any nonzero q^2 above 1/2 within 2n
steps while leaving q^2 = 0 pinned at the fixed point, so the threshold
crossing is a one-sided exact SAT test.  iterate_oracle reruns the map
in exact integer fixed point to certify that crossing.

For x <= 1/2, (a/2) x <= a x (1 - x) <= a x, so with a > 2 the first crossing
m of x_0 <= 1/2 has a^m x_0 > 1/2 >= (a/2)^(m-1) x_0.  The paper's
m_0 > (n - 1)/(log2 a - 1) is that window's upper end at x_0 = 2^-n: enough
steps for every r >= 1, not a lower bound on m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_A = 3.71
DEFAULT_THRESHOLD = 0.5
# `amplify --steps 1000000` peaks at about 75 MiB, with or without --csv
MAX_STEPS = 10**6


@dataclass(frozen=True)
class LogisticParams:
    a: float = DEFAULT_A
    max_steps: int = 0
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.a <= 4.0:
            raise ValueError(f"map parameter must lie in [0, 4], got {self.a}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.max_steps > MAX_STEPS:
            raise ValueError(f"max_steps must be <= {MAX_STEPS}, got {self.max_steps}")
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {self.threshold}")


@dataclass(frozen=True)
class ChaosTrajectory:
    xs: tuple[float, ...]
    first_crossing: int | None


def logistic_step(x: float, a: float = DEFAULT_A) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not 0.0 <= a <= 4.0:
        raise ValueError(f"map parameter must lie in [0, 4], got {a}")
    return a * x * (1.0 - x)


def iterate(q_squared: float, params: LogisticParams) -> ChaosTrajectory:
    """Trajectory x_0 .. x_max_steps from x_0 = q^2, with first threshold crossing.

    The crossing is strict (x_m > threshold) and latches at the first hit,
    step 0 included.
    """
    x = float(q_squared)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"q^2 must lie in [0, 1], got {x}")
    xs = [x]
    first_crossing = 0 if x > params.threshold else None
    for m in range(1, params.max_steps + 1):
        x = logistic_step(x, params.a)
        xs.append(x)
        if first_crossing is None and x > params.threshold:
            first_crossing = m
    return ChaosTrajectory(tuple(xs), first_crossing)


def integer_iterates(q2: Fraction, a: Fraction, bits: int):
    """X_k = floor(x_k 2^bits) from x_0 = q2, each step floor(a X (2^bits - X) / 2^bits).

    Each floor loses < 2^-bits and |f'| <= a, so |x_k - X_k 2^-bits| <= (k+1) max(1,a)^k 2^-bits.
    """
    one = 1 << bits
    x = q2.numerator * one // q2.denominator
    while True:
        yield x
        x = a.numerator * x * (one - x) // (a.denominator * one)


def iterate_oracle(q_squared, params: LogisticParams, precision_bits: int) -> ChaosTrajectory:
    """iterate's crossing, certified on integer_iterates with q^2, a and the threshold exact.

    a is 371/100 at DEFAULT_A.  As a <= 4, P = precision_bits >= 64 + 2 steps keeps the error
    at step k below (k+1) 2^-64.  xs holds each X_k 2^-P rounded to the nearest float.
    """
    if precision_bits < (floor := 64 + 2 * params.max_steps):
        raise ValueError(f"precision_bits={precision_bits} below required {floor}")
    if not 0 <= q_squared <= 1:  # NaN and the infinities fail this test too
        raise ValueError(f"q^2 must lie in [0, 1], got {q_squared}")
    a = Fraction(371, 100) if params.a == DEFAULT_A else Fraction(params.a)
    t, one = Fraction(params.threshold), 1 << precision_bits
    xs, first_crossing = [], None
    iterates = integer_iterates(Fraction(q_squared), a, precision_bits)
    for m, x in zip(range(params.max_steps + 1), iterates):
        xs.append(x / one)
        if first_crossing is None and x * t.denominator > t.numerator * one:  # x_m > t
            first_crossing = m
    return ChaosTrajectory(tuple(xs), first_crossing)


def decide_sat(q_squared: float, params: LogisticParams) -> tuple[str, ChaosTrajectory]:
    """SAT iff the trajectory crosses the threshold within max_steps."""
    trajectory = iterate(q_squared, params)
    decision = "SAT" if trajectory.first_crossing is not None else "UNSAT"
    return decision, trajectory


def params_for_instance(n: int, a: float = DEFAULT_A) -> LogisticParams:
    """Default amplifier setting for an n-variable instance: 2n steps."""
    return LogisticParams(a=a, max_steps=2 * n)
