"""Two-level open-system discriminator.

A nonzero success amplitude q selects dissipative dynamics with jump
operator D = |e0><e1| (populations and coherence decay exponentially);
q = 0 selects a purely Hamiltonian evolution with integer levels, which
is exactly periodic.  Watching whether the trajectory damps or recurs
therefore distinguishes q > 0 from q = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .entropy import DensityMatrix

_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)  # D+ D = |e1><e1|
_D = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # |e0><e1|


class ClassificationError(RuntimeError):
    """The trajectory fits neither printed dynamical case."""


class TwoLevelState(DensityMatrix):
    """2x2 density matrix."""

    def __post_init__(self):
        if np.shape(self.matrix) != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {np.shape(self.matrix)}")
        super().__post_init__()

    @property
    def p1(self) -> float:
        return float(self.matrix[1, 1].real)

    @property
    def coherence(self) -> complex:
        return complex(self.matrix[0, 1])

    @classmethod
    def from_q(cls, q: float) -> "TwoLevelState":
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        return cls.pure([math.sqrt(1.0 - q * q), q])

    @classmethod
    def plus(cls) -> "TwoLevelState":
        return cls.pure([1.0, 1.0])


@dataclass(frozen=True)
class DissipativeParams:
    gamma: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not cmath.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if complex(self.gamma).real <= 0.0:
            raise ValueError(f"Re gamma must be positive, got {self.gamma}")

    def rk4_factors(self, dt: float) -> tuple[float, complex]:
        """R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 for p1 and the coherence, z = rate dt.

        _rhs is linear and diagonal, so one RK4 step of size dt multiplies
        each by its R(z).  A gamma whose R(z) is not finite at dt is refused,
        and so is one with |R(z)| >= 1, whose step cannot damp.
        """
        try:
            factors = tuple(1.0 + z + z * z / 2 + z**3 / 6 + z**4 / 24
                            for z in _rhs(dt, dt, complex(self.gamma)))
            radii = [abs(f) for f in factors]  # nan or inf where a factor is not finite
        except OverflowError:  # z**3, z**4 or |R(z)| past the float range
            radii = [math.inf]
        if not all(map(math.isfinite, radii)):
            raise ValueError(f"gamma {self.gamma} with dt {dt} overflows the RK4 step factor")
        if max(radii) >= 1.0:
            raise ValueError(f"gamma {self.gamma} with dt {dt} gives an unstable RK4 step: "
                             f"|R(z)| = {max(radii)} >= 1")
        return factors


@dataclass(frozen=True)
class HamiltonianParams:
    """Integer levels E0 < E1; effective Hamiltonian diag(E0 + 1, E1)."""

    e0: int
    e1: int

    def __post_init__(self):
        if not (isinstance(self.e0, int) and isinstance(self.e1, int)):
            raise ValueError("energy levels must be integers")
        if self.e0 >= self.e1:
            raise ValueError(f"requires E0 < E1, got {self.e0}, {self.e1}")
        try:
            float(self.detuning)  # period divides by it as a float
        except OverflowError:
            raise ValueError(
                f"--e0 {self.e0} and --e1 {self.e1} give a detuning with no finite float period"
            ) from None

    @property
    def detuning(self) -> int:
        return (self.e0 + 1) - self.e1

    @property
    def period(self) -> float | None:
        return None if self.detuning == 0 else 2.0 * math.pi / abs(self.detuning)


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    p1: np.ndarray
    coherence: np.ndarray  # complex upper off-diagonal entries

    def __post_init__(self):
        if len(self.times) == 0:
            raise ValueError("empty trajectory")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def abs_c(self) -> np.ndarray:
        return np.abs(self.coherence)

    def blocks(self):
        """The whole record as one (p1, coherence, |coherence|) block, as ``classify`` reads it."""
        return ((self.p1, self.coherence, self.abs_c),)


def generator_apply(rho: TwoLevelState, params: DissipativeParams) -> np.ndarray:
    """Time derivative of rho under the dissipative generator.

    i Im(gamma) [rho, D+D] - Re(gamma) {D+D, rho} + 2 Re(gamma) D rho D+.
    The sandwich coefficient is doubled relative to the anticommutator so
    the generator is traceless (trace-preserving semigroup); see the
    module's notes on normalization.
    """
    g = complex(params.gamma)
    m = rho.matrix
    commutator = m @ _P1 - _P1 @ m
    anticommutator = _P1 @ m + m @ _P1
    sandwich = _D @ m @ _D.conj().T
    return 1j * g.imag * commutator - g.real * anticommutator + 2.0 * g.real * sandwich


def _rhs(p1: float, c: complex, g: complex) -> tuple[float, complex]:
    # generator_apply specialized to (p1, coherence); dp0/dt = -dp1/dt
    return -2.0 * g.real * p1, (1j * g.imag - g.real) * c


# the grid step of the dissipative probe unless a caller sets one
DEFAULT_DT = 1e-3
# 1000x the default grid; a record of that size peaks at about 0.4 GiB of arrays
MAX_GRID_POINTS = 10**7
# classify's damping threshold, as a share of the signal's initial value
DECAY_FLOOR = 0.01
# grid points per block of the closed form: one block's arrays stay far below
# the allocator's mmap threshold, so a run maps and faults in no fresh pages
BLOCK = 1024


def _grid_points(t_final: float, dt: float) -> int:
    """round(t_final / dt) + 1 grid points; bad or oversized grids fail first."""
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise ValueError("dt and t_final must be finite and positive")
    ratio = t_final / dt
    if not math.isfinite(ratio) or round(ratio) + 1 > MAX_GRID_POINTS:
        raise ValueError(f"grid of {ratio:g} steps exceeds {MAX_GRID_POINTS} points")
    return round(ratio) + 1


def dissipative_grid(gamma: complex, t_final: float | None = None, dt: float | None = None):
    """(grid points, dt, RK4 factors) of the dissipative probe: each of its refusals of
    gamma, grid and step.  t_final defaults to 10 / Re gamma, dt to DEFAULT_DT."""
    params = DissipativeParams(gamma)
    dt = DEFAULT_DT if dt is None else dt
    horizon = 10.0 / complex(gamma).real if t_final is None else t_final
    return _grid_points(horizon, dt), dt, params.rk4_factors(dt)


def _invariants(p1_0: float, p1: np.ndarray, c: np.ndarray):
    """Trace drift, |c| and the lower eigenvalue of the states (p1, c) reached from p1_0."""
    p0 = (1.0 - p1_0) - (p1 - p1_0)  # p0 loses what p1 gains
    abs_c = np.abs(c)
    return np.abs(p0 + p1 - 1.0), abs_c, 0.5 * (1.0 - np.sqrt((p0 - p1) ** 2 + 4.0 * abs_c**2))


class _ClosedForm:
    """The dissipative RK4 trajectory on its grid, evaluated one block at a time.

    One RK4 step is x -> R(z) x (DissipativeParams.rk4_factors), so step k
    is R^k x0.  Step s + j of the block that starts at s is R^s R^j, with
    R^s and R^j read from two tables of powers: one per block start, and
    one of BLOCK steps.
    The grid is checked here; nothing is computed until ``blocks`` runs.
    """

    def __init__(self, rho0: TwoLevelState, gamma: complex, t_final, dt):
        self.rho0 = rho0
        self.points, self.dt, self.factors = dissipative_grid(gamma, t_final, dt)

    def __len__(self) -> int:
        return self.points

    def blocks(self):
        """Yield (p1, coherence, |coherence|) per block, each checked before it is yielded.

        Aborts at the first grid point where trace or positivity drifts
        beyond tolerance (1e-9 / 1e-8), which for this linear 2x2 system
        indicates an integration bug rather than stiffness.
        """
        r_p1, r_c = self.factors
        p1_0, c_0 = self.rho0.p1, self.rho0.coherence
        steps = np.arange(min(self.points, BLOCK))
        starts = np.arange(0, self.points, BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            table_p1, table_c = r_p1**steps, r_c**steps
            start_p1, start_c = p1_0 * r_p1**starts, c_0 * r_c**starts
        for b, s in enumerate(starts.tolist()):
            size = min(BLOCK, self.points - s)
            with np.errstate(over="ignore", invalid="ignore"):
                p1 = start_p1[b] * table_p1[:size]
                c = start_c[b] * table_c[:size]
                trace_drift, abs_c, min_eig = _invariants(p1_0, p1, c)
                bad = np.flatnonzero((trace_drift > 1e-9) | (min_eig < -1e-8))
                if bad.size:  # quote the point from R^k itself, not from the tables' product
                    k = s + bad[:1]
                    trace_drift, _, min_eig = _invariants(p1_0, p1_0 * r_p1**k, c_0 * r_c**k)
                    raise RuntimeError(
                        f"state invariant violated at t={float(k[0] * self.dt)}: "
                        f"trace drift {float(trace_drift[0])}, "
                        f"min eigenvalue {float(min_eig[0])}"
                    )
            yield p1, c, abs_c

    def record(self) -> TrajectoryRecord:
        p1 = np.empty(self.points)
        c = np.empty(self.points, dtype=np.complex128)
        for s, (p1_block, c_block, _) in zip(range(0, self.points, BLOCK), self.blocks()):
            p1[s:s + BLOCK], c[s:s + BLOCK] = p1_block, c_block
        return TrajectoryRecord(np.arange(self.points) * self.dt, p1, c)


def evolve_dissipative(
    rho0: TwoLevelState,
    params: DissipativeParams,
    t_final: float,
    dt: float = DEFAULT_DT,
) -> TrajectoryRecord:
    """Fixed-step RK4 integration of the dissipative master equation, in closed form.

    Aborts where trace or positivity drifts beyond 1e-9 / 1e-8, as
    ``_ClosedForm.blocks`` does."""
    return _ClosedForm(rho0, params.gamma, t_final, dt).record()


def hamiltonian_state_at(
    rho0: TwoLevelState, params: HamiltonianParams, t: float
) -> np.ndarray:
    """rho(t) = exp(-iHt) rho0 exp(iHt) with H = diag(E0 + 1, E1)."""
    phases = np.exp(-1j * np.array([params.e0 + 1, params.e1]) * t)
    u = np.diag(phases)
    return u @ rho0.matrix @ u.conj().T


def evolve_hamiltonian(
    rho0: TwoLevelState,
    params: HamiltonianParams,
    t_final: float,
    dt: float = 1e-3,
) -> TrajectoryRecord:
    """Exact unitary evolution sampled on a fixed grid; populations constant."""
    times = np.arange(_grid_points(t_final, dt)) * dt
    delta = params.detuning
    c0 = rho0.coherence
    # rho(t)_{01} = c0 exp(-i ((E0+1) - E1) t)
    cs = c0 * np.exp(-1j * delta * times)
    p1s = np.full(times.shape, rho0.p1)
    return TrajectoryRecord(times, p1s, cs)


def classify(record: TrajectoryRecord) -> str:
    """DAMPED, OSCILLATORY or STATIONARY.

    Damping: the signal p1 + |c| over the last half of the run stays below
    DECAY_FLOOR times its initial value.  Oscillation: the complex
    coherence leaves its initial value by more than 1e-6 and later returns
    within 1e-6 of it (periodic recurrence).  Anything else - including a
    signal that never moves - is stationary.

    The record is read through ``len`` and ``blocks``, so the dissipative
    closed form is classified one block at a time, and only a run that is
    not damped is read a second time.
    """
    half = len(record) // 2
    start, late = 0, -math.inf
    for p1, _, abs_c in record.blocks():
        if start == 0:
            initial = p1[0] + abs_c[0]
        end = start + len(p1)
        if end > half:
            skip = max(half - start, 0)
            late = np.maximum(late, (p1[skip:] + abs_c[skip:]).max())  # NaN propagates
        start = end
    if initial > 0.0 and float(late) < DECAY_FLOOR * initial:
        return "DAMPED"
    origin, moved = None, False
    for _, c, _ in record.blocks():
        if origin is None:
            origin = c[0]
        departure = np.abs(c - origin)
        if not moved:
            left = np.flatnonzero(departure > 1e-6)
            if not left.size:
                continue
            moved, departure = True, departure[left[0]:]
        if np.any(departure < 1e-6):
            return "OSCILLATORY"
    return "STATIONARY"


def _trajectory(q, gamma, energies, t_final, dt):
    """The printed case q selects, not yet evaluated in the dissipative case.

    0 < q < 1 selects the dissipative case on the state built from q;
    q = 0 selects the Hamiltonian case probed with the coherent |+> state.
    q = 1 has no dissipative coupling term in either printed case and is
    rejected.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 1.0:
        raise ValueError("q = 1 (alpha_0 = 0) is outside both dynamical cases")
    if q > 0.0:
        return _ClosedForm(TwoLevelState.from_q(q), gamma, t_final, dt)
    period = energies.period
    if period is None:
        raise ValueError("degenerate levels (E0 + 1 = E1) give no oscillation")
    horizon = t_final if t_final is not None else 3.0 * period
    return evolve_hamiltonian(TwoLevelState.plus(), energies, horizon, period / 1000.0)


def _verdict(q: float, trajectory) -> tuple[str, str]:
    verdict = classify(trajectory)
    if q > 0.0 and verdict == "DAMPED":
        return "q_nonzero", verdict
    if q == 0.0 and verdict == "OSCILLATORY":
        return "q_zero", verdict
    raise ClassificationError(
        f"trajectory classified {verdict}, inconsistent with q={q}"
    )


def decide(
    q: float,
    gamma: complex = 1.0 + 0.0j,
    energies: HamiltonianParams = HamiltonianParams(0, 2),
    t_final: float | None = None,
    dt: float | None = None,
) -> tuple[str, str]:
    """(decision, classification) as ``discriminate`` returns them, without its record.

    The dissipative case is evaluated and classified one block at a time,
    so a run holds one block of arrays whatever its grid; a run that is
    not damped is evaluated a second time to test for recurrence.
    """
    return _verdict(q, _trajectory(q, gamma, energies, t_final, dt))


def discriminate(
    q: float,
    gamma: complex = 1.0 + 0.0j,
    energies: HamiltonianParams = HamiltonianParams(0, 2),
    t_final: float | None = None,
    dt: float | None = None,
) -> tuple[str, str, TrajectoryRecord]:
    """Decide q_nonzero vs q_zero from the dynamical behavior.

    Returns (decision, classification, record): the verdict of ``decide``,
    and the trajectory it was reached on.
    """
    record = _trajectory(q, gamma, energies, t_final, dt)
    if isinstance(record, _ClosedForm):
        record = record.record()
    return (*_verdict(q, record), record)
