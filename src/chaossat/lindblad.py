"""Two-level open-system discriminator.

A nonzero success amplitude q selects dissipative dynamics with jump
operator D = |e0><e1| (populations and coherence decay exponentially);
q = 0 selects a purely Hamiltonian evolution with integer levels, whose
coherence turns by a fixed angle per step.  Watching whether the trajectory
damps or rotates therefore distinguishes q > 0 from q = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


# the longest default step of dissipative_grid, and evolve_hamiltonian's default step
DEFAULT_DT = 1e-3
# 1000x the default grid; `lindblad --csv` on 10^6 points peaks at about 90 MiB
# (30 MiB without --csv), and its arrays grow linearly with the grid
MAX_GRID_POINTS = 10**7
# classify's damping threshold, as a share of the signal's initial value
DECAY_FLOOR = 0.01
# grid points per block of the positivity check: one block's arrays stay far
# below the allocator's mmap threshold, so a check maps and faults in no fresh pages
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
    gamma, grid and step.  t_final defaults to 10 / Re gamma, and dt to DEFAULT_DT or
    a thousandth of that horizon, whichever is shorter, so a large Re gamma still
    gets the 1000 steps it needs to damp.  A given t_final whose step leaves p1
    unchanged (its RK4 factor rounds to 1) where DEFAULT_DT would not is refused by name."""
    params = DissipativeParams(gamma)
    horizon = 10.0 / complex(gamma).real if t_final is None else t_final
    if dt is None:
        dt = min(DEFAULT_DT, horizon / 1000.0)
        rate = 2.0 * complex(gamma).real  # p1's decay rate: its step factor is 1 - rate dt + ...
        if (t_final is not None and 0.0 < t_final and 1.0 - rate * dt == 1.0
                and 1.0 - rate * DEFAULT_DT != 1.0):
            raise ValueError(f"t_final {t_final} is too short: its step t_final / 1000 = "
                             f"{dt} leaves the state unchanged")
    return _grid_points(horizon, dt), dt, params.rk4_factors(dt)


def _min_eigenvalue(p1_0: float, p1: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The lower eigenvalue of the states (p1, c) reached from p1_0."""
    p0 = (1.0 - p1_0) - (p1 - p1_0)  # p0 loses what p1 gains, so the trace stays 1
    return 0.5 * (1.0 - np.sqrt((p0 - p1) ** 2 + 4.0 * np.abs(c) ** 2))


class Trajectory:
    """A run of either printed case on its grid of ``points`` steps of dt.

    At grid point k, p1 and the coherence are each x0 R^k, with R the
    component's one-step factor, held as its log w: R^k is exp(k w).
    Nothing is evaluated until ``check`` runs; the full arrays are built
    only when read.
    """

    def __init__(self, p1_0: float, c_0: complex, logs: tuple[float, complex],
                 points: int, dt: float):
        self.p1_0, self.c_0, self.logs = p1_0, c_0, logs
        self.points, self.dt = points, dt
        self._checked = False

    def __len__(self) -> int:
        return self.points

    def _at(self, k: np.ndarray, p1_0: float, c_0: complex):
        """(p1_0 R^k, c_0 R^k) at the grid indices k."""
        w_p1, w_c = self.logs
        with np.errstate(over="ignore", invalid="ignore"):
            return p1_0 * np.exp(k * w_p1), c_0 * np.exp(k * w_c)

    def check(self) -> None:
        """Check positivity at every grid point, once per trajectory.

        Raises at the first point whose lower eigenvalue is below -1e-8, which
        for this linear 2x2 system indicates an integration bug rather than
        stiffness.  Point s + j of the block that starts at s is read as
        (x0 R^s) R^j, from one table of block starts and one of the BLOCK
        steps of a block, so the check holds one block of arrays at a time.
        """
        if self._checked:
            return
        start_p1, start_c = self._at(np.arange(0, self.points, BLOCK), self.p1_0, self.c_0)
        step_p1, step_c = self._at(np.arange(min(self.points, BLOCK)), 1.0, 1.0)
        for b, s in enumerate(range(0, self.points, BLOCK)):
            size = min(BLOCK, self.points - s)
            with np.errstate(over="ignore", invalid="ignore"):
                bad = np.flatnonzero(_min_eigenvalue(
                    self.p1_0, start_p1[b] * step_p1[:size], start_c[b] * step_c[:size]
                ) < -1e-8)
                if bad.size:  # quote the point from R^k itself, not from the tables' product
                    k = s + bad[:1]
                    min_eig = _min_eigenvalue(self.p1_0, *self._at(k, self.p1_0, self.c_0))
                    raise RuntimeError(f"state invariant violated at t={float(k[0] * self.dt)}: "
                                       f"min eigenvalue {float(min_eig[0])}")
        self._checked = True

    @cached_property
    def _arrays(self):
        self.check()
        return self._at(np.arange(self.points), self.p1_0, self.c_0)

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.points) * self.dt

    @property
    def p1(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def coherence(self) -> np.ndarray:
        """The complex upper off-diagonal entries."""
        return self._arrays[1]

    @cached_property
    def abs_c(self) -> np.ndarray:
        return np.abs(self.coherence)


# a probe's initial p1 and coherence: all that evolve_* read of a state
_Start = NamedTuple("_Start", [("p1", float), ("coherence", complex)])


def evolve_dissipative(
    rho0: TwoLevelState | _Start,
    params: DissipativeParams,
    t_final: float | None,
    dt: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 integration of the dissipative master equation, in closed form.

    One RK4 step is x -> R(z) x (DissipativeParams.rk4_factors), so step k
    is R(z)^k x0.  The grid, gamma and step are checked here, by
    ``dissipative_grid``; positivity before the trajectory is read."""
    points, dt, (r_p1, r_c) = dissipative_grid(params.gamma, t_final, dt)
    return Trajectory(rho0.p1, rho0.coherence, (math.log(r_p1), cmath.log(r_c)), points, dt)


def hamiltonian_state_at(
    rho0: TwoLevelState, params: HamiltonianParams, t: float
) -> np.ndarray:
    """rho(t) = exp(-iHt) rho0 exp(iHt) with H = diag(E0 + 1, E1)."""
    phases = np.exp(-1j * np.array([params.e0 + 1, params.e1]) * t)
    u = np.diag(phases)
    return u @ rho0.matrix @ u.conj().T


def evolve_hamiltonian(
    rho0: TwoLevelState | _Start,
    params: HamiltonianParams,
    t_final: float,
    dt: float = DEFAULT_DT,
) -> Trajectory:
    """Exact unitary evolution sampled on a fixed grid; populations constant.

    rho(t)_{01} = c0 exp(-i ((E0+1) - E1) t), so one grid step multiplies
    the coherence by exp(-i delta dt) and p1 by 1."""
    points = _grid_points(t_final, dt)
    return Trajectory(rho0.p1, rho0.coherence, (0.0, -1j * params.detuning * dt), points, dt)


def classify(trajectory: Trajectory) -> str:
    """DAMPED, OSCILLATORY or STATIONARY, with no grid point evaluated.

    A pure rotation (p1 fixed, the coherence turned by theta per step, as
    ``evolve_hamiltonian`` builds) is OSCILLATORY when c0 != 0, 0 < |theta| < pi
    (the grid samples it) and (points - 1) |theta| >= 2 pi (a period is covered).
    Any other run is checked (``Trajectory.check``), and is DAMPED when its
    signal p1 + |c| over the last half stays below DECAY_FLOOR times its initial
    value.  Both components shrink by a fixed factor per step, so the largest
    late signal is the one at h = points // 2: p1_0 |R_p1|^h + |c0| |R_c|^h.
    Anything else is STATIONARY.
    """
    w_p1, w_c = trajectory.logs
    if w_p1 == 0.0 and w_c.real == 0.0:
        theta = abs(w_c.imag)
        recurs = 0.0 < theta < math.pi and (len(trajectory) - 1) * theta >= 2.0 * math.pi
        return "OSCILLATORY" if trajectory.c_0 != 0.0 and recurs else "STATIONARY"
    trajectory.check()
    h, p1_0, abs_c0 = len(trajectory) // 2, trajectory.p1_0, abs(trajectory.c_0)
    late = p1_0 * math.exp(h * w_p1) + abs_c0 * math.exp(h * w_c.real)
    return "DAMPED" if late < DECAY_FLOOR * (p1_0 + abs_c0) else "STATIONARY"


def _trajectory(q, gamma, energies, t_final, dt) -> Trajectory:
    """The printed case q selects, not yet evaluated.

    0 < q < 1 selects the dissipative case on the state built from q;
    q = 0 selects the Hamiltonian case probed with the coherent |+> state,
    up to t_final (three periods unless given) in steps of dt (period / 1000
    unless given).  gamma is checked at any q: at q = 0 on the dissipative
    probe's default grid, as ``solve`` checks it.  q = 1 has no dissipative
    coupling term in either printed case and is rejected.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 1.0:
        raise ValueError("q = 1 (alpha_0 = 0) is outside both dynamical cases")
    # from_q(q), or plus() at q = 0, read with DensityMatrix.pure's float operations
    v = np.array([math.sqrt(1.0 - q * q), q] if q > 0.0 else [1.0, 1.0], dtype=np.complex128)
    v = v / np.linalg.norm(v)
    start = _Start(float((v[1] * v[1].conj()).real), complex(v[0] * v[1].conj()))
    if q > 0.0:
        return evolve_dissipative(start, DissipativeParams(gamma), t_final, dt)
    dissipative_grid(gamma)
    period = energies.period
    if period is None:
        raise ValueError("degenerate levels (E0 + 1 = E1) give no oscillation")
    return evolve_hamiltonian(start, energies,
                              3.0 * period if t_final is None else t_final,
                              period / 1000.0 if dt is None else dt)


def discriminate(
    q: float,
    gamma: complex = 1.0 + 0.0j,
    energies: HamiltonianParams = HamiltonianParams(0, 2),
    t_final: float | None = None,
    dt: float | None = None,
) -> tuple[str, str, Trajectory]:
    """Decide q_nonzero vs q_zero from the dynamical behavior.

    Returns (decision, classification, trajectory).  The trajectory's
    check holds one block of arrays at a time, so a run holds no array of
    its grid until its arrays are read.
    """
    trajectory = _trajectory(q, gamma, energies, t_final, dt)
    verdict = classify(trajectory)
    if q > 0.0 and verdict == "DAMPED":
        return "q_nonzero", verdict, trajectory
    if q == 0.0 and verdict == "OSCILLATORY":
        return "q_zero", verdict, trajectory
    raise ClassificationError(
        f"trajectory classified {verdict}, inconsistent with q={q}"
    )
