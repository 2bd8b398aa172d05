import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaossat import entropy, lindblad
from chaossat.lindblad import (
    ClassificationError,
    DissipativeParams,
    HamiltonianParams,
    TwoLevelState,
)

BLOCK = lindblad.BLOCK


class TestTwoLevelState:
    def test_from_q(self):
        rho = TwoLevelState.from_q(0.5)
        assert rho.p1 == pytest.approx(0.25)
        assert rho.coherence == pytest.approx(math.sqrt(0.75) * 0.5)

    def test_plus_state(self):
        rho = TwoLevelState.plus()
        assert rho.p1 == pytest.approx(0.5)
        assert rho.coherence == pytest.approx(0.5)

    def test_invalid_trace(self):
        with pytest.raises(ValueError):
            TwoLevelState(np.eye(2))

    def test_not_hermitian(self):
        with pytest.raises(ValueError):
            TwoLevelState(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            TwoLevelState(np.array([[0.5, 0.9], [0.9, 0.5]]))

    def test_not_two_by_two(self):
        with pytest.raises(ValueError, match="expected a 2x2 matrix, got shape"):
            TwoLevelState(np.eye(3) / 3)

    def test_checks_are_the_entropy_toolkits(self):
        # a trace 1e-11 off passed the old 1e-10 tolerance; the toolkit's is 1e-12
        with pytest.raises(entropy.InvariantError, match="trace must be 1"):
            TwoLevelState(np.diag([0.5, 0.5 + 1e-11]))
        assert isinstance(TwoLevelState.from_q(0.5), entropy.DensityMatrix)


class TestParams:
    def test_gamma_real_part_must_be_positive(self):
        with pytest.raises(ValueError):
            DissipativeParams(0.0 + 3.0j)

    @pytest.mark.parametrize("gamma", [complex(1.0, math.nan), complex(math.nan, 0.0),
                                       complex(math.inf, 0.0), complex(1.0, -math.inf)])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            DissipativeParams(gamma)

    @pytest.mark.parametrize("gamma, dt", [(1e308, 1e-3), (1e154, 1e-3), (1.0 + 1e200j, 1e-3),
                                           (1.0, 1e308)])
    def test_rk4_factors_must_be_finite(self, gamma, dt):
        with pytest.raises(ValueError, match=r"with dt .* overflows the RK4 step factor"):
            DissipativeParams(gamma).rk4_factors(dt)

    # p1's step past Re gamma dt = 1.39, the coherence's alone, and a z so small that R(z) is 1.0
    @pytest.mark.parametrize("gamma, dt, radius", [(1400, 1e-3, "1.0224000000000006"),
                                                   (0.1 + 3j, 1.0, "1.351498830523449"),
                                                   (1e-20, 1e-3, "1.0")])
    def test_rk4_factors_must_damp(self, gamma, dt, radius):
        with pytest.raises(ValueError) as info:
            DissipativeParams(gamma).rk4_factors(dt)
        assert str(info.value) == (f"gamma {gamma} with dt {dt} gives an unstable RK4 step: "
                                   f"|R(z)| = {radius} >= 1")
        assert max(map(abs, DissipativeParams(1000).rk4_factors(1e-3))) < 1.0  # Re gamma dt = 1

    def test_levels_must_be_ordered_integers(self):
        with pytest.raises(ValueError):
            HamiltonianParams(2, 1)
        with pytest.raises(ValueError):
            HamiltonianParams(0.5, 2)

    def test_detuning_and_period(self):
        params = HamiltonianParams(0, 2)
        assert params.detuning == -1
        assert params.period == pytest.approx(2.0 * math.pi)

    def test_degenerate_detuning_has_no_period(self):
        assert HamiltonianParams(0, 1).period is None

    @pytest.mark.parametrize("e0, e1", [(0, 10**400), (-(2**1024), 0)])
    def test_detuning_past_the_float_range_is_refused_by_name(self, e0, e1):
        with pytest.raises(ValueError) as refused:
            HamiltonianParams(e0, e1)
        assert str(refused.value) == (
            f"--e0 {e0} and --e1 {e1} give a detuning with no finite float period"
        )
        # the widest detuning whose period is a float
        assert HamiltonianParams(0, 2**1023).period > 0.0


class TestGenerator:
    def test_ground_state_is_stationary(self):
        rho = TwoLevelState(np.diag([1.0, 0.0]))
        drho = lindblad.generator_apply(rho, DissipativeParams(1.0 + 2.0j))
        assert np.abs(drho).max() < 1e-14

    def test_excited_population_rate(self):
        rho = TwoLevelState(np.diag([0.0, 1.0]))
        drho = lindblad.generator_apply(rho, DissipativeParams(1.0))
        assert drho[1, 1] == pytest.approx(-2.0)
        assert drho[0, 0] == pytest.approx(2.0)

    def test_traceless(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = TwoLevelState.pure(psi)
            g = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            drho = lindblad.generator_apply(rho, DissipativeParams(g))
            assert abs(np.trace(drho)) < 1e-12

    def test_rhs_matches_matrix_generator(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = TwoLevelState.pure(psi)
            g = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            drho = lindblad.generator_apply(rho, DissipativeParams(g))
            dp1, dc = lindblad._rhs(rho.p1, rho.coherence, g)
            assert drho[1, 1].real == pytest.approx(dp1, abs=1e-12)
            assert complex(drho[0, 1]) == pytest.approx(dc, abs=1e-12)


def unchecked_factors(params, dt):
    """DissipativeParams.rk4_factors without its refusals: factors set by hand,
    so that an unstable step reaches the per-point invariant check."""
    return tuple(1.0 + z + z * z / 2 + z**3 / 6 + z**4 / 24
                 for z in lindblad._rhs(dt, dt, complex(params.gamma)))


def rk4_reference(rho0, g, t_final, dt):
    """The integrator stepped one RK4 step at a time, as a reference."""
    p1, c = rho0.p1, rho0.coherence
    p1s, cs = [p1], [c]
    for _ in range(int(round(t_final / dt))):
        dp1_a, dc_a = lindblad._rhs(p1, c, g)
        dp1_b, dc_b = lindblad._rhs(p1 + 0.5 * dt * dp1_a, c + 0.5 * dt * dc_a, g)
        dp1_c, dc_c = lindblad._rhs(p1 + 0.5 * dt * dp1_b, c + 0.5 * dt * dc_b, g)
        dp1_d, dc_d = lindblad._rhs(p1 + dt * dp1_c, c + dt * dc_c, g)
        p1 += (dp1_a + 2.0 * dp1_b + 2.0 * dp1_c + dp1_d) * (dt / 6.0)
        c += (dc_a + 2.0 * dc_b + 2.0 * dc_c + dc_d) * (dt / 6.0)
        p1s.append(p1)
        cs.append(c)
    return np.array(p1s), np.array(cs)


def closed_form(rho0, g, times):
    p1 = rho0.p1 * np.exp(-2.0 * g.real * times)
    c = rho0.coherence * np.exp((1j * g.imag - g.real) * times)
    return p1, c


class TestEvolveDissipative:
    @pytest.mark.parametrize("re", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("im", [0.0, 2.0, 5.0])
    def test_matches_closed_form(self, re, im):
        g = complex(re, im)
        rho0 = TwoLevelState.from_q(0.6)
        record = lindblad.evolve_dissipative(rho0, DissipativeParams(g), 5.0)
        p1_exact, c_exact = closed_form(rho0, g, record.times)
        assert np.abs(record.p1 - p1_exact).max() < 1e-8
        assert np.abs(record.coherence - c_exact).max() < 1e-8

    @pytest.mark.parametrize("q", [2**-20, 0.25, 0.999])
    @pytest.mark.parametrize("g", [1.0, 0.5 + 2.0j, 0.1 - 3.0j])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_matches_stepped_rk4(self, q, g, dt):
        # the exact exponential would miss this reference by O(dt^4), not by rounding
        rho0 = TwoLevelState.from_q(q)
        record = lindblad.evolve_dissipative(rho0, DissipativeParams(g), 10.0, dt)
        p1_ref, c_ref = rk4_reference(rho0, complex(g), 10.0, dt)
        assert np.abs(record.p1 - p1_ref).max() < 1e-12
        assert np.abs(record.coherence - c_ref).max() < 1e-12

    def test_unstable_step_violates_invariant(self, monkeypatch):
        # dt = 2 gives z = -4 for p1 and R(-4) = 5: the step is refused at set-up,
        # and with its factors set by hand p1 grows past 1 on the first step
        def run():
            return lindblad.evolve_dissipative(
                TwoLevelState.from_q(0.6), DissipativeParams(1.0), 10.0, dt=2.0
            ).p1

        with pytest.raises(ValueError, match=r"^gamma 1\.0 with dt 2\.0 gives an unstable "
                                             r"RK4 step: \|R\(z\)\| = 5\.0 >= 1$"):
            run()
        monkeypatch.setattr(DissipativeParams, "rk4_factors", unchecked_factors)
        with pytest.raises(RuntimeError, match=r"state invariant violated at t=2\.0:"):
            run()

    def test_stable_step_can_still_lose_positivity(self):
        # |R(z)| < 1 for p1 and the coherence, but |R_c|^2 > R_p1: the coherence
        # outlasts the population, and the per-point check catches it at step 13
        factors = DissipativeParams(1 + 2j).rk4_factors(0.5)
        assert max(map(abs, factors)) < 1.0 < abs(factors[1]) ** 2 / factors[0]
        trajectory = lindblad.evolve_dissipative(
            TwoLevelState.from_q(0.5), DissipativeParams(1 + 2j), 10.0, dt=0.5
        )
        with pytest.raises(RuntimeError, match=r"state invariant violated at t=6\.5:"):
            trajectory.p1

    def test_monotone_population_decay(self):
        record = lindblad.evolve_dissipative(
            TwoLevelState.from_q(0.9), DissipativeParams(1.0), 4.0
        )
        assert np.all(np.diff(record.p1) < 0)
        assert record.p1[-1] < 1e-3

    def test_default_step_is_the_probe_grid(self):
        # no dt: the grid dissipative_grid derives, 1000 steps of the horizon 10 / Re gamma
        trajectory = lindblad.evolve_dissipative(
            TwoLevelState.from_q(0.5), DissipativeParams(1200), None
        )
        assert len(trajectory) == 1001 and trajectory.dt == 10.0 / 1200 / 1000
        assert lindblad.classify(trajectory) == "DAMPED"

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="^dt and t_final must be finite and positive$"):
            lindblad.evolve_dissipative(TwoLevelState.plus(), DissipativeParams(1.0), 0.0)
        with pytest.raises(ValueError):
            lindblad.evolve_dissipative(
                TwoLevelState.plus(), DissipativeParams(1.0), 1.0, dt=-0.1
            )
        # non-finite, overflowing t_final/dt, and 10^8 steps: refused before allocating
        for t_final, dt in ((math.inf, 1e-3), (1.0, math.nan), (1e308, 1e-3), (1e5, 1e-3)):
            with pytest.raises(ValueError):
                lindblad.evolve_dissipative(TwoLevelState.plus(), DissipativeParams(1.0), t_final, dt)
            with pytest.raises(ValueError):
                lindblad.evolve_hamiltonian(TwoLevelState.plus(), HamiltonianParams(0, 2), t_final, dt)


class TestEvolveHamiltonian:
    def test_exact_periodicity(self):
        params = HamiltonianParams(0, 2)
        rho0 = TwoLevelState.plus()
        record = lindblad.evolve_hamiltonian(
            rho0, params, 2.0 * params.period, dt=params.period / 500
        )
        assert record.coherence[0] == pytest.approx(record.coherence[500], abs=1e-12)
        assert record.coherence[0] == pytest.approx(record.coherence[1000], abs=1e-12)

    def test_populations_constant(self):
        record = lindblad.evolve_hamiltonian(
            TwoLevelState.from_q(0.3), HamiltonianParams(0, 3), 5.0
        )
        assert np.ptp(record.p1) == 0.0

    def test_matches_matrix_conjugation(self):
        # 2 * BLOCK + 1 points: both sides of each block edge, and the last point
        params = HamiltonianParams(1, 4)
        rho0 = TwoLevelState.plus()
        record = lindblad.evolve_hamiltonian(rho0, params, 2 * BLOCK * 0.25, dt=0.25)
        assert len(record.times) == 2 * BLOCK + 1
        for k in (0, BLOCK - 1, BLOCK, 2 * BLOCK, len(record.times) - 1):
            full = lindblad.hamiltonian_state_at(rho0, params, record.times[k])
            assert complex(full[0, 1]) == pytest.approx(record.coherence[k], abs=1e-12)

    def test_coherence_magnitude_constant(self):
        record = lindblad.evolve_hamiltonian(
            TwoLevelState.plus(), HamiltonianParams(0, 2), 10.0
        )
        assert np.ptp(record.abs_c) < 1e-12


class TestClassify:
    def test_damped(self):
        record = lindblad.evolve_dissipative(
            TwoLevelState.from_q(2**-5), DissipativeParams(1.0), 10.0
        )
        assert lindblad.classify(record) == "DAMPED"

    def test_oscillatory(self):
        params = HamiltonianParams(0, 2)
        record = lindblad.evolve_hamiltonian(
            TwoLevelState.plus(), params, 3.0 * params.period, dt=params.period / 1000
        )
        assert lindblad.classify(record) == "OSCILLATORY"

    @pytest.mark.parametrize("c0, theta, points, verdict", [
        (0.5, 2 * math.pi / 1000, 1001, "OSCILLATORY"),  # one period, sampled 1000 times
        (0.5, 2 * math.pi / 1000, 1000, "STATIONARY"),   # one step short of a period
        (0.5, 0.0, 101, "STATIONARY"),                   # degenerate levels never turn
        (0.0, 2 * math.pi / 1000, 3001, "STATIONARY"),   # no coherence to turn
    ])
    def test_rotation_rule(self, c0, theta, points, verdict):
        trajectory = lindblad.Trajectory(0.5, c0, (0.0, -1j * theta), points, 1.0)
        assert lindblad.classify(trajectory) == verdict

    def test_stationary_ground_state(self):
        record = lindblad.evolve_dissipative(
            TwoLevelState(np.diag([1.0, 0.0])), DissipativeParams(1.0), 2.0
        )
        assert lindblad.classify(record) == "STATIONARY"

    def test_truncated_run_is_not_damped(self):
        # too short for the signal to fall under the floor
        record = lindblad.evolve_dissipative(
            TwoLevelState.from_q(0.5), DissipativeParams(1.0), 0.1
        )
        assert lindblad.classify(record) == "STATIONARY"


class TestDiscriminate:
    def test_small_nonzero_q(self):
        decision, verdict, record = lindblad.discriminate(2**-5)
        assert decision == "q_nonzero"
        assert verdict == "DAMPED"
        assert record.p1[-1] < 1e-6

    def test_zero_q(self):
        decision, verdict, _ = lindblad.discriminate(0.0)
        assert decision == "q_zero"
        assert verdict == "OSCILLATORY"

    def test_zero_q_steps_by_the_given_dt_and_checks_gamma(self):
        # a tenth of a period and 0.37, which does not divide the period, both
        # sample the rotation; 3.2, more than half a period, does not
        period = HamiltonianParams(0, 2).period
        decision, verdict, trajectory = lindblad.discriminate(0.0, dt=period / 10)
        assert (decision, verdict) == ("q_zero", "OSCILLATORY")
        assert (len(trajectory), trajectory.dt) == (31, period / 10)
        decision, verdict, trajectory = lindblad.discriminate(0.0, dt=0.37)
        assert (decision, verdict) == ("q_zero", "OSCILLATORY")
        assert len(trajectory) == 52
        with pytest.raises(ClassificationError, match="^trajectory classified STATIONARY"):
            lindblad.discriminate(0.0, dt=3.2)
        with pytest.raises(ValueError, match=r"^Re gamma must be positive, got \(-1\+0j\)$"):
            lindblad.discriminate(0.0, gamma=-1.0 + 0j)

    def test_complex_gamma(self):
        decision, verdict, _ = lindblad.discriminate(0.25, gamma=1.0 + 3.0j)
        assert (decision, verdict) == ("q_nonzero", "DAMPED")

    def test_q_one_rejected(self):
        with pytest.raises(ValueError):
            lindblad.discriminate(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lindblad.discriminate(-0.1)

    def test_degenerate_levels_rejected(self):
        with pytest.raises(ValueError):
            lindblad.discriminate(0.0, energies=HamiltonianParams(0, 1))

    def test_short_horizon_raises(self):
        with pytest.raises(ClassificationError):
            lindblad.discriminate(0.5, t_final=0.05)


class TestProbeStart:
    def test_builds_no_density_matrix(self, monkeypatch):
        def built(self):
            pytest.fail("the probe built a density matrix")

        monkeypatch.setattr(entropy.DensityMatrix, "__post_init__", built)
        assert lindblad.discriminate(0.3)[:2] == ("q_nonzero", "DAMPED")
        assert lindblad.discriminate(0.0)[:2] == ("q_zero", "OSCILLATORY")

    @settings(max_examples=500, deadline=None)
    @given(q=st.floats(0.0, 1.0, exclude_max=True))
    @example(q=0.0)
    @example(q=5e-324)
    @example(q=math.nextafter(1.0, 0.0))
    def test_is_from_q_bit_for_bit(self, q):
        # q = 0 starts from |+>; repr tells -0.0 from 0.0
        trajectory = lindblad._trajectory(q, 1.0, HamiltonianParams(0, 2), None, None)
        rho = TwoLevelState.from_q(q) if q > 0.0 else TwoLevelState.plus()
        assert repr((trajectory.p1_0, trajectory.c_0)) == repr((rho.p1, rho.coherence))


def outcome(func):
    """What a call returns, or the type and text of what it raises."""
    try:
        return func()
    except Exception as exc:
        return type(exc), str(exc)


def probe(q, gamma, t_final, dt):
    """discriminate's outcome, and the outcome of reading its trajectory's arrays:
    one row each of p1, coherence and |coherence| over the whole grid."""
    def values():
        trajectory = lindblad._trajectory(q, gamma, HamiltonianParams(0, 2), t_final, dt)
        return np.stack([trajectory.p1, trajectory.coherence, trajectory.abs_c])

    return (outcome(lambda: lindblad.discriminate(q, gamma, t_final=t_final, dt=dt)[:2]),
            outcome(values))


# (q, gamma, dt): an unstable coherence step (|R(z)| = 1.0089, refused unless its
# factors are set by hand) whose invariant first fails at step 2729
THIRD_BLOCK_FAILURE = (5.48928633130162e-06, 3.1574590510901506 + 1.8566128185864148j,
                       0.4419986637917949)


class TestDecide:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, exclude_max=True),
        re=st.floats(0.05, 5.0),
        im=st.floats(-5.0, 5.0),
        # block - 1, block and block + 1 points, a half-way index on a block edge
        # (2 * block and 2 * block + 1 points), and anything up to four blocks
        points=st.sampled_from([2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
        | st.integers(2, 4 * BLOCK + 1),
        dt=st.sampled_from([1e-3, 2.0]) | st.floats(1e-3, 2.0),
        default_horizon=st.booleans(),
    )
    # too short to damp (STATIONARY), unstable at dt = 2 (refused at set-up), on a block edge
    @example(q=0.5, re=1.0, im=0.0, points=101, dt=1e-3, default_horizon=False)
    @example(q=0.6, re=1.0, im=0.0, points=6, dt=2.0, default_horizon=False)
    @example(q=0.25, re=1.0, im=3.0, points=2 * BLOCK, dt=5e-3, default_horizon=False)
    # a step refused at set-up whose hand-set factors fail in the third block
    @example(q=THIRD_BLOCK_FAILURE[0], re=THIRD_BLOCK_FAILURE[1].real,
             im=THIRD_BLOCK_FAILURE[1].imag, points=4096, dt=THIRD_BLOCK_FAILURE[2],
             default_horizon=False)
    @example(q=0.0, re=1.0, im=0.0, points=2, dt=1e-3, default_horizon=True)
    # q = 0 over three blocks, recurring after 1000 steps of period / 1000
    @example(q=0.0, re=1.0, im=0.0, points=2 * BLOCK + 1, dt=2 * math.pi / 1000,
             default_horizon=False)
    def test_matches_discriminate(self, q, re, im, points, dt, default_horizon):
        # the same run again with BLOCK past its number of points, checked as one block
        t_final = None if default_horizon else (points - 1) * dt
        gamma = complex(re, im)
        verdict, values = probe(q, gamma, t_final, dt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lindblad, "BLOCK", lindblad.MAX_GRID_POINTS)
            one_verdict, one_values = probe(q, gamma, t_final, dt)
        assert verdict == one_verdict
        if isinstance(one_values, np.ndarray):
            np.testing.assert_array_equal(values, one_values)
        else:
            assert values == one_values

    def test_invariant_failure_past_the_first_block(self, monkeypatch):
        # the error quotes the failing point from x0 R^k itself, not from the
        # product of the check's two tables
        monkeypatch.setattr(DissipativeParams, "rk4_factors", unchecked_factors)
        q, gamma, dt = THIRD_BLOCK_FAILURE
        with pytest.raises(RuntimeError) as info:
            lindblad.discriminate(q, gamma, t_final=4095 * dt, dt=dt)
        assert str(info.value) == ("state invariant violated at t=1206.2143534878082: "
                                   "min eigenvalue -0.007643985161585265")

    def test_checks_once_and_classifies_with_no_grid_point(self, monkeypatch):
        # the check evaluates its two tables once; classify then reads no grid point,
        # and the arrays are one evaluation more
        evaluations = []
        at = lindblad.Trajectory._at

        def counted(self, k, p1_0, c_0):
            evaluations.append(len(k))
            return at(self, k, p1_0, c_0)

        monkeypatch.setattr(lindblad.Trajectory, "_at", counted)
        trajectory = lindblad._trajectory(0.3, 1.0, HamiltonianParams(0, 2), None, None)
        assert lindblad.classify(trajectory) == "DAMPED"
        assert evaluations == [math.ceil(len(trajectory) / BLOCK), BLOCK]
        trajectory.check()
        assert lindblad.classify(trajectory) == "DAMPED"
        assert len(trajectory.p1) == len(trajectory.abs_c) == len(trajectory)
        assert evaluations == [math.ceil(len(trajectory) / BLOCK), BLOCK, len(trajectory)]

    def test_holds_one_block(self):
        lindblad.discriminate(0.3)
        tracemalloc.start()
        try:
            assert lindblad.discriminate(0.3)[:2] == ("q_nonzero", "DAMPED")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10  # the 10 001-point arrays alone take 313 KiB


def scanned_damping(trajectory):
    """classify's damping verdict as it was reached by scanning the grid, kept as a
    reference: DAMPED when the largest signal p1 + |c| over the last half of the
    grid is below DECAY_FLOOR times the first."""
    signal = trajectory.p1 + trajectory.abs_c
    late = signal[len(trajectory) // 2:].max()  # NaN propagates
    return ("DAMPED" if signal[0] > 0.0 and late < lindblad.DECAY_FLOOR * signal[0]
            else "STATIONARY")


def two_pass_classify(trajectory):
    """The recurrence-scanning classify, kept as a reference: the damping scan, then a
    second pass over the grid that calls a run OSCILLATORY when its coherence leaves
    its start by more than 1e-6 and comes back within 1e-6."""
    if scanned_damping(trajectory) == "DAMPED":
        return "DAMPED"
    departure = np.abs(trajectory.coherence - trajectory.c_0)
    left = np.flatnonzero(departure > 1e-6)
    return "OSCILLATORY" if left.size and np.any(departure[left[0]:] < 1e-6) else "STATIONARY"


def near_the_floor(trajectory):
    """Whether the grid's own late signal is within 1e-12 of DECAY_FLOOR times the
    first, where the closed form and a scan may round to different sides."""
    signal = trajectory.p1 + trajectory.abs_c
    return abs(signal[len(trajectory) // 2] / signal[0] - lindblad.DECAY_FLOOR) <= 1e-12


class TestDampingPass:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        re=st.floats(0.01, 5.0),
        im=st.floats(-50.0, 50.0),
        points=st.integers(2, 4 * BLOCK + 1),
        dt=st.floats(1e-3, 0.5),
    )
    # |c0| just under 1e-6 turns away and back within the horizon, too slowly
    # damped to be DAMPED: the second pass called it OSCILLATORY
    @example(q=9e-7, re=0.05, im=5.0, points=2001, dt=1e-3)
    # |R_c|^2 > R_p1: both passes fail on the same point
    @example(q=0.5, re=1.0, im=2.0, points=21, dt=0.5)
    @example(q=0.5, re=1.0, im=0.0, points=101, dt=1e-3)
    def test_matches_the_two_pass_reference(self, q, re, im, points, dt):
        # a dissipative run keeps its verdict, or its error, except OSCILLATORY,
        # which only a rotation can now be
        def run():
            return lindblad.evolve_dissipative(TwoLevelState.from_q(q),
                                               DissipativeParams(complex(re, im)),
                                               (points - 1) * dt, dt)

        expected = outcome(lambda: two_pass_classify(run()))
        got = outcome(lambda: lindblad.classify(run()))
        assert got == ("STATIONARY" if expected == "OSCILLATORY" else expected) \
            or near_the_floor(run())


class TestClosedFormVerdict:
    @settings(max_examples=400, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        log_re=st.floats(-2.0, 6.0),
        im=st.just(0.0) | st.floats(-1e3, 1e3),
        steps=st.none() | st.integers(0, 4 * BLOCK),
        dt=st.none() | st.floats(1e-4, 0.5),
    )
    # |R_c|^2 > R_p1: the check fails on the same point for both
    @example(q=0.5, log_re=0.0, im=2.0, steps=20, dt=0.5)
    # the default grid at Re gamma 1200: 1001 points of 10 / 1200 / 1000
    @example(q=math.sqrt(0.75), log_re=math.log10(1200), im=0.0, steps=None, dt=None)
    @example(q=0.5, log_re=0.0, im=0.0, steps=100, dt=1e-3)
    def test_matches_the_scanned_verdict(self, q, log_re, im, steps, dt):
        # the verdict, or the same positivity error, as the scan gave on the grid
        gamma = complex(10.0**log_re, im)
        t_final = None if steps is None else steps * (dt or lindblad.DEFAULT_DT)

        def run():
            return lindblad._trajectory(q, gamma, HamiltonianParams(0, 2), t_final, dt)

        expected = outcome(lambda: scanned_damping(run()))
        assert outcome(lambda: lindblad.classify(run())) == expected or near_the_floor(run())
