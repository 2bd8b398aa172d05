import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaossat import amplifier, simulator
from chaossat.amplifier import LogisticParams


class TestLogisticStep:
    def test_fixed_point_at_zero(self):
        assert amplifier.logistic_step(0.0) == 0.0

    def test_half(self):
        assert amplifier.logistic_step(0.5, 3.71) == pytest.approx(0.9275, abs=1e-15)

    def test_chained(self):
        x = amplifier.logistic_step(0.9275, 3.71)
        assert x == pytest.approx(0.2494743125, abs=1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            amplifier.logistic_step(1.5)
        with pytest.raises(ValueError):
            amplifier.logistic_step(0.5, a=4.5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 4.0))
    def test_range_preserved(self, x, a):
        assert 0.0 <= amplifier.logistic_step(x, a) <= 1.0


class TestLogisticParams:
    def test_step_count_is_bounded(self):
        assert LogisticParams(max_steps=10**6).max_steps == amplifier.MAX_STEPS
        for steps in (-1, 10**6 + 1):
            with pytest.raises(ValueError, match="max_steps"):
                LogisticParams(max_steps=steps)


class TestIterate:
    def test_zero_never_crosses(self):
        trajectory = amplifier.iterate(0.0, LogisticParams(max_steps=40))
        assert trajectory.xs == (0.0,) * 41
        assert trajectory.first_crossing is None

    def test_small_value_crosses_within_budget(self):
        trajectory = amplifier.iterate(2**-10, LogisticParams(max_steps=20))
        assert trajectory.first_crossing == 5  # frozen from direct iteration

    def test_one_crosses_immediately(self):
        trajectory = amplifier.iterate(1.0, LogisticParams(max_steps=4))
        assert trajectory.first_crossing == 0


class TestDecideSat:
    def test_above_threshold_immediately(self):
        decision, trajectory = amplifier.decide_sat(0.75, amplifier.params_for_instance(2))
        assert decision == "SAT"
        assert trajectory.first_crossing == 0

    def test_zero_is_unsat(self):
        decision, _ = amplifier.decide_sat(0.0, amplifier.params_for_instance(1))
        assert decision == "UNSAT"

    def test_small_probability_detected(self):
        # q^2 = 2^-10 crosses at step 5, well inside the 2n = 20 budget
        decision, trajectory = amplifier.decide_sat(
            2**-10, amplifier.params_for_instance(10)
        )
        assert decision == "SAT"
        assert trajectory.first_crossing == 5


class TestIterateOracle:
    def test_matches_double_precision(self):
        params = LogisticParams(max_steps=20)
        fast = amplifier.iterate(2**-10, params)
        exact = amplifier.iterate_oracle(Fraction(1, 1024), params, 128)
        assert exact.first_crossing == fast.first_crossing

    def test_zero(self):
        exact = amplifier.iterate_oracle(Fraction(0), LogisticParams(max_steps=10), 128)
        assert exact.xs == (0.0,) * 11

    def test_half_first_step_exact(self):
        exact = amplifier.iterate_oracle(Fraction(1, 2), LogisticParams(max_steps=1), 128)
        assert exact.xs[1] == 371 / 400

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            amplifier.iterate_oracle(Fraction(1, 2), LogisticParams(max_steps=40), 100)

    @pytest.mark.parametrize("q2", [math.nan, math.inf, -math.inf, -0.25, 1.5, Fraction(3, 2)])
    def test_q2_outside_unit_interval(self, q2):
        with pytest.raises(ValueError, match=r"q\^2 must lie in \[0, 1\]"):
            amplifier.iterate_oracle(q2, LogisticParams(max_steps=2), 128)

    def test_needs_no_mpmath(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)  # any import of it now fails
        exact = amplifier.iterate_oracle(Fraction(1, 1024), amplifier.params_for_instance(10), 128)
        assert exact.first_crossing == 5

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_iterates_keep_the_error_bound(self, data):
        # against the exact rational iteration, at the precision floor 64 + 2 steps
        n = data.draw(st.integers(1, 24), label="n")
        r = data.draw(st.integers(1, 2**n), label="r")
        steps = data.draw(st.integers(0, 6), label="steps")
        a = data.draw(st.one_of(st.just(amplifier.DEFAULT_A), st.floats(0.0, 4.0)), label="a")
        bits = 64 + 2 * steps
        exact_a = Fraction(371, 100) if a == amplifier.DEFAULT_A else Fraction(a)
        q2, half = Fraction(r, 2**n), Fraction(1, 2)
        ints = [x for _, x in zip(range(steps + 1), amplifier.integer_iterates(q2, exact_a, bits))]
        x, crossing, near = q2, None, False
        for k, x_int in enumerate(ints):
            bound = (k + 1) * max(1, exact_a) ** k / 2**bits
            assert abs(x - Fraction(x_int, 2**bits)) <= bound, k
            near |= abs(x - half) <= bound
            if crossing is None and x > half:
                crossing = k
            x = exact_a * x * (1 - x)
        trajectory = amplifier.iterate_oracle(q2, LogisticParams(a, steps), bits)
        assert trajectory.xs == tuple(x_int / 2**bits for x_int in ints)
        if not near:  # no exact iterate within the bound of 1/2: the crossing is certain
            assert trajectory.first_crossing == crossing


def first_crossing(r, n, a, steps):
    """The first m <= steps with X_m > 2^bits / 2 on integer_iterates from r / 2^n, or None."""
    bits = 64 + 2 * steps
    iterates = amplifier.integer_iterates(Fraction(r, 2**n), a, bits)
    return next((m for m, x in zip(range(steps + 1), iterates) if 2 * x > 1 << bits), None)


def assert_in_window(r, n, a):
    """For x <= 1/2, (a/2) x <= a x (1 - x) <= a x, so the first crossing m has
    a^m x0 > 1/2 and, past step 0, (a/2)^(m-1) x0 <= 1/2: checked in integers."""
    num, den = a.numerator, a.denominator
    enough = 0  # the paper's m0: the fewest steps with (a/2)^m0 x0 > 1/2
    while 2 * r * num**enough <= 2**n * (2 * den) ** enough:
        enough += 1
    m = first_crossing(r, n, a, enough)
    assert m is not None, (r, n, a)
    assert 2 * r * num**m > 2**n * den**m, (r, n, a, m)
    assert m == 0 or 2 * r * num ** (m - 1) <= 2**n * (2 * den) ** (m - 1), (r, n, a, m)


class TestStepWindow:
    def test_default_map_for_every_width(self):
        # r = 2^n starts above 1/2 (m = 0), r = 2^(n-1) exactly on it
        a = Fraction(371, 100)
        for n in range(1, 25):
            sampled = random.Random(n).sample(range(1, 2**n + 1), min(2**n, 20))
            for r in {r for r in (1, 2, 3, 2 ** (n - 1), 2**n, *sampled) if r <= 2**n}:
                assert_in_window(r, n, a)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_rational_map_above_two(self, data):
        den = data.draw(st.integers(1, 100), label="den")
        a = Fraction(data.draw(st.integers(2 * den + 1, 4 * den), label="num"), den)
        n = data.draw(st.integers(1, 24), label="n")
        assert_in_window(data.draw(st.integers(1, 2**n), label="r"), n, a)


class TestSweeps:
    def test_crossing_for_every_width(self):
        # smallest nonzero probability at each register size, 2n step budget
        for n in range(1, 21):
            params = amplifier.params_for_instance(n)
            fast = amplifier.iterate(2.0**-n, params)
            assert fast.first_crossing is not None, n
            exact = amplifier.iterate_oracle(
                Fraction(1, 2**n), params, 64 + 4 * n
            )
            assert exact.first_crossing == fast.first_crossing, n

    def test_unsat_side_is_exact(self):
        for n in range(1, 21):
            trajectory = amplifier.iterate(0.0, amplifier.params_for_instance(n))
            assert trajectory.first_crossing is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_float_and_exact_iterates_cross_at_the_same_step(self, data):
        # q^2 = r/2^n, and the r |a|^2 that the row engine returns for it
        n = data.draw(st.integers(1, 24), label="n")
        r = data.draw(st.integers(1, 2**n), label="r")
        params = amplifier.params_for_instance(n)
        bits = 64 + 2 * params.max_steps
        a = 1.0
        for _ in range(n):  # the Hadamard block's amplitude, as row_probability forms it
            a *= simulator._SQRT1_2
        for fast, exact in ((r / 2**n, Fraction(r, 2**n)), (r * (a * a), r * (a * a))):
            crossing = amplifier.iterate_oracle(exact, params, bits).first_crossing
            assert crossing is not None
            assert amplifier.iterate(fast, params).first_crossing == crossing
