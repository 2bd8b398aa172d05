import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaossat import cnf
from chaossat.cnf import BruteForceLimitError, CnfInstance, DimacsParseError


def direct_count(inst):
    """The model count from evaluate, one assignment at a time."""
    return sum(
        cnf.evaluate(inst, cnf.assignment_from_index(i, inst.n)) for i in range(2**inst.n)
    )


class TestParseDimacs:
    def test_basic(self):
        inst = cnf.parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        assert inst.n == 2
        assert inst.clauses == ((1, 2), (-1,))

    def test_minimal(self):
        inst = cnf.parse_dimacs("p cnf 1 1\n1 0\n")
        assert inst.n == 1
        assert inst.clauses == ((1,),)

    def test_variable_out_of_bounds(self):
        with pytest.raises(DimacsParseError, match="line 2.*variable 3 exceeds n=2"):
            cnf.parse_dimacs("p cnf 2 1\n3 0\n")

    def test_comments_and_multiline_clauses(self):
        inst = cnf.parse_dimacs("c header comment\np cnf 3 1\n1 2\n-3 0\n")
        assert inst.clauses == ((1, 2, -3),)

    def test_malformed_header(self):
        with pytest.raises(DimacsParseError, match="line 1"):
            cnf.parse_dimacs("p dnf 2 1\n1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsParseError, match="declares 2 clauses, found 1"):
            cnf.parse_dimacs("p cnf 2 2\n1 0\n")

    def test_empty_clause(self):
        with pytest.raises(DimacsParseError, match="empty clause"):
            cnf.parse_dimacs("p cnf 2 1\n0\n")

    def test_duplicate_literal_rejected(self):
        with pytest.raises(DimacsParseError, match="duplicate literal"):
            cnf.parse_dimacs("p cnf 2 1\n1 1 0\n")

    def test_satlib_trailer_ends_clause_data(self):
        inst = cnf.parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")
        assert inst.clauses == ((1, -2, 3), (-1, 2))

    def test_clause_count_checked_before_trailer(self):
        with pytest.raises(DimacsParseError, match="declares 2 clauses, found 1"):
            cnf.parse_dimacs("p cnf 3 2\n1 -2 3 0\n%\n-1 2 0\n")

    def test_tautological_clause_accepted(self):
        inst = cnf.parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert cnf.count_satisfying(inst) == 2


@pytest.mark.parametrize(
    "clause, error",
    [
        ((), "clause must contain at least one literal"),
        ((1, 0), "variable index must be >= 1, got 0"),
        ((1, -3), "variable 3 exceeds declared count 2"),
        ((2, -1, 2), "duplicate literal in clause (2, -1, 2)"),
        ((1, -1), None),
    ],
    ids=["empty", "zero", "beyond-n", "repeated", "tautology"],
)
def test_instance_checks_each_clause(clause, error):
    if error is None:
        assert CnfInstance(2, ((2,), clause)).clauses == ((2,), clause)
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            CnfInstance(2, ((2,), clause))


class TestEvaluate:
    def test_single_clause(self):
        inst = CnfInstance(2, ((1, 2),))
        assert cnf.evaluate(inst, (0, 1)) == 1

    def test_contradiction(self):
        inst = CnfInstance(1, ((1,), (-1,)))
        assert cnf.evaluate(inst, (0,)) == 0
        assert cnf.evaluate(inst, (1,)) == 0

    def test_two_clauses(self):
        inst = CnfInstance(2, ((1, 2), (-1,)))
        assert cnf.evaluate(inst, (0, 1)) == 1

    def test_length_mismatch(self):
        inst = CnfInstance(2, ((1,),))
        with pytest.raises(ValueError):
            cnf.evaluate(inst, (0,))


class TestCountSatisfying:
    def test_single_or(self):
        assert cnf.count_satisfying(CnfInstance(2, ((1, 2),))) == 3

    def test_unsat(self):
        assert cnf.count_satisfying(CnfInstance(1, ((1,), (-1,)))) == 0

    def test_two_clause(self):
        inst = CnfInstance(2, ((1, 2), (-1, 2)))
        assert cnf.count_satisfying(inst) == 2

    def test_limit(self):
        inst = CnfInstance(25, ((1,),))
        with pytest.raises(BruteForceLimitError):
            cnf.count_satisfying(inst)

    def test_matches_direct_sum(self, rng):
        from conftest import random_instance

        for _ in range(25):
            inst = random_instance(rng, max_vars=6, max_clauses=6)
            assert cnf.count_satisfying(inst) == direct_count(inst)


@st.composite
def instances(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, 5))
    clauses = []
    for _ in range(m):
        pool = draw(
            st.lists(
                st.tuples(st.integers(1, n), st.booleans()),
                min_size=1, max_size=n, unique=True,
            )
        )
        clauses.append(tuple(-v if negated else v for v, negated in pool))
    return CnfInstance(n, tuple(clauses))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_dimacs_round_trip(inst):
    assert cnf.parse_dimacs(cnf.render_dimacs(inst)) == inst


@settings(max_examples=50, deadline=None)
@given(instances(), st.integers(0, 2**5 - 1))
def test_adding_satisfied_literal_is_monotone(inst, idx):
    bits = cnf.assignment_from_index(idx % 2**inst.n, inst.n)
    before = cnf.evaluate(inst, bits)
    # extend the first clause with a literal made true by the assignment
    first = inst.clauses[0]
    for v in range(1, inst.n + 1):
        lit = v if bits[v - 1] else -v
        if lit not in first:
            grown = CnfInstance(inst.n, (first + (lit,),) + inst.clauses[1:])
            assert cnf.evaluate(grown, bits) >= before
            break


class TestPackedPlanes:
    """count_satisfying's packed planes against evaluate, one assignment at a time."""

    @settings(max_examples=150, deadline=None)
    @given(instances(max_n=10))
    def test_count_matches_evaluate(self, inst):
        # n < 6 is one partial word, n = 6 exactly one word
        assert cnf.count_satisfying(inst) == direct_count(inst)

    @settings(max_examples=100, deadline=None)
    @given(instances(min_n=7, max_n=10))
    def test_count_matches_evaluate_across_chunks(self, inst):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cnf, "_CHUNK_LOG2", 6)
            assert cnf.count_satisfying(inst) == direct_count(inst)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_low_planes_match_assignment_bits(self, n):
        words = max(1, 2**n // 64)
        for variable in range(1, n + 1):
            plane = cnf._plane(n - variable, words)
            packed = sum(int(word) << (64 * k) for k, word in enumerate(plane))
            for index in range(2**n):
                bit = cnf.assignment_from_index(index, n)[variable - 1]
                assert (packed >> index) & 1 == bit

    def test_count_at_the_limit_is_exact_int(self):
        # variables 1 and 2 are constant within each chunk, variable 24 is a plane
        inst = CnfInstance(24, ((1, -24), (-1, 2)))
        r = cnf.count_satisfying(inst)
        assert type(r) is int
        assert r == 2**23

    def test_memory_is_bounded(self):
        rng = random.Random(22)
        n, m = 22, 92
        inst = CnfInstance(n, tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(m)
        ))
        tracemalloc.start()
        try:
            cnf.count_satisfying(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(
        st.sampled_from(["p", "cnf", "c", "%", "0", "1", "-1", "2", "-3", "x", "", "\n", " "]),
        max_size=30,
    ).map(" ".join),
    st.lists(st.integers(-4, 4).map(str), max_size=20).map(
        lambda tokens: "p cnf 3 2\n" + " ".join(tokens)
    ),
))
def test_parse_dimacs_raises_only_parse_errors(text):
    try:
        cnf.parse_dimacs(text)
    except DimacsParseError:
        pass
