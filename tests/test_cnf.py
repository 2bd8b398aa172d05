import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaossat import cnf
from chaossat.cnf import (
    BruteForceLimitError,
    Clause,
    CnfInstance,
    DimacsParseError,
    Literal,
)


def clause(*nums):
    return Clause(tuple(Literal(abs(v), v < 0) for v in nums))


class TestParseDimacs:
    def test_basic(self):
        inst = cnf.parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        assert inst.n == 2
        assert inst.clauses == (clause(1, 2), clause(-1))

    def test_minimal(self):
        inst = cnf.parse_dimacs("p cnf 1 1\n1 0\n")
        assert inst.n == 1
        assert inst.clauses == (clause(1),)

    def test_variable_out_of_bounds(self):
        with pytest.raises(DimacsParseError, match="line 2.*variable 3 exceeds n=2"):
            cnf.parse_dimacs("p cnf 2 1\n3 0\n")

    def test_comments_and_multiline_clauses(self):
        inst = cnf.parse_dimacs("c header comment\np cnf 3 1\n1 2\n-3 0\n")
        assert inst.clauses == (clause(1, 2, -3),)

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
        assert inst.clauses == (clause(1, -2, 3), clause(-1, 2))

    def test_clause_count_checked_before_trailer(self):
        with pytest.raises(DimacsParseError, match="declares 2 clauses, found 1"):
            cnf.parse_dimacs("p cnf 3 2\n1 -2 3 0\n%\n-1 2 0\n")

    def test_tautological_clause_accepted(self):
        inst = cnf.parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert cnf.count_satisfying(inst) == 2


class TestEvaluate:
    def test_single_clause(self):
        inst = CnfInstance(2, (clause(1, 2),))
        assert cnf.evaluate(inst, (0, 1)) == 1

    def test_contradiction(self):
        inst = CnfInstance(1, (clause(1), clause(-1)))
        assert cnf.evaluate(inst, (0,)) == 0
        assert cnf.evaluate(inst, (1,)) == 0

    def test_two_clauses(self):
        inst = CnfInstance(2, (clause(1, 2), clause(-1)))
        assert cnf.evaluate(inst, (0, 1)) == 1

    def test_length_mismatch(self):
        inst = CnfInstance(2, (clause(1),))
        with pytest.raises(ValueError):
            cnf.evaluate(inst, (0,))


class TestCountSatisfying:
    def test_single_or(self):
        assert cnf.count_satisfying(CnfInstance(2, (clause(1, 2),))) == 3

    def test_unsat(self):
        assert cnf.count_satisfying(CnfInstance(1, (clause(1), clause(-1)))) == 0

    def test_two_clause(self):
        inst = CnfInstance(2, (clause(1, 2), clause(-1, 2)))
        assert cnf.count_satisfying(inst) == 2

    def test_limit(self):
        inst = CnfInstance(25, (clause(1),))
        with pytest.raises(BruteForceLimitError):
            cnf.count_satisfying(inst)

    def test_matches_direct_sum(self, rng):
        from conftest import random_instance

        for _ in range(25):
            inst = random_instance(rng, max_vars=6, max_clauses=6)
            direct = sum(
                cnf.evaluate(inst, cnf.assignment_from_index(i, inst.n))
                for i in range(2**inst.n)
            )
            assert cnf.count_satisfying(inst) == direct


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    clauses = []
    for _ in range(m):
        pool = draw(
            st.lists(
                st.tuples(st.integers(1, n), st.booleans()),
                min_size=1, max_size=n, unique=True,
            )
        )
        # unique on (variable, negated) pairs only
        seen, lits = set(), []
        for v, neg in pool:
            if (v, neg) not in seen:
                seen.add((v, neg))
                lits.append(Literal(v, neg))
        clauses.append(Clause(tuple(lits)))
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
        lit = Literal(v, negated=bits[v - 1] == 0)
        if (lit.variable, lit.negated) not in {(l.variable, l.negated) for l in first.literals}:
            extended = Clause(first.literals + (lit,))
            grown = CnfInstance(inst.n, (extended,) + inst.clauses[1:])
            assert cnf.evaluate(grown, bits) >= before
            break
