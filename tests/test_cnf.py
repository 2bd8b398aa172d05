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
        with pytest.raises(DimacsParseError, match="line 2: variable 3 exceeds declared count 2"):
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
        with pytest.raises(DimacsParseError,
                           match="line 2: clause must contain at least one literal"):
            cnf.parse_dimacs("p cnf 2 1\n0\n")

    def test_duplicate_literal_rejected(self):
        with pytest.raises(DimacsParseError,
                           match=re.escape("line 2: duplicate literal in clause (1, 1)")):
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

    @pytest.mark.parametrize("text, n, clauses, header", [
        ("p cnf 0 1\n1 0\n", 0, ((1,),), 1),
        ("c no clauses\np cnf 2 0\n", 2, (), 2),
    ], ids=["n-below-1", "no-clause"])
    def test_rules_on_n_and_m_name_the_header_line(self, text, n, clauses, header):
        # CnfInstance's own text, after the line of the header
        with pytest.raises(ValueError) as api:
            CnfInstance(n, clauses)
        with pytest.raises(DimacsParseError) as parsed:
            cnf.parse_dimacs(text)
        assert str(parsed.value) == f"line {header}: {api.value}"

    @pytest.mark.parametrize("data, line, byte", [
        (b"p cnf 2 1\n1 \xff 2 0\n", 2, 0xFF),
        (b"p cnf 2 1\r1 2 0\r\xc3(\n", 3, 0xC3),
        (b"c caf\xc3\xa9\r\np cnf 1 1\n\xe9", 3, 0xE9),
        (b"\x80", 1, 0x80),
    ], ids=["lf", "cr", "crlf-after-utf8", "first-byte"])
    def test_non_utf8_byte_names_its_line(self, data, line, byte):
        with pytest.raises(DimacsParseError) as parsed:
            cnf.parse_dimacs(data)
        assert str(parsed.value) == f"line {line}: invalid UTF-8 byte 0x{byte:02x}"

    @pytest.mark.parametrize("text, error", [
        ("p cnf 2 1\n1 x 0\n", "line 2: non-integer token 'x'"),
        ("p cnf 2 1\n+1 2 0\n", "line 2: non-integer token '+1'"),
        ("p cnf 10 1\n1_0 0\n", "line 2: non-integer token '1_0'"),
        ("p cnf 2 1\n\u0661 2 0\n", "line 2: non-integer token '\u0661'"),
        ("p cnf 2 1\n" + "1" * 4301 + " 0\n", f"line 2: non-integer token {'1' * 4301!r}"),
        ("p cnf 1_0 1\n1 0\n", "line 1: non-integer header fields in 'p cnf 1_0 1'"),
        ("p cnf 2 +1\n1 0\n", "line 1: non-integer header fields in 'p cnf 2 +1'"),
    ], ids=["letter", "plus", "underscore", "arabic-indic", "past-int-digit-limit",
            "header-underscore", "header-plus"])
    def test_integers_are_ascii_digits(self, text, error):
        # int() alone takes +1, 1_0 and non-ASCII digits; DIMACS integers are -?[0-9]+
        with pytest.raises(DimacsParseError) as parsed:
            cnf.parse_dimacs(text)
        assert str(parsed.value) == error

    def test_bytes_parse_as_their_text(self):
        text = "c caf\u00e9\r\np cnf 3 2\r1 -2\n3 0\n-1 2 0\n%\n0\n"
        assert cnf.parse_dimacs(text.encode()) == cnf.parse_dimacs(text)


@pytest.mark.parametrize(
    "clauses, dimacs, error",
    [
        (((2,), ()), "p cnf 2 2\n2 0\n0\n", "clause must contain at least one literal"),
        # a 0 ends a DIMACS clause, so no file holds this one
        (((2,), (1, 0)), None, "variable index must be >= 1, got 0"),
        (((2,), (1, -3)), "p cnf 2 2\n2 0\n1 -3 0\n", "variable 3 exceeds declared count 2"),
        (((2,), (2, -1, 2)), "p cnf 2 2\n2 0\n2 -1 2 0\n",
         "duplicate literal in clause (2, -1, 2)"),
        (((1, 1),), "p cnf 2 1\n1\n1 0\n", "duplicate literal in clause (1, 1)"),
        (((2,), (1, -1)), "p cnf 2 2\n2 0\n1 -1 0\n", None),
    ],
    ids=["empty", "zero", "beyond-n", "repeated", "repeated-across-lines", "tautology"],
)
def test_instance_checks_each_clause(clauses, dimacs, error):
    if error is None:
        assert CnfInstance(2, clauses).clauses == clauses
        assert cnf.parse_dimacs(dimacs) == CnfInstance(2, clauses)
        return
    with pytest.raises(ValueError, match=re.escape(error)) as api:
        CnfInstance(2, clauses)
    assert str(api.value) == error
    if dimacs is not None:
        # the file gets the same text, at the line of the clause's 0: here its last line
        with pytest.raises(DimacsParseError) as parsed:
            cnf.parse_dimacs(dimacs)
        assert str(parsed.value) == f"line {len(dimacs.splitlines())}: {error}"


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
@given(st.one_of(instances(), instances(min_n=6, max_n=40)))
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
    """count_satisfying's packed runs against evaluate, one assignment at a time."""

    @settings(max_examples=150, deadline=None)
    @given(instances(max_n=10))
    def test_count_matches_evaluate(self, inst):
        # one run: n < 6 is one partial word, n = 6 exactly one word
        assert cnf.count_satisfying(inst) == direct_count(inst)

    @settings(max_examples=100, deadline=None)
    @given(instances(min_n=7, max_n=12))
    def test_count_matches_evaluate_across_chunks(self, inst):
        # variables 1 .. n - 6 are axes, so clauses apply to subcubes over several axes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cnf, "_RUN_LOG2", 6)
            assert cnf.count_satisfying(inst) == direct_count(inst)

    @pytest.mark.parametrize(
        "clauses",
        [
            ((1, -1, 8), (2, -3)),
            ((-2, 1, 2), (1, -1)),
            ((1, -2),),
            ((1, 2), (-1, -2), (2, 7)),
            ((5, -6, 7, 8), (3, -3), (-8,)),
            ((1, 2), (-1, 3, 7), (4, -8), (-2, -1, 5)),
        ],
        ids=[
            "tautology-high", "only-tautologies", "only-high", "high-and-mixed", "only-low",
            "all-kinds",
        ],
    )
    def test_hand_written_subcubes(self, clauses):
        # n = 8 over runs of 2**6: variables 1 and 2 are axes, 3 .. 8 are planes
        inst = CnfInstance(8, clauses)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cnf, "_RUN_LOG2", 6)
            assert cnf.count_satisfying(inst) == direct_count(inst)

    @pytest.mark.parametrize(
        "n", [5, 6, cnf._RUN_LOG2 + 1], ids=["below-one-word", "one-word", "one-axis"]
    )
    def test_run_boundaries(self, n):
        # at n = _RUN_LOG2 + 1 variable 1 is the only axis
        inst = CnfInstance(n, ((1, -n), (-1, 2, n - 1), (1, -1, 3), (-2, n - 2, -3), (-1,)))
        assert cnf.count_satisfying(inst) == direct_count(inst)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_low_planes_match_assignment_bits(self, n):
        # the run table for low = n: rows 0 .. n - 1 are index bits, then a zero row,
        # then the complements
        table = cnf._run_table(n)
        assert not table.flags.writeable
        assert not table[n].any()
        for variable in range(1, n + 1):
            s = n - variable
            plane, complement = (
                sum(int(word) << (64 * k) for k, word in enumerate(row))
                for row in (table[s], table[n + 1 + s])
            )
            for index in range(2**n):
                bit = cnf.assignment_from_index(index, n)[variable - 1]
                assert (plane >> index) & 1 == bit
                assert (complement >> index) & 1 == 1 - bit

    def test_count_at_the_limit_is_exact_int(self):
        # variables 1 .. 10 are axes of the array of runs, variable 24 is a plane
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

    def test_memory_does_not_grow_with_m(self):
        # 2000 clauses at n = 24: the 2 MiB array plus one batch of runs
        rng = random.Random(23)
        n, m = 24, 2000
        inst = CnfInstance(n, tuple(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, 12))
            )
            for _ in range(m)
        ))
        tracemalloc.start()
        try:
            cnf.count_satisfying(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_popcount_makes_no_copy_of_the_whole_array(self):
        # the 2 MiB array at n = 24 is counted in 128 KiB slices; a whole
        # copy as bytes plus one as an int would take the peak past 4 MiB
        inst = CnfInstance(24, ((1, -24), (-1, 2)))
        tracemalloc.start()
        try:
            r = cnf.count_satisfying(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == 2**23
        assert peak < 3 * 2**20


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(),
    st.binary(),
    st.lists(
        st.sampled_from(["p", "cnf", "c", "%", "0", "1", "-1", "2", "-3", "x", "", "\n", " ",
                         "+1", "1_0", "\u0661"]),
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
