import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import PERMUTATION_KINDS, ops_of_kind, random_instance
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaossat import cnf, compiler, gates, simulator
from chaossat.cnf import CnfInstance
from chaossat.gates import GateOp, GateSequence
from chaossat.simulator import WidthCapError

H1 = GateOp("H_BLOCK", (1,))


class TestInitState:
    def test_three_qubits(self):
        amps = simulator.init_state(3)
        assert amps.dtype == np.complex128
        assert np.array_equal(amps, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_one_qubit(self):
        assert np.array_equal(simulator.init_state(1), [1, 0])

    def test_width_cap(self):
        with pytest.raises(WidthCapError):
            simulator.init_state(27)


class TestApply:
    def test_hadamard_on_zero(self):
        amps = simulator.apply(
            simulator.init_state(1), GateSequence(1, (GateOp("H_BLOCK", (1,)),))
        )
        assert np.allclose(amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_cn_flips_conditionally(self):
        # |10> has index 2 with qubit 1 as the most significant bit
        start = np.array([0, 0, 1, 0], dtype=complex)
        amps = simulator.apply(start, GateSequence(2, (GateOp("CN", (1, 2)),)))
        assert np.allclose(amps, [0, 0, 0, 1])
        assert np.array_equal(start, [0, 0, 1, 0])  # a new array: the input is not touched

    def test_circuit_produces_uniform_truth_superposition(self):
        inst = CnfInstance(2, ((1, 2),))
        circuit = compiler.compile(inst)
        amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        n, total = inst.n, circuit.layout.total
        nonzero = {
            index: amp for index, amp in enumerate(amps) if abs(amp) > 1e-12
        }
        assert len(nonzero) == 4
        for index, amp in nonzero.items():
            assert amp == pytest.approx(0.5)
            bits = cnf.assignment_from_index(index, total)
            assert bits[-1] == cnf.evaluate(inst, bits[:n])

    def test_width_mismatch(self):
        # the array's length is the one shape rule: 2**seq.width amplitudes
        with pytest.raises(ValueError, match=r"^expected 8 amplitudes, got shape \(4,\)$"):
            simulator.apply(simulator.init_state(2), GateSequence(3, ()))
        with pytest.raises(ValueError, match=r"^expected 4 amplitudes, got shape \(2, 2\)$"):
            simulator.apply(np.eye(2), GateSequence(2, ()))

    def test_norm_preserved_per_gate(self, rng):
        inst = random_instance(rng, max_vars=6, max_clauses=8)
        circuit = compiler.compile(inst)
        amps = simulator.init_state(circuit.layout)
        for op in circuit.sequence.ops:
            amps = simulator.apply(
                amps, GateSequence(circuit.layout.total, (op,))
            )
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


class TestSuccessProbability:
    def test_three_quarters(self):
        inst = CnfInstance(2, ((1, 2),))
        circuit = compiler.compile(inst)
        amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        assert simulator.success_probability(amps, circuit.layout) == pytest.approx(0.75)

    def test_unsat_is_zero(self):
        inst = CnfInstance(1, ((1,), (-1,)))
        circuit = compiler.compile(inst)
        amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        assert simulator.success_probability(amps, circuit.layout) < 1e-12

    def test_unit_clause_half(self):
        inst = CnfInstance(1, ((1,),))
        circuit = compiler.compile(inst)
        amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        assert simulator.success_probability(amps, circuit.layout) == pytest.approx(0.5)

    def test_length_must_match_the_layout(self):
        # the array's length is the one shape rule: 2**layout.total amplitudes
        layout = compiler.compile(CnfInstance(1, ((1,),))).layout
        with pytest.raises(ValueError, match=rf"^expected {2**layout.total} amplitudes, "
                                             r"got shape \(4,\)$"):
            simulator.success_probability(simulator.init_state(2), layout)

    def test_matches_oracle(self, rng):
        for _ in range(30):
            inst = random_instance(rng, max_vars=6, max_clauses=8, max_total=18)
            circuit = compiler.compile(inst)
            amps = simulator.apply(
                simulator.init_state(circuit.layout), circuit.sequence
            )
            probability = simulator.success_probability(amps, circuit.layout)
            expected = cnf.count_satisfying(inst) / 2**inst.n
            assert probability == pytest.approx(expected, abs=1e-10)


@st.composite
def cnf_clauses(draw, n):
    # mixed signs (which may put x and -x in one clause) or all negated
    signs = draw(st.sampled_from((st.sampled_from((1, -1)), st.just(-1))))
    literal = st.builds(lambda v, sign: sign * v, st.integers(1, n), signs)
    return tuple(draw(st.lists(literal, min_size=1, max_size=3, unique=True)))


@st.composite
def cnf_instances(draw, max_width=18):
    n = draw(st.integers(1, 8))
    instance = CnfInstance(n, tuple(draw(st.lists(cnf_clauses(n), min_size=1, max_size=4))))
    assume(compiler.compile(instance).layout.total <= max_width)
    return instance


def dense_probability(circuit):
    amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
    return simulator.success_probability(amps, circuit.layout)


def basis_count(circuit):
    """r from gates.run_basis over all 2^n inputs, work wires at 0."""
    layout = circuit.layout
    tail = GateSequence(layout.total, circuit.sequence.ops[1:])
    work = (0,) * (layout.total - layout.n)
    return sum(
        gates.run_basis(tail, cnf.assignment_from_index(index, layout.n) + work)[-1]
        for index in range(2**layout.n)
    )


def truth_table_count(instance):
    """r from truth tables held as Python ints: bit i of a table is its value at index i."""
    n = instance.n
    full = (1 << 2**n) - 1
    sat = full
    for clause in instance.clauses:
        value = 0
        for lit in clause:
            # variable v is bit n - v of the index
            plane = sum(1 << i for i in range(2**n) if i >> (n - abs(lit)) & 1)
            value |= plane if lit > 0 else full ^ plane
        sat &= value
    return sat.bit_count()


class TestRowEngine:
    """simulator.row_probability against the dense engine, compared bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(instance=cnf_instances())
    def test_matches_dense_engine_and_oracle(self, instance):
        circuit = compiler.compile(instance)
        probability, r = simulator.row_probability(circuit.sequence)
        assert probability.hex() == dense_probability(circuit).hex()
        assert abs(probability - cnf.count_satisfying(instance) / 2**instance.n) < 1e-12
        assert r == cnf.count_satisfying(instance) == basis_count(circuit)
        assert r == truth_table_count(instance)
        with pytest.MonkeyPatch.context() as mp:
            # runs of 8 assignments: variables 1 .. n - 3 are the oracle array's axes
            mp.setattr(cnf, "_RUN_LOG2", 3)
            assert r == cnf.count_satisfying(instance)

    def test_sum_order_does_not_move_the_last_digit(self):
        # numpy's pairwise sum of the odd half reads 0.6249999999999996 here;
        # the correctly rounded sum is the one both engines return
        inst = CnfInstance(6, ((1, 5), (3, 5)))
        assert cnf.count_satisfying(inst) == 40
        circuit = compiler.compile(inst)
        assert dense_probability(circuit) == 0.6249999999999994
        assert simulator.row_probability(circuit.sequence) == (0.6249999999999994, 40)

    def test_answers_past_63_wires(self):
        # 3-SAT at n = 8, m = 24 compiles to 79 wires, more than an int64 row index holds
        for seed in range(5):
            rng = random.Random(seed)
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3))
                for _ in range(24)
            )
            instance = CnfInstance(8, clauses)
            circuit = compiler.compile(instance)
            assert circuit.layout.total == 79
            _, r = simulator.row_probability(circuit.sequence)
            assert r == cnf.count_satisfying(instance)

    @pytest.mark.parametrize(
        "seq, message",
        [
            (GateSequence(2, ()), "opens with an H_BLOCK"),
            (GateSequence(2, (GateOp("CN", (1, 2)), H1)), "opens with an H_BLOCK"),
            (GateSequence(2, (H1, GateOp("CN", (1, 2)), H1)), "one H_BLOCK"),
        ],
    )
    def test_refuses_what_is_not_a_block_then_permutations(self, seq, message):
        with pytest.raises(ValueError, match=message):
            simulator.row_probability(seq)

    def test_plane_bound(self, monkeypatch):
        # the default admits the widest circuit the old 26-wire cap did, at n = 24
        assert simulator.MAX_PLANE_BITS == 26 * 2**24
        block = GateOp("H_BLOCK", (1, 2))
        monkeypatch.setattr(simulator, "MAX_PLANE_BITS", 5 * 2**2)
        assert simulator.row_probability(GateSequence(5, (block,))) == (0.0, 0)
        with pytest.raises(WidthCapError, match="width 6 at 4 rows exceeds 20 plane bits"):
            simulator.row_probability(GateSequence(6, (block,)))

    def test_refuses_width_27_at_n_24_before_building_a_plane(self):
        seq = GateSequence(27, (GateOp("H_BLOCK", tuple(range(1, 25))),))
        tracemalloc.start()
        try:
            with pytest.raises(WidthCapError):
                simulator.row_probability(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one plane alone would take 2 MiB


class TestPostMeasure:
    def test_completeness(self):
        inst = CnfInstance(2, ((1, 2), (-1, 2)))
        circuit = compiler.compile(inst)
        amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        probability = simulator.success_probability(amps, circuit.layout)
        pairs = amps.reshape(-1, 2)
        complement = float(np.sum(np.abs(pairs[:, 0]) ** 2))
        assert probability + complement == pytest.approx(1.0, abs=1e-10)


class TestGateTable:
    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    def test_dense_engine_matches_run_basis(self, kind):
        for op in ops_of_kind(kind):
            seq = GateSequence(4, (op,))
            for index in range(16):
                start = np.eye(16)[index]
                bits = cnf.assignment_from_index(index, 4)
                image = gates.run_basis(seq, bits)
                once = simulator.apply(start, seq)
                assert once[int("".join(map(str, image)), 2)] == 1
                assert np.count_nonzero(once) == 1
                assert np.array_equal(simulator.apply(once, seq), start)
                assert gates.run_basis(seq, image) == bits


# the dense engine's whole-register passes, written out on their own and
# kept as the reference that simulator.apply must match byte for byte
_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _halves(view, axis, fixed=()):
    index = [slice(None)] * view.ndim
    for fixed_axis, value in fixed:
        index[fixed_axis] = value
    index[axis] = slice(0, 1)
    half0 = view[tuple(index)]
    index[axis] = slice(1, 2)
    return half0, view[tuple(index)]


def reference_apply(amps, seq):
    out = amps.copy()
    view = out.reshape((2,) * seq.width)
    for op in seq.ops:
        if op.kind == "H_BLOCK":
            for wire in op.wires:
                a0, a1 = _halves(view, wire - 1)
                a0c = a0.copy()
                np.multiply(a0c + a1, _SQRT1_2, out=a0)
                np.multiply(a0c - a1, _SQRT1_2, out=a1)
            continue
        controls = [w - 1 for w in op.controls]
        for pattern in op.flip_patterns():
            h0, h1 = _halves(view, op.target - 1, zip(controls, pattern))
            tmp = h0.copy()
            h0[...] = h1
            h1[...] = tmp
    return out


# signed zeros are drawn often: a pass must keep the sign of every zero
PARTS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-2.0, 2.0))


@st.composite
def states(draw, width):
    size = 2**width
    support = draw(st.one_of(
        st.just(()),
        st.integers(0, size - 1).map(lambda index: (index,)),
        st.lists(st.integers(0, size - 1), unique=True),
        st.just(range(size)),
    ))
    amps = np.zeros(size, dtype=np.complex128)
    for index in support:
        amps[index] = complex(draw(PARTS), draw(PARTS))
    return amps


@st.composite
def gate_ops(draw, width):
    kind = draw(st.sampled_from(
        [kind for kind, (arity, _) in gates.SEMANTICS.items() if (arity or 1) <= width]
    ))
    if kind == "H_BLOCK":
        return GateOp(kind, tuple(draw(st.lists(st.integers(1, width), min_size=1, unique=True))))
    arity = gates.SEMANTICS[kind][0]
    wires = draw(st.lists(st.integers(1, width), min_size=arity, max_size=arity, unique=True))
    target = max(wires)  # controls may come in any order, but before the target
    wires = [wire for wire in wires if wire != target] + [target]
    flags = draw(st.lists(st.booleans(), min_size=arity - 1, max_size=arity - 1))
    return GateOp(kind, tuple(wires), tuple(flags))


@st.composite
def circuits(draw):
    width = draw(st.integers(1, 5))
    ops = tuple(draw(st.lists(gate_ops(width), max_size=8)))
    return draw(states(width)), GateSequence(width, ops)


class TestSupportEngine:
    """simulator.apply against the dense reference, compared byte for byte.

    The class name is historical and kept so that the test IDs stay stable.
    """

    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(amps=states(4))
    def test_permutation_matches_reference(self, kind, amps):
        for op in ops_of_kind(kind):
            seq = GateSequence(4, (op,))
            assert simulator.apply(amps, seq).tobytes() == reference_apply(amps, seq).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5))
    def test_h_block_matches_reference(self, data, width):
        amps = data.draw(states(width))
        wires = data.draw(st.lists(st.integers(1, width), min_size=1, unique=True))
        seq = GateSequence(width, (GateOp("H_BLOCK", tuple(wires)),))
        assert simulator.apply(amps, seq).tobytes() == reference_apply(amps, seq).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(circuit=circuits(), data=st.data())
    def test_sequence_whole_and_split(self, circuit, data):
        amps, seq = circuit
        expected = reference_apply(amps, seq).tobytes()
        assert simulator.apply(amps, seq).tobytes() == expected
        k = data.draw(st.integers(0, len(seq.ops)))
        head = simulator.apply(amps, GateSequence(seq.width, seq.ops[:k]))
        tail = simulator.apply(head, GateSequence(seq.width, seq.ops[k:]))
        assert tail.tobytes() == expected
