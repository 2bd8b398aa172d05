import math

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
        state = simulator.init_state(3)
        assert np.array_equal(state.amps, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_one_qubit(self):
        assert np.array_equal(simulator.init_state(1).amps, [1, 0])

    def test_width_cap(self):
        with pytest.raises(WidthCapError):
            simulator.init_state(27)


class TestApply:
    def test_hadamard_on_zero(self):
        state = simulator.apply(
            simulator.init_state(1), GateSequence(1, (GateOp("H_BLOCK", (1,)),))
        )
        assert np.allclose(state.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_cn_flips_conditionally(self):
        # |10> has index 2 with qubit 1 as the most significant bit
        start = simulator.StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        state = simulator.apply(start, GateSequence(2, (GateOp("CN", (1, 2)),)))
        assert np.allclose(state.amps, [0, 0, 0, 1])

    def test_circuit_produces_uniform_truth_superposition(self):
        inst = CnfInstance(2, ((1, 2),))
        circuit = compiler.compile(inst)
        state = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        n, total = inst.n, circuit.layout.total
        nonzero = {
            index: amp for index, amp in enumerate(state.amps) if abs(amp) > 1e-12
        }
        assert len(nonzero) == 4
        for index, amp in nonzero.items():
            assert amp == pytest.approx(0.5)
            bits = cnf.assignment_from_index(index, total)
            assert bits[-1] == cnf.evaluate(inst, bits[:n])

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            simulator.apply(simulator.init_state(2), GateSequence(3, ()))

    def test_norm_preserved_per_gate(self, rng):
        inst = random_instance(rng, max_vars=6, max_clauses=8)
        circuit = compiler.compile(inst)
        state = simulator.init_state(circuit.layout)
        for op in circuit.sequence.ops:
            state = simulator.apply(
                state, GateSequence(circuit.layout.total, (op,))
            )
            assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


class TestSuccessProbability:
    def test_three_quarters(self):
        inst = CnfInstance(2, ((1, 2),))
        circuit = compiler.compile(inst)
        state = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        assert simulator.success_probability(state, circuit.layout) == pytest.approx(0.75)

    def test_unsat_is_zero(self):
        inst = CnfInstance(1, ((1,), (-1,)))
        circuit = compiler.compile(inst)
        state = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        assert simulator.success_probability(state, circuit.layout) < 1e-12

    def test_unit_clause_half(self):
        inst = CnfInstance(1, ((1,),))
        circuit = compiler.compile(inst)
        state = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        assert simulator.success_probability(state, circuit.layout) == pytest.approx(0.5)

    def test_matches_oracle(self, rng):
        for _ in range(30):
            inst = random_instance(rng, max_vars=6, max_clauses=8, max_total=18)
            circuit = compiler.compile(inst)
            state = simulator.apply(
                simulator.init_state(circuit.layout), circuit.sequence
            )
            probability = simulator.success_probability(state, circuit.layout)
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
    assume(compiler.compute_layout(instance).total <= max_width)
    return instance


def dense_probability(circuit):
    state = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
    return simulator.success_probability(state, circuit.layout)


class TestRowEngine:
    """simulator.row_probability against the dense engine, compared bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(instance=cnf_instances())
    def test_matches_dense_engine_and_oracle(self, instance):
        circuit = compiler.compile(instance)
        rows = simulator.row_probability(circuit.sequence)
        assert rows.hex() == dense_probability(circuit).hex()
        assert abs(rows - cnf.count_satisfying(instance) / 2**instance.n) < 1e-12

    def test_sum_order_does_not_move_the_last_digit(self):
        # numpy's pairwise sum of the odd half reads 0.6249999999999996 here;
        # the correctly rounded sum is the one both engines return
        inst = CnfInstance(6, ((1, 5), (3, 5)))
        assert cnf.count_satisfying(inst) == 40
        circuit = compiler.compile(inst)
        assert dense_probability(circuit) == 0.6249999999999994
        assert simulator.row_probability(circuit.sequence) == 0.6249999999999994

    @pytest.mark.parametrize(
        "seq, message",
        [
            (GateSequence(2, ()), "opens with an H_BLOCK"),
            (GateSequence(2, (GateOp("CN", (1, 2)), H1)), "opens with an H_BLOCK"),
            (GateSequence(2, (H1, GateOp("CN", (1, 2)), H1)), "one H_BLOCK"),
            (GateSequence(64, (H1,)), "63 bits"),
        ],
    )
    def test_refuses_what_is_not_a_block_then_permutations(self, seq, message):
        with pytest.raises(ValueError, match=message):
            simulator.row_probability(seq, cap=64)

    def test_width_cap(self):
        with pytest.raises(WidthCapError):
            simulator.row_probability(GateSequence(27, (H1,)))


class TestPostMeasure:
    def test_completeness(self):
        inst = CnfInstance(2, ((1, 2), (-1, 2)))
        circuit = compiler.compile(inst)
        state = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
        probability = simulator.success_probability(state, circuit.layout)
        pairs = state.amps.reshape(-1, 2)
        complement = float(np.sum(np.abs(pairs[:, 0]) ** 2))
        assert probability + complement == pytest.approx(1.0, abs=1e-10)


class TestGateTable:
    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    def test_dense_engine_matches_run_basis(self, kind):
        for op in ops_of_kind(kind):
            seq = GateSequence(4, (op,))
            for index in range(16):
                start = simulator.StateVector(4, np.eye(16)[index])
                bits = cnf.assignment_from_index(index, 4)
                image = gates.run_basis(seq, bits)
                once = simulator.apply(start, seq)
                assert once.amps[int("".join(map(str, image)), 2)] == 1
                assert np.count_nonzero(once.amps) == 1
                assert np.array_equal(simulator.apply(once, seq).amps, start.amps)
                assert gates.run_basis(seq, image) == bits


# the dense engine that simulator.apply replaced, which works on every
# amplitude through views of the register, kept as the reference
_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _halves(view, axis, fixed=()):
    index = [slice(None)] * view.ndim
    for fixed_axis, value in fixed:
        index[fixed_axis] = value
    index[axis] = slice(0, 1)
    half0 = view[tuple(index)]
    index[axis] = slice(1, 2)
    return half0, view[tuple(index)]


def reference_apply(state, seq):
    out = state.amps.copy()
    view = out.reshape((2,) * state.width)
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


# signed zeros are drawn often: the support is defined by bits, not by value
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
    return simulator.StateVector(width, amps)


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
    """simulator.apply against the dense reference, compared byte for byte."""

    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(state=states(4))
    def test_permutation_matches_reference(self, kind, state):
        for op in ops_of_kind(kind):
            seq = GateSequence(4, (op,))
            assert simulator.apply(state, seq).amps.tobytes() == reference_apply(state, seq).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5))
    def test_h_block_matches_reference(self, data, width):
        state = data.draw(states(width))
        wires = data.draw(st.lists(st.integers(1, width), min_size=1, unique=True))
        seq = GateSequence(width, (GateOp("H_BLOCK", tuple(wires)),))
        assert simulator.apply(state, seq).amps.tobytes() == reference_apply(state, seq).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(circuit=circuits(), data=st.data())
    def test_sequence_whole_and_split(self, circuit, data):
        state, seq = circuit
        expected = reference_apply(state, seq).tobytes()
        assert simulator.apply(state, seq).amps.tobytes() == expected
        k = data.draw(st.integers(0, len(seq.ops)))
        head = simulator.apply(state, GateSequence(seq.width, seq.ops[:k]))
        tail = simulator.apply(head, GateSequence(seq.width, seq.ops[k:]))
        assert tail.amps.tobytes() == expected
