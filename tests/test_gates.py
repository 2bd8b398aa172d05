import pytest
from itertools import product

from conftest import PERMUTATION_KINDS, ops_of_kind

from chaossat import gates
from chaossat.gates import GateOp, GateSequence


def apply_one(op, bits):
    """A single gate on a register exactly as wide as bits, through run_basis."""
    return gates.run_basis(GateSequence(len(bits), (op,)), bits)


class TestGateSemantics:
    def test_and_writes_conjunction(self):
        op = GateOp("AND", (1, 2, 3))
        assert apply_one(op, (1, 1, 0)) == (1, 1, 1)

    def test_or_on_zeros(self):
        op = GateOp("OR", (1, 2, 3))
        assert apply_one(op, (0, 0, 0)) == (0, 0, 0)

    def test_not_flips(self):
        assert apply_one(GateOp("NOT", (2,)), (0, 1, 0)) == (0, 0, 0)

    def test_copy(self):
        assert apply_one(GateOp("COPY", (1, 2)), (1, 0)) == (1, 1)

    def test_cn_with_negated_control(self):
        op = GateOp("CN", (1, 2), (True,))
        assert apply_one(op, (0, 0)) == (0, 1)
        assert apply_one(op, (1, 0)) == (1, 0)

    def test_or_with_negated_controls_matches_not_conjugation(self):
        plain = GateOp("OR", (1, 2, 3))
        negated = GateOp("OR", (1, 2, 3), (True, False))
        for bits in product((0, 1), repeat=3):
            flipped = (1 - bits[0],) + bits[1:]
            via_nots = apply_one(plain, flipped)
            via_nots = (1 - via_nots[0],) + via_nots[1:]
            assert apply_one(negated, bits) == via_nots

    def test_flip_patterns_apply_negation_flags(self):
        op = GateOp("OR", (1, 2, 3), (True, False))
        assert op.flip_patterns() == ((1, 1), (0, 0), (0, 1))
        assert GateOp("NOT", (1,)).flip_patterns() == ((),)

    def test_h_block_has_no_basis_semantics(self):
        with pytest.raises(ValueError):
            apply_one(GateOp("H_BLOCK", (1,)), (0,))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            apply_one(GateOp("CN", (1, 3)), (0, 0))


class TestGateValidity:
    def test_duplicate_wires_rejected(self):
        with pytest.raises(ValueError):
            GateOp("OR", (1, 1, 2))

    def test_control_after_target_rejected(self):
        with pytest.raises(ValueError):
            GateOp("AND", (1, 3, 2))

    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    def test_logical_gates_are_involutions(self, kind):
        for op in ops_of_kind(kind):
            for bits in product((0, 1), repeat=4):
                once = apply_one(op, bits)
                assert apply_one(op, once) == bits


class TestEmbeddingIdentities:
    def test_or_as_elementary_gates(self):
        composite = GateSequence(4, (
            GateOp("CN", (1, 4)),
            GateOp("CN", (2, 4)),
            GateOp("CCN", (1, 2, 4)),
        ))
        direct = GateSequence(4, (GateOp("OR", (1, 2, 4)),))
        for bits in product((0, 1), repeat=4):
            assert gates.run_basis(composite, bits) == gates.run_basis(direct, bits)

    def test_and_is_ccn(self):
        for bits in product((0, 1), repeat=3):
            assert apply_one(GateOp("AND", (1, 2, 3)), bits) == \
                apply_one(GateOp("CCN", (1, 2, 3)), bits)

    def test_copy_is_cn(self):
        for bits in product((0, 1), repeat=2):
            assert apply_one(GateOp("COPY", (1, 2)), bits) == \
                apply_one(GateOp("CN", (1, 2)), bits)
