import pytest
from conftest import random_instance

from chaossat import cnf, compiler, gates
from chaossat.cnf import CnfInstance
from chaossat.compiler import compute_layout


def closed_form_mu(instance):
    return sum(len(c) + (1 if len(c) == 1 else 0) for c in instance.clauses) - 2


class TestComputeLayout:
    def test_two_binary_clauses(self):
        inst = CnfInstance(2, ((1, 2), (-1, 2)))
        layout = compute_layout(inst)
        assert layout.s == (3, 4)
        assert layout.mu == 2
        assert layout.total == 5

    def test_two_unit_clauses(self):
        inst = CnfInstance(1, ((1,), (-1,)))
        layout = compute_layout(inst)
        assert layout.s == (2, 3)
        assert layout.mu == 2
        assert layout.total == 4
        assert layout.mu == closed_form_mu(inst)

    def test_three_binary_clauses(self):
        inst = CnfInstance(3, ((1, 2), (2, 3), (1, 3)))
        layout = compute_layout(inst)
        assert layout.s == (4, 5, 7)
        assert layout.mu == 4
        assert layout.total == 8

    def test_closed_form_agreement(self, rng):
        for _ in range(100):
            inst = random_instance(rng, max_vars=8, max_clauses=10)
            if inst.m < 2:
                continue
            assert compute_layout(inst).mu == closed_form_mu(inst)

    def test_single_clause(self):
        inst = CnfInstance(2, ((1, 2),))
        layout = compute_layout(inst)
        assert layout.mu == 1
        assert layout.total == 4


class TestCompileClause:
    def test_two_literal_clause_is_single_or(self):
        inst = CnfInstance(2, ((1, 2), (1, 2)))
        layout = compute_layout(inst)
        ops = compiler.compile_clause(inst, 0, layout)
        assert len(ops) == 1
        assert ops[0].kind == "OR"
        assert ops[0].wires == (1, 2, layout.s[0])

    def test_negated_unit_clause_is_conjugated_copy(self):
        inst = CnfInstance(1, ((-1,), (1,)))
        layout = compute_layout(inst)
        ops = compiler.compile_clause(inst, 0, layout)
        assert len(ops) == 1
        assert ops[0].kind == "COPY"
        assert ops[0].negate_controls == (True,)

    def test_three_literal_chain(self):
        inst = CnfInstance(3, ((1, 2, 3), (1, 2)))
        layout = compute_layout(inst)
        ops = compiler.compile_clause(inst, 0, layout)
        w = layout.s[0]
        assert [op.wires for op in ops] == [(1, 2, w), (3, w, w + 1)]


def basis_outputs_match_evaluate(instance):
    """Basis-state runs of the circuit minus its Hadamard block."""
    circuit = compiler.compile(instance)
    layout = circuit.layout
    assert circuit.sequence.ops[0].kind == "H_BLOCK"
    assert circuit.sequence.ops[-1].target == layout.total
    tail = gates.GateSequence(layout.total, circuit.sequence.ops[1:])
    for index in range(2**instance.n):
        bits = cnf.assignment_from_index(index, instance.n)
        padded = bits + (0,) * (layout.total - instance.n)
        out = gates.run_basis(tail, padded)
        if out[-1] != cnf.evaluate(instance, bits):
            return False
        if out[: instance.n] != bits:
            return False
    return True


class TestCompile:
    def test_single_clause_shape(self):
        inst = CnfInstance(2, ((1, 2),))
        circuit = compiler.compile(inst)
        kinds = [op.kind for op in circuit.sequence.ops]
        assert kinds == ["H_BLOCK", "OR", "COPY"]
        assert circuit.sequence.ops[-1].wires[-1] == circuit.layout.total

    def test_contradiction_always_zero(self):
        inst = CnfInstance(1, ((1,), (-1,)))
        assert basis_outputs_match_evaluate(inst)

    def test_two_clause_example(self):
        inst = CnfInstance(2, ((1, 2), (-1, 2)))
        assert basis_outputs_match_evaluate(inst)

    def test_tautological_pair_compiles_to_not(self):
        inst = CnfInstance(1, ((1, -1), (1,)))
        assert basis_outputs_match_evaluate(inst)

    def test_random_instances(self, rng):
        for _ in range(60):
            inst = random_instance(rng, max_vars=6, max_clauses=8)
            assert basis_outputs_match_evaluate(inst), cnf.render_dimacs(inst)

    def test_work_qubits_single_assignment(self, rng):
        # each dust/result qubit is targeted by exactly one truth-table gate
        for _ in range(40):
            inst = random_instance(rng, max_vars=6, max_clauses=8)
            circuit = compiler.compile(inst)
            targets = [
                op.target for op in circuit.sequence.ops if op.kind != "H_BLOCK"
            ]
            assert len(targets) == len(set(targets))
            assert all(t > inst.n for t in targets)
