from conftest import random_instance

from chaossat import cnf, compiler, gates
from chaossat.cnf import CnfInstance


def work_wires(clause):
    return max(len(clause) - 1, 1)


def closed_form_starts(instance):
    """s_k = n + 1 + sum over j < k of max(|c_j| - 1, 1) + max(k - 1, 0) gap wires."""
    clauses = instance.clauses
    return tuple(
        instance.n + 1 + sum(map(work_wires, clauses[:k])) + max(k - 1, 0)
        for k in range(len(clauses))
    )


def closed_form_mu(instance):
    return sum(map(work_wires, instance.clauses)) + max(instance.m - 2, 0)


def layout_of(instance):
    return compiler.compile(instance).layout


def clause_fragments(instance):
    """The clause gates of the compiled circuit, grouped by the work region they target."""
    circuit = compiler.compile(instance)
    bounds = (*circuit.layout.s, circuit.layout.total)
    clause_ops = [op for op in circuit.sequence.ops[1:] if op.kind != "AND"]
    return [
        [op for op in clause_ops if lo <= op.target < hi]
        for lo, hi in zip(bounds, bounds[1:])
    ]


class TestComputeLayout:
    def test_two_binary_clauses(self):
        inst = CnfInstance(2, ((1, 2), (-1, 2)))
        layout = layout_of(inst)
        assert layout.s == (3, 4)
        assert layout.mu == 2
        assert layout.total == 5

    def test_two_unit_clauses(self):
        inst = CnfInstance(1, ((1,), (-1,)))
        layout = layout_of(inst)
        assert layout.s == (2, 3)
        assert layout.mu == 2
        assert layout.total == 4
        assert layout.mu == closed_form_mu(inst)

    def test_three_binary_clauses(self):
        inst = CnfInstance(3, ((1, 2), (2, 3), (1, 3)))
        layout = layout_of(inst)
        assert layout.s == (4, 5, 7)
        assert layout.mu == 4
        assert layout.total == 8

    def test_closed_form_agreement(self, rng):
        fixed = [
            CnfInstance(3, ((-2,),)),
            CnfInstance(4, ((1, -2, 4),)),
            CnfInstance(2, ((1, -1), (2,), (-2, 1, -1), (2, 1))),
        ]
        drawn = [random_instance(rng, max_vars=8, max_clauses=10) for _ in range(100)]
        assert any(inst.m == 1 for inst in drawn)
        for inst in fixed + drawn:
            layout = layout_of(inst)
            assert layout.s == closed_form_starts(inst)
            assert layout.mu == closed_form_mu(inst)

    def test_single_clause(self):
        inst = CnfInstance(2, ((1, 2),))
        layout = layout_of(inst)
        assert layout.mu == 1
        assert layout.total == 4


class TestCompileClause:
    def test_two_literal_clause_is_single_or(self):
        inst = CnfInstance(2, ((1, 2), (1, 2)))
        ops = clause_fragments(inst)[0]
        assert len(ops) == 1
        assert ops[0].kind == "OR"
        assert ops[0].wires == (1, 2, layout_of(inst).s[0])

    def test_negated_unit_clause_is_conjugated_copy(self):
        inst = CnfInstance(1, ((-1,), (1,)))
        ops = clause_fragments(inst)[0]
        assert len(ops) == 1
        assert ops[0].kind == "COPY"
        assert ops[0].negate_controls == (True,)

    def test_three_literal_chain(self):
        inst = CnfInstance(3, ((1, 2, 3), (1, 2)))
        ops = clause_fragments(inst)[0]
        w = layout_of(inst).s[0]
        assert [op.wires for op in ops] == [(1, 2, w), (3, w, w + 1)]

    def test_tautological_leading_pair_is_not_then_chain(self):
        inst = CnfInstance(2, ((2, 1), (-1, 1, -2)))
        first, second = clause_fragments(inst)
        assert [(op.kind, op.wires, op.negate_controls) for op in first] == [
            ("OR", (1, 2, 3), (False, False)),
        ]
        assert [(op.kind, op.wires, op.negate_controls) for op in second] == [
            ("NOT", (4,), ()),
            ("OR", (2, 4, 5), (True, False)),
        ]


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

    def test_and_chain_reads_clause_results_and_gaps(self):
        inst = CnfInstance(3, ((1,), (2, 3), (1, -3, 2), (-2,)))
        circuit = compiler.compile(inst)
        assert circuit.layout.s == (4, 5, 7, 10)
        chain = [op.wires for op in circuit.sequence.ops if op.kind == "AND"]
        # clause results on 4, 5, 8 and 10; partials on the gaps 6 and 9
        assert chain == [(4, 5, 6), (6, 8, 9), (9, 10, 11)]
        assert circuit.sequence.width == circuit.layout.total == 11

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
