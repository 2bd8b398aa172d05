"""End-to-end acceptance gate.

Each test covers one numbered release criterion and records a single
``criterion N: PASS/FAIL`` line, printed in a terminal summary section
after the run.  Criterion 3 is expected to fail: the advertised
crossing-step lower bound contradicts the measured trajectories (see the
repository notes), so it is marked xfail(strict=True) and kept as an
honest record of the discrepancy.
"""

import json
import math
import random
import resource
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import CRITERION_LINES, random_instance

from chaossat import amplifier, cli, cnf, compiler, entropy, gates, lindblad, simulator
from chaossat.cnf import CnfInstance


def report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


GOLDEN_CORPUS = [
    CnfInstance(1, ((1,),)),
    CnfInstance(1, ((-1,),)),
    CnfInstance(1, ((1,), (-1,))),
    CnfInstance(1, ((1, -1),)),
    CnfInstance(2, ((1, 2),)),
    CnfInstance(2, ((1, 2), (-1, 2))),
    CnfInstance(3, ((1, 2, 3),)),
    CnfInstance(3, ((1, 2), (2, 3), (-1, -3))),
    CnfInstance(4, ((1,), (-2,), (3, 4), (-1, 2, -3, -4))),
]


def _probability_matches_oracle(inst):
    circuit = compiler.compile(inst)
    amps = simulator.apply(simulator.init_state(circuit.layout), circuit.sequence)
    probability = simulator.success_probability(amps, circuit.layout)
    expected = cnf.count_satisfying(inst) / 2**inst.n
    return abs(probability - expected) < 1e-10


def _basis_runs_match_evaluate(inst):
    circuit = compiler.compile(inst)
    layout = circuit.layout
    tail = gates.GateSequence(layout.total, circuit.sequence.ops[1:])
    for index in range(2**inst.n):
        bits = cnf.assignment_from_index(index, inst.n)
        out = gates.run_basis(tail, bits + (0,) * (layout.total - inst.n))
        if out[-1] != cnf.evaluate(inst, bits):
            return False
    return True


class TestCriterion1:
    def test_circuit_correctness(self):
        rng = random.Random(11071952)
        instances = list(GOLDEN_CORPUS)
        while len(instances) < len(GOLDEN_CORPUS) + 200:
            instances.append(
                random_instance(rng, max_vars=8, max_clauses=12, max_total=20)
            )
        bad = None
        for inst in instances:
            if not (_probability_matches_oracle(inst) and _basis_runs_match_evaluate(inst)):
                bad = cnf.render_dimacs(inst)
                break
        report(1, bad is None, f"mismatch on {bad}")
        assert bad is None


def _sweep_crossings():
    crossings = {}
    for n in range(1, 21):
        params = amplifier.params_for_instance(n)
        fast = amplifier.iterate(2.0**-n, params)
        exact = amplifier.iterate_oracle(Fraction(1, 2**n), params, 64 + 4 * n)
        crossings[n] = (fast.first_crossing, exact.first_crossing)
    return crossings


class TestCriterion2:
    def test_amplification_sweep(self):
        start = time.perf_counter()
        crossings = _sweep_crossings()
        elapsed = time.perf_counter() - start
        ok = all(
            fast is not None and fast <= 2 * n and fast == exact
            for n, (fast, exact) in crossings.items()
        ) and elapsed < 1.0
        report(2, ok, f"crossings {crossings}, {elapsed:.2f}s")
        assert ok


class TestCriterion3:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the printed lower bound m0 > (n-1)/(log2(3.71)-1) contradicts the "
            "measured first crossings (m0 = 5 for n = 10, bound 10.096); the "
            "trajectories themselves are oracle-confirmed in criterion 2"
        ),
    )
    def test_crossing_step_lower_bound(self):
        denom = math.log2(3.71) - 1.0
        violations = {
            n: fast
            for n, (fast, _) in _sweep_crossings().items()
            if not fast > (n - 1) / denom
        }
        report(3, not violations, f"violations {violations}")
        assert not violations


class TestCriterion4:
    def test_detection_for_every_count(self):
        start = time.perf_counter()
        failure = None
        for n in range(1, 13):
            params = amplifier.params_for_instance(n)
            for r in range(1, 2**n + 1):
                trajectory = amplifier.iterate(r / 2**n, params)
                if trajectory.first_crossing is None:
                    failure = (n, r)
                    break
            if failure:
                break
        elapsed = time.perf_counter() - start
        ok = failure is None and elapsed < 60.0
        report(4, ok, f"no crossing for (n, r) = {failure}, {elapsed:.1f}s")
        assert ok


class TestCriterion5:
    def test_integrator_matches_closed_form(self):
        start = time.perf_counter()
        rho0 = lindblad.TwoLevelState.from_q(0.6)
        worst = 0.0
        for re in (0.5, 1.0, 2.0):
            for im in (0.0, 2.0, 5.0):
                g = complex(re, im)
                record = lindblad.evolve_dissipative(
                    rho0, lindblad.DissipativeParams(g), 10.0, dt=1e-3
                )
                p1_exact = rho0.p1 * np.exp(-2.0 * g.real * record.times)
                c_exact = rho0.coherence * np.exp((1j * g.imag - g.real) * record.times)
                worst = max(
                    worst,
                    float(np.abs(record.p1 - p1_exact).max()),
                    float(np.abs(record.coherence - c_exact).max()),
                )
        ground = lindblad.TwoLevelState(np.diag([1.0, 0.0]))
        stationary = np.abs(
            lindblad.generator_apply(ground, lindblad.DissipativeParams(1.0 + 2.0j))
        ).max()
        elapsed = time.perf_counter() - start
        ok = worst < 1e-8 and stationary < 1e-14 and elapsed < 10.0
        report(5, ok, f"worst {worst:.2e}, stationary {stationary:.2e}, {elapsed:.1f}s")
        assert ok


class TestCriterion6:
    def test_discriminator_grid(self):
        failures = []
        for n in range(1, 21):
            decision, verdict, _ = lindblad.discriminate(2.0**-n)
            if (decision, verdict) != ("q_nonzero", "DAMPED"):
                failures.append(("case1", n, verdict))
        for e0 in range(4):
            for e1 in range(e0 + 2, e0 + 6):
                params = lindblad.HamiltonianParams(e0, e1)
                rho0 = lindblad.TwoLevelState.plus()
                record = lindblad.evolve_hamiltonian(
                    rho0, params, 3.0 * params.period, dt=params.period / 1000.0
                )
                if lindblad.classify(record) != "OSCILLATORY":
                    failures.append(("case2", e0, e1))
                recurrence = lindblad.hamiltonian_state_at(rho0, params, params.period)
                if np.abs(recurrence - rho0.matrix).max() >= 1e-8:
                    failures.append(("period", e0, e1))
        report(6, not failures, f"failures {failures}")
        assert not failures


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return entropy.DensityMatrix(m / np.trace(m).real)


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_channel(rng, dim, n_kraus):
    z = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    isometry, _ = np.linalg.qr(z)
    return entropy.KrausChannel(
        tuple(isometry[k * dim : (k + 1) * dim, :] for k in range(n_kraus))
    )


class TestCriterion7:
    def test_pvm_channel_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        failure = None
        for dim in (2, 3, 4, 8):
            for trial in range(1000):
                rho = _random_density(rng, dim)
                channel = entropy.KrausChannel.pvm_from_basis(_random_unitary(rng, dim))
                rep = entropy.theorem7_report(rho, channel)
                if not all(rep["inequalities_hold"].values()):
                    failure = (dim, trial, rep)
                    break
            if failure:
                break
        elapsed = time.perf_counter() - start
        ok = failure is None and elapsed < 30.0
        report(7, ok, f"failure {failure}, {elapsed:.1f}s")
        assert ok


class TestCriterion8:
    def test_mixture_of_orthogonal_signals_reduces_to_holevo(self):
        rng = np.random.default_rng(31415)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            # distinct priors keep the mixture's eigendecomposition unique
            while True:
                priors = rng.dirichlet(np.ones(dim))
                if np.diff(np.sort(priors)).min() > 1e-3:
                    break
            basis = _random_unitary(rng, dim)
            states = tuple(entropy.DensityMatrix.pure(basis[:, j]) for j in range(dim))
            ensemble = entropy.Ensemble(tuple(float(p) for p in priors), states)
            channel = _random_channel(rng, dim, int(rng.integers(1, 4)))
            gap = abs(
                entropy.ohya_mutual(ensemble.mixture(), channel)
                - entropy.holevo_mutual(ensemble, channel)
            )
            worst = max(worst, gap)
        ok = worst < 1e-10
        report(8, ok, f"worst gap {worst:.2e}")
        assert ok


class TestCriterion9:
    # seven clauses on 10 work wires (2 per 3-literal clause, 1 per 2-literal
    # clause) plus 5 AND-chain gaps, so mu = 15, total = 24
    BIG = CnfInstance(
        8,
        (
            (1, 2, 3),
            (4, 5, 6),
            (6, 7, 8),
            (1, 4),
            (2, 5),
            (3, 6),
            (7, 8),
        ),
    )

    def test_end_to_end_solve(self, tmp_path, capsys):
        layout = compiler.compile(self.BIG).layout
        assert (layout.n, layout.mu, layout.total) == (8, 15, 24)
        path = tmp_path / "big.cnf"
        path.write_text(cnf.render_dimacs(self.BIG))
        start = time.perf_counter()
        code = cli.main(["solve", str(path)])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        maxrss_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20
        linear = self._per_element_times()
        spread = max(linear.values()) / min(linear.values())
        ok = (
            code == cli.EXIT_SAT
            and payload["total_qubits"] == 24
            and elapsed < 60.0
            and maxrss_gib < 1.5
            and spread < 50.0
        )
        report(
            9,
            ok,
            f"exit {code}, {elapsed:.1f}s, {maxrss_gib:.2f} GiB, spread {spread:.1f}",
        )
        assert ok

    @staticmethod
    def _per_element_times():
        """Best-of-three per-element time for one controlled flip at each width."""
        times = {}
        for width in range(18, 25):
            amps = simulator.init_state(width)
            seq = gates.GateSequence(width, (gates.GateOp("CN", (1, width)),))
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                amps = simulator.apply(amps, seq)
                best = min(best, time.perf_counter() - start)
            times[width] = best / 2**width
        return times
