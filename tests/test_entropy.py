import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaossat import entropy
from chaossat.entropy import (
    DensityMatrix,
    Ensemble,
    InvariantError,
    KrausChannel,
)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_isometric_channel(rng, dim, n_kraus):
    """Kraus operators cut from a random isometry; unital only by accident."""
    z = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    isometry, _ = np.linalg.qr(z)
    return KrausChannel(tuple(isometry[k * dim : (k + 1) * dim, :] for k in range(n_kraus)))


def leak_pair(lam, p):
    """rho = diag(1 - lam, lam) and A0 = |0><0| + sqrt(1-p) |1><1|, A1 = sqrt(p) |2><1|.

    Lambda rho = diag(1 - lam, (1-p) lam, p lam): for a small lam p, Lambda E_1 has
    weight p on a direction that Lambda rho holds below SUPPORT_TOL.
    """
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)], [0.0, 0.0]])
    a1 = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, math.sqrt(p)]])
    return DensityMatrix(np.diag([1.0 - lam, lam])), KrausChannel((a0, a1))


def shannon(probabilities):
    """-sum x log2 x over the entries above the toolkit's one zero cut."""
    return -sum(x * math.log2(x) for x in probabilities if x > entropy.SUPPORT_TOL)


def amplitude_damping(gamma):
    return KrausChannel(
        (
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
        )
    )


class TestDensityMatrix:
    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([3.0, 4.0])
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert entropy.vn_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_trace(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.eye(2))

    def test_negative_rejected(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN fails every comparison, so it would pass a "> tolerance" test
        for where in ((0, 0), (0, 1)):
            m = np.diag([0.5, 0.5]).astype(complex)
            m[where] = bad
            with pytest.raises(InvariantError, match="^density matrix entries must be finite$"):
                DensityMatrix(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (1, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(InvariantError, match="^expected a nonempty square matrix"):
            DensityMatrix(np.zeros(shape))


class TestVnEntropy:
    def test_diag_three_quarters(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy.vn_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert entropy.vn_entropy(rho) == pytest.approx(0.8112781244591328)

    def test_maximally_mixed(self):
        assert entropy.vn_entropy(DensityMatrix.maximally_mixed(8)) == pytest.approx(3.0)

    def test_natural_log_base(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert entropy.vn_entropy(rho, base="e") == pytest.approx(math.log(2.0))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert entropy.vn_entropy(rotated) == pytest.approx(
                entropy.vn_entropy(rho), abs=1e-10
            )

    def test_bad_base(self):
        with pytest.raises(ValueError):
            entropy.vn_entropy(DensityMatrix.maximally_mixed(2), base=10)

    @settings(max_examples=200, deadline=None)
    @given(big=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
           tiny=st.lists(st.floats(-15.0, -12.0), min_size=1, max_size=3))
    @example(big=[1.0], tiny=[-12.0])  # exactly SUPPORT_TOL
    def test_eigenvalues_at_or_below_the_cut_add_nothing(self, big, tiny):
        tiny = [10.0**x for x in tiny]
        scale = (1.0 - sum(tiny)) / sum(big)
        diagonal = [b * scale for b in big] + tiny
        assert all(x <= entropy.SUPPORT_TOL for x in tiny)
        # each tiny eigenvalue alone would add at least 5e-14 bits
        assert entropy.vn_entropy(DensityMatrix(np.diag(diagonal))) == pytest.approx(
            shannon(diagonal), abs=1e-15
        )


class TestRelativeEntropy:
    def test_identical_states(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert entropy.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_pair(self):
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        expected = 0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)
        assert entropy.relative_entropy(sigma, rho) == pytest.approx(expected, abs=1e-12)

    def test_support_violation_is_infinite(self):
        sigma = DensityMatrix.maximally_mixed(2)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert entropy.relative_entropy(sigma, rho) == math.inf

    def test_nested_support_is_finite(self):
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        assert entropy.relative_entropy(sigma, rho) == pytest.approx(1.0)

    def test_klein_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            sigma = random_density(rng, 3)
            rho = random_density(rng, 3)
            assert entropy.relative_entropy(sigma, rho) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            entropy.relative_entropy(
                DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3)
            )


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(InvariantError):
            KrausChannel((np.eye(2) * 0.5,))

    def test_completeness_holds_to_the_state_tolerance(self):
        # off by 5e-11: the output's trace would be off by more than DensityMatrix allows
        loose = np.diag([math.sqrt(1.0 + 5e-11), 0.0])
        with pytest.raises(InvariantError, match=r"^Kraus operators must satisfy sum A\+ A = I$"):
            KrausChannel((loose, np.diag([0.0, 1.0])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        ops = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        ops[1, 0, 1] = bad
        with pytest.raises(InvariantError, match="^Kraus operators must be finite$"):
            KrausChannel(ops)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 2), (1, 2, 0), (0, 0, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(InvariantError, match=r"^expected a nonempty \(K, d_out, d_in\)"):
            KrausChannel(np.zeros(shape))

    def test_depolarizing_output(self):
        channel = KrausChannel.depolarizing(3)
        rho = DensityMatrix.pure([1.0, 0.0, 0.0])
        out = channel(rho)
        assert np.abs(out.matrix - np.eye(3) / 3).max() < 1e-12

    def test_rank1_pvm_detection(self):
        assert KrausChannel.pvm_from_basis(np.eye(2)).is_rank1_pvm()
        assert not KrausChannel.unitary(np.eye(2)).is_rank1_pvm()
        assert not KrausChannel.depolarizing(2).is_rank1_pvm()


# the per-operator loops the stacked channel replaced, kept as references
def loop_apply(ops, rho):
    return sum(a @ rho.matrix @ a.conj().T for a in ops)


def loop_exchange(ops, rho):
    w = np.array([[np.trace(a @ rho.matrix @ b.conj().T) for b in ops] for a in ops])
    return w / np.trace(loop_apply(ops, rho)).real


def loop_ohya(ops, rho):
    out = DensityMatrix(loop_apply(ops, rho))
    values, vectors = rho.eigenvalues, rho.eigenvectors
    total = 0.0
    for idx in np.argsort(values)[::-1]:
        if values[idx] <= entropy.SUPPORT_TOL:
            continue
        v = vectors[:, idx]
        projected = DensityMatrix(loop_apply(ops, DensityMatrix(np.outer(v, v.conj()))))
        total += float(values[idx]) * entropy.relative_entropy(projected, out)
    return total


def loop_is_rank1_pvm(ops, tol=1e-10):
    d = ops[0].shape[1]
    if len(ops) != d:
        return False
    for a in ops:
        if a.shape != (d, d):
            return False
        if np.abs(a - a.conj().T).max() > tol:
            return False
        if np.abs(a @ a - a).max() > tol:
            return False
        if abs(np.trace(a).real - 1.0) > tol:
            return False
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if np.abs(a @ b).max() > tol:
                return False
    return True


CHANNEL_MAKERS = {
    "pvm": lambda rng, d: KrausChannel.pvm_from_basis(random_unitary(rng, d)),
    "unitary": lambda rng, d: KrausChannel.unitary(random_unitary(rng, d)),
    "depolarizing": lambda rng, d: KrausChannel.depolarizing(d),
    "amplitude-damping": lambda rng, d: amplitude_damping(rng.uniform(0.05, 0.95)),
    "isometric-k2": lambda rng, d: random_isometric_channel(rng, d, 2),
    "isometric-kd": lambda rng, d: random_isometric_channel(rng, d, d),
}


class TestStackedChannelMatchesLoops:
    @pytest.mark.parametrize("kind", list(CHANNEL_MAKERS))
    def test_matches_per_operator_loops(self, kind):
        rng = np.random.default_rng(29)
        dims = (2,) if kind == "amplitude-damping" else (2, 3, 4)
        for dim in dims:
            # full rank, and rank 1 so that ohya_mutual drops zero modes
            for rank in (dim, dim, 1, 1):
                rho = random_density(rng, dim, rank)
                channel = CHANNEL_MAKERS[kind](rng, dim)
                ops = list(channel.kraus)
                assert channel.kraus.shape == (len(ops), dim, dim)
                assert channel.kraus.dtype == np.complex128
                out = channel(rho).matrix
                assert np.abs(out - loop_apply(ops, rho)).max() < 1e-14
                w = entropy.exchange_matrix(rho, channel).matrix
                assert np.abs(w - loop_exchange(ops, rho)).max() < 1e-14
                assert abs(entropy.ohya_mutual(rho, channel) - loop_ohya(ops, rho)) < 1e-14
                assert channel.is_rank1_pvm() == loop_is_rank1_pvm(ops)
                assert channel.is_rank1_pvm() == (kind == "pvm")

    def test_zero_operator_beside_a_rank2_projector_is_not_rank1(self):
        # {I, 0} passes the product rule A_i A_j = delta_ij A_i; only the trace fails
        ops = [np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))]
        assert KrausChannel(tuple(ops)).is_rank1_pvm() is loop_is_rank1_pvm(ops) is False

    def test_ragged_operators_rejected(self):
        # complete together (diag(1, 1/2) + diag(0, 1/2) = I), but a 1x2
        # operator cannot share a channel with a 2x2 one
        with pytest.raises(InvariantError):
            KrausChannel(
                (np.diag([1.0, math.sqrt(0.5)]), np.array([[0.0, math.sqrt(0.5)]]))
            )


class TestOhyaMutual:
    def test_identity_channel_gives_input_entropy(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        channel = KrausChannel.unitary(np.eye(2))
        assert entropy.ohya_mutual(rho, channel) == pytest.approx(
            entropy.vn_entropy(rho), abs=1e-10
        )

    def test_depolarizing_channel_gives_zero(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        channel = KrausChannel.depolarizing(2)
        assert entropy.ohya_mutual(rho, channel) == pytest.approx(0.0, abs=1e-10)

    def test_pure_input_gives_zero(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        channel = KrausChannel.pvm_from_basis(np.eye(2))
        assert entropy.ohya_mutual(rho, channel) == pytest.approx(0.0, abs=1e-10)

    def test_bounded_by_input_entropy(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            rho = random_density(rng, 3)
            channel = KrausChannel.pvm_from_basis(random_unitary(rng, 3))
            value = entropy.ohya_mutual(rho, channel)
            assert value <= entropy.vn_entropy(rho) + 1e-10
            assert value >= -1e-12


class TestOhyaLeak:
    """I1 where a channeled eigenprojection leaks off the output's numerical support."""

    @settings(max_examples=300, deadline=None)
    @given(log_lam=st.floats(-11.0, -2.0), log_p=st.floats(-10.0, math.log10(0.5)))
    @example(log_lam=-11.0, log_p=math.log10(0.05))
    @example(log_lam=-2.0, log_p=-10.0)  # p lam at the cut itself
    def test_matches_closed_form(self, log_lam, log_p):
        lam, p = 10.0**log_lam, 10.0**log_p
        rho, channel = leak_pair(lam, p)
        ops = list(channel.kraus)
        # H(1 - lam, (1-p) lam, p lam) - lam h(p), read off the diagonals of Lambda rho
        # and Lambda E_1 as the reference loop builds them, so both sides cut the same floats
        out = loop_apply(ops, rho).diagonal().real
        image = loop_apply(ops, DensityMatrix(np.diag([0.0, 1.0]))).diagonal().real
        closed = shannon(out) - lam * shannon(image)
        value = entropy.ohya_mutual(rho, channel)
        assert abs(value - closed) < 1e-12
        assert value == entropy.mutual_entropies(rho, channel)["I1"]


class TestEnsemble:
    @pytest.mark.parametrize("priors", [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0),
                                        (-math.inf, 1.0), ()])
    def test_non_finite_or_empty_priors_rejected(self, priors):
        states = (DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([0.0, 1.0]))[:len(priors)]
        with pytest.raises(InvariantError, match="^priors must"):
            Ensemble(priors, states)


class TestHolevoMutual:
    def test_orthogonal_pure_signals_give_one_bit(self):
        ensemble = Ensemble(
            (0.5, 0.5),
            (DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([0.0, 1.0])),
        )
        channel = KrausChannel.unitary(np.eye(2))
        assert entropy.holevo_mutual(ensemble, channel) == pytest.approx(1.0)

    def test_identical_signals_give_zero(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        ensemble = Ensemble((0.3, 0.7), (rho, rho))
        channel = KrausChannel.unitary(np.eye(2))
        assert entropy.holevo_mutual(ensemble, channel) == pytest.approx(0.0, abs=1e-12)

    def test_depolarizing_destroys_information(self):
        ensemble = Ensemble(
            (0.5, 0.5),
            (DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([0.0, 1.0])),
        )
        channel = KrausChannel.depolarizing(2)
        assert entropy.holevo_mutual(ensemble, channel) == pytest.approx(0.0, abs=1e-12)

    def test_matches_ohya_on_spectral_ensemble(self):
        # ensemble of eigenprojections with eigenvalue priors, rank-1 PVM channel
        rng = np.random.default_rng(33)
        for _ in range(15):
            rho = random_density(rng, 3)
            values, vectors = np.linalg.eigh(rho.matrix)
            ensemble = Ensemble(
                tuple(float(v) for v in values),
                tuple(DensityMatrix.pure(vectors[:, j]) for j in range(3)),
            )
            channel = KrausChannel.pvm_from_basis(random_unitary(rng, 3))
            assert entropy.holevo_mutual(ensemble, channel) == pytest.approx(
                entropy.ohya_mutual(rho, channel), abs=1e-8
            )


class TestEntropyExchange:
    def test_unitary_channel_has_zero_exchange(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        channel = KrausChannel.unitary(random_unitary(rng, 3))
        assert entropy.entropy_exchange(rho, channel) == pytest.approx(0.0, abs=1e-10)

    def test_pvm_on_mixed_state(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        channel = KrausChannel.pvm_from_basis(np.eye(2))
        # diagonal input, diagonal projectors: W = diag(0.75, 0.25)
        w = entropy.exchange_matrix(rho, channel)
        assert np.abs(w.matrix - np.diag([0.75, 0.25])).max() < 1e-12
        assert entropy.entropy_exchange(rho, channel) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    def test_exchange_matrix_is_state(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(rng, 4)
            channel = KrausChannel.depolarizing(4)
            w = entropy.exchange_matrix(rho, channel)
            assert isinstance(w, DensityMatrix)

    def test_amplitude_damping_uses_channel_convention(self):
        # rho -> sum A rho A+ gives W_ij = tr(A_i rho A_j+), whose trace is 1
        # for non-unital channels too
        rho = DensityMatrix(np.diag([0.4, 0.6]))
        w = entropy.exchange_matrix(rho, amplitude_damping(0.3))
        assert np.abs(w.matrix - np.diag([0.82, 0.18])).max() < 1e-12

    def test_pure_input_exchange_equals_output_entropy(self):
        # for pure rho, the environment and the output share one pure state
        rng = np.random.default_rng(19)
        for n_kraus in (2, 3, 4):
            for _ in range(5):
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                rho = DensityMatrix.pure(v)
                channel = random_isometric_channel(rng, 3, n_kraus)
                assert entropy.entropy_exchange(rho, channel) == pytest.approx(
                    entropy.vn_entropy(channel(rho)), abs=1e-10
                )


class TestCoherentInformations:
    def test_difference_is_input_entropy(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            rho = random_density(rng, 3)
            channel = KrausChannel.pvm_from_basis(random_unitary(rng, 3))
            i2, i3 = entropy.coherent_informations(rho, channel)
            assert i3 - i2 == pytest.approx(entropy.vn_entropy(rho), abs=1e-10)

    def test_unitary_channel(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        channel = KrausChannel.unitary(np.eye(2))
        i2, i3 = entropy.coherent_informations(rho, channel)
        s = entropy.vn_entropy(rho)
        assert i2 == pytest.approx(s, abs=1e-10)
        assert i3 == pytest.approx(2.0 * s, abs=1e-10)


class TestMutualEntropies:
    @pytest.mark.parametrize(
        "make_channel",
        [
            lambda rng: KrausChannel.pvm_from_basis(random_unitary(rng, 3)),
            lambda rng: KrausChannel.unitary(random_unitary(rng, 3)),
            lambda rng: KrausChannel.depolarizing(3),
            lambda rng: random_isometric_channel(rng, 3, 2),
        ],
        ids=["pvm", "unitary", "depolarizing", "non-unital"],
    )
    def test_single_pass_equals_separate_calls(self, make_channel):
        rng = np.random.default_rng(23)
        for _ in range(5):
            rho = random_density(rng, 3)
            channel = make_channel(rng)
            values = entropy.mutual_entropies(rho, channel)
            i2, i3 = entropy.coherent_informations(rho, channel)
            assert values == {
                "S": entropy.vn_entropy(rho),
                "S_out": entropy.vn_entropy(channel(rho)),
                "S_e": entropy.entropy_exchange(rho, channel),
                "I1": entropy.ohya_mutual(rho, channel),
                "I2": i2,
                "I3": i3,
            }

    def test_dimension_mismatch(self):
        # checked before the channel's matmul, whose own error is numpy's gufunc text
        rho, channel = DensityMatrix.maximally_mixed(3), KrausChannel.depolarizing(2)
        for func in (entropy.mutual_entropies, entropy.ohya_mutual, entropy.entropy_exchange):
            with pytest.raises(ValueError, match=r"^dimension mismatch 3 != 2$"):
                func(rho, channel)

    def test_theorem7_holds_flags_each_violation(self):
        ok = {"S": 1.0, "S_out": 1.5, "I1": 0.5, "I2": 0.0, "I3": 1.0}
        assert entropy.theorem7_holds(ok) == {
            "i1_bounded": True,
            "i2_zero": True,
            "i3_equals_entropy": True,
        }
        bad = {"S": 1.0, "S_out": 1.5, "I1": 1.1, "I2": 1e-9, "I3": 0.9}
        assert not any(entropy.theorem7_holds(bad).values())


class TestTheorem7Report:
    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        channel = KrausChannel.pvm_from_basis(np.eye(2))
        report = entropy.theorem7_report(rho, channel)
        assert all(report["inequalities_hold"].values())
        assert report["I2"] == pytest.approx(0.0, abs=1e-10)
        assert report["I3"] == pytest.approx(report["S_rho"], abs=1e-10)

    def test_random_pairs(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = random_density(rng, dim)
                channel = KrausChannel.pvm_from_basis(random_unitary(rng, dim))
                report = entropy.theorem7_report(rho, channel)
                assert all(report["inequalities_hold"].values()), report

    def test_rejects_non_pvm(self):
        with pytest.raises(ValueError):
            entropy.theorem7_report(
                DensityMatrix.maximally_mixed(2), KrausChannel.unitary(np.eye(2))
            )
