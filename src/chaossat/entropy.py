"""Quantum information metrics: entropies, mutual-entropy variants, entropy exchange.

All operators are nonempty finite matrices.  Logarithms default to base 2.
Eigenvalues down to EIG_CLAMP below zero are clamped, anything lower is an
invariant violation, and one at or below SUPPORT_TOL counts as zero.  Each
mutual entropy is a difference of von Neumann entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EIG_CLAMP = 1e-10  # the PSD floor: eigenvalues down to -EIG_CLAMP are rounding
SUPPORT_TOL = 1e-12  # the one cut at or below which an eigenvalue is zero
STATE_TOL = 1e-12  # Hermiticity, unit trace, sum A+ A = I and the prior sum
PVM_TOL = 1e-10  # is_rank1_pvm's tolerance on each of its identities
THEOREM7_TOL = 1e-10  # theorem7_holds' tolerance on each of its checks


class InvariantError(ValueError):
    """An operator violated a structural invariant (Hermiticity, trace, PSD)."""


def _log_factor(base) -> float:
    if base == 2:
        return math.log(2.0)
    if base == "e" or base == math.e:
        return 1.0
    raise ValueError(f"log base must be 2 or e, got {base!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated state with its spectrum: eigenvalues clamped at 0, ascending."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, compare=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise InvariantError(f"expected a nonempty square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvariantError("density matrix entries must be finite")
        if not np.abs(m - m.conj().T).max() <= STATE_TOL:
            raise InvariantError("density matrix must be Hermitian")
        if not abs(np.trace(m).real - 1.0) <= STATE_TOL:
            raise InvariantError(f"trace must be 1, got {np.trace(m)}")
        values, vectors = np.linalg.eigh(m)
        if values.min() < -EIG_CLAMP:
            raise InvariantError("density matrix must be positive semidefinite")
        object.__setattr__(self, "eigenvalues", np.clip(values, 0.0, None))
        object.__setattr__(self, "eigenvectors", vectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=np.complex128)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving channel rho -> sum_j A_j rho A_j+.

    ``kraus`` holds the operators stacked as one (K, d_out, d_in) array.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ops = np.asarray(self.kraus, dtype=np.complex128)
        except ValueError:
            raise InvariantError("Kraus operators must be numeric matrices of one shape") from None
        if ops.ndim != 3 or not ops.size:
            raise InvariantError(f"expected a nonempty (K, d_out, d_in) Kraus stack, "
                                 f"got shape {ops.shape}")
        if not np.isfinite(ops).all():
            raise InvariantError("Kraus operators must be finite")
        object.__setattr__(self, "kraus", ops)
        total = np.einsum("kab,kac->bc", ops.conj(), ops)
        if not np.abs(total - np.eye(self.dim_in)).max() <= STATE_TOL:
            raise InvariantError("Kraus operators must satisfy sum A+ A = I")

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    def check_input(self, rho: DensityMatrix) -> None:
        if rho.dim != self.dim_in:
            raise ValueError(f"dimension mismatch {rho.dim} != {self.dim_in}")

    def __call__(self, rho: DensityMatrix) -> DensityMatrix:
        self.check_input(rho)
        a = self.kraus
        return DensityMatrix((a @ rho.matrix @ a.conj().transpose(0, 2, 1)).sum(axis=0))

    def is_rank1_pvm(self) -> bool:
        """d Hermitian trace-1 operators with A_i A_j = delta_ij A_i, each within PVM_TOL.

        The product rule covers idempotence and mutual orthogonality at once.
        """
        a = self.kraus
        d = self.dim_in
        if a.shape != (d, d, d):
            return False
        products = np.einsum("iab,jbc->ijac", a, a)
        expected = np.eye(d)[:, :, None, None] * a[:, None]
        return bool(
            np.abs(a - a.conj().transpose(0, 2, 1)).max() <= PVM_TOL
            and np.abs(np.trace(a, axis1=1, axis2=2).real - 1.0).max() <= PVM_TOL
            and np.abs(products - expected).max() <= PVM_TOL
        )

    @classmethod
    def unitary(cls, u) -> "KrausChannel":
        return cls(np.asarray(u, dtype=np.complex128)[None])

    @classmethod
    def pvm_from_basis(cls, vectors) -> "KrausChannel":
        cols = np.asarray(vectors, dtype=np.complex128)
        return cls(np.einsum("aj,bj->jab", cols, cols.conj()))

    @classmethod
    def depolarizing(cls, dim: int) -> "KrausChannel":
        """Completely depolarizing channel rho -> I/dim, A_(i,j) = E_ij / sqrt(dim)."""
        return cls(np.eye(dim * dim).reshape(dim * dim, dim, dim) / math.sqrt(dim))


@dataclass(frozen=True)
class Ensemble:
    priors: tuple[float, ...]
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if len(self.priors) != len(self.states):
            raise InvariantError("priors and states must align")
        if not all(p >= 0 for p in self.priors):
            raise InvariantError("priors must be nonnegative")
        if not abs(sum(self.priors) - 1.0) <= STATE_TOL:
            raise InvariantError(f"priors must sum to 1, got {sum(self.priors)}")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise InvariantError("all signal states must share a dimension")

    def mixture(self) -> DensityMatrix:
        return DensityMatrix(sum(p * s.matrix for p, s in zip(self.priors, self.states)))


def vn_entropy(rho: DensityMatrix, base=2) -> float:
    """-sum lambda log lambda over the eigenvalues (0 log 0 = 0)."""
    factor = _log_factor(base)
    values = rho.eigenvalues
    positive = values[values > SUPPORT_TOL]
    # + 0.0 turns the -0.0 of a pure state into 0.0
    return float(-(positive * np.log(positive)).sum() / factor) + 0.0


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix, base=2) -> float:
    """Umegaki relative entropy tr sigma (log sigma - log rho); +inf off support."""
    if sigma.dim != rho.dim:
        raise ValueError(f"dimension mismatch {sigma.dim} != {rho.dim}")
    factor = _log_factor(base)
    rho_vals, rho_vecs = rho.eigenvalues, rho.eigenvectors
    support = rho_vals > SUPPORT_TOL
    if not support.all():
        kernel = rho_vecs[:, ~support]
        leak = np.trace(kernel.conj().T @ sigma.matrix @ kernel).real
        if leak > 1e-10:
            return math.inf
    sig_vals = sigma.eigenvalues
    positive = sig_vals[sig_vals > SUPPORT_TOL]
    term1 = float((positive * np.log(positive)).sum())
    overlaps = np.einsum(
        "ij,jk,ki->i", rho_vecs.conj().T, sigma.matrix, rho_vecs
    ).real
    term2 = float((overlaps[support] * np.log(rho_vals[support])).sum())
    value = (term1 - term2) / factor
    return max(value, 0.0) if value > -1e-9 else value


def ohya_mutual(rho: DensityMatrix, channel: KrausChannel, base=2) -> float:
    """Ohya's sum_n lambda_n S(Lambda E_n, Lambda rho) over rho = sum_n lambda_n E_n.

    As sum_n lambda_n Lambda E_n = Lambda rho, this is S(Lambda rho) -
    sum_n lambda_n S(Lambda E_n), zero modes dropped.  For a degenerate rho
    the decomposition is the one eigh returns; the supremum over other
    orthogonal decompositions is not searched.
    """
    return _ohya_mutual(rho, channel, vn_entropy(channel(rho), base), base)


def _ohya_mutual(rho: DensityMatrix, channel: KrausChannel, s_out: float, base) -> float:
    """ohya_mutual with s_out = S(channel(rho)) already computed."""
    kept = rho.eigenvalues > SUPPORT_TOL
    # Lambda(v v+) = sum_k (A_k v)(A_k v)+ for every kept eigenvector v at once
    b = channel.kraus @ rho.eigenvectors[:, kept]
    projected = np.einsum("kan,kbn->nab", b, b.conj())
    return s_out - sum(
        float(value) * vn_entropy(DensityMatrix(p), base)
        for value, p in zip(rho.eigenvalues[kept], projected)
    )


def holevo_mutual(ensemble: Ensemble, channel: KrausChannel, base=2) -> float:
    """S(Lambda sigma) - sum lambda_n S(Lambda sigma_n)."""
    out_mix = channel(ensemble.mixture())
    return vn_entropy(out_mix, base) - sum(
        p * vn_entropy(channel(s), base) for p, s in zip(ensemble.priors, ensemble.states)
    )


def exchange_matrix(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Exchange state W_ij = tr(A_i rho A_j+) / tr(Lambda rho) (Schumacher 1996).

    The Kraus convention is the channel's, rho -> sum_j A_j rho A_j+, so
    tr W = tr(Lambda rho) for every trace-preserving channel, unital or not.
    """
    channel.check_input(rho)
    a = channel.kraus
    w = np.einsum("iab,bc,jac->ij", a, rho.matrix, a.conj())
    # dividing by tr(Lambda rho), summed apart from W, lets a W built in the
    # wrong Kraus convention fail the trace check instead of being renormalised
    return DensityMatrix(w / np.einsum("kab,bc,kac->", a, rho.matrix, a.conj()).real)


def entropy_exchange(rho: DensityMatrix, channel: KrausChannel, base=2) -> float:
    """-tr W log W for the exchange state W."""
    return vn_entropy(exchange_matrix(rho, channel), base)


def coherent_informations(rho: DensityMatrix, channel: KrausChannel, base=2) -> tuple[float, float]:
    """(I2, I3) = (S(out) - Se, S(rho) + S(out) - Se), as mutual_entropies gives them."""
    values = mutual_entropies(rho, channel, base)
    return values["I2"], values["I3"]


def mutual_entropies(rho: DensityMatrix, channel: KrausChannel, base=2) -> dict:
    """S, S_out, S_e, I1, I2 and I3 of rho through channel, each computed once."""
    s_rho = vn_entropy(rho, base)
    s_out = vn_entropy(channel(rho), base)
    s_e = entropy_exchange(rho, channel, base)
    return {
        "S": s_rho,
        "S_out": s_out,
        "S_e": s_e,
        "I1": _ohya_mutual(rho, channel, s_out, base),
        "I2": s_out - s_e,
        "I3": (s_rho + s_out) - s_e,
    }


def theorem7_holds(values: dict) -> dict:
    """Theorem 7's checks on mutual_entropies' values, each within THEOREM7_TOL.

    For a rank-1 PVM channel: I1 <= min(S, S_out), I2 = 0 and I3 = S.
    """
    return {
        "i1_bounded": values["I1"] <= min(values["S"], values["S_out"]) + THEOREM7_TOL,
        "i2_zero": abs(values["I2"]) < THEOREM7_TOL,
        "i3_equals_entropy": abs(values["I3"] - values["S"]) < THEOREM7_TOL,
    }


def theorem7_report(rho: DensityMatrix, channel: KrausChannel, base=2) -> dict:
    """Compare the mutual-entropy variants for a rank-1 PVM channel.

    Checks that I1 <= min(S(rho), S(out)), I2 = 0 and I3 = S(rho), each
    within THEOREM7_TOL.  Refuses channels that are not rank-1 PVMs.
    """
    if not channel.is_rank1_pvm():
        raise ValueError("channel is not a rank-1 projection valued measure")
    values = mutual_entropies(rho, channel, base)
    return {"I1": values["I1"], "I2": values["I2"], "I3": values["I3"], "S_rho": values["S"],
            "S_out": values["S_out"], "inequalities_hold": theorem7_holds(values)}
