"""State analysis for bipartite kernels.

Schmidt decomposition and entanglement entropy, the kernel-operator
measurement functional Tr[rho O rho^dagger], projection probabilities,
position densities, transition amplitudes over an eigenbasis, and collapse
statistics.

Conventions: the kernel operator associated with Psi acts as
(rho phi)_i = sum_j Psi_ij phi_j dx, so its Euclidean matrix representation
is Psi*dx; singular values of Psi*dx are the continuum Schmidt coefficients
mu_n, and mu_n^2 are the eigenvalues of either reduced density matrix.

Every state is held as Psi = A C A^H, with one dx-orthonormal factor A
(N x r) for both arguments, so each analysis works on the r x r core C and
costs O(N r^2) or O(N k r), never an N x N decomposition unless r = N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import DecompositionError, NonHermitianOperatorError
from .dynamics import BipartiteWave, WaveFunction, _check_grids, _check_normalized, _times, bipartite_norm
from .spectra import EigenSystem


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Psi = sum_n mu_n psi_n(x) phi_n^*(y) with orthonormal factor families.

    Coefficients are descending; anything below the truncation tolerance is
    dropped and its squared weight accumulated in `residual`, so that
    sum mu_n^2 + residual = |Psi|^2.
    """

    coefficients: np.ndarray   # (r,) positive, descending
    left_states: np.ndarray    # (n_points, r), dx-orthonormal
    right_states: np.ndarray   # (n_points, r), dx-orthonormal
    residual: float

    @property
    def rank(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class TransitionAmplitudes:
    """Coefficients c_{n,m} of Psi in the product eigenbasis psi_n(x) psi_m^*(y)."""

    c: np.ndarray              # (k, k) complex
    eigensystem: EigenSystem
    truncation_residual: float


@dataclass(frozen=True)
class CollapseStatistics:
    """Outcome probabilities p_m and associated energy changes.

    delta_E follows the unconditioned sum sum_n |c_{n,m}|^2 (E_n - E_m);
    delta_E_conditional divides by p_m and is provided for convenience only.
    It is 0 where p_m is below the round-off of the total probability,
    p_m <= eps sum p, where the quotient would be one of two round-off values.
    """

    p: np.ndarray
    delta_E: np.ndarray
    delta_E_conditional: np.ndarray
    truncation_residual: float


def from_product(psi: WaveFunction, phi: WaveFunction) -> BipartiteWave:
    """Product kernel Psi_ij = psi_i phi_j^*: for equal amplitudes the rank-1 state of factor psi / |psi| and core
    |psi| |phi|, else the factor [psi phi] with the core [[0, 1], [0, 0]]."""
    _check_grids(psi, phi)
    a, b = psi.norm(), phi.norm()
    _check_normalized(a**2, "factor psi")
    _check_normalized(b**2, "factor phi")
    if np.array_equal(psi.amplitudes, phi.amplitudes):
        return BipartiteWave((psi.amplitudes / a)[:, None], np.array([[a * b]], dtype=complex), psi.grid)
    return BipartiteWave.from_factors(np.column_stack([psi.amplitudes, phi.amplitudes]), [[0, 1], [0, 0]], psi.grid)


def distance(X: BipartiteWave, Y: BipartiteWave) -> float:
    """|X - Y| = |R diag(C_X, -C_Y) R^H|_F, with R the triangular factor of the stacked factors [A_X A_Y].

    X - Y is [A_X A_Y] diag(C_X, -C_Y) [A_X A_Y]^H, and the QR of the
    dx-weighted stack keeps the accuracy of a small difference, which the
    Gram expansion |X|^2 + |Y|^2 - 2 Re<X, Y> would lose to sqrt(eps) noise.
    Only R is formed, with a dense kernel's factor s stacked as the N x N
    matrix s I.  O(N r^2).
    """
    _check_grids(X, Y)
    n = X.grid.n_points
    stacked = np.hstack([np.eye(n) * A if np.ndim(A) == 0 else A for A in (X.factor, Y.factor)])
    stacked *= np.sqrt(X.grid.dx)
    R = np.linalg.qr(stacked, mode="r")
    r, p = len(X.core), len(Y.core)
    core = np.block([[X.core, np.zeros((r, p))], [np.zeros((p, r)), -Y.core]])
    return float(np.sqrt(np.sum(np.abs(R @ core @ R.conj().T) ** 2)))


def schmidt(Psi: BipartiteWave, tol: float = 1e-12) -> SchmidtDecomposition:
    """SVD of the core, mapped through the factors; coefficients below tol * mu_0 go into the residual."""
    try:
        u, s, vh = np.linalg.svd(Psi.core, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DecompositionError(f"SVD failed: {exc}") from exc
    mu, residual = schmidt_coefficients(s, tol)
    return SchmidtDecomposition(mu, _times(Psi.factor, u[:, :len(mu)]), _times(Psi.factor, vh[:len(mu)].conj().T),
                                residual)


def schmidt_coefficients(s: np.ndarray, tol: float = 1e-12) -> tuple:
    """(mu, residual): the core's descending singular values s above tol * s[0], and the squared weight of the rest."""
    if tol < 0:
        raise DecompositionError(f"tol must be >= 0, got {tol}")
    mu = s[s > (tol * s[0] if s.size else 0.0)]
    return mu, float(np.sum(s[len(mu):] ** 2))


def entanglement_entropy(Psi: BipartiteWave) -> float:
    """Von Neumann entropy S = -sum w_n ln w_n, with 0 ln 0 = 0, of the weights w_n = mu_n^2 / sum mu^2: sum mu^2 =
    |C|_F^2 is 1 only to round-off, and a pure state reads 0, not -(1 + d) ln(1 + d)."""
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    w = np.linalg.svd(Psi.core, compute_uv=False) ** 2
    return float(_entropy(w / w.sum()))


def _entropy(w: np.ndarray) -> np.ndarray:
    """-sum w ln w over the last axis of the weights w, with 0 ln 0 = 0; + 0.0 reads a pure state's -0.0 as 0.0."""
    return -np.sum(w * np.log(np.where(w > 0.0, w, 1.0)), axis=-1) + 0.0


def entropy_from_reduced(Psi: BipartiteWave) -> float:
    """Entropy of the eigenvalues of the x-side reduced density matrix (cross-check route).

    The reduced density matrix is rho = F F^H dx with F = A C; its nonzero
    eigenvalues are those of the r x r Gram matrix F^H F dx, whose conjugate
    (one triangle, by BLAS zherk on F^T) is diagonalized instead, in
    O(N r^2).  It does not assume that the factor is orthonormal, so it
    still checks the factors against the core's singular values that
    entanglement_entropy reads.
    """
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    F = _times(Psi.factor, Psi.core)
    w = np.linalg.eigvalsh(_lapack.zherk(Psi.grid.dx, F.T, trans=0, lower=1), UPLO="L")
    return float(_entropy(w[w > 1e-300]))


def apply_rho(Psi: BipartiteWave, phi: WaveFunction) -> WaveFunction:
    """Action of the kernel operator: (rho phi)_i = sum_j Psi_ij phi_j dx = A C conj(phi^H A) dx, O(N r)."""
    _check_grids(Psi, phi)
    projected = _times(phi.amplitudes.conj(), Psi.factor).conj()
    return WaveFunction(_times(Psi.factor, Psi.core @ projected) * Psi.grid.dx, Psi.grid)


def projector(phi: WaveFunction) -> np.ndarray:
    """Euclidean matrix of |phi><phi| under the dx-weighted inner product."""
    return np.outer(phi.amplitudes, phi.amplitudes.conj()) * phi.grid.dx


def expectation(Psi: BipartiteWave, O: np.ndarray, imag_tol: float = 1e-10) -> float:
    """Measurement functional Tr[rho_Psi O rho_Psi^dagger] = Tr[C (A^H O A) C^H] dx = Tr[F^H O F] dx, F = A C^H.

    O is the Euclidean matrix of a Hermitian operator on the grid (e.g. the
    dense Hamiltonian, or projector()); for product states this reduces to
    the usual <psi|O|psi>.  F and O F are `_times` products.
    """
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    F = _times(Psi.factor, np.ascontiguousarray(Psi.core.conj().T))  # in O F's memory order, so vdot copies neither
    value = complex(np.vdot(F, _times(np.asarray(O), F)) * Psi.grid.dx)
    if abs(value.imag) > imag_tol * max(1.0, abs(value.real)):
        raise NonHermitianOperatorError(
            f"imaginary residue {value.imag} exceeds tolerance; operator not Hermitian?"
        )
    return float(value.real)


def projection_probability(Psi: BipartiteWave, phi: WaveFunction) -> float:
    """Probability |rho_Psi phi|^2 of reduction to phi on measurement."""
    _check_normalized(phi.norm() ** 2, "phi")
    reduced = apply_rho(Psi, phi)
    return reduced.norm() ** 2


def position_density(Psi: BipartiteWave) -> np.ndarray:
    """Density d_i = sum_j |Psi_ij|^2 dx, the diagonal of rho rho^dagger: row norms of A C, O(N r^2)."""
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    return np.sum(np.abs(_times(Psi.factor, Psi.core)) ** 2, axis=1)


def transition_amplitudes(Psi: BipartiteWave, eigs: EigenSystem) -> TransitionAmplitudes:
    """Double projection c_{n,m} = <psi_n, rho_Psi psi_m> = (S^T A) C (S^T A)^H dx^2, O(N k r), for the real S of H."""
    _check_grids(Psi, eigs)
    SA = _times(eigs.states.T, Psi.factor)
    C = np.float64(Psi.grid.dx) ** 2 * (_times(SA, Psi.core) @ SA.conj().T)
    residual = float(bipartite_norm(Psi) - np.sum(np.abs(C) ** 2))
    return TransitionAmplitudes(C, eigs, residual)


def collapse_statistics(amps: TransitionAmplitudes) -> CollapseStatistics:
    """Outcome probabilities p_m = sum_n |c_{n,m}|^2 and energy changes
    delta_E_m = sum_n |c_{n,m}|^2 (E_n - E_m)."""
    w = np.abs(amps.c) ** 2
    E = amps.eigensystem.energies
    p = w.sum(axis=0)
    resolved = p > np.finfo(float).eps * p.sum()
    with np.errstate(over="ignore", invalid="ignore"):  # energies near the float limits; run_scenario refuses them
        delta_E = (w * E[:, None]).sum(axis=0) - p * E
        conditional = np.where(resolved, delta_E / np.where(resolved, p, 1.0), 0.0)
    return CollapseStatistics(p, delta_E, conditional, amps.truncation_residual)
