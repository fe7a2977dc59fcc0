"""State analysis for bipartite kernels.

Schmidt decomposition and entanglement entropy, the kernel-operator
measurement functional Tr[rho O rho^dagger], projection probabilities,
position densities, transition amplitudes over an eigenbasis, and collapse
statistics.

Conventions: the kernel operator associated with Psi acts as
(rho phi)_i = sum_j Psi_ij phi_j dx, so its Euclidean matrix representation
is Psi*dx; singular values of Psi*dx are the continuum Schmidt coefficients
mu_n, and mu_n^2 are the eigenvalues of either reduced density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    GridMismatchError,
    NonHermitianOperatorError,
    UnnormalizedStateError,
)
from .dynamics import NORM_TOL, BipartiteWave, WaveFunction, _check_normalized, bipartite_norm
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
    delta_E_conditional divides by p_m where p_m > 0 and is provided for
    convenience only.
    """

    p: np.ndarray
    delta_E: np.ndarray
    delta_E_conditional: np.ndarray
    truncation_residual: float


def _check_grids(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("operands were built on different grids")


def from_product(psi: WaveFunction, phi: WaveFunction) -> BipartiteWave:
    """Product kernel Psi_ij = psi_i phi_j^*."""
    _check_grids(psi, phi)
    for f, name in ((psi, "psi"), (phi, "phi")):
        if abs(f.norm() - 1.0) > NORM_TOL:
            raise UnnormalizedStateError(f"factor {name} is not normalized")
    kernel = np.outer(psi.amplitudes, phi.amplitudes.conj())
    return BipartiteWave(kernel, psi.grid, psi.time)


def schmidt(Psi: BipartiteWave, tol: float = 1e-12) -> SchmidtDecomposition:
    """Singular value decomposition of the dx-weighted kernel.

    Coefficients below tol * mu_0 are dropped into the residual.
    """
    if tol < 0:
        raise DecompositionError(f"tol must be >= 0, got {tol}")
    dx = Psi.grid.dx
    try:
        u, s, vh = np.linalg.svd(Psi.kernel * dx, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DecompositionError(f"SVD failed: {exc}") from exc
    cutoff = tol * s[0] if s.size else 0.0
    keep = s > cutoff
    residual = float(np.sum(s[~keep] ** 2))
    sqrt_dx = np.sqrt(dx)
    return SchmidtDecomposition(
        coefficients=s[keep],
        left_states=u[:, keep] / sqrt_dx,
        right_states=vh[keep].conj().T / sqrt_dx,
        residual=residual,
    )


def schmidt_reconstruction(dec: SchmidtDecomposition) -> np.ndarray:
    """Kernel sum_n mu_n psi_n phi_n^H rebuilt from a decomposition."""
    return (dec.left_states * dec.coefficients) @ dec.right_states.conj().T


def entanglement_entropy(Psi: BipartiteWave) -> float:
    """Von Neumann entropy S = -sum mu_n^2 ln mu_n^2, with 0 ln 0 = 0."""
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    mu2 = np.linalg.svd(Psi.kernel * Psi.grid.dx, compute_uv=False) ** 2
    mu2 = mu2[mu2 > 0.0]
    return float(-np.sum(mu2 * np.log(mu2)))


def reduced_density_matrix(Psi: BipartiteWave, side: str = "x") -> np.ndarray:
    """Euclidean matrix of the reduced density operator on the chosen side."""
    M = Psi.kernel * Psi.grid.dx
    if side == "x":
        return M @ M.conj().T
    if side == "y":
        return M.conj().T @ M
    raise ValueError(f"side must be 'x' or 'y', got {side!r}")


def entropy_from_reduced(Psi: BipartiteWave, side: str = "x") -> float:
    """Entropy of the eigenvalues of the reduced density matrix (cross-check route)."""
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    w = np.linalg.eigvalsh(reduced_density_matrix(Psi, side))
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def apply_rho(Psi: BipartiteWave, phi: WaveFunction) -> WaveFunction:
    """Action of the kernel operator: (rho phi)_i = sum_j Psi_ij phi_j dx."""
    _check_grids(Psi, phi)
    return WaveFunction(Psi.kernel @ phi.amplitudes * Psi.grid.dx, Psi.grid, Psi.time)


def projector(phi: WaveFunction) -> np.ndarray:
    """Euclidean matrix of |phi><phi| under the dx-weighted inner product."""
    return np.outer(phi.amplitudes, phi.amplitudes.conj()) * phi.grid.dx


def expectation(Psi: BipartiteWave, O: np.ndarray, imag_tol: float = 1e-10) -> float:
    """Measurement functional Tr[rho_Psi O rho_Psi^dagger].

    O is the Euclidean matrix of a Hermitian operator on the grid (e.g. the
    dense Hamiltonian, or projector()); for product states this reduces to
    the usual <psi|O|psi>.
    """
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    M = Psi.kernel * Psi.grid.dx
    value = complex(np.trace(M @ np.asarray(O) @ M.conj().T))
    if abs(value.imag) > imag_tol * max(1.0, abs(value.real)):
        raise NonHermitianOperatorError(
            f"imaginary residue {value.imag} exceeds tolerance; operator not Hermitian?"
        )
    return float(value.real)


def projection_probability(Psi: BipartiteWave, phi: WaveFunction) -> float:
    """Probability |rho_Psi phi|^2 of reduction to phi on measurement."""
    if abs(phi.norm() - 1.0) > NORM_TOL:
        raise UnnormalizedStateError("phi is not normalized")
    reduced = apply_rho(Psi, phi)
    return reduced.norm() ** 2


def position_density(Psi: BipartiteWave) -> np.ndarray:
    """Density d_i = sum_j |Psi_ij|^2 dx, the diagonal of rho rho^dagger."""
    _check_normalized(bipartite_norm(Psi), "bipartite state")
    return np.sum(np.abs(Psi.kernel) ** 2, axis=1) * Psi.grid.dx


def transition_amplitudes(Psi: BipartiteWave, eigs: EigenSystem) -> TransitionAmplitudes:
    """Double projection c_{n,m} = <psi_n, rho_Psi psi_m> over the truncated eigenbasis."""
    if Psi.grid != eigs.grid:
        raise GridMismatchError("state and eigensystem were built on different grids")
    dx = Psi.grid.dx
    S = eigs.states
    C = dx**2 * (S.conj().T @ Psi.kernel @ S)
    residual = float(bipartite_norm(Psi) - np.sum(np.abs(C) ** 2))
    return TransitionAmplitudes(C, eigs, residual)


def collapse_statistics(amps: TransitionAmplitudes) -> CollapseStatistics:
    """Outcome probabilities p_m = sum_n |c_{n,m}|^2 and energy changes
    delta_E_m = sum_n |c_{n,m}|^2 (E_n - E_m)."""
    w = np.abs(amps.c) ** 2
    E = amps.eigensystem.energies
    p = w.sum(axis=0)
    delta_E = (w * E[:, None]).sum(axis=0) - p * E
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(p > 0, delta_E / np.where(p > 0, p, 1.0), 0.0)
    return CollapseStatistics(p, delta_E, conditional, amps.truncation_residual)


# ---------------------------------------------------------------------------
# export helpers


def schmidt_record(dec: SchmidtDecomposition) -> dict:
    return {
        "coefficients": [float(m) for m in dec.coefficients],
        "rank": dec.rank,
        "residual": dec.residual,
    }
