"""Stationary states, energy-level gaps, and the difference-operator oracle.

The central identity checked here: the spectrum of the operator
H(x) - H(y), materialized as the Kronecker difference H (x) I - I (x) H, is
exactly the set of pairwise gaps {E_n - E_m} of the single-particle spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionTooLargeError, EigensolverError
from .lattice import Grid1D, HamiltonianMatrix


@dataclass(frozen=True)
class EigenSystem:
    """Lowest k eigenpairs of a Hamiltonian, dx-orthonormalized."""

    energies: np.ndarray   # (k,) ascending
    states: np.ndarray     # (n_points, k), columns dx-orthonormal
    grid: Grid1D
    k: int


@dataclass(frozen=True)
class GapSpectrum:
    """All k^2 index pairs (n, m) with their gap E_n - E_m."""

    entries: tuple  # of (n, m, lambda)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([lam for _, _, lam in self.entries])

    def gap(self, n: int, m: int) -> float:
        k = int(round(np.sqrt(len(self.entries))))
        return self.entries[n * k + m][2]


def eigensystem(H: HamiltonianMatrix, k: int) -> EigenSystem:
    """Lowest k eigenpairs of the tridiagonal Hamiltonian.

    States are normalized in the dx-weighted inner product and sign-fixed so
    that the first nonzero component of each state is positive.
    """
    n = H.grid.n_points
    if not 1 <= k <= n:
        raise EigensolverError(f"k={k} out of range [1, {n}]")
    try:
        if k == n:
            energies, vecs = scipy.linalg.eigh_tridiagonal(H.diagonal, H.off_diagonal)
        else:
            energies, vecs = scipy.linalg.eigh_tridiagonal(
                H.diagonal, H.off_diagonal, select="i", select_range=(0, k - 1)
            )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to provoke
        raise EigensolverError(f"tridiagonal eigensolver failed to converge: {exc}") from exc
    # LAPACK returns Euclidean-orthonormal columns; rescale to dx-weighted.
    vecs = vecs / np.sqrt(H.grid.dx)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return EigenSystem(energies, vecs, H.grid, int(k))


def gap_spectrum(eigs: EigenSystem) -> GapSpectrum:
    """All pairwise gaps lambda = E_n - E_m, one entry per index pair."""
    E = eigs.energies
    entries = tuple(
        (n, m, float(E[n] - E[m])) for n in range(eigs.k) for m in range(eigs.k)
    )
    return GapSpectrum(entries)


def distinct_gaps(gaps: GapSpectrum, tol: float = 1e-9) -> np.ndarray:
    """Distinct gap values, merging entries closer than tol."""
    lam = np.sort(gaps.lambdas)
    if lam.size == 0:
        return lam
    keep = [lam[0]]
    for value in lam[1:]:
        if value - keep[-1] > tol:
            keep.append(value)
    return np.array(keep)


def difference_operator_spectrum(H: HamiltonianMatrix, max_dim: int = 4096) -> np.ndarray:
    """Full spectrum of the dense Kronecker difference H (x) I - I (x) H, sorted.

    Exists as an independent oracle for gap_spectrum; refuses grids whose
    N^2 x N^2 dense operator would exceed max_dim rows (default N <= 64).
    """
    n = H.grid.n_points
    if n * n > max_dim:
        raise DimensionTooLargeError(
            f"difference operator would be {n * n}x{n * n}; max_dim={max_dim}"
        )
    Hd = H.dense()
    eye = np.eye(n)
    K = np.kron(Hd, eye) - np.kron(eye, Hd)
    return np.sort(scipy.linalg.eigvalsh(K))
