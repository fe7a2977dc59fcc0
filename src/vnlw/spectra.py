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
    """All k^2 gaps lambdas[n, m] = E_n - E_m, a (k, k) array."""

    lambdas: np.ndarray

    def gap(self, n: int, m: int) -> float:
        return float(self.lambdas[n, m])


def _tridiagonal_eigh(H: HamiltonianMatrix, k: int, eigvals_only: bool):
    """LAPACK's lowest k eigenvalues (and vectors) of H: stebz for k < N, stevd for k = N."""
    n = H.grid.n_points
    if not 1 <= k <= n:
        raise EigensolverError(f"k={k} out of range [1, {n}]")
    select = {} if k == n else {"select": "i", "select_range": (0, k - 1)}
    try:
        return scipy.linalg.eigh_tridiagonal(
            H.diagonal, H.off_diagonal, eigvals_only=eigvals_only, **select
        )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to provoke
        raise EigensolverError(f"tridiagonal eigensolver failed to converge: {exc}") from exc


def eigenvalues(H: HamiltonianMatrix, k: int) -> np.ndarray:
    """Lowest k energies of the tridiagonal Hamiltonian, ascending, without states.

    For k < n_points these are bit for bit the energies of eigensystem(H, k).
    """
    return _tridiagonal_eigh(H, k, eigvals_only=True)


def eigensystem(H: HamiltonianMatrix, k: int) -> EigenSystem:
    """Lowest k eigenpairs of the tridiagonal Hamiltonian.

    States are normalized in the dx-weighted inner product and sign-fixed so
    that the first nonzero component of each state is positive.
    """
    energies, vecs = _tridiagonal_eigh(H, k, eigvals_only=False)
    # LAPACK returns Euclidean-orthonormal columns; rescale to dx-weighted.
    vecs = vecs / np.sqrt(H.grid.dx)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return EigenSystem(energies, vecs, H.grid, int(k))


def gap_spectrum(energies: np.ndarray) -> GapSpectrum:
    """All pairwise gaps lambda = E_n - E_m of the given energies."""
    return GapSpectrum(np.subtract.outer(energies, energies))


def distinct_gaps(gaps: GapSpectrum, tol: float = 1e-9) -> np.ndarray:
    """Sorted distinct gaps: a value is kept when it exceeds the last kept one by more than tol.

    Neighbours more than tol apart start a new run, whose first value is
    always kept; only runs spanning more than tol are walked value by value.
    """
    lam = np.sort(gaps.lambdas, axis=None)
    if lam.size == 0:
        return lam
    keep = np.concatenate(([True], np.diff(lam) > tol))
    starts = np.flatnonzero(keep)
    ends = np.append(starts[1:], lam.size)
    wide = lam[ends - 1] - lam[starts] > tol
    for s, e in zip(starts[wide], ends[wide]):
        last = lam[s]
        for i in range(s + 1, e):
            if lam[i] - last > tol:
                keep[i], last = True, lam[i]
    return lam[keep]


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
