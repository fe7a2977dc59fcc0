"""Stationary states and energy-level gaps of the tridiagonal Hamiltonian.

`eigenvalues` and `eigensystem` take the lowest k levels from LAPACK's
tridiagonal solvers; `gap_spectrum` forms every gap E_n - E_m of them, the
spectrum of the bipartite operator H(x) - H(y) on the product eigenbasis,
and `distinct_gaps` merges the gaps closer than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EigensolverError
from .lattice import Grid1D, HamiltonianMatrix


@dataclass(frozen=True)
class EigenSystem:
    """Lowest k eigenpairs of a Hamiltonian, dx-orthonormalized."""

    energies: np.ndarray   # (k,) ascending
    states: np.ndarray     # (n_points, k), columns dx-orthonormal
    grid: Grid1D


def _tridiagonal_eigh(H: HamiltonianMatrix, k: int, eigvals_only: bool):
    """LAPACK's lowest k eigenvalues (and vectors) of H: stebz for k < N, stevd for k = N.

    Bisection (stebz) runs to LAPACK's tightest absolute tolerance,
    2 * DLAMCH('S'), not to its default eps * |H|: with a potential that
    spans many orders of magnitude, the default leaves the lowest levels no
    correct digit.  Bisection is relatively accurate on these matrices
    (Barlow & Demmel, SIAM J. Numer. Anal. 27, 762 (1990)).
    """
    n = H.grid.n_points
    if not 1 <= k <= n:
        raise EigensolverError(f"k={k} out of range [1, {n}]")
    select = {} if k == n else {"select": "i", "select_range": (0, k - 1)}
    try:
        return scipy.linalg.eigh_tridiagonal(
            H.diagonal, H.off_diagonal, eigvals_only=eigvals_only, tol=2 * np.finfo(float).tiny, **select
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
    return EigenSystem(energies, vecs, H.grid)


def gap_spectrum(energies: np.ndarray) -> np.ndarray:
    """The k x k array of all pairwise gaps lambda[n, m] = E_n - E_m of the given energies."""
    return np.subtract.outer(energies, energies)


def distinct_gaps(gaps: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Sorted distinct gaps: a value is kept when it exceeds the last kept one by more than tol.

    Neighbours more than tol apart start a new run, whose first value is
    always kept; only runs spanning more than tol are walked value by value.
    """
    lam = np.sort(gaps, axis=None)
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

