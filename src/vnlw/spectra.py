"""Stationary states and energy-level gaps of the tridiagonal Hamiltonian.

`eigenvalues` and `eigensystem` take the lowest k levels from LAPACK's
tridiagonal solvers; `gap_spectrum` forms every gap E_n - E_m of them, the
spectrum of the bipartite operator H(x) - H(y) on the product eigenbasis,
and `distinct_gaps` merges the gaps closer than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpteqr, dstebz, dstein, dstevd
from .errors import EigensolverError
from .lattice import Grid1D, HamiltonianMatrix


@dataclass(frozen=True)
class EigenSystem:
    """Lowest k eigenpairs of a Hamiltonian, dx-orthonormalized."""

    energies: np.ndarray   # (k,) ascending
    states: np.ndarray     # (n_points, k), columns dx-orthonormal
    grid: Grid1D


def _lowest_energies(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The lowest k eigenvalues of the symmetric tridiagonal (d, e), ascending.

    Two LAPACK routes, chosen by cost; both are relatively accurate, where
    the eps * |H| of a QR or divide-and-conquer solve leaves a potential that
    spans many orders of magnitude no correct digit in its lowest levels:

    - dqds (pteqr: the LDL^T factor of the positive definite H - sigma I, then
      dqds on its bidiagonal; Fernando & Parlett, Numer. Math. 67, 191 (1994))
      takes all N levels of H - sigma I in O(N^2), each to a few eps of
      E - sigma.  sigma is the per-row Gershgorin bound, less 4 eps times the
      row's magnitude for the rounding of d - sigma.  The values are kept
      where E - sigma is within 2**10 of max(1, |E|), so that they lose at
      most 10 bits to bisection's; a well far deeper than the levels asked for
      leaves them to bisection;
    - bisection (stebz, to its tightest absolute tolerance 2 * DLAMCH('S');
      Barlow & Demmel, SIAM J. Numer. Anal. 27, 762 (1990)) takes each level
      in O(N) Sturm counts, O(k N) in all.

    On a 2-vCPU host bisection costs about 3.6e-7 s per k N and dqds about
    2.1e-8 s per N^2, so dqds runs from 16 k >= N on: the 1000 lowest of
    N=2001 levels take 0.09 s instead of 0.7 s, and 8 of N=65536 take
    bisection 0.2 s, where dqds of all of them would take about 90 s (1.4 s
    at N=8192).
    """
    n = len(d)
    if 16 * k >= n:
        rows = np.abs(np.append(0.0, e)) + np.abs(np.append(e, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):  # near overflow, bisection takes over
            sigma = np.min(d - rows - 4 * np.finfo(float).eps * (np.abs(d) + rows))
            shifted = d - sigma
        if np.isfinite(shifted).all():
            w, _, _, info = dpteqr(shifted, e, np.zeros((1, 1)))
            _check(info, "dpteqr")
            w = w[: -k - 1 : -1] + sigma  # pteqr's order is descending
            with np.errstate(over="ignore"):  # a bound past the float range admits every value
                within = np.all(w - sigma <= 1024 * np.maximum(1.0, np.abs(w)))
            if within:
                return w
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, k, 2 * np.finfo(float).tiny, "E")
    _check(info, "dstebz")
    return w[:m]


# A k = N state is re-solved when its residual |H s - E s| exceeds this times max(1, |E|):
# none of a harmonic (N = 401, 2001), box (801), double-well (1001) or 1e6-barrier (401)
# potential is, and 96 of 101 behind a 1e20 barrier are.
_RESIDUAL_BOUND = np.sqrt(np.finfo(float).eps)
# Residuals are formed this many columns at a time: no N x N temporaries, and at N = 2001
# 0.03 s where whole-matrix passes took 0.08 s.
_RESIDUAL_COLUMNS = 32


def _tridiagonal_eigh(H: HamiltonianMatrix, k: int, eigvals_only: bool):
    """The lowest k energies of H from `_lowest_energies`, and for eigensystem their vectors.

    The vectors come from inverse iteration on those energies (stein) for
    k < N.  For k = N they come from one divide-and-conquer solve (stevd),
    whose error eps * |H| can leave the low levels of a potential that spans
    many orders of magnitude with a state that is no eigenvector; inverse
    iteration re-solves the columns whose residual against their energy
    exceeds `_RESIDUAL_BOUND`.
    """
    n = H.grid.n_points
    if not 1 <= k <= n:
        raise EigensolverError(f"k={k} out of range [1, {n}]")
    d, e = H.diagonal, H.off_diagonal
    w = _lowest_energies(d, e, k)
    if eigvals_only:
        return w
    if k < n:
        return w, _inverse_iteration(d, e, w)
    _, vecs, info = dstevd(d, e)
    _check(info, "dstevd")
    stale = _stale_columns(H, w, vecs)
    if stale:
        vecs[:, stale] = _inverse_iteration(d, e, w[stale])
    return w, vecs


def _stale_columns(H: HamiltonianMatrix, w: np.ndarray, vecs: np.ndarray) -> list:
    """Indices of the unit columns s of vecs with |H s - E s| > _RESIDUAL_BOUND * max(1, |E|)."""
    stale = []
    with np.errstate(over="ignore", invalid="ignore"):  # a residual that overflows is stale
        for j in range(0, len(w), _RESIDUAL_COLUMNS):
            s, E = vecs[:, j : j + _RESIDUAL_COLUMNS], w[j : j + _RESIDUAL_COLUMNS]
            r = H.apply(s)
            r -= s * E
            r /= np.maximum(1.0, np.abs(E))
            stale.extend(j + np.flatnonzero(~(np.einsum("ij,ij->j", r, r) <= _RESIDUAL_BOUND**2)))
    return stale


def _inverse_iteration(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the tridiagonal (d, e) for the ascending values w (stein)."""
    n = len(d)
    # stein returns NaN for |H| from about 1e150 up, and for a subnormal H: an
    # exact power-of-two scale brings an H outside 2^-256..2^256 to norm about 1
    _, p = np.frexp(max(np.abs(d).max(), np.abs(e).max(initial=0.0)))
    shift = -p if abs(p) > 256 else 0  # applied by ldexp: 2.0**-p itself overflows for a subnormal H
    # one block: stebz's splits, where |e_i| is below eps sqrt|d_i d_i+1|, leave
    # larger residuals than inverse iteration on the whole matrix
    vecs, info = dstein(np.ldexp(d, shift), np.ldexp(e, shift), np.ldexp(w, shift), np.ones(n, dtype=np.intc),
                        np.full(n, n, dtype=np.intc))
    _check(info, "dstein")
    return vecs


def _check(info: int, routine: str) -> None:
    if info:
        raise EigensolverError(f"LAPACK {routine} failed (info={info})")


def eigenvalues(H: HamiltonianMatrix, k: int) -> np.ndarray:
    """Lowest k energies of the tridiagonal Hamiltonian, ascending, without states.

    These are bit for bit the energies of eigensystem(H, k).
    """
    return _tridiagonal_eigh(H, k, eigvals_only=True)


def eigensystem(H: HamiltonianMatrix, k: int) -> EigenSystem:
    """Lowest k eigenpairs of the tridiagonal Hamiltonian.

    States are normalized in the dx-weighted inner product and sign-fixed so
    that the first component of each state above 1e-12 of its largest in
    magnitude is positive.
    """
    energies, vecs = _tridiagonal_eigh(H, k, eigvals_only=False)
    # LAPACK returns Euclidean-orthonormal columns; rescale to dx-weighted.
    vecs = vecs / np.sqrt(H.grid.dx)
    top = 1e-12 * np.maximum(vecs.max(axis=0), -vecs.min(axis=0))
    first = np.argmax((vecs > top) | (vecs < -top), axis=0)
    vecs[:, vecs[first, np.arange(k)] < 0] *= -1
    return EigenSystem(energies, vecs, H.grid)


def gap_spectrum(energies: np.ndarray) -> np.ndarray:
    """The k x k array of all pairwise gaps lambda[n, m] = E_n - E_m of the given energies.

    A gap beyond the float range is +-inf, which run_scenario refuses.
    """
    with np.errstate(over="ignore"):
        return np.subtract.outer(energies, energies)


def distinct_gaps(gaps: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Sorted distinct gaps: a value is kept when it exceeds the last kept one by more than tol.

    Neighbours more than tol apart start a new run, whose first value is
    always kept; only runs spanning more than tol are walked value by value.
    """
    lam = np.sort(gaps, axis=None)
    if lam.size == 0:
        return lam
    with np.errstate(over="ignore", invalid="ignore"):  # infinite gaps, which run_scenario refuses
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

