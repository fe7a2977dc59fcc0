"""Stationary states and energy-level gaps of the tridiagonal Hamiltonian.

`eigenvalues` and `eigensystem` take the lowest k levels from LAPACK's
tridiagonal solvers; `gap_spectrum` forms every gap E_n - E_m of them, the
spectrum of the bipartite operator H(x) - H(y) on the product eigenbasis,
and `distinct_gaps` merges the gaps closer than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpteqr, dstebz, dstein, dstevd, zgttrf, zgttrs
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


# A state is stale when its residual |H s - E s| exceeds this times max(1, |E|), plus the
# rounding floor of the kinetic term below: no k = N state of a harmonic (N = 401, 2001),
# box (801), double-well (1001) or 1e6-barrier (401) potential is, and 96 of 101 behind a
# 1e20 barrier are.  A k = N state that is stale is re-solved; one still stale is refused.
_RESIDUAL_BOUND = np.sqrt(np.finfo(float).eps)
# The floor is this times sqrt(N) eps |e|, |e| = hbar^2 / 2 m dx^2 the off-diagonal of H:
# inverse iteration leaves 0.3-0.4 sqrt(N) eps |e| on harmonic, box and double-well grids
# of 2001 to 131072 points, which exceeds _RESIDUAL_BOUND |E| on the finest of them.
_KINETIC_FLOOR = 16.0
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
    exceeds `_RESIDUAL_BOUND`.  A state that stein leaves off its energy takes
    one more step of inverse iteration (`_refine`).  A state still off its
    energy after that, as behind a potential near the float limit, raises
    EigensolverError.
    """
    n = H.grid.n_points
    if not 1 <= k <= n:
        raise EigensolverError(f"k={k} out of range [1, {n}]")
    d, e = H.diagonal, H.off_diagonal
    w = _lowest_energies(d, e, k)
    if eigvals_only:
        return w
    if k < n:
        vecs = _inverse_iteration(d, e, w)
        stale = _stale_columns(H, w, vecs)
    else:
        _, vecs, info = dstevd(d, e)
        _check(info, "dstevd")
        stale = _stale_columns(H, w, vecs)
        if len(stale):
            vecs[:, stale] = _inverse_iteration(d, e, w[stale])
            stale = stale[_stale_columns(H, w[stale], vecs[:, stale])]
    if len(stale):
        _refine(d, e, w, vecs, stale)
        stale = stale[_stale_columns(H, w[stale], vecs[:, stale])]
    if len(stale):
        raise EigensolverError(f"{len(stale)} of the {k} eigenstates of H are off their energies")
    return w, vecs


def _stale_columns(H: HamiltonianMatrix, w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Indices of the unit columns s of vecs whose residual |H s - E s| is above
    _RESIDUAL_BOUND max(1, |E|) plus the kinetic floor."""
    n = len(H.diagonal)
    floor = _KINETIC_FLOOR * np.sqrt(n) * np.finfo(float).eps * np.abs(H.off_diagonal).max(initial=0.0)
    fine = np.empty(len(w), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a residual that overflows is stale
        for j in range(0, len(w), _RESIDUAL_COLUMNS):
            s, E = vecs[:, j : j + _RESIDUAL_COLUMNS], w[j : j + _RESIDUAL_COLUMNS]
            r = H.apply(s)
            r -= s * E
            r /= _RESIDUAL_BOUND * np.maximum(1.0, np.abs(E)) + floor
            fine[j : j + _RESIDUAL_COLUMNS] = np.einsum("ij,ij->j", r, r) <= 1.0
    return np.flatnonzero(~fine)


def _inverse_iteration(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the tridiagonal (d, e) for the ascending values w (stein)."""
    n = len(d)
    shift = _scale(d, e)
    # one block: stebz's splits, where |e_i| is below eps sqrt|d_i d_i+1|, leave
    # larger residuals than inverse iteration on the whole matrix
    vecs, info = dstein(np.ldexp(d, shift), np.ldexp(e, shift), np.ldexp(w, shift), np.ones(n, dtype=np.intc),
                        np.full(n, n, dtype=np.intc))
    _check(info, "dstein")
    return vecs


def _scale(d: np.ndarray, e: np.ndarray) -> int:
    """The power of two, applied by ldexp, that brings an H outside 2^-256..2^256 to norm about 1, else 0.

    stein returns NaN for |H| from about 1e150 up, and for a subnormal H; 2.0**-p
    itself overflows for a subnormal H, so the scale is applied by ldexp.
    """
    _, p = np.frexp(max(np.abs(d).max(), np.abs(e).max(initial=0.0)))
    return -p if abs(p) > 256 else 0


def _refine(d: np.ndarray, e: np.ndarray, w: np.ndarray, vecs: np.ndarray, stale: np.ndarray) -> None:
    """One step of inverse iteration on each stale column of vecs, in place, from the pivoted LU of H - E I.

    stein replaces every pivot below eps max|H| by that bound, which leaves a
    state's residual about as large: behind a spike of 1e11, a level at E = 3.9
    kept 3e-6.  Here only a zero pivot, which an E exact to round-off can
    leave, is replaced, by eps (|E| + max|e|).  The LU is LAPACK's gttrf of
    the Crank-Nicolson stepper, on complex copies.  A refined column is made
    orthogonal to the columns of its cluster, those within 1e-3 (|E| + max|e|)
    of its E, as stein orthogonalizes a cluster; stein's clusters span
    1e-3 max|H|, and its other states, off their energies by up to the stale
    bound, would carry that error into the refined one.
    """
    local = np.abs(e).max(initial=0.0)
    shift = _scale(d, e)
    scaled_d, scaled_e = np.ldexp(d, shift), np.ldexp(e, shift).astype(complex)
    done = np.ones(vecs.shape[1], dtype=bool)
    done[stale] = False
    for j in stale:
        E = np.ldexp(w[j], shift)
        *lu, _ = zgttrf(scaled_e, (scaled_d - E).astype(complex), scaled_e)
        lu[1][lu[1] == 0] = np.finfo(float).eps * np.ldexp(abs(w[j]) + local, shift)
        cluster = vecs[:, done & (np.abs(w - w[j]) <= 1e-3 * (abs(w[j]) + local))]
        with np.errstate(over="ignore", invalid="ignore"):  # a column that is not finite stays stale
            x = zgttrs(*lu, vecs[:, j].astype(complex))[0].real
            x /= np.linalg.norm(x)
            x -= cluster @ (cluster.T @ x)
            x /= np.linalg.norm(x)
        vecs[:, j] = x
        done[j] = True


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
    magnitude is positive.  A state whose residual |H s - E s| is off its
    energy (`_stale_columns`) raises EigensolverError.
    """
    energies, vecs = _tridiagonal_eigh(H, k, eigvals_only=False)
    # LAPACK returns fresh Euclidean-orthonormal columns; rescale them to dx-weighted in place.
    vecs /= np.sqrt(H.grid.dx)
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

