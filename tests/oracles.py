"""Independent oracles for the tests: dense constructions the library does not use.

Each one computes a quantity the library computes, but by another route, so
that a test can compare the two:

- `difference_operator_spectrum`: the gap spectrum from the dense Kronecker
  difference operator, not from single-particle energies;
- `dense`: the dense N x N matrix of a tridiagonal H;
- `kernel`: the dense N x N kernel of a factored state;
- `dense_propagator`: the N x N unitary of a run from the dense H, by
  `scipy.linalg.expm` or by powers of the dense Cayley matrix, not from the
  tridiagonal eigensolve of `SpectralPropagator`;
- `eigenbasis_bipartite_evolution`: the closed-form state at time t from
  coefficients over an eigenbasis;
- `sturm_count`: how many eigenvalues of a tridiagonal H lie below each shift,
  from the LDL^T inertia of H - E I, in numpy only.

pytest does not collect this module (its name does not start with test_).
"""

import numpy as np
import scipy.linalg

from vnlw.dynamics import BipartiteWave


def dense(H) -> np.ndarray:
    """The dense N x N matrix of the tridiagonal H."""
    return np.diag(H.diagonal) + np.diag(H.off_diagonal, 1) + np.diag(H.off_diagonal, -1)


def kernel(Psi: BipartiteWave) -> np.ndarray:
    """The dense N x N array A C B^H of a factored state."""
    return Psi.left @ Psi.core @ Psi.right.conj().T


def difference_operator_spectrum(H, max_dim: int = 4096) -> np.ndarray:
    """Full spectrum of the dense Kronecker difference H (x) I - I (x) H, sorted.

    Refuses grids whose N^2 x N^2 operator would exceed max_dim rows (default N <= 64).
    """
    n = H.grid.n_points
    if n * n > max_dim:
        raise ValueError(f"difference operator would be {n * n}x{n * n}; max_dim={max_dim}")
    Hd = dense(H)
    eye = np.eye(n)
    return np.sort(scipy.linalg.eigvalsh(np.kron(Hd, eye) - np.kron(eye, Hd)))


def dense_propagator(H, dt: float, steps: int, method: str) -> np.ndarray:
    """The N x N unitary of `steps` steps of method, from the dense H.

    eigenbasis: expm(-i H steps dt / hbar); crank-nicolson: the Cayley matrix
    (I + i a H)^-1 (I - i a H), a = dt / 2 hbar, raised to the power steps.
    """
    Hd = dense(H)
    if method == "eigenbasis":
        return scipy.linalg.expm(-1j * Hd * (steps * dt) / H.hbar)
    eye, a = np.eye(H.grid.n_points), 0.5j * dt / H.hbar
    return np.linalg.matrix_power(np.linalg.solve(eye + a * Hd, eye - a * Hd), steps)


def eigenbasis_bipartite_evolution(C, eigs, t: float, hbar: float = 1.0) -> BipartiteWave:
    """sum_{n,m} C_nm exp(-i (E_n - E_m) t / hbar) psi_n(x) psi_m^*(y), for the k x k array C.

    Both factors are the eigenstates and the phases sit on the core; at t = 0
    this is the plain eigenbasis reconstruction of the kernel.
    """
    C = np.asarray(C, dtype=complex)
    k = len(eigs.energies)
    if C.shape != (k, k):
        raise ValueError(f"coefficient matrix shape {C.shape} does not match k={k}")
    phases = np.exp(-1j * eigs.energies * t / hbar)
    S = eigs.states
    return BipartiteWave(S, phases[:, None] * C * phases.conj()[None, :], S, eigs.grid)


def sturm_count(H, shifts) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal H below each shift E.

    The count of negative pivots of H - E I = L D L^T (Sylvester's law of
    inertia): d_0 = a_0 - E, d_i = a_i - E - b_{i-1}^2 / d_{i-1}.  A zero
    pivot is taken as -tiny, as LAPACK's bisection (dstebz) takes one.  An H
    with some |b| above 2^400 is first scaled down by a power of two to
    max |b| = 2^400, which leaves the counts as they are and keeps b^2 finite.
    """
    scale = np.ldexp(1.0, min(0, 400 - np.frexp(np.abs(H.off_diagonal).max(initial=0.0))[1]))
    a, shifts = H.diagonal * scale, np.asarray(shifts, dtype=float) * scale
    b2 = (H.off_diagonal * scale) ** 2
    tiny = np.finfo(float).tiny
    d = a[0] - shifts
    count = np.zeros(shifts.shape, dtype=int)
    for i in range(H.grid.n_points):
        if i:
            with np.errstate(divide="ignore", over="ignore"):
                d = a[i] - shifts - b2[i - 1] / d
        d = np.where(d == 0.0, -tiny, d)
        count += d < 0
    return count
