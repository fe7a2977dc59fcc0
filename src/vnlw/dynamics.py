"""Time propagation of one-partite and bipartite states.

One-partite states evolve under i hbar dpsi/dt = H psi; bipartite kernels
Psi(x, y) under i hbar dPsi/dt = (H(x) - H(y)) Psi, realized as
Psi <- U Psi U^dagger.  A kernel is held factored, Psi = A C B^H, and
H(x) - H(y) is separable, so U Psi U^dagger = (U A) C (U B)^H: U acts on the
N x r factors (a vector is r = 1) and is never formed.  Crank-Nicolson steps
every factor of fewer columns than grid points: L = (I + i a H)/2 is factored
once (LAPACK gttrf), and a step is one solve of it (gttrs) less the state,
O(N r).  The eigenbasis method, and a dense kernel (r = N), use one spectral
matrix U = S diag(f(E)) S^T of the full eigensystem, with f(E) =
exp(-i E t / hbar) or the Cayley factor exp(-2i steps atan(dt E / 2hbar)).
A trajectory of x-side observables reads A C, stepped, or rho_x = Psi Psi^H
dx^2, projected on the eigenbasis once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _lapack
from ._lapack import zgttrf, zgttrs
from .errors import GridMismatchError, SimulationError, UnnormalizedStateError
from .lattice import Grid1D, HamiltonianMatrix
from .schema import METHODS
from .spectra import eigensystem

NORM_TOL = 1e-6


@dataclass(frozen=True)
class WaveFunction:
    """One-partite complex amplitude vector psi(x)."""

    amplitudes: np.ndarray
    grid: Grid1D

    def norm(self) -> float:
        return self.grid.norm(self.amplitudes)


@dataclass(frozen=True)
class BipartiteWave:
    """Kernel Psi(x, y) = A C B^H on the grid square.

    The factors A = left (N x r) and B = right (N x s) have dx-orthonormal
    columns, A^H A dx = I, so the core C (r x s) holds the amplitudes: its
    singular values are the Schmidt coefficients and |C|_F^2 is the norm.
    A product kernel has r = 1, a two-slit kernel r = 2, and a dense kernel
    r = N.  Factors that are not orthonormal go through `from_factors`.
    """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray
    grid: Grid1D

    @classmethod
    def from_factors(cls, A, C, B, grid: Grid1D) -> "BipartiteWave":
        """Psi = A C B^H for any factors, O(N r^2).

        A dx-weighted QR of A and B (one QR if B is A) moves R_A C R_B^H into the core.
        """
        sqrt_dx = np.sqrt(grid.dx)
        QA, RA = np.linalg.qr(np.asarray(A) * sqrt_dx)
        QB, RB = (QA, RA) if B is A else np.linalg.qr(np.asarray(B) * sqrt_dx)
        left = QA / sqrt_dx
        right = left if B is A else QB / sqrt_dx
        return cls(left, RA @ np.asarray(C) @ RB.conj().T, right, grid)

    @classmethod
    def from_kernel(cls, K, grid: Grid1D) -> "BipartiteWave":
        """A dense N x N kernel K as the rank-N state A = B = I / sqrt(dx), C = K dx."""
        eye = np.eye(grid.n_points) / np.sqrt(grid.dx)
        return cls(eye, np.asarray(K) * grid.dx, eye, grid)


@dataclass(frozen=True)
class PropagatorConfig:
    """Time step, step count, and integration method.

    dt may be negative to run time-reversed; it must be nonzero.
    """

    dt: float
    steps: int
    method: str = "crank-nicolson"

    def __post_init__(self):
        if self.dt == 0:
            raise SimulationError("dt must be nonzero")
        if self.steps < 0:
            raise SimulationError(f"steps must be >= 0, got {self.steps}")
        if self.method not in METHODS:
            raise SimulationError(f"unknown method {self.method!r}; expected one of {METHODS}")


def normalize(psi: WaveFunction) -> WaveFunction:
    norm = psi.norm()
    if not 0.0 < norm < np.inf:
        raise UnnormalizedStateError(f"cannot normalize a state of norm {norm}")
    return replace(psi, amplitudes=psi.amplitudes / norm)


def gaussian_packet(grid: Grid1D, center: float, sigma: float, momentum: float = 0.0) -> WaveFunction:
    """Normalized Gaussian wave packet exp(-(x-x0)^2/(4 sigma^2) + i k x).

    The parameters enter as numpy floats, so that an overflow or a vanishing
    width gives a zero or non-finite packet, which normalize refuses.
    """
    x = grid.points
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked by normalize
        amp = np.exp(-((x - center) ** 2) / (4.0 * np.float64(sigma) ** 2) + 1j * momentum * x)
    return normalize(WaveFunction(amp.astype(complex), grid))


class CrankNicolsonStepper:
    """One Cayley step (I + i a H)^-1 (I - i a H), a = dt / 2 hbar, on H's tridiagonals.

    The tridiagonal scheme of Goldberg, Schey & Schwartz, Am. J. Phys. 35, 177
    (1967), taken as one solve per step: (I + i a H)^-1 (I - i a H) =
    2 (I + i a H)^-1 - I, so L = (I + i a H)/2 is factored once with LAPACK's
    tridiagonal LU (gttrf) and a step is v <- L^-1 v - v, one gttrs solve.
    (I - i a H) v is never formed, so a stiff H whose product with v would
    overflow steps as any other.  apply() accepts a vector or a matrix of
    column vectors.  A dt so large that the factors overflow raises
    SimulationError.
    """

    def __init__(self, H: HamiltonianMatrix, dt: float):
        a = 0.25j * dt / H.hbar
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            d, e = a * H.diagonal, a * H.off_diagonal
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise SimulationError(f"Crank-Nicolson factors are not finite at dt={dt}")
        d += 0.5
        # gttrf factors in place; dl and du are both e, so du is passed as a copy.
        *self._lu, info = zgttrf(e, d, e.copy(), overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info:
            raise SimulationError(f"Crank-Nicolson factorization failed: gttrf info={info}")

    def apply(self, v: np.ndarray, steps: int = 1) -> np.ndarray:
        """`steps` Cayley steps applied to v, which is left unchanged.

        A value past the float range leaves the result not finite.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # every run refuses a state that is not finite
            for _ in range(steps):
                u = zgttrs(*self._lu, v)[0]
                u -= v
                v = u
        return v


def _check_grids(a, b) -> None:
    """Refuse two operands (states, a Hamiltonian, an eigensystem) built on different grids."""
    if a.grid != b.grid:
        raise GridMismatchError(f"{type(a).__name__} and {type(b).__name__} were built on different grids")


def _check_normalized(norm_sq: float, what: str) -> None:
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # refuses NaN too
        raise UnnormalizedStateError(f"{what} is not normalized: |psi|^2 = {norm_sq}")


def _real_times(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """S @ X; for a real S and a complex X, X is multiplied as its interleaved real and imaginary parts.

    One real product, so S is never copied to complex and the cost is half
    that of a complex product.
    """
    if np.iscomplexobj(S) or not np.iscomplexobj(X):
        return S @ X
    X = np.ascontiguousarray(X, dtype=complex)
    return (S @ X.view(np.float64).reshape(X.shape[0], -1)).view(complex).reshape(X.shape)


class SpectralPropagator:
    """Propagators S diag(f(E)) S^T of one method, from one full eigensolve of H.

    S holds the Euclidean-orthonormal eigenvectors of H and f(E) the method's
    factor for a step count, so one instance serves every step count of a run.
    A factor that is not finite (dt or steps * dt overflows) raises
    SimulationError.  The eigensolve refuses an H with a state that is no
    eigenvector (EigensolverError), whose S would not be orthonormal nor the
    propagator unitary.
    """

    def __init__(self, H: HamiltonianMatrix, dt: float, method: str):
        eigs = eigensystem(H, H.grid.n_points)
        self._S = eigs.states  # this run's own eigensystem, scaled back to Euclidean norm in place
        self._S *= np.sqrt(H.grid.dx)
        self._E = eigs.energies
        self._dt, self._method, self._hbar = dt, method, H.hbar

    def _factor(self, steps: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # atan(inf) is finite; the rest is checked
            if self._method == "eigenbasis":
                f = np.exp(-1j * self._E * (steps * self._dt) / self._hbar)
            else:
                f = np.exp(-2j * steps * np.arctan(0.5 * self._dt * self._E / self._hbar))
        if not np.isfinite(f).all():
            raise SimulationError(f"{self._method} factor is not finite at dt={self._dt}, steps={steps}")
        return f

    def apply(self, v: np.ndarray, steps: int) -> np.ndarray:
        """`steps` steps applied to the vector v, or to each column of v, O(N^2) per column."""
        projected = _real_times(self._S.T, v)
        f = self._factor(steps)
        return _real_times(self._S, f.reshape(f.shape + (1,) * (projected.ndim - 1)) * projected)

    def trajectory(self, state: WaveFunction | BipartiteWave, counts) -> np.ndarray:
        """Rows (norm, x_mean) of state after each step count in counts.

        Both are x-side observables, so they read the state only through
        rho_x, which in the eigenbasis is R~ = G G^H with G = S^T (A C) sqrt(dx)
        (N x r; G = S^T psi sqrt(dx) for a vector, the r = 1 case), projected
        once.  `steps` steps take G to f * G.  The rows are read in whichever
        order costs fewer operations (`_reduced_order_pays`):
        - factor order: Y = S (f * G), norm = sum |Y|^2 and x_mean =
          sum x |Y|^2, O(N^2 r) per row;
        - reduced-operator order: M = X~ o conj(R~) once, with
          X~ = S^T diag(x) S, then x_mean = Re f^H M f and
          norm = sum |f|^2 diag(R~), O(N^2) per row.
        """
        grid, S = state.grid, self._S
        x = grid.points
        if isinstance(state, WaveFunction):
            G = _real_times(S.T, state.amplitudes[:, None])
        else:
            G = _real_times(_real_times(S.T, state.left), state.core)
        G *= np.sqrt(grid.dx)
        rows = np.empty((len(counts), 2))
        if _reduced_order_pays(*G.shape, len(counts)):
            M = _lapack.zgemm(1.0, G.T, G.T, trans_a=2)  # conj(R~) = conj(G) G^T, with no conjugated copy of G
            del G
            weights = M.diagonal().real.copy()
            X = (S.T * x) @ S
            M *= X
            del X
            for i, steps in enumerate(counts):
                f = self._factor(steps)
                rows[i] = np.abs(f) ** 2 @ weights, np.vdot(f, _real_times(M, f)).real
        else:
            for i, steps in enumerate(counts):
                density = np.sum(np.abs(_real_times(S, self._factor(steps)[:, None] * G)) ** 2, axis=1)
                rows[i] = np.sum(density), x @ density
        return rows


def _reduced_order_pays(n: int, r: int, rows: int) -> bool:
    """Whether `rows` samples of a rank-r state on n points cost fewer operations in the reduced-operator order.

    Counted in real multiply-adds: the factor order costs 2 n^2 r per row
    (the real S times the complex n x r f * G); the reduced-operator order
    costs n^3 for X~, 4 n^2 r for R~ = G G^H, then 4 n^2 per row.
    """
    return n + 4 * r + 4 * rows < 2 * rows * r


def propagate_schrodinger(psi: WaveFunction, H: HamiltonianMatrix, cfg: PropagatorConfig) -> WaveFunction:
    """Evolve psi by steps*dt under the single-particle equation."""
    _check_grids(psi, H)
    _check_normalized(psi.norm() ** 2, "wave function")
    if cfg.steps == 0:
        return psi
    return WaveFunction(propagate_amplitudes(psi.amplitudes, H, cfg), psi.grid)


def _stepped(method: str, columns: int, n: int) -> bool:
    """Whether `columns` columns on n points take Crank-Nicolson steps, O(n) each, rather than one eigensolve."""
    return method == "crank-nicolson" and columns < n


def propagate_amplitudes(v: np.ndarray, H: HamiltonianMatrix, cfg: PropagatorConfig) -> np.ndarray:
    """cfg.steps steps of cfg.method applied to the vector v, or to each column of the N x r array v."""
    if cfg.steps == 0:
        return v
    if _stepped(cfg.method, v.size // len(v), len(v)):
        return CrankNicolsonStepper(H, cfg.dt).apply(v, cfg.steps)
    return SpectralPropagator(H, cfg.dt, cfg.method).apply(v, cfg.steps)


def propagate_vnl(Psi: BipartiteWave, H: HamiltonianMatrix, cfg: PropagatorConfig) -> BipartiteWave:
    """Evolve a kernel under i hbar dPsi/dt = (H(x) - H(y)) Psi: one propagation of [A B], or of A if B is A."""
    _check_grids(Psi, H)
    _check_normalized(bipartite_norm(Psi), "bipartite wave")
    if cfg.steps == 0:
        return Psi
    shared, r = Psi.right is Psi.left, Psi.left.shape[1]
    F = propagate_amplitudes(Psi.left if shared else np.hstack([Psi.left, Psi.right]), H, cfg)
    left, right = (F, F) if shared else (F[:, :r], F[:, r:])
    return BipartiteWave(left, Psi.core, right, Psi.grid)


def trajectory(
    state: WaveFunction | BipartiteWave, H: HamiltonianMatrix, cfg: PropagatorConfig, stride: int
) -> np.ndarray:
    """Rows (t, norm, x_mean) of state after 0, stride, 2 stride, ... and cfg.steps steps.

    norm is the total probability of the evolved state, sum |psi|^2 dx for a
    vector and sum |Psi|^2 dx^2 for a kernel, so it watches the propagation;
    x_mean is the mean position.  A C is stepped (`_stepped_trajectory`), or the
    state read in the eigenbasis of one eigensolve, as `_stepped` decides.
    """
    _check_grids(state, H)
    one_partite = isinstance(state, WaveFunction)
    _check_normalized(state.norm() ** 2 if one_partite else bipartite_norm(state), "initial state")
    counts = list(range(0, cfg.steps, stride)) + [cfg.steps]
    if _stepped(cfg.method, 1 if one_partite else state.core.shape[1], state.grid.n_points):
        F = state.amplitudes[:, None] if one_partite else state.left @ state.core
        values = _stepped_trajectory(F, state.grid, CrankNicolsonStepper(H, cfg.dt), counts)
    else:
        values = SpectralPropagator(H, cfg.dt, cfg.method).trajectory(state, counts)
    with np.errstate(over="ignore"):  # a time past the float range, which run_scenario refuses
        times = cfg.dt * np.array(counts, dtype=float)
    return np.column_stack([times, values])


def _stepped_trajectory(F: np.ndarray, grid: Grid1D, stepper: CrankNicolsonStepper, counts) -> np.ndarray:
    """Rows (norm, x_mean) of F = A C stepped to each step count in counts, O(N r) per step.

    B is dx-orthonormal, so the density of A C B^H is the row sums of |A C|^2 dx.
    """
    x, dx = grid.points, grid.dx
    rows = np.empty((len(counts), 2))
    for i, steps in enumerate(np.diff(counts, prepend=0)):
        F = stepper.apply(F, steps)
        with np.errstate(over="ignore", invalid="ignore"):  # a state past the float range, which run_scenario refuses
            density = np.sum(np.abs(F) ** 2, axis=1) * dx
            rows[i] = np.sum(density), x @ density
    return rows


def bipartite_norm(Psi: BipartiteWave) -> float:
    """Squared norm sum |Psi_ij|^2 dx^2 = |C|_F^2, O(r^2), for factors that are dx-orthonormal.

    The evolution never changes C, so this cannot watch the propagation: the
    norm of an evolved state as it is held is the sum of its position density.
    """
    return float(np.sum(np.abs(Psi.core) ** 2))
