"""Time propagation of one-partite and bipartite states.

One-partite states evolve under i hbar dpsi/dt = H psi; bipartite kernels
Psi(x, y) under i hbar dPsi/dt = (H(x) - H(y)) Psi, realized as
Psi <- U Psi U^dagger.  A kernel is held factored, Psi = A C A^H, with one
factor A for both arguments, and H(x) - H(y) is separable, so Psi evolves as
(U A) C (U A)^H: the Schrodinger evolution of its N x r factor (a vector is
r = 1), with U never formed.  A run builds one U (`propagator`) for all its
propagations.  By `schema.stepped`, the rule the work budget reads too,
Crank-Nicolson steps every factor of fewer columns than grid points:
L = (I + i a H)/2 is factored once (gttrf), and a step is one solve of it
(gttrs) less the state, O(N r).  Each column evolves on its own, so a long
call steps groups of columns on every CPU the process may use, with the
same bytes on any number of CPUs.  The eigenbasis method, and a dense
kernel (r = N), use U = S diag(f(E)) S^T of the full eigensystem, with
f(E) = exp(-i E t / hbar) or the Cayley factor exp(-2i steps atan(dt E / 2hbar)).
A trajectory of x-side observables reads A C, stepped, or rho_x = Psi Psi^H
dx^2, projected on the eigenbasis once; for a rank-N state that is level-3
BLAS throughout: one triangle of rho_x by zherk, and the rows of a block of
step counts in one matrix product.  Every product of a factor or an
eigenbasis goes through `_times`, which reads the 0-d factor s of a dense
kernel (`BipartiteWave.from_kernel`) as s I and casts no real operand to
complex.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from . import _lapack, _workers
from ._lapack import zgttrf, zgttrs
from .errors import GridMismatchError, SimulationError, UnnormalizedStateError
from .lattice import Grid1D, HamiltonianMatrix
from .schema import METHODS, sampled_steps, stepped
from .spectra import EigenSystem, eigensystem

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
    """Kernel Psi(x, y) = A C A^H on the grid square.

    The one factor A (N x r) spans both arguments and has dx-orthonormal
    columns, A^H A dx = I, so the core C (r x r) holds the amplitudes: its
    singular values are the Schmidt coefficients and |C|_F^2 is the norm.
    A product kernel psi psi^* has r = 1, a two-slit kernel r = 2, and a
    dense kernel r = N, whose factor is the scalar s = 1 / sqrt(dx) standing
    for s I.  Factors that are not orthonormal go through `from_factors`.
    """

    factor: np.ndarray
    core: np.ndarray
    grid: Grid1D

    @classmethod
    def from_factors(cls, F, C, grid: Grid1D) -> "BipartiteWave":
        """Psi = F C F^H for any N x r factor F, O(N r^2): one dx-weighted QR F = Q R moves R C R^H into the core.

        A kernel A C B^H of two factor families is F = [A B] with the core [[0, C], [0, 0]].
        """
        sqrt_dx = np.sqrt(grid.dx)
        Q, R = np.linalg.qr(np.asarray(F) * sqrt_dx)
        return cls(Q / sqrt_dx, R @ np.asarray(C) @ R.conj().T, grid)

    @classmethod
    def from_kernel(cls, K, grid: Grid1D) -> "BipartiteWave":
        """A dense N x N kernel K as the rank-N state A = I / sqrt(dx), C = K dx.

        The factor is the one scalar s = 1 / sqrt(dx), which `_times` reads
        as s I: the eigenbasis projection S^T A is S^T s and A C is C s, with
        no N x N factor and no N^3 product.  A K that is not N x N raises
        GridMismatchError.
        """
        K, n = np.asarray(K), grid.n_points
        if K.shape != (n, n):
            raise GridMismatchError(f"a kernel of shape {K.shape} on a grid of {n} points")
        scale = np.float64(1 / np.sqrt(grid.dx))
        return cls(scale, K * grid.dx, grid)


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


# A call steps its columns on several threads only when both of these pay, as measured on a
# 2-vCPU host with two columns:
# - A step's solve of one column outweighs handing the GIL between threads, which every step
#   releases and takes again.  Split, a call at N = 200 / 300 / 400 took 2.0 / 1.6 / 1.0 times as
#   long as one call, at any step count; at N = 450 / 512 / 801 and 2^14 point-steps, 0.81 / 0.79
#   / 0.70 times.
# - The call's work per column, steps x N point-steps at about 15 ns each, outweighs starting and
#   joining a thread, about 50 us or 3e3 point-steps.  Split, a call at N = 801 took 1.10 / 0.85 /
#   0.70 times as long at 2^12 / 2^13 / 2^14 point-steps, and an evolve of a two-slit state at
#   stride 1 (801 point-steps a call) 0.104 s against 0.037 s.
_SPLIT_MIN_POINTS = 512
_SPLIT_POINT_STEPS = 2**14


class CrankNicolsonStepper:
    """One Cayley step (I + i a H)^-1 (I - i a H), a = dt / 2 hbar, on H's tridiagonals.

    The tridiagonal scheme of Goldberg, Schey & Schwartz, Am. J. Phys. 35, 177
    (1967), taken as one solve per step: (I + i a H)^-1 (I - i a H) =
    2 (I + i a H)^-1 - I, so L = (I + i a H)/2 is factored once with LAPACK's
    tridiagonal LU (gttrf) and a step is v <- L^-1 v - v, one gttrs solve.
    (I - i a H) v is never formed, so a stiff H whose product with v would
    overflow steps as any other.  apply() accepts a vector or a matrix of
    column vectors, and steps the columns of a long call on every CPU the
    process may use.  A dt so large that the factors overflow raises
    SimulationError.
    """

    def __init__(self, H: HamiltonianMatrix, dt: float):
        self.grid = H.grid
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

        The r columns of a matrix v are stepped in w = min(r, CPUs) contiguous
        groups, one per worker of `_workers.ordered_map`, when v has at least
        _SPLIT_MIN_POINTS rows and each column takes at least
        _SPLIT_POINT_STEPS point-steps (steps x N).  gttrs solves each column
        with the same arithmetic, and the groups are assembled in the memory
        order of one gttrs call, so the bytes do not depend on w.  A value
        past the float range leaves the result not finite.
        """
        columns, n = (v.shape[1] if v.ndim == 2 else 1), len(v)
        split = columns > 1 and n >= _SPLIT_MIN_POINTS and steps * n >= _SPLIT_POINT_STEPS
        workers = min(columns, _workers._cpu_count()) if split else 1  # a short call makes no syscall
        if workers == 1:
            return self._steps(v, steps)
        bounds = [columns * i // workers for i in range(workers + 1)]
        groups = []
        _workers.ordered_map(lambda i, stop: self._steps(v[:, bounds[i]:bounds[i + 1]], steps, stop),
                             range(workers), workers, groups.append)
        out = np.empty(v.shape, dtype=complex, order="F")  # gttrs returns N x r in Fortran order
        for i, group in enumerate(groups):
            out[:, bounds[i]:bounds[i + 1]] = group
        return out

    def _steps(self, v: np.ndarray, steps: int, stop: threading.Event | None = None) -> np.ndarray:
        """`steps` steps of v on this thread, or fewer once stop is set."""
        # numpy's error state is per thread, so each worker enters its own.
        with np.errstate(over="ignore", invalid="ignore"):  # every run refuses a state that is not finite
            for _ in range(steps):
                if stop is not None and stop.is_set():
                    break
                u = zgttrs(*self._lu, v)[0]
                u -= v
                v = u
        return v

    def trajectory(self, state: WaveFunction | BipartiteWave, counts) -> np.ndarray:
        """Rows (norm, x_mean) of F = A C (psi for a vector) stepped to each count in counts, O(N r) per step.

        A is dx-orthonormal, so the density of A C A^H is the row sums of |F|^2 dx.
        """
        F = state.amplitudes[:, None] if isinstance(state, WaveFunction) else _times(state.factor, state.core)
        x, dx = self.grid.points, self.grid.dx
        rows = np.empty((len(counts), 2))
        for i, steps in enumerate(np.diff(counts, prepend=0)):
            F = self.apply(F, steps)
            with np.errstate(over="ignore", invalid="ignore"):  # past the float range, which run_scenario refuses
                density = np.sum(np.abs(F) ** 2, axis=1) * dx
                rows[i] = np.sum(density), x @ density
        return rows


def _check_grids(a, b) -> None:
    """Refuse two operands (a state and a propagator) built on different grids."""
    if a.grid != b.grid:
        raise GridMismatchError(f"{type(a).__name__} and {type(b).__name__} were built on different grids")


def _check_normalized(norm_sq: float, what: str) -> None:
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # refuses NaN too
        raise UnnormalizedStateError(f"{what} is not normalized: |psi|^2 = {norm_sq}")


def _times(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P @ Q, the one product of a state's factor or an eigenbasis with another array.

    A 0-d operand s, the factor of a `from_kernel` state, is read as s I, so
    no product with the identity is formed.  For a real P and a complex Q, Q
    is multiplied as its interleaved real and imaginary parts: one real
    product, so P is never copied to complex and the cost is half that of a
    complex product; a complex P and a real Q are multiplied the same way,
    transposed.  Either operand may be a vector.
    """
    if np.ndim(P) == 0:
        return Q * P
    if np.ndim(Q) == 0:
        return P * Q
    if np.iscomplexobj(P) == np.iscomplexobj(Q):
        return P @ Q
    if np.iscomplexobj(P):  # P Q = (Q^T P^T)^T, with the real operand on the left
        return _times(Q.T, P.T).T
    Q = np.ascontiguousarray(Q, dtype=complex)
    return (P @ Q.view(np.float64).reshape(Q.shape[0], -1)).view(complex).reshape(P.shape[:-1] + Q.shape[1:])


class SpectralPropagator:
    """Propagators S diag(f(E)) S^T of one method, from the full eigensystem of H.

    S holds the Euclidean-orthonormal eigenvectors of H and f(E) the method's
    factor for a step count, so one instance serves every step count of a run.
    It takes over eigs, the run's solve of all N levels of H (whose hbar it
    is given), and scales its states back to Euclidean norm in place, so eigs
    is not read after.  A factor that is not finite (dt or steps * dt
    overflows) raises SimulationError.
    """

    def __init__(self, eigs: EigenSystem, dt: float, method: str, hbar: float):
        self.grid, self._S, self._E = eigs.grid, eigs.states, eigs.energies
        self._S *= np.sqrt(self.grid.dx)
        self._dt, self._method, self._hbar = dt, method, hbar

    def _factor(self, steps) -> np.ndarray:
        """The method's f(E) for a step count (N), or for each of a 1-D array of counts (counts x N, a row each).

        The first count whose factor is not finite raises SimulationError.
        """
        steps = np.asarray(steps)
        if steps.ndim:
            steps = steps[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # atan(inf) is finite; the rest is checked
            if self._method == "eigenbasis":
                f = np.exp(-1j * self._E * (steps * self._dt) / self._hbar)
            else:
                f = np.exp(-2j * steps * np.arctan(0.5 * self._dt * self._E / self._hbar))
        finite = np.isfinite(f).all(axis=-1)
        if not finite.all():
            first = steps[~finite][0, 0] if steps.ndim else steps
            raise SimulationError(f"{self._method} factor is not finite at dt={self._dt}, steps={first}")
        return f

    def apply(self, v: np.ndarray, steps: int) -> np.ndarray:
        """`steps` steps applied to the vector v, or to each column of v (of v I for a 0-d v), O(N^2) per column."""
        if steps == 0:
            return v
        projected = _times(self._S.T, v)
        f = self._factor(steps)
        return _times(self._S, f.reshape(f.shape + (1,) * (projected.ndim - 1)) * projected)

    def trajectory(self, state: WaveFunction | BipartiteWave, counts) -> np.ndarray:
        """Rows (norm, x_mean) of state after each step count in counts.

        Both are x-side observables, so they read the state only through
        rho_x, which in the eigenbasis is R~ = G G^H with G = S^T (A C) sqrt(dx)
        (N x r; G = S^T psi sqrt(dx) for a vector, the r = 1 case), projected
        once; for a `from_kernel` state that is S^T C, with no identity
        product (`_times`).  `steps` steps take G to f * G.  The rows are read
        in whichever order costs fewer operations (`_reduced_order_pays`):
        - factor order: Y = S (f * G), norm = sum |Y|^2 and x_mean =
          sum x |Y|^2, O(N^2 r) per row;
        - reduced-operator order: conj(R~) by BLAS zherk, one triangle, and
          M = X~ o conj(R~) once, with X~ = S^T diag(x) S.  M is Hermitian,
          so f^H M f = f^H D f + 2 Re f^H L f and only 2 L + D is kept.  The
          factors of a block of rows are one array F: x_mean = Re f^H M f of
          every row of the block takes one product M F, and norm =
          sum |f|^2 diag(R~) one product with diag(R~), O(N^2) per row.
        """
        grid, S = state.grid, self._S
        n, x = grid.n_points, grid.points
        if isinstance(state, WaveFunction):
            G = _times(S.T, state.amplitudes[:, None])
        else:
            G = _times(_times(S.T, state.factor), state.core)
        G *= np.sqrt(grid.dx)
        rows = np.empty((len(counts), 2))
        if _reduced_order_pays(*G.shape, len(counts)):
            # the lower triangle of conj(R~) = conj(G) G^T, with no conjugated copy of G; the upper stays 0
            M = _lapack.zherk(1.0, G.T, trans=2, lower=1, c=np.zeros((n, n), complex, order="F"), overwrite_c=1)
            del G
            weights = M.diagonal().real.copy()
            # M = X~ o conj(R~) is Hermitian, so f^H M f = f^H D f + 2 Re f^H L f: M is kept as 2 L + D, from X~
            # doubled off its diagonal, which is exact.  X~ is symmetric; its transpose is in M's Fortran order.
            X = (S.T * (2.0 * x)) @ S
            X[np.diag_indices(n)] *= 0.5
            M *= X.T
            del X
            # F and M F of a block take 2 x 16 N b bytes, half of the 16 N^2 the budget charges.
            block = max(1, n // 4)
            for start in range(0, len(counts), block):
                F = self._factor(counts[start:start + block])  # a row f per count, so each sum runs along a row
                part = rows[start:start + len(F)]
                density = np.abs(F)
                density *= density
                part[:, 0] = density @ weights
                products = (F @ M.T).view(np.float64)  # (M f)^T of each row, as interleaved real and imaginary parts
                products *= F.view(np.float64)
                part[:, 1] = products.sum(axis=1)  # Re f^H M f
        else:
            for i, steps in enumerate(counts):
                density = np.sum(np.abs(_times(S, self._factor(steps)[:, None] * G)) ** 2, axis=1)
                rows[i] = np.sum(density), x @ density
        return rows


def _reduced_order_pays(n: int, r: int, rows: int) -> bool:
    """Whether `rows` samples of a rank-r state on n points cost fewer operations in the reduced-operator order.

    Counted in real multiply-adds: the factor order costs 2 n^2 r per row
    (the real S times the complex n x r f * G); the reduced-operator order
    costs n^3 for X~, 2 n^2 r for one triangle of R~ = G G^H (zherk), then
    4 n^2 per row (M F).
    """
    return n + 2 * r + 4 * rows < 2 * rows * r


def propagator(H: HamiltonianMatrix, cfg: PropagatorConfig, columns: int, eigs: EigenSystem | None = None):
    """The one U of a run of cfg whose factor has `columns` columns, by `schema.stepped`: a stepper of one LU,
    or a spectral propagator of eigs, the run's full eigensystem of H, or of the one eigensolve made here."""
    n = H.grid.n_points
    if stepped(cfg.method, columns, n):
        return CrankNicolsonStepper(H, cfg.dt)
    return SpectralPropagator(eigensystem(H, n) if eigs is None else eigs, cfg.dt, cfg.method, H.hbar)


def propagate_schrodinger(psi: WaveFunction, U, cfg: PropagatorConfig) -> WaveFunction:
    """Evolve psi by cfg.steps steps of the run's U (`propagator`) under the single-particle equation."""
    _check_grids(psi, U)
    _check_normalized(psi.norm() ** 2, "wave function")
    if cfg.steps == 0:
        return psi
    return WaveFunction(U.apply(psi.amplitudes, cfg.steps), psi.grid)


def propagate_vnl(Psi: BipartiteWave, U, cfg: PropagatorConfig) -> BipartiteWave:
    """Evolve a kernel under i hbar dPsi/dt = (H(x) - H(y)) Psi: (U A) C (U A)^H, cfg.steps steps of U on A."""
    _check_grids(Psi, U)
    _check_normalized(bipartite_norm(Psi), "bipartite wave")
    return BipartiteWave(U.apply(Psi.factor, cfg.steps), Psi.core, Psi.grid)


def trajectory(state: WaveFunction | BipartiteWave, U, cfg: PropagatorConfig, stride: int) -> np.ndarray:
    """Rows (t, norm, x_mean) of state after 0, stride, 2 stride, ... and cfg.steps steps of the run's U.

    norm is the total probability of the evolved state, sum |psi|^2 dx for a
    vector and sum |Psi|^2 dx^2 for a kernel, so it watches the propagation;
    x_mean is the mean position.  U.trajectory reads both.
    """
    _check_grids(state, U)
    _check_normalized(state.norm() ** 2 if isinstance(state, WaveFunction) else bipartite_norm(state), "initial state")
    counts = [*sampled_steps(cfg.steps, stride), cfg.steps]
    with np.errstate(over="ignore"):  # a time past the float range, which run_scenario refuses
        times = cfg.dt * np.array(counts, dtype=float)
    return np.column_stack([times, U.trajectory(state, counts)])


def bipartite_norm(Psi: BipartiteWave) -> float:
    """Squared norm sum |Psi_ij|^2 dx^2 = |C|_F^2, O(r^2), for factors that are dx-orthonormal.

    The evolution never changes C, so this cannot watch the propagation: the
    norm of an evolved state as it is held is the sum of its position density.
    """
    return float(np.sum(np.abs(Psi.core) ** 2))
