"""Spatial discretization and Hamiltonian assembly for a single particle in 1-D.

The Hamiltonian H = -hbar^2/(2m) d^2/dx^2 + U(x) is discretized with the
3-point central second difference on a uniform grid, giving a real symmetric
tridiagonal matrix.  Dirichlet behavior (wave function vanishing just outside
the grid) is implicit in the stencil truncation.  All integrals are
dx-weighted Riemann sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, HamiltonianError, PotentialError
from .schema import POTENTIAL_KINDS


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_i = x_min + i*dx, i = 0 .. n_points-1."""

    x_min: float
    x_max: float
    n_points: int
    dx: float

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def norm(self, f) -> float:
        return float(np.sqrt(np.sum(np.abs(f) ** 2) * self.dx))


def build_grid(x_min: float, x_max: float, n_points: int) -> Grid1D:
    """Uniform grid over [x_min, x_max] with n_points points (endpoints included)."""
    if x_max <= x_min:
        raise GridError(f"degenerate interval: x_max={x_max} <= x_min={x_min}")
    if n_points < 8:
        raise GridError(f"too few points: n_points={n_points} < 8")
    dx = (x_max - x_min) / (n_points - 1)
    if not math.isfinite(dx):
        raise GridError(f"grid spacing is not finite: x_min={x_min}, x_max={x_max}")
    return Grid1D(float(x_min), float(x_max), int(n_points), dx)


def box_grid(length: float, n_points: int, x_min: float = 0.0) -> Grid1D:
    """Grid for an infinite box of the given length with walls at x_min and x_min+length.

    The grid holds interior points only: with the 3-point stencil the wave
    function implicitly vanishes one spacing outside the grid, so placing the
    points at x_min + dx .. x_min + length - dx with dx = length/(n_points+1)
    puts the Dirichlet nodes exactly on the walls.  Box energies then match
    n^2 pi^2 hbar^2 / (2 m L^2) to O(dx^2).
    """
    if length <= 0:
        raise GridError(f"degenerate interval: length={length}")
    if n_points < 8:
        raise GridError(f"too few points: n_points={n_points} < 8")
    dx = length / (n_points + 1)
    return build_grid(x_min + dx, x_min + length - dx, n_points)


@dataclass(frozen=True)
class PotentialSpec:
    """External potential U(x), one of the supported families or a table."""

    kind: str
    params: dict

    @classmethod
    def infinite_box(cls) -> "PotentialSpec":
        return cls("infinite-box", {})

    @classmethod
    def harmonic(cls, omega: float, mass: float = 1.0) -> "PotentialSpec":
        if omega <= 0:
            raise PotentialError(f"harmonic omega must be positive, got {omega}")
        return cls("harmonic", {"omega": float(omega), "mass": float(mass)})

    @classmethod
    def double_well(cls, a: float, b: float) -> "PotentialSpec":
        return cls("double-well", {"a": float(a), "b": float(b)})

    @classmethod
    def barrier(cls, height: float, width: float, center: float = 0.0) -> "PotentialSpec":
        if width <= 0:
            raise PotentialError(f"barrier width must be positive, got {width}")
        return cls("barrier", {"height": float(height), "width": float(width), "center": float(center)})

    @classmethod
    def tabulated(cls, values) -> "PotentialSpec":
        return cls("tabulated", {"values": np.asarray(values, dtype=float)})


@np.errstate(over="ignore", invalid="ignore")
def sample_potential(grid: Grid1D, spec: PotentialSpec) -> np.ndarray:
    """Evaluate U(x_i) on the grid.

    The infinite box is U = 0 with confinement supplied by the Dirichlet
    boundaries; the double well is U = a (x^2 - b^2)^2 with minima at +-b.
    Parameters are squared as numpy floats, so that an overflow gives a
    non-finite U, which build_hamiltonian refuses.
    """
    x = grid.points
    if spec.kind == "infinite-box":
        return np.zeros(grid.n_points)
    if spec.kind == "harmonic":
        omega = np.float64(spec.params["omega"])
        mass = spec.params.get("mass", 1.0)
        return 0.5 * mass * omega**2 * x**2
    if spec.kind == "double-well":
        a, b = spec.params["a"], np.float64(spec.params["b"])
        return a * (x**2 - b**2) ** 2
    if spec.kind == "barrier":
        h, w, c = spec.params["height"], spec.params["width"], spec.params["center"]
        return np.where(np.abs(x - c) <= 0.5 * w, h, 0.0)
    if spec.kind == "tabulated":
        values = np.asarray(spec.params["values"], dtype=float)
        if values.shape != (grid.n_points,):
            raise PotentialError(
                f"tabulated length mismatch: {values.shape[0]} values for {grid.n_points} grid points"
            )
        return values.copy()
    raise PotentialError(f"unknown potential kind: {spec.kind!r}; expected one of {POTENTIAL_KINDS}")


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real symmetric tridiagonal discretization of -hbar^2/(2m) d^2/dx^2 + U(x)."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    hbar: float
    mass: float
    grid: Grid1D

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Tridiagonal mat-vec; v may be a vector (n,) or a stack of columns (n, k)."""
        v = np.asarray(v)
        d = self.diagonal if v.ndim == 1 else self.diagonal[:, None]
        e = self.off_diagonal if v.ndim == 1 else self.off_diagonal[:, None]
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out


def build_hamiltonian(grid: Grid1D, potential: np.ndarray, hbar: float = 1.0, mass: float = 1.0) -> HamiltonianMatrix:
    """Assemble the tridiagonal Hamiltonian from a sampled potential."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (grid.n_points,):
        raise HamiltonianError(
            f"potential length {potential.shape[0]} does not match n_points={grid.n_points}"
        )
    if hbar <= 0 or mass <= 0:
        raise HamiltonianError(f"hbar and mass must be positive, got hbar={hbar}, mass={mass}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mass_dx2 = mass * np.float64(grid.dx) ** 2
        t = np.float64(hbar) ** 2 / mass_dx2
        diagonal = t + potential
    off_diagonal = np.full(grid.n_points - 1, -0.5 * t)
    if not (np.isfinite(mass_dx2) and np.isfinite(diagonal).all() and np.isfinite(off_diagonal).all()):
        raise HamiltonianError(
            f"Hamiltonian is not finite: mass dx^2 = {mass_dx2}, hbar^2/(mass dx^2) = {t}, "
            f"max |U| = {np.abs(potential).max()}"
        )
    return HamiltonianMatrix(diagonal, off_diagonal, float(hbar), float(mass), grid)
