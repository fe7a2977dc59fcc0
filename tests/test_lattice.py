import numpy as np
import pytest

from vnlw.errors import GridError, HamiltonianError, PotentialError
from vnlw.lattice import (
    PotentialSpec,
    box_grid,
    build_grid,
    build_hamiltonian,
    sample_potential,
)
from oracles import dense


class TestBuildGrid:
    def test_unit_interval(self):
        g = build_grid(0, 1, 11)
        assert g.dx == pytest.approx(0.1)
        assert g.points[5] == pytest.approx(0.5)

    def test_symmetric_midpoint(self):
        g = build_grid(-10, 10, 201)
        assert g.dx == pytest.approx(0.1)
        assert g.points[100] == pytest.approx(0.0)

    def test_too_few_points(self):
        with pytest.raises(GridError):
            build_grid(0, 1, 2)

    def test_degenerate_interval(self):
        with pytest.raises(GridError):
            build_grid(1, 1, 11)
        with pytest.raises(GridError):
            build_grid(2, 1, 11)

    def test_span_not_finite(self):
        with pytest.raises(GridError, match="not finite"):
            build_grid(-1e308, 1e308, 11)
        with pytest.raises(GridError, match="not finite"):
            box_grid(float("inf"), 11)

    def test_box_grid_walls(self):
        g = box_grid(1.0, 99)
        # Dirichlet ghost nodes sit exactly on the walls
        assert g.points[0] == pytest.approx(g.dx)
        assert g.points[-1] == pytest.approx(1.0 - g.dx)
        assert g.dx == pytest.approx(1.0 / 100)


class TestSamplePotential:
    def test_harmonic_values(self):
        g = build_grid(0, 4, 9)  # dx = 0.5, x_4 = 2
        v = sample_potential(g, PotentialSpec.harmonic(1.0))
        assert v[0] == pytest.approx(0.0)
        assert v[4] == pytest.approx(2.0)

    def test_infinite_box_is_zero(self):
        g = build_grid(-3, 3, 17)
        assert np.all(sample_potential(g, PotentialSpec.infinite_box()) == 0.0)

    def test_barrier(self):
        g = build_grid(-5, 5, 101)
        v = sample_potential(g, PotentialSpec.barrier(height=2.0, width=1.0, center=0.0))
        x = g.points
        assert np.all(v[np.abs(x) <= 0.5] == 2.0)
        assert np.all(v[np.abs(x) > 0.51] == 0.0)

    def test_double_well_minima(self):
        g = build_grid(-4, 4, 161)
        v = sample_potential(g, PotentialSpec.double_well(a=1.0, b=2.0))
        x = g.points
        assert v[np.argmin(np.abs(x - 2.0))] == pytest.approx(0.0, abs=1e-12)
        assert v[np.argmin(np.abs(x + 2.0))] == pytest.approx(0.0, abs=1e-12)
        assert v[np.argmin(np.abs(x))] == pytest.approx(16.0)

    def test_tabulated_length_mismatch(self):
        g = build_grid(0, 1, 11)
        with pytest.raises(PotentialError):
            sample_potential(g, PotentialSpec.tabulated(np.zeros(10)))

    def test_invalid_parameters(self):
        with pytest.raises(PotentialError):
            PotentialSpec.harmonic(-1.0)
        with pytest.raises(PotentialError):
            PotentialSpec.barrier(height=1.0, width=0.0)


class TestBuildHamiltonian:
    def test_unit_stencil(self):
        g = build_grid(0, 9, 10)  # dx = 1
        H = build_hamiltonian(g, np.zeros(10), hbar=1.0, mass=1.0)
        assert np.allclose(H.diagonal, 1.0)
        assert np.allclose(H.off_diagonal, -0.5)

    def test_constant_potential_shift(self):
        g = build_grid(0, 1, 21)
        H0 = build_hamiltonian(g, np.zeros(21))
        Hc = build_hamiltonian(g, np.full(21, 3.5))
        assert np.allclose(Hc.diagonal, H0.diagonal + 3.5)
        assert np.allclose(Hc.off_diagonal, H0.off_diagonal)

    def test_laplacian_of_constant_vanishes_inside(self):
        g = build_grid(0, 1, 21)
        H = build_hamiltonian(g, np.zeros(21))
        out = H.apply(np.ones(21))
        assert np.allclose(out[1:-1], 0.0, atol=1e-10)
        assert out[0] != 0.0 and out[-1] != 0.0

    def test_potential_linearity(self):
        g = build_grid(-1, 1, 33)
        rng = np.random.default_rng(7)
        u1, u2 = rng.standard_normal(33), rng.standard_normal(33)
        H12 = build_hamiltonian(g, u1 + u2)
        H1 = build_hamiltonian(g, u1)
        assert np.allclose(H12.diagonal, H1.diagonal + u2)
        assert np.allclose(H12.off_diagonal, H1.off_diagonal)

    def test_hermiticity(self):
        g = build_grid(-2, 2, 65)
        rng = np.random.default_rng(3)
        H = build_hamiltonian(g, rng.standard_normal(65))
        for _ in range(10):
            u = rng.standard_normal(65) + 1j * rng.standard_normal(65)
            v = rng.standard_normal(65) + 1j * rng.standard_normal(65)
            lhs = np.vdot(u, H.apply(v)) * g.dx
            rhs = np.vdot(H.apply(u), v) * g.dx
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_dense_matches_apply(self):
        g = build_grid(0, 1, 12)
        rng = np.random.default_rng(0)
        H = build_hamiltonian(g, rng.standard_normal(12))
        v = rng.standard_normal(12)
        assert np.allclose(dense(H) @ v, H.apply(v))

    def test_stencil_second_order(self):
        # H sin(kx) -> (k^2/2) sin(kx) with O(dx^2) interior error
        k = 3.0
        errors = []
        for n in (101, 201, 401):
            g = build_grid(0, np.pi, n)
            H = build_hamiltonian(g, np.zeros(n))
            psi = np.sin(k * g.points)
            res = H.apply(psi) - 0.5 * k**2 * psi
            errors.append(np.max(np.abs(res[1:-1])))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)

    def test_errors(self):
        g = build_grid(0, 1, 11)
        with pytest.raises(HamiltonianError):
            build_hamiltonian(g, np.zeros(10))
        with pytest.raises(HamiltonianError):
            build_hamiltonian(g, np.zeros(11), hbar=0.0)
        with pytest.raises(HamiltonianError):
            build_hamiltonian(g, np.zeros(11), mass=-1.0)
