import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlw.errors import EigensolverError
from vnlw.lattice import (
    PotentialSpec,
    box_grid,
    build_grid,
    build_hamiltonian,
    sample_potential,
)
from vnlw.spectra import (
    distinct_gaps,
    eigensystem,
    eigenvalues,
    gap_spectrum,
)
from vnlw.scenarios import run_scenario, write_report
from oracles import difference_operator_spectrum, sturm_count


def harmonic_hamiltonian(n_points=501, half_width=10.0, omega=1.0):
    g = build_grid(-half_width, half_width, n_points)
    return build_hamiltonian(g, sample_potential(g, PotentialSpec.harmonic(omega)))


class TestEigensystem:
    def test_box_energies(self):
        g = box_grid(1.0, 2001)
        H = build_hamiltonian(g, np.zeros(2001))
        eigs = eigensystem(H, 3)
        exact = np.pi**2 / 2 * np.array([1.0, 4.0, 9.0])
        assert np.all(np.abs(eigs.energies - exact) / exact < 1e-3)

    def test_harmonic_energies(self):
        H = harmonic_hamiltonian(2001)
        eigs = eigensystem(H, 4)
        assert np.allclose(eigs.energies, [0.5, 1.5, 2.5, 3.5], atol=1e-3)

    def test_orthonormality_and_residuals(self):
        H = harmonic_hamiltonian(501)
        eigs = eigensystem(H, 6)
        dx = H.grid.dx
        gram = eigs.states.T @ eigs.states * dx
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10
        for j in range(6):
            res = H.apply(eigs.states[:, j]) - eigs.energies[j] * eigs.states[:, j]
            assert H.grid.norm(res) <= 1e-8 * max(1.0, abs(eigs.energies[j]))

    def test_full_spectrum_trace_identity(self):
        H = harmonic_hamiltonian(64, half_width=5.0)
        eigs = eigensystem(H, 64)
        assert np.sum(eigs.energies) == pytest.approx(np.sum(H.diagonal), rel=1e-8)

    def test_sign_convention(self):
        H = harmonic_hamiltonian(201)
        eigs = eigensystem(H, 5)
        for j in range(5):
            col = eigs.states[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
            assert col[nz[0]] > 0

    def test_k_out_of_range(self):
        H = harmonic_hamiltonian(64, half_width=5.0)
        with pytest.raises(EigensolverError):
            eigensystem(H, 0)
        with pytest.raises(EigensolverError):
            eigensystem(H, 65)
        with pytest.raises(EigensolverError):
            eigenvalues(H, 0)
        with pytest.raises(EigensolverError):
            eigenvalues(H, 65)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestWideRangePotentials:
    """Low levels under potentials that span many orders of magnitude, where bisection to
    a tolerance of eps * |H| gave E0 = 0.046 (height 1e14) and 175.6 (height 1e20)."""

    @pytest.mark.parametrize("spec", [
        PotentialSpec.barrier(1e6, 1.0),
        PotentialSpec.barrier(1e14, 1.0),
        PotentialSpec.barrier(1e20, 1.0),
        PotentialSpec.double_well(1e11, 1.0),
        PotentialSpec.double_well(1e13, 1.0),
    ], ids=lambda spec: f"{spec.kind}-{max(spec.params.values()):g}")
    def test_levels_pass_sturm_count(self, spec):
        """count(E_j - eps) <= j < count(E_j + eps): E_j is the j-th level to within eps."""
        g = build_grid(-10, 10, 401)
        H = build_hamiltonian(g, sample_potential(g, spec))
        for E in (eigenvalues(H, 10), eigensystem(H, 10).energies):
            eps = 1e-9 * np.maximum(1.0, np.abs(E))
            j = np.arange(len(E))
            assert np.all(sturm_count(H, E - eps) <= j), E
            assert np.all(j < sturm_count(H, E + eps)), E


class TestEigenvalues:
    @PROPERTY
    @given(
        n_points=st.integers(8, 300),
        omega=st.floats(0.1, 3.0),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_bitwise_equal_to_eigensystem(self, n_points, omega, fraction):
        H = harmonic_hamiltonian(n_points, half_width=8.0, omega=omega)
        k = 1 + int(fraction * (n_points - 1))  # 1 <= k < n_points
        assert np.array_equal(eigenvalues(H, k), eigensystem(H, k).energies)

    def test_full_spectrum_round_off(self):
        # k = N uses stevd, whose values-only path may differ in the last bits
        H = harmonic_hamiltonian(201)
        E = eigenvalues(H, 201)
        ref = eigensystem(H, 201).energies
        assert np.max(np.abs(E - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestGapSpectrum:
    def test_harmonic_distinct_gaps(self):
        H = harmonic_hamiltonian(1001)
        gaps = gap_spectrum(eigensystem(H, 3).energies)
        dg = distinct_gaps(gaps, tol=1e-3)
        assert np.allclose(dg, [-2, -1, 0, 1, 2], atol=1e-3)

    def test_single_state(self):
        H = harmonic_hamiltonian(64, half_width=5.0)
        gaps = gap_spectrum(eigensystem(H, 1).energies)
        assert gaps.tolist() == [[0.0]]

    def test_box_first_gap(self):
        g = box_grid(1.0, 2001)
        H = build_hamiltonian(g, np.zeros(2001))
        gaps = gap_spectrum(eigensystem(H, 2).energies)
        assert gaps[1, 0] == pytest.approx(3 * np.pi**2 / 2, rel=1e-3)

    def test_antisymmetry_and_diagonal(self):
        H = harmonic_hamiltonian(201)
        gaps = gap_spectrum(eigensystem(H, 5).energies)
        lam = gaps
        assert lam.shape == (5, 5)
        for n in range(5):
            for m in range(5):
                assert lam[m, n] == -lam[n, m]
                if n == m:
                    assert lam[n, m] == 0.0

    @PROPERTY
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_gap_identity(self, energies):
        lam = gap_spectrum(np.sort(energies))
        assert np.array_equal(lam, -lam.T)
        assert np.all(np.diag(lam) == 0.0)
        assert gap_spectrum(energies)[len(energies) - 1, 0] == energies[-1] - energies[0]

    def test_csv_export(self, tmp_path):
        report = run_scenario({
            "schema_version": 1,
            "grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 64},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 3},
            "scenario": {"name": "gap-spectroscopy"},
        })
        write_report(report, tmp_path)
        lines = (tmp_path / "gaps.csv").read_text().strip().splitlines()
        assert lines[0] == "n,m,lambda"
        assert len(lines) == 10
        n, m, lam = lines[1].split(",")
        assert (int(n), int(m)) == (0, 0)
        assert float(lam) == 0.0


class TestDifferenceOperator:
    def test_oracle_equivalence_box(self):
        g = box_grid(1.0, 16)
        H = build_hamiltonian(g, np.zeros(16))
        spec = difference_operator_spectrum(H)
        eigs = eigensystem(H, 16)
        pairwise = np.sort(np.subtract.outer(eigs.energies, eigs.energies).ravel())
        assert np.max(np.abs(spec - pairwise)) < 1e-8

    def test_oracle_equivalence_harmonic(self):
        H = harmonic_hamiltonian(24, half_width=6.0)
        spec = difference_operator_spectrum(H)
        eigs = eigensystem(H, 24)
        pairwise = np.sort(np.subtract.outer(eigs.energies, eigs.energies).ravel())
        assert np.max(np.abs(spec - pairwise)) < 1e-8

    def test_symmetric_about_zero(self):
        H = harmonic_hamiltonian(16, half_width=5.0)
        spec = difference_operator_spectrum(H)
        assert np.max(np.abs(spec + spec[::-1])) < 1e-8

    def test_zero_multiplicity(self):
        H = harmonic_hamiltonian(16, half_width=5.0)
        spec = difference_operator_spectrum(H)
        assert np.sum(np.abs(spec) < 1e-8) >= 16

    def test_dimension_guard(self):
        H = harmonic_hamiltonian(201)
        with pytest.raises(ValueError, match="max_dim"):
            difference_operator_spectrum(H)


class TestDistinctGaps:
    def test_dedup_of_degenerate_ladder(self):
        # harmonic ladder produces each gap value k-|d| times
        H = harmonic_hamiltonian(1001)
        gaps = gap_spectrum(eigensystem(H, 4).energies)
        dg = distinct_gaps(gaps, tol=1e-3)
        assert len(dg) == 7  # -3 .. 3
        assert np.allclose(dg, np.arange(-3, 4), atol=1e-3)

    @staticmethod
    def sequential_merge(values, tol):
        """The per-value loop distinct_gaps replaced, kept as the oracle."""
        lam = np.sort(np.asarray(values, dtype=float).ravel())
        if lam.size == 0:
            return lam
        keep = [lam[0]]
        for value in lam[1:]:
            if value - keep[-1] > tol:
                keep.append(value)
        return np.array(keep)

    @PROPERTY
    @given(
        centers=st.lists(st.floats(-50.0, 50.0), min_size=0, max_size=30),
        spreads=st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.5, 4.0]), min_size=30, max_size=30),
        counts=st.lists(st.integers(1, 6), min_size=30, max_size=30),
        tol=st.sampled_from([0.0, 1e-9, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        presorted=st.booleans(),
    )
    def test_matches_sequential_merge(self, centers, spreads, counts, tol, seed, presorted):
        # clusters of planted ties, runs narrower and wider than tol, negative values
        rng = np.random.default_rng(seed)
        parts = []
        for c, w, n in zip(centers, spreads, counts):
            parts.append(c + tol * w * rng.random(n))
            parts.append(np.full(n // 2, c))
        values = np.concatenate(parts) if parts else np.zeros(0)
        values = np.sort(values) if presorted else rng.permutation(values)
        side = values.size
        got = distinct_gaps(values.reshape(1, side), tol)
        expected = self.sequential_merge(values, tol)
        assert got.tobytes() == expected.tobytes()

    def test_wide_run_walked(self):
        # steps of 0.6 with tol 1: one run spanning 3, kept at 0, 1.2, 2.4
        values = np.arange(6) * 0.6
        dg = distinct_gaps(values.reshape(2, 3), tol=1.0)
        assert dg.tolist() == self.sequential_merge(values, 1.0).tolist() == [0.0, 1.2, 2.4]
