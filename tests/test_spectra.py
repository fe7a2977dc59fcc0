from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dstebz

from vnlw import _lapack, spectra
from vnlw.errors import EigensolverError
from vnlw.lattice import (
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
    return build_hamiltonian(g, sample_potential(g, "harmonic", omega=omega))


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

    @pytest.mark.parametrize("k", [5, 100, 201])
    def test_sign_convention_matches_column_loop(self, k):
        """The masked argmax flips the same columns as the per-column loop it replaced."""
        H = harmonic_hamiltonian(201)
        eigs = eigensystem(H, k)
        _, vecs = spectra._tridiagonal_eigh(H, k, eigvals_only=False)
        vecs = vecs / np.sqrt(H.grid.dx)
        for j in range(k):
            col = vecs[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
            if nz.size and col[nz[0]] < 0:
                vecs[:, j] = -col
        assert eigs.states.tobytes() == vecs.tobytes()

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
        {"kind": "barrier", "height": 1e6, "width": 1.0},
        {"kind": "barrier", "height": 1e14, "width": 1.0},
        {"kind": "barrier", "height": 1e20, "width": 1.0},
        {"kind": "double-well", "a": 1e11, "b": 1.0},
        {"kind": "double-well", "a": 1e13, "b": 1.0},
    ], ids=lambda spec: f"{spec['kind']}-{max(v for k, v in spec.items() if k != 'kind'):g}")
    def test_levels_pass_sturm_count(self, spec):
        """count(E_j - eps) <= j < count(E_j + eps): E_j is the j-th level to within eps."""
        g = build_grid(-10, 10, 401)
        H = build_hamiltonian(g, sample_potential(g, **spec))
        for E in (eigenvalues(H, 10), eigensystem(H, 10).energies):
            eps = 1e-9 * np.maximum(1.0, np.abs(E))
            j = np.arange(len(E))
            assert np.all(sturm_count(H, E - eps) <= j), E
            assert np.all(j < sturm_count(H, E + eps)), E


    @pytest.mark.parametrize("spec, k", [
        ({"kind": "barrier", "height": 1e20, "width": 1.0}, 100),
        ({"kind": "barrier", "height": 1e20, "width": 1.0}, 101),
        ({"kind": "double-well", "a": 1e13, "b": 1.0}, 100),
    ], ids=["barrier-1e20", "barrier-1e20-all", "double-well-1e13"])
    def test_states_are_eigenvectors(self, spec, k):
        """Inverse iteration on the whole matrix: with stebz's split blocks, level 68 behind
        the 1e20 barrier had a residual of 4% of its energy.  With k = N, stevd's state of
        level 3 there had a residual of 5 times its energy."""
        g = build_grid(-10, 10, 101)
        H = build_hamiltonian(g, sample_potential(g, **spec))
        eigs = eigensystem(H, k)
        residual = H.apply(eigs.states) - eigs.states * eigs.energies
        assert np.all(np.sqrt(np.sum(residual**2, axis=0) * g.dx) <= 1e-12 * np.maximum(1.0, np.abs(eigs.energies)))
        assert np.max(np.abs(eigs.states.T @ eigs.states * g.dx - np.eye(k))) < 1e-12


    @pytest.mark.parametrize("k", [3, 15, 16])
    def test_states_off_their_energies_raise(self, k):
        """A spike of 1e300 scales H near underflow for inverse iteration, and stevd's states
        are off by eps |H|: at k = 3 the residuals reached 1.5e14 max(1, |E|)."""
        g = build_grid(-10, 10, 16)
        H = build_hamiltonian(g, np.append(np.zeros(15), 1e300))
        with pytest.raises(EigensolverError, match=f"of the {k} eigenstates of H are off their energies"):
            eigensystem(H, k)


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
        # k = N shares its values with eigensystem too; only the vectors come from stevd
        H = harmonic_hamiltonian(201)
        assert np.array_equal(eigenvalues(H, 201), eigensystem(H, 201).energies)


def gershgorin_shift(H):
    """min_i (d_i - |e_i-1| - |e_i| - 4 eps (|d_i| + |e_i-1| + |e_i|)): below every level of H."""
    rows = np.abs(np.append(0.0, H.off_diagonal)) + np.abs(np.append(H.off_diagonal, 0.0))
    return np.min(H.diagonal - rows - 4 * np.finfo(float).eps * (np.abs(H.diagonal) + rows))


@st.composite
def stiff_potentials(draw):
    """(n, k, values): tabulated potentials over many orders of magnitude, of either sign,
    or with every Gershgorin row tight (d_i - |e_i-1| - |e_i| the same in every row); k on
    either side of the crossover, where 16 k >= n takes dqds and below it bisection."""
    n = draw(st.integers(8, 160))
    k = draw(st.one_of(st.integers(1, max(1, (n - 1) // 16)), st.integers(-(-n // 16), n)))
    kind = draw(st.sampled_from(["wide", "negative", "tight"]))
    if kind == "tight":
        level = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 12.0))
        values = np.full(n, level)
        values[[0, -1]] -= 0.5 / build_grid(-10, 10, n).dx ** 2  # the end rows lack one neighbour
        return n, k, values
    powers = np.array(draw(st.lists(st.floats(-3.0, 20.0), min_size=n, max_size=n)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0] if kind == "negative" else [1.0]), min_size=n, max_size=n))
    return n, k, np.array(signs) * 10.0**powers


class TestShiftedDqds:
    """The dqds route (all levels of H - sigma I) against tight bisection of H itself."""

    @PROPERTY
    @given(potential=stiff_potentials())
    def test_agrees_with_bisection(self, potential):
        n, k, values = potential
        g = build_grid(-10, 10, n)
        H = build_hamiltonian(g, sample_potential(g, "tabulated", values=values))
        with mock.patch.object(spectra, "dstebz", wraps=dstebz) as bisection:
            E = eigenvalues(H, k)
        assert E.tobytes() == eigensystem(H, k).energies.tobytes()
        j = np.arange(k)
        eps = 1e-9 * np.maximum(1.0, np.abs(E))
        assert np.all(sturm_count(H, E - eps) <= j) and np.all(j < sturm_count(H, E + eps)), E
        m, ref, _, _, info = dstebz(H.diagonal, H.off_diagonal, 2, 0.0, 0.0, 1, k, 2 * np.finfo(float).tiny, "E")
        assert info == 0 and m == k
        sigma = gershgorin_shift(H)
        # E - sigma is what dqds resolves; adding sigma back rounds by a few ulps of sigma
        tol = 1e-12 * np.maximum(1.0, np.abs(E - sigma)) + 4 * np.finfo(float).eps * abs(sigma)
        assert np.all(np.abs(E - ref[:k]) <= tol), np.max(np.abs(E - ref[:k]) / tol)
        # dqds is kept where E - sigma is within about 2**10 of max(1, |E|), so where its
        # error is bisection's to within 10 bits; a shift further down than sigma loses it
        spread = np.max((ref[:k] - sigma) / np.maximum(1.0, np.abs(ref[:k])))
        if 16 * k < n or spread > 2048:
            assert bisection.called
        elif spread < 512:
            assert not bisection.called


class TestRoute:
    """Which LAPACK solver takes the values: dqds for a sizeable share of the levels,
    bisection for a few levels of a large grid."""

    @staticmethod
    def counting(monkeypatch, **stubs):
        calls = []
        for name in ("dpteqr", "dstebz", "dstein", "dstevd"):
            real = stubs.get(name, getattr(spectra, name))

            def wrapper(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(spectra, name, wrapper)
        return calls

    @staticmethod
    def checked(monkeypatch):
        """The number of columns of each residual check."""
        checked, real = [], spectra._stale_columns

        def wrapper(H, w, vecs):
            checked.append(len(w))
            return real(H, w, vecs)

        monkeypatch.setattr(spectra, "_stale_columns", wrapper)
        return checked

    def test_gaps_at_half_the_levels_take_dqds(self, monkeypatch):
        calls = self.counting(monkeypatch)
        report = run_scenario({
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 400},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 200},
            "scenario": {"name": "gap-spectroscopy"},
        })
        assert calls == ["dpteqr"]
        assert len(report.summary["energies"]) == 200

    def test_few_levels_of_a_large_grid_take_bisection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dqds of all 65536 levels for 8 of them")

        calls = self.counting(monkeypatch, dpteqr=refuse)
        report = run_scenario({
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 65536},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 8},
        }, "spectrum")
        assert calls == ["dstebz", "dstein"]
        assert np.allclose(report.summary["energies"], np.arange(8) + 0.5, atol=1e-6)

    def test_full_spectrum_solves_once_for_vectors(self, monkeypatch):
        calls = self.counting(monkeypatch)
        eigensystem(harmonic_hamiltonian(201), 201)
        assert calls == ["dpteqr", "dstevd"]

    @pytest.mark.parametrize("H", [
        harmonic_hamiltonian(401),
        harmonic_hamiltonian(2001),
        build_hamiltonian(box_grid(1.0, 801), np.zeros(801)),
        build_hamiltonian(build_grid(-10, 10, 1001), sample_potential(build_grid(-10, 10, 1001),
                                                                      "double-well", a=1.0, b=1.0)),
        build_hamiltonian(build_grid(-10, 10, 401), sample_potential(build_grid(-10, 10, 401),
                                                                     "barrier", height=1e6, width=1.0)),
    ], ids=["harmonic-401", "harmonic-2001", "box-801", "double-well-1001", "barrier-1e6-401"])
    def test_full_spectrum_keeps_stevd_states(self, monkeypatch, H):
        """No k = N state of a benign potential is re-solved: they are stevd's, bit for bit,
        checked by one residual pass."""
        calls = self.counting(monkeypatch)
        checked = self.checked(monkeypatch)
        states = eigensystem(H, H.grid.n_points).states
        assert calls == ["dpteqr", "dstevd"]
        assert checked == [H.grid.n_points]
        _, vecs, _ = _lapack.dstevd(H.diagonal, H.off_diagonal)
        assert np.array_equal(np.abs(states), np.abs(vecs / np.sqrt(H.grid.dx)))

    @pytest.mark.parametrize("height, n, stale", [(1e14, 401, 380), (1e20, 101, 96)],
                             ids=["barrier-1e14", "barrier-1e20"])
    def test_full_spectrum_resolves_stale_states(self, monkeypatch, height, n, stale):
        """Behind a high barrier stevd's eps * |H| leaves most low states wrong; stein
        re-solves just those, on the dqds energies."""
        solved = []

        def recording(d, e, w, *args):
            solved.append(len(w))
            return _lapack.dstein(d, e, w, *args)

        calls = self.counting(monkeypatch, dstein=recording)
        checked = self.checked(monkeypatch)
        g = build_grid(-10, 10, n)
        eigensystem(build_hamiltonian(g, sample_potential(g, "barrier", height=height, width=1.0)), n)
        assert calls == ["dpteqr", "dstevd", "dstein"]
        assert solved == [stale]
        assert checked == [n, stale]  # the re-solved columns alone are checked again

    @pytest.mark.parametrize("routine, k", [("dpteqr", 100), ("dstebz", 2), ("dstein", 2), ("dstein", 100), ("dstevd", 201)])
    def test_lapack_failure_raises(self, monkeypatch, routine, k):
        real = getattr(spectra, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(spectra, routine, failing)
        with pytest.raises(EigensolverError, match=routine):
            eigensystem(harmonic_hamiltonian(201), k)


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
