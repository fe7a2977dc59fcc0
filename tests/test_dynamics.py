import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import zgttrf, zgttrs

from vnlw import _workers, dynamics, scenarios, spectra
from vnlw.bipartite import collapse_statistics, from_product, position_density, transition_amplitudes
from vnlw.dynamics import (
    METHODS,
    BipartiteWave,
    CrankNicolsonStepper,
    PropagatorConfig,
    SpectralPropagator,
    WaveFunction,
    bipartite_norm,
    gaussian_packet,
    propagate_schrodinger,
    propagate_vnl,
    propagator,
    trajectory,
)
from vnlw.errors import GridMismatchError, SimulationError, UnnormalizedStateError
from vnlw.lattice import HamiltonianMatrix, build_grid, build_hamiltonian, sample_potential
from vnlw.schema import STATE_TYPES, resolve
from vnlw.spectra import eigensystem
from oracles import dense, dense_propagator, eigenbasis_bipartite_evolution, kernel, run_propagator


@pytest.fixture(scope="module")
def harmonic():
    g = build_grid(-10, 10, 201)
    H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
    eigs = eigensystem(H, 6)
    return g, H, eigs


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def eigenstate(eigs, n):
    return WaveFunction(eigs.states[:, n].astype(complex), eigs.grid)


def random_kernel(grid, seed=0):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((grid.n_points,) * 2) + 1j * rng.standard_normal((grid.n_points,) * 2)
    K /= np.sqrt(np.sum(np.abs(K) ** 2) * grid.dx**2)
    return BipartiteWave.from_kernel(K, grid)


def count_eigensolves(monkeypatch):
    """The k of every eigensystem call, through every module binding."""
    calls = []

    def counting(H, k):
        calls.append(k)
        return eigensystem(H, k)

    for module in (spectra, dynamics, scenarios):
        monkeypatch.setattr(module, "eigensystem", counting)
    return calls


def dense_norm(Psi):
    """sum |Psi_ij|^2 dx^2 of the kernel as held, which a non-unitary propagation changes."""
    return np.sum(np.abs(kernel(Psi)) ** 2) * Psi.grid.dx**2


def frob(grid, A, B):
    return float(np.sqrt(np.sum(np.abs(A - B) ** 2) * grid.dx**2))


class TestPropagatorConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            PropagatorConfig(dt=0.0, steps=1)
        with pytest.raises(SimulationError):
            PropagatorConfig(dt=1e-3, steps=-1)
        with pytest.raises(SimulationError):
            PropagatorConfig(dt=1e-3, steps=1, method="magic")
        PropagatorConfig(dt=-1e-3, steps=1)  # negative dt = time reversal, allowed


class TestSpectralPropagator:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shape, dtype", [
        ((201,), float), ((201,), complex), ((201, 3), float), ((201, 3), complex),
    ])
    def test_apply_matches_matrix(self, harmonic, method, shape, dtype):
        g, H, _ = harmonic
        rng = np.random.default_rng(5)
        v = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal(shape)
        spectral = SpectralPropagator(eigensystem(H, g.n_points), 1e-2, method, H.hbar)
        assert np.max(np.abs(spectral.apply(v, 37) - dense_propagator(H, 1e-2, 37, method) @ v)) <= 1e-12
        assert spectral.apply(v, 0) is v

    def test_takes_the_eigensystem_over(self, harmonic):
        """The propagator keeps the run's eigenvectors, scaled in place to Euclidean norm, and no copy."""
        g, H, _ = harmonic
        eigs = eigensystem(H, g.n_points)
        expected = eigs.states * np.sqrt(g.dx)
        spectral = SpectralPropagator(eigs, 1e-2, "eigenbasis", H.hbar)
        assert spectral._S is eigs.states
        assert np.array_equal(eigs.states, expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_factor_of_many_counts_is_each_counts_factor(self, harmonic, method):
        """The factors of an array of step counts, a row each, are bit for bit the factor of each count alone,
        as the closed form exp(-i E steps dt / hbar) or exp(-2i steps atan(dt E / 2 hbar)) gives it."""
        g, H, _ = harmonic
        dt, counts = -3e-3, [0, 1, 7, 10, 999, 1000, 123456]
        E = eigensystem(H, g.n_points).energies
        spectral = SpectralPropagator(eigensystem(H, g.n_points), dt, method, H.hbar)
        rows = spectral._factor(np.array(counts))
        assert rows.shape == (len(counts), g.n_points)
        for row, steps in zip(rows, counts):
            if method == "eigenbasis":
                expected = np.exp(-1j * E * (steps * dt) / H.hbar)
            else:
                expected = np.exp(-2j * steps * np.arctan(0.5 * dt * E / H.hbar))
            assert np.array_equal(row, expected)
            assert np.array_equal(row, spectral._factor(steps))

    def test_factor_not_finite_in_a_later_block_raises(self):
        """A rank-N trajectory reads its rows in blocks of N / 4 = 4.  At dt = 7e305 the factor overflows
        only from a count inside a later block, past its start, and the error names the method, dt and
        that count."""
        g = build_grid(-5, 5, 16)
        H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
        dt = 7e305
        spectral = SpectralPropagator(eigensystem(H, g.n_points), dt, "eigenbasis", H.hbar)
        first = 0
        while True:  # the first count whose factor alone is refused
            try:
                spectral._factor(first)
            except SimulationError:
                break
            first += 1
        assert 4 < first < 30 and first % 4
        with pytest.raises(SimulationError) as error:
            cfg, Psi = PropagatorConfig(dt, 30, "eigenbasis"), random_kernel(g, seed=1)
            trajectory(Psi, run_propagator(H, cfg, Psi), cfg, 1)
        assert str(error.value) == f"eigenbasis factor is not finite at dt={dt}, steps={first}"


class TestRealTimes:
    @pytest.mark.parametrize("columns", [(), (1,), (3,), (40,)])
    def test_wide_transpose_matches_matmul(self, columns):
        """A k x N S^T times an N x r complex X gives a k x r product, to round-off, for k < N."""
        rng = np.random.default_rng(11)
        S = np.linalg.qr(rng.standard_normal((40, 7)))[0]
        X = rng.standard_normal((40,) + columns) + 1j * rng.standard_normal((40,) + columns)
        out = dynamics._times(S.T, X)
        assert out.shape == (7,) + columns
        assert np.max(np.abs(out - S.T @ X)) <= 1e-14 * np.max(np.abs(X))

    def test_square_bytes_unchanged(self):
        """A square S gives the bytes of one real product of the interleaved parts, as before its shape rule."""
        rng = np.random.default_rng(12)
        S = rng.standard_normal((30, 30))
        X = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        expected = (S @ X.view(np.float64).reshape(30, -1)).view(complex).reshape(X.shape)
        assert np.array_equal(dynamics._times(S, X), expected)
        assert np.array_equal(dynamics._times(S.T, X), (S.T @ X.view(np.float64)).view(complex))


    @pytest.mark.parametrize("left, right", [((7,), (7, 3)), ((7,), (7,)), ((5, 7), (7,)), ((5, 7), (7, 3))])
    def test_either_kind_either_shape(self, left, right):
        """A real operand times a complex one, either way round and either a vector, is P @ Q to round-off."""
        rng = np.random.default_rng(13)
        for P, Q in [(rng.standard_normal(left), rng.standard_normal(right) + 1j * rng.standard_normal(right)),
                     (rng.standard_normal(left) + 1j * rng.standard_normal(left), rng.standard_normal(right))]:
            out = dynamics._times(P, Q)
            assert out.shape == (P @ Q).shape
            assert np.max(np.abs(out - P @ Q)) <= 1e-14 * np.max(np.abs(P)) * np.max(np.abs(Q))


class TestCrankNicolsonStepper:
    # Barriers up to 1e20 make H stiff: its Cayley factor is about -1 on the barrier. The dense
    # oracle keeps its accuracy there; in 400 draws it differed from apply() by at most 9e-15 max|v|.
    potentials = st.one_of(
        st.sampled_from([{"kind": "harmonic", "omega": 1.0}, {"kind": "infinite-box"},
                         {"kind": "double-well", "a": 1.0, "b": 1.0}]),
        st.builds(dict, kind=st.just("barrier"), height=st.floats(0.0, 20.0).map(lambda p: 10.0**p),
                  width=st.floats(0.5, 3.0)),
    )

    @pytest.mark.parametrize("dt", [1e-2, -1e-2])
    @pytest.mark.parametrize("shape", [(201,), (201, 3)])
    def test_matches_dense_solve(self, harmonic, dt, shape):
        """Each step is the dense solve (I + i a H) u = (I - i a H) v with a = dt / 2 hbar."""
        g, H, _ = harmonic
        rng = np.random.default_rng(7)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        given = v.copy()
        eye, a = np.eye(g.n_points), 0.5 * dt / H.hbar
        plus, minus = eye + 1j * a * dense(H), eye - 1j * a * dense(H)
        expected = v
        for _ in range(25):
            expected = np.linalg.solve(plus, minus @ expected)
        assert np.max(np.abs(CrankNicolsonStepper(H, dt).apply(v, 25) - expected)) <= 1e-12
        assert np.array_equal(v, given)

    @PROPERTY
    @given(potential=potentials, n_points=st.integers(8, 48), columns=st.sampled_from([None, 1, 3]),
           dt=st.floats(1e-3, 1.0), sign=st.sampled_from([1.0, -1.0]), steps=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_powers_match_dense_cayley(self, potential, n_points, columns, dt, sign, steps, seed):
        """apply(v, n) is the n-th power of the dense Cayley matrix (I + i a H)^-1 (I - i a H),
        a = dt / 2 hbar, times v, for a vector or N x r columns; v is left unchanged."""
        g = build_grid(-5, 5, n_points)
        H = build_hamiltonian(g, sample_potential(g, **potential))
        rng = np.random.default_rng(seed)
        shape = (n_points,) if columns is None else (n_points, columns)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        given = v.copy()
        out = CrankNicolsonStepper(H, sign * dt).apply(v, steps)
        expected = dense_propagator(H, sign * dt, steps, "crank-nicolson") @ v
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(v))
        assert np.array_equal(v, given)

    def test_holds_only_the_factors(self, harmonic):
        """A step is one solve: the stepper keeps gttrf's factors of (I + i a H)/2 and no
        HamiltonianMatrix to multiply by."""
        g, H, _ = harmonic
        stepper = CrankNicolsonStepper(H, 1e-2)
        held = [*vars(stepper).values(), *stepper._lu]
        assert not any(isinstance(x, HamiltonianMatrix) for x in held)

    def test_factors_in_place(self):
        """gttrf factors L = (I + i a H)/2 in place: a·d, a·e and its copy, gttrf's second superdiagonal
        and int32 pivots, at most 4.5 complex N-vectors at N = 10^5 (7.25 when f2py copied all three
        diagonals).  The factors are those of gttrf on fresh diagonals, bit for bit."""
        n, dt = 10**5, 1e-3
        g = build_grid(-20, 20, n)
        H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
        tracemalloc.start()
        try:
            stepper = CrankNicolsonStepper(H, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 16 * n, peak / (16 * n)
        a = 0.25j * dt / H.hbar
        *expected, info = zgttrf(a * H.off_diagonal, 0.5 + a * H.diagonal, a * H.off_diagonal)
        assert info == 0
        assert [f.tobytes() for f in stepper._lu] == [f.tobytes() for f in expected]


class TestSplitColumns:
    """apply() steps the column groups of a long call on every CPU the process may use."""

    @staticmethod
    def split(monkeypatch, cpus: int) -> None:
        """Make every call of at least one step split its columns over min(columns, cpus) workers."""
        monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dynamics, "_SPLIT_MIN_POINTS", 1)
        monkeypatch.setattr(dynamics, "_SPLIT_POINT_STEPS", 1)

    @staticmethod
    def one_call(stepper, v, steps):
        """Every column in one gttrs call a step, on this thread."""
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                u = zgttrs(*stepper._lu, v)[0]
                u -= v
                v = u
        return v

    @PROPERTY
    @given(potential=TestCrankNicolsonStepper.potentials, n_points=st.integers(8, 48), columns=st.integers(1, 5),
           order=st.sampled_from("CF"), dt=st.floats(1e-3, 1.0), sign=st.sampled_from([1.0, -1.0]),
           steps=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_same_bytes_on_any_worker_count(self, cpus, potential, n_points, columns, order, dt, sign, steps,
                                            seed):
        """The bytes, memory order included, of one gttrs call a step, however the columns are grouped;
        v is left unchanged."""
        g = build_grid(-5, 5, n_points)
        stepper = CrankNicolsonStepper(build_hamiltonian(g, sample_potential(g, **potential)), sign * dt)
        rng = np.random.default_rng(seed)
        v = np.asarray(rng.standard_normal((n_points, columns)) + 1j * rng.standard_normal((n_points, columns)),
                       order=order)
        given = v.copy(order="A")
        expected = self.one_call(stepper, v, steps)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.split(monkeypatch, cpus)
            out = stepper.apply(v, steps)
        assert (out.dtype, out.shape, out.flags.c_contiguous, out.flags.f_contiguous) == (
            expected.dtype, expected.shape, expected.flags.c_contiguous, expected.flags.f_contiguous)
        assert out.tobytes(order="A") == expected.tobytes(order="A")
        assert v.tobytes(order="A") == given.tobytes(order="A")

    def test_an_exception_on_this_thread_stops_the_helpers_within_one_step(self, harmonic, monkeypatch):
        """KeyboardInterrupt in this thread's group: the helper that has taken 5 steps takes no more."""
        g, H, _ = harmonic
        stepper = CrankNicolsonStepper(H, 1e-2)
        baseline = threading.active_count()
        stops, reached, helper_calls = [], threading.Event(), []
        steps_of = CrankNicolsonStepper._steps

        def recording(self, v, steps, stop=None):
            if stop is not None:
                stops.append(stop)
            return steps_of(self, v, steps, stop)

        def solve(*args):
            if threading.current_thread() is threading.main_thread():
                assert reached.wait(10)
                raise KeyboardInterrupt
            helper_calls.append(1)
            if len(helper_calls) == 5:
                reached.set()
                stops[0].wait(2)
            return zgttrs(*args)

        self.split(monkeypatch, 2)
        monkeypatch.setattr(CrankNicolsonStepper, "_steps", recording)
        monkeypatch.setattr(dynamics, "zgttrs", solve)
        with pytest.raises(KeyboardInterrupt):
            stepper.apply(np.ones((g.n_points, 2), complex), 1000)
        assert (len(helper_calls), threading.active_count()) == (5, baseline)

    def test_a_helper_overflow_is_quiet(self, monkeypatch):
        """Each worker enters its own error state: the helper's column overflows with no RuntimeWarning,
        and the result is one call's, bit for bit, the helper's column not finite."""
        g = build_grid(-5, 5, 16)
        stepper = CrankNicolsonStepper(build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0)), 1.0)
        w = np.random.default_rng(1).standard_normal((16, 2)).view(complex)
        v = np.hstack([np.ones((16, 1), complex), w * (1.7e308 / np.abs(w.view(float)).max())])
        with pytest.raises(RuntimeWarning, match="overflow"), warnings.catch_warnings():
            warnings.simplefilter("error")
            zgttrs(*stepper._lu, v)[0] - v

        def slow(*args):  # the helper's group ends after this thread's
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return zgttrs(*args)

        self.split(monkeypatch, 2)
        monkeypatch.setattr(dynamics, "zgttrs", slow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stepper.apply(v, 1)
        expected = self.one_call(stepper, v, 1)
        assert 0 < np.isfinite(expected[:, 1]).sum() < len(v)
        assert out.tobytes(order="A") == expected.tobytes(order="A")

    @pytest.mark.parametrize("steps, n_points, splits", [
        (20, 801, False), (21, 801, True), (1, 2**14, True), (32, 512, True), (10**3, 511, False),
    ])
    def test_only_calls_of_enough_work_per_column_split(self, monkeypatch, steps, n_points, splits):
        """A call of at least 512 points splits once steps x N reaches 2^14; any other never asks for
        the CPU count."""
        asked = []
        monkeypatch.setattr(_workers, "_cpu_count", lambda: asked.append(1) or 2)
        g = build_grid(-20, 20, n_points)
        stepper = CrankNicolsonStepper(build_hamiltonian(g, sample_potential(g, "infinite-box")), 1e-3)
        stepper.apply(np.ones((n_points, 2), complex), steps)
        assert bool(asked) == splits


class TestSchrodinger:
    def test_zero_steps_identity(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 1)
        cfg = PropagatorConfig(1e-3, 0)
        out = propagate_schrodinger(psi, run_propagator(H, cfg, psi), cfg)
        assert out is psi

    def test_stationary_phase_eigenbasis(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 2)
        cfg = PropagatorConfig(1e-2, 70, "eigenbasis")
        out = propagate_schrodinger(psi, run_propagator(H, cfg, psi), cfg)
        overlap = np.vdot(out.amplitudes, psi.amplitudes) * g.dx
        assert abs(abs(overlap) - 1.0) < 1e-8
        # the phase itself is exp(-i E_2 t)
        assert overlap * np.exp(-1j * eigs.energies[2] * 0.7) == pytest.approx(1.0, abs=1e-8)

    def test_cn_norm_drift_per_step(self, harmonic):
        g, H, _ = harmonic
        psi = gaussian_packet(g, 1.0, 0.7, momentum=2.0)
        cfg = PropagatorConfig(1e-3, 1)
        out = propagate_schrodinger(psi, run_propagator(H, cfg, psi), cfg)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_grid_mismatch(self, harmonic):
        g, H, _ = harmonic
        other = build_grid(-5, 5, 201)
        psi = gaussian_packet(other, 0.0, 1.0)
        cfg = PropagatorConfig(1e-3, 1)
        for U in (propagator(H, cfg, 1), propagator(H, cfg, g.n_points)):
            with pytest.raises(GridMismatchError):
                propagate_schrodinger(psi, U, cfg)

    def test_unnormalized_rejected(self, harmonic):
        g, H, _ = harmonic
        psi = gaussian_packet(g, 0.0, 1.0)
        bad = WaveFunction(2.0 * psi.amplitudes, g)
        cfg = PropagatorConfig(1e-3, 1)
        with pytest.raises(UnnormalizedStateError):
            propagate_schrodinger(bad, run_propagator(H, cfg, bad), cfg)


class TestVnl:
    def test_stationary_pair_phase(self, harmonic):
        g, H, eigs = harmonic
        Psi0 = from_product(eigenstate(eigs, 2), eigenstate(eigs, 0))
        cfg = PropagatorConfig(1e-3, 1000)
        out = propagate_vnl(Psi0, run_propagator(H, cfg, Psi0), cfg)
        gap = eigs.energies[2] - eigs.energies[0]
        expected = np.exp(-1j * gap * 1.0) * kernel(Psi0)
        assert frob(g, kernel(out), expected) < 1e-5

    def test_equal_pair_is_stationary(self, harmonic):
        g, H, eigs = harmonic
        Psi0 = from_product(eigenstate(eigs, 1), eigenstate(eigs, 1))
        cfg = PropagatorConfig(1e-3, 300)
        out = propagate_vnl(Psi0, run_propagator(H, cfg, Psi0), cfg)
        assert frob(g, kernel(out), kernel(Psi0)) < 1e-6

    def test_product_factorization(self, harmonic):
        g, H, _ = harmonic
        psi = gaussian_packet(g, -1.0, 0.8, momentum=1.5)
        cfg = PropagatorConfig(1e-3, 400)
        U = propagator(H, cfg, 1)
        Psi_t = propagate_vnl(from_product(psi, psi), U, cfg)
        psi_t = propagate_schrodinger(psi, U, cfg)
        assert frob(g, kernel(Psi_t), kernel(from_product(psi_t, psi_t))) < 1e-8

    def test_norm_conservation_1000_steps(self):
        g = build_grid(-5, 5, 101)
        H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
        Psi = random_kernel(g, seed=11)
        cfg = PropagatorConfig(1e-3, 1000)
        out = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        assert abs(bipartite_norm(out) - 1.0) < 1e-10
        assert abs(dense_norm(out) - 1.0) < 1e-10

    def test_time_reversal(self, harmonic):
        g, H, _ = harmonic
        Psi = random_kernel(g, seed=5)
        cfg, reverse = PropagatorConfig(1e-3, 200), PropagatorConfig(-1e-3, 200)
        fwd = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        back = propagate_vnl(fwd, run_propagator(H, reverse, fwd), reverse)
        assert frob(g, kernel(back), kernel(Psi)) < 1e-8

    def test_cn_matches_eigenbasis_low_rank(self):
        # soft harmonic ladder keeps the Cayley phase error under the budget
        g = build_grid(-12, 12, 121)
        H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=0.5))
        eigs = eigensystem(H, 3)
        rng = np.random.default_rng(2)
        C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        C /= np.linalg.norm(C)
        Psi0 = eigenbasis_bipartite_evolution(C, eigs, 0.0)
        cfg = PropagatorConfig(1e-3, 1000)
        cn = propagate_vnl(Psi0, run_propagator(H, cfg, Psi0), cfg)
        exact = eigenbasis_bipartite_evolution(C, eigs, 1.0)
        assert frob(g, kernel(cn), kernel(exact)) < 1e-6

    def test_schmidt_factor_evolution(self, harmonic):
        # Psi(0) = sum mu_n psi_n phi_n^H evolves factor-by-factor
        g, H, _ = harmonic
        rng = np.random.default_rng(9)
        q1, _ = np.linalg.qr(rng.standard_normal((g.n_points, 2)) + 1j * rng.standard_normal((g.n_points, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((g.n_points, 2)) + 1j * rng.standard_normal((g.n_points, 2)))
        q1 /= np.sqrt(g.dx)
        q2 /= np.sqrt(g.dx)
        mu = np.array([0.8, 0.6])
        K0 = (q1 * mu) @ q2.conj().T
        cfg = PropagatorConfig(1e-3, 250)
        Psi0 = BipartiteWave.from_kernel(K0, g)
        evolved = propagate_vnl(Psi0, run_propagator(H, cfg, Psi0), cfg)
        U = propagator(H, cfg, 1)
        factors = []
        for q in (q1, q2):
            cols = [
                propagate_schrodinger(WaveFunction(q[:, j], g), U, cfg).amplitudes
                for j in range(2)
            ]
            factors.append(np.column_stack(cols))
        K_expected = (factors[0] * mu) @ factors[1].conj().T
        assert frob(g, kernel(evolved), K_expected) < 1e-9


    def test_matches_stepped_cayley(self, harmonic):
        # oracle: 1000 Crank-Nicolson steps applied from both sides, one at a time
        g, H, _ = harmonic
        Psi = random_kernel(g, seed=13)
        stepper = CrankNicolsonStepper(H, 1e-3)
        K = kernel(Psi)
        for _ in range(1000):
            K = stepper.apply(K)
            K = stepper.apply(K.conj().T).conj().T
        cfg = PropagatorConfig(1e-3, 1000)
        out = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        assert np.max(np.abs(kernel(out) - K)) <= 1e-12

    def test_evolve_builds_propagator_once(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        config = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "dynamics": {"dt": 1e-3, "steps": 1000, "stride": 10, "method": "eigenbasis"},
            "state": {"type": "random", "seed": 3},
        }
        table = scenarios.run_scenario(config, "evolve").tables["trajectory"]
        assert len(calls) <= 1
        assert len(table["t"]) == 101
        g = scenarios.grid_from_config(resolve(config))
        H = scenarios.hamiltonian_from_config(resolve(config), g)
        cfg, Psi = PropagatorConfig(1e-3, 1000, "eigenbasis"), random_kernel(g, seed=3)
        end = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        x_mean = float(np.sum(g.points * position_density(end)) * g.dx)
        assert table["x_mean"][-1] == pytest.approx(x_mean, abs=1e-12)

    @pytest.mark.parametrize("state, k", [
        ({"type": "eigen-product", "coefficients": [1.0, 0.5, [0.0, 0.25], -0.125, 0.5, 1.0]}, 3),
        ({"type": "eigen-product", "coefficients": [1.0, [0.5, -0.5]]}, 5),
        ({"type": "random", "seed": 3}, 4),
        ({"type": "gaussian-product", "center": 0.5}, 4),
    ], ids=["m>k", "m<k", "random", "gaussian"])
    def test_collapse_solves_once(self, monkeypatch, state, k):
        """One eigensolve, for max(k, m) levels, serves the amplitudes and an eigen state of m coefficients.
        p and delta_E agree to 1e-13 with a solve for k levels and another for the state's own m."""
        config = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": k},
            "state": state,
        }
        calls = count_eigensolves(monkeypatch)
        summary = scenarios.run_scenario(config, "collapse").summary
        assert calls == [max(k, len(state.get("coefficients", ())))]
        c = resolve(config, "collapse")
        g = scenarios.grid_from_config(c)
        H = scenarios.hamiltonian_from_config(c, g)
        stats = collapse_statistics(transition_amplitudes(scenarios.build_state(c, g, H), eigensystem(H, k)))
        assert np.max(np.abs(np.array(summary["p"]) - stats.p)) <= 1e-13
        assert np.max(np.abs(np.array(summary["delta_E"]) - stats.delta_E)) <= 1e-13

    @pytest.mark.parametrize("run, state, method", [
        *(pytest.param("evolve", state, method, id=f"evolve-{state}-{method}")
          for state in STATE_TYPES for method in METHODS),
        *(pytest.param(run, None, method, id=f"{run}-{method}")
          for run in ("two-slit", "product-equivalence") for method in METHODS),
    ])
    def test_propagating_run_solves_once(self, monkeypatch, run, state, method):
        """Every run that propagates builds one propagator: at most one eigensolve, of all N levels but for the
        m of an eigen state that is stepped, and at most one tridiagonal LU."""
        n, m = 101, 3
        if method == "eigenbasis" or state == "random":
            solves, lus = [n], []
        else:
            solves, lus = ([m] if state in ("eigen", "eigen-product") else []), [n]
        calls, factored = count_eigensolves(monkeypatch), []

        def counting(dl, d, du, **overwrite):
            factored.append(len(d))
            return zgttrf(dl, d, du, **overwrite)

        monkeypatch.setattr(dynamics, "zgttrf", counting)
        config = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": n},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "dynamics": {"dt": 1e-3, "steps": 100, "stride": 10, "method": method},
            "scenario": {"evolve_time": 0.1},
        }
        if state is not None:
            config["state"] = {"type": state}
            if "eigen" in state:
                config["state"]["coefficients"] = [1.0, [0.5, -0.5], 0.25]
        scenarios.run_scenario(config, run)
        assert (calls, factored) == (solves, lus)
        assert len(calls) <= 1 and len(factored) <= 1

    def test_evolve_one_partite_eigenbasis_solves_once(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        config = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "dynamics": {"dt": 1e-3, "steps": 1000, "stride": 10, "method": "eigenbasis"},
            "state": {"type": "gaussian", "center": 1.0, "sigma": 0.8, "momentum": 0.5},
        }
        table = scenarios.run_scenario(config, "evolve").tables["trajectory"]
        assert len(calls) <= 1
        assert len(table["t"]) == 101
        g = scenarios.grid_from_config(resolve(config))
        H = scenarios.hamiltonian_from_config(resolve(config), g)
        psi = gaussian_packet(g, 1.0, 0.8, 0.5)
        cfg = PropagatorConfig(1e-3, 1000, "eigenbasis")
        end = propagate_schrodinger(psi, run_propagator(H, cfg, psi), cfg)
        x_mean = float(np.sum(g.points * np.abs(end.amplitudes) ** 2 * g.dx))
        assert table["t"][-1] == pytest.approx(1.0, abs=1e-12)
        assert table["norm"][-1] == pytest.approx(1.0, abs=1e-12)
        assert table["x_mean"][-1] == pytest.approx(x_mean, abs=1e-12)

    @pytest.mark.parametrize("state, method, solves", [
        ({"type": "random", "seed": 3}, "eigenbasis", 1),
        ({"type": "random", "seed": 3}, "crank-nicolson", 1),
        ({"type": "gaussian-product", "center": 1.0}, "crank-nicolson", 0),
        ({"type": "two-slit"}, "eigenbasis", 1),
        ({"type": "gaussian", "center": 1.0}, "eigenbasis", 1),
        ({"type": "gaussian", "center": 1.0}, "crank-nicolson", 0),
    ])
    def test_evolve_forms_no_propagator(self, monkeypatch, state, method, solves):
        calls = count_eigensolves(monkeypatch)

        config = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "dynamics": {"dt": 1e-3, "steps": 100, "stride": 10, "method": method},
            "state": state,
        }
        table = scenarios.run_scenario(config, "evolve").tables["trajectory"]
        assert len(calls) == solves
        assert len(table["t"]) == 11

    @pytest.mark.parametrize("rank, lus, solves", [(2, [201], []), (None, [], [201])], ids=["distinct-2", "kernel"])
    def test_crank_nicolson_factorizes_or_solves_once(self, harmonic, monkeypatch, rank, lus, solves):
        """Distinct rank-2 factors are stepped as one N x 4 array, from one tridiagonal LU and
        no eigensolve; the N columns of a dense kernel take one eigensolve and no LU."""
        g, H, _ = harmonic
        calls, factored = count_eigensolves(monkeypatch), []

        def counting(dl, d, du, **overwrite):
            factored.append(len(d))
            return zgttrf(dl, d, du, **overwrite)

        monkeypatch.setattr(dynamics, "zgttrf", counting)
        rng = np.random.default_rng(7)
        if rank is None:
            Psi = random_kernel(g, seed=7)
        else:
            A, B = (rng.standard_normal((g.n_points, 2)) + 1j * rng.standard_normal((g.n_points, 2)) for _ in "AB")
            Psi = BipartiteWave.from_factors(np.hstack([A, B]), np.kron([[0, 1], [0, 0]], np.eye(2)), g)
            Psi = BipartiteWave(Psi.factor, Psi.core / np.linalg.norm(Psi.core), g)
        cfg = PropagatorConfig(1e-3, 100)
        out = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        assert (factored, calls) == (lus, solves)
        U = dense_propagator(H, cfg.dt, cfg.steps, cfg.method)
        assert np.max(np.abs(kernel(out) - U @ kernel(Psi) @ U.conj().T)) <= 1e-12

    def test_evolve_one_partite_crank_nicolson_factorizes_once(self, monkeypatch):
        lus = []

        def counting(dl, d, du, **overwrite):
            lus.append(len(d))
            return zgttrf(dl, d, du, **overwrite)

        monkeypatch.setattr(dynamics, "zgttrf", counting)
        config = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "dynamics": {"dt": 1e-3, "steps": 1000, "stride": 10, "method": "crank-nicolson"},
            "state": {"type": "gaussian", "center": 1.0, "sigma": 0.8, "momentum": 0.5},
        }
        table = scenarios.run_scenario(config, "evolve").tables["trajectory"]
        assert lus == [101]
        assert len(table["t"]) == 101
        g = scenarios.grid_from_config(resolve(config))
        H = scenarios.hamiltonian_from_config(resolve(config), g)
        psi, cfg = gaussian_packet(g, 1.0, 0.8, 0.5), PropagatorConfig(1e-3, 1000)
        end = propagate_schrodinger(psi, run_propagator(H, cfg, psi), cfg)
        assert table["norm"][-1] == pytest.approx(np.sum(np.abs(end.amplitudes) ** 2) * g.dx, abs=1e-12)
        assert table["x_mean"][-1] == pytest.approx(np.sum(g.points * np.abs(end.amplitudes) ** 2) * g.dx, abs=1e-12)


class TestVnlProperties:
    """Invariants of the kernel propagator on small grids, for either method."""

    @staticmethod
    def problem(n_points, seed):
        g = build_grid(-5, 5, n_points)
        H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
        return g, H, random_kernel(g, seed)

    cases = dict(
        n_points=st.integers(8, 40),
        method=st.sampled_from(METHODS),
        dt=st.floats(-1.0, 1.0).filter(lambda v: v != 0.0),
        steps=st.integers(0, 50),
        seed=st.integers(0, 2**32 - 1),
    )

    @PROPERTY
    @given(**cases)
    def test_norm_conserved(self, n_points, method, dt, steps, seed):
        g, H, Psi = self.problem(n_points, seed)
        cfg = PropagatorConfig(dt, steps, method)
        out = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        assert abs(bipartite_norm(out) - 1.0) <= 1e-12
        assert abs(dense_norm(out) - 1.0) <= 1e-12

    @PROPERTY
    @given(**cases)
    def test_time_reversal(self, n_points, method, dt, steps, seed):
        g, H, Psi = self.problem(n_points, seed)
        cfg, reverse = PropagatorConfig(dt, steps, method), PropagatorConfig(-dt, steps, method)
        fwd = propagate_vnl(Psi, run_propagator(H, cfg, Psi), cfg)
        back = propagate_vnl(fwd, run_propagator(H, reverse, fwd), reverse)
        assert frob(g, kernel(back), kernel(Psi)) < 1e-10

    @PROPERTY
    @given(**cases, more=st.integers(0, 50))
    def test_composition(self, n_points, method, dt, steps, seed, more):
        g, H, Psi = self.problem(n_points, seed)
        first, then, whole = (PropagatorConfig(dt, k, method) for k in (steps, more, steps + more))
        U = run_propagator(H, whole, Psi)  # the steps of a config do not enter its propagator
        two = propagate_vnl(propagate_vnl(Psi, U, first), U, then)
        one = propagate_vnl(Psi, U, whole)
        assert frob(g, kernel(two), kernel(one)) < 1e-10


class TestEigenbasisBipartite:
    def test_t0_reconstruction(self, harmonic):
        g, H, eigs = harmonic
        psi = gaussian_packet(g, 0.5, 1.0)
        Psi = from_product(psi, psi)
        amps = transition_amplitudes(Psi, eigs)
        rebuilt = eigenbasis_bipartite_evolution(amps.c, eigs, 0.0)
        err2 = np.sum(np.abs(kernel(Psi) - kernel(rebuilt)) ** 2) * g.dx**2
        assert err2 == pytest.approx(amps.truncation_residual, abs=1e-10)

    def test_single_coefficient_period(self, harmonic):
        g, H, eigs = harmonic
        C = np.zeros((3, 3), dtype=complex)
        C[2, 0] = 1.0
        eigs3 = eigensystem(H, 3)
        gap = eigs3.energies[2] - eigs3.energies[0]
        assert gap == pytest.approx(2.0, abs=1e-2)
        start = eigenbasis_bipartite_evolution(C, eigs3, 0.0)
        out = eigenbasis_bipartite_evolution(C, eigs3, 2 * np.pi / gap)
        assert frob(g, kernel(out), kernel(start)) < 1e-8

    def test_norm_constant_in_time(self, harmonic):
        g, H, eigs = harmonic
        rng = np.random.default_rng(4)
        C = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        C /= np.linalg.norm(C)
        start = eigenbasis_bipartite_evolution(C, eigs, 0.0)
        out = eigenbasis_bipartite_evolution(C, eigs, 2.7)
        assert bipartite_norm(out) == pytest.approx(bipartite_norm(start), abs=1e-12)
        assert dense_norm(out) == pytest.approx(dense_norm(start), abs=1e-12)

    def test_dimension_mismatch(self, harmonic):
        g, H, eigs = harmonic
        with pytest.raises(ValueError, match="does not match"):
            eigenbasis_bipartite_evolution(np.zeros((2, 3)), eigs, 0.0)


class TestBipartiteNorm:
    def test_product_state(self, harmonic):
        g, H, _ = harmonic
        psi = gaussian_packet(g, 0.0, 1.0)
        assert bipartite_norm(from_product(psi, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self, harmonic):
        g, H, _ = harmonic
        Psi = random_kernel(g, seed=3)
        doubled = BipartiteWave.from_kernel(2.0 * kernel(Psi), g)
        assert bipartite_norm(doubled) == pytest.approx(4.0 * bipartite_norm(Psi), rel=1e-12)
