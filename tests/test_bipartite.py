import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vnlw.bipartite import (
    apply_rho,
    collapse_statistics,
    distance,
    entanglement_entropy,
    entropy_from_reduced,
    expectation,
    from_product,
    position_density,
    projection_probability,
    projector,
    schmidt,
    transition_amplitudes,
)
from vnlw.dynamics import BipartiteWave, WaveFunction, bipartite_norm, gaussian_packet
from vnlw.errors import GridMismatchError, NonHermitianOperatorError, UnnormalizedStateError
from vnlw.lattice import build_grid, build_hamiltonian, sample_potential
from vnlw.scenarios import make_slit_modes, two_slit_state
from vnlw.spectra import eigensystem
from oracles import dense, kernel


@pytest.fixture(scope="module")
def harmonic():
    g = build_grid(-10, 10, 201)
    H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
    return g, H, eigensystem(H, 6)


@pytest.fixture(scope="module")
def slits():
    g = build_grid(-20, 20, 401)
    modes = make_slit_modes(g)
    return g, modes


def eigenstate(eigs, n):
    return WaveFunction(eigs.states[:, n].astype(complex), eigs.grid)


def random_orthonormal(grid, r, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((grid.n_points, r)) + 1j * rng.standard_normal((grid.n_points, r))
    q, _ = np.linalg.qr(a)
    return q / np.sqrt(grid.dx)


def random_kernel(grid, seed):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((grid.n_points,) * 2) + 1j * rng.standard_normal((grid.n_points,) * 2)
    K /= np.sqrt(np.sum(np.abs(K) ** 2) * grid.dx**2)
    return BipartiteWave.from_kernel(K, grid)


class TestFromProduct:
    def test_rank_one(self, harmonic):
        g, H, eigs = harmonic
        Psi = from_product(eigenstate(eigs, 0), eigenstate(eigs, 0))
        assert bipartite_norm(Psi) == pytest.approx(1.0, abs=1e-12)
        dec = schmidt(Psi)
        assert dec.rank == 1
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-10)

    def test_distinct_factors(self, harmonic):
        g, H, eigs = harmonic
        Psi = from_product(eigenstate(eigs, 0), eigenstate(eigs, 1))
        assert schmidt(Psi).coefficients[0] == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_factor_rejected(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 0)
        bad = WaveFunction(0.5 * psi.amplitudes, g)
        with pytest.raises(UnnormalizedStateError):
            from_product(psi, bad)


@pytest.mark.parametrize("operation", ["from_product", "distance", "apply_rho", "transition_amplitudes"])
def test_grid_mismatch(harmonic, operation):
    g, H, eigs = harmonic
    psi = eigenstate(eigs, 0)
    other = gaussian_packet(build_grid(-5, 5, 201), 0.0, 1.0)
    Psi, Other = from_product(psi, psi), from_product(other, other)
    calls = {
        "from_product": lambda: from_product(psi, other),
        "distance": lambda: distance(Psi, Other),
        "apply_rho": lambda: apply_rho(Psi, other),
        "transition_amplitudes": lambda: transition_amplitudes(Other, eigs),
    }
    with pytest.raises(GridMismatchError, match="different grids"):
        calls[operation]()


@pytest.mark.parametrize("shape", [(3, 3), (8, 5), (5, 8), (8,), (8, 8, 1)])
def test_from_kernel_refuses_a_kernel_not_n_by_n(shape):
    """A dense state's size is tied to its grid by K alone: its factor is a scalar."""
    with pytest.raises(GridMismatchError, match="on a grid of 8 points"):
        BipartiteWave.from_kernel(np.ones(shape, complex), build_grid(-5, 5, 8))


def test_distance_forms_only_r():
    """distance takes only R of the dx-weighted stacked factors, which it holds with QR's copy of them:
    at most 4.5 complex N-vectors for two rank-1 states at N = 10^5 (8 when it built the whole
    difference state), beside the states themselves."""
    n = 10**5
    g = build_grid(-20, 20, n)
    psi, phi = gaussian_packet(g, 0.0, 1.0, 1.0), gaussian_packet(g, 0.1, 1.0, 1.0)
    X, Y = from_product(psi, psi), from_product(phi, phi)
    expected = np.sqrt(2 - 2 * abs(np.vdot(psi.amplitudes, phi.amplitudes) * g.dx) ** 2)  # |psi psi* - phi phi*|
    tracemalloc.start()
    try:
        gap = distance(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * n, peak / (16 * n)
    assert gap == pytest.approx(expected, rel=1e-9)


class TestSchmidt:
    def test_particle_state_coefficients(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        dec = schmidt(Psi)
        assert dec.rank == 2
        assert np.allclose(dec.coefficients, [2**-0.5, 2**-0.5], atol=1e-10)

    def test_planted_singular_values(self):
        g = build_grid(-5, 5, 101)
        left = random_orthonormal(g, 2, seed=1)
        right = random_orthonormal(g, 2, seed=2)
        mu = np.array([0.8, 0.6])
        K = (left * mu) @ right.conj().T
        dec = schmidt(BipartiteWave.from_kernel(K, g))
        assert np.allclose(dec.coefficients, mu, atol=1e-10)
        rebuilt = (dec.left_states * dec.coefficients) @ dec.right_states.conj().T
        assert np.max(np.abs(rebuilt - K)) < 1e-10

    def test_residual_budget(self):
        g = build_grid(-5, 5, 101)
        Psi = random_kernel(g, seed=8)
        dec = schmidt(Psi, tol=1e-2)
        assert np.sum(dec.coefficients**2) + dec.residual == pytest.approx(
            bipartite_norm(Psi), abs=1e-10
        )
        rebuilt = (dec.left_states * dec.coefficients) @ dec.right_states.conj().T
        err2 = np.sum(np.abs(rebuilt - kernel(Psi)) ** 2) * g.dx**2
        assert err2 == pytest.approx(dec.residual, abs=1e-10)

    def test_factor_orthonormality(self):
        g = build_grid(-5, 5, 101)
        dec = schmidt(random_kernel(g, seed=8))
        for fam in (dec.left_states, dec.right_states):
            gram = fam.conj().T @ fam * g.dx
            assert np.max(np.abs(gram - np.eye(fam.shape[1]))) < 1e-9


class TestSchmidtProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n_points=st.integers(8, 40),
        rank=st.integers(1, 8),
        decay=st.floats(0.0, 40.0),
        noise=st.sampled_from([0.0, 1e-14, 1e-8, 1e-3]),
        tol=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_budget(self, n_points, rank, decay, noise, tol, seed):
        # sum mu^2 + residual = |Psi|^2 for every truncation
        g = build_grid(-5, 5, n_points)
        r = min(rank, n_points)
        mu = np.exp(-decay * np.linspace(0.0, 1.0, r))
        K = (random_orthonormal(g, r, seed) * mu) @ random_orthonormal(g, r, seed + 1).conj().T
        K = K + noise * kernel(random_kernel(g, seed + 2))
        Psi = BipartiteWave.from_kernel(K / np.sqrt(bipartite_norm(BipartiteWave.from_kernel(K, g))), g)
        dec = schmidt(Psi, tol)
        assert abs(np.sum(dec.coefficients**2) + dec.residual - bipartite_norm(Psi)) <= 1e-12


class TestEntropy:
    def test_wave_state_zero(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "wave")
        assert entanglement_entropy(Psi) == pytest.approx(0.0, abs=1e-12)

    def test_particle_state_ln2(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        assert entanglement_entropy(Psi) == pytest.approx(np.log(2), abs=1e-10)

    def test_planted_spectrum(self):
        g = build_grid(-5, 5, 101)
        mu2 = np.array([0.5, 0.3, 0.2])
        left = random_orthonormal(g, 3, seed=3)
        right = random_orthonormal(g, 3, seed=4)
        K = (left * np.sqrt(mu2)) @ right.conj().T
        expected = -np.sum(mu2 * np.log(mu2))  # direct evaluation, approx 1.0297
        assert entanglement_entropy(BipartiteWave.from_kernel(K, g)) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(1.0297, abs=1e-4)

    def test_route_equality_random(self):
        g = build_grid(-3, 3, 48)
        for seed in range(20):
            Psi = random_kernel(g, seed)
            assert abs(entanglement_entropy(Psi) - entropy_from_reduced(Psi)) < 1e-9

    def test_gram_route(self, slits):
        """The r x r Gram route equals the core's SVD entropy and that of the dense N x N rho."""
        g, modes = slits
        small = build_grid(-3, 3, 48)
        psi = gaussian_packet(small, 0.3, 0.7, 1.0)
        states = {
            "product": from_product(psi, psi),
            "particle": two_slit_state(g, modes, "particle"),
            "random": random_kernel(small, 7),
        }
        for name, Psi in states.items():
            M = kernel(Psi) * Psi.grid.dx
            w = np.linalg.eigvalsh(M @ M.conj().T)
            w = w[w > 1e-300]
            dense = float(-np.sum(w * np.log(w)))
            gram = entropy_from_reduced(Psi)
            assert abs(gram - entanglement_entropy(Psi)) <= 1e-12, name
            assert abs(gram - dense) <= 1e-12, name

    def test_gram_route_sees_factors(self, slits):
        """A factor off orthonormality by 1e-6 moves the Gram route, not the core's entropy."""
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        skewed = BipartiteWave(Psi.left * (1 + 1e-6), Psi.core, Psi.right, g)
        assert entanglement_entropy(skewed) == entanglement_entropy(Psi)
        assert abs(entropy_from_reduced(skewed) - entanglement_entropy(Psi)) > 1e-7

    def test_rank2_family_bounded_by_ln2(self):
        g = build_grid(-10, 10, 64)  # small, for the 1000 dense SVDs of the from_kernel route
        H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
        A = eigensystem(H, 2).states.astype(complex)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a /= np.linalg.norm(a)
            K = A @ a @ A.conj().T
            S = entanglement_entropy(BipartiteWave.from_kernel(K, g))
            assert -1e-12 <= S <= np.log(2) + 1e-9

    def test_unnormalized_rejected(self):
        g = build_grid(-3, 3, 48)
        Psi = random_kernel(g, 0)
        with pytest.raises(UnnormalizedStateError):
            entanglement_entropy(BipartiteWave.from_kernel(3.0 * kernel(Psi), g))


class TestApplyRho:
    def test_projector_action(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 0)
        Psi = from_product(psi, psi)
        out = apply_rho(Psi, psi)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-10

    def test_orthogonal_gives_zero(self, harmonic):
        g, H, eigs = harmonic
        Psi = from_product(eigenstate(eigs, 0), eigenstate(eigs, 0))
        out = apply_rho(Psi, eigenstate(eigs, 1))
        assert np.max(np.abs(out.amplitudes)) < 1e-10

    def test_particle_state_halves(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        out = apply_rho(Psi, WaveFunction(modes[:, 0], g))
        assert np.max(np.abs(out.amplitudes - modes[:, 0] / np.sqrt(2))) < 1e-10


    def test_real_phi_and_real_factor(self, harmonic):
        """A real phi against a complex factor, and a complex phi against a real one: neither is cast to complex."""
        g, H, eigs = harmonic
        real = WaveFunction(eigs.states[:, 0], g)
        packet = gaussian_packet(g, 0.5, 1.0, 1.0)
        for Psi, phi in ((from_product(packet, packet), real), (from_product(real, real), packet)):
            expected = kernel(Psi) @ phi.amplitudes * g.dx
            assert np.max(np.abs(apply_rho(Psi, phi).amplitudes - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestIdentityFactor:
    """A `from_kernel` state's factor is one scalar s, read as s I, at N = 1024: from_kernel holds no N x N array
    but the core, no N x N product with the factor is formed, and apply_rho holds no N x N array at all.
    Measured peaks over 16 N^2: from_kernel 1.00 (1.50 with the N x N identity factor), apply_rho 0.003 (1.00
    when it multiplied the identity), expectation 2.00 for the dense state (2.50), 0.002 for a product state
    (1.00, the real H copied to complex)."""

    N = 1024

    @pytest.fixture(scope="class")
    def problem(self):
        g = build_grid(-10, 10, self.N)
        H = dense(build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0)))
        return g, H, random_kernel(g, 3)

    def peak(self, fn):
        """(fn(), the peak of its allocations over 16 N^2 bytes)."""
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] / (16 * self.N**2)
        finally:
            tracemalloc.stop()

    def test_from_kernel(self, problem):
        g, H, Psi = problem
        K = Psi.core / g.dx
        state, peak = self.peak(lambda: BipartiteWave.from_kernel(K, g))
        assert peak <= 1.05, peak  # the core K dx
        assert np.ndim(state.left) == 0 and state.left is state.right

    def test_apply_rho(self, problem):
        g, H, Psi = problem
        bump = np.exp(-g.points**2)
        for phi in (gaussian_packet(g, 0.5, 1.0, 1.0), WaveFunction(bump / g.norm(bump), g)):  # complex, real
            out, peak = self.peak(lambda: apply_rho(Psi, phi))
            assert peak < 0.01, peak
            expected = kernel(Psi) @ phi.amplitudes * g.dx
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_expectation(self, problem):
        g, H, Psi = problem
        value, peak = self.peak(lambda: expectation(Psi, H))
        assert peak <= 2.05, peak  # F = C^H / sqrt(dx) and O F
        M = kernel(Psi) * g.dx
        assert value == pytest.approx(float(np.sum((M @ H) * M.conj()).real), rel=1e-12)
        packet = gaussian_packet(g, 0.5, 1.0, 1.0)
        value, peak = self.peak(lambda: expectation(from_product(packet, packet), H))
        assert peak < 0.01, peak
        assert value == pytest.approx(float(np.vdot(packet.amplitudes, H @ packet.amplitudes).real * g.dx), rel=1e-12)


class TestExpectation:
    def test_product_reduction_random(self):
        g = build_grid(-3, 3, 32)
        rng = np.random.default_rng(6)
        for _ in range(100):
            amp = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            psi = WaveFunction(amp / g.norm(amp), g)
            A = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
            O = A + A.conj().T
            direct = float(np.real(np.vdot(psi.amplitudes, O @ psi.amplitudes) * g.dx))
            assert abs(expectation(from_product(psi, psi), O) - direct) < 1e-9

    def test_eigenstate_energy(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 2)
        val = expectation(from_product(psi, psi), dense(H))
        assert val == pytest.approx(eigs.energies[2], abs=1e-8)

    def test_particle_state_projector(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        assert expectation(Psi, projector(WaveFunction(modes[:, 0], g))) == pytest.approx(0.5, abs=1e-10)

    def test_non_hermitian_detected(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "wave")
        O = np.outer(modes[:, 0], modes[:, 1].conj()) * g.dx
        with pytest.raises(NonHermitianOperatorError):
            expectation(Psi, 1j * O)


class TestProjectionProbability:
    def test_perfect_overlap(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 0)
        assert projection_probability(from_product(psi, psi), psi) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal(self, harmonic):
        g, H, eigs = harmonic
        Psi = from_product(eigenstate(eigs, 0), eigenstate(eigs, 0))
        assert projection_probability(Psi, eigenstate(eigs, 3)) == pytest.approx(0.0, abs=1e-10)

    def test_particle_state(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        assert projection_probability(Psi, WaveFunction(modes[:, 0], g)) == pytest.approx(0.5, abs=1e-10)

    def test_bounds_random(self):
        g = build_grid(-3, 3, 48)
        rng = np.random.default_rng(1)
        for seed in range(10):
            Psi = random_kernel(g, seed)
            amp = rng.standard_normal(48) + 1j * rng.standard_normal(48)
            phi = WaveFunction(amp / g.norm(amp), g)
            p = projection_probability(Psi, phi)
            assert -1e-10 <= p <= 1.0 + 1e-10


class TestPositionDensity:
    def test_wave_state(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "wave")
        expected = 0.5 * np.abs(modes[:, 0] + modes[:, 1]) ** 2
        assert np.max(np.abs(position_density(Psi) - expected)) < 1e-10

    def test_particle_state(self, slits):
        g, modes = slits
        Psi = two_slit_state(g, modes, "particle")
        expected = 0.5 * (np.abs(modes[:, 0]) ** 2 + np.abs(modes[:, 1]) ** 2)
        assert np.max(np.abs(position_density(Psi) - expected)) < 1e-10

    def test_born_density_recovered(self, harmonic):
        g, H, _ = harmonic
        psi = gaussian_packet(g, 0.5, 1.2)
        d = position_density(from_product(psi, psi))
        assert np.max(np.abs(d - np.abs(psi.amplitudes) ** 2)) < 1e-10
        assert np.sum(d) * g.dx == pytest.approx(1.0, abs=1e-9)


class TestTransitionAmplitudes:
    def test_single_pair(self, harmonic):
        g, H, eigs = harmonic
        Psi = from_product(eigenstate(eigs, 2), eigenstate(eigs, 0))
        amps = transition_amplitudes(Psi, eigs)
        expected = np.zeros((6, 6), dtype=complex)
        expected[2, 0] = 1.0
        assert np.max(np.abs(amps.c - expected)) < 1e-8

    def test_product_state_outer_form(self, harmonic):
        g, H, eigs = harmonic
        a = np.array([0.6, 0.0, 0.8j, 0, 0, 0])
        psi = WaveFunction(eigs.states.astype(complex) @ a, g)
        amps = transition_amplitudes(from_product(psi, psi), eigs)
        assert np.max(np.abs(amps.c - np.outer(a, a.conj()))) < 1e-8

    def test_parseval(self, harmonic):
        g, H, eigs = harmonic
        Psi = random_kernel(g, seed=17)
        amps = transition_amplitudes(Psi, eigs)
        total = np.sum(np.abs(amps.c) ** 2) + amps.truncation_residual
        assert total == pytest.approx(bipartite_norm(Psi), abs=1e-9)
        assert amps.truncation_residual >= -1e-12


class TestCollapseStatistics:
    def test_two_level_product(self, harmonic):
        g, H, eigs = harmonic
        r = 2**-0.5
        a = np.array([r, r, 0, 0, 0, 0])
        psi = WaveFunction(eigs.states.astype(complex) @ a, g)
        stats = collapse_statistics(transition_amplitudes(from_product(psi, psi), eigs))
        assert stats.p[0] == pytest.approx(0.5, abs=1e-10)
        assert stats.p[1] == pytest.approx(0.5, abs=1e-10)
        # closed form |a_m|^2 (<E> - E_m); equals +-0.25 for exact levels (0.5, 1.5)
        E = eigs.energies
        mean_E = 0.5 * (E[0] + E[1])
        assert stats.delta_E[0] == pytest.approx(0.5 * (mean_E - E[0]), abs=1e-10)
        assert stats.delta_E[1] == pytest.approx(0.5 * (mean_E - E[1]), abs=1e-10)
        assert stats.delta_E[0] == pytest.approx(0.25, abs=1e-3)
        assert stats.delta_E[1] == pytest.approx(-0.25, abs=1e-3)
        assert stats.delta_E_conditional[0] == pytest.approx(mean_E - E[0], abs=1e-9)

    def test_single_level(self, harmonic):
        g, H, eigs = harmonic
        psi = eigenstate(eigs, 0)
        stats = collapse_statistics(transition_amplitudes(from_product(psi, psi), eigs))
        assert stats.p[0] == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(stats.p[1:], 0.0, atol=1e-8)
        assert np.allclose(stats.delta_E, 0.0, atol=1e-7)

    def test_conditional_zero_below_roundoff(self, harmonic):
        # levels 3.. of the eigen-product state [1, 1, i] have p_m of round-off size only
        g, H, eigs = harmonic
        a = np.array([1, 1, 1j, 0, 0, 0]) / np.sqrt(3)
        psi = WaveFunction(eigs.states.astype(complex) @ a, g)
        stats = collapse_statistics(transition_amplitudes(from_product(psi, psi), eigs))
        assert np.all(stats.p[3:] < 1e-20)
        assert np.all(stats.delta_E_conditional[3:] == 0.0)
        assert np.array_equal(stats.delta_E_conditional[:3], stats.delta_E[:3] / stats.p[:3])

    def test_normalization_with_residual(self, harmonic):
        g, H, eigs = harmonic
        Psi = random_kernel(g, seed=23)
        stats = collapse_statistics(transition_amplitudes(Psi, eigs))
        assert np.all(stats.p >= 0)
        assert np.sum(stats.p) + stats.truncation_residual == pytest.approx(1.0, abs=1e-9)
