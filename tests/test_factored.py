"""The factored bipartite state Psi = A C B^H against the dense kernel it stands for.

Each operation on a factored state is checked against the same operation
written out on the dense N x N kernel, as the library computed it when every
state was held dense.  States are drawn with random, non-orthonormal factors
of rank 1 to 4 (shared or distinct on the two sides), and as dense rank-N
kernels on small grids.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import zgttrf
from hypothesis import given, settings, strategies as st

from vnlw.bipartite import (
    apply_rho,
    distance,
    entanglement_entropy,
    entropy_from_reduced,
    expectation,
    position_density,
    schmidt,
    transition_amplitudes,
)
from vnlw import dynamics, scenarios, spectra
from vnlw.dynamics import (
    METHODS,
    BipartiteWave,
    PropagatorConfig,
    WaveFunction,
    bipartite_norm,
    propagate_schrodinger,
    propagate_vnl,
    trajectory,
)
from vnlw.lattice import build_grid, build_hamiltonian, sample_potential
from vnlw.spectra import eigensystem
from oracles import dense_propagator, kernel

TOL = 1e-12
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _problem(n_points, rank, shared, seed):
    """A harmonic H and a normalized state of the given rank (None: the dense rank-N kernel)."""
    g = build_grid(-5, 5, n_points)
    H = build_hamiltonian(g, sample_potential(g, "harmonic", omega=1.0))
    rng = np.random.default_rng(seed)
    if rank is None:
        K = _complex(rng, (n_points, n_points))
        return g, H, BipartiteWave.from_kernel(K / np.sqrt(np.sum(np.abs(K) ** 2) * g.dx**2), g)
    A, C = _complex(rng, (n_points, rank)), _complex(rng, (rank, rank))
    B = A if shared else _complex(rng, (n_points, rank))
    C /= np.sqrt(np.sum(np.abs(A @ C @ B.conj().T) ** 2) * g.dx**2)
    return g, H, BipartiteWave.from_factors(A, C, B, g)


cases = dict(
    n_points=st.integers(8, 40),
    rank=st.one_of(st.integers(1, 4), st.none()),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


class TestDenseOracle:
    @PROPERTY
    @given(**cases)
    def test_factors_orthonormal_and_kernel(self, n_points, rank, shared, seed):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        for F in (Psi.left, Psi.right):
            gram = F.conj().T @ F * g.dx
            assert np.max(np.abs(gram - np.eye(F.shape[1]))) <= TOL
        assert (Psi.right is Psi.left) == (shared or rank is None)
        assert np.sum(np.abs(kernel(Psi)) ** 2) * g.dx**2 == pytest.approx(1.0, abs=TOL)

    @PROPERTY
    @given(**cases)
    def test_norm(self, n_points, rank, shared, seed):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        for scale in (1.0, 0.5):
            state = BipartiteWave(Psi.left, scale * Psi.core, Psi.right, g)
            dense = float(np.sum(np.abs(kernel(state)) ** 2) * g.dx**2)
            assert abs(bipartite_norm(state) - dense) <= TOL

    @PROPERTY
    @given(**cases, tol=st.sampled_from([0.0, 1e-12, 1e-2, 0.5]))
    def test_schmidt(self, n_points, rank, shared, seed, tol):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        K = kernel(Psi)
        s = np.linalg.svd(K * g.dx, compute_uv=False)
        keep = s > tol * s[0]
        dec = schmidt(Psi, tol)
        # at tol = 0 the dense SVD also keeps its round-off values beyond the rank
        assert dec.rank == int(np.sum(keep)) or tol == 0.0
        coefficients = np.zeros_like(s)
        coefficients[:dec.rank] = dec.coefficients
        assert np.max(np.abs(coefficients - np.where(keep, s, 0.0))) <= TOL
        assert abs(dec.residual - float(np.sum(s[~keep] ** 2))) <= TOL
        if tol == 0.0:
            rebuilt = (dec.left_states * dec.coefficients) @ dec.right_states.conj().T
            assert np.max(np.abs(rebuilt - K)) <= TOL

    @PROPERTY
    @given(**cases)
    def test_entropy(self, n_points, rank, shared, seed):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        mu2 = np.linalg.svd(kernel(Psi) * g.dx, compute_uv=False) ** 2
        mu2 = mu2[mu2 > 0.0]
        assert abs(entanglement_entropy(Psi) - float(-np.sum(mu2 * np.log(mu2)))) <= TOL
        assert abs(entropy_from_reduced(Psi) - entanglement_entropy(Psi)) <= 1e-9

    @PROPERTY
    @given(**cases)
    def test_density_and_reduced(self, n_points, rank, shared, seed):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        M = kernel(Psi) * g.dx
        dense = np.sum(np.abs(kernel(Psi)) ** 2, axis=1) * g.dx
        assert np.max(np.abs(position_density(Psi) - dense)) <= TOL
        for side, rho in (("x", M @ M.conj().T), ("y", M.conj().T @ M)):
            w = np.linalg.eigvalsh(rho)
            w = w[w > 1e-300]
            assert abs(entropy_from_reduced(Psi, side) - float(-np.sum(w * np.log(w)))) <= TOL

    @PROPERTY
    @given(**cases, k=st.integers(1, 8))
    def test_transition_amplitudes(self, n_points, rank, shared, seed, k):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        eigs = eigensystem(H, k)
        S = eigs.states
        dense = g.dx**2 * (S.conj().T @ kernel(Psi) @ S)
        amps = transition_amplitudes(Psi, eigs)
        assert np.max(np.abs(amps.c - dense)) <= TOL
        assert abs(amps.truncation_residual - (1.0 - np.sum(np.abs(dense) ** 2))) <= TOL

    @PROPERTY
    @given(**cases)
    def test_expectation_and_apply_rho(self, n_points, rank, shared, seed):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        rng = np.random.default_rng(seed + 1)
        X = _complex(rng, (n_points, n_points))
        O = (X + X.conj().T) / 2
        M = kernel(Psi) * g.dx
        assert abs(expectation(Psi, O) - float(np.real(np.trace(M @ O @ M.conj().T)))) <= TOL
        phi = _complex(rng, n_points)
        out = apply_rho(Psi, WaveFunction(phi, g))
        assert np.max(np.abs(out.amplitudes - kernel(Psi) @ phi * g.dx)) <= TOL

    @PROPERTY
    @given(**cases, method=st.sampled_from(METHODS), dt=st.floats(-1.0, 1.0).filter(lambda v: v != 0.0),
           steps=st.integers(0, 50))
    def test_propagate_vnl(self, n_points, rank, shared, seed, method, dt, steps):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        cfg = PropagatorConfig(dt, steps, method)
        U = dense_propagator(H, dt, steps, method)
        out = propagate_vnl(Psi, H, cfg)
        assert np.max(np.abs(kernel(out) - U @ kernel(Psi) @ U.conj().T)) <= TOL
        assert (out.right is out.left) == (Psi.right is Psi.left)
        for F in (out.left, out.right):
            assert np.max(np.abs(F.conj().T @ F * g.dx - np.eye(F.shape[1]))) <= TOL

    @PROPERTY
    @given(**cases, scale=st.sampled_from([0.0, 1e-10, 1e-3, 1.0]))
    def test_distance(self, n_points, rank, shared, seed, scale):
        g, H, Psi = _problem(n_points, rank, shared, seed)
        _, _, other = _problem(n_points, rank, shared, seed + 1)
        # Y = Psi + scale * other
        Y = BipartiteWave.from_factors(
            np.hstack([Psi.left, other.left]),
            scipy.linalg.block_diag(Psi.core, scale * other.core),
            np.hstack([Psi.right, other.right]),
            g,
        )
        dense = float(np.sqrt(np.sum(np.abs(kernel(Psi) - kernel(Y)) ** 2) * g.dx**2))
        assert abs(distance(Psi, Y) - dense) <= TOL


class TestTrajectory:
    """`trajectory` rows (t, norm, x_mean) against the dense kernel of `propagate_vnl`
    (`propagate_schrodinger` for a vector), in the order the library picks and in each
    contraction order forced."""

    @staticmethod
    def oracle_row(state, H, cfg):
        g = state.grid
        if isinstance(state, WaveFunction):
            out = propagate_schrodinger(state, H, cfg)
            density = np.abs(out.amplitudes) ** 2 * g.dx
        else:
            out = propagate_vnl(state, H, cfg)
            density = np.sum(np.abs(kernel(out)) ** 2, axis=1) * g.dx**2
        return [cfg.steps * cfg.dt, np.sum(density), np.sum(g.points * density)]

    @PROPERTY
    @given(n_points=st.integers(8, 24), rank=st.sampled_from(["vector", 1, 2, None]), shared=st.booleans(),
           seed=st.integers(0, 2**32 - 1), method=st.sampled_from(METHODS),
           dt=st.floats(-1.0, 1.0).filter(lambda v: v != 0.0), steps=st.integers(0, 30),
           stride=st.integers(1, 10), reduced=st.sampled_from([None, False, True]))
    def test_rows_match_the_dense_oracle(self, n_points, rank, shared, seed, method, dt, steps, stride, reduced):
        g, H, state = _problem(n_points, 1 if rank == "vector" else rank, shared, seed)
        if rank == "vector":
            state = WaveFunction(state.left[:, 0], g)  # a dx-normalized column
        cfg = PropagatorConfig(dt, steps, method)
        with pytest.MonkeyPatch.context() as mp:
            if reduced is not None:
                mp.setattr(dynamics, "_reduced_order_pays", lambda n, r, rows: reduced)
            rows = trajectory(state, H, cfg, stride)
        counts = [*range(0, steps, stride), steps]
        expected = [self.oracle_row(state, H, PropagatorConfig(dt, k, method)) for k in counts]
        assert rows.shape == (len(counts), 3)
        assert np.max(np.abs(rows - np.array(expected))) <= TOL

    @pytest.mark.parametrize("n, r, rows, reduced", [
        (401, 401, 101, True),   # evolve-random: a full-rank kernel
        (24, 24, 11, True),
        (24, 24, 1, False),      # one row does not repay X~
        (4096, 1, 101, False),   # a vector or a product
        (801, 2, 1001, False),   # a two-slit state
    ])
    def test_order_choice(self, n, r, rows, reduced):
        assert dynamics._reduced_order_pays(n, r, rows) is reduced


@pytest.mark.parametrize("method", METHODS)
def test_two_slit_does_no_large_decomposition(monkeypatch, method):
    """Every SVD of the two-slit run is of a core with at most 2 columns, and no
    decomposition takes or returns an N x N array.  The slit factor is used as
    it is, with no QR, and evolved once: one tridiagonal LU (Crank-Nicolson) or one
    eigensolve (eigenbasis) for both modes."""
    calls = []
    for name in ("svd", "qr"):
        real = getattr(np.linalg, name)

        def recording(a, *args, _real=real, _name=name, **kwargs):
            out = _real(a, *args, **kwargs)
            parts = out if isinstance(out, tuple) else (out,)
            calls.append((_name, np.shape(a), [np.shape(p) for p in parts]))
            return out

        monkeypatch.setattr(np.linalg, name, recording)
    lus, solves = [], []

    def counting_zgttrf(dl, d, du, **overwrite):
        lus.append(len(d))
        return zgttrf(dl, d, du, **overwrite)

    def counting_eigensystem(H, k):
        solves.append(k)
        return eigensystem(H, k)

    monkeypatch.setattr(dynamics, "zgttrf", counting_zgttrf)
    for module in (spectra, dynamics, scenarios):
        monkeypatch.setattr(module, "eigensystem", counting_eigensystem)
    config = {
        "schema_version": 1,
        "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 801},
        "potential": {"kind": "infinite-box"},
        "dynamics": {"dt": 1e-3, "method": method},
        "scenario": {"name": "two-slit", "coefficients": "wave", "evolve_time": 2.0, "sweep_points": 11},
    }
    report = scenarios.run_scenario(config)
    assert len(report.tables["sweep"]["theta"]) == 11
    svd_columns = [shape[-1] for name, shape, _ in calls if name == "svd"]
    assert len(svd_columns) == 12 and max(svd_columns) <= 2
    assert [name for name, _, _ in calls if name == "qr"] == []
    shapes = [shape for _, shape, outs in calls for shape in [shape, *outs]]
    assert all(shape[-2:] != (801, 801) for shape in shapes if len(shape) >= 2)
    if method == "crank-nicolson":
        assert (lus, solves) == ([801], [])
    else:
        assert (lus, solves) == ([], [801])
