"""End-to-end acceptance gate.

Each test checks one numbered behavioral guarantee of the library and prints a
single PASS/FAIL line so the whole gate can be read off the pytest -s output.
Tolerances are part of the contract and are not to be loosened here.  Every
bipartite state is checked in two representations: factored as the library
builds it (rank 1 or 2 for products and two-slit states, a random rank-4
state beside each random kernel) and as the dense rank-N state of its kernel.
"""

import time

import numpy as np
import pytest

from vnlw.bipartite import (
    collapse_statistics,
    entanglement_entropy,
    entropy_from_reduced,
    expectation,
    from_product,
    position_density,
    projection_probability,
    transition_amplitudes,
)
from vnlw.dynamics import (
    BipartiteWave,
    PropagatorConfig,
    WaveFunction,
    bipartite_norm,
    gaussian_packet,
    propagate_amplitudes,
    propagate_schrodinger,
    propagate_vnl,
)
from vnlw.lattice import PotentialSpec, box_grid, build_grid, build_hamiltonian, sample_potential
from vnlw.scenarios import complementarity_sweep, make_slit_modes, two_slit_state
from vnlw.spectra import eigensystem
from oracles import difference_operator_spectrum, kernel


def _verdict(number, label, ok):
    print(f"CRITERION {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number}: {label}"


def _harmonic(n_points, half_width=10.0, omega=1.0):
    g = build_grid(-half_width, half_width, n_points)
    return g, build_hamiltonian(g, sample_potential(g, PotentialSpec.harmonic(omega)))


def _random_kernel(grid, rng):
    K = rng.standard_normal((grid.n_points,) * 2) + 1j * rng.standard_normal(
        (grid.n_points,) * 2
    )
    K /= np.sqrt(np.sum(np.abs(K) ** 2) * grid.dx**2)
    return BipartiteWave.from_kernel(K, grid)


def _random_factored(grid, rng, rank=4):
    A, C, B = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in ((grid.n_points, rank), (rank, rank), (grid.n_points, rank))
    )
    C /= np.sqrt(np.sum(np.abs(A @ C @ B.conj().T) ** 2) * grid.dx**2)
    return BipartiteWave.from_factors(A, C, B, grid)


def _random_states(grid, rng):
    """A random dense kernel (rank N) and a random factored state of rank 4."""
    return _random_kernel(grid, rng), _random_factored(grid, rng)


def _representations(Psi):
    """Psi as built, and the dense rank-N state of its kernel."""
    return Psi, BipartiteWave.from_kernel(kernel(Psi), Psi.grid, Psi.time)


def test_criterion_01_gap_spectrum_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in (16, 32):
        hams = [
            build_hamiltonian(box_grid(1.0, n), np.zeros(n)),
            _harmonic(n, half_width=6.0)[1],
        ]
        for H in hams:
            direct = difference_operator_spectrum(H)
            eigs = eigensystem(H, n)
            pairwise = np.sort(np.subtract.outer(eigs.energies, eigs.energies).ravel())
            worst = max(worst, float(np.max(np.abs(direct - pairwise))))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        f"difference-operator spectrum equals pairwise gaps (max err {worst:.2e}, {elapsed:.1f}s)",
        worst < 1e-8 and elapsed < 5.0,
    )


def test_criterion_02_stationary_bipartite_phase():
    start = time.perf_counter()
    g, H = _harmonic(201)
    eigs = eigensystem(H, 3)
    gap = eigs.energies[2] - eigs.energies[0]
    Psi0 = from_product(
        WaveFunction(eigs.states[:, 2].astype(complex), g),
        WaveFunction(eigs.states[:, 0].astype(complex), g),
    )
    target = np.exp(-1j * gap * 1.0) * kernel(Psi0)
    deficit_cn = deficit_eb = 0.0
    for Psi in _representations(Psi0):
        out_cn = propagate_vnl(Psi, H, PropagatorConfig(1e-3, 1000, "crank-nicolson"))
        ov_cn = np.sum(kernel(out_cn) * target.conj()) * g.dx**2
        deficit_cn = max(deficit_cn, abs(1.0 - ov_cn))

        out_eb = propagate_vnl(Psi, H, PropagatorConfig(1e-3, 1000, "eigenbasis"))
        ov_eb = np.sum(kernel(out_eb) * target.conj()) * g.dx**2
        deficit_eb = max(deficit_eb, abs(1.0 - ov_eb))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        f"stationary pair phase deficits cn {deficit_cn:.2e} / eigenbasis {deficit_eb:.2e} ({elapsed:.1f}s)",
        deficit_cn < 1e-5 and deficit_eb < 1e-10 and elapsed < 10.0,
    )


def test_criterion_03_norm_conservation():
    start = time.perf_counter()
    g, H = _harmonic(201)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(3):
        for Psi in _random_states(g, rng):
            out = propagate_vnl(Psi, H, PropagatorConfig(1e-3, 1000))
            # the core's norm, the evolved state's own, and the factors' orthonormality
            dense = np.sum(np.abs(kernel(out)) ** 2) * g.dx**2
            ortho = max(
                np.max(np.abs(F.conj().T @ F * g.dx - np.eye(F.shape[1]))) for F in (out.left, out.right)
            )
            worst = max(worst, abs(bipartite_norm(out) - 1.0), abs(dense - 1.0), ortho)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        f"norm drift after 1000 steps {worst:.2e} ({elapsed:.1f}s)",
        worst < 1e-10 and elapsed < 30.0,
    )


def test_criterion_04_product_state_equivalence():
    g, H = _harmonic(401, half_width=20.0)
    psi = gaussian_packet(g, 0.0, 1.0, momentum=1.0)
    cfg = PropagatorConfig(1e-3, 1000)
    psi_t = propagate_schrodinger(psi, H, cfg)
    outer = from_product(psi_t, psi_t)
    gap = 0.0
    for Psi in _representations(from_product(psi, psi)):
        Psi_t = propagate_vnl(Psi, H, cfg)
        gap = max(gap, float(np.sqrt(np.sum(np.abs(kernel(Psi_t) - kernel(outer)) ** 2) * g.dx**2)))
    _verdict(4, f"product-state Frobenius gap at t=1 is {gap:.2e}", gap < 1e-8)


def test_criterion_05_entropy_endpoints_and_routes():
    g = build_grid(-20, 20, 401)
    modes = make_slit_modes(g)
    s_wave = max(
        entanglement_entropy(Psi)
        for Psi in _representations(two_slit_state(g, modes, "wave"))
    )
    ln2_err = max(
        abs(entanglement_entropy(Psi) - np.log(2))
        for Psi in _representations(two_slit_state(g, modes, "particle"))
    )
    g = build_grid(-1, 1, 48)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        for Psi in _random_states(g, rng):
            worst = max(worst, abs(entanglement_entropy(Psi) - entropy_from_reduced(Psi)))
    ok = s_wave < 1e-12 and ln2_err < 1e-10 and worst < 1e-9
    _verdict(
        5,
        f"S(wave)={s_wave:.2e}, |S(particle)-ln2|={ln2_err:.2e}, "
        f"route gap {worst:.2e}",
        ok,
    )


def test_criterion_06_measurement_reduction():
    g = build_grid(-1, 1, 48)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        psi = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * g.dx)
        psi = WaveFunction(psi, g)
        A = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        O = (A + A.conj().T) / 2
        rhs = float(
            np.real(psi.amplitudes.conj() @ O @ psi.amplitudes) * g.dx
        )
        for Psi in _representations(from_product(psi, psi)):
            worst = max(worst, abs(expectation(Psi, O) - rhs))
    g = build_grid(-20, 20, 401)
    modes = make_slit_modes(g)
    p_err = max(
        abs(projection_probability(Psi, WaveFunction(modes[:, 0], g)) - 0.5)
        for Psi in _representations(two_slit_state(g, modes, "particle"))
    )
    ok = worst < 1e-9 and p_err < 1e-10
    _verdict(
        6,
        f"expectation reduction err {worst:.2e}, particle-state projection err {p_err:.2e}",
        ok,
    )


def test_criterion_07_position_densities():
    g = build_grid(-20, 20, 401)
    modes = make_slit_modes(g)
    a1, a2 = modes.T
    err_wave = err_particle = 0.0
    for Psi in _representations(two_slit_state(g, modes, "wave")):
        err_wave = max(err_wave, float(np.max(np.abs(position_density(Psi) - 0.5 * np.abs(a1 + a2) ** 2))))
    for Psi in _representations(two_slit_state(g, modes, "particle")):
        expected = 0.5 * (np.abs(a1) ** 2 + np.abs(a2) ** 2)
        err_particle = max(err_particle, float(np.max(np.abs(position_density(Psi) - expected))))
    _verdict(
        7,
        f"density errors wave {err_wave:.2e} / particle {err_particle:.2e}",
        err_wave < 1e-10 and err_particle < 1e-10,
    )


def test_criterion_08_collapse_statistics():
    g, H = _harmonic(401)
    eigs = eigensystem(H, 2)
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = WaveFunction((eigs.states @ a).astype(complex), g)
    E_mean = float(np.sum(np.abs(a) ** 2 * eigs.energies))
    closed = np.array(
        [abs(a[m]) ** 2 * (E_mean - eigs.energies[m]) for m in range(2)]
    )
    p_err = dE_err = near_quarter = 0.0
    for Psi in _representations(from_product(psi, psi)):
        stats = collapse_statistics(transition_amplitudes(Psi, eigs))
        p_err = max(p_err, float(np.max(np.abs(stats.p - 0.5))))
        dE_err = max(dE_err, float(np.max(np.abs(stats.delta_E - closed))))
        near_quarter = max(near_quarter, float(np.max(np.abs(stats.delta_E - np.array([0.25, -0.25])))))

    rng = np.random.default_rng(23)
    g2 = build_grid(-8, 8, 64)
    H2 = build_hamiltonian(g2, sample_potential(g2, PotentialSpec.harmonic(1.0)))
    eigs2 = eigensystem(H2, 12)
    total_err = 0.0
    for _ in range(20):
        for Psi in _random_states(g2, rng):
            s = collapse_statistics(transition_amplitudes(Psi, eigs2))
            total_err = max(total_err, abs(float(np.sum(s.p)) + s.truncation_residual - 1.0))
    ok = p_err < 1e-12 and dE_err < 1e-12 and near_quarter < 1e-3 and total_err < 1e-9
    _verdict(
        8,
        f"p err {p_err:.2e}, dE closed-form err {dE_err:.2e} "
        f"(vs +-0.25: {near_quarter:.2e}), probability budget err {total_err:.2e}",
        ok,
    )


def test_criterion_09_complementarity_sweep():
    start = time.perf_counter()
    g = build_grid(-20, 20, 801)
    H = build_hamiltonian(g, sample_potential(g, PotentialSpec.infinite_box()))
    modes = make_slit_modes(g)
    cfg = PropagatorConfig(1e-3, 2000)
    evolved = two_slit_state(g, propagate_amplitudes(modes, H, cfg), "wave")
    window = np.searchsorted(g.points, -8.0, side="left"), np.searchsorted(g.points, 8.0, side="right")
    thetas, entropies, visibilities = complementarity_sweep(evolved, window, 11)
    elapsed = time.perf_counter() - start
    v_ok = visibilities[0] > 0.9 and visibilities[-1] < 0.05
    mono = bool(
        np.all(np.diff(visibilities) <= 1e-12) and np.all(np.diff(entropies) >= -1e-12)
    )
    _verdict(
        9,
        f"V: {visibilities[0]:.3f} -> {visibilities[-1]:.3f} non-increasing={mono}, "
        f"S: {entropies[0]:.2e} -> {entropies[-1]:.3f} ({elapsed:.1f}s)",
        v_ok and mono and elapsed < 60.0,
    )


def test_criterion_10_spectrum_regression():
    g = box_grid(1.0, 2001)
    H = build_hamiltonian(g, np.zeros(2001))
    eigs = eigensystem(H, 3)
    exact = np.pi**2 / 2 * np.array([1.0, 4.0, 9.0])
    box_rel = float(np.max(np.abs(eigs.energies - exact) / exact))

    _, Hh = _harmonic(2001)
    eh = eigensystem(Hh, 4)
    harm_err = float(np.max(np.abs(eh.energies - np.array([0.5, 1.5, 2.5, 3.5]))))
    _verdict(
        10,
        f"box relative err {box_rel:.2e}, harmonic abs err {harm_err:.2e}",
        box_rel < 1e-3 and harm_err < 1e-3,
    )
