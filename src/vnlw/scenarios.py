"""Parameterized, reproducible experiment runs.

Four scenarios: two-slit duality (interference vs which-path statistics),
collapse statistics over an eigenbasis, gap spectroscopy, and the
product-state equivalence between the bipartite evolution and ordinary
single-particle evolution.  Besides them, the spectrum, evolve, schmidt and
entropy runs of the subcommands of those names.  Every runner takes a config
resolved by `schema.resolve`, its grid and H, and returns a ScenarioReport.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._digits import _distinct_cells, _kind, _layout, _write_cells
from .errors import ScenarioError
from .schema import ONE_PARTITE, TWO_SLIT, amplitudes, resolve, two_slit_amplitudes, two_slit_steps, window_indices
from .lattice import (
    Grid1D,
    HamiltonianMatrix,
    build_grid,
    box_grid,
    build_hamiltonian,
    sample_potential,
)
from .spectra import EigenSystem, distinct_gaps, eigensystem, eigenvalues, gap_spectrum
from .dynamics import (
    BipartiteWave,
    PropagatorConfig,
    WaveFunction,
    _times,
    gaussian_packet,
    propagate_amplitudes,
    propagate_schrodinger,
    propagate_vnl,
    trajectory,
)
from .bipartite import (
    distance,
    entanglement_entropy,
    entropy_from_reduced,
    from_product,
    position_density,
    schmidt_coefficients,
    transition_amplitudes,
    collapse_statistics,
)


def make_slit_modes(grid: Grid1D, separation: float = 4.0, sigma: float = 0.35) -> np.ndarray:
    """N x 2 slit factor [psi_1 psi_2]: Gaussians at -s/2 and +s/2, symmetrically orthogonalized.

    Raw Gaussians at the default geometry still overlap at the 1e-8 level, which
    would spoil the exact Schmidt arithmetic of the two-slit states; a
    Loewdin (symmetric) orthogonalization removes the overlap while barely
    perturbing the shapes.
    """
    g1 = gaussian_packet(grid, -0.5 * separation, sigma)
    g2 = gaussian_packet(grid, +0.5 * separation, sigma)
    A = np.column_stack([g1.amplitudes, g2.amplitudes])
    overlap = A.conj().T @ A * grid.dx
    w, v = np.linalg.eigh(overlap)
    if not w.min() > 0:  # refuses NaN too
        raise ScenarioError("slit modes are linearly dependent; increase separation or decrease sigma")
    return A @ (v / np.sqrt(w)) @ v.conj().T


def two_slit_state(grid: Grid1D, modes: np.ndarray, coefficients) -> BipartiteWave:
    """Kernel sum_{k,l} a_kl psi_k(x) psi_l^*(y): factor modes = [psi_1 psi_2], core a.

    coefficients are two-slit coefficients as the config gives them
    (`schema.two_slit_amplitudes`).  The modes must be dx-orthonormal, as
    `make_slit_modes` and every propagation leave them, so they are the
    factor as they are and the core alone carries the Schmidt coefficients.
    """
    if not TWO_SLIT.accepts(coefficients):
        raise ScenarioError(f"coefficients must be {TWO_SLIT.doc}, got {coefficients!r}")
    residual = np.max(np.abs(modes.conj().T @ modes * grid.dx - np.eye(2)))
    if not residual <= 1e-6:  # refuses NaN too
        raise ScenarioError(f"slit modes not dx-orthonormal: max |A^H A dx - I| = {residual}")
    a = np.array(two_slit_amplitudes(coefficients), dtype=complex).reshape(2, 2)
    return BipartiteWave(modes, a, modes, grid)


def fringe_visibility(density: np.ndarray, window: tuple) -> float:
    """Michelson visibility (d_max - d_min)/(d_max + d_min) over interior extrema.

    Extrema are local maxima/minima strictly inside the index window; with no
    interior modulation (monotone or single-hump profiles) the visibility is 0.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi - lo < 3 or lo < 0 or hi > len(density):
        raise ScenarioError(f"empty or invalid window ({lo}, {hi})")
    d = np.asarray(density, dtype=float)
    if np.any(d < -1e-12):
        raise ScenarioError("density has negative entries")
    seg = d[lo:hi]
    inner = seg[1:-1]
    is_max = (inner >= seg[:-2]) & (inner >= seg[2:])
    is_min = (inner <= seg[:-2]) & (inner <= seg[2:])
    strict = (inner > seg[:-2]) | (inner > seg[2:])
    strict_min = (inner < seg[:-2]) | (inner < seg[2:])
    maxima = inner[is_max & strict]
    minima = inner[is_min & strict_min]
    if maxima.size == 0 or minima.size == 0:
        return 0.0
    d_max = float(maxima.max())
    d_min = float(minima.min())
    if d_max + d_min == 0.0:
        return 0.0
    return (d_max - d_min) / (d_max + d_min)


@dataclass
class ScenarioReport:
    """Outputs of one run: summary metrics, plot-ready tables and JSON records."""

    scenario: str
    config: dict
    summary: dict
    tables: dict = field(default_factory=dict)  # name -> {column name: 1-D array}, in file order
    records: dict = field(default_factory=dict)  # name -> JSON object, written as name.json


# ---------------------------------------------------------------------------
# builders from a resolved config (schema.resolve)


def grid_from_config(c) -> Grid1D:
    g = c.grid
    if g.box:
        return box_grid(g.x_max - g.x_min, g.n_points, g.x_min)
    return build_grid(g.x_min, g.x_max, g.n_points)


def hamiltonian_from_config(c, grid: Grid1D) -> HamiltonianMatrix:
    potential = sample_potential(grid, **vars(c.potential))
    return build_hamiltonian(grid, potential, hbar=c.constants.hbar, mass=c.constants.mass)


def build_state(c, grid: Grid1D, H: HamiltonianMatrix, eigs: EigenSystem | None = None) -> WaveFunction | BipartiteWave:
    """The initial state of the `state` group.

    A one-partite type gives the wave function psi; its bipartite
    counterpart gives the product kernel psi(x) psi^*(y).  An eigen state of
    m coefficients takes the lowest m levels of eigs, an eigensystem of H
    with at least m levels that the run has solved already, or solves for
    them when eigs is None.
    """
    st = c.state
    if st.type == "random":
        rng = np.random.default_rng(st.seed)
        shape = (grid.n_points, grid.n_points)
        K = np.empty(shape, complex)  # one buffer, the same bytes as a + 1j b with no temporaries
        K.real = rng.standard_normal(shape)
        K.imag = rng.standard_normal(shape)
        K /= np.sqrt(np.sum(np.abs(K) ** 2) * np.float64(grid.dx) ** 2)
        return BipartiteWave.from_kernel(K, grid)
    if st.type == "two-slit":
        return two_slit_state(grid, make_slit_modes(grid, st.separation, st.sigma), st.coefficients)
    if st.type in ("gaussian", "gaussian-product"):
        psi = gaussian_packet(grid, st.center, st.sigma, st.momentum)
    else:  # eigen, eigen-product
        a = np.array(amplitudes(st.coefficients))
        a = a / np.abs(a).max()  # so that |a|^2 cannot overflow: the schema admits any finite amplitudes
        a = a / np.linalg.norm(a)
        states = (eigs or eigensystem(H, len(a))).states
        psi = WaveFunction(_times(states[:, :len(a)], a), grid)
    return psi if st.type in ONE_PARTITE else from_product(psi, psi)


# ---------------------------------------------------------------------------
# runners: one per run name


def run_scenario(config: dict, run: str | None = None) -> ScenarioReport:
    """Perform run, by default the scenario named by scenario.name, on config.

    Deterministic given the config, including its seeds.  A config that
    breaks the schema raises ConfigError, and a report that would hold a
    number that is not finite (an overflow, say the gap of two energies near
    the ends of the float range) ScenarioError.
    """
    name = run or (config.get("scenario") or {}).get("name")
    if name not in RUNNERS:
        raise ScenarioError(f"unknown run {name!r}; expected one of {tuple(RUNNERS)}")
    c = resolve(config, name)
    grid = grid_from_config(c)
    report = RUNNERS[name](c, grid, hamiltonian_from_config(c, grid))
    try:
        json.dumps([report.summary, report.records], allow_nan=False)
    except ValueError:
        raise ScenarioError(f"{name}: a summary or record value is not finite") from None
    for table, columns in report.tables.items():
        for column, values in columns.items():
            if not np.isfinite(values).all():
                raise ScenarioError(f"{name}: column {column} of table {table} is not finite")
    return report


def _run_gap_spectroscopy(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    k = c.spectra.k
    energies = eigenvalues(H, k)
    gaps = gap_spectrum(energies)
    dg = distinct_gaps(gaps, c.spectra.dedup_tol)
    # field views of one record array: int32 indices beside each gap, one allocation of 16 bytes a row
    rows = np.empty((k, k), dtype=[("n", np.int32), ("m", np.int32), ("lambda", float)])
    rows["n"] = np.arange(k)[:, None]
    rows["m"] = np.arange(k)
    rows["lambda"] = gaps
    rows = rows.reshape(-1)
    tables = {
        "energies": {"n": np.arange(k), "energy": energies},
        "gaps": {name: rows[name] for name in rows.dtype.names},
        "distinct_gaps": {"lambda": dg},
    }
    summary = {
        "k": k,
        "distinct_gap_count": int(len(dg)),
        "energies": energies.tolist(),
    }
    return ScenarioReport("gap-spectroscopy", c.given, summary, tables)


def _run_collapse(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    k = c.spectra.k
    levels = len(c.state.coefficients) if c.state.type in ("eigen", "eigen-product") else 0
    eigs = eigensystem(H, max(k, levels))  # one solve, for the amplitudes and an eigen state alike
    Psi = build_state(c, grid, H, eigs)
    if levels > k:
        eigs = EigenSystem(eigs.energies[:k], eigs.states[:, :k], grid)
    amps = transition_amplitudes(Psi, eigs)
    stats = collapse_statistics(amps)
    tables = {"collapse": {"m": np.arange(k), "energy": eigs.energies, "p": stats.p, "delta_E": stats.delta_E,
                           "delta_E_conditional": stats.delta_E_conditional}}
    summary = {
        "k": k,
        "p": [float(v) for v in stats.p],
        "delta_E": [float(v) for v in stats.delta_E],
        "total_probability": float(np.sum(stats.p)),
        "truncation_residual": stats.truncation_residual,
    }
    return ScenarioReport("collapse", c.given, summary, tables)


def _run_two_slit(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    sc = c.scenario
    cfg = PropagatorConfig(c.dynamics.dt, two_slit_steps(sc.evolve_time, c.dynamics.dt), c.dynamics.method)
    window = window_indices(vars(c.grid), sc.window)
    modes = propagate_amplitudes(make_slit_modes(grid, sc.separation, sc.sigma), H, cfg)
    evolved = two_slit_state(grid, modes, sc.coefficients)

    density = position_density(evolved)
    tables = {"density": {"x": grid.points, "density": density}}
    summary = {
        "entropy": float(entanglement_entropy(evolved)),
        "visibility": float(fringe_visibility(density, window)),
        "evolve_time": cfg.steps * cfg.dt,
    }

    if sc.sweep_points:
        thetas, entropies, visibilities = complementarity_sweep(evolved, window, n_points=sc.sweep_points)
        tables["sweep"] = {"theta": thetas, "entropy": entropies, "visibility": visibilities}
        summary["sweep_points"] = int(sc.sweep_points)
    return ScenarioReport("two-slit", c.given, summary, tables)


def complementarity_sweep(evolved: BipartiteWave, window, n_points: int = 11):
    """Entropy and visibility along the family cos(theta) Psi_W + sin(theta) Psi_P.

    The family passes through the coherent state at theta = 0 and the
    incoherent rank-2 state at theta = pi/2; each point's 2 x 2 coefficient
    matrix is renormalized and becomes the core of the evolved two-slit
    state, whose factor is shared by every point.  Visibility is read off
    the position density of that freely evolved state; entropy from its
    core, which the bipartite evolution leaves unchanged.
    """
    thetas = np.linspace(0.0, 0.5 * np.pi, n_points)
    a_W = np.array(two_slit_amplitudes("wave"), dtype=complex).reshape(2, 2)
    a_P = np.array(two_slit_amplitudes("particle"), dtype=complex).reshape(2, 2)
    entropies, visibilities = [], []
    for theta in thetas:
        a = np.cos(theta) * a_W + np.sin(theta) * a_P
        state = replace(evolved, core=a / np.linalg.norm(a))
        entropies.append(entanglement_entropy(state))
        visibilities.append(fringe_visibility(position_density(state), window))
    return thetas, np.array(entropies), np.array(visibilities)


def _run_product_equivalence(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    """frobenius_gap: the factored vNL evolution of psi psi^* against the product of Schrodinger evolutions
    of psi.  Both apply one propagator (with Crank-Nicolson, one Cayley step), so the gap is round-off."""
    sc = c.scenario
    psi = gaussian_packet(grid, sc.center, sc.sigma, sc.momentum)
    cfg = PropagatorConfig(c.dynamics.dt, c.dynamics.steps, c.dynamics.method)
    Psi_t = propagate_vnl(from_product(psi, psi), H, cfg)
    psi_t = propagate_schrodinger(psi, H, cfg)
    gap = distance(Psi_t, from_product(psi_t, psi_t))
    summary = {
        "frobenius_gap": gap,
        "time": cfg.steps * cfg.dt,
        "norm_vnl": float(np.sum(position_density(Psi_t)) * grid.dx),
    }
    return ScenarioReport("product-equivalence", c.given, summary, {})


def _run_spectrum(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    k = c.spectra.k
    eigs = eigensystem(H, k)
    tables = {
        "energies": {"n": np.arange(k), "energy": eigs.energies},
        "states": {"x": grid.points, **{f"psi_{n}": eigs.states[:, n] for n in range(k)}},
    }
    return ScenarioReport("spectrum", c.given, {"k": k, "energies": eigs.energies.tolist()}, tables)


def _run_evolve(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    cfg = PropagatorConfig(c.dynamics.dt, c.dynamics.steps, c.dynamics.method)
    rows = trajectory(build_state(c, grid, H), H, cfg, c.dynamics.stride)
    tables = {"trajectory": dict(zip(("t", "norm", "x_mean"), rows.T))}
    summary = {"steps": cfg.steps, "dt": cfg.dt, "final_norm": float(rows[-1, 1])}
    return ScenarioReport("evolve", c.given, summary, tables)


def _run_schmidt(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    mu, residual = schmidt_coefficients(np.linalg.svd(build_state(c, grid, H).core, compute_uv=False), c.state.tol)
    summary = {"rank": len(mu), "residual": residual}
    return ScenarioReport("schmidt", c.given, summary, records={"schmidt": {"coefficients": mu.tolist(), **summary}})


def _run_entropy(c, grid: Grid1D, H: HamiltonianMatrix) -> ScenarioReport:
    Psi = build_state(c, grid, H)
    summary = {
        "entropy": entanglement_entropy(Psi),
        "entropy_reduced_route": entropy_from_reduced(Psi),
    }
    return ScenarioReport("entropy", c.given, summary)


# Run name -> runner(resolved config, grid, H).
RUNNERS = {
    "two-slit": _run_two_slit,
    "collapse": _run_collapse,
    "gap-spectroscopy": _run_gap_spectroscopy,
    "product-equivalence": _run_product_equivalence,
    "spectrum": _run_spectrum,
    "evolve": _run_evolve,
    "schmidt": _run_schmidt,
    "entropy": _run_entropy,
}


# ---------------------------------------------------------------------------
# report output


def write_report(report: ScenarioReport, outdir, fmt: str = "csv") -> None:
    """Write summary.json, one data file per table and name.json per record into outdir.

    Tables take the format fmt (csv, json or gnuplot): a table's keys are
    its header and its 1-D arrays, all of one length, its columns.  Their
    blocks of rows are laid out on every CPU the process may use, by helper
    threads that have all ended when this returns or raises; the bytes do
    not depend on how many there are.  Records are JSON in every format.
    Timing is deliberately left out of summary.json so that repeat runs
    with the same config and the same number of BLAS threads produce
    byte-identical summaries; another thread count can change the last
    digits of BLAS-reduced values.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "scenario": report.scenario,
        "config": report.config,
        "summary": report.summary,
    }
    _write_json(summary, outdir / "summary.json")
    for name, record in report.records.items():
        _write_json(record, outdir / f"{name}.json")
    every = [column for table in report.tables.values() for column in table.values()]
    cells = {kind: _distinct_cells([c for c in every if _kind(c) == kind], fmt) for kind in "if"}
    for name, table in report.tables.items():
        columns = list(table.values())
        head, layout, tail = _layout(fmt, list(table), bool(columns and len(columns[0])))
        with open(outdir / f"{name}{_SUFFIX[fmt]}", "wb") as fh:
            fh.write(head.encode())
            _write_cells(fh, columns, cells, layout)
            fh.write(tail.encode())


_SUFFIX = {"csv": ".csv", "gnuplot": ".dat", "json": ".json"}


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
