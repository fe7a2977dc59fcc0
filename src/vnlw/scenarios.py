"""Parameterized, reproducible experiment runs.

Four scenarios: two-slit duality (interference vs which-path statistics),
collapse statistics over an eigenbasis, gap spectroscopy, and the
product-state equivalence between the bipartite evolution and ordinary
single-particle evolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .lattice import (
    Grid1D,
    HamiltonianMatrix,
    PotentialSpec,
    build_grid,
    box_grid,
    build_hamiltonian,
    sample_potential,
)
from .spectra import distinct_gaps, eigensystem, eigenvalues, gap_spectrum
from .dynamics import (
    BipartiteWave,
    PropagatorConfig,
    WaveFunction,
    bipartite_norm,
    gaussian_packet,
    normalize,
    propagate_schrodinger,
    propagate_vnl,
)
from .bipartite import (
    entanglement_entropy,
    from_product,
    position_density,
    transition_amplitudes,
    collapse_statistics,
)

SCENARIOS = ("two-slit", "collapse", "gap-spectroscopy", "product-equivalence")


@dataclass(frozen=True)
class TwoSlitCoefficients:
    """Amplitudes of the four product kernels psi_k(x) psi_l^*(y), k,l in {1,2}."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=complex)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.as_matrix()) ** 2))

    @classmethod
    def wave(cls) -> "TwoSlitCoefficients":
        """Coherent state (psi_1 + psi_2)(psi_1 + psi_2)^* / 2: interference present."""
        return cls(0.5, 0.5, 0.5, 0.5)

    @classmethod
    def particle(cls) -> "TwoSlitCoefficients":
        """Incoherent rank-2 state (psi_1 psi_1^* + psi_2 psi_2^*) / sqrt(2)."""
        r = 1.0 / np.sqrt(2.0)
        return cls(r, 0.0, 0.0, r)


@dataclass(frozen=True)
class SlitModes:
    """Normalized, mutually orthogonal wave functions of the two slits."""

    psi1: WaveFunction
    psi2: WaveFunction


def make_slit_modes(grid: Grid1D, separation: float = 4.0, sigma: float = 0.35) -> SlitModes:
    """Gaussian slit modes centered at -s/2 and +s/2, symmetrically orthogonalized.

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
    if w.min() <= 0:
        raise ScenarioError("slit modes are linearly dependent; increase separation")
    A = A @ (v / np.sqrt(w)) @ v.conj().T
    return SlitModes(
        WaveFunction(A[:, 0], grid),
        WaveFunction(A[:, 1], grid),
    )


def two_slit_state(modes: SlitModes, coeffs: TwoSlitCoefficients) -> BipartiteWave:
    """Kernel sum_{k,l} a_kl psi_k(x) psi_l^*(y)."""
    if abs(coeffs.norm_squared() - 1.0) > 1e-10:
        raise ScenarioError(
            f"coefficients not normalized: sum |a|^2 = {coeffs.norm_squared()}"
        )
    grid = modes.psi1.grid
    olap = abs(grid.inner(modes.psi1.amplitudes, modes.psi2.amplitudes))
    if olap > 1e-6:
        raise ScenarioError(f"slit modes not orthogonal: |<psi1, psi2>| = {olap}")
    a = coeffs.as_matrix()
    A = np.column_stack([modes.psi1.amplitudes, modes.psi2.amplitudes])
    return BipartiteWave(A @ a @ A.conj().T, grid, modes.psi1.time)


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
    # name -> {"columns": [...], "rows": list of rows or a 2-D float array}
    tables: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)  # name -> JSON object, written as name.json


# ---------------------------------------------------------------------------
# config helpers

_DEFAULT_GRIDS = {
    "two-slit": {"x_min": -20.0, "x_max": 20.0, "n_points": 801},
    "collapse": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
    "gap-spectroscopy": {"x_min": -10.0, "x_max": 10.0, "n_points": 2001},
    "product-equivalence": {"x_min": -20.0, "x_max": 20.0, "n_points": 401},
}


def potential_from_dict(d: dict) -> PotentialSpec:
    kind = d.get("kind", "infinite-box")
    params = {k: v for k, v in d.items() if k != "kind"}
    if kind == "infinite-box":
        return PotentialSpec.infinite_box()
    if kind == "harmonic":
        return PotentialSpec.harmonic(params.get("omega", 1.0), params.get("mass", 1.0))
    if kind == "double-well":
        return PotentialSpec.double_well(params.get("a", 1.0), params.get("b", 1.0))
    if kind == "barrier":
        return PotentialSpec.barrier(
            params.get("height", 1.0), params.get("width", 1.0), params.get("center", 0.0)
        )
    if kind == "tabulated":
        return PotentialSpec.tabulated(params["values"])
    raise ScenarioError(f"unknown potential kind {kind!r}")


def grid_from_config(config: dict, scenario: str | None = None) -> Grid1D:
    g = dict(_DEFAULT_GRIDS.get(scenario, _DEFAULT_GRIDS["collapse"]))
    g.update(config.get("grid", {}))
    if g.pop("box", False):
        return box_grid(g["x_max"] - g["x_min"], g["n_points"], g["x_min"])
    return build_grid(g["x_min"], g["x_max"], g["n_points"])


def hamiltonian_from_config(config: dict, grid: Grid1D) -> HamiltonianMatrix:
    constants = config.get("constants", {})
    spec = potential_from_dict(config.get("potential", {"kind": "infinite-box"}))
    return build_hamiltonian(
        grid,
        sample_potential(grid, spec),
        hbar=constants.get("hbar", 1.0),
        mass=constants.get("mass", 1.0),
    )


def propagator_from_config(config: dict, steps: int | None = None) -> PropagatorConfig:
    d = config.get("dynamics", {})
    return PropagatorConfig(
        dt=d.get("dt", 1e-3),
        steps=steps if steps is not None else d.get("steps", 1000),
        method=d.get("method", "crank-nicolson"),
    )


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


# Accepted state.type values: bipartite ones for build_state, then the
# one-partite ones for build_wavefunction.
STATE_TYPES = ("gaussian-product", "eigen-product", "two-slit", "random", "gaussian", "eigen")


def build_state(config: dict, grid: Grid1D, H: HamiltonianMatrix) -> BipartiteWave:
    """Construct a bipartite state from the config's `state` group."""
    state = config.get("state", {"type": "gaussian-product"})
    kind = state.get("type", "gaussian-product")
    if kind == "gaussian-product":
        psi = gaussian_packet(
            grid,
            state.get("center", 0.0),
            state.get("sigma", 1.0),
            state.get("momentum", 0.0),
        )
        return from_product(psi, psi)
    if kind == "eigen-product":
        a = np.array([_as_complex(v) for v in state["coefficients"]])
        a = a / np.linalg.norm(a)
        eigs = eigensystem(H, len(a))
        psi = WaveFunction(eigs.states @ a, grid)
        return from_product(psi, psi)
    if kind == "two-slit":
        modes = make_slit_modes(
            grid, state.get("separation", 4.0), state.get("sigma", 0.35)
        )
        return two_slit_state(modes, _parse_coefficients(state.get("coefficients", "wave")))
    if kind == "random":
        rng = np.random.default_rng(state.get("seed", 0))
        K = rng.standard_normal((grid.n_points, grid.n_points)) + 1j * rng.standard_normal(
            (grid.n_points, grid.n_points)
        )
        K /= np.sqrt(np.sum(np.abs(K) ** 2) * grid.dx**2)
        return BipartiteWave(K, grid)
    raise ScenarioError(f"unknown state type {kind!r}")


def build_wavefunction(config: dict, grid: Grid1D, H: HamiltonianMatrix) -> WaveFunction:
    """Construct a one-partite state from the config's `state` group."""
    state = config.get("state", {"type": "gaussian"})
    kind = state.get("type", "gaussian")
    if kind == "gaussian":
        return gaussian_packet(
            grid,
            state.get("center", 0.0),
            state.get("sigma", 1.0),
            state.get("momentum", 0.0),
        )
    if kind == "eigen":
        a = np.array([_as_complex(v) for v in state["coefficients"]])
        a = a / np.linalg.norm(a)
        eigs = eigensystem(H, len(a))
        return WaveFunction(eigs.states @ a, grid)
    raise ScenarioError(f"unknown one-partite state type {kind!r}")


def _parse_coefficients(value) -> TwoSlitCoefficients:
    if value == "wave":
        return TwoSlitCoefficients.wave()
    if value == "particle":
        return TwoSlitCoefficients.particle()
    if isinstance(value, dict):
        return TwoSlitCoefficients(
            _as_complex(value.get("a11", 0)),
            _as_complex(value.get("a12", 0)),
            _as_complex(value.get("a21", 0)),
            _as_complex(value.get("a22", 0)),
        )
    if isinstance(value, (list, tuple)) and len(value) == 4:
        return TwoSlitCoefficients(*[_as_complex(v) for v in value])
    raise ScenarioError(f"cannot parse two-slit coefficients from {value!r}")


# ---------------------------------------------------------------------------
# scenario runners


def run_scenario(config: dict) -> ScenarioReport:
    """Dispatch on scenario name; deterministic given the config (incl. seed)."""
    scenario = config.get("scenario", {})
    name = scenario.get("name")
    runners = {
        "two-slit": _run_two_slit,
        "collapse": _run_collapse,
        "gap-spectroscopy": _run_gap_spectroscopy,
        "product-equivalence": _run_product_equivalence,
    }
    if name not in runners:
        raise ScenarioError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    return runners[name](config)


def _run_gap_spectroscopy(config: dict) -> ScenarioReport:
    grid = grid_from_config(config, "gap-spectroscopy")
    H = hamiltonian_from_config(config, grid)
    k = config.get("spectra", {}).get("k", 4)
    energies = eigenvalues(H, k)
    gaps = gap_spectrum(energies)
    tol = config.get("spectra", {}).get("dedup_tol", 1e-9)
    dg = distinct_gaps(gaps, tol)
    n, m = np.divmod(np.arange(k * k), k)
    tables = {
        "energies": {
            "columns": ["n", "energy"],
            "rows": list(enumerate(energies.tolist())),
        },
        # a record array, so that the index columns stay integers in JSON
        "gaps": {
            "columns": ["n", "m", "lambda"],
            "rows": np.rec.fromarrays([n, m, gaps.lambdas.ravel()]),
        },
        "distinct_gaps": {
            "columns": ["lambda"],
            "rows": dg[:, None],
        },
    }
    summary = {
        "k": k,
        "distinct_gap_count": int(len(dg)),
        "energies": energies.tolist(),
    }
    return ScenarioReport("gap-spectroscopy", config, summary, tables)


def _run_collapse(config: dict) -> ScenarioReport:
    grid = grid_from_config(config, "collapse")
    H = hamiltonian_from_config(config, grid)
    k = config.get("spectra", {}).get("k", 8)
    eigs = eigensystem(H, k)
    Psi = build_state(config, grid, H)
    amps = transition_amplitudes(Psi, eigs)
    stats = collapse_statistics(amps)
    tables = {
        "collapse": {
            "columns": ["m", "energy", "p", "delta_E", "delta_E_conditional"],
            "rows": [
                [m, float(eigs.energies[m]), float(stats.p[m]), float(stats.delta_E[m]),
                 float(stats.delta_E_conditional[m])]
                for m in range(k)
            ],
        }
    }
    summary = {
        "k": k,
        "p": [float(v) for v in stats.p],
        "delta_E": [float(v) for v in stats.delta_E],
        "total_probability": float(np.sum(stats.p)),
        "truncation_residual": stats.truncation_residual,
    }
    return ScenarioReport("collapse", config, summary, tables)


def _run_two_slit(config: dict) -> ScenarioReport:
    scenario = config.get("scenario", {})
    grid = grid_from_config(config, "two-slit")
    H = hamiltonian_from_config(config, grid)
    modes = make_slit_modes(
        grid, scenario.get("separation", 4.0), scenario.get("sigma", 0.35)
    )
    coeffs = _parse_coefficients(scenario.get("coefficients", "wave"))
    T = scenario.get("evolve_time", 2.0)
    dt = config.get("dynamics", {}).get("dt", 1e-3)
    steps = int(round(T / dt))
    cfg = PropagatorConfig(dt=dt, steps=steps, method=config.get("dynamics", {}).get("method", "crank-nicolson"))
    window = _window_indices(grid, scenario.get("window", [-8.0, 8.0]))

    psi1_t = propagate_schrodinger(modes.psi1, H, cfg)
    psi2_t = propagate_schrodinger(modes.psi2, H, cfg)
    evolved = SlitModes(psi1_t, psi2_t)

    state0 = two_slit_state(modes, coeffs)
    entropy = entanglement_entropy(state0)
    density = position_density(two_slit_state(evolved, coeffs))
    visibility = fringe_visibility(density, window)

    tables = {
        "density": {
            "columns": ["x", "density"],
            "rows": [[float(x), float(d)] for x, d in zip(grid.points, density)],
        }
    }
    summary = {
        "entropy": float(entropy),
        "visibility": float(visibility),
        "evolve_time": float(T),
    }

    sweep_points = scenario.get("sweep_points", 0)
    if sweep_points:
        thetas, entropies, visibilities = complementarity_sweep(
            modes, evolved, window, n_points=sweep_points
        )
        tables["sweep"] = {
            "columns": ["theta", "entropy", "visibility"],
            "rows": [
                [float(t), float(s), float(v)]
                for t, s, v in zip(thetas, entropies, visibilities)
            ],
        }
        summary["sweep_points"] = int(sweep_points)
    return ScenarioReport("two-slit", config, summary, tables)


def complementarity_sweep(modes: SlitModes, evolved: SlitModes, window, n_points: int = 11):
    """Entropy and visibility along the family cos(theta) Psi_W + sin(theta) Psi_P.

    The family passes through the coherent state at theta = 0 and the
    incoherent rank-2 state at theta = pi/2; each point is renormalized.
    Visibility is read off the position density of the freely evolved state,
    entropy from the initial state (the bipartite evolution preserves it).
    """
    thetas = np.linspace(0.0, 0.5 * np.pi, n_points)
    K_W0 = two_slit_state(modes, TwoSlitCoefficients.wave()).kernel
    K_P0 = two_slit_state(modes, TwoSlitCoefficients.particle()).kernel
    K_Wt = two_slit_state(evolved, TwoSlitCoefficients.wave()).kernel
    K_Pt = two_slit_state(evolved, TwoSlitCoefficients.particle()).kernel
    grid = modes.psi1.grid
    entropies, visibilities = [], []
    for theta in thetas:
        c, s = np.cos(theta), np.sin(theta)
        K0 = c * K_W0 + s * K_P0
        K0 /= np.sqrt(np.sum(np.abs(K0) ** 2) * grid.dx**2)
        Kt = c * K_Wt + s * K_Pt
        Kt /= np.sqrt(np.sum(np.abs(Kt) ** 2) * grid.dx**2)
        entropies.append(entanglement_entropy(BipartiteWave(K0, grid)))
        density = position_density(BipartiteWave(Kt, grid))
        visibilities.append(fringe_visibility(density, window))
    return thetas, np.array(entropies), np.array(visibilities)


def _window_indices(grid: Grid1D, window_x) -> tuple:
    x = grid.points
    lo = int(np.searchsorted(x, window_x[0], side="left"))
    hi = int(np.searchsorted(x, window_x[1], side="right"))
    return lo, hi


def _run_product_equivalence(config: dict) -> ScenarioReport:
    scenario = config.get("scenario", {})
    grid = grid_from_config(config, "product-equivalence")
    H = hamiltonian_from_config(config, grid)
    psi = gaussian_packet(
        grid,
        scenario.get("center", 0.0),
        scenario.get("sigma", 1.0),
        scenario.get("momentum", 1.0),
    )
    cfg = propagator_from_config(config)
    Psi_t = propagate_vnl(from_product(psi, psi), H, cfg)
    psi_t = propagate_schrodinger(psi, H, cfg)
    outer = from_product(psi_t, psi_t)
    gap = float(
        np.sqrt(np.sum(np.abs(Psi_t.kernel - outer.kernel) ** 2) * grid.dx**2)
    )
    summary = {
        "frobenius_gap": gap,
        "time": cfg.steps * cfg.dt,
        "norm_vnl": bipartite_norm(Psi_t),
    }
    return ScenarioReport("product-equivalence", config, summary, {})


# ---------------------------------------------------------------------------
# report output


def write_report(report: ScenarioReport, outdir, fmt: str = "csv") -> None:
    """Write summary.json, one data file per table and name.json per record into outdir.

    Tables take the format fmt (csv, json or gnuplot); records are JSON in
    every format.  Timing is deliberately left out of summary.json so that
    repeat runs with the same config produce byte-identical summaries.
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
    for name, table in report.tables.items():
        if fmt == "json":
            _write_json(table, outdir / f"{name}.json")
            continue
        if fmt == "gnuplot":
            suffix, sep, eol, head = ".dat", " ", "\n", "# "
        else:  # rows of the excel csv dialect end in \r\n
            suffix, sep, eol, head = ".csv", ",", "\r\n", ""
        with open(outdir / f"{name}{suffix}", "w", newline="") as fh:
            fh.write(head + sep.join(table["columns"]) + eol)
            _write_rows(fh, table["rows"], sep.join(["%.17g"] * len(table["columns"])) + eol)


def _write_rows(fh, rows, line: str) -> None:
    """Write rows (a list of rows or an array) as line % row, one % per block of rows.

    '%.17g' gives format(v, '.17g') for a float and str(n) for an int below 2**53.
    """
    block = 4096
    for i in range(0, len(rows), block):
        chunk = rows[i:i + block]
        if isinstance(chunk, np.ndarray):
            chunk = chunk.tolist()
        fh.write((line * len(chunk)) % tuple(chain.from_iterable(chunk)))


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")
