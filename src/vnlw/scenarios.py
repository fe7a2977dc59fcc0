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
import os
import queue
import threading
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from ._digits import WIDTH, magnitude_strings
from .errors import ScenarioError
from .schema import ONE_PARTITE, TWO_SLIT, amplitudes, resolve, two_slit_amplitudes, window_indices
from .lattice import (
    Grid1D,
    HamiltonianMatrix,
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
    schmidt,
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


def build_state(c, grid: Grid1D, H: HamiltonianMatrix) -> WaveFunction | BipartiteWave:
    """The initial state of the `state` group.

    A one-partite type gives the wave function psi; its bipartite
    counterpart gives the product kernel psi(x) psi^*(y).
    """
    st = c.state
    if st.type == "random":
        rng = np.random.default_rng(st.seed)
        shape = (grid.n_points, grid.n_points)
        K = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
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
        psi = WaveFunction(eigensystem(H, len(a)).states @ a, grid)
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
    eigs = eigensystem(H, k)
    Psi = build_state(c, grid, H)
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
    cfg = PropagatorConfig(c.dynamics.dt, int(round(sc.evolve_time / c.dynamics.dt)), c.dynamics.method)
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
    dec = schmidt(build_state(c, grid, H), c.state.tol)
    summary = {"rank": dec.rank, "residual": dec.residual}
    record = {"coefficients": dec.coefficients.tolist(), "rank": dec.rank, "residual": dec.residual}
    return ScenarioReport("schmidt", c.given, summary, records={"schmidt": record})


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
_BLOCK = 1 << 14  # cells formatted, or laid out in rows, per step
# Magnitudes of a float column are its float64 |x|, of an int column its
# int64 |n| read as uint64, which is exact for every int64 and uint32 (-2**63
# included).
_MAGNITUDE = {"f": np.float64, "i": np.uint64}


def _layout(fmt: str, names: list, has_rows: bool):
    """Header, row layout (before the first cell, between cells, after the last) and tail.

    csv rows end in \r\n as csv.writer wrote them.  json tables reproduce
    json.dump(indent=2, sort_keys=True) byte for byte: every row starts
    with the comma that separates it from the row before, dropped from the
    first row.
    """
    if fmt == "json":
        empty = json.dumps({"columns": names, "rows": []}, indent=2, sort_keys=True)
        head = empty[:-len("]\n}")]
        return head, (b",\n    [\n      ", b",\n      ", b"\n    ]"), "\n  ]\n}\n" if has_rows else "]\n}\n"
    if fmt == "gnuplot":
        return "# " + " ".join(names) + "\n", (b"", b" ", b"\n"), ""
    return ",".join(names) + "\r\n", (b"", b",", b"\r\n"), ""


def _kind(column: np.ndarray) -> str:
    return "i" if column.dtype.kind in "iu" else "f"


def _magnitudes(values: np.ndarray, out=None) -> np.ndarray:
    """|values| as _MAGNITUDE of their kind, into out when given."""
    if _kind(values) == "f":
        return np.abs(values, out=out, dtype=np.float64)
    return np.abs(values, out=None if out is None else out.view(np.int64), dtype=np.int64).view(np.uint64)


def _negative(values: np.ndarray) -> np.ndarray:
    """Where a cell takes a minus sign: below 0, or a float -0.0 (not a NaN)."""
    if _kind(values) == "i":
        return values < 0
    negative = np.signbit(values)
    negative &= ~np.isnan(values)
    return negative


def _distinct_cells(columns: list, fmt: str):
    """The sorted distinct magnitudes of columns of one kind, and each one's string.

    The strings are one 1-D array of V{used} records, NUL-padded to the
    longest: '%.17g' from `_digits.magnitude_strings` for a float in csv and
    gnuplot, and otherwise json's own, a block at a time: repr, NaN and
    Infinity for a float in json, and str for an int, whose few distinct
    values are level indices.  The rows are then compacted in place.
    """
    if not columns:
        return None
    kind = _kind(columns[0])
    mags = np.empty(sum(len(c) for c in columns), dtype=_MAGNITUDE[kind])
    start = 0
    for c in columns:
        _magnitudes(c, out=mags[start:start + len(c)])
        start += len(c)
    mags.sort()
    keep = np.empty(len(mags), dtype=bool)
    keep[:1] = True
    np.not_equal(mags[1:], mags[:-1], out=keep[1:])
    values = mags[keep]
    del mags, keep
    count, width = len(values), WIDTH  # json's strings fit the width of '%.17g', str(2**64 - 1) too
    rows = np.empty((count, width), dtype=np.uint8)
    for i in range(0, count, _BLOCK):
        part = values[i:i + _BLOCK]
        if fmt != "json" and kind == "f":
            rows[i:i + len(part)] = magnitude_strings(part)
        else:
            rows[i:i + len(part)].view(f"S{width}")[:, 0] = json.dumps(part.tolist())[1:-1].split(", ")
    flat = rows.reshape(-1)
    used = width
    while used > 1 and not rows[:, used - 1].any():
        used -= 1
    for i in range(0, count, _BLOCK):  # forward: a block lands on moved bytes or on its own, which numpy copies first
        n = min(_BLOCK, count - i)
        flat[i * used:(i + n) * used].reshape(n, used)[:] = rows[i:i + n, :used]
    return values, flat[:count * used].view(f"V{used}")


def _lookup(values: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """The index of each of mags in the sorted distinct values, which hold every one."""
    if values.dtype.kind == "u" and values[-1] - values[0] == len(values) - 1:  # consecutive, as indices are
        return (mags - values[0]).view(np.intp)
    order = np.argsort(mags)  # sorted keys keep the binary search in cache
    found = np.empty(len(mags), dtype=np.intp)
    found[order] = np.searchsorted(values, mags[order])
    return found


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_cells(fh, columns: list, cells: dict, layout) -> None:
    """Write the rows of columns in blocks, each laid out as one byte array, on every CPU the process may use.

    Adjacent columns of one kind form a run, whose cells are filled at once:
    each takes a slot of the literal before it, a sign byte and its
    magnitude's string from cells (`_lookup`, then one take of the run's
    records), all NUL-padded to the run's slot width.  The NUL padding is
    dropped before the block is written.

    With w workers, one per CPU up to the block count, the main thread lays
    out blocks 0, w, 2w, ... and writes every block in file order; helper
    thread i lays out blocks i, i + w, ... into its own one-slot queue.  The
    w - 1 helpers' blocks together hold one block's rows, so the bytes in
    flight do not grow with the number of CPUs.  The layout is numpy calls
    that release the GIL, so the threads overlap.  A helper drops the NULs
    with a mask, which releases it too; the main thread with
    bytes.translate, which holds it but is faster alone.  An exception in
    any block is raised here once every helper has ended.
    """
    if not columns:
        return
    lead, sep, end = layout
    literals = [lead] + [sep] * (len(columns) - 1)
    runs, width = [], 0  # (columns, cells, the literals before them, offset in a row)
    for kind, run in groupby(columns, _kind):
        run = list(run)
        before = literals[:len(run)]
        del literals[:len(run)]
        pad = max(map(len, before))
        before = np.array([list(b.ljust(pad, b"\0")) for b in before], dtype=np.uint8).reshape(len(run), pad)
        runs.append((run, cells[kind], before, width))
        width += len(run) * (pad + 1 + cells[kind][1].itemsize)
    rows = len(columns[0])
    block = max(1, _BLOCK // len(columns))
    workers = min(-(-rows // block), _cpu_count())
    if workers > 1:
        block = max(1, block // (workers - 1))
    starts = range(0, rows, block)

    def lay_out(start: int) -> np.ndarray:
        """The rows of the block from start, NUL padding included, as one flat uint8 array."""
        stop = min(start + block, rows)
        out = np.empty((stop - start, width + len(end)), dtype=np.uint8)
        for run, (values, text), before, offset in runs:
            pad, used = before.shape[1], text.itemsize
            slot = pad + 1 + used
            cell = np.lib.stride_tricks.as_strided(
                out[:, offset:], (stop - start, len(run), slot), (out.strides[0], slot, 1))
            cell[:, :, :pad] = before
            part = np.stack([column[start:stop] for column in run], axis=1)
            np.multiply(_negative(part).view(np.uint8), ord("-"), out=cell[:, :, pad])
            found = _lookup(values, _magnitudes(part).reshape(-1))
            cell[:, :, pad + 1:].view(text.dtype)[:, :, 0] = text.take(found).reshape(part.shape)
        out[:, width:] = np.frombuffer(end, dtype=np.uint8)
        if start == 0 and lead.startswith(b","):
            out[0, 0] = 0  # no row before the first to separate it from
        return out.reshape(-1)

    done = threading.Event()
    queues = [queue.Queue(maxsize=1) for _ in range(1, workers)]

    def helper(first: int, blocks: queue.Queue) -> None:
        try:
            for start in starts[first::workers]:
                if done.is_set():
                    return
                flat = lay_out(start)
                blocks.put(flat[flat != 0])
        except Exception as exc:  # raised by the main thread when it reaches this block
            blocks.put(exc)

    threads = [threading.Thread(target=helper, args=(i, q)) for i, q in enumerate(queues, 1)]
    for thread in threads:
        thread.start()
    try:
        for i, start in enumerate(starts):
            if i % workers:
                part = queues[i % workers - 1].get()
                if isinstance(part, Exception):
                    raise part
            else:
                part = lay_out(start).tobytes().translate(None, b"\0")
            fh.write(part)
    finally:
        done.set()
        for blocks, thread in zip(queues, threads):
            # After done is set a helper puts at most once more, into a slot this frees.
            while not blocks.empty():
                blocks.get()
            thread.join()


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
