"""The four workloads of the vnlw benchmark.

Each workload is one `vnlw` subcommand on one config made from the seed.
Its outputs are checked against numbers this file computes apart from the
program (numpy's dense eigensolvers, closed forms) or against properties
the method must have, never against a stored copy of an earlier output.
The seed moves physical parameters inside ranges where every check holds;
it never changes the grid size, step count or output size, so every seed
does the same amount of work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An output file of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    output: str                                   # directory the CLI publishes with --no-timestamp
    make_config: Callable[[int], dict]
    reference: Callable[[dict], dict]             # values computed apart from the program
    check: Callable[[Path, dict, dict], None]     # (output dir, config, reference); raises CheckError


def _fail_unless(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path: Path, columns: list) -> np.ndarray:
    """Numeric body of a CSV file whose header must be exactly `columns`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    _fail_unless(header == columns, f"{path.name}: header {header}, expected {columns}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_summary(outdir: Path) -> dict:
    with open(outdir / "summary.json") as fh:
        return json.load(fh)["summary"]


def grid_points(grid: dict) -> tuple:
    """Points and spacing of `build_grid(x_min, x_max, n_points)`, endpoints included."""
    n = grid["n_points"]
    dx = (grid["x_max"] - grid["x_min"]) / (n - 1)
    return grid["x_min"] + dx * np.arange(n), dx


def dense_harmonic_hamiltonian(grid: dict, omega: float) -> tuple:
    """Dense 3-point stencil of -1/2 d^2/dx^2 + omega^2 x^2 / 2 (hbar = m = 1)."""
    x, dx = grid_points(grid)
    t = 1.0 / dx**2
    off = np.full(x.size - 1, -0.5 * t)
    H = np.diag(t + 0.5 * omega**2 * x**2) + np.diag(off, 1) + np.diag(off, -1)
    return H, x, dx


# ---------------------------------------------------------------------------
# two-slit: twelve dense SVDs for entropy, two propagated vectors


def two_slit_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "schema_version": 1,
        "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 801},
        "potential": {"kind": "infinite-box"},
        "dynamics": {"dt": 1e-3, "method": "crank-nicolson"},
        "scenario": {
            "name": "two-slit",
            "coefficients": "wave",
            "evolve_time": 2.0,
            "sweep_points": 11,
            "separation": float(rng.uniform(3.5, 4.5)),
            "sigma": float(rng.uniform(0.32, 0.36)),
        },
    }


def coefficient_entropy(theta: float) -> float:
    """Entropy of cos(theta) Psi_W + sin(theta) Psi_P from its 2x2 coefficient matrix.

    The slit modes are orthonormal, so the singular values of the normalised
    coefficient matrix are exactly the Schmidt coefficients of the kernel.
    """
    C = math.cos(theta) * np.full((2, 2), 0.5) + math.sin(theta) * np.eye(2) / math.sqrt(2.0)
    mu2 = np.linalg.svd(C, compute_uv=False) ** 2
    mu2 = mu2 / mu2.sum()
    mu2 = mu2[mu2 > 0.0]
    return float(-np.sum(mu2 * np.log(mu2)))


def two_slit_reference(config: dict) -> dict:
    thetas = np.linspace(0.0, 0.5 * math.pi, config["scenario"]["sweep_points"])
    return {"theta": thetas, "entropy": np.array([coefficient_entropy(t) for t in thetas])}


def check_two_slit(outdir: Path, config: dict, ref: dict) -> None:
    sweep = read_csv(outdir / "sweep.csv", ["theta", "entropy", "visibility"])
    _fail_unless(sweep.shape[0] == ref["theta"].size, f"sweep.csv: {sweep.shape[0]} rows")
    theta, entropy, vis = sweep.T
    _fail_unless(np.allclose(theta, ref["theta"], rtol=0, atol=1e-14), "sweep.csv: theta grid")
    err = np.max(np.abs(entropy - ref["entropy"]))
    _fail_unless(err < 1e-10, f"sweep.csv: entropy off the Schmidt spectrum by {err:.3g}")
    _fail_unless(vis[0] > 0.9, f"sweep.csv: visibility {vis[0]} at theta=0, expected > 0.9")
    _fail_unless(vis[-1] < 0.05, f"sweep.csv: visibility {vis[-1]} at theta=pi/2, expected < 0.05")
    _fail_unless(np.all(np.diff(vis) <= 0.0), "sweep.csv: visibility increases along the sweep")
    x, density = read_csv(outdir / "density.csv", ["x", "density"]).T
    _, dx = grid_points(config["grid"])
    _fail_unless(np.allclose(np.diff(x), dx, rtol=1e-9, atol=0), "density.csv: x grid")
    total = float(np.sum(density) * dx)
    _fail_unless(abs(total - 1.0) < 1e-9, f"density.csv: integrates to {total!r}")


# ---------------------------------------------------------------------------
# product-equivalence: 1000 Crank-Nicolson steps of a rank-1 kernel held dense


def product_equivalence_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "schema_version": 1,
        "scenario": {
            "name": "product-equivalence",
            "center": float(rng.uniform(-1.5, 1.5)),
            "sigma": float(rng.uniform(0.9, 1.2)),
            "momentum": float(rng.uniform(0.5, 1.5)),
        },
    }


def product_equivalence_reference(config: dict) -> dict:
    return {}


def check_product_equivalence(outdir: Path, config: dict, ref: dict) -> None:
    summary = read_summary(outdir)
    gap, norm = summary["frobenius_gap"], summary["norm_vnl"]
    _fail_unless(gap < 1e-8, f"summary.json: frobenius_gap {gap!r}, expected < 1e-8")
    _fail_unless(abs(norm - 1.0) < 1e-10, f"summary.json: norm_vnl {norm!r}, expected 1 +- 1e-10")


# ---------------------------------------------------------------------------
# evolve-random: full-rank kernel, one full eigensolve per sample

EVOLVE_SAMPLED_ROWS = (0, 1, 37, 100)


def evolve_random_config(seed: int) -> dict:
    return {
        "schema_version": 1,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "dynamics": {"dt": 1e-3, "steps": 1000, "method": "eigenbasis"},
        "state": {"type": "random", "seed": seed},
    }


def evolve_random_reference(config: dict) -> dict:
    """x_mean at the sampled rows from U Psi U^dagger, U built from numpy's eigh.

    The kernel is made the way `state.type=random` documents it: real and
    imaginary parts from `default_rng(seed).standard_normal`, scaled to unit norm.
    """
    dyn = config["dynamics"]
    stride = max(1, dyn["steps"] // 100)
    H, x, dx = dense_harmonic_hamiltonian(config["grid"], config["potential"]["omega"])
    n = x.size
    rng = np.random.default_rng(config["state"]["seed"])
    K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K /= np.sqrt(np.sum(np.abs(K) ** 2) * dx**2)
    E, V = np.linalg.eigh(H)
    x_mean = {}
    for row in EVOLVE_SAMPLED_ROWS:
        t = row * stride * dyn["dt"]
        U = (V * np.exp(-1j * E * t)) @ V.T
        Kt = U @ K @ U.conj().T
        density = np.sum(np.abs(Kt) ** 2, axis=1) * dx
        x_mean[row] = float(np.sum(x * density) * dx)
    return {"rows": dyn["steps"] // stride + 1, "t_step": stride * dyn["dt"], "x_mean": x_mean}


def check_evolve_random(outdir: Path, config: dict, ref: dict) -> None:
    traj = read_csv(outdir / "trajectory.csv", ["t", "norm", "x_mean"])
    _fail_unless(traj.shape[0] == ref["rows"], f"trajectory.csv: {traj.shape[0]} rows")
    t, norm, x_mean = traj.T
    expected_t = ref["t_step"] * np.arange(ref["rows"])
    _fail_unless(np.allclose(t, expected_t, rtol=0, atol=1e-12), "trajectory.csv: t column")
    drift = float(np.max(np.abs(norm - 1.0)))
    _fail_unless(drift < 1e-10, f"trajectory.csv: norm drifts by {drift:.3g}")
    for row, expected in ref["x_mean"].items():
        err = abs(x_mean[row] - expected)
        _fail_unless(err < 1e-9, f"trajectory.csv: x_mean at row {row} off by {err:.3g}")


# ---------------------------------------------------------------------------
# gaps-wide: 10^6 gap rows, the output-heavy workload


def gaps_wide_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "schema_version": 1,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 2001},
        "potential": {"kind": "harmonic", "omega": float(rng.uniform(0.9, 1.1))},
        "spectra": {"k": 1000, "dedup_tol": 1e-9},
    }


def gaps_wide_reference(config: dict) -> dict:
    H, _, _ = dense_harmonic_hamiltonian(config["grid"], config["potential"]["omega"])
    return {"energies": np.linalg.eigvalsh(H)[: config["spectra"]["k"]]}


def merged_count(values: np.ndarray, tol: float) -> int:
    """Number of values kept when sorted values closer than tol to the last kept one merge.

    Runs of neighbours closer than tol are merged whole when the run spans at
    most tol; only runs wider than that are walked value by value.
    """
    lam = np.sort(np.asarray(values, dtype=float))
    if lam.size == 0:
        return 0
    breaks = np.flatnonzero(np.diff(lam) > tol) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [lam.size]))
    count = starts.size
    for s, e in zip(starts, ends):
        if lam[e - 1] - lam[s] <= tol:
            continue
        kept = lam[s]
        for value in lam[s + 1:e]:
            if value - kept > tol:
                kept = value
                count += 1
    return count


def check_gaps_wide(outdir: Path, config: dict, ref: dict) -> None:
    E = ref["energies"]
    k = E.size
    n, energy = read_csv(outdir / "energies.csv", ["n", "energy"]).T
    _fail_unless(np.array_equal(n, np.arange(k)), "energies.csv: level indices")
    err = float(np.max(np.abs(energy - E)))
    _fail_unless(err < 1e-8, f"energies.csv: off numpy eigvalsh by {err:.3g}")
    n, m, lam = read_csv(outdir / "gaps.csv", ["n", "m", "lambda"]).T
    _fail_unless(n.size == k * k, f"gaps.csv: {n.size} rows, expected {k * k}")
    n, m = n.astype(int), m.astype(int)
    _fail_unless(
        np.array_equal(n, np.repeat(np.arange(k), k)) and np.array_equal(m, np.tile(np.arange(k), k)),
        "gaps.csv: index pairs",
    )
    err = float(np.max(np.abs(lam - (E[n] - E[m]))))
    _fail_unless(err < 1e-8, f"gaps.csv: lambda off E_n - E_m by {err:.3g}")
    distinct = read_csv(outdir / "distinct_gaps.csv", ["lambda"])[:, 0]
    expected = merged_count(lam, config["spectra"]["dedup_tol"])
    _fail_unless(
        distinct.size == expected,
        f"distinct_gaps.csv: {distinct.size} rows, independent merge gives {expected}",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("two-slit", "run", "two-slit",
                 two_slit_config, two_slit_reference, check_two_slit),
        Workload("product-equivalence", "run", "product-equivalence",
                 product_equivalence_config, product_equivalence_reference, check_product_equivalence),
        Workload("evolve-random", "evolve", "evolve",
                 evolve_random_config, evolve_random_reference, check_evolve_random),
        Workload("gaps-wide", "gaps", "gaps",
                 gaps_wide_config, gaps_wide_reference, check_gaps_wide),
    )
}
