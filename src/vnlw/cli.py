"""Command-line entry point.

Exit codes: 0 success, 2 usage error (unknown subcommand, missing config),
3 config schema violation, 4 numerical failure.  Every subcommand that
computes something returns a ScenarioReport, which `scenarios.write_report`
writes in the chosen format.  Artifacts are written to a temporary
directory and renamed into place on success, so a failed run never leaves a
partial output directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import scenarios
from .bipartite import (
    entanglement_entropy,
    entropy_from_reduced,
    position_density,
    schmidt,
    schmidt_record,
)
from .dynamics import (
    METHODS,
    BipartiteWave,
    PropagatorConfig,
    SpectralPropagator,
    WaveFunction,
    bipartite_norm,
    propagate_schrodinger,
)
from .errors import ConfigError, SimulationError
from .lattice import POTENTIAL_KINDS
from .scenarios import SCENARIOS, STATE_TYPES, ScenarioReport
from .spectra import eigensystem

SUBCOMMANDS = (
    "run",
    "spectrum",
    "gaps",
    "evolve",
    "schmidt",
    "entropy",
    "collapse",
    "validate-config",
)

FORMATS = ("csv", "json", "gnuplot")

# Allowed keys per config group; unknown keys are rejected to fail fast on
# typos in physics parameters.
_SCHEMA = {
    "schema_version": None,
    "grid": {"x_min", "x_max", "n_points", "box"},
    "potential": {"kind", "omega", "mass", "a", "b", "height", "width", "center", "values"},
    "dynamics": {"dt", "steps", "method", "stride"},
    "spectra": {"k", "dedup_tol"},
    "scenario": {
        "name", "seed", "coefficients", "separation", "sigma", "evolve_time",
        "window", "sweep_points", "center", "momentum",
    },
    "state": {"type", "center", "sigma", "momentum", "coefficients", "separation", "seed", "tol"},
    "constants": {"hbar", "mass"},
}


@dataclass
class CliInvocation:
    subcommand: str
    config_path: str
    output_dir: str
    overrides: list = field(default_factory=list)
    seed: int | None = None
    format: str = "csv"
    no_timestamp: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnlw",
        description="Bipartite wave dynamics: spectra, entropy, duality, collapse.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--output", default=None, help="output root (default $VNLW_OUTPUT_DIR or .)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key, e.g. spectra.k=6")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=FORMATS, default="csv")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the timestamp suffix on the output directory")
    return parser


def parse_invocation(argv) -> CliInvocation:
    args = _build_parser().parse_args(argv)
    output = args.output or os.environ.get("VNLW_OUTPUT_DIR", ".")
    return CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        output_dir=output,
        overrides=args.overrides,
        seed=args.seed,
        format=args.format,
        no_timestamp=args.no_timestamp,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float; JSON booleans and NaN/Infinity do not count."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value)


def validate_config(config: dict) -> None:
    """Reject unknown groups/keys and out-of-range or mistyped basic parameters."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    if config.get("schema_version") != 1:
        raise ConfigError("schema_version: missing or unsupported (expected 1)")
    for group, content in config.items():
        if group not in _SCHEMA:
            raise ConfigError(f"unknown config group: {group}")
        if group == "schema_version":
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"{group}: must be an object")
        for key in content:
            if key not in _SCHEMA[group]:
                raise ConfigError(f"unknown key: {group}.{key}")
    g = config.get("grid", {})
    if "n_points" in g and not (_is_int(g["n_points"]) and g["n_points"] >= 8):
        raise ConfigError("grid.n_points: must be an integer >= 8")
    for key in ("x_min", "x_max"):
        if key in g and not _is_number(g[key]):
            raise ConfigError(f"grid.{key}: must be a finite number")
    if "x_min" in g and "x_max" in g and g["x_max"] <= g["x_min"]:
        raise ConfigError("grid.x_max: must exceed grid.x_min")
    if "box" in g and not isinstance(g["box"], bool):
        raise ConfigError("grid.box: must be true or false")
    p = config.get("potential", {})
    if "kind" in p and p["kind"] not in POTENTIAL_KINDS:
        raise ConfigError(f"potential.kind: must be one of {', '.join(POTENTIAL_KINDS)}")
    if p.get("kind") == "tabulated" and "values" not in p:
        raise ConfigError("potential.values: required when potential.kind is tabulated")
    d = config.get("dynamics", {})
    if "dt" in d and not (_is_number(d["dt"]) and d["dt"] > 0):
        raise ConfigError("dynamics.dt: must be a positive number")
    if "steps" in d and not (_is_int(d["steps"]) and d["steps"] >= 0):
        raise ConfigError("dynamics.steps: must be a nonnegative integer")
    if "stride" in d and not (_is_int(d["stride"]) and d["stride"] >= 1):
        raise ConfigError("dynamics.stride: must be an integer >= 1")
    if "method" in d and d["method"] not in METHODS:
        raise ConfigError("dynamics.method: must be crank-nicolson or eigenbasis")
    s = config.get("spectra", {})
    if "k" in s and not (_is_int(s["k"]) and s["k"] >= 1):
        raise ConfigError("spectra.k: must be a positive integer")
    if "dedup_tol" in s and not (_is_number(s["dedup_tol"]) and s["dedup_tol"] >= 0):
        raise ConfigError("spectra.dedup_tol: must be a finite number >= 0")
    sc = config.get("scenario", {})
    if "name" in sc and sc["name"] not in SCENARIOS:
        raise ConfigError(f"scenario.name: must be one of {', '.join(SCENARIOS)}")
    if "sweep_points" in sc and not (_is_int(sc["sweep_points"]) and sc["sweep_points"] >= 0):
        raise ConfigError("scenario.sweep_points: must be a nonnegative integer")
    if "evolve_time" in sc and not (_is_number(sc["evolve_time"]) and sc["evolve_time"] >= 0):
        raise ConfigError("scenario.evolve_time: must be a finite number >= 0")
    w = sc.get("window")
    if "window" in sc and not (
        isinstance(w, list) and len(w) == 2 and all(map(_is_number, w)) and w[0] < w[1]
    ):
        raise ConfigError("scenario.window: must be two finite numbers [lo, hi] with lo < hi")
    st = config.get("state", {})
    for group, d in (("scenario", sc), ("state", st)):
        for key in ("sigma", "separation"):
            if key in d and not (_is_number(d[key]) and d[key] > 0):
                raise ConfigError(f"{group}.{key}: must be a positive number")
    if "tol" in st and not (_is_number(st["tol"]) and st["tol"] >= 0):
        raise ConfigError("state.tol: must be a finite number >= 0")
    if "type" in st and st["type"] not in STATE_TYPES:
        raise ConfigError(f"state.type: must be one of {', '.join(STATE_TYPES)}")
    if st.get("type") in ("eigen-product", "eigen") and "coefficients" not in st:
        raise ConfigError(f"state.coefficients: required when state.type is {st['type']}")
    c = config.get("constants", {})
    for key in ("hbar", "mass"):
        if key in c and not (_is_number(c[key]) and c[key] > 0):
            raise ConfigError(f"constants.{key}: must be a positive number")


def apply_overrides(config: dict, overrides) -> dict:
    config = json.loads(json.dumps(config))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        path, raw = item.split("=", 1)
        parts = path.split(".")
        if len(parts) != 2 or parts[0] not in _SCHEMA or parts[0] == "schema_version":
            raise ConfigError(f"unknown key: {path}")
        group, key = parts
        if key not in _SCHEMA[group]:
            raise ConfigError(f"unknown key: {path}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config.setdefault(group, {})[key] = value
    return config


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse as JSON: {exc}") from exc


def _publish(tmpdir: Path, final: Path, replace: bool) -> None:
    """Rename the staged output directory into place.

    With replace, an existing directory of that name is renamed aside first
    and removed afterwards, so the name never points at a partly removed
    run.  Without it, an existing directory is never replaced: the run takes
    the first free name of final, final-2, final-3, ...
    """
    if replace and final.exists():
        aside = tempfile.mkdtemp(prefix=".vnlw-", dir=final.parent)
        os.replace(final, aside)
        os.replace(tmpdir, final)
        shutil.rmtree(aside)
        return
    name, i = final, 1
    while name.exists():
        i += 1
        name = final.with_name(f"{final.name}-{i}")
    os.rename(tmpdir, name)  # a run's directory is never empty, so this cannot replace one


def _outdir_name(base: str, no_timestamp: bool) -> str:
    if no_timestamp:
        return base
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    return f"{base}-{stamp}"


# `gaps` and `collapse` are `run` with a fixed scenario.name; their output
# directory keeps the subcommand's name.
_SCENARIO_SUBCOMMANDS = {"gaps": "gap-spectroscopy", "collapse": "collapse"}

# The stdout summary line after the report name, filled from report.summary.
_HEADLINES = {
    "two-slit": "visibility={visibility}",
    "collapse": "total_probability={total_probability}",
    "gap-spectroscopy": "distinct_gap_count={distinct_gap_count}",
    "product-equivalence": "frobenius_gap={frobenius_gap}",
    "spectrum": "k={k} E0={energies[0]}",
    "evolve": "steps={steps} final_norm={final_norm}",
    "schmidt": "rank={rank}",
    "entropy": "S={entropy}",
}


def execute(inv: CliInvocation) -> int:
    if not os.path.exists(inv.config_path):
        print(f"vnlw: config not found: {inv.config_path}", file=sys.stderr)
        return 2
    try:
        config = apply_overrides(load_config(inv.config_path), inv.overrides)
        validate_config(config)
        if inv.subcommand == "validate-config":
            return 0
        if inv.subcommand == "run" and "name" not in config.get("scenario", {}):
            raise ConfigError("scenario.name: required by vnlw run")
        if inv.seed is not None:
            config.setdefault("scenario", {})["seed"] = inv.seed
            config.setdefault("state", {}).setdefault("seed", inv.seed)
        if inv.subcommand in _SCENARIO_SUBCOMMANDS:
            config["scenario"] = {
                **config.get("scenario", {}), "name": _SCENARIO_SUBCOMMANDS[inv.subcommand]
            }
        root = Path(inv.output_dir)
        root.mkdir(parents=True, exist_ok=True)
        tmpdir = Path(tempfile.mkdtemp(prefix=".vnlw-", dir=root))
        try:
            start = time.perf_counter()
            report = _HANDLERS[inv.subcommand](config)
            elapsed = time.perf_counter() - start
            scenarios.write_report(report, tmpdir, inv.format)
            base = report.scenario if inv.subcommand == "run" else inv.subcommand
            _publish(tmpdir, root / _outdir_name(base, inv.no_timestamp), inv.no_timestamp)
        except BaseException:
            shutil.rmtree(tmpdir, ignore_errors=True)
            raise
    except ConfigError as exc:
        print(f"vnlw: invalid config: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"vnlw: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    headline = _HEADLINES[report.scenario].format(**report.summary)
    print(f"{report.scenario} {headline} elapsed={elapsed:.3f}s")
    return 0


def _cmd_run(config) -> ScenarioReport:
    return scenarios.run_scenario(config)


def _cmd_spectrum(config) -> ScenarioReport:
    grid = scenarios.grid_from_config(config)
    H = scenarios.hamiltonian_from_config(config, grid)
    k = config.get("spectra", {}).get("k", 4)
    eigs = eigensystem(H, k)
    energies = eigs.energies.tolist()
    tables = {
        "energies": {
            "columns": ["n", "energy"],
            "rows": [[n, e] for n, e in enumerate(energies)],
        },
        "states": {
            "columns": ["x"] + [f"psi_{n}" for n in range(k)],
            "rows": np.column_stack([grid.points, eigs.states]),
        },
    }
    return ScenarioReport("spectrum", config, {"k": k, "energies": energies}, tables)


def _cmd_evolve(config) -> ScenarioReport:
    grid = scenarios.grid_from_config(config)
    H = scenarios.hamiltonian_from_config(config, grid)
    cfg = scenarios.propagator_from_config(config)
    stride = config.get("dynamics", {}).get("stride", max(1, cfg.steps // 100))
    if config.get("state", {}).get("type", "gaussian") in ("gaussian", "eigen"):
        state = scenarios.build_wavefunction(config, grid, H)
        norm = WaveFunction.norm
        if cfg.method == "eigenbasis":
            spectral = SpectralPropagator(H, cfg.dt, cfg.method)

            def advance(state, n):
                amp = spectral.apply(state.amplitudes, n)
                return WaveFunction(amp, grid, state.time + n * cfg.dt)
        else:
            def advance(state, n):
                return propagate_schrodinger(state, H, PropagatorConfig(cfg.dt, n, cfg.method))

        def x_mean(state):
            dens = np.abs(state.amplitudes) ** 2 * grid.dx
            return float(np.sum(grid.points * dens))
    else:
        state = scenarios.build_state(config, grid, H)
        norm = bipartite_norm
        spectral = SpectralPropagator(H, cfg.dt, cfg.method)
        propagators = {}  # chunk length -> U; a run has at most two chunk lengths

        def advance(state, n):
            if n not in propagators:
                propagators[n] = spectral.matrix(n)
            U = propagators[n]
            return BipartiteWave(U @ state.kernel @ U.conj().T, grid, state.time + n * cfg.dt)

        def x_mean(state):
            return float(np.sum(grid.points * position_density(state)) * grid.dx)

    rows = []
    done = 0
    while True:
        rows.append([float(state.time), float(norm(state)), x_mean(state)])
        if done == cfg.steps:
            break
        n = min(stride, cfg.steps - done)
        state = advance(state, n)
        done += n
    tables = {"trajectory": {"columns": ["t", "norm", "x_mean"], "rows": rows}}
    summary = {"steps": cfg.steps, "dt": cfg.dt, "final_norm": rows[-1][1]}
    return ScenarioReport("evolve", config, summary, tables)


def _bipartite_state(config):
    grid = scenarios.grid_from_config(config)
    H = scenarios.hamiltonian_from_config(config, grid)
    return scenarios.build_state(config, grid, H)


def _cmd_schmidt(config) -> ScenarioReport:
    dec = schmidt(_bipartite_state(config), config.get("state", {}).get("tol", 1e-12))
    summary = {"rank": dec.rank, "residual": dec.residual}
    return ScenarioReport("schmidt", config, summary, records={"schmidt": schmidt_record(dec)})


def _cmd_entropy(config) -> ScenarioReport:
    Psi = _bipartite_state(config)
    summary = {
        "entropy": entanglement_entropy(Psi),
        "entropy_reduced_route": entropy_from_reduced(Psi),
    }
    return ScenarioReport("entropy", config, summary)


_HANDLERS = {
    "run": _cmd_run,
    "gaps": _cmd_run,
    "collapse": _cmd_run,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "schmidt": _cmd_schmidt,
    "entropy": _cmd_entropy,
}


def main(argv=None) -> int:
    inv = parse_invocation(argv if argv is not None else sys.argv[1:])
    return execute(inv)


if __name__ == "__main__":
    sys.exit(main())
