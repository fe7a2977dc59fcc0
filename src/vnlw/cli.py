"""Command-line entry point.

Exit codes: 0 success, 2 usage error (unknown subcommand, missing config),
3 config schema violation, 4 numerical failure.  The config is checked
against `schema` before numpy or scipy is imported.  Every other subcommand
is a run of `scenarios.run_scenario`, whose ScenarioReport is written in the
chosen format to a temporary directory and renamed into place on success,
so a failed run never leaves a partial output directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, SimulationError
from .schema import COMMANDS, GROUPS, SCENARIOS, resolve, validate_config

SUBCOMMANDS = (*COMMANDS, "validate-config")

FORMATS = ("csv", "json", "gnuplot")


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
        p.add_argument("--seed", type=int, default=None, help="state.seed, when the config gives none")
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


def apply_overrides(config: dict, overrides) -> dict:
    config = json.loads(json.dumps(config))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        path, raw = item.split("=", 1)
        name, _, key = path.partition(".")
        if key not in GROUPS.get(name, ()):
            raise ConfigError(f"unknown key: {path}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        content = config.setdefault(name, {}) if isinstance(config, dict) else None
        if not isinstance(content, dict):
            raise ConfigError(f"{name}: must be an object")
        content[key] = value
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


# The stdout summary line after the run name, filled from report.summary.
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
        validate_config(config)  # every group is an object from here on
        if inv.seed is not None:  # checked also when the config's own state.seed wins
            validate_config({"schema_version": 1, "state": {"seed": inv.seed}})
            config.setdefault("state", {}).setdefault("seed", inv.seed)
        run = resolve(config, COMMANDS.get(inv.subcommand)).run
        if inv.subcommand == "validate-config":
            return 0
        if run is None:
            raise ConfigError("scenario.name: required by vnlw run")
        if run in SCENARIOS:  # `gaps` and `collapse` are `run` with a fixed scenario.name
            config.setdefault("scenario", {})["name"] = run
        from . import scenarios  # numpy and scipy load only for a valid config

        root = Path(inv.output_dir)
        root.mkdir(parents=True, exist_ok=True)
        tmpdir = Path(tempfile.mkdtemp(prefix=".vnlw-", dir=root))
        try:
            start = time.perf_counter()
            report = scenarios.run_scenario(config, run)
            elapsed = time.perf_counter() - start
            scenarios.write_report(report, tmpdir, inv.format)
            base = run if inv.subcommand == "run" else inv.subcommand
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
    headline = _HEADLINES[run].format(**report.summary)
    print(f"{run} {headline} elapsed={elapsed:.3f}s")
    return 0


def main(argv=None) -> int:
    inv = parse_invocation(argv if argv is not None else sys.argv[1:])
    return execute(inv)


if __name__ == "__main__":
    sys.exit(main())
