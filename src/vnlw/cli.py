"""Command-line entry point.

Exit codes: 0 success, 2 usage error (unknown subcommand, a path or stdout
that cannot be read or written), 3 config schema violation, 4 numerical
failure.  Before numpy or scipy is imported, a subcommand resolves the
config for its run and `validate-config` for the run of every subcommand,
so it exits 0 exactly when none of them would exit 3.  Every other
subcommand is a run of `scenarios.run_scenario`, whose ScenarioReport is
written in the chosen format to a temporary directory and renamed into
place on success, so a failed run never leaves a partial output directory;
nor does it leave the output root, or any of its parents, that it made and
that is still empty.

`vnlw` and `python -m vnlw.cli` run `console_main`.  Once `main` has
returned, it flushes stdout and stderr and ends the process with
`os._exit`, which skips the interpreter's teardown (freeing every module
and object, and atexit handlers): by then a run's output directory is
published and nothing is left to do.  A stdout that cannot be written (a
pipe its reader has closed, or no stdout at all) exits 2 with one line on
stderr, and the published directory stays.  Under a profiler, tracer or
coverage tool the process ends with `sys.exit` instead, so the tool's own
exit work, such as cProfile's table, still runs.  `main` only returns its
code, for callers in process.

`console_main` also turns SIGTERM and SIGHUP into `_Stopped`, raised on the
main thread, so a stopped run cleans up as it does for KeyboardInterrupt:
`execute` removes its staging directory and the directories it made, and
`_workers.ordered_map` stops its helpers.  The process then exits with
128 + the signal number.  A signal that the process inherited as ignored,
as under nohup, stays ignored, and once one has arrived both are ignored,
so a second cannot cut the cleanup short.  A run stopped after it has
published its output keeps it.  `main` installs no handler.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from itertools import takewhile
from pathlib import Path
from typing import NoReturn

from .errors import ConfigError, SimulationError
from .schema import COMMANDS, GROUPS, SCENARIOS, resolve, validate_config

SUBCOMMANDS = (*COMMANDS, "validate-config")

FORMATS = ("csv", "json", "gnuplot")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnlw",
        description="Bipartite wave dynamics: spectra, entropy, duality, collapse.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--output", default=os.environ.get("VNLW_OUTPUT_DIR", "."),
                       help="output root (default $VNLW_OUTPUT_DIR or .)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key, e.g. spectra.k=6")
        p.add_argument("--seed", type=int, default=None, help="state.seed, when the config gives none")
        p.add_argument("--format", choices=FORMATS, default="csv")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the timestamp suffix on the output directory")
    return parser


def parse_invocation(argv) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


def apply_overrides(config: dict, overrides) -> dict:
    """config with each KEY=VALUE of overrides set in a new copy of its group; config is not changed."""
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
        content = config.get(name, {}) if isinstance(config, dict) else None
        if not isinstance(content, dict):
            raise ConfigError(f"{name}: must be an object")
        config = {**config, name: {**content, key: value}}
    return config


def checked_config(inv: argparse.Namespace) -> dict:
    """The config of inv with its --set and --seed, once the run of each subcommand inv names accepts it.

    validate-config names every subcommand, `run` only when the config gives
    scenario.name.  The ConfigError of the first run that refuses the config
    names its subcommand.
    """
    try:
        with open(inv.config, encoding="utf-8") as fh:
            config = apply_overrides(json.load(fh), inv.overrides)
        validate_config(config)  # every group is an object from here on
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config does not parse as JSON: {exc}") from exc
    except RecursionError as exc:  # json, parsing the config or printing one of its values
        raise ConfigError(f"config is nested too deeply: {exc}") from exc
    if inv.seed is not None:  # checked also when the config's own state.seed wins
        validate_config({"schema_version": 1, "state": {"seed": inv.seed}})
        config.setdefault("state", {}).setdefault("seed", inv.seed)
    named = config.get("scenario", {}).get("name")
    if inv.subcommand == "run" and named is None:
        raise ConfigError("scenario.name: required by vnlw run")
    checked = COMMANDS if inv.subcommand == "validate-config" else [inv.subcommand]
    for name in [name for name in checked if COMMANDS[name] or named]:
        try:
            resolve(config, COMMANDS[name] or named)
        except ConfigError as exc:
            raise ConfigError(f"vnlw {name}: {exc}") from exc
    return config


def _publish(tmpdir: Path, final: Path, replace: bool) -> None:
    """Rename the staged output directory into place.

    With replace, an existing run directory (one holding a summary.json) of
    that name is renamed aside first and removed afterwards, so the name
    never points at a partly removed run; any other file there is an error.
    Without replace, the run takes the first free name of final, final-2, ...
    """
    if replace and final.exists():
        if not (final / "summary.json").is_file():
            raise FileExistsError(f"{final} exists and is not a run directory")
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


def _remove_made(made: list) -> None:
    """Remove the directories of made, deepest first, up to the first that is not empty."""
    for path in made:
        try:
            path.rmdir()
        except FileNotFoundError:  # never made
            continue
        except OSError:  # not empty: it and its parents stay
            return


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


def execute(inv: argparse.Namespace) -> int:
    if not os.path.exists(inv.config):
        print(f"vnlw: config not found: {inv.config}", file=sys.stderr)
        return 2
    try:
        config = checked_config(inv)
        if inv.subcommand == "validate-config":
            return 0
        run = COMMANDS[inv.subcommand] or config["scenario"]["name"]
        if run in SCENARIOS:  # `gaps` and `collapse` are `run` with a fixed scenario.name
            config.setdefault("scenario", {})["name"] = run
        from . import scenarios  # numpy and scipy load only for a valid config

        root = Path(inv.output)
        made = list(takewhile(lambda path: not path.exists(), [root, *root.parents]))  # deepest first
        tmpdir = None
        try:
            root.mkdir(parents=True, exist_ok=True)
            tmpdir = Path(tempfile.mkdtemp(prefix=".vnlw-", dir=root))
            start = time.perf_counter()
            report = scenarios.run_scenario(config, run)
            elapsed = time.perf_counter() - start
            scenarios.write_report(report, tmpdir, inv.format)
            base = run if inv.subcommand == "run" else inv.subcommand
            name = base if inv.no_timestamp else f"{base}-{time.strftime('%Y%m%dT%H%M%S')}"
            _publish(tmpdir, root / name, inv.no_timestamp)
        except BaseException:
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)
            _remove_made(made)
            raise
    except ConfigError as exc:
        print(f"vnlw: invalid config: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"vnlw: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a config or output path that cannot be read or written
        print(f"vnlw: {exc}", file=sys.stderr)
        return 2
    if sys.stdout is None:  # started without file descriptor 1: the line cannot be written, as to a closed pipe
        raise OSError("stdout is closed")
    print(f"{run} {_HEADLINES[run].format(**report.summary)} elapsed={elapsed:.3f}s")
    return 0


def main(argv=None) -> int:
    return execute(parse_invocation(argv if argv is not None else sys.argv[1:]))


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool watches this process.

    From Python 3.12 cProfile and coverage may use sys.monitoring, which
    sys.getprofile() and sys.gettrace() do not show.
    """
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))))


_STOPS = (signal.SIGTERM, signal.SIGHUP)


class _Stopped(BaseException):
    """SIGTERM or SIGHUP, whose number is args[0]; a BaseException, as KeyboardInterrupt is, so no handler keeps it."""


def _stop(signum, frame) -> NoReturn:
    for other in _STOPS:  # a second signal must not break into the cleanup that this one starts
        signal.signal(other, signal.SIG_IGN)
    raise _Stopped(signum)


def console_main() -> NoReturn:
    """Run main() as the whole process: flush stdout and stderr, then exit without teardown."""
    for signum in _STOPS:
        if signal.getsignal(signum) is signal.SIG_DFL:  # a signal ignored by the launcher, as under nohup, stays so
            signal.signal(signum, _stop)
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None in a process started without that file descriptor
                stream.flush()
    except _Stopped as exc:  # execute has removed what the run staged and made, unless it had published
        code = 128 + exc.args[0]
    except OSError as exc:  # the summary line met a closed pipe; any run output is already published
        code = 2
        try:
            print(f"vnlw: cannot write to stdout: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr is closed too
            pass
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
