"""Benchmark of the `vnlw` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  `vnlw` is started from source as
`python -m vnlw.cli` with `src` on PYTHONPATH, one process at a time: a
closed loop with one client.  Every child gets one BLAS/OpenMP thread.

With --trace 0 a round is SETUP_REPEATS `vnlw validate-config` invocations
and one invocation of the workload; rounds repeat while the next one can
end within S seconds (default: `run_seconds` of BENCHMARK.json) of the
start.  The result line holds the end-to-end metrics of BENCHMARK.json:
medians of the wall time and peak RSS of the workload invocations, and of
the wall time of validate-config (`setup_s`).

With --trace 1 a round is one untraced invocation and one traced
invocation (perfbench/trace_child.py) of the workload, and the result line
holds the per-layer metrics of BENCHMARK.json, medians over the rounds.

Every output of every invocation is checked (workloads.py) and then
deleted.  The last line printed is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import os

# One thread per BLAS/OpenMP pool, for the children and for this process's
# own checks.  OpenBLAS's default pool of one thread per core makes the
# propagators burn a second core and their wall time spread (CHANGES.md);
# idle pool threads of this process would also spin beside a child.
# Set before numpy is imported.
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS_ENV)

import argparse
import json
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from trace_child import layer_totals, tree_bytes
from workloads import WORKLOADS, CheckError, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACE_CHILD = HERE / "trace_child.py"
VNLW = [sys.executable, "-m", "vnlw.cli"]

SETUP_REPEATS = 3      # validate-config invocations per round
STOP_AFTER_S = 150     # no round is planned to end later than this into a run
KILL_AFTER_S = 170     # an invocation still running this far into a run is killed


@dataclass(frozen=True)
class Exit:
    wall_s: float
    code: int
    peak_rss_mb: float


def spawn(argv: list, env: dict, log: Path, timeout: float, start: float | None = None) -> Exit:
    """Run argv to its exit with stdout/stderr in log.out/log.err.

    Wall time runs from just before the process is started (or from `start`)
    to its reaping; peak RSS is the child's own, from wait4.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, f"{log}.out", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log}.err", flags, 0o644),
    ]
    if start is None:
        start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    return Exit(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def medians(self) -> dict:
        return {name: statistics.median(values) for name, values in self.samples.items()}


class WorkloadRun:
    """One run of one workload: its config, reference values and invocations."""

    def __init__(self, workload: Workload, seed: int, work: Path, t0: float):
        self.w = workload
        self.work = work
        self.t0 = t0
        self.env = child_env()
        self.config = workload.make_config(seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.out_root = work / "out"
        self.reference = workload.reference(self.config)
        self.tally = Tally()

    def _args(self, subcommand: str) -> list:
        return [subcommand, "--config", str(self.config_path),
                "--output", str(self.out_root), "--no-timestamp"]

    def _invoke(self, argv: list, start: float | None = None) -> Exit | None:
        self.tally.attempted += 1
        log = self.work / "child"
        timeout = max(1.0, self.t0 + KILL_AFTER_S - time.perf_counter())
        run = spawn(argv, self.env, log, timeout, start)
        if run.code != 0:
            self.tally.failed += 1
            err = Path(f"{log}.err").read_text()[-2000:]
            print(f"{self.w.name}: {' '.join(argv[1:])} exited {run.code}\n{err}", file=sys.stderr)
            return None
        return run

    def validate(self) -> Exit | None:
        return self._invoke([*VNLW, *self._args("validate-config")])

    def workload(self) -> Exit | None:
        return self._finish(self._invoke([*VNLW, *self._args(self.w.subcommand)]))

    def traced(self) -> tuple:
        """Traced invocation; its spans end with `python.exit`, from the end of
        `cli.main` to the reaping of the process (span dump and teardown)."""
        path = self.work / "spans.json"
        start = time.perf_counter()
        argv = [sys.executable, str(TRACE_CHILD), str(path), repr(start), "--",
                *self._args(self.w.subcommand)]
        run = self._invoke(argv, start)
        if run is None:
            return self._finish(run), [], 0
        spans = json.loads(path.read_text())
        last_end = max(end for _, _, end, parent, _ in spans if parent < 0)
        spans.append(["python.exit", last_end, start + run.wall_s, -1, {}])
        written = tree_bytes(self.out_root / self.w.output)
        return self._finish(run), spans, written

    def measure_round(self) -> None:
        for _ in range(SETUP_REPEATS):
            run = self.validate()
            if run:
                self.tally.add("setup_s", run.wall_s)
        run = self.workload()
        if run:
            self.tally.add("wall_s", run.wall_s)
            self.tally.add("peak_rss_mb", run.peak_rss_mb)

    def trace_round(self, names: list) -> None:
        untraced = self.workload()
        traced, spans, written = self.traced()
        if untraced and traced:
            self.tally.add("trace.untraced_wall_s", untraced.wall_s)
            for name, value in layer_values(layer_totals(spans), traced.wall_s, written, names).items():
                self.tally.add(name, value)

    def _finish(self, run: Exit | None) -> Exit | None:
        """Check the published output of a successful invocation, then delete it."""
        outdir = self.out_root / self.w.output
        if run is not None:
            try:
                self.w.check(outdir, self.config, self.reference)
            except (CheckError, OSError, ValueError, KeyError) as exc:
                self.tally.errors.append(f"{type(exc).__name__}: {exc}")
                print(f"{self.w.name}: output check failed: {exc}", file=sys.stderr)
        shutil.rmtree(self.out_root, ignore_errors=True)
        return run


def layer_values(totals: dict, traced_wall: float, written: int, names: list) -> dict:
    """Per-layer metrics of one traced invocation.

    `<layer>.<field>` sums `field` (calls, self_s, steps, bytes) over the spans
    named `<layer>` or `<layer>.*`, so `lattice.self_s` covers every lattice
    function.  The names in `special` are not such sums.
    """
    self_sum = sum(t["self_s"] for t in totals.values())
    special = {
        "python.startup_s": totals["python.startup"]["self_s"],
        "python.exit_s": totals["python.exit"]["self_s"],
        "cli.import_s": totals["cli.import"]["self_s"],
        "cli.bytes_written": written,
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": traced_wall - self_sum,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif not name.startswith("trace."):
            layer, metric = name.rsplit(".", 1)
            values[name] = sum(
                t.get(metric, 0) for span, t in totals.items()
                if span == layer or span.startswith(layer + ".")
            )
    return values


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    t0 = time.perf_counter()
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        s = WorkloadRun(w, seed, work, t0)
        s.validate()  # warm-up: the first import writes the bytecode cache
        # Another round starts only if one of average length ends by the
        # deadline, so a run lasts about `seconds` and never a round more.
        deadline = min(t0 + seconds, t0 + STOP_AFTER_S)
        rounds, started = 0, time.perf_counter()
        while True:
            if trace:
                s.trace_round(list(declared))
            else:
                s.measure_round()
            rounds += 1
            now = time.perf_counter()
            if now + (now - started) / rounds > deadline:
                break
        values = s.tally.medians()
        if trace and "trace.wall_s" in values:
            values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"{w.name}: no measurement of {missing}; every invocation failed?")
    print(f"# {w.name} seed={seed} rounds={rounds} attempted={s.tally.attempted} "
          f"failed={s.tally.failed} check_errors={len(s.tally.errors)}")
    return {
        "correct": not s.tally.errors,
        "attempted": s.tally.attempted,
        "failed": s.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vnlw" / "cli.py").is_file():
        print(f"perfbench: no vnlw sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace), declared)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
