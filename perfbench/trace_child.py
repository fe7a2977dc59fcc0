"""Traced run of one `vnlw` invocation, in process, through `vnlw.cli.main`.

    python perfbench/trace_child.py SPANS_JSON SPAWNED_AT -- <vnlw arguments>

SPAWNED_AT is the parent's `time.perf_counter()` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so interpreter start-up becomes the first span.  The script then
imports `vnlw.cli` (a fresh import), wraps every binding of the functions in
TRACED, runs `vnlw.cli.main` and writes the spans to SPANS_JSON as a list of
[name, start, end, parent index or -1, counters].

Only the standard library is imported before `vnlw.cli`, so the import span
holds the whole cost of importing the package and numpy/scipy.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# Public functions to trace, by defining module.  `scenarios` and `cli` bind
# several of them by name and `dynamics` binds `spectra.eigensystem`, so
# every module that binds one gets its own wrapper.
TRACED = {
    "lattice": ("build_grid", "box_grid", "build_hamiltonian", "sample_potential"),
    "spectra": ("eigensystem", "gap_spectrum", "distinct_gaps"),
    "dynamics": ("propagate_schrodinger", "propagate_vnl"),
    "bipartite": ("entanglement_entropy", "position_density"),
    "scenarios": ("run_scenario", "complementarity_sweep", "write_report"),
    "cli": ("execute",),
}


class Tracer:
    """Spans kept in memory; one thread, so the open spans form a stack."""

    def __init__(self):
        self.spans = []
        self._open = []

    def add(self, name: str, start: float, end: float | None = None) -> list:
        """Append a span under the innermost open one; it stays open while end is None."""
        span = [name, start, end, self._open[-1] if self._open else -1, {}]
        if end is None:
            self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.add(name, time.perf_counter())
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._open.pop()


def _propagated_steps(args, kwargs) -> dict:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return {"steps": cfg.steps}


def _report_bytes(args, kwargs) -> dict:
    outdir = kwargs["outdir"] if "outdir" in kwargs else args[1]
    return {"bytes": tree_bytes(outdir)}


COUNTERS = {
    "dynamics.propagate_schrodinger": _propagated_steps,
    "dynamics.propagate_vnl": _propagated_steps,
    "scenarios.write_report": _report_bytes,
}


def tree_bytes(root) -> int:
    """Total size of the regular files under root."""
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if counter is not None:
            span[4] = counter(args, kwargs)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every binding of the TRACED functions in the loaded vnlw modules."""
    names = {}
    for module, functions in TRACED.items():
        mod = importlib.import_module(f"vnlw.{module}")
        for fn in functions:
            names[id(getattr(mod, fn))] = f"{module}.{fn}"
    wrapped = set()
    for modname, mod in list(sys.modules.items()):
        if modname != "vnlw" and not modname.startswith("vnlw."):
            continue
        for attr, value in list(vars(mod).items()):
            name = names.get(id(value))
            if name is not None:
                setattr(mod, attr, _wrap(tracer, name, value))
                wrapped.add(name)
    missing = set(names.values()) - wrapped
    if missing:
        raise RuntimeError(f"no binding found for {sorted(missing)}")


def layer_totals(spans: list) -> dict:
    """Per span name: calls, self time (duration minus children) and summed counters."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        for key, value in counters.items():
            t[key] = t.get(key, 0) + value
    return totals


def main(argv: list) -> int:
    started = time.perf_counter()
    spans_path, spawned_at, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.add("python.startup", float(spawned_at), started)
    with tracer.span("cli.import"):
        cli = importlib.import_module("vnlw.cli")
    with tracer.span("trace.install"):
        install(tracer)
    try:
        with tracer.span("cli.main"):
            return cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
