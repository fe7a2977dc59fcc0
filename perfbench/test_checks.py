"""Tests of the benchmark's own code.

Each workload runs once through the real command line (seed 0).  Its output
must pass the workload's check, and every perturbed copy of it must fail
that check for the reason the perturbation targets.

    python3 -m pytest perfbench -q
"""

import json
import shutil

import numpy as np
import pytest

import run
from trace_child import layer_totals
from workloads import WORKLOADS, CheckError, merged_count

TEST_WORK = run.WORK / "test"


def edit_csv(path, row, column, change):
    """Replace one numeric cell; `row` counts data rows from 0."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def edit_summary(outdir, key, value):
    doc = json.loads((outdir / "summary.json").read_text())
    doc["summary"][key] = value
    (outdir / "summary.json").write_text(json.dumps(doc))


def drop_last_row(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


# workload -> perturbation -> (edit of the output directory, expected message)
PERTURBATIONS = {
    "two-slit": {
        "entropy": (lambda d: edit_csv(d / "sweep.csv", 4, 1, lambda v: v + 1e-8), "entropy off"),
        "wave-visibility": (lambda d: edit_csv(d / "sweep.csv", 0, 2, lambda v: 0.89), "theta=0"),
        "particle-visibility": (lambda d: edit_csv(d / "sweep.csv", 10, 2, lambda v: 0.06), "theta=pi/2"),
        "visibility-rises": (lambda d: edit_csv(d / "sweep.csv", 6, 2, lambda v: v + 0.2), "increases"),
        "density": (lambda d: edit_csv(d / "density.csv", 400, 1, lambda v: v + 1e-6), "integrates"),
    },
    "product-equivalence": {
        "frobenius-gap": (lambda d: edit_summary(d, "frobenius_gap", 2e-8), "frobenius_gap"),
        "norm": (lambda d: edit_summary(d, "norm_vnl", 1.0 + 2e-10), "norm_vnl"),
    },
    "evolve-random": {
        "norm": (lambda d: edit_csv(d / "trajectory.csv", 40, 1, lambda v: v + 2e-10), "norm drifts"),
        "x-mean": (lambda d: edit_csv(d / "trajectory.csv", 37, 2, lambda v: v + 1e-8), "x_mean at row 37"),
        "t": (lambda d: edit_csv(d / "trajectory.csv", 50, 0, lambda v: v + 1e-3), "t column"),
    },
    "gaps-wide": {
        "energies": (lambda d: edit_csv(d / "energies.csv", 10, 1, lambda v: v + 1e-7), "energies.csv: off"),
        "gaps": (lambda d: edit_csv(d / "gaps.csv", 123456, 2, lambda v: v + 1e-7), "E_n - E_m"),
        "distinct-gaps": (lambda d: drop_last_row(d / "distinct_gaps.csv"), "independent merge"),
    },
}


@pytest.fixture(scope="module")
def real_output():
    """Lazily run each workload once; yields name -> (workload, outdir, config, reference)."""
    made = {}

    def get(name):
        if name not in made:
            w = WORKLOADS[name]
            work = TEST_WORK / name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            config = w.make_config(0)
            (work / "config.json").write_text(json.dumps(config))
            argv = [*run.VNLW, w.subcommand, "--config", str(work / "config.json"),
                    "--output", str(work / "out"), "--no-timestamp"]
            assert run.spawn(argv, run.child_env(), work / "log", 300.0).code == 0
            made[name] = (w, work / "out" / w.output, config, w.reference(config))
        return made[name]

    yield get
    shutil.rmtree(TEST_WORK, ignore_errors=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_output_passes(real_output, name):
    w, outdir, config, ref = real_output(name)
    w.check(outdir, config, ref)


CASES = [(name, p) for name, ps in PERTURBATIONS.items() for p in ps]


@pytest.mark.parametrize("name,perturbation", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_perturbed_output_fails(real_output, name, perturbation):
    w, outdir, config, ref = real_output(name)
    copy = TEST_WORK / f"{name}-{perturbation}"
    shutil.copytree(outdir, copy)
    try:
        edit, message = PERTURBATIONS[name][perturbation]
        edit(copy)
        with pytest.raises(CheckError, match=message):
            w.check(copy, config, ref)
    finally:
        shutil.rmtree(copy)


def test_merged_count_matches_sequential_merge():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-5, 5, 300)
    values = np.concatenate([centers, centers + rng.uniform(0, 3e-9, 300), rng.uniform(-5, 5, 50)])
    for tol in (1e-9, 2e-9, 1e-3):
        kept = []
        for v in np.sort(values):
            if not kept or v - kept[-1] > tol:
                kept.append(v)
        assert merged_count(values, tol) == len(kept)


def test_self_times_partition_the_root_spans():
    spans = [
        ["a", 0.0, 10.0, -1, {}],
        ["b", 1.0, 4.0, 0, {"steps": 5}],
        ["c", 2.0, 3.0, 1, {}],
        ["b", 5.0, 6.0, 0, {"steps": 7}],
        ["d", 10.0, 12.0, -1, {}],
    ]
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 1, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "self_s": 3.0, "steps": 12}
    assert sum(t["self_s"] for t in totals.values()) == 12.0


def test_benchmark_json_names_these_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
