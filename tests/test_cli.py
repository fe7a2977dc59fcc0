import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vnlw
from vnlw import cli, scenarios, schema
from vnlw.cli import apply_overrides, main, parse_invocation, validate_config
from vnlw.errors import ConfigError
from oracles import sturm_count

BASE = {
    "schema_version": 1,
    "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 201},
    "potential": {"kind": "harmonic", "omega": 1.0},
    "spectra": {"k": 3},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseInvocation:
    def test_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VNLW_OUTPUT_DIR", raising=False)
        inv = parse_invocation(["gaps", "--config", "c.json"])
        assert inv.subcommand == "gaps"
        assert inv.output == "."
        assert inv.format == "csv"
        assert not inv.no_timestamp

    def test_env_output_dir(self, monkeypatch):
        monkeypatch.setenv("VNLW_OUTPUT_DIR", "/tmp/elsewhere")
        inv = parse_invocation(["gaps", "--config", "c.json"])
        assert inv.output == "/tmp/elsewhere"

    def test_explicit_output_beats_env(self, monkeypatch):
        monkeypatch.setenv("VNLW_OUTPUT_DIR", "/tmp/elsewhere")
        inv = parse_invocation(["gaps", "--config", "c.json", "--output", "out"])
        assert inv.output == "out"

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            parse_invocation(["frobnicate", "--config", "c.json"])
        assert exc.value.code == 2

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            parse_invocation(["gaps"])
        assert exc.value.code == 2


class TestValidateConfig:
    def test_accepts_base(self):
        validate_config(BASE)

    def test_schema_version_required(self):
        with pytest.raises(ConfigError):
            validate_config({"grid": {"n_points": 64}})

    def test_unknown_group(self):
        with pytest.raises(ConfigError, match="gird"):
            validate_config({**BASE, "gird": {}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grid.npoints"):
            validate_config({**BASE, "grid": {"npoints": 64}})

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            validate_config({**BASE, "grid": {"n_points": 4}})
        with pytest.raises(ConfigError):
            validate_config({**BASE, "dynamics": {"dt": -1.0}})
        with pytest.raises(ConfigError):
            validate_config({**BASE, "dynamics": {"method": "magic"}})
        with pytest.raises(ConfigError):
            validate_config({**BASE, "spectra": {"k": 0}})
        with pytest.raises(ConfigError):
            validate_config({**BASE, "constants": {"hbar": 0.0}})
        for stride in (0, -3, 1.5, True):
            with pytest.raises(ConfigError, match="dynamics.stride"):
                validate_config({**BASE, "dynamics": {"stride": stride}})

    @pytest.mark.parametrize("group, key, value", [
        ("grid", "x_min", "abc"),
        ("grid", "x_max", float("nan")),
        ("grid", "x_max", float("inf")),
        ("dynamics", "dt", float("inf")),
        ("dynamics", "steps", True),
        ("potential", "kind", "nope"),
        ("scenario", "name", "nope"),
    ])
    def test_mistyped_values(self, group, key, value):
        cfg = {**BASE, group: {**BASE.get(group, {}), key: value}}
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            validate_config(cfg)


class TestApplyOverrides:
    def test_numeric_and_string(self):
        out = apply_overrides(BASE, ["spectra.k=6", "dynamics.method=eigenbasis"])
        assert out["spectra"]["k"] == 6
        assert out["dynamics"]["method"] == "eigenbasis"
        assert BASE["spectra"]["k"] == 3  # original untouched

    def test_unknown_path(self):
        with pytest.raises(ConfigError):
            apply_overrides(BASE, ["spectra.kk=6"])
        with pytest.raises(ConfigError):
            apply_overrides(BASE, ["nonsense"])


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["gaps", "--config", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gaps", "--config", str(path)]) == 3

    def test_unknown_key_exit(self, tmp_path, capsys):
        cfg = {**BASE, "grid": {"npoints": 64}}
        assert main(["gaps", "--config", write_config(tmp_path, cfg)]) == 3
        assert "grid.npoints" in capsys.readouterr().err

    def test_bad_override_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["gaps", "--config", path, "--set", "dynamics.dt=-1"]) == 3
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output", str(out)]) == 3
        assert "scenario.name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "grid.x_min=abc",
        "grid.x_max=NaN",
        "dynamics.stride=0",
        "dynamics.stride=-3",
        "potential.kind=nope",
        "potential.kind=tabulated",
        "state.type=nope",
        "state.type=eigen-product",
        "state.type=eigen",
        "spectra.dedup_tol=abc",
        "spectra.dedup_tol=NaN",
        "spectra.dedup_tol=-1e-9",
        "scenario.sweep_points=abc",
        "scenario.sweep_points=-1",
        "scenario.window=3",
        "scenario.window=[1, -1]",
        "scenario.window=[-1, NaN]",
        "scenario.sigma=abc",
        "scenario.sigma=0",
        "scenario.separation=-4",
        "scenario.evolve_time=-1",
        "state.tol=abc",
        "state.tol=-1",
        "state.sigma=Infinity",
        "state.separation=0",
        "grid.box=abc",
        "grid.box=1",
        "potential.omega=abc",
        "potential.values=abc",
        "state.center=abc",
        "state.momentum=abc",
        "state.seed=abc",
        "state.seed=-1",
        "state.seed=null",
        "scenario.coefficients=abc",
        "scenario.coefficients=[0, 0, 0, 0]",
        "scenario.seed=1",  # no such key: --seed sets state.seed
    ])
    def test_bad_value_exit_leaves_nothing(self, tmp_path, capsys, override):
        out = tmp_path / "out"
        code = main([
            "gaps", "--config", write_config(tmp_path, BASE), "--output", str(out),
            "--set", override,
        ])
        assert code == 3
        assert override.split("=")[0] in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, args, key", [
        ("evolve", ["--seed", "-1", "--set", "state.type=random"], "seed"),
        ("collapse", ["--set", "state.type=eigen-product", "--set", "state.coefficients=[0, 0]"],
         "state.coefficients"),
        ("gaps", ["--set", "potential.kind=barrier", "--set", "potential.width=0"], "potential.width"),
        ("spectrum", ["--set", "potential.kind=tabulated", "--set", "potential.values=[1, 2, 3]"],
         "potential.values"),
        ("run", ["--set", "scenario.name=two-slit", "--set", "scenario.coefficients=[0, 0, 0, 0]"],
         "scenario.coefficients"),
        ("run", ["--set", "scenario.name=two-slit", "--set", "scenario.coefficients=abc"],
         "scenario.coefficients"),
        ("collapse", ["--set", "grid.n_points=32", "--set", "state.type=eigen-product",
                      "--set", f"state.coefficients={[1.0] * 40}"], "state.coefficients"),
        ("entropy", ["--set", "state.type=gaussian"], "state.type"),
        # the work budget
        ("collapse", ["--set", "grid.n_points=100000000"], "grid.n_points"),
        ("run", ["--set", "scenario.name=two-slit", "--set", "scenario.evolve_time=1e300"],
         "scenario.evolve_time"),
        ("entropy", ["--set", "state.type=random", "--set", "grid.n_points=20000"], "grid.n_points"),
        ("evolve", ["--set", "dynamics.steps=10000000", "--set", "dynamics.stride=1"], "dynamics.stride"),
        ("run", ["--set", "scenario.name=two-slit", "--set", f"scenario.sweep_points={schema.MAX_ROWS + 1}"],
         "scenario.sweep_points"),
        # windows that hold fewer than 3 grid points, refused before any numerics
        ("run", ["--set", "scenario.name=two-slit", "--set", "scenario.window=[100, 200]"], "scenario.window"),
        ("run", ["--set", "scenario.name=two-slit", "--set", "scenario.window=[0.0, 0.1]"], "scenario.window"),
        # more eigenstates than grid points
        ("spectrum", ["--set", "grid.n_points=32", "--set", "spectra.k=40"], "spectra.k"),
        ("gaps", ["--set", "grid.n_points=32", "--set", "spectra.k=40"], "spectra.k"),
        ("collapse", ["--set", "grid.n_points=32", "--set", "spectra.k=40"], "spectra.k"),
        # --seed is checked also where the config's own state.seed wins
        ("evolve", ["--seed", "-1", "--set", "state.type=random", "--set", "state.seed=3"], "seed"),
        # two-slit coefficients whose squares overflow in the check itself
        ("run", ["--set", "scenario.name=two-slit", "--set", "scenario.coefficients=[1e200, 0, 0, 0]"],
         "scenario.coefficients"),
        ("schmidt", ["--set", "state.type=two-slit", "--set", "state.coefficients=[1.7e308, 1.7e308, 0, 0]"],
         "state.coefficients"),
    ])
    def test_bad_run_exit_leaves_nothing(self, tmp_path, capsys, subcommand, args, key):
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main([subcommand, "--config", write_config(tmp_path, BASE), "--output", str(out), *args])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("method", ["crank-nicolson", "eigenbasis"])
    def test_overflowing_dt_exits_4(self, tmp_path, capsys, method):
        out = tmp_path / "out"
        code = main([
            "evolve", "--config", write_config(tmp_path, BASE), "--output", str(out),
            "--set", "dynamics.dt=1e308", "--set", f"dynamics.method={method}",
        ])
        assert code == 4
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_stiff_crank_nicolson_step_stays_finite(self, tmp_path):
        """A potential of 1e308 at one point: a step is one solve, and (I - i a H) v, which
        overflows there, is never formed.  The Cayley step is unitary, so the norm stays 1."""
        cfg = {"schema_version": 1, "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 32},
               "potential": {"kind": "tabulated", "values": [0.0] * 16 + [1e308] + [0.0] * 15},
               "dynamics": {"dt": 2.0, "steps": 3, "stride": 1, "method": "crank-nicolson"},
               "state": {"type": "gaussian", "center": 0.03, "sigma": 0.02}}
        out = tmp_path / "out"
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--output", str(out), "--no-timestamp"]) == 0
        table = np.loadtxt(out / "evolve" / "trajectory.csv", delimiter=",", skiprows=1)
        assert table.shape == (4, 3)
        assert np.max(np.abs(table[:, 1] - 1.0)) <= 1e-10

    @pytest.mark.parametrize("overrides", [
        ["potential.omega=1e300"],
        ["potential.kind=double-well", "potential.b=1e200"],
    ], ids=["omega", "double-well"])
    def test_non_finite_hamiltonian_exits_4(self, tmp_path, capsys, overrides):
        out = tmp_path / "out"
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["spectrum", "--config", write_config(tmp_path, BASE), "--output", str(out), *sets])
        assert code == 4
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        ["grid.x_min=-1e200"],  # dx^2 overflows
        ["grid.x_min=-1e200", "potential.kind=infinite-box"],
        ["grid.x_min=-1e200", "potential.kind=infinite-box", "grid.box=true"],
        ["grid.x_min=-1e308", "grid.x_max=1e308", "potential.kind=infinite-box"],  # the span overflows
        ["grid.x_min=-1e308", "grid.x_max=1e308", "potential.kind=infinite-box", "grid.box=true"],  # dx is NaN
    ], ids=["dx2", "dx2-box-potential", "dx2-box-grid", "span", "span-box-grid"])
    def test_grid_not_finite_exits_3(self, tmp_path, capsys, overrides):
        """A span or mass dx^2 that overflows would leave every run an H that is not finite:
        validate-config and the subcommands refuse the config before any numerics, and name the grid keys."""
        out = tmp_path / "out"
        sets = [arg for override in overrides for arg in ("--set", override)]
        path = write_config(tmp_path, BASE)
        assert main(["validate-config", "--config", path, *sets]) == 3
        assert main(["spectrum", "--config", path, "--output", str(out), *sets]) == 3
        err = capsys.readouterr().err
        assert err.count("grid.x_min, grid.x_max, grid.n_points: mass dx^2 is not finite") == 2
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        ["grid.x_min=0", "grid.x_max=5e-324", "grid.n_points=32"],  # dx underflows to 0
        ["grid.x_min=0", "grid.x_max=1e-160"],  # 1/dx^2 overflows
        ["constants.hbar=1e300"], ["constants.mass=1e-320"],
    ], ids=["dx-zero", "dx-tiny", "hbar", "mass"])
    def test_kinetic_term_not_finite_exits_3(self, tmp_path, capsys, overrides):
        """A dx of 0, or an hbar^2/(mass dx^2) that overflows, would leave every run an H that is not finite:
        validate-config and the subcommands refuse the config before any numerics, and name the grid keys."""
        out = tmp_path / "out"
        sets = [arg for override in overrides for arg in ("--set", override)]
        path = write_config(tmp_path, BASE)
        assert main(["validate-config", "--config", path, *sets]) == 3
        assert main(["spectrum", "--config", path, "--output", str(out), *sets]) == 3
        err = capsys.readouterr().err
        assert err.count("grid.x_min, grid.x_max, grid.n_points: hbar^2/(mass dx^2) is not finite") == 2
        assert not out.exists()

    # Packets that cannot be normalised: a parameter overflows, or the width
    # vanishes, to a zero or NaN packet.
    @pytest.mark.parametrize("subcommand, overrides, message", [
        ("evolve", ["state.momentum=1e308"], "cannot normalize"),
        ("evolve", ["state.center=1e308"], "cannot normalize"),
        ("evolve", ["state.sigma=1e-300"], "cannot normalize"),
        ("collapse", ["state.center=1e308"], "cannot normalize"),
        ("run", ["scenario.name=product-equivalence", "scenario.center=1e308"], "cannot normalize"),
        ("run", ["scenario.name=product-equivalence", "scenario.momentum=1e308"], "cannot normalize"),
        ("run", ["scenario.name=two-slit", "scenario.separation=1e308"], "cannot normalize"),
        ("run", ["scenario.name=two-slit", "scenario.sigma=1e-300"], "cannot normalize"),
        ("schmidt", ["state.type=two-slit", "state.separation=1e308"], "cannot normalize"),
        ("entropy", ["state.center=1e308"], "cannot normalize"),
        # sigma^2 overflows: both slit modes are the same flat packet
        ("run", ["scenario.name=two-slit", "scenario.sigma=2e154"], "linearly dependent"),
        ("schmidt", ["state.type=two-slit", "state.sigma=2e154"], "linearly dependent"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_unnormalizable_packet_exits_4(self, tmp_path, capsys, subcommand, overrides, message):
        out = tmp_path / "out"
        sets = [arg for override in ["grid.n_points=64", *overrides] for arg in ("--set", override)]
        code = main([subcommand, "--config", write_config(tmp_path, BASE), "--output", str(out), *sets])
        assert code == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, column", [("gaps", "lambda")])
    def test_overflowing_report_exits_4(self, tmp_path, capsys, subcommand, column):
        """Energies near both ends of the float range: a gap overflows."""
        values = [sys.float_info.max, -sys.float_info.max] + [0.0] * 31
        cfg = {**BASE, "grid": {"n_points": 33}, "spectra": {"k": 33}, "state": {"sigma": 2},
               "potential": {"kind": "tabulated", "values": values}}
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_config(tmp_path, cfg), "--output", str(out)]) == 4
        assert f"column {column} of table" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_removes_only_the_directories_it_made(self, tmp_path):
        (tmp_path / "keep").mkdir()
        out = tmp_path / "keep" / "a" / "b"
        code = main(["evolve", "--config", write_config(tmp_path, BASE), "--output", str(out),
                     "--set", "dynamics.dt=1e308"])
        assert code == 4
        assert list((tmp_path / "keep").iterdir()) == []

    def test_evolve_on_an_inexact_eigenbasis_exits_4(self, tmp_path, capsys):
        """A spike of 1e300 leaves k = N states that are no eigenvectors, so no unitary propagator.
        The eigenbasis method needs them; Crank-Nicolson steps the product's factor with no eigensolve."""
        cfg = {**BASE, "grid": {"n_points": 8}, "potential": {"kind": "tabulated", "values": [0.0] * 7 + [1e300]},
               "state": {"type": "gaussian-product"}, "dynamics": {"dt": 1.0, "steps": 0, "method": "eigenbasis"}}
        out = tmp_path / "out"
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--output", str(out)]) == 4
        assert "off their energies" in capsys.readouterr().err
        assert not out.exists()
        cfg["dynamics"]["method"] = "crank-nicolson"
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--output", str(out)]) == 0

    def test_eigen_state_of_huge_amplitudes(self, tmp_path):
        """Amplitudes whose squares overflow still give the normalised state they describe."""
        out = tmp_path / "out"
        code = main(["evolve", "--config", write_config(tmp_path, BASE), "--output", str(out), "--no-timestamp",
                     "--set", "state.type=eigen", "--set", "state.coefficients=[1e308, -1e308]"])
        assert code == 0
        assert json.loads((out / "evolve" / "summary.json").read_text())["summary"]["final_norm"] == pytest.approx(1.0)

    @pytest.mark.parametrize("subcommand, values, k", [
        ("spectrum", [0.0] * 15 + [1e300], 3),
        ("spectrum", [0.0] * 15 + [1e300], 16),
        ("collapse", [sys.float_info.max, -sys.float_info.max] + [0.0] * 31, 33),
    ], ids=["spike-k3", "spike-all", "extremes-collapse"])
    def test_states_off_their_energies_exit_4(self, tmp_path, capsys, subcommand, values, k):
        """A potential near the float limit leaves states that are no eigenvectors, at k < N from
        inverse iteration and at k = N after it: no run publishes them."""
        cfg = {**BASE, "grid": {"n_points": len(values)}, "spectra": {"k": k}, "state": {"sigma": 2},
               "potential": {"kind": "tabulated", "values": values}}
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_config(tmp_path, cfg), "--output", str(out)]) == 4
        assert "eigenstates of H are off their energies" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spike", [2e154])
    def test_potential_spike_gives_finite_states(self, tmp_path, spike):
        """Inverse iteration on an H of norm above about 1e150 is scaled first; it used to return NaN.
        Exit 0 means that no state is off its energy, which would exit 4."""
        cfg = {**BASE, "grid": {"n_points": 16}, "potential": {"kind": "tabulated", "values": [0.0] * 15 + [spike]}}
        out = tmp_path / "out"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--output", str(out), "--no-timestamp"]) == 0
        states = np.loadtxt(out / "spectrum" / "states.csv", delimiter=",", skiprows=1)
        dx = states[1, 0] - states[0, 0]
        assert np.all(np.isfinite(states))
        assert np.sum(states[:, 1:] ** 2, axis=0) * dx == pytest.approx(np.ones(3))

    def test_window_on_a_grid_whose_dx_underflows(self, tmp_path, capsys):
        """dx = 5e-324 / 200 is 0: every point sits at x_min, in the window, and H would not be finite,
        so the grid is refused with exit 3 before the window is counted."""
        sets = ["--set", "scenario.name=two-slit", "--set", "grid.x_min=0", "--set", "grid.x_max=5e-324"]
        path = write_config(tmp_path, BASE)
        assert main(["validate-config", "--config", path, *sets]) == 3
        assert main(["run", "--config", path, "--output", str(tmp_path / "out"), *sets]) == 3
        assert "vnlw run: grid.x_min, grid.x_max, grid.n_points" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, key", [("run", "scenario.name=two-slit"), ("schmidt", "state.type=two-slit")])
    def test_flat_slit_modes_blame_sigma(self, tmp_path, capsys, subcommand, key):
        """sigma^2 overflows, so both slit modes are the same flat wave: the message names sigma."""
        group = key.split(".")[0]
        sets = ["--set", "grid.n_points=64", "--set", key, "--set", f"{group}.sigma=2e154"]
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_config(tmp_path, BASE), "--output", str(out), *sets]) == 4
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, overrides", [
        ("evolve", ["state.sigma=2e154"]),
        ("collapse", ["state.sigma=2e154"]),
        ("entropy", ["state.sigma=2e154"]),
        ("schmidt", ["state.sigma=2e154"]),
        ("run", ["scenario.name=product-equivalence", "scenario.sigma=2e154"]),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_flat_packet_is_finite(self, tmp_path, subcommand, overrides):
        """sigma^2 overflows to inf, which leaves the plane wave exp(i k x): normalisable and finite."""
        out = tmp_path / "out"
        sets = [arg for override in ["grid.n_points=64", *overrides] for arg in ("--set", override)]
        code = main([subcommand, "--config", write_config(tmp_path, BASE), "--output", str(out), *sets])
        assert code == 0
        (run,) = out.iterdir()
        summary = json.loads((run / "summary.json").read_text())["summary"]
        values = [v for v in summary.values() for v in (v if isinstance(v, list) else [v])]
        assert values and np.all(np.isfinite(values))
        for table in run.glob("*.csv"):
            assert np.all(np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2))), table.name

    def test_unmapped_exception_removes_staging(self, tmp_path, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setitem(scenarios.RUNNERS, "spectrum", boom)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="boom"):
            main(["spectrum", "--config", write_config(tmp_path, BASE), "--output", str(out)])
        assert not out.exists()

    def test_numerical_failure_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--config", write_config(tmp_path, BASE), "--output", str(out),
            "--set", "scenario.name=two-slit", "--set", "scenario.evolve_time=0.01",
            "--set", "scenario.separation=1e-12",  # coincident slits: no two orthonormal modes
        ])
        assert code == 4
        assert not out.exists()

    def test_value_that_is_not_finite_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        report = scenarios.ScenarioReport("spectrum", {}, {"k": 1, "energy": float("nan")})
        monkeypatch.setitem(scenarios.RUNNERS, "spectrum", lambda *args: report)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", write_config(tmp_path, BASE), "--output", str(out)]) == 4
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSeed:
    def run_entropy(self, tmp_path, *args):
        cfg = {**BASE, "grid": {**BASE["grid"], "n_points": 32}, "state": {"type": "random"}}
        out = tmp_path / "out"
        assert main(["entropy", "--config", write_config(tmp_path, cfg), "--output", str(out),
                     "--no-timestamp", *args]) == 0
        return json.loads((out / "entropy" / "summary.json").read_text())

    def test_seed_flag_seeds_random_state(self, tmp_path):
        seeded = self.run_entropy(tmp_path, "--seed", "5")
        assert seeded["config"]["state"]["seed"] == 5
        assert "scenario" not in seeded["config"]
        assert seeded["summary"] == self.run_entropy(tmp_path, "--set", "state.seed=5")["summary"]
        assert seeded["summary"] != self.run_entropy(tmp_path, "--seed", "6")["summary"]

    def test_config_seed_beats_seed_flag(self, tmp_path):
        seeded = self.run_entropy(tmp_path, "--set", "state.seed=5", "--seed", "6")
        assert seeded["summary"] == self.run_entropy(tmp_path, "--seed", "5")["summary"]


class TestOutputNames:
    def test_same_second_runs_both_kept(self, tmp_path, monkeypatch):
        strftime = time.strftime
        monkeypatch.setattr(time, "strftime", lambda fmt: strftime(fmt, (2026, 1, 2, 3, 4, 5, 4, 2, -1)))
        out = tmp_path / "out"
        args = ["gaps", "--config", write_config(tmp_path, BASE), "--output", str(out)]
        assert cli.execute(parse_invocation(args)) == 0
        assert cli.execute(parse_invocation(args + ["--set", "spectra.k=4"])) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["gaps-20260102T030405", "gaps-20260102T030405-2"]
        ks = [json.loads((out / n / "summary.json").read_text())["summary"]["k"] for n in names]
        assert ks == [3, 4]

    def test_no_timestamp_replaces_whole_run(self, tmp_path):
        out = tmp_path / "out"
        args = ["gaps", "--config", write_config(tmp_path, BASE), "--output", str(out), "--no-timestamp"]
        assert main(args + ["--set", "spectra.k=4"]) == 0
        assert main(args) == 0
        assert [p.name for p in out.iterdir()] == ["gaps"]
        assert json.loads((out / "gaps" / "summary.json").read_text())["summary"]["k"] == 3
        assert len((out / "gaps" / "gaps.csv").read_text().splitlines()) == 10


class TestValidateConfigCommand:
    def test_valid_returns_zero_no_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "validate-config", "--config", write_config(tmp_path, BASE), "--output", str(out)
        ])
        assert code == 0
        assert not out.exists()

    def test_refused_by_one_subcommand(self, tmp_path, capsys):
        """spectra.k above n_points is refused by the runs that solve for k levels, so by validate-config."""
        cfg = {**BASE, "grid": {**BASE["grid"], "n_points": 32}}
        args = ["--config", write_config(tmp_path, cfg), "--output", str(tmp_path / "out"),
                "--set", "spectra.k=100000"]
        assert main(["validate-config", *args]) == 3
        assert "vnlw spectrum: spectra.k" in capsys.readouterr().err
        assert main(["gaps", *args]) == 3
        assert main(["evolve", *args, "--set", "dynamics.steps=10"]) == 0

    def test_stepped_runs_admitted_at_large_n(self, tmp_path, capsys):
        """A gaussian-product evolve and product-equivalence step N x 1 factors (Crank-Nicolson), so
        N = 10^5 is admitted and runs; a random kernel, or the eigenbasis method's full eigenvectors,
        is an N x N array, still refused above N = 4096."""
        cfg = {"schema_version": 1, "grid": {"n_points": 10**5}, "state": {"type": "gaussian-product"},
               "scenario": {"name": "product-equivalence"}, "dynamics": {"steps": 10}}
        path = write_config(tmp_path, cfg)
        assert main(["validate-config", "--config", path]) == 0
        for subcommand in ("evolve", "run"):
            assert main([subcommand, "--config", path, "--output", str(tmp_path / "out")]) == 0
        args = ["validate-config", "--config", path, "--set", "grid.n_points=4097"]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--set", "state.type=random"]) == 3
        assert "vnlw evolve: grid.n_points^2 kernel" in capsys.readouterr().err
        assert main([*args, "--set", "dynamics.method=eigenbasis"]) == 3
        assert "vnlw run: grid.n_points^2 kernel" in capsys.readouterr().err

    def test_one_partite_state_refused(self, tmp_path, capsys):
        """An explicit one-partite state.type is refused, since collapse, schmidt and entropy refuse it."""
        path = write_config(tmp_path, {**BASE, "state": {"type": "gaussian"}})
        assert main(["validate-config", "--config", path]) == 3
        assert "vnlw schmidt: state.type" in capsys.readouterr().err

    def test_named_scenario_checked_for_run(self, tmp_path, capsys):
        cfg = {**BASE, "scenario": {"name": "two-slit", "window": [100, 200]}}
        assert main(["validate-config", "--config", write_config(tmp_path, cfg)]) == 3
        assert "vnlw run: scenario.window" in capsys.readouterr().err


class TestUnusablePaths:
    """A path that cannot be read or written exits 2, a config that cannot be decoded exits 3;
    neither leaves anything behind nor touches a file that is not a run directory."""

    def run_spectrum(self, tmp_path, config_path, out, *args):
        return main(["spectrum", "--config", str(config_path), "--output", str(out), "--no-timestamp", *args])

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert self.run_spectrum(tmp_path, tmp_path, tmp_path / "out") == 2
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{}")
        assert self.run_spectrum(tmp_path, path, tmp_path / "out") == 3
        assert "does not parse" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "set"])
    def test_config_nested_too_deep(self, tmp_path, capsys, where):
        deep = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(deep if where == "config" else json.dumps(BASE))
        args = ["--set", f"grid.x_min={deep}"] if where == "set" else []
        assert self.run_spectrum(tmp_path, path, tmp_path / "out", *args) == 3
        assert "nested too deeply" in capsys.readouterr().err

    def test_output_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("keep")
        assert self.run_spectrum(tmp_path, write_config(tmp_path, BASE), out) == 2
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("kind", ["file", "directory"])
    def test_run_name_taken_by_other_file(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        out.mkdir()
        taken = out / "spectrum"
        if kind == "file":
            taken.write_text("keep")
        else:
            taken.mkdir()
            (taken / "notes.txt").write_text("keep")
        assert self.run_spectrum(tmp_path, write_config(tmp_path, BASE), out) == 2
        assert "not a run directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["spectrum"]
        assert (taken if kind == "file" else taken / "notes.txt").read_text() == "keep"


class TestGapsCommand:
    def test_writes_gaps_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "gaps", "--config", write_config(tmp_path, BASE),
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        assert "distinct_gap_count" in capsys.readouterr().out
        lines = (out / "gaps" / "gaps.csv").read_text().splitlines()
        assert lines[0] == "n,m,lambda"
        assert len(lines) == 10

    def test_override_is_effective(self, tmp_path):
        out = tmp_path / "out"
        main([
            "gaps", "--config", write_config(tmp_path, BASE),
            "--output", str(out), "--no-timestamp", "--set", "spectra.k=6",
        ])
        summary = json.loads((out / "gaps" / "summary.json").read_text())
        assert summary["summary"]["k"] == 6
        assert len(summary["summary"]["energies"]) == 6

    def test_repeat_runs_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        args = [
            "gaps", "--config", write_config(tmp_path, BASE),
            "--output", str(out), "--no-timestamp",
        ]
        main(args)
        first = (out / "gaps" / "summary.json").read_bytes()
        main(args)
        assert (out / "gaps" / "summary.json").read_bytes() == first

    def test_gnuplot_format(self, tmp_path):
        out = tmp_path / "out"
        main([
            "gaps", "--config", write_config(tmp_path, BASE),
            "--output", str(out), "--no-timestamp", "--format", "gnuplot",
        ])
        assert (out / "gaps" / "gaps.dat").read_text().startswith("# n m lambda")

    def test_env_output_dir_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VNLW_OUTPUT_DIR", str(tmp_path / "envout"))
        main(["gaps", "--config", write_config(tmp_path, BASE), "--no-timestamp"])
        assert (tmp_path / "envout" / "gaps" / "summary.json").exists()


class TestOtherCommands:
    def test_spectrum(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "spectrum", "--config", write_config(tmp_path, BASE),
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        lines = (out / "spectrum" / "energies.csv").read_text().splitlines()
        assert lines[0] == "n,energy"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-2)
        states = (out / "spectrum" / "states.csv").read_text().splitlines()
        assert states[0] == "x,psi_0,psi_1,psi_2"
        assert len(states) == 202

    def test_full_spectrum_of_a_wide_range_barrier(self, tmp_path):
        """k = N takes its energies from dqds too: E0 = E1 = 0.0513652 behind a barrier of
        height 1e20, where stevd's absolute error eps * |H| gave E0 = 0.047417."""
        cfg = {
            **BASE,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "potential": {"kind": "barrier", "height": 1e20, "width": 1.0},
        }
        out = tmp_path / "out"
        code = main([
            "spectrum", "--config", write_config(tmp_path, cfg),
            "--output", str(out), "--no-timestamp", "--set", "spectra.k=101",
        ])
        assert code == 0
        E = np.array(json.loads((out / "spectrum" / "summary.json").read_text())["summary"]["energies"])
        assert E[:2] == pytest.approx([0.0513652, 0.0513652], rel=1e-6)
        c = schema.resolve(cfg, "spectrum")
        H = scenarios.hamiltonian_from_config(c, scenarios.grid_from_config(c))
        eps = 1e-9 * np.maximum(1.0, np.abs(E))
        j = np.arange(101)
        assert np.all(sturm_count(H, E - eps) <= j) and np.all(j < sturm_count(H, E + eps))

    def test_spectrum_json_format(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "spectrum", "--config", write_config(tmp_path, BASE),
            "--output", str(out), "--no-timestamp", "--format", "json",
        ])
        assert code == 0
        energies = json.loads((out / "spectrum" / "energies.json").read_text())
        assert energies["columns"] == ["n", "energy"]
        assert len(energies["rows"]) == 3
        states = json.loads((out / "spectrum" / "states.json").read_text())
        assert states["columns"] == ["x", "psi_0", "psi_1", "psi_2"]
        assert len(states["rows"]) == 201
        assert not list((out / "spectrum").glob("*.csv"))

    def test_evolve_one_partite(self, tmp_path):
        cfg = {
            **BASE,
            "dynamics": {"dt": 1e-2, "steps": 40, "stride": 10},
            "state": {"type": "gaussian", "center": 1.0, "sigma": 0.8},
        }
        out = tmp_path / "out"
        code = main([
            "evolve", "--config", write_config(tmp_path, cfg),
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        lines = (out / "evolve" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,norm,x_mean"
        assert len(lines) == 6  # t = 0.0, 0.1, 0.2, 0.3, 0.4
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.4)
        assert last[1] == pytest.approx(1.0, abs=1e-10)

    def test_evolve_gnuplot_format(self, tmp_path):
        cfg = {
            **BASE,
            "dynamics": {"dt": 1e-2, "steps": 40, "stride": 10},
            "state": {"type": "gaussian", "center": 1.0, "sigma": 0.8},
        }
        out = tmp_path / "out"
        code = main([
            "evolve", "--config", write_config(tmp_path, cfg),
            "--output", str(out), "--no-timestamp", "--format", "gnuplot",
        ])
        assert code == 0
        lines = (out / "evolve" / "trajectory.dat").read_text().splitlines()
        assert lines[0] == "# t norm x_mean"
        assert len(lines) == 6
        assert not (out / "evolve" / "trajectory.csv").exists()

    def test_evolve_bipartite(self, tmp_path):
        cfg = {
            **BASE,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 101},
            "dynamics": {"dt": 1e-2, "steps": 20, "stride": 10},
            "state": {"type": "random", "seed": 7},
        }
        out = tmp_path / "out"
        code = main([
            "evolve", "--config", write_config(tmp_path, cfg),
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        lines = (out / "evolve" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 4
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-10)

    def test_schmidt_and_entropy(self, tmp_path, capsys):
        cfg = {
            **BASE,
            "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 401},
            "state": {"type": "two-slit", "coefficients": "particle"},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["schmidt", "--config", path, "--output", str(out), "--no-timestamp"]) == 0
        record = json.loads((out / "schmidt" / "schmidt.json").read_text())
        assert record["rank"] == 2
        coeffs = record["coefficients"]
        assert coeffs[0] == pytest.approx(2 ** -0.5, abs=1e-10)
        assert coeffs[1] == pytest.approx(2 ** -0.5, abs=1e-10)
        assert main(["entropy", "--config", path, "--output", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "entropy" / "summary.json").read_text())
        assert summary["summary"]["entropy"] == pytest.approx(math.log(2), abs=1e-10)
        assert summary["summary"]["entropy_reduced_route"] == pytest.approx(math.log(2), abs=1e-9)

    def test_pure_state_entropy_reads_positive_zero(self, tmp_path):
        """The rank-1 "wave" state has entropy +0.0 on both routes and in the sweep, never -0.0."""
        out = tmp_path / "out"
        cfg = {"schema_version": 1, "state": {"type": "two-slit", "coefficients": "wave"}}
        assert main(["entropy", "--config", write_config(tmp_path, cfg), "--output", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "entropy" / "summary.json").read_text())["summary"]
        assert [math.copysign(1.0, summary[key]) for key in ("entropy", "entropy_reduced_route")] == [1.0, 1.0]
        cfg = {"schema_version": 1, "grid": {"n_points": 201},
               "scenario": {"name": "two-slit", "evolve_time": 0.1, "sweep_points": 3}}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--output", str(out), "--no-timestamp"]) == 0
        assert (out / "two-slit" / "sweep.csv").read_text().splitlines()[1].startswith("0,0,")

    @pytest.mark.parametrize("subcommand", ["entropy", "schmidt", "collapse"])
    def test_product_state_admitted_at_large_n(self, tmp_path, subcommand):
        """A product state holds N-vectors and N x k eigenvectors, not an N x N kernel, so N = 8192
        is admitted; a random state, an N x N kernel, is still refused above N = 4096."""
        cfg = {"schema_version": 1, "grid": {"n_points": 8192}, "potential": {"kind": "harmonic"}}
        path = write_config(tmp_path, cfg)
        assert main([subcommand, "--config", path, "--output", str(tmp_path / "out"), "--no-timestamp"]) == 0
        refused = [subcommand, "--config", path, "--output", str(tmp_path / "refused"),
                   "--set", "grid.n_points=4097", "--set", "state.type=random"]
        assert main(refused) == 3
        assert not (tmp_path / "refused").exists()

    def test_run_two_slit_summary_line(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 201},
            "dynamics": {"dt": 5e-3},
            "scenario": {"name": "two-slit", "coefficients": "wave", "evolve_time": 0.5},
        }
        out = tmp_path / "out"
        code = main([
            "run", "--config", write_config(tmp_path, cfg),
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("two-slit visibility=")
        assert "elapsed=" in line
        assert (out / "two-slit" / "density.csv").exists()

    def test_collapse_command(self, tmp_path, capsys):
        cfg = {
            **BASE,
            "spectra": {"k": 2},
            "state": {"type": "eigen-product", "coefficients": [1.0, 1.0]},
        }
        out = tmp_path / "out"
        code = main([
            "collapse", "--config", write_config(tmp_path, cfg),
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        summary = json.loads((out / "collapse" / "summary.json").read_text())
        p = summary["summary"]["p"]
        assert p[0] == pytest.approx(0.5, abs=1e-10)
        assert p[1] == pytest.approx(0.5, abs=1e-10)


class TestSchemaDocs:
    DOC = Path(__file__).resolve().parents[1] / "docs" / "config-schema.md"

    def documented_keys(self):
        """(type, default) of each backticked key in the `## group` tables."""
        keys, group = {}, None
        for line in self.DOC.read_text().splitlines():
            if line.startswith("## "):
                group = line[3:].strip()
            elif line.startswith("| `") and group in schema.GROUPS:
                key, type_, default = (cell.strip() for cell in line.split("|")[1:4])
                keys.setdefault(group, {})[key.strip("`")] = (type_, default)
        return keys

    def test_doc_tables_match_schema(self):
        table = {
            group: {key: (e.check.doc, e.default_doc) for key, e in entries.items()}
            for group, entries in schema.GROUPS.items()
        }
        assert self.documented_keys() == table

    def test_schema_version_documented(self):
        assert '"schema_version": 1' in self.DOC.read_text()

    def test_readme_example_config_validates(self, tmp_path):
        """The README's example config is one the schema accepts, so it cannot drift from it."""
        readme = (self.DOC.parents[1] / "README.md").read_text()
        example = readme.split("Example config:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert main(["validate-config", "--config", write_config(tmp_path, json.loads(example))]) == 0


def run_vnlw(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python -m vnlw.cli` with args, as its own process: console_main's exit, not main's return."""
    src = str(Path(vnlw.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], text=True, timeout=60,
                          env={**(os.environ if env is None else env), "PYTHONPATH": src}, **kwargs)


class TestProcessExit:
    """The process ends with os._exit after main returns; every documented outcome survives."""

    @pytest.mark.parametrize("args, code, err", [
        (["validate-config", "--config", "cfg.json"], 0, ""),
        (["validate-config", "--config", "absent.json"], 2, "vnlw: config not found: absent.json\n"),
        (["gaps", "--config", "cfg.json", "--set", "grid.npoints=3"], 3,
         "vnlw: invalid config: unknown key: grid.npoints\n"),
        (["evolve", "--config", "cfg.json", "--set", "dynamics.dt=1e308"], 4,
         "vnlw: SimulationError: Crank-Nicolson factors are not finite at dt=1e+308\n"),
    ], ids=["valid", "missing-config", "unknown-key", "overflowing-dt"])
    def test_exit_code_and_message(self, tmp_path, args, code, err):
        write_config(tmp_path, BASE)
        out = run_vnlw("-m", "vnlw.cli", *args, "--output", "out", capture_output=True, cwd=tmp_path)
        assert (out.returncode, out.stdout, out.stderr) == (code, "", err)
        assert not (tmp_path / "out").exists()

    def test_run_prints_its_whole_headline(self, tmp_path):
        out = run_vnlw("-m", "vnlw.cli", "spectrum", "--config", write_config(tmp_path, BASE),
                       "--output", str(tmp_path / "out"), "--no-timestamp", capture_output=True)
        assert (out.returncode, out.stderr) == (0, "")
        summary = json.loads((tmp_path / "out" / "spectrum" / "summary.json").read_text())["summary"]
        head, elapsed = out.stdout.rsplit(" elapsed=", 1)
        assert head == f"spectrum k=3 E0={summary['energies'][0]}"
        assert re.fullmatch(r"\d+\.\d{3}s\n", elapsed)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_2(self, tmp_path, unbuffered):
        """A reader that has gone: the summary line cannot be written, but the run is published."""
        cfg = {"schema_version": 1, "grid": {"n_points": 64},
               "scenario": {"name": "product-equivalence"}, "dynamics": {"steps": 10}}
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            out = run_vnlw("-m", "vnlw.cli", "run", "--config", write_config(tmp_path, cfg),
                           "--output", str(tmp_path / "out"), "--no-timestamp",
                           env=env, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (2, "vnlw: cannot write to stdout: [Errno 32] Broken pipe\n")
        assert (tmp_path / "out" / "product-equivalence" / "summary.json").is_file()

    @pytest.mark.parametrize("subcommand, code, err", [
        ("run", 2, "vnlw: cannot write to stdout: stdout is closed\n"),
        ("validate-config", 0, ""),
    ], ids=["run", "validate-config"])
    def test_no_stdout_descriptor(self, tmp_path, subcommand, code, err):
        """Started with file descriptor 1 closed (`vnlw ... >&-`), Python has no sys.stdout.  A run
        cannot print its summary line, so it exits 2 as a closed pipe does, and its directory stays;
        validate-config prints nothing on success and still exits 0."""
        cfg = {"schema_version": 1, "grid": {"n_points": 64},
               "scenario": {"name": "product-equivalence"}, "dynamics": {"steps": 10}}
        out = run_vnlw("-m", "vnlw.cli", subcommand, "--config", write_config(tmp_path, cfg),
                       "--output", str(tmp_path / "out"), "--no-timestamp",
                       stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert (out.returncode, out.stderr) == (code, err)
        assert (tmp_path / "out" / "product-equivalence" / "summary.json").is_file() == (subcommand == "run")

    def test_profiler_keeps_its_table(self, tmp_path):
        """Under cProfile the process tears down normally, so the profile is still printed."""
        out = run_vnlw("-m", "cProfile", "-m", "vnlw.cli", "validate-config",
                       "--config", write_config(tmp_path, BASE), capture_output=True)
        assert (out.returncode, out.stderr) == (0, "")
        assert "function calls" in out.stdout and "Ordered by" in out.stdout


def test_traced_run_binds_every_traced_function(tmp_path):
    """perfbench/trace_child.py wraps its traced functions by name and fails when
    one is renamed, deleted or no longer bound by the module that calls it; a
    small two-slit run shows that here rather than only in the benchmark."""
    cfg = {
        "schema_version": 1,
        "grid": {"n_points": 101},
        "scenario": {"name": "two-slit", "evolve_time": 0.01, "sweep_points": 3},
    }
    spans = tmp_path / "spans.json"
    script = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    argv = ["run", "--config", write_config(tmp_path, cfg), "--output", str(tmp_path / "out")]
    src = str(Path(vnlw.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, str(script), str(spans), str(time.perf_counter()), "--", *argv],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "scenarios.complementarity_sweep" in {span[0] for span in json.loads(spans.read_text())}


# The CLI contract over the whole schema: every key's value drawn from a pool
# of candidates (the float extremes among them) that its own Check accepts.
# Sizes stay small (n_points <= 64, steps <= 100, sweep_points <= 5,
# evolve_time / dt <= 100) or are ones the work budget refuses.
_NUMBERS = [0, 1, 2, 3, 7, 64, 0.0, -0.0, 5e-324, 1e-300, 1e-3, 0.35, 1.0, -1.0, 4.0, -20.0, 20.0,
            2e154, 1e300, -1e300, sys.float_info.max, -sys.float_info.max]
_CANDIDATES = [
    *_NUMBERS, True, False, "wave", "particle", *schema.POTENTIAL_KINDS, *schema.METHODS, *schema.SCENARIOS,
    *schema.STATE_TYPES, *([a, b] for a in (-1e308, -20.0, -8.0, 0.0) for b in (0.0, 0.1, 8.0, 1e308)),
    [1, 0, 0, 0], [0.6, 0, 0, [0, 0.8]], {"a12": 1}, [1e200, 0, 0, 0], [1e-300, 1.0], [1, 1, [0, 1]],
    [sys.float_info.max, sys.float_info.max], [1.0] * 65,
]


@st.composite
def cli_configs(draw):
    """A config of every key drawn from the candidates its Check accepts, or left out.

    The draws lean towards configs that runs accept: x_min below x_max,
    coefficients of the drawn state.type, one potential value per grid
    point; one draw in ten of a size is one the work budget refuses.
    """
    def pick(values, refused=None):
        return refused if refused is not None and draw(st.integers(0, 9)) == 0 else draw(st.sampled_from(values))

    n = pick([8, 9, 33, 64], 2**30)
    sizes = {"n_points": n, "steps": pick([0, 1, 2, 100], schema.MAX_STEPS + 1),
             "sweep_points": pick([0, 1, 2, 5], schema.MAX_ROWS + 1), "k": pick([1, 3, 8, n, n + 1], 100000)}
    state_type = draw(st.sampled_from([None, *schema.STATE_TYPES]))
    config = {"schema_version": 1}
    for entry in schema.TABLE:
        check = entry.check.accepts
        if entry.key == "coefficients" and entry.group == "state" and state_type in ("eigen", "eigen-product"):
            check = schema.AMPLITUDES.accepts
        elif entry.key == "coefficients" and state_type in ("two-slit", None):
            check = schema.TWO_SLIT.accepts
        if entry.key in sizes:
            value = sizes[entry.key]
        elif entry.key == "type":
            value = state_type
        elif entry.key == "values":
            value = draw(st.lists(st.sampled_from(_NUMBERS), min_size=min(n, 64), max_size=min(n, 64)))
        elif entry.key == "evolve_time":
            value = config["dynamics"]["dt"] * pick([0, 1, 3, 100], 1e300)
        elif entry.key == "dt" or draw(st.booleans()):
            value = draw(st.sampled_from([v for v in _CANDIDATES if check(v)]))
        else:
            value = None
        if value is not None:
            config.setdefault(entry.group, {})[entry.key] = value
    grid = config["grid"]
    if "x_min" in grid and "x_max" in grid:
        grid["x_min"], grid["x_max"] = sorted([grid["x_min"], grid["x_max"]])
    return config


def _numbers(value):
    """Every number in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.stat().st_mtime_ns for p in root.rglob("*")}


# Probability totals an exit-0 run must keep.
EVOLVED_NORM_TOL = 1e-10
COLLAPSE_TOTAL_TOL = 1e-10


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(config=cli_configs(), fmt=st.sampled_from(cli.FORMATS))
def test_cli_contract(config, fmt):
    """Exit 0, 3 or 4; validate-config exits 0 iff no subcommand exits 3; outputs are finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path, root = write_config(Path(tmp), config), Path(tmp) / "out"
        root.mkdir()
        named = config.get("scenario", {}).get("name")
        codes = {}
        for sub in [s for s in schema.COMMANDS if s != "run" or named]:
            before = _tree(root)
            codes[sub] = code = main([sub, "--config", path, "--output", str(root), "--no-timestamp", "--format", fmt])
            assert code in (0, 3, 4), sub
            assert not list(root.glob(".vnlw-*")), sub
            if code != 0:
                assert _tree(root) == before, sub
                continue
            run = schema.COMMANDS[sub] or named
            outdir = root / (run if sub == "run" else sub)
            files = {}  # name -> its numbers, row by row
            for f in outdir.iterdir():
                text = f.read_text()
                if f.suffix == ".json":
                    files[f.stem] = _numbers(json.loads(text))
                else:
                    files[f.stem] = [float(v) for line in text.splitlines()[1:] for v in line.replace(",", " ").split()]
                assert all(map(math.isfinite, files[f.stem])), (sub, f.name)
            summary = json.loads((outdir / "summary.json").read_text())["summary"]
            if run == "evolve":  # trajectory.* holds t, norm, x_mean in each row
                norms = np.array(files["trajectory"][1::3])
                assert np.all(np.abs(norms - 1.0) <= EVOLVED_NORM_TOL), (sub, norms)
            if run == "collapse":
                total = summary["total_probability"] + summary["truncation_residual"]
                assert abs(total - 1.0) <= COLLAPSE_TOTAL_TOL, (sub, total)
            if run in ("spectrum", "gap-spectroscopy"):
                c = schema.resolve(config, run)
                grid = scenarios.grid_from_config(c)
                H = scenarios.hamiltonian_from_config(c, grid)
                if run == "spectrum":  # states.* holds x, psi_0, ..., psi_k-1 in each row
                    psi = np.reshape(files["states"], (grid.n_points, -1))[:, 1:]
                    norms = np.sum((psi * np.sqrt(grid.dx)) ** 2, axis=0)
                    assert np.allclose(norms, 1.0, rtol=0, atol=1e-10), (sub, norms)
                E = np.array(summary["energies"])
                eps, j = 1e-9 * np.maximum(1.0, np.abs(E)), np.arange(len(E))
                with np.errstate(over="ignore"):  # E -+ eps of an energy near the float limits is -+inf
                    below, above = E - eps, E + eps
                assert np.all(sturm_count(H, below) <= j) and np.all(j < sturm_count(H, above)), (sub, E)
        valid = main(["validate-config", "--config", path, "--output", str(root)])
        assert (valid == 0) == (3 not in codes.values()), codes
