import csv
import io
import json
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vnlw.bipartite import entanglement_entropy, position_density
from vnlw.dynamics import BipartiteWave
from vnlw.errors import ScenarioError
from vnlw.lattice import build_grid
from vnlw import scenarios
from vnlw.cli import main
from vnlw.scenarios import (
    _BLOCK,
    RUNNERS,
    ScenarioReport,
    fringe_visibility,
    make_slit_modes,
    run_scenario,
    two_slit_state,
    write_report,
)
from oracles import kernel


GRID = build_grid(-20, 20, 401)


@pytest.fixture(scope="module")
def modes():
    return make_slit_modes(GRID)


class TestSlitModes:
    def test_orthonormal(self, modes):
        assert GRID.norm(modes[:, 0]) == pytest.approx(1.0, abs=1e-10)
        assert GRID.norm(modes[:, 1]) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(modes[:, 0], modes[:, 1]) * GRID.dx) < 1e-12

    def test_centered_on_slits(self, modes):
        x = GRID.points
        assert x[np.argmax(np.abs(modes[:, 0]))] == pytest.approx(-2.0, abs=0.2)
        assert x[np.argmax(np.abs(modes[:, 1]))] == pytest.approx(2.0, abs=0.2)


class TestTwoSlitState:
    def test_wave_kernel_form(self, modes):
        Psi = two_slit_state(GRID, modes, "wave")
        plus = modes[:, 0] + modes[:, 1]
        assert np.max(np.abs(kernel(Psi) - 0.5 * np.outer(plus, plus.conj()))) < 1e-12
        assert entanglement_entropy(Psi) == pytest.approx(0.0, abs=1e-12)

    def test_particle_entropy(self, modes):
        Psi = two_slit_state(GRID, modes, "particle")
        assert entanglement_entropy(Psi) == pytest.approx(np.log(2), abs=1e-10)

    def test_single_slit_limit(self, modes):
        Psi = two_slit_state(GRID, modes, [1.0, 0.0, 0.0, 0.0])
        d = position_density(Psi)
        assert np.max(np.abs(d - np.abs(modes[:, 0]) ** 2)) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n_points=st.integers(32, 128),
           parts=st.lists(st.floats(-1, 1), min_size=8, max_size=8).filter(lambda v: np.linalg.norm(v) > 1e-3))
    def test_random_coefficients(self, n_points, parts):
        """Entropy from the coefficients' singular values, density from the dense kernel."""
        g = build_grid(-10, 10, n_points)
        a = np.array(parts).reshape(4, 2) / np.linalg.norm(parts)  # [re, im] pairs of unit norm
        Psi = two_slit_state(g, make_slit_modes(g), a.tolist())
        mu2 = np.linalg.svd((a[:, 0] + 1j * a[:, 1]).reshape(2, 2), compute_uv=False) ** 2
        mu2 = mu2[mu2 > 0.0]
        assert abs(entanglement_entropy(Psi) - float(-np.sum(mu2 * np.log(mu2)))) <= 1e-12
        dense = BipartiteWave.from_kernel(kernel(Psi), g)
        assert np.max(np.abs(position_density(Psi) - position_density(dense))) <= 1e-12

    def test_rejects_unnormalized_coefficients(self, modes):
        with pytest.raises(ScenarioError):
            two_slit_state(GRID, modes, [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ScenarioError):
            two_slit_state(GRID, modes, "abc")

    def test_rejects_modes_not_orthonormal(self, modes):
        with pytest.raises(ScenarioError, match="dx-orthonormal"):
            two_slit_state(GRID, modes * (1 + 1e-5), "wave")
        skewed = modes + 1e-5 * modes[:, ::-1]
        with pytest.raises(ScenarioError, match="dx-orthonormal"):
            two_slit_state(GRID, skewed, "wave")


class TestFringeVisibility:
    def test_constant_density(self):
        assert fringe_visibility(np.ones(50), (0, 50)) == 0.0

    def test_full_contrast_fringes(self):
        x = np.linspace(-5, 5, 400)
        d = (1 + np.cos(6 * x)) * np.exp(-(x**2) / 40)
        assert fringe_visibility(d, (50, 350)) > 0.95

    def test_single_hump(self):
        x = np.linspace(-5, 5, 400)
        assert fringe_visibility(np.exp(-(x**2)), (0, 400)) == 0.0

    def test_empty_window(self):
        with pytest.raises(ScenarioError):
            fringe_visibility(np.ones(50), (10, 12))


class TestRunScenario:
    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError):
            run_scenario({"scenario": {"name": "frobnicate"}})

    @pytest.mark.parametrize("report", [
        ScenarioReport("spectrum", {}, {"k": 1, "energy": float("nan")}),
        ScenarioReport("spectrum", {}, {"k": 1}, records={"r": {"values": [1.0, float("inf")]}}),
    ], ids=["summary", "record"])
    def test_refuses_a_value_that_is_not_finite(self, monkeypatch, report):
        monkeypatch.setitem(RUNNERS, "spectrum", lambda *args: report)
        with pytest.raises(ScenarioError, match="spectrum: a summary or record value is not finite"):
            run_scenario({"schema_version": 1, "grid": {"n_points": 16}}, "spectrum")

    def test_gap_spectroscopy_harmonic(self):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 4, "dedup_tol": 1e-3},
            "scenario": {"name": "gap-spectroscopy"},
        }
        report = run_scenario(cfg)
        dg = report.tables["distinct_gaps"]["lambda"]
        assert np.allclose(dg, [-3, -2, -1, 0, 1, 2, 3], atol=1e-3)
        assert report.summary["distinct_gap_count"] == 7

    def test_collapse_product_state(self):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 2},
            "state": {"type": "eigen-product", "coefficients": [1.0, 1.0]},
            "scenario": {"name": "collapse"},
        }
        report = run_scenario(cfg)
        assert report.summary["p"][0] == pytest.approx(0.5, abs=1e-10)
        assert report.summary["p"][1] == pytest.approx(0.5, abs=1e-10)
        assert report.summary["delta_E"][0] == pytest.approx(0.25, abs=1e-3)

    def test_product_equivalence(self):
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 201},
            "dynamics": {"dt": 1e-3, "steps": 500},
            "scenario": {"name": "product-equivalence", "sigma": 1.0, "momentum": 1.0},
        }
        report = run_scenario(cfg)
        assert report.summary["frobenius_gap"] < 1e-8
        assert report.summary["norm_vnl"] == pytest.approx(1.0, abs=1e-10)

    def test_two_slit_small(self):
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 301},
            "dynamics": {"dt": 2e-3},
            "scenario": {"name": "two-slit", "coefficients": "particle", "evolve_time": 2.0},
        }
        report = run_scenario(cfg)
        assert report.summary["entropy"] == pytest.approx(np.log(2), abs=1e-9)
        assert report.summary["visibility"] < 0.05
        assert "density" in report.tables

    def test_two_slit_reports_the_time_it_reached(self):
        """dt = 0.3 does not divide 0.5: the run takes round(0.5 / 0.3) = 2 steps, to t = 0.6."""
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 101},
            "dynamics": {"dt": 0.3},
            "scenario": {"name": "two-slit", "evolve_time": 0.5},
        }
        assert run_scenario(cfg).summary["evolve_time"] == 2 * 0.3

    def test_determinism(self):
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 201},
            "dynamics": {"dt": 5e-3},
            "scenario": {"name": "two-slit", "coefficients": "wave", "evolve_time": 0.5},
        }
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1.summary == r2.summary
        assert r1.tables.keys() == r2.tables.keys()
        for name, table in r1.tables.items():
            assert list(table) == list(r2.tables[name])
            assert all(np.array_equal(column, r2.tables[name][key]) for key, column in table.items())

    def test_write_report(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 3},
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
            "scenario": {"name": "gap-spectroscopy"},
        }
        report = run_scenario(cfg)
        write_report(report, tmp_path / "out", fmt="csv")
        assert (tmp_path / "out" / "summary.json").exists()
        gaps = (tmp_path / "out" / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "n,m,lambda"
        assert len(gaps) == 10
        write_report(report, tmp_path / "gnu", fmt="gnuplot")
        assert (tmp_path / "gnu" / "gaps.dat").read_text().startswith("# n m lambda")


# Every run at small N; a table-free run (schmidt, entropy) is checked to write no table.
SMALL = {
    "schema_version": 1,
    "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 64},
    "potential": {"kind": "harmonic", "omega": 1.0},
    "spectra": {"k": 3},
    "dynamics": {"dt": 1e-2, "steps": 10, "stride": 5},
    "scenario": {"evolve_time": 0.02, "sweep_points": 3},
}


class TestTableShape:
    @pytest.mark.parametrize("run", list(RUNNERS))
    def test_tables_are_named_columns(self, tmp_path, run):
        """Each table is {name: 1-D array} with columns of one length; every format's header is its keys."""
        report = run_scenario(SMALL, run)
        for name, table in report.tables.items():
            assert table and all(isinstance(column, np.ndarray) and column.ndim == 1 for column in table.values())
            assert len({len(column) for column in table.values()}) == 1, name
        for fmt, suffix in (("csv", "csv"), ("gnuplot", "dat"), ("json", "json")):
            write_report(report, tmp_path / fmt, fmt=fmt)
            written = {p.stem for p in (tmp_path / fmt).glob(f"*.{suffix}")} - {"summary", *report.records}
            assert written == set(report.tables)
            for name, table in report.tables.items():
                text = (tmp_path / fmt / f"{name}.{suffix}").read_text()
                if fmt == "json":
                    doc = json.loads(text)
                    assert doc["columns"] == list(table)
                    assert len(doc["rows"]) == len(next(iter(table.values())))
                else:
                    header = text.splitlines()[0]
                    assert header == (",".join(table) if fmt == "csv" else "# " + " ".join(table))


class TestWriteReportFormats:
    """Every table format against a reference written with csv.writer and format(v, '.17g')."""

    SPECIAL = [0.0, -0.0, 1.0, -3.0, 2.0**52, 1e-300, -2.5e300, 0.1, 1 / 3, 123456789.0, 5e-324,
               float("nan"), float("inf"), float("-inf")]

    @staticmethod
    def cell(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    @classmethod
    def reference(cls, table, fmt):
        names = list(table)
        rows = list(zip(*(column.tolist() for column in table.values())))
        if fmt == "json":
            obj = {"columns": names, "rows": [list(r) for r in rows]}
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"
        if fmt == "gnuplot":
            lines = ["# " + " ".join(names)]
            lines += [" ".join(cls.cell(v) for v in row) for row in rows]
            return "".join(line + "\n" for line in lines)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(names)
        for row in rows:
            writer.writerow([cls.cell(v) for v in row])
        return buf.getvalue()

    @staticmethod
    def long_indexed(rng):
        """An int32 index table over more than two blocks, special values strewn in its floats.

        Its columns are field views of one record array, as in the gap table.
        """
        k = _BLOCK + 5  # rows of 3 cells
        rows = np.empty(k, dtype=[("n", np.int32), ("m", np.int32), ("lambda", float)])
        rows["n"] = rng.integers(-(2**31), 2**31 - 1, k)
        rows["n"][:2] = -(2**31), 2**31 - 1
        rows["m"] = np.arange(k)[::-1]
        rows["lambda"] = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
        rows["lambda"][rng.integers(0, k, 60)] = np.resize(TestWriteReportFormats.SPECIAL, 60)
        return {name: rows[name] for name in rows.dtype.names}

    def test_byte_identical_to_reference(self, tmp_path):
        values = np.array(self.SPECIAL)
        rng = np.random.default_rng(5)
        many = rng.standard_normal((_BLOCK // 2 + 7, 2)) * 1e3  # two blocks of two-cell rows
        k = len(values)
        tables = {
            "listed": {"n": np.arange(k), "value": values},
            "dense": {"a": values, "b": -values, "c": values * 3},
            "indexed": {"n": np.arange(k), "m": np.arange(k)[::-1], "lambda": values},
            "many": {"x": many[:, 0], "y": many[:, 1]},  # more than one block of rows
            "empty": {"a": np.empty(0)},
            "empty_dense": {"a": np.empty(0), "b": np.empty(0)},
            "indexed32": self.long_indexed(rng),
            # a block holds fewer rows of a wide table
            "wide": dict(zip([f"psi_{j}" for j in range(40)], rng.standard_normal((1000, 40)).T)),
        }
        report = ScenarioReport("t", {"schema_version": 1}, {"x": 1.0}, tables)
        for fmt, suffix in (("csv", "csv"), ("gnuplot", "dat"), ("json", "json")):
            write_report(report, tmp_path / fmt, fmt=fmt)
            for name, table in tables.items():
                written = (tmp_path / fmt / f"{name}.{suffix}").read_bytes()
                assert written == self.reference(table, fmt).encode(), (fmt, name)

    def test_cli_gaps_match_reference(self, tmp_path):
        """`vnlw gaps` at k = 40 writes each table as the reference writes the report's rows."""
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 301},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 40, "dedup_tol": 1e-9},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        report = run_scenario({**cfg, "scenario": {"name": "gap-spectroscopy"}})
        for fmt, suffix in (("csv", "csv"), ("gnuplot", "dat"), ("json", "json")):
            out = tmp_path / fmt
            assert main(["gaps", "--config", str(path), "--output", str(out), "--format", fmt,
                         "--no-timestamp"]) == 0
            for name, table in report.tables.items():
                written = (out / "gaps" / f"{name}.{suffix}").read_bytes()
                assert written == self.reference(table, fmt).encode(), (fmt, name)

    # Values a drawn table strews among its random ones: the extremes of each
    # int type, and floats at the ends of the range and beyond it.
    EXTREMES = {
        np.int32: [0, -1, 1, -(2**31), 2**31 - 1],
        np.int64: [0, -1, 1, -(2**63), 2**63 - 1, -(2**53) - 1, 2**53 + 1],
        np.float64: [*SPECIAL, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 9.999999999999999e-5],
    }

    @staticmethod
    @st.composite
    def drawn_tables(draw):
        """One or two tables of 1-40 columns of mixed kinds, with row counts about a block boundary.

        A column is random over its type's range (floats over every
        exponent), from a small pool (repeated values), or, for ints,
        consecutive; extremes are strewn over it.
        """
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tables = {}
        for name in range(draw(st.integers(1, 2))):
            kinds = draw(st.lists(st.sampled_from(list(TestWriteReportFormats.EXTREMES)), min_size=1, max_size=40))
            block = max(1, _BLOCK // len(kinds))  # rows laid out per step
            n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 3]))
            table = {}
            for j, kind in enumerate(kinds):
                shape = draw(st.sampled_from(["wide", "pool", "consecutive"]))
                if kind is np.float64:
                    column = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 300, n)
                    if shape != "wide":
                        column = rng.choice(np.append(column[:5], 0.5), n)
                else:
                    info = np.iinfo(kind)
                    column = {"wide": rng.integers(info.min, info.max, n, dtype=kind, endpoint=True),
                              "pool": rng.integers(-3, 4, n).astype(kind),
                              "consecutive": np.arange(n, dtype=kind) + kind(rng.integers(-2 * n, n + 1))}[shape]
                extremes = draw(st.lists(st.sampled_from(TestWriteReportFormats.EXTREMES[kind]), max_size=8))
                if n and shape != "consecutive":
                    column[rng.integers(0, n, len(extremes))] = extremes
                table[f"c{j}"] = column
            tables[f"t{name}"] = table
        return tables

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(tables=drawn_tables())
    def test_drawn_tables_match_reference(self, tables):
        report = ScenarioReport("t", {"schema_version": 1}, {}, tables)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt, suffix in (("csv", "csv"), ("gnuplot", "dat"), ("json", "json")):
                write_report(report, Path(tmp) / fmt, fmt=fmt)
                for name, table in tables.items():
                    written = (Path(tmp) / fmt / f"{name}.{suffix}").read_bytes()
                    assert written == self.reference(table, fmt).encode(), (fmt, name)

    # Peak of write_report's own allocations over the bytes of the report's
    # table arrays, for a gap report of 409600 rows in json and in csv, whose
    # floats `_digits.magnitude_strings` formats a block at a time.  Measured:
    # 0.92 in json and 0.94 in csv on one CPU, most of it the sorted
    # magnitudes; 1.08 and 0.96 with one helper thread laying out blocks, and
    # at most that on more CPUs, whose helpers share one block's rows.  A
    # full-length index of every cell into the distinct strings would add 0.67.
    WRITE_PEAK_SLACK = 1.25

    def test_write_memory_bounded(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "spectra": {"k": 640, "dedup_tol": 1e-9},
            "scenario": {"name": "gap-spectroscopy"},
        }
        report = run_scenario(cfg)
        held = sum(column.nbytes for table in report.tables.values() for column in table.values())
        assert len(report.tables["gaps"]["lambda"]) >= 4 * 10**5
        for fmt in ("json", "csv"):
            tracemalloc.start()
            try:
                write_report(report, tmp_path / fmt, fmt=fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= self.WRITE_PEAK_SLACK * held, (fmt, peak / held)


class TestThreadedWriter:
    """The blocks of a table are laid out on every CPU the process may use, and written in order."""

    @staticmethod
    def helpers(monkeypatch, cpus: int) -> list:
        """Make the writer see cpus CPUs; the returned list collects every thread it starts."""
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(scenarios, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", Recorded)
        return started

    @staticmethod
    def many_blocks() -> dict:
        """Three-cell rows over twelve blocks and a part: int64 and int32 extremes, -0.0, NaN and inf."""
        rng = np.random.default_rng(17)
        count = 4 * _BLOCK + 3
        n = rng.integers(-(2**63), 2**63 - 1, count, dtype=np.int64, endpoint=True)
        n[rng.integers(0, count, 7)] = TestWriteReportFormats.EXTREMES[np.int64]
        m = np.arange(count, dtype=np.int32)[::-1].copy()
        m[rng.integers(0, count, 5)] = TestWriteReportFormats.EXTREMES[np.int32]
        lam = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        specials = TestWriteReportFormats.EXTREMES[np.float64]
        lam[rng.integers(0, count, 3 * len(specials))] = np.resize(specials, 3 * len(specials))
        return {"n": n, "m": m, "lambda": lam}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bytes_on_any_worker_count(self, tmp_path, monkeypatch, workers):
        table = self.many_blocks()
        started = self.helpers(monkeypatch, workers)
        report = ScenarioReport("t", {"schema_version": 1}, {}, {"many": table})
        for fmt, suffix in (("csv", "csv"), ("gnuplot", "dat"), ("json", "json")):
            write_report(report, tmp_path / fmt, fmt=fmt)
            written = (tmp_path / fmt / f"many.{suffix}").read_bytes()
            assert written == TestWriteReportFormats.reference(table, fmt).encode(), fmt
        assert len(started) == 3 * (workers - 1)
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("raiser", ["helper", "main"])
    def test_an_exception_in_a_block_is_raised(self, tmp_path, monkeypatch, raiser):
        """A block that raises, on a helper or on the main thread, fails the write and leaves no thread."""
        baseline = threading.active_count()
        lookup, calls, lock = scenarios._lookup, [], threading.Lock()

        def failing(values, mags):
            on_main = threading.current_thread() is threading.main_thread()
            with lock:
                if on_main == (raiser == "main"):
                    calls.append(1)
                    if len(calls) == 3:
                        raise RuntimeError("block failed")
            return lookup(values, mags)

        started = self.helpers(monkeypatch, 3)
        monkeypatch.setattr(scenarios, "_lookup", failing)
        report = ScenarioReport("t", {"schema_version": 1}, {}, {"many": self.many_blocks()})
        with pytest.raises(RuntimeError, match="block failed"):
            write_report(report, tmp_path / "out", fmt="csv")
        assert len(started) == 2
        assert threading.active_count() == baseline

    def test_one_block_tables_start_no_thread(self, tmp_path, monkeypatch):
        """A two-slit run at its defaults writes tables of one block each, on the main thread alone."""
        report = run_scenario({"schema_version": 1, "scenario": {"name": "two-slit"}})
        started = self.helpers(monkeypatch, 4)
        write_report(report, tmp_path / "out")
        assert report.tables and started == []

    @pytest.mark.parametrize("cpus", [1, 3, 8])
    def test_write_memory_bounded_on_any_cpu_count(self, tmp_path, monkeypatch, cpus):
        """The helpers' blocks share one block's rows, so the write peak does not grow with the CPU count."""
        monkeypatch.setattr(scenarios, "_cpu_count", lambda: cpus)
        TestWriteReportFormats().test_write_memory_bounded(tmp_path)
