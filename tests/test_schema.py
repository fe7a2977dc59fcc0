import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnlw
from vnlw import schema
from vnlw.errors import ConfigError

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = {*schema.POTENTIAL_KINDS, *schema.METHODS, *schema.SCENARIOS, *schema.STATE_TYPES}


def _unit_norm(values):
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values]


FOUR = st.lists(st.floats(0.1, 10), min_size=4, max_size=4).map(_unit_norm)
AMPLITUDE = st.floats(-1e6, 1e6) | st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2)
VALID = {
    schema.FLAG: st.booleans(),
    schema.WINDOW: st.tuples(FINITE, FINITE).filter(lambda w: w[0] != w[1]).map(sorted),
    schema.VALUES: st.lists(FINITE, min_size=1, max_size=20),
    schema.AMPLITUDES: st.lists(AMPLITUDE, min_size=0, max_size=20).map(lambda a: a + [1.0]),
    schema.TWO_SLIT: (
        st.sampled_from(["wave", "particle"])
        | FOUR
        | FOUR.map(lambda a: dict(zip(("a11", "a12", "a21", "a22"), a)))
    ),
}
VALID[schema.COEFFICIENTS] = VALID[schema.AMPLITUDES] | VALID[schema.TWO_SLIT]
# Values of the right JSON type that each check must refuse.
OUT_OF_RANGE = {
    schema.FLAG: [0, 1],
    schema.WINDOW: [[1, -1], [1, 1], [0], [0, 1, 2]],
    schema.VALUES: [[], [1, "a"]],
    schema.AMPLITUDES: [[], [0, [0, 0]], [[1, 2, 3]]],
    schema.TWO_SLIT: [[0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 0], {"a11": 1, "b": 0}],
    schema.COEFFICIENTS: [[], [0, 0], {"a11": 2}],
}


def documented_number(check):
    """(integer, minimum, strict) of a number check, read from its documented type."""
    m = re.fullmatch(r"(int|finite number)(?: (>=?) (\d+))?", check.doc)
    if m is None:
        return None
    return m[1] == "int", None if m[3] is None else int(m[3]), m[2] == ">"


def valid(check):
    """Values the check must accept, built from its documented type."""
    if documented_number(check):
        integer, minimum, strict = documented_number(check)
        lo = -10**6 if minimum is None else minimum
        if integer:
            return st.integers(lo + strict, lo + 10**6)
        return st.floats(lo, 1e300, exclude_min=strict) | st.integers(lo + 1, 10**6)
    if check.doc.startswith("one of "):
        return st.sampled_from(check.doc[len("one of "):].split(", "))
    return VALID[check]


def out_of_range(check) -> list:
    if documented_number(check):
        integer, minimum, strict = documented_number(check)
        if minimum is None:
            return [1.5] if integer else []
        return [minimum if strict else minimum - 1, 10**400]
    return OUT_OF_RANGE.get(check, [])


def invalid(check):
    """A string, boolean, NaN, infinity, null or out-of-range value for the check."""
    values = [float("nan"), float("inf"), -float("inf"), None, *out_of_range(check)]
    if check is not schema.FLAG:
        values += [True, False]
    strings = st.text().filter(lambda s: s not in NAMES and s not in ("wave", "particle"))
    return st.sampled_from(values) | strings


def config_with(entry, value) -> dict:
    return {"schema_version": 1, entry.group: {entry.key: value}}


@pytest.mark.parametrize("entry", schema.TABLE, ids=lambda e: f"{e.group}.{e.key}")
class TestTable:
    @PROPERTY
    @given(data=st.data())
    def test_valid_values_pass(self, entry, data):
        schema.validate_config(config_with(entry, data.draw(valid(entry.check))))

    @PROPERTY
    @given(data=st.data())
    def test_invalid_values_name_the_key(self, entry, data):
        value = data.draw(invalid(entry.check))
        with pytest.raises(ConfigError, match=f"^{entry.group}\\.{entry.key}: "):
            schema.validate_config(config_with(entry, value))

    def test_default_passes_its_check(self, entry):
        for run in (None, *schema.SCENARIOS, "spectrum", "evolve", "schmidt", "entropy"):
            value = getattr(getattr(schema.resolve({"schema_version": 1}, run), entry.group), entry.key)
            assert value is None or entry.check.accepts(value)


def _sized(kind, method, sizes) -> dict:
    """A config of state.type kind (None: the default) and dynamics.method, with sizes {"group.key": value}.

    An eigen state gets state.coefficients of that many amplitudes (1 by default).
    """
    config = {"dynamics": {"method": method}}
    if kind is not None:
        config["state"] = {"type": kind}
        if kind.startswith("eigen"):
            config["state"]["coefficients"] = [1] * sizes.get("state.coefficients", 1)
    for path, value in sizes.items():
        group, key = path.split(".")
        if path != "state.coefficients":
            config.setdefault(group, {})[key] = value
    return config


def _limits() -> list:
    """(config at a limit of the budget, config one over it, run, the key over it).

    Every size the budget implies (docs/config-schema.md), for every run x
    state type x method that the size bounds.
    """
    cn, eb = schema.METHODS
    bipartite = ("gaussian-product", "eigen-product", "two-slit")
    dense = [(run, "random", m) for run in ("evolve", "schmidt", "entropy", "collapse") for m in schema.METHODS]
    dense += [("evolve", kind, eb) for kind in schema.STATE_TYPES if kind != "random"]
    dense += [("two-slit", None, eb), ("product-equivalence", None, eb)]
    one_column = [("evolve", kind, cn) for kind in ("gaussian-product", "eigen-product", "gaussian", "eigen")]
    eigenvectors = [(run, kind, m) for run, kind in [("spectrum", None)] + [("collapse", kind) for kind in bipartite]
                    for m in schema.METHODS]
    eigen_states = [("evolve", kind, cn) for kind in ("eigen-product", "eigen")]
    eigen_states += [(run, "eigen-product", m) for run in ("collapse", "schmidt", "entropy") for m in schema.METHODS]
    sizes = [  # runs, the key, its largest value, the other sizes
        (dense, "grid.n_points", 4096, {}),  # 16 N^2 <= 2^28
        (one_column + [("product-equivalence", None, cn)], "grid.n_points", 1290555, {}),  # 16 N (10 + 3 r), r = 1
        ([("evolve", "two-slit", cn), ("two-slit", None, cn)], "grid.n_points", 2**20, {}),  # r = 2
        ([("gap-spectroscopy", None, m) for m in schema.METHODS], "spectra.k", 3344,  # 24 k^2 <= 2^28
         {"grid.n_points": 3345}),
        (eigenvectors, "spectra.k", 2**10, {"grid.n_points": 2**15}),  # 8 N k <= 2^28
        (eigen_states, "state.coefficients", 2**10, {"grid.n_points": 2**15}),  # 8 N m <= 2^28
    ]
    return [(_sized(kind, method, {**other, key: largest}), _sized(kind, method, {**other, key: largest + 1}),
             run, key) for cases, key, largest, other in sizes for run, kind, method in cases]


LIMITS = _limits()


def _peak_over_charge(run, kind, method, n, coefficients) -> float:
    """Peak of run_scenario's own allocations over the budget's charge, at N = n and, for an eigen state, that many
    coefficients (spectra.k = N for spectrum and gaps, N / 4 for collapse)."""
    import tracemalloc

    from vnlw.scenarios import run_scenario

    def config(n, m):
        k = {"spectrum": n, "gap-spectroscopy": n, "collapse": n // 4}.get(run, 4)
        sizes = {"grid.n_points": n, "spectra.k": k, "dynamics.steps": 4, "dynamics.stride": 1,
                 "scenario.evolve_time": 0.004, "state.coefficients": m}
        return {"schema_version": 1, **_sized(kind, method, sizes)}

    c = schema.resolve(config(n, coefficients), run)
    charge = schema._charge(run, {group: vars(getattr(c, group)) for group in schema.GROUPS})[0]
    run_scenario(config(64, 4), run)  # the modules and routines a run loads on first use are not its arrays
    tracemalloc.start()
    try:
        run_scenario(config(n, coefficients), run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / charge


class TestResolve:
    @pytest.mark.parametrize("run, grid, k", [
        ("two-slit", (-20.0, 20.0, 801), 4),
        ("gap-spectroscopy", (-10.0, 10.0, 2001), 4),
        ("product-equivalence", (-20.0, 20.0, 401), 4),
        ("collapse", (-10.0, 10.0, 401), 8),
        ("spectrum", (-10.0, 10.0, 401), 4),
        (None, (-10.0, 10.0, 401), 4),
    ])
    def test_per_run_defaults(self, run, grid, k):
        c = schema.resolve({"schema_version": 1}, run)
        assert (c.grid.x_min, c.grid.x_max, c.grid.n_points) == grid
        assert c.spectra.k == k

    def test_defaults_that_depend_on_keys(self):
        c = schema.resolve({"schema_version": 1, "dynamics": {"steps": 1234}}, "evolve")
        assert (c.dynamics.stride, c.state.type, c.state.sigma) == (12, "gaussian", 1.0)
        c = schema.resolve({"schema_version": 1, "dynamics": {"steps": 50}, "state": {"type": "two-slit"}})
        assert (c.dynamics.stride, c.state.sigma, c.state.coefficients) == (1, 0.35, "wave")
        assert c.state.type == "two-slit" and c.run is None
        c = schema.resolve({"schema_version": 1, "scenario": {"name": "two-slit"}})
        assert (c.run, c.scenario.sigma) == ("two-slit", 0.35)
        assert schema.resolve({"schema_version": 1}, "product-equivalence").scenario.sigma == 1.0

    def test_given_values_kept_as_given(self):
        config = {"schema_version": 1, "dynamics": {"dt": 1, "stride": 3}, "grid": {"n_points": 64}}
        c = schema.resolve(config, "evolve")
        assert (c.dynamics.dt, c.dynamics.stride, c.grid.n_points) == (1, 3, 64)
        assert type(c.dynamics.dt) is int
        assert c.given is config

    @pytest.mark.parametrize("config, run, key", [
        ({"grid": {"x_min": 30}}, None, "grid.x_max"),
        ({"grid": {"n_points": 5000}, "state": {"type": "random"}}, "entropy", "grid.n_points"),
        ({"grid": {"n_points": 5000}, "dynamics": {"method": "eigenbasis"}}, "evolve", "grid.n_points"),
        ({"spectra": {"k": 4000}}, "gap-spectroscopy", "spectra.k"),
        ({"spectra": {"k": 10**5}, "grid": {"n_points": 10**5}}, "spectrum", "spectra.k"),
        ({"dynamics": {"steps": 10**7 + 1}}, None, "dynamics.steps"),
        ({"dynamics": {"steps": 10**7, "stride": 2}}, "evolve", "dynamics.stride"),
        ({"scenario": {"evolve_time": 1e5}, "dynamics": {"dt": 1e-3}}, "two-slit", "scenario.evolve_time"),
        ({"state": {"type": "eigen"}}, "evolve", "state.coefficients"),
        ({"state": {"type": "eigen", "coefficients": "wave"}}, "evolve", "state.coefficients"),
        ({"state": {"type": "two-slit", "coefficients": [1, 2]}}, "entropy", "state.coefficients"),
        ({"state": {"type": "gaussian"}}, "collapse", "state.type"),
        ({"scenario": {"sweep_points": 10**6 + 1}}, "two-slit", "scenario.sweep_points"),
        ({"scenario": {"window": [100, 200]}}, "two-slit", "scenario.window"),
        ({"grid": {"n_points": 5000}, "dynamics": {"method": "eigenbasis"}}, "two-slit", "grid.n_points"),
        ({"grid": {"n_points": 2**23 + 1}}, "two-slit", "grid.n_points"),
        ({"grid": {"n_points": 32}, "spectra": {"k": 33}}, "spectrum", "spectra.k"),
        ({"grid": {"n_points": 32}, "spectra": {"k": 40}}, "gap-spectroscopy", "spectra.k"),
        ({"grid": {"n_points": 32}, "spectra": {"k": 40}}, "collapse", "spectra.k"),
        ({"grid": {"x_min": 0, "x_max": 5e-324, "n_points": 32}}, None, "grid.x_min"),
        ({"grid": {"x_min": 0, "x_max": 1e-160}}, "evolve", "grid.x_min"),
        ({"constants": {"mass": 1e-320}}, "gap-spectroscopy", "grid.x_min"),
        ({"grid": {"n_points": 2 * 10**6}}, "product-equivalence", "grid.n_points"),
        ({"grid": {"n_points": 2 * 10**6}, "state": {"type": "gaussian"}}, "evolve", "grid.n_points"),
        ({"grid": {"n_points": 2 * 10**6}, "state": {"type": "eigen-product", "coefficients": [1]}}, "evolve",
         "grid.n_points"),
        *[(over, run, key) for _, over, run, key in LIMITS],
    ])
    def test_rules_and_budget(self, config, run, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            schema.resolve({"schema_version": 1, **config}, run)

    def test_budget_admits_the_largest_allowed_sizes(self):
        schema.resolve({"schema_version": 1, "grid": {"n_points": 4096}}, "entropy")
        schema.resolve({"schema_version": 1, "spectra": {"k": 3344}, "grid": {"n_points": 3344}}, "gap-spectroscopy")
        schema.resolve({"schema_version": 1, "spectra": {"k": 32}, "grid": {"n_points": 32}}, "spectrum")
        schema.resolve({"schema_version": 1, "dynamics": {"steps": 10**7}}, "product-equivalence")
        schema.resolve({"schema_version": 1, "grid": {"n_points": 10**6}, "state": {"type": "gaussian"}},
                       "evolve")
        schema.resolve({"schema_version": 1, "scenario": {"sweep_points": 10**6}}, "two-slit")
        schema.resolve({"schema_version": 1, "grid": {"n_points": 4096}, "dynamics": {"method": "eigenbasis"}},
                       "two-slit")
        schema.resolve({"schema_version": 1, "grid": {"n_points": 10**6}}, "two-slit")  # no N x N array
        # Crank-Nicolson steps a product's N x 1 factor: no N x N array either
        schema.resolve({"schema_version": 1, "grid": {"n_points": 10**6}}, "product-equivalence")
        schema.resolve({"schema_version": 1, "grid": {"n_points": 10**6}, "state": {"type": "gaussian-product"}},
                       "evolve")
        for at, _, run, _ in LIMITS:
            schema.resolve({"schema_version": 1, **at}, run)

    @pytest.mark.parametrize("kind", schema.STATE_TYPES)
    def test_columns_are_those_of_the_state_built(self, kind):
        """The budget's column count r is the rank of the factor each run propagates or analyses."""
        from vnlw.bipartite import from_product
        from vnlw.dynamics import WaveFunction, gaussian_packet
        from vnlw.scenarios import build_state, grid_from_config, hamiltonian_from_config, make_slit_modes

        n = 64
        c = schema.resolve({"schema_version": 1, "grid": {"n_points": n}, **_sized(kind, "crank-nicolson", {})},
                           "evolve")
        grid = grid_from_config(c)
        state = build_state(c, grid, hamiltonian_from_config(c, grid))
        r = 1 if isinstance(state, WaveFunction) else state.core.shape[0]
        assert isinstance(state, WaveFunction) or state.core.shape == (r, r)
        runs = ("evolve",) if kind in schema.ONE_PARTITE else ("evolve", "schmidt", "entropy", "collapse")
        assert [schema._columns(run, kind, n) for run in runs] == [r] * len(runs)
        assert schema._columns("two-slit", kind, n) == make_slit_modes(grid).shape[1]
        packet = gaussian_packet(grid, 0.0, 1.0)
        assert schema._columns("product-equivalence", kind, n) == from_product(packet, packet).left.shape[1]

    # Peak of run_scenario's own allocations over its charge, the largest array the budget counts, for
    # every run x state type x method at N = 512, spectra.k = N (N / 4 for collapse): the factors the
    # budget does not see.  Measured, the larger of the two methods: 1.02 for an eigenbasis run, 1.08
    # for evolve of a two-slit state, 2.02 spectrum, 1.38 gaps, 3.51 / 2.13 / 2.00 / 3.00 for evolve /
    # collapse / schmidt / entropy of a random kernel (4.01 / 2.63 / 2.50 / 3.50 with the N x N identity
    # factor and the kernel summed from two normal draws), 2.19 for collapse of a factored state.  schmidt
    # and entropy of a factored state, 4.77 to 6.15, hold the grid, H and the packet's temporaries
    # beside the one N-vector or N x 2 factor they are charged.
    PEAK_CEILINGS = {  # (run, state.type, or None for a run without a state) -> peak / charge
        ("two-slit", None): 1.05, ("product-equivalence", None): 1.05,
        ("spectrum", None): 2.1, ("gap-spectroscopy", None): 1.45,
        ("evolve", "gaussian-product"): 1.05, ("evolve", "eigen-product"): 1.05, ("evolve", "two-slit"): 1.1,
        ("evolve", "random"): 3.55, ("evolve", "gaussian"): 1.05, ("evolve", "eigen"): 1.05,
        ("collapse", "gaussian-product"): 2.25, ("collapse", "eigen-product"): 2.25,
        ("collapse", "two-slit"): 2.25, ("collapse", "random"): 2.15,
        ("schmidt", "gaussian-product"): 5.65, ("schmidt", "eigen-product"): 6.25,
        ("schmidt", "two-slit"): 4.95, ("schmidt", "random"): 2.05,
        ("entropy", "gaussian-product"): 5.65, ("entropy", "eigen-product"): 6.25,
        ("entropy", "two-slit"): 4.95, ("entropy", "random"): 3.05,
    }
    # Crank-Nicolson runs at N = 10^5 over their charge 16 N (10 + 3 r).  Measured: 0.70 (two-slit) to
    # 1.02 (evolve of a two-slit state).
    STEPPED_PEAK_SLACK = 1.05

    @pytest.mark.parametrize("run, kind, method, n", [
        *[(run, kind, method, 512) for run, kind in PEAK_CEILINGS for method in schema.METHODS],
        *[(run, kind, "crank-nicolson", 10**5) for run, kind in [
            ("evolve", "gaussian"), ("evolve", "gaussian-product"), ("evolve", "two-slit"),
            ("product-equivalence", None), ("two-slit", None)]],
    ])
    def test_run_peak_within_its_charge(self, run, kind, method, n):
        """Each run's peak is within a stated factor of the one array the budget charges it, either way."""
        ratio = _peak_over_charge(run, kind, method, n, 4)
        ceiling = self.STEPPED_PEAK_SLACK if n == 10**5 else self.PEAK_CEILINGS[run, kind]
        assert 0.5 <= ratio <= ceiling, ratio

    # Eigen states of m = N and N / 4 coefficients at N = 512, where the N x m eigenvectors, 8 N m bytes, are
    # the charge of every run but an eigenbasis evolve, charged H's N eigenvectors.  Measured: 2.03-2.18, and
    # 1.02 for the eigenbasis evolve (3.02-3.05 and, at m = N, 1.51 when the eigenvectors were cast to complex).
    @pytest.mark.parametrize("run, kind, method, m", [
        (run, kind, method, m) for run, kind in [("evolve", "eigen-product"), ("evolve", "eigen"),
                                                 ("collapse", "eigen-product"), ("schmidt", "eigen-product"),
                                                 ("entropy", "eigen-product")]
        for method in schema.METHODS for m in (512, 128)])
    def test_eigen_state_peak_within_its_charge(self, run, kind, method, m):
        ratio = _peak_over_charge(run, kind, method, 512, m)
        assert 0.5 <= ratio <= (1.05 if (run, method) == ("evolve", "eigenbasis") else 2.25), ratio

    # (admitted, refused, run, key): each pair straddles a bound on a count the run itself takes, the rows of
    # its trajectory (`schema.sampled_steps`) or the rounded steps of a two-slit run (`schema.two_slit_steps`).
    COUNT_PAIRS = [
        *[({"dynamics": {"steps": steps, "stride": stride}}, {"dynamics": {"steps": steps + 1, "stride": stride}},
           "evolve", "dynamics.stride") for steps, stride in [(999_999, 1), (1_999_998, 2), (2_999_997, 3)]],
        *[({"scenario": {"evolve_time": time}, "dynamics": {"dt": dt}},
           {"scenario": {"evolve_time": time + 2 * dt / 10}, "dynamics": {"dt": dt}},  # rounds to 10^7 + 1
           "two-slit", "scenario.evolve_time") for time, dt in [(10000.0004, 1e-3), (10000000.4, 1)]],
    ]

    @pytest.mark.parametrize("admitted, refused, run, key", COUNT_PAIRS)
    def test_budget_counts_what_the_run_takes(self, admitted, refused, run, key):
        schema.resolve({"schema_version": 1, **admitted}, run)
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            schema.resolve({"schema_version": 1, **refused}, run)

    def test_counts_are_those_the_run_takes(self):
        """A trajectory has the rows the budget counts, a stride past the float range included; a two-slit run
        takes the steps it is charged; and a step quotient past the float range is refused, not an error."""
        from vnlw.scenarios import run_scenario

        rows = []
        for steps, stride in [(5, 2), (6, 2), (5, 10**30), (0, 1)]:
            config = {"schema_version": 1, "grid": {"n_points": 16}, "dynamics": {"steps": steps, "stride": stride}}
            rows.append(len(run_scenario(config, "evolve").tables["trajectory"]["t"]))
            assert rows[-1] == len(schema.sampled_steps(steps, stride)) + 1
        assert rows == [4, 4, 2, 1]
        config = {"schema_version": 1, "scenario": {"name": "two-slit", "evolve_time": 0.0104}}
        summary = run_scenario(config).summary
        assert summary["evolve_time"] == schema.two_slit_steps(0.0104, 1e-3) * 1e-3 == 10 * 1e-3
        with pytest.raises(ConfigError, match=r"scenario\.evolve_time: inf time steps"):
            schema.resolve({"schema_version": 1, "scenario": {"evolve_time": 1e308}, "dynamics": {"dt": 1e-10}},
                           "two-slit")

    @pytest.mark.parametrize("box", [False, True])
    def test_window_edges_on_grid_points(self, box):
        """Window edges at a grid point, or one ulp either side of it, count as numpy's searchsorted does."""
        import numpy as np
        from vnlw.scenarios import grid_from_config

        grid = {"x_min": -15.0, "x_max": 15.0, "n_points": 401, "box": box}
        x = grid_from_config(schema.resolve({"schema_version": 1, "grid": grid}, "spectrum")).points
        for i, j in [(0, 400), (3, 17), (107, 294), (200, 203)]:
            for lo in (np.nextafter(x[i], -np.inf), x[i], np.nextafter(x[i], np.inf)):
                for hi in (np.nextafter(x[j], -np.inf), x[j], np.nextafter(x[j], np.inf)):
                    expected = np.searchsorted(x, lo, side="left"), np.searchsorted(x, hi, side="right")
                    assert schema.window_indices(grid, [float(lo), float(hi)]) == expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        x_min=st.floats(-30, 30), width=st.floats(0.5, 60), n_points=st.integers(8, 300), box=st.booleans(),
        lo=st.floats(-40, 40), span=st.floats(1e-3, 3),
    )
    def test_window_counts_the_points_of_the_grid(self, x_min, width, n_points, box, lo, span):
        """A window is refused exactly when the runner's grid has fewer than 3 points in it."""
        import numpy as np
        from vnlw.scenarios import grid_from_config

        grid = {"x_min": x_min, "x_max": x_min + width, "n_points": n_points, "box": box}
        window = [lo, lo + span]
        x = grid_from_config(schema.resolve({"schema_version": 1, "grid": grid}, "spectrum")).points
        i, j = np.searchsorted(x, window[0], side="left"), np.searchsorted(x, window[1], side="right")
        assert schema.window_indices(grid, window) == (i, j)
        config = {"schema_version": 1, "grid": grid, "scenario": {"name": "two-slit", "window": window}}
        if j - i < 3:
            with pytest.raises(ConfigError, match=r"scenario\.window"):
                schema.resolve(config)
        else:
            schema.resolve(config)


@pytest.mark.parametrize("args, code", [
    (["validate-config"], 0),
    (["gaps", "--set", "grid.x_min=abc"], 3),
    (["collapse", "--set", "grid.n_points=100000000"], 3),
    (["run"], 3),
    (["spectrum"], 2),  # the config file is missing
])
def test_front_end_loads_no_numerics(tmp_path, args, code):
    cfg = tmp_path / "cfg.json"
    if code != 2:
        cfg.write_text(json.dumps({"schema_version": 1, "grid": {"n_points": 64}}))
    script = (
        "import sys\n"
        "from vnlw.cli import main\n"
        f"code = main({args!r} + ['--config', {str(cfg)!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    src = str(Path(vnlw.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.split("\n")[0] == f"{code} []", out.stderr


@pytest.mark.parametrize("args", [
    ["run", "--set", "scenario.name=two-slit"],
    ["evolve", "--set", "state.type=gaussian"],
])
def test_crank_nicolson_loads_no_sparse(tmp_path, args):
    """Crank-Nicolson steps H's tridiagonals with LAPACK, so scipy.sparse is never imported."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "grid": {"n_points": 101},
                               "dynamics": {"method": "crank-nicolson"}}))
    script = (
        "import sys\n"
        "from vnlw.cli import main\n"
        f"code = main({args!r} + ['--config', {str(cfg)!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy.sparse' in sys.modules)\n"
    )
    src = str(Path(vnlw.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.split("\n")[-2] == "0 False", out.stderr


@pytest.mark.parametrize("args, config", [
    (["run"], {"dynamics": {"method": "crank-nicolson"}, "scenario": {"name": "two-slit", "sweep_points": 3}}),
    (["run"], {"dynamics": {"steps": 20}, "scenario": {"name": "product-equivalence"}}),
    (["evolve"], {"dynamics": {"method": "eigenbasis", "steps": 20}, "state": {"type": "random", "seed": 1}}),
    (["gaps"], {"spectra": {"k": 50}}),
], ids=["two-slit", "product-equivalence", "evolve-random", "gaps"])
def test_numeric_runs_load_no_scipy_package(tmp_path, args, config):
    """The LAPACK and BLAS routines come from scipy's extension modules, loaded by file,
    so no run imports the scipy package or scipy.linalg.  Nor does any load numpy.ma
    (which np.unique imports, 10-20 ms), fractions or decimal: each cost the short runs
    a share of their time.  The BLAS module (_fblas) loads only for zherk, which only
    evolve-random's reduced-operator trajectory and the entropy run's reduced route call."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "grid": {"n_points": 101}, **config}))
    script = (
        "import sys\n"
        "from vnlw.cli import main\n"
        f"code = main({args!r} + ['--config', {str(cfg)!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in ('scipy', 'scipy.linalg', 'numpy.ma', 'fractions', 'decimal')"
        " if m in sys.modules), 'scipy.linalg._fblas' in sys.modules)\n"
    )
    src = str(Path(vnlw.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.split("\n")[-2] == f"0 [] {args == ['evolve']}", out.stdout + out.stderr


def test_validate_path_loads_no_dataclasses(tmp_path):
    """Every invocation validates its config before numpy loads.  dataclasses, with the
    inspect, ast and dis it imports, and datetime cost that path 6-11 ms; modules the
    interpreter had loaded before vnlw do not count."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "scenario": {"name": "two-slit"}}))
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from vnlw import cli\n"
        f"code = cli.main(['validate-config', '--config', {str(cfg)!r}])\n"
        "print(code, sorted({'dataclasses', 'inspect', 'datetime'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(vnlw.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout == "0 []\n", out.stdout + out.stderr


# The public names of the package before its names were resolved on first access.
EXPORTS = {
    "lattice": ["Grid1D", "HamiltonianMatrix", "build_grid", "box_grid",
                "build_hamiltonian", "sample_potential"],
    "spectra": ["EigenSystem", "distinct_gaps", "eigensystem", "eigenvalues", "gap_spectrum"],
    "dynamics": ["BipartiteWave", "CrankNicolsonStepper", "PropagatorConfig", "SpectralPropagator",
                 "WaveFunction", "bipartite_norm", "gaussian_packet", "normalize", "propagate_amplitudes",
                 "propagate_schrodinger", "propagate_vnl"],
    "bipartite": ["CollapseStatistics", "SchmidtDecomposition", "TransitionAmplitudes", "apply_rho",
                  "collapse_statistics", "entanglement_entropy", "entropy_from_reduced", "expectation",
                  "from_product", "position_density", "projection_probability", "projector", "schmidt",
                  "transition_amplitudes"],
    "scenarios": ["ScenarioReport", "complementarity_sweep", "fringe_visibility", "make_slit_modes",
                  "run_scenario", "two_slit_state", "write_report"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_package_exports(module, name):
    namespace = {}
    exec(f"from vnlw import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"vnlw.{module}"), name)


def test_package_exports_nothing_else():
    assert sorted(vnlw.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert vnlw.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        vnlw.no_such_name


# The paper's measurement functional Tr[rho O rho^dagger], and its Schmidt decomposition with both
# families: public, though no run calls them.  The schmidt run writes the coefficients alone, which it
# takes from the singular values (`bipartite.schmidt_coefficients`) without the families.
MEASUREMENT_FUNCTIONAL = {"expectation", "projector", "projection_probability", "schmidt"}


def _names_used_in_src() -> set:
    """The names that code in src/vnlw uses, as a name or an attribute, outside their own definition.

    An import, a definition and a string (docstrings, `__init__._EXPORTS`) are not uses.
    """
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in Path(vnlw.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_export_is_used_in_src():
    """A public name that only tests call belongs in tests/ (an oracle there) or nowhere."""
    assert sorted(set(vnlw.__all__) - _names_used_in_src() - MEASUREMENT_FUNCTIONAL) == []
