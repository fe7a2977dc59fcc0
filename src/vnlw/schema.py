"""The config schema: one table of every key's check and default.

A config is a JSON object with "schema_version": 1 and optional groups of
keys.  `resolve(config, run)` checks every key given against TABLE, fills in
the defaults of the run, which may depend on the run or on a key resolved
before, then applies the rules that involve several keys and the work
budget.  This module loads no numerics, so a bad config exits 2 or 3 before
numpy or scipy is imported.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ConfigError

POTENTIAL_KINDS = ("infinite-box", "harmonic", "double-well", "barrier", "tabulated")
METHODS = ("crank-nicolson", "eigenbasis")
SCENARIOS = ("two-slit", "collapse", "gap-spectroscopy", "product-equivalence")
# Bipartite state types, then the one-partite ones that only `evolve` accepts.
STATE_TYPES = ("gaussian-product", "eigen-product", "two-slit", "random", "gaussian", "eigen")
ONE_PARTITE = ("gaussian", "eigen")

# Subcommand -> the run it performs; `run` performs the scenario named by scenario.name.
COMMANDS = {"run": None, "spectrum": "spectrum", "gaps": "gap-spectroscopy", "evolve": "evolve",
            "schmidt": "schmidt", "entropy": "entropy", "collapse": "collapse"}

# The work budget.  A resolved config over it is refused like any other bad
# value, before anything is allocated: a run killed for lack of memory, or
# one that never ends, cannot remove its staging directory.  MAX_ARRAY_BYTES
# bounds the largest dense array of a run, e.g. an N x N complex kernel
# (N <= 4096), and the vectors a Crank-Nicolson run holds together.
MAX_ARRAY_BYTES = 2**28
MAX_STEPS = 10**7  # time steps: dynamics.steps, or evolve_time / dt for two-slit
MAX_ROWS = 10**6  # rows of an evolve trajectory or of a two-slit sweep


def _finite(v) -> bool:
    """A JSON number within the float range: not a boolean, NaN or infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def amplitudes(v) -> list | None:
    """A list of numbers or [re, im] pairs as complex numbers, or None if v is not one."""
    pairs = [x if isinstance(x, list) else [x, 0] for x in v] if isinstance(v, list) else [[]]
    if not all(len(p) == 2 and all(map(_finite, p)) for p in pairs):
        return None
    return [complex(*p) for p in pairs]


def two_slit_amplitudes(v) -> list | None:
    """a11, a12, a21, a22 of two-slit coefficients, or None if v is not one.

    "wave" is the coherent state (psi_1 + psi_2)(psi_1 + psi_2)^* / 2, which
    interferes; "particle" the incoherent rank-2 state
    (psi_1 psi_1^* + psi_2 psi_2^*) / sqrt(2).
    """
    if v == "wave":
        return [0.5] * 4
    if v == "particle":
        r = 1.0 / math.sqrt(2.0)
        return [r, 0.0, 0.0, r]
    if isinstance(v, dict) and set(v) <= {"a11", "a12", "a21", "a22"}:
        v = [v.get(key, 0) for key in ("a11", "a12", "a21", "a22")]
    a = amplitudes(v)
    return a if a is not None and len(a) == 4 else None


class Check(NamedTuple):
    """The values a key accepts: doc describes them, accepts(value) tests one."""

    doc: str
    accepts: Callable[[object], bool]


def number(integer: bool = False, minimum: float | None = None, strict: bool = False) -> Check:
    """A finite number, or an int if integer, >= minimum (> minimum if strict)."""

    def accepts(v) -> bool:
        if not _finite(v) or (integer and not isinstance(v, int)):
            return False
        return minimum is None or v > minimum or (v == minimum and not strict)

    bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
    return Check(("int" if integer else "finite number") + bound, accepts)


def one_of(names: tuple) -> Check:
    return Check("one of " + ", ".join(names), lambda v: isinstance(v, str) and v in names)


FLAG = Check("true or false", lambda v: isinstance(v, bool))
WINDOW = Check("[lo, hi], finite numbers with lo < hi",
               lambda v: isinstance(v, list) and len(v) == 2 and all(map(_finite, v)) and v[0] < v[1])
VALUES = Check("nonempty array of finite numbers",
               lambda v: isinstance(v, list) and len(v) > 0 and all(map(_finite, v)))
AMPLITUDES = Check("nonempty array of numbers or [re, im] pairs, not all zero",
                   lambda v: any(amplitudes(v) or ()))
TWO_SLIT = Check('"wave", "particle", or a11..a22 as a 4-array or an object, of unit norm to 1e-10',
                 lambda v: abs(sum((a * a.conjugate()).real for a in two_slit_amplitudes(v) or [0]) - 1) <= 1e-10)
COEFFICIENTS = Check(f"{AMPLITUDES.doc}; or {TWO_SLIT.doc}",
                     lambda v: AMPLITUDES.accepts(v) or TWO_SLIT.accepts(v))


class Derived(NamedTuple):
    """A default computed as value(run, c) from the run and the groups c resolved so far."""

    doc: str
    value: Callable


def _by(table: dict, other=None, state_key: str = "") -> Derived:
    """A default looked up in table by the run name, or by the resolved value of state.<state_key>."""
    label = f"{state_key}=" if state_key else ""
    parts = [f"`{json.dumps(v)}` for {label}{k}" for k, v in table.items()]
    doc = ", ".join(parts + ([f"`{json.dumps(other)}` otherwise"] if other is not None else []))
    return Derived(doc, lambda run, c: table.get(c["state"][state_key] if state_key else run, other))


class Key(NamedTuple):
    """One config key: its check, and its default (a constant, a Derived, or None for none)."""

    group: str
    key: str
    check: Check
    default: object = None

    @property
    def default_doc(self) -> str:
        if isinstance(self.default, Derived):
            return self.default.doc
        return "none" if self.default is None else f"`{json.dumps(self.default)}`"


_NUMBER = number()
_POSITIVE = number(minimum=0, strict=True)
_NONNEGATIVE = number(minimum=0)
_COUNT = number(integer=True, minimum=0)

# Keys that others derive their default from come first.
TABLE = (
    Key("grid", "x_min", _NUMBER, _by({"two-slit": -20.0, "product-equivalence": -20.0}, -10.0)),
    Key("grid", "x_max", _NUMBER, _by({"two-slit": 20.0, "product-equivalence": 20.0}, 10.0)),
    Key("grid", "n_points", number(integer=True, minimum=8),
        _by({"two-slit": 801, "gap-spectroscopy": 2001}, 401)),
    Key("grid", "box", FLAG, False),
    Key("potential", "kind", one_of(POTENTIAL_KINDS), "infinite-box"),
    Key("potential", "omega", _POSITIVE, 1.0),
    Key("potential", "mass", _POSITIVE, 1.0),
    Key("potential", "a", _NUMBER, 1.0),
    Key("potential", "b", _NUMBER, 1.0),
    Key("potential", "height", _NUMBER, 1.0),
    Key("potential", "width", _POSITIVE, 1.0),
    Key("potential", "center", _NUMBER, 0.0),
    Key("potential", "values", VALUES),
    Key("dynamics", "dt", _POSITIVE, 1e-3),
    Key("dynamics", "steps", _COUNT, 1000),
    Key("dynamics", "method", one_of(METHODS), "crank-nicolson"),
    Key("dynamics", "stride", number(integer=True, minimum=1),
        Derived("`max(1, steps // 100)`", lambda run, c: max(1, c["dynamics"]["steps"] // 100))),
    Key("spectra", "k", number(integer=True, minimum=1), _by({"collapse": 8}, 4)),
    Key("spectra", "dedup_tol", _NONNEGATIVE, 1e-9),
    Key("scenario", "name", one_of(SCENARIOS)),
    Key("scenario", "coefficients", TWO_SLIT, "wave"),
    Key("scenario", "separation", _POSITIVE, 4.0),
    Key("scenario", "sigma", _POSITIVE, _by({"two-slit": 0.35, "product-equivalence": 1.0})),
    Key("scenario", "evolve_time", _NONNEGATIVE, 2.0),
    Key("scenario", "window", WINDOW, [-8.0, 8.0]),
    Key("scenario", "sweep_points", _COUNT, 0),
    Key("scenario", "center", _NUMBER, 0.0),
    Key("scenario", "momentum", _NUMBER, 1.0),
    Key("state", "type", one_of(STATE_TYPES), _by({"evolve": "gaussian"}, "gaussian-product")),
    Key("state", "center", _NUMBER, 0.0),
    Key("state", "sigma", _POSITIVE, _by({"two-slit": 0.35}, 1.0, "type")),
    Key("state", "momentum", _NUMBER, 0.0),
    Key("state", "coefficients", COEFFICIENTS, _by({"two-slit": "wave"}, state_key="type")),
    Key("state", "separation", _POSITIVE, 4.0),
    Key("state", "seed", _COUNT, 0),
    Key("state", "tol", _NONNEGATIVE, 1e-12),
    Key("constants", "hbar", _POSITIVE, 1.0),
    Key("constants", "mass", _POSITIVE, 1.0),
)

GROUPS = {}  # group -> key -> Key
for _entry in TABLE:
    GROUPS.setdefault(_entry.group, {})[_entry.key] = _entry


def validate_config(config: dict) -> None:
    """Reject unknown groups and keys, and every value its key's check refuses."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    if config.get("schema_version") != 1:
        raise ConfigError("schema_version: missing or unsupported (expected 1)")
    for name, content in config.items():
        if name == "schema_version":
            continue
        if name not in GROUPS:
            raise ConfigError(f"unknown config group: {name}")
        if not isinstance(content, dict):
            raise ConfigError(f"{name}: must be an object")
        for key, value in content.items():
            entry = GROUPS[name].get(key)
            if entry is None:
                raise ConfigError(f"unknown key: {name}.{key}")
            if not entry.check.accepts(value):
                raise ConfigError(f"{name}.{key}: must be {entry.check.doc}, got {json.dumps(value)}")


def resolve(config: dict, run: str | None = None) -> SimpleNamespace:
    """The config's values with the defaults of run filled in, as c.<group>.<key>.

    run defaults to scenario.name; with neither, the defaults are those of
    every command without its own.  c.run is the run and c.given the config
    as given.  ConfigError if any key, rule or the work budget fails.
    """
    validate_config(config)
    given = {name: config.get(name) or {} for name in GROUPS}
    run = run or given["scenario"].get("name")
    c = {name: {} for name in GROUPS}
    for entry in TABLE:
        default = entry.default
        if isinstance(default, Derived):
            default = default.value(run, c)
        c[entry.group][entry.key] = given[entry.group][entry.key] if entry.key in given[entry.group] else default
    _check_resolved(run, c)
    return SimpleNamespace(
        run=run, given=config, **{name: SimpleNamespace(**values) for name, values in c.items()}
    )


def _check_resolved(run, c) -> None:
    """The rules that involve several keys, then the work budget."""
    grid, state, dyn, k = c["grid"], c["state"], c["dynamics"], c["spectra"]["k"]
    n = grid["n_points"]
    if grid["x_max"] <= grid["x_min"]:
        raise ConfigError(f"grid.x_max: must exceed grid.x_min ({grid['x_max']} <= {grid['x_min']})")
    # H's kinetic term hbar^2/(mass dx^2), formed as `lattice.build_hamiltonian` forms it: a span or
    # mass dx^2 that overflows (NaN from a box grid's infinite span), a dx that underflows to 0, or a
    # term that overflows, would leave every run an H that is not finite.
    hbar, mass = float(c["constants"]["hbar"]), float(c["constants"]["mass"])
    dx = _spacing(grid)[1]
    mass_dx2 = mass * (dx * dx)
    if not mass_dx2 < math.inf:
        raise ConfigError(f"grid.x_min, grid.x_max, grid.n_points: mass dx^2 is not finite at "
                          f"dx = {dx:.3g}, constants.mass = {mass:.3g}")
    if (hbar * hbar / mass_dx2 if mass_dx2 else math.inf) == math.inf:
        raise ConfigError(f"grid.x_min, grid.x_max, grid.n_points: hbar^2/(mass dx^2) is not finite at "
                          f"dx = {dx:.3g}, constants.hbar = {hbar:.3g}, constants.mass = {mass:.3g}")
    values = c["potential"]["values"]
    if c["potential"]["kind"] == "tabulated" and (values is None or len(values) != n):
        raise ConfigError(f"potential.values: grid.n_points={n} values required when potential.kind is tabulated")
    kind, coefficients = state["type"], state["coefficients"]
    if kind in ("eigen-product", "eigen") and not (AMPLITUDES.accepts(coefficients) and len(coefficients) <= n):
        raise ConfigError(f"state.coefficients: at most grid.n_points={n} amplitudes, not all zero, "
                          f"required when state.type is {kind}")
    if kind == "two-slit" and not TWO_SLIT.accepts(coefficients):
        raise ConfigError(f"state.coefficients: must be {TWO_SLIT.doc} when state.type is two-slit")
    if run in ("spectrum", "gap-spectroscopy", "collapse") and k > n:
        raise ConfigError(f"spectra.k: at most grid.n_points={n} eigenstates, got {k}")
    if kind in ONE_PARTITE and run in ("collapse", "schmidt", "entropy"):
        raise ConfigError(f"state.type: {kind} is one-partite; {run} needs a bipartite state")
    steps = c["scenario"]["evolve_time"] / dyn["dt"] if run == "two-slit" else dyn["steps"]
    if steps > MAX_STEPS:
        key = "scenario.evolve_time" if run == "two-slit" else "dynamics.steps"
        raise ConfigError(f"{key}: {steps:.3g} time steps, over MAX_STEPS={MAX_STEPS}")
    rows = dyn["steps"] // dyn["stride"] + 1
    if run == "evolve" and rows > MAX_ROWS:
        raise ConfigError(f"dynamics.stride: {rows} trajectory rows, over MAX_ROWS={MAX_ROWS}")
    sweep = c["scenario"]["sweep_points"]
    if run == "two-slit" and sweep > MAX_ROWS:
        raise ConfigError(f"scenario.sweep_points: {sweep} sweep rows, over MAX_ROWS={MAX_ROWS}")
    builds_state = run in ("evolve", "schmidt", "entropy", "collapse")
    arrays = [(16 * n, "grid.n_points complex vector")]
    if builds_state and kind in ("eigen-product", "eigen"):
        arrays.append((8 * n * len(coefficients), "grid.n_points x state.coefficients eigenvectors"))
    if builds_state and kind == "two-slit":
        arrays.append((32 * n, "grid.n_points x 2 slit-mode factor"))
    if run in ("spectrum", "collapse"):
        arrays.append((8 * n * k, "grid.n_points x spectra.k eigenvectors"))
    if run == "gap-spectroscopy":
        arrays.append((24 * k * k, "spectra.k^2 rows of the gap table"))
    # A Crank-Nicolson run stepping r columns (1 for a product or one-partite state, 2 for two slits)
    # holds about 10 + 3 r complex N-vectors at once.  While `dynamics.CrankNicolsonStepper` factors
    # L in place: a·d, a·e and a copy of it, gttrf's second superdiagonal and int32 pivots, 4.25; H's
    # real diagonals, 1; the state's factor, the factor stepped and each step's solve, 3 r.
    # `bipartite.distance` holds two stacked factors and QR's copy of them, 4, beside its states.
    if dyn["method"] == "crank-nicolson" and (
            run in ("two-slit", "product-equivalence") or (run == "evolve" and kind != "random")):
        r = 2 if run == "two-slit" or (run == "evolve" and kind == "two-slit") else 1
        arrays.append((16 * n * (10 + 3 * r), "grid.n_points vectors of a Crank-Nicolson run"))
    # A random kernel, or the full eigenvectors of H for the eigenbasis method; Crank-Nicolson steps the factors.
    eigenbasis = run in ("evolve", "two-slit", "product-equivalence") and dyn["method"] == "eigenbasis"
    if (builds_state and kind == "random") or eigenbasis:
        arrays.append((16 * n * n, "grid.n_points^2 kernel"))
    largest, what = max(arrays)
    if largest > MAX_ARRAY_BYTES:
        raise ConfigError(f"{what}: a {largest:.3g}-byte array, over MAX_ARRAY_BYTES={MAX_ARRAY_BYTES}")
    if run == "two-slit":
        lo, hi = window_indices(grid, c["scenario"]["window"])
        if hi - lo < 3:
            raise ConfigError(f"scenario.window: holds {hi - lo} grid points, at least 3 required")


def window_indices(grid: dict, window) -> tuple:
    """(lo, hi): the points of the grid group in window [a, b] are those of index lo <= i < hi.

    The points are x0 + dx * i, as `build_grid` / `box_grid` make them of the
    grid group, so the two-slit rule and the run count the same points.
    """
    n = grid["n_points"]
    x0, dx = _spacing(grid)
    return _points_below(x0, dx, n, window[0], False), _points_below(x0, dx, n, window[1], True)


def _spacing(grid: dict) -> tuple:
    """(x0, dx): the first point and the spacing of the grid group, as `build_grid` / `box_grid` compute them."""
    x0, x1, n = grid["x_min"], grid["x_max"], grid["n_points"]
    if grid["box"]:
        length = x1 - x0
        x0, x1 = x0 + length / (n + 1), x0 + length - length / (n + 1)
    return x0, (x1 - x0) / (n - 1)


def _points_below(x0: float, dx: float, n: int, v: float, inclusive: bool) -> int:
    """How many of the points x0 + dx * i, 0 <= i < n, lie below v (or at v, if inclusive), in O(1).

    The division gives the count to within rounding; the loops settle it on
    the points as they are computed, which rise with i.  A dx that
    underflowed to 0 puts every point at x0.
    """
    def below(i):
        x = x0 + dx * i
        return x <= v if inclusive else x < v

    q = (v - x0) / dx if dx else n * below(0)
    i = 0 if not q > 0 else n if q >= n else math.ceil(q)
    while i > 0 and not below(i - 1):
        i -= 1
    while i < n and below(i):
        i += 1
    return i
