"""`vnlw._workers.ordered_map`: the one worker pool, whose rules the stepper and the report writer share."""

import ast
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vnlw
from vnlw import _workers
from vnlw._digits import _distinct_cells, _kind, _layout, _write_cells

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(count=st.integers(0, 40))
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_results_reach_consume_in_order(workers, count):
    """Part p is computed on this thread, with no stop, exactly when w divides p; the results are consumed in
    order, whether or not w divides the part count."""
    main, baseline, consumed = threading.current_thread(), threading.active_count(), []

    def fn(part, stop):
        assert (stop is None) == (threading.current_thread() is main) == (part % workers == 0)
        return part * part

    _workers.ordered_map(fn, range(count), workers, consumed.append)
    assert consumed == [p * p for p in range(count)]
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_a_helper_waits_with_at_most_one_finished_result(workers):
    """While consume holds part 0, helper i computes parts i and i + w: one waits in its slot, the other to be
    put.  It starts no third part until this thread takes the first."""
    started, seen, consumed, lock = set(), [], [], threading.Lock()

    def fn(part, stop):
        with lock:
            started.add(part)
        return part

    def consume(result):
        if result == 0:
            deadline = time.monotonic() + 10
            while len(started) < 2 * workers - 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # time for a helper to run further ahead, were it able to
            with lock:
                seen.append(set(started))
        consumed.append(result)

    _workers.ordered_map(fn, range(5 * workers), workers, consume)
    assert seen == [set(range(2 * workers)) - {workers}]
    assert consumed == list(range(5 * workers))


@pytest.mark.parametrize("exc", [RuntimeError("part failed"), KeyboardInterrupt()],
                         ids=["RuntimeError", "KeyboardInterrupt"])
def test_a_helper_exception_is_raised_at_its_turn_after_every_helper_ends(exc):
    """Helper 1 fails on part 4; helper 2 is still busy on part 5.  The parts before 4 are consumed, no later
    one is, and both helpers have ended when the exception arrives here."""
    baseline, consumed = threading.active_count(), []

    def fn(part, stop):
        if part == 4:
            raise exc
        if part == 5:
            time.sleep(0.2)
        return part

    with pytest.raises(type(exc)) as raised:
        _workers.ordered_map(fn, range(9), 3, consumed.append)
    assert raised.value is exc
    assert consumed == [0, 1, 2, 3]
    assert threading.active_count() == baseline


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("where", ["fn", "consume"])
def test_a_failure_on_this_thread_stops_the_helpers(where, exc):
    """This thread fails on part 0 while helper 1 waits on its stop inside fn, and helper 2, its slot full,
    waits to put its second part.  stop is set and the slot freed, so both end long before the 10 s wait
    would, and no thread is left."""
    baseline, stops, started, lock = threading.active_count(), [], set(), threading.Lock()

    def fn(part, stop):
        if stop is not None:
            with lock:
                stops.append(stop)
                started.add(part)
            if part == 1:
                assert stop.wait(10)
        elif where == "fn":
            fail()
        return part

    def fail():
        deadline = time.monotonic() + 10
        while started != {1, 2, 5} and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # time for helper 2 to reach the put of part 5
        raise exc("this thread failed")

    def consume(result):
        if where == "consume":
            fail()

    begun = time.monotonic()
    with pytest.raises(exc, match="this thread failed"):
        _workers.ordered_map(fn, range(30), 3, consume)
    assert time.monotonic() - begun < 5
    assert started == {1, 2, 5} and all(stop.is_set() for stop in stops)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
def test_a_write_failing_partway_through_a_table_stops_the_writers_helpers(monkeypatch, exc):
    """The report writer's consume is fh.write: when the third block fails to write, nothing more is written,
    every helper's stop is set and no thread is left."""
    baseline, stops, ordered_map = threading.active_count(), [], _workers.ordered_map

    def recording(fn, parts, workers, consume):
        def watched(part, stop):
            if stop is not None:
                stops.append(stop)
            return fn(part, stop)
        return ordered_map(watched, parts, workers, consume)

    class FailingFile:
        writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise exc("disk full")

    rng = np.random.default_rng(3)
    columns = [np.arange(40_000), rng.standard_normal(40_000)]
    cells = {kind: _distinct_cells([c for c in columns if _kind(c) == kind], "csv") for kind in "if"}
    monkeypatch.setattr(_workers, "_cpu_count", lambda: 3)
    monkeypatch.setattr(_workers, "ordered_map", recording)
    fh = FailingFile()
    with pytest.raises(exc, match="disk full"):
        _write_cells(fh, columns, cells, _layout("csv", ["n", "x"], True)[1])
    assert fh.writes == 3
    assert stops and all(stop.is_set() for stop in stops)
    assert threading.active_count() == baseline


CONSTRUCTORS = {"Thread", "ThreadPoolExecutor", "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue"}


def called(path: Path, names: set) -> set:
    """The names among names that the module at path calls, by plain or dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names:
                found.add(name)
    return found


def test_only_the_pool_starts_threads():
    """A threaded stage reuses `ordered_map`: no other module of the package makes a thread or a queue."""
    modules = {path.name: called(path, CONSTRUCTORS) for path in sorted(Path(vnlw.__file__).parent.glob("*.py"))}
    assert modules.pop("_workers.py") == {"Thread", "Queue"}
    assert {name: called for name, called in modules.items() if called} == {}


VIEWS = {"as_strided", "sliding_window_view"}


def test_no_module_makes_a_strided_view():
    """A hand-strided view aliases memory, and one of a wrong shape reads or writes outside its array with no
    error: no module of the package makes one."""
    modules = {path.name: called(path, VIEWS) for path in sorted(Path(vnlw.__file__).parent.glob("*.py"))}
    assert {name: names for name, names in modules.items() if names} == {}


IDENTITY_KEYS = {"id", "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}


def test_no_module_keys_objects_by_identity():
    """An array known by its id or held in a weak container is lost in any view or copy of it: no module of the
    package calls id or makes a weak container."""
    modules = {path.name: called(path, IDENTITY_KEYS) for path in sorted(Path(vnlw.__file__).parent.glob("*.py"))}
    assert {name: names for name, names in modules.items() if names} == {}
