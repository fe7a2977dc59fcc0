"""One worker pool for the stages that run on every CPU the process may use.

A stage splits its work into parts whose results are the same bytes on any
thread, and `ordered_map` hands them, in order, to one consumer.
"""

from __future__ import annotations

import os
import queue
import threading


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, parts, workers: int, consume) -> None:
    """consume(fn(part, stop)) for each part of the sequence parts, in order, on `workers` threads.

    This thread computes parts 0, w, 2w, ... and consumes every result;
    helper thread i computes parts i, i + w, ... into its own one-slot
    queue, so at most one finished result waits per helper.  On a helper,
    stop is a threading.Event, set once this thread fails in fn or in
    consume, KeyboardInterrupt included; on this thread it is None.  A
    helper's exception is raised at its part's turn.  Every helper has ended
    when this returns or raises.
    """
    stop = threading.Event()
    slots = [queue.Queue(maxsize=1) for _ in range(1, workers)]

    def helper(first: int, slot: queue.Queue) -> None:
        try:
            for part in parts[first::workers]:
                if stop.is_set():
                    return
                slot.put((fn(part, stop), None))
        except BaseException as exc:  # raised by this thread at the part's turn, which would wait forever if none came
            slot.put((None, exc))

    threads = [threading.Thread(target=helper, args=(i, slot)) for i, slot in enumerate(slots, 1)]
    for thread in threads:
        thread.start()
    try:
        for i, part in enumerate(parts):
            if i % workers:
                result, exc = slots[i % workers - 1].get()
                if exc is not None:
                    raise exc
            else:
                result = fn(part, None)
            consume(result)
    finally:
        stop.set()
        for slot, thread in zip(slots, threads):
            # After stop is set a helper puts at most once more, into a slot this frees.
            while not slot.empty():
                slot.get()
            thread.join()
