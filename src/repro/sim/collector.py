"""Cell-scoped pause of the cyclic garbage collector.

A simulated machine is a few hundred thousand long-lived, GC-tracked
objects (machine ops, cache lines, queue entries), and running it
allocates enough to trigger collections every few milliseconds.  Each
full collection walks all of them, yet a run creates no cyclic garbage:
everything it drops is freed by reference counting (the
``tests/sim/test_collector.py`` invariant pins this per design and
mode).  So a cell pauses the collector for the whole life of its
:class:`~repro.system.System`.  The system's objects are then still in
the youngest generation when the cell drops them, and the first young
collection after the cell frees them -- nothing of a dead system is
ever promoted into the old generations a full collection walks.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the body; restore it on exit.

    A no-op when the collector is already off, so pauses nest and a
    caller that disabled the collector itself keeps it disabled.  Usable
    as a decorator (``@collector_paused()``) on any entry point that
    builds and drops a system inside one call.  The collector switch is
    process-wide: a thread entering while another holds a pause does not
    extend it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
