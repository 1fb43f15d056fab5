"""Built workload programs, shared while they are in use.

:meth:`Workload.build` is a pure function of (class, seed, threads,
FASEs) and nothing mutates its result, so cells differing only in design
or configuration share one program and its lowerings.  The memo keeps
the latest program and finds others still alive elsewhere by weak
reference: a sweep's designs of one benchmark share it, and it is
released when the sweep moves on.  A campaign, which cycles through its
programs, keeps them with :func:`holding_programs`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple
from weakref import WeakValueDictionary

from ..isa import Program
from .base import Workload


class _Built(list):
    """A ``[workload, program]`` pair (weakly referenceable)."""


_live: "WeakValueDictionary[tuple, _Built]" = WeakValueDictionary()
_latest = None
_holds: List[Dict[tuple, _Built]] = []


def built_program(workload_cls, seed: int, n_threads: int,
                  fases_per_thread: int) -> Tuple[Workload, Program]:
    """``workload_cls(seed=seed)`` and the program it builds for
    ``n_threads`` x ``fases_per_thread``."""
    global _latest
    key = (workload_cls, seed, n_threads, fases_per_thread)
    built = _live.get(key)
    if built is None:
        workload = workload_cls(seed=seed)
        built = _live[key] = _Built(
            [workload, workload.build(n_threads, fases_per_thread)])
    _latest = built
    for held in _holds:
        held[key] = built
    return tuple(built)


@contextmanager
def holding_programs() -> Iterator[None]:
    """Keep every program requested inside the block until it exits."""
    _holds.append({})
    try:
        yield
    finally:
        _holds.pop()
