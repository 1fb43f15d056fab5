"""Contention primitives built on the DES kernel.

Three primitives cover every shared structure in the simulator:

* :class:`Mutex` -- a FIFO lock for simulated threads (workload locks).
* :class:`TimelineResource` -- earliest-slot reservation for pipelined
  units with fixed occupancy per request (PMC queues, ring-bus slots,
  cache ports).  Reservation is a synchronous computation, so hot paths
  pay no event overhead; callers simply advance their local time to the
  returned completion time.
* :class:`CapacityQueue` -- a counted-capacity queue with blocking-when-
  full semantics (persist buffers, store queues) where drain happens on a
  background timeline.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from typing import Deque, List, Optional, Tuple

from .engine import Environment, Event


class Mutex:
    """FIFO mutual exclusion for simulated threads.

    ``acquire`` returns an :class:`Event` that fires when the caller owns
    the lock; ``release`` hands it to the next waiter at the current time.
    """

    def __init__(self, env: Environment, name: str = "mutex"):
        self.env = env
        self.name = name
        self.owner: Optional[object] = None
        self._waiters: Deque[Tuple[object, Event]] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    def acquire(self, who: object = None) -> Event:
        grant = self.env.event()
        if self.owner is None:
            self.owner = who if who is not None else grant
            self.acquisitions += 1
            grant.succeed()
        else:
            self.contended_acquisitions += 1
            self._waiters.append((who, grant))
        return grant

    def release(self, who: object = None) -> None:
        if self.owner is None:
            raise RuntimeError(f"release of unlocked mutex {self.name!r}")
        if self._waiters:
            next_who, grant = self._waiters.popleft()
            self.owner = next_who if next_who is not None else grant
            self.acquisitions += 1
            grant.succeed()
        else:
            self.owner = None

    @property
    def locked(self) -> bool:
        return self.owner is not None

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def capture_state(self) -> dict:
        # A waiter holds a live grant Event; the ladder only captures
        # when no core is blocked on a lock, so waiters here are a bug.
        if self._waiters:
            from ..snapshot.store import SnapshotError
            raise SnapshotError(
                f"mutex {self.name!r} has waiters at capture")
        if self.owner is not None:
            from ..snapshot.store import SnapshotError
            raise SnapshotError(
                f"mutex {self.name!r} held at capture")
        return {"acquisitions": self.acquisitions,
                "contended_acquisitions": self.contended_acquisitions}

    def restore_state(self, state: dict) -> None:
        self.owner = None
        self._waiters = deque()
        self.acquisitions = state["acquisitions"]
        self.contended_acquisitions = state["contended_acquisitions"]


class TimelineResource:
    """A unit that serves one request per ``width`` lanes at a time.

    ``reserve(now, service)`` books the earliest available slot at or
    after ``now`` and returns ``(start, finish)``.  With ``width == 1``
    this models a strictly serial unit; larger widths model banked or
    multi-lane units.  The computation is synchronous: no DES events are
    involved, making it cheap enough for per-memory-access use.
    """

    __slots__ = ("width", "name", "_lanes", "total_busy",
                 "total_requests", "total_wait")

    def __init__(self, width: int = 1, name: str = "timeline"):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self.name = name
        # Next-free time per lane; lazily rotated min selection.
        self._lanes = [0] * width
        self.total_busy = 0
        self.total_requests = 0
        self.total_wait = 0

    def reserve(self, now: int, service: int) -> Tuple[int, int]:
        if service < 0:
            raise ValueError("negative service time")
        lanes = self._lanes
        # Earliest-free lane, first-index tie-break (matches
        # ``min(range(width), key=...)`` but without the per-call lambda).
        lane = 0
        free = lanes[0]
        if len(lanes) > 1:
            for index in range(1, len(lanes)):
                when = lanes[index]
                if when < free:
                    lane = index
                    free = when
        start = free if free > now else now
        finish = start + service
        lanes[lane] = finish
        self.total_requests += 1
        self.total_busy += service
        self.total_wait += start - now
        return start, finish

    def utilization(self, now: int) -> float:
        if now <= 0:
            return 0.0
        return self.total_busy / (now * self.width)

    def capture_state(self) -> dict:
        return {"lanes": list(self._lanes),
                "total_busy": self.total_busy,
                "total_requests": self.total_requests,
                "total_wait": self.total_wait}

    def restore_state(self, state: dict) -> None:
        self._lanes = list(state["lanes"])
        self.total_busy = state["total_busy"]
        self.total_requests = state["total_requests"]
        self.total_wait = state["total_wait"]


class OccupancyQueue:
    """A bounded set of in-flight operations that complete independently.

    Unlike :class:`CapacityQueue` (whose entries drain *serially* through
    limited lanes -- device bandwidth), an occupancy queue's entries each
    finish at a caller-supplied completion time: the right model for a
    store queue, where an entry merely holds a slot until its own store
    completes.  ``push`` returns the admission time: ``now`` while slots
    are free, otherwise the completion of the oldest in-flight entry.
    """

    __slots__ = ("capacity", "name", "_completions", "pushes",
                 "stalled_pushes", "total_stall")

    def __init__(self, capacity: int, name: str = "occupancy"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._completions: List[int] = []   # kept sorted
        self.pushes = 0
        self.stalled_pushes = 0
        self.total_stall = 0

    def _evict_completed(self, now: int) -> None:
        completions = self._completions
        if completions and completions[0] <= now:
            index = bisect_right(completions, now)
            del completions[:index]

    def occupancy(self, now: int) -> int:
        self._evict_completed(now)
        return len(self._completions)

    def push(self, now: int, completion: int) -> int:
        """Admit an entry completing at ``completion``; returns admission
        time (> ``now`` means the queue was full: caller stalls)."""
        self._evict_completed(now)
        completions = self._completions
        accept = now
        if len(completions) >= self.capacity:
            overflow = len(completions) - self.capacity + 1
            accept = completions[overflow - 1]
            self.stalled_pushes += 1
            self.total_stall += accept - now
        insort(completions, completion if completion > now else now)
        self.pushes += 1
        return accept

    def drain_complete_time(self, now: int) -> int:
        """When every currently in-flight entry has completed."""
        self._evict_completed(now)
        return self._completions[-1] if self._completions else now

    def capture_state(self) -> dict:
        return {"completions": list(self._completions),
                "pushes": self.pushes,
                "stalled_pushes": self.stalled_pushes,
                "total_stall": self.total_stall}

    def restore_state(self, state: dict) -> None:
        self._completions = list(state["completions"])
        self.pushes = state["pushes"]
        self.stalled_pushes = state["stalled_pushes"]
        self.total_stall = state["total_stall"]


class CapacityQueue:
    """A bounded buffer whose entries drain on a background timeline.

    Models persist buffers and write-pending queues: ``push`` books the
    entry's drain completion on the internal :class:`TimelineResource`
    and returns the completion time.  When all ``capacity`` entries are
    occupied at ``now``, the effective insertion time is delayed until
    the oldest in-flight entry completes (back-pressure), which is how
    store-queue/persist-buffer overflow stalls arise.
    """

    __slots__ = ("capacity", "drain_latency", "name", "_drain",
                 "_completions", "pushes", "stalled_pushes", "total_stall")

    def __init__(self, capacity: int, drain_latency: int, width: int = 1,
                 name: str = "queue"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.drain_latency = drain_latency
        self.name = name
        self._drain = TimelineResource(width=width, name=name + ".drain")
        self._completions: Deque[int] = deque()
        self.pushes = 0
        self.stalled_pushes = 0
        self.total_stall = 0

    def _evict_completed(self, now: int) -> None:
        while self._completions and self._completions[0] <= now:
            self._completions.popleft()

    def occupancy(self, now: int) -> int:
        self._evict_completed(now)
        return len(self._completions)

    def admission_time(self, now: int) -> int:
        """Earliest time a new entry can be accepted (stall-aware)."""
        self._evict_completed(now)
        if len(self._completions) < self.capacity:
            return now
        # Must wait for the oldest entry still in flight to complete.
        overflow = len(self._completions) - self.capacity + 1
        return self._completions[overflow - 1]

    def push(self, now: int, service: Optional[int] = None) -> Tuple[int, int]:
        """Insert an entry; returns ``(accept_time, drain_complete_time)``."""
        service = self.drain_latency if service is None else service
        accept = self.admission_time(now)
        if accept > now:
            self.stalled_pushes += 1
            self.total_stall += accept - now
        _start, finish = self._drain.reserve(accept, service)
        # Keep completions sorted: drains are FIFO per lane but lanes can
        # interleave; insert in order.
        if self._completions and finish < self._completions[-1]:
            insort(self._completions, finish)
        else:
            self._completions.append(finish)
        self.pushes += 1
        return accept, finish

    def drain_complete_time(self, now: int) -> int:
        """Time at which everything currently queued has drained."""
        self._evict_completed(now)
        return self._completions[-1] if self._completions else now

    def capture_state(self) -> dict:
        return {"drain": self._drain.capture_state(),
                "completions": list(self._completions),
                "pushes": self.pushes,
                "stalled_pushes": self.stalled_pushes,
                "total_stall": self.total_stall}

    def restore_state(self, state: dict) -> None:
        self._drain.restore_state(state["drain"])
        self._completions = deque(state["completions"])
        self.pushes = state["pushes"]
        self.stalled_pushes = state["stalled_pushes"]
        self.total_stall = state["total_stall"]
