"""The per-core store queue (Table 3: 32 entries).

Stores (and, in the x86 designs, CLWB/SFENCE ops, §8.2.1) occupy an
entry from commit until the operation completes against the memory
system; entries complete independently (the queue is an occupancy
limit, not a serial pipe).  A full queue back-pressures the core -- one
of the main stall sources the paper's comparison turns on -- and fences
wait for :meth:`drain_complete_time`.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..sim import Counter
from ..sim.resources import OccupancyQueue


class StoreQueue:
    """Bounded commit-side queue; entries finish at caller-supplied times."""

    def __init__(self, config: SystemConfig, core_id: int):
        self._queue = OccupancyQueue(capacity=config.store_queue_entries,
                                     name=f"sq[{core_id}]")

    @property
    def stats(self) -> Counter:
        """Pushes and full-queue stalls, from the queue's totals."""
        queue = self._queue
        return Counter(pushes=queue.pushes, full_stalls=queue.stalled_pushes,
                       full_stall_cycles=queue.total_stall)

    def push(self, now: int, service: int) -> int:
        """Occupy an entry until ``now + service``; returns the admission
        time (``> now`` means the queue was full and the core stalls)."""
        return self._queue.push(now, now + max(1, service))

    def drain_complete_time(self, now: int) -> int:
        """When every currently-queued operation has completed (what a
        fence must wait for)."""
        return self._queue.drain_complete_time(now)

    def capture_state(self) -> dict:
        return {"queue": self._queue.capture_state()}

    def restore_state(self, state: dict) -> None:
        self._queue.restore_state(state["queue"])
