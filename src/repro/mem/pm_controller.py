"""The persistent-memory controller (PMC).

The PMC owns the read and write-pending queues (Table 3: 32/64 entries)
and the durability point: under ADR (§8.1) a write is durable once it is
*accepted* into the write queue, so acceptance times are what fences and
spec-barriers wait on.

Behavioural differences between the four evaluated designs are injected
through a :class:`PMCPolicy`:

* the **default** policy (IntelX86/DPO) persists CLWB data and LLC dirty
  writebacks;
* **HOPS** adds a bloom-filter lookup to every PM read and persists from
  its per-core persist buffers;
* **PMEM-Spec** (:mod:`repro.core.pmem_spec`) silently *drops* LLC
  writeback data, persists only persist-path messages, and feeds every
  arrival into the speculation buffer's automaton.

All policy hooks run at message *arrival time* in global time order (the
controller schedules them on the event heap), which is what makes the
``WriteBack - Read - Persist`` misspeculation pattern detectable exactly
as in Figure 5.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..config import SystemConfig
from ..sim import CapacityQueue, Counter, Environment
from .interconnect import PersistMessage
from .pm_device import PMDevice


class _PendingRead:
    """A PM read in flight; its bound methods are its scheduler items.
    It lives long enough to reach the GC's old generations, where one
    slotted object costs full collections far less than closures."""

    __slots__ = ("pmc", "block", "done", "fill", "content")

    def __init__(self, pmc, block: int, done: int, fill) -> None:
        self.pmc, self.block, self.done, self.fill = pmc, block, done, fill

    def arrive(self) -> None:
        self.pmc.policy.on_read(self.block, self.pmc.env.now)
        self.content = self.pmc.device.block_content(self.block)

    def complete(self) -> None:
        if self.fill is not None:
            self.pmc.env.call_at(self.done, self.finish)

    def finish(self) -> None:
        self.fill(self.content, self.done)


class PMCPolicy:
    """Default (baseline) PMC behaviour; designs override pieces."""

    def attach(self, pmc: "PMController") -> None:
        self.pmc = pmc

    def read_delay(self, block: int, now: int) -> int:
        """Extra cycles charged before a PM read is enqueued (HOPS bloom)."""
        return 0

    def on_read(self, block: int, now: int) -> None:
        """Called at read-arrival time, in global time order."""

    def on_writeback(self, block_addr: int, data: Dict[int, int],
                     now: int) -> None:
        """Called at writeback-arrival time; baselines persist the block."""
        self.pmc.device.persist_block(block_addr, data, now)

    def on_persist(self, msg: PersistMessage, now: int) -> None:
        """Called at persist-path message arrival; persists the store."""
        self.pmc.device.persist_store(msg.addr, msg.value, now)

    def capture_state(self) -> dict:
        """Policies are stateless by default; stateful ones override."""
        return {}

    def restore_state(self, state: dict) -> None:
        pass


class PMController:
    """Read/write queueing plus policy dispatch for one PM channel."""

    def __init__(self, env: Environment, config: SystemConfig,
                 device: PMDevice, policy: Optional[PMCPolicy] = None):
        self.env = env
        self.config = config
        self.device = device
        self.policy = policy or PMCPolicy()
        self.policy.attach(self)
        self.read_queue = CapacityQueue(
            capacity=config.pmc_read_queue,
            drain_latency=config.ns(config.pm_read_ns),
            width=config.pmc_banks, name="pmc.read")
        self.write_queue = CapacityQueue(
            capacity=config.pmc_write_queue,
            drain_latency=config.ns(config.pm_write_ns),
            width=config.pmc_write_banks, name="pmc.write")
        # Open (not yet drained) WPQ entries by block: the controller
        # "coalesces and buffers the store data" (§4.2), so stores landing
        # in a block whose entry is still pending merge into it instead of
        # consuming another entry.
        self._wpq_open: Dict[int, tuple] = {}
        # Per-core FIFO clamp for persist-path acceptance times.
        self._core_fifo: Dict[int, int] = {}
        self.stats = Counter()
        # Hook fired once per real (non-coalesced) WPQ admission.
        self.on_accept = None

    #: Trace track for controller-side acceptance events.
    TRACE_TRACK = "pmc"

    def _observe_wpq(self, now: int) -> None:
        self.env.metrics.sample("wpq_depth", now,
                                self.write_queue.occupancy(now))

    def _wpq_admit(self, block: int, arrival: int) -> int:
        """Admit one block-granular write; coalesces into a pending entry
        for the same block when possible.  Returns the ADR-acceptance time."""
        entry = self._wpq_open.get(block)
        if entry is not None:
            booked_at, accept, drain = entry
            if booked_at <= arrival < drain:
                self.stats.add("wpq_coalesced")
                return max(arrival, accept)
        accept, drain = self.write_queue.push(arrival)
        self._wpq_open[block] = (arrival, accept, drain)
        if len(self._wpq_open) > 4096:
            self._wpq_open = {b: e for b, e in self._wpq_open.items()
                              if e[2] > arrival}
        if self.on_accept is not None:
            self.on_accept()
        return accept

    # ---------------------------------------------------------------- reads

    def read_block(self, block: int, now: int,
                   fill: Optional[Callable] = None) -> int:
        """Fetch a block from PM for the regular path; returns ``done``
        at once, so the core can model memory-level parallelism.

        At ``done`` it calls ``fill(content, done)`` with the block *as
        persisted at arrival* -- the stale reads of §5.1: a value still in
        flight on the persist path is not visible.  The completion hop,
        booked at issue, queues the fill at the tail of cycle ``done``
        (and, with no ``fill``, holds the event queue open until then)."""
        self.stats.add("reads")
        delay = self.policy.read_delay(block, now)
        if delay:
            self.stats.add("read_delay_cycles", delay)
        accept, done = self.read_queue.push(now + delay)
        if self.env.trace.enabled:
            # Reads participate in the WriteBack-Read-Persist pattern
            # (Figure 5), so the oracle needs them in the trace stream
            # at the same time the policy observes them.
            self.env.trace.instant(self.TRACE_TRACK, "pm-read", accept,
                                   args={"block": block}, cat="pmc")
        read = _PendingRead(self, block, done, fill)
        self.env.call_at(accept, read.arrive)
        self.env.call_at(done, read.complete)
        return done

    # ----------------------------------------------------------- writebacks

    def accept_writeback(self, block_addr: int, data: Dict[int, int],
                         arrival: int) -> int:
        """An LLC dirty eviction or CLWB flush arriving from the regular
        path.  Returns the write-queue acceptance (durability) time."""
        self.stats.add("writebacks")
        accept = self._wpq_admit(block_addr >> 6, arrival)
        if self.env.trace.enabled:
            self.env.trace.instant(
                self.TRACE_TRACK, "writeback-accept", accept,
                args={"block": block_addr >> 6}, cat="pmc")
        if self.env.metrics.enabled:
            self._observe_wpq(arrival)
        snapshot = dict(data)
        self.env.call_at(
            accept, lambda: self.policy.on_writeback(
                block_addr, snapshot, self.env.now))
        return accept

    # -------------------------------------------------------- persist path

    def accept_persist(self, msg: PersistMessage, arrival: int) -> int:
        """A persist-path store arriving; returns acceptance (ADR) time.

        Acceptance is clamped to be FIFO per source core: the persist
        path delivers a core's stores in commit order, and WPQ admission
        must not reorder them (strict intra-thread persist order is the
        property the undo-log protocol rests on)."""
        self.stats.add("persists")
        accept = self._wpq_admit(msg.addr >> 6, arrival)
        previous = self._core_fifo.get(msg.core_id, 0)
        if accept < previous:
            accept = previous
        self._core_fifo[msg.core_id] = accept
        if self.env.trace.enabled:
            args = {"core": msg.core_id, "block": msg.addr >> 6,
                    "arrival": arrival}
            if msg.spec_id:
                args["spec_id"] = msg.spec_id
            self.env.trace.instant(self.TRACE_TRACK, "persist-accept",
                                   accept, args=args, cat="pmc")
        if self.env.metrics.enabled:
            self._observe_wpq(arrival)
        self.env.call_at(
            accept, lambda: self.policy.on_persist(msg, self.env.now))
        return accept

    # ---------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        # _wpq_open/_core_fifo as ordered item lists: insertion order
        # matters for the >4096 prune and for replay determinism.  The
        # device is captured by the system (PMCComplex controllers share
        # one device; capturing it here would multiply it).
        return {"read_queue": self.read_queue.capture_state(),
                "write_queue": self.write_queue.capture_state(),
                "wpq_open": [(block, list(entry))
                             for block, entry in self._wpq_open.items()],
                "core_fifo": list(self._core_fifo.items()),
                "stats": self.stats.capture_state(),
                "policy": self.policy.capture_state()}

    def restore_state(self, state: dict) -> None:
        self.read_queue.restore_state(state["read_queue"])
        self.write_queue.restore_state(state["write_queue"])
        self._wpq_open = {block: tuple(entry)
                          for block, entry in state["wpq_open"]}
        self._core_fifo = {core: t for core, t in state["core_fifo"]}
        self.stats.restore_state(state["stats"])
        self.policy.restore_state(state["policy"])
