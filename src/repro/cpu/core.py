"""The core timing model.

A :class:`Core` executes one software thread's lowered FASE stream as a
DES process.  The model is deliberately simple but keeps exactly the
behaviours the paper's comparison is sensitive to:

* compute batches into a single timeout (an 8-wide OoO core is far from
  memory-bound on ALU work);
* loads take their cache latency; PM misses overlap up to the MLP
  budget and fill the caches by callback when they complete;
* stores, CLWBs and SFENCEs occupy store-queue entries; a full queue
  stalls the core (§8.2.1);
* fences stall for whatever the active design says;
* the speculation-buffer overflow pause (§5.3) gates every op;
* lazy recovery checks the misspeculation flag at the FASE commit point
  (just before the outermost unlock), eager recovery at every op
  boundary; aborts roll back via the undo log and re-execute the FASE
  (§6.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..compiler import LoweredFase, LoweredThread, lower_rollback
from ..isa import (
    Clwb,
    Comp,
    Dfence,
    FaseBegin,
    FaseEnd,
    JoinStrand,
    Ld,
    Lock,
    MirrorOld,
    NewStrand,
    Ofence,
    Sfence,
    SpecAssign,
    SpecBarrier,
    SpecRevoke,
    St,
    StrandBarrier,
    Unlock,
)
from ..sim import Counter
from ..sim.resources import OccupancyQueue
from .store_queue import StoreQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import System

COMMIT = "commit"
ABORT = "abort"


class Core:
    """One core running one thread's lowered program."""

    def __init__(self, system: "System", core_id: int,
                 thread: LoweredThread):
        self.system = system
        self.env = system.env
        self.core_id = core_id
        self.thread = thread
        self.store_queue = StoreQueue(system.config, core_id)
        # Outstanding PM-miss loads (memory-level parallelism): an OoO
        # core overlaps independent misses up to its MSHR budget and only
        # blocks when the budget is exhausted; dependence is enforced
        # coarsely at lock boundaries and FASE ends.
        self._misses = OccupancyQueue(capacity=system.config.mlp_misses,
                                      name=f"mlp[{core_id}]")
        self.stats = Counter()
        self.held_locks: List[int] = []
        self.finish_time = None
        # Progress through the thread's FASE list; part of the snapshot
        # (the FASE boundary is the core's only safe capture point, so
        # this cursor plus plain data is the whole resume state).
        self._fase_cursor = 0

    def _loads_settled(self, now: int) -> int:
        """Time by which every outstanding PM-miss load has returned."""
        return self._misses.drain_complete_time(now)

    def _count_stale(self, result) -> None:
        if result.stale:
            self.stats.add("stale_loads")

    # ------------------------------------------------------------ main loop

    def run(self):
        """DES process body: execute every FASE (with retries), then stop.

        The top of the loop is the core's *park point*: between FASEs it
        holds no locks and has no undo state, so the snapshot ladder may
        park it here (``park_point`` returns an event to wait on) while
        the rest of the machine quiesces for a capture.  A restored core
        resumes from ``_fase_cursor`` with an already-finished core
        falling straight through (``finish_time`` survives the restore).
        """
        while self._fase_cursor < len(self.thread.fases):
            park = self.system.park_point(self)
            if park is not None:
                yield park
                continue
            fase = self.thread.fases[self._fase_cursor]
            yield from self._run_fase_with_retries(fase)
            self._fase_cursor += 1
            if self.thread.think_cycles:
                yield self.env.timeout(self.thread.think_cycles)
        if self.finish_time is None:
            self.finish_time = self.env.now
        return self.env.now

    def capture_state(self) -> dict:
        return {"fase_cursor": self._fase_cursor,
                "finish_time": self.finish_time,
                "held_locks": list(self.held_locks),
                "stats": self.stats.capture_state(),
                "store_queue": self.store_queue.capture_state(),
                "misses": self._misses.capture_state()}

    def restore_state(self, state: dict) -> None:
        self._fase_cursor = state["fase_cursor"]
        self.finish_time = state["finish_time"]
        self.held_locks = list(state["held_locks"])
        self.stats.restore_state(state["stats"])
        self.store_queue.restore_state(state["store_queue"])
        self._misses.restore_state(state["misses"])

    def _run_fase_with_retries(self, fase: LoweredFase):
        trace = self.env.trace
        track = f"core{self.core_id}"
        attempt = 0
        while True:
            attempt += 1
            started = self.env.now
            if trace.enabled and attempt > 1:
                trace.instant(track, "fase-re-execute", started,
                              args={"fase": fase.fase_id,
                                    "attempt": attempt}, cat="fase")
            outcome = yield from self._execute(fase.ops)
            if outcome == COMMIT:
                self.stats.add("fases_committed")
                if trace.enabled:
                    trace.complete(
                        track, f"FASE {fase.fase_id}", started,
                        max(self.env.now - started, 1),
                        args={"fase": fase.fase_id, "outcome": "commit",
                              "attempt": attempt}, cat="fase")
                return
            if trace.enabled:
                trace.complete(
                    track, f"FASE {fase.fase_id}", started,
                    max(self.env.now - started, 1),
                    args={"fase": fase.fase_id, "outcome": "abort",
                          "attempt": attempt}, cat="fase")
                trace.instant(track, "fase-abort", self.env.now,
                              args={"fase": fase.fase_id}, cat="fase")
            yield from self._abort_and_rollback(fase)
            self.stats.add("fase_retries")

    def _abort_and_rollback(self, fase: LoweredFase):
        """The abort handler (§6.2.1): undo writes, truncate, release."""
        runtime = self.system.runtime
        writes = runtime.fase_abort(self.core_id, self.env.now)
        rollback_ops = lower_rollback(writes, self.core_id, fase.flavor,
                                      log_mode=fase.log_mode)
        outcome = yield from self._execute(rollback_ops,
                                           abortable=False)
        assert outcome == COMMIT
        # Release any locks the aborted FASE still holds so the retry
        # (and other threads) can make progress.
        while self.held_locks:
            lock_id = self.held_locks.pop()
            self.system.locks[lock_id].release(self.core_id)
        self.stats.add("rollback_writes", len(writes))

    # ------------------------------------------------------------- executor

    def _execute(self, ops, abortable: bool = True):
        """Run a machine-op list; returns COMMIT or ABORT.

        This loop runs once per *instruction* -- by far the hottest
        Python in the simulator -- so it binds its collaborators to
        locals and dispatches on exact op class identity (all machine
        ops are final classes) rather than isinstance chains.  Timing
        behaviour is identical to the straightforward version.
        """
        env = self.env
        system = self.system
        design = system.design
        runtime = system.runtime
        stall = system.stall
        stats_add = self.stats.add
        store_queue = self.store_queue
        core_id = self.core_id
        count_stale = self._count_stale
        eager = runtime.recovery_mode == "eager"
        delay = 0
        for executed, op in enumerate(ops, 1):
            t = env.now + delay
            # Speculation-buffer overflow pauses every core (§5.3).
            release = stall.resume_at
            if release > t:
                stats_add("spec_stall_cycles", release - t)
                delay += release - t
                t = release
            if abortable and eager and runtime.must_abort(
                    core_id, at_boundary=False):
                yield env.timeout(delay)
                stats_add("instructions", executed)
                stats_add("eager_aborts")
                return ABORT

            kind = op.__class__
            if kind is Comp:
                delay += op.cycles
            elif kind is St:
                value = op.value
                if op.log_of is not None:
                    value = system.image.read(op.log_of)
                    runtime.log_write(core_id, op.log_of, value)
                done = design.store(core_id, op.addr, value, t,
                                    to_pm=op.to_pm, kind=op.kind,
                                    shared=op.shared)
                accept = store_queue.push(t, done - t)
                delay += max(1, accept - t)
            elif kind is Ld:
                result = system.hierarchy.load(core_id, op.addr, t,
                                               count_stale)
                if result.level != "pm":
                    delay = result.done - env.now
                else:
                    # PM miss: overlap it (MLP) instead of blocking; the
                    # fill runs at `done` and counts a stale value.
                    stats_add("pm_loads")
                    accept = self._misses.push(t, result.done)
                    if accept > t:
                        stats_add("mlp_stall_cycles", accept - t)
                    delay += max(1, accept - t)
            elif kind is MirrorOld:
                runtime.log_write(core_id, op.addr,
                                  system.image.read(op.addr))
            elif kind is Clwb:
                done = design.clwb(core_id, op.addr, t)
                accept = store_queue.push(t, done - t)
                delay += max(1, accept - t)
            elif kind is Sfence:
                store_queue.push(t, 1)
                delay += max(1, design.sfence(core_id, t) - t)
            elif kind is Ofence:
                delay += max(1, design.ofence(core_id, t) - t)
            elif kind is Dfence:
                delay += max(1, design.dfence(core_id, t) - t)
            elif kind is SpecBarrier:
                delay += max(1, design.spec_barrier(core_id, t) - t)
            elif kind is SpecAssign:
                delay += max(1, design.spec_assign(core_id, t) - t)
            elif kind is SpecRevoke:
                delay += max(1, design.spec_revoke(core_id, t) - t)
            elif kind is NewStrand:
                delay += max(1, design.new_strand(core_id, t) - t)
            elif kind is StrandBarrier:
                delay += max(1, design.strand_barrier(core_id, t) - t)
            elif kind is JoinStrand:
                delay += max(1, design.join_strand(core_id, t) - t)
            elif kind is Lock:
                # Entering a critical section depends on prior loads.
                delay = max(delay, self._loads_settled(t) - env.now)
                yield env.timeout(delay)
                delay = 0
                yield system.locks[op.lock_id].acquire(core_id)
                self.held_locks.append(op.lock_id)
                handoff = system.lock_network.transfer_cost(
                    op.lock_id, core_id)
                after = design.on_lock_op(core_id, env.now + handoff)
                delay = after - env.now
                stats_add("lock_acquires")
            elif kind is Unlock:
                # Lazy recovery's check site: just before releasing the
                # outermost lock (§6.2.1).
                if (abortable and len(self.held_locks) == 1
                        and runtime.must_abort(core_id,
                                               at_boundary=True)):
                    yield env.timeout(delay)
                    stats_add("instructions", executed)
                    stats_add("lazy_aborts")
                    return ABORT
                release_at = max(design.on_lock_op(core_id, t),
                                 self._loads_settled(t))
                delay = release_at - env.now
                yield env.timeout(delay)
                delay = 0
                self.held_locks.remove(op.lock_id)
                system.locks[op.lock_id].release(core_id)
            elif kind is FaseBegin:
                runtime.fase_begin(core_id, op.fase_id, t)
            elif kind is FaseEnd:
                # The FASE's result depends on every load it issued.
                delay = max(delay, self._loads_settled(t) - env.now)
                yield env.timeout(delay)
                delay = 0
                if abortable and runtime.must_abort(core_id,
                                                    at_boundary=True):
                    stats_add("instructions", executed)
                    stats_add("lazy_aborts")
                    return ABORT
                runtime.fase_commit(core_id, env.now)
            else:  # pragma: no cover - lowering emits nothing else
                raise TypeError(f"core cannot execute {op!r}")
        stats_add("instructions", len(ops))
        if delay:
            yield env.timeout(delay)
        return COMMIT
