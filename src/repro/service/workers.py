"""Work-stealing worker pool: the service's execution engine.

:class:`ParallelExecutor`'s pool (``multiprocessing.Pool.imap_unordered``)
is fine for one sweep, but a service runs *campaigns* whose chunks have
wildly uneven wall-clock (one congested cell can run 10x longer than
its neighbours) and must survive individual task deaths without
forfeiting the job.  This pool keeps scheduling in the parent:

* each worker owns a deque of tasks, seeded **cell-affine** -- tasks
  sharing an affinity key land on the same worker in submission order,
  so a worker can keep that cell's simulated system resident across
  its chunks (the PR 7 ``_ResidentCell`` tier keeps paying off);
* a worker that drains its own deque *steals from the tail* of the
  longest remaining deque (tail = the coldest chunks, so affinity
  is sacrificed last), narrated as a ``steal`` event;
* every task runs under an optional wall-clock timeout -- a hung
  worker is terminated and respawned, the pool keeps going;
* failures re-dispatch per :class:`repro.harness.RetryPolicy`
  (exponential backoff, narrated as ``task_retry``); a task that
  exhausts the policy is **quarantined** (``task_quarantine``) as an
  error outcome instead of killing the pool, so one poison chunk
  cannot sink a 160-trial campaign.

Scheduling never changes results: tasks are pure functions of their
argument, and outcomes come back in submission order.  ``workers <= 1``
(or a platform without process pools) runs everything inline with the
same retry/quarantine semantics, so service behaviour is identical
down to the event stream modulo ``steal`` events.
"""

from __future__ import annotations

import collections
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..harness.retry import SERVICE_POLICY, RetryPolicy
from ..harness.sweep import _error_tail, reset_worker_signals
from ..obsv.bus import Bus, QueueEmitter, drain_queue, get_bus, set_bus
from ..telemetry import current_context, get_logger, seed_context

log = get_logger("service.workers")


# ------------------------------------------------------------------ tasks


class PoolCancelled(RuntimeError):
    """``should_stop`` fired: the run stopped between tasks."""


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a picklable ``fn(arg)`` call.

    ``key`` is the durable identity (the runner uses a content hash of
    the chunk's specs, so journaled outcomes survive restarts);
    ``affinity`` groups tasks onto the same worker (the campaign cell);
    ``label`` is display-only.
    """

    key: str
    fn: Callable
    arg: object
    affinity: object = None
    label: str = ""

    def describe(self) -> str:
        return self.label or self.key[:12]


@dataclass
class TaskOutcome:
    """What happened to one task (streamed to ``on_result`` as each
    task settles, and returned in submission order)."""

    key: str
    status: str                     # "ok" | "error"
    value: object = None
    error: str = ""
    attempts: int = 1
    worker: int = -1                # -1 = inline/serial
    elapsed_s: float = 0.0
    stolen: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------- workers


def _worker_main(worker_id: int, conn, result_queue, event_queue,
                 context_fields: Dict[str, str]) -> None:
    """Worker process body: pull one task, run, push the outcome.

    Single-buffered by design -- the parent owns all queues and only
    sends the next task after the previous result lands, which is what
    makes parent-side stealing possible (undispatched work never sits
    in a child's private queue).
    """
    reset_worker_signals()
    if event_queue is not None:
        set_bus(QueueEmitter(event_queue))
    seed_context(context_fields)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        seq, fn, arg = message
        start = time.perf_counter()
        try:
            value = fn(arg)
            payload = (worker_id, seq, "ok", value,
                       time.perf_counter() - start)
        except BaseException:
            payload = (worker_id, seq, "err", traceback.format_exc(),
                       time.perf_counter() - start)
        try:
            result_queue.put(payload)
        except Exception:
            break


class _Worker:
    """Parent-side handle: process + pipe + what it is running now."""

    def __init__(self, worker_id: int, context, result_queue,
                 event_queue):
        self.worker_id = worker_id
        self.context = context
        self.result_queue = result_queue
        self.event_queue = event_queue
        self.conn = None
        self.process = None
        self.running: Optional[int] = None      # task seq in flight
        self.started_at = 0.0
        self.stolen = False
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self.context.Pipe()
        self.conn = parent_conn
        self.process = self.context.Process(
            target=_worker_main,
            args=(self.worker_id, child_conn, self.result_queue,
                  self.event_queue, current_context()),
            daemon=True)
        self.process.start()
        child_conn.close()

    def dispatch(self, seq: int, task: Task, stolen: bool) -> None:
        self.running = seq
        self.started_at = time.monotonic()
        self.stolen = stolen
        self.conn.send((seq, task.fn, task.arg))

    @property
    def idle(self) -> bool:
        return self.running is None

    def kill_and_respawn(self) -> None:
        """Terminate a hung/hosed worker and bring up a fresh one on a
        fresh pipe (the old child keeps its now-orphaned pipe end)."""
        try:
            self.process.terminate()
            self.process.join(timeout=5.0)
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass
        self.running = None
        self.spawn()

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except Exception:
            pass


# ------------------------------------------------------------------- pool


class WorkStealingPool:
    """Run a batch of :class:`Task` with stealing, retry, quarantine.

    ``workers`` is the process count (``<= 1`` runs inline);
    ``task_timeout_s`` bounds any single execution (``None`` = no
    limit); ``retry`` governs re-dispatch after failures/timeouts
    (default :data:`repro.harness.SERVICE_POLICY`: 3 attempts, 0.5 s
    exponential backoff).  ``bus`` pins the event bus (default: the
    ambient :func:`repro.obsv.get_bus` at each :meth:`run`).
    """

    def __init__(self, workers: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 task_timeout_s: Optional[float] = None,
                 bus: Optional[Bus] = None):
        self.workers = max(1, workers)
        self.retry = retry if retry is not None else SERVICE_POLICY
        self.task_timeout_s = task_timeout_s
        self.bus = bus

    def _resolve_bus(self) -> Bus:
        return self.bus if self.bus is not None else get_bus()

    # ------------------------------------------------------------- plan

    def plan_deques(self, tasks: Sequence[Task], workers: int
                    ) -> List[collections.deque]:
        """Cell-affine initial assignment: affinity groups round-robin
        onto workers in first-appearance order, tasks within a group
        staying in submission order on one deque.  Deterministic, so
        identical inputs produce identical initial placement."""
        groups: Dict[object, List[int]] = {}
        for seq, task in enumerate(tasks):
            groups.setdefault(task.affinity, []).append(seq)
        deques = [collections.deque() for _ in range(workers)]
        for slot, indices in enumerate(groups.values()):
            deques[slot % workers].extend(indices)
        return deques

    # -------------------------------------------------------------- run

    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[TaskOutcome], None]] = None,
            should_stop: Optional[Callable[[], bool]] = None
            ) -> List[TaskOutcome]:
        """Execute every task; outcomes return in submission order.

        ``on_result`` fires in *settlement* order as each task finishes
        (the runner journals outcomes from it, so a kill loses at most
        the in-flight tasks).  ``should_stop`` is polled between tasks;
        when it returns true the run raises :class:`PoolCancelled`
        instead of dispatching further work (job cancellation).  The
        pool never raises for a task failure -- exhausted tasks come
        back as quarantined ``error`` outcomes; the caller decides
        whether that fails the job.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        bus = self._resolve_bus()
        if self.workers <= 1 or len(tasks) == 1:
            return self._run_inline(tasks, bus, on_result, should_stop)
        try:
            return self._run_pool(tasks, bus, on_result, should_stop)
        except OSError:
            log.warning("no process pool available; work-stealing pool "
                        "degrades to inline execution")
            return self._run_inline(tasks, bus, on_result, should_stop)

    # ------------------------------------------------------ inline mode

    def _run_inline(self, tasks: Sequence[Task], bus: Bus,
                    on_result, should_stop=None) -> List[TaskOutcome]:
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        for seq, task in enumerate(tasks):
            if should_stop is not None and should_stop():
                raise PoolCancelled(f"stopped before task {seq}")
            bus.emit("task_start", index=seq, label=task.describe())
            attempt = 0
            error = ""
            outcome = None
            while True:
                attempt += 1
                start = time.perf_counter()
                try:
                    value = task.fn(task.arg)
                    outcome = TaskOutcome(
                        key=task.key, status="ok", value=value,
                        attempts=attempt,
                        elapsed_s=time.perf_counter() - start)
                    break
                except Exception as exc:
                    error = traceback.format_exc()
                    if not self.retry.should_retry(attempt, exc):
                        break
                    delay = self.retry.delay_s(attempt)
                    bus.emit("task_retry", label=task.describe(),
                             attempt=attempt + 1,
                             delay_s=round(delay, 3),
                             error=_error_tail(error))
                    if delay:
                        time.sleep(delay)
            if outcome is None:
                outcome = self._quarantine(task, attempt, error, bus)
            self._settle(seq, task, outcome, outcomes, bus, on_result)
        return outcomes

    # -------------------------------------------------------- pool mode

    def _run_pool(self, tasks: Sequence[Task], bus: Bus,
                  on_result, should_stop=None) -> List[TaskOutcome]:
        context = multiprocessing.get_context()
        result_queue = context.Queue()
        event_queue = None
        if bus.enabled and context.get_start_method() == "fork":
            event_queue = context.Queue()
        n_workers = min(self.workers, len(tasks))
        deques = self.plan_deques(tasks, n_workers)
        attempts = [0] * len(tasks)
        last_error = [""] * len(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        #: (ready_at, seq) for tasks sitting out a retry backoff.
        delayed: List[tuple] = []
        settled = 0

        pool = [_Worker(i, context, result_queue, event_queue)
                for i in range(n_workers)]
        try:
            while settled < len(tasks):
                if should_stop is not None and should_stop():
                    raise PoolCancelled(
                        f"stopped with {len(tasks) - settled} task(s) "
                        f"unfinished")
                now = time.monotonic()
                for ready_at, seq in list(delayed):
                    if ready_at <= now:
                        delayed.remove((ready_at, seq))
                        deques[seq % n_workers].appendleft(seq)
                self._dispatch_idle(pool, deques, tasks, bus)
                drain_queue(event_queue, bus)

                timeout = self._tick_timeout(pool, delayed, now)
                try:
                    (worker_id, seq, status, payload,
                     elapsed) = result_queue.get(timeout=timeout)
                except Exception:       # queue.Empty
                    hung = self._reap_hung(pool)
                    for worker, seq in hung:
                        settled += self._handle_failure(
                            seq, tasks[seq], worker,
                            f"task timeout after "
                            f"{self.task_timeout_s:.1f}s "
                            f"(worker {worker.worker_id} killed)",
                            self.task_timeout_s or 0.0, attempts,
                            last_error, delayed, outcomes, bus,
                            on_result, timeout_exc=True)
                    continue

                drain_queue(event_queue, bus)
                worker = pool[worker_id]
                if worker.running != seq:
                    # Stale result from a worker killed for timeout
                    # whose task completed anyway; its seq was already
                    # re-queued or quarantined.
                    continue
                stolen = worker.stolen
                worker.running = None
                if status == "ok":
                    outcome = TaskOutcome(
                        key=tasks[seq].key, status="ok", value=payload,
                        attempts=attempts[seq] + 1, worker=worker_id,
                        elapsed_s=elapsed, stolen=stolen)
                    self._settle(seq, tasks[seq], outcome, outcomes,
                                 bus, on_result)
                    settled += 1
                else:
                    settled += self._handle_failure(
                        seq, tasks[seq], worker, payload, elapsed,
                        attempts, last_error, delayed, outcomes, bus,
                        on_result)
        finally:
            for worker in pool:
                worker.shutdown()
            drain_queue(event_queue, bus)
        return outcomes

    def _dispatch_idle(self, pool, deques, tasks, bus: Bus) -> None:
        """Feed every idle worker: own deque head first, else steal
        from the tail of the longest other deque."""
        for worker in pool:
            if not worker.idle:
                continue
            own = deques[worker.worker_id]
            if own:
                seq = own.popleft()
                stolen = False
            else:
                victim = max(range(len(deques)),
                             key=lambda i: len(deques[i]))
                if not deques[victim]:
                    continue
                seq = deques[victim].pop()
                stolen = True
                bus.emit("steal", thief=worker.worker_id,
                         victim=victim, label=tasks[seq].describe())
            bus.emit("task_start", index=seq,
                     label=tasks[seq].describe())
            worker.dispatch(seq, tasks[seq], stolen)

    def _tick_timeout(self, pool, delayed, now: float) -> float:
        """How long to block on the result queue: until the nearest
        task deadline or retry-backoff expiry, bounded to stay
        responsive."""
        timeout = 0.5
        if self.task_timeout_s is not None:
            for worker in pool:
                if worker.idle:
                    continue
                deadline = worker.started_at + self.task_timeout_s
                timeout = min(timeout, max(0.05, deadline - now))
        for ready_at, _ in delayed:
            timeout = min(timeout, max(0.05, ready_at - now))
        return timeout

    def _reap_hung(self, pool) -> List[tuple]:
        """Kill workers whose task has overrun the timeout; return the
        (worker, seq) pairs whose tasks need a failure verdict."""
        if self.task_timeout_s is None:
            return []
        now = time.monotonic()
        hung = []
        for worker in pool:
            if worker.idle:
                continue
            if now - worker.started_at > self.task_timeout_s:
                seq = worker.running
                log.warning("worker %d hung on task %s; respawning",
                            worker.worker_id, seq)
                worker.kill_and_respawn()
                hung.append((worker, seq))
        return hung

    def _handle_failure(self, seq: int, task: Task, worker, error: str,
                        elapsed: float, attempts, last_error, delayed,
                        outcomes, bus: Bus, on_result,
                        timeout_exc: bool = False) -> int:
        """Retry or quarantine one failed execution.  Returns 1 if the
        task settled (quarantined), 0 if it went back in the queue."""
        attempts[seq] += 1
        last_error[seq] = error
        exc = TimeoutError(error) if timeout_exc else RuntimeError(error)
        if self.retry.should_retry(attempts[seq], exc):
            delay = self.retry.delay_s(attempts[seq])
            bus.emit("task_retry", label=task.describe(),
                     attempt=attempts[seq] + 1,
                     delay_s=round(delay, 3),
                     error=_error_tail(error))
            delayed.append((time.monotonic() + delay, seq))
            return 0
        outcome = self._quarantine(task, attempts[seq], error, bus,
                                   worker=worker.worker_id)
        outcome.elapsed_s = elapsed
        self._settle(seq, task, outcome, outcomes, bus, on_result)
        return 1

    # -------------------------------------------------------- settling

    def _quarantine(self, task: Task, attempts: int, error: str,
                    bus: Bus, worker: int = -1) -> TaskOutcome:
        bus.emit("task_quarantine", label=task.describe(),
                 attempts=attempts, error=_error_tail(error))
        log.warning("task %s quarantined after %d attempt(s): %s",
                    task.describe(), attempts, _error_tail(error))
        return TaskOutcome(key=task.key, status="error", error=error,
                           attempts=attempts, worker=worker)

    def _settle(self, seq: int, task: Task, outcome: TaskOutcome,
                outcomes, bus: Bus, on_result) -> None:
        outcomes[seq] = outcome
        if outcome.ok:
            bus.emit("task_finish", index=seq, label=task.describe(),
                     elapsed_s=outcome.elapsed_s,
                     source="steal" if outcome.stolen else "pool")
        else:
            bus.emit("task_error", index=seq, label=task.describe(),
                     error=_error_tail(outcome.error))
        if on_result is not None:
            on_result(outcome)
