"""The work-stealing worker pool: the only code that starts workers.

:class:`repro.harness.ParallelExecutor` runs sweeps, maps and batched
maps on this pool, and the service's executor is a thin subclass of
``ParallelExecutor``, so every fan-out in the repo shares one
scheduler, one retry rule and one failure story.  Campaign chunks have wildly uneven wall-clock
(one congested cell can run 10x longer than its neighbours), so
scheduling stays in the parent:

* each worker owns a deque of tasks, seeded **affine** -- tasks
  sharing an affinity key land on the same worker in submission
  order, so a worker can keep a campaign cell's
  :class:`repro.validation.Cell` (or a benchmark's built program)
  resident across its tasks;
* a worker that drains its own deque *steals from the tail* of the
  longest remaining deque (tail = the coldest tasks, so affinity is
  sacrificed last), narrated as a ``steal`` event;
* every task runs under an optional wall-clock timeout -- a hung
  worker is killed and respawned, the pool keeps going;
* a worker that dies mid-task (SIGKILL, the OOM killer) closes its
  pipe; the pool respawns it and counts the death as a failed attempt;
* failures re-dispatch per :class:`repro.harness.RetryPolicy`
  (exponential backoff, narrated as ``task_retry``); a task that
  exhausts the policy is **quarantined** (``task_quarantine``) as an
  error outcome instead of killing the pool -- the caller decides
  whether that fails the run.

The pool narrates only its own decisions (``steal``, ``task_retry``,
``task_quarantine``) plus each task's optional ``start`` event, which
it emits where the task starts running: inside the worker (shipped
back over an event queue) in pool mode, on the pool's bus inline.
Finish and error events belong to the caller, which knows what a task
means.

Scheduling never changes results: tasks are pure functions of their
argument, and outcomes come back in submission order.  ``workers <=
1``, a single task, or a platform without process pools runs
everything inline with the same retry/quarantine semantics, passing
values by reference.
"""

from __future__ import annotations

import collections
import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obsv.bus import Bus, QueueEmitter, drain_queue, get_bus, set_bus
from ..telemetry import current_context, get_logger, run_context, seed_context
from .retry import DEFAULT_POLICY, RetryPolicy

log = get_logger("harness.pool")


# ------------------------------------------------------------------ tasks


class PoolCancelled(RuntimeError):
    """``should_stop`` fired: the run stopped between tasks."""


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a picklable ``fn(arg)`` call.

    ``key`` is the task's identity (the service uses a content hash of
    the function and argument, so journaled outcomes survive
    restarts); ``affinity`` groups tasks onto the same worker;
    ``label`` is display-only.  ``start`` is an optional ``(kind,
    fields)`` event announcing each execution, and ``context`` the
    :func:`repro.telemetry.run_context` fields the task runs under.
    """

    key: str
    fn: Callable
    arg: object
    affinity: object = None
    label: str = ""
    start: Optional[Tuple[str, Dict]] = None
    context: Optional[Dict[str, str]] = None

    def describe(self) -> str:
        return self.label or self.key[:12]

    def execute(self, bus: Bus):
        """Announce the start on ``bus``, then run ``fn(arg)``."""
        with run_context(**(self.context or {})):
            if self.start is not None:
                kind, fields = self.start
                bus.emit(kind, **fields)
            return self.fn(self.arg)


@dataclass
class TaskOutcome:
    """What happened to one task (streamed to ``on_result`` as each
    task settles, and returned in submission order).  ``index`` is the
    task's position in the list the pool ran; ``attempts`` counts
    executions (0 = replayed from a journal, never run)."""

    key: str
    status: str                     # "ok" | "error"
    value: object = None
    error: str = ""
    attempts: int = 1
    worker: int = -1                # -1 = inline/serial
    elapsed_s: float = 0.0
    stolen: bool = False
    index: int = -1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def source(self) -> str:
        """How the value was produced, as finish events report it."""
        if self.attempts == 0:
            return "journal"
        if self.attempts > 1:
            return "retry"
        if self.worker < 0:
            return "serial"
        return "steal" if self.stolen else "pool"


def error_tail(error: str, limit: int = 200) -> str:
    """The last non-blank line of a traceback string, for events."""
    lines = [line for line in str(error).strip().splitlines() if line]
    tail = lines[-1] if lines else str(error)
    return tail[:limit]


# ---------------------------------------------------------------- workers


def reset_worker_signals() -> None:
    """Restore default signal dispositions in a forked worker.

    The CLI installs SIGINT/SIGTERM handlers that raise into the
    *parent's* dispatch loop for a graceful unwind; a forked worker
    inheriting them would catch the raised exception as an ordinary
    task failure and outlive the pool.  Workers therefore go back to
    ``SIG_DFL`` for SIGTERM (so a terminate kills them) and ignore
    SIGINT (a Ctrl-C is the parent's to handle; it tears the pool
    down explicitly)."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / platform quirks
        pass


def _worker_main(conn, parent_end, event_queue,
                 context_fields: Dict[str, str]) -> None:
    """Worker process body: receive one task, run it, send the outcome
    back on the same pipe.

    Single-buffered by design -- the parent only sends the next task
    after the previous outcome lands, which is what makes parent-side
    stealing possible (undispatched work never sits in a child's
    private queue).  One pipe per worker also means a dead worker is
    seen at once: its end closes and the parent's ``recv`` fails.

    A worker exits when its pipe reports EOF, which is also how it
    notices that the pool's owner died without shutting it down.  So
    the forked child first closes the parent's end of its own pipe,
    which it inherited: held open there, that end would keep
    ``conn.recv()`` blocked forever.  A worker also inherits the parent
    ends of the workers forked before it; those close when it exits,
    so an orphaned pool winds down newest worker first.
    """
    parent_end.close()
    reset_worker_signals()
    if event_queue is not None:
        set_bus(QueueEmitter(event_queue))
    seed_context(context_fields)
    bus = get_bus()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            # The owner is gone: nobody will read what is still queued,
            # so do not wait at exit for it to be flushed.
            if event_queue is not None:
                event_queue.cancel_join_thread()
            break
        if task is None:
            break
        start = time.perf_counter()
        try:
            reply = ("ok", task.execute(bus))
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            conn.send(reply + (time.perf_counter() - start,))
        except OSError:
            break
        except Exception:       # the value does not pickle
            conn.send(("err", traceback.format_exc(),
                       time.perf_counter() - start))


class _Worker:
    """Parent-side handle: process + pipe + what it is running now."""

    def __init__(self, worker_id: int, context, event_queue):
        self.worker_id = worker_id
        self.context = context
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
            args=(child_conn, parent_conn, self.event_queue,
                  current_context()),
            daemon=True)
        self.process.start()
        child_conn.close()

    def dispatch(self, seq: int, task: Task, stolen: bool) -> None:
        self.running = seq
        self.started_at = time.monotonic()
        self.stolen = stolen
        try:
            self.conn.send(task)
        except OSError:
            # The worker died while idle; the pool sees its pipe's EOF
            # and fails the task over like any other death.
            pass

    @property
    def idle(self) -> bool:
        return self.running is None

    def kill(self) -> None:
        """Stop the process now, whatever it is doing."""
        self.process.kill()
        self.process.join()
        self.conn.close()
        self.running = None

    def respawn(self) -> Optional[int]:
        """Replace a hung or dead worker with a fresh one on a fresh
        pipe; returns the old process's exit code."""
        self.kill()
        code = self.process.exitcode
        self.spawn()
        return code

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


# ------------------------------------------------------------------- pool


class WorkStealingPool:
    """Run a batch of :class:`Task` with stealing, retry, quarantine.

    ``workers`` is the process count (``<= 1`` runs inline);
    ``task_timeout_s`` bounds any single execution (``None`` = no
    limit); ``retry`` governs re-dispatch after failures, timeouts and
    worker deaths (default :data:`repro.harness.DEFAULT_POLICY`).
    ``bus`` pins the event bus (default: the ambient
    :func:`repro.obsv.get_bus` at each :meth:`run`); worker-side events
    are shipped back only when it is enabled.
    """

    def __init__(self, workers: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 task_timeout_s: Optional[float] = None,
                 bus: Optional[Bus] = None):
        self.workers = max(1, workers)
        self.retry = retry if retry is not None else DEFAULT_POLICY
        self.task_timeout_s = task_timeout_s
        self.bus = bus

    def _resolve_bus(self) -> Bus:
        return self.bus if self.bus is not None else get_bus()

    # ------------------------------------------------------------- plan

    def plan_deques(self, tasks: Sequence[Task], workers: int
                    ) -> List[collections.deque]:
        """Affine initial assignment: affinity groups round-robin onto
        workers in first-appearance order, tasks within a group staying
        in submission order on one deque.  Deterministic, so identical
        inputs produce identical initial placement."""
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
        (the service journals outcomes from it, so a kill loses at most
        the in-flight tasks); an exception it raises stops the run.
        ``should_stop`` is polled between tasks; when it returns true
        the run raises :class:`PoolCancelled` instead of dispatching
        further work.  The pool never raises for a task failure --
        exhausted tasks come back as quarantined ``error`` outcomes.
        Whatever stops the run early, busy workers are killed at once.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        bus = self._resolve_bus()
        if self.workers <= 1 or len(tasks) == 1:
            return self._run_inline(tasks, bus, on_result, should_stop)
        try:
            context = multiprocessing.get_context()
            event_queue = None
            if bus.enabled and context.get_start_method() == "fork":
                event_queue = context.Queue()
            pool = [_Worker(i, context, event_queue)
                    for i in range(min(self.workers, len(tasks)))]
        except OSError:
            log.warning("no process pool available; work-stealing pool "
                        "degrades to inline execution")
            return self._run_inline(tasks, bus, on_result, should_stop)
        return self._run_pool(tasks, pool, event_queue, bus, on_result,
                              should_stop)

    # ------------------------------------------------------ inline mode

    def _run_inline(self, tasks: Sequence[Task], bus: Bus,
                    on_result, should_stop=None) -> List[TaskOutcome]:
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        for seq, task in enumerate(tasks):
            if should_stop is not None and should_stop():
                raise PoolCancelled(f"stopped before task {seq}")
            attempt = 0
            error = ""
            outcome = None
            while True:
                attempt += 1
                start = time.perf_counter()
                try:
                    value = task.execute(bus)
                    outcome = TaskOutcome(
                        key=task.key, status="ok", value=value,
                        attempts=attempt,
                        elapsed_s=time.perf_counter() - start)
                    break
                except Exception as exc:
                    error = traceback.format_exc()
                    if not self._retry_later(task, attempt, error, bus,
                                             exc):
                        break
                    time.sleep(self.retry.delay_s(attempt))
            if outcome is None:
                outcome = self._quarantine(task, attempt, error, bus)
            self._settle(seq, outcome, outcomes, on_result)
        return outcomes

    # -------------------------------------------------------- pool mode

    def _run_pool(self, tasks: Sequence[Task], pool: List[_Worker],
                  event_queue, bus: Bus, on_result,
                  should_stop=None) -> List[TaskOutcome]:
        # Imported here, not at module level: it pulls in subprocess
        # and friends, which an in-process run never needs.
        from multiprocessing.connection import wait
        n_workers = len(pool)
        deques = self.plan_deques(tasks, n_workers)
        attempts = [0] * len(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        #: (ready_at, seq) for tasks sitting out a retry backoff.
        delayed: List[tuple] = []
        settled = 0

        def fail(worker: _Worker, seq: int, error: str, elapsed: float,
                 exc: BaseException) -> int:
            """Retry or quarantine one failed execution.  Returns 1 if
            the task settled (quarantined), 0 if it was re-queued."""
            attempts[seq] += 1
            if self._retry_later(tasks[seq], attempts[seq], error, bus,
                                 exc):
                delayed.append((time.monotonic()
                                + self.retry.delay_s(attempts[seq]), seq))
                return 0
            outcome = self._quarantine(tasks[seq], attempts[seq], error,
                                       bus, worker=worker.worker_id)
            outcome.elapsed_s = elapsed
            self._settle(seq, outcome, outcomes, on_result)
            return 1

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

                busy = {worker.conn: worker for worker in pool
                        if not worker.idle}
                ready = wait(list(busy),
                             self._tick_timeout(pool, delayed, now))
                if not ready:
                    for worker, seq in self._reap_hung(pool):
                        settled += fail(
                            worker, seq,
                            f"task timeout after "
                            f"{self.task_timeout_s:.1f}s "
                            f"(worker {worker.worker_id} killed)",
                            self.task_timeout_s or 0.0,
                            TimeoutError("task timeout"))
                    continue

                drain_queue(event_queue, bus)
                for conn in ready:
                    worker = busy[conn]
                    seq = worker.running
                    try:
                        status, payload, elapsed = conn.recv()
                    except (EOFError, OSError):
                        code = worker.respawn()
                        log.warning("worker %d died on task %s (exit "
                                    "code %s); respawned",
                                    worker.worker_id, seq, code)
                        error = (f"worker {worker.worker_id} died (exit "
                                 f"code {code})")
                        settled += fail(worker, seq, error, 0.0,
                                        RuntimeError(error))
                        continue
                    worker.running = None
                    if status == "ok":
                        outcome = TaskOutcome(
                            key=tasks[seq].key, status="ok",
                            value=payload, attempts=attempts[seq] + 1,
                            worker=worker.worker_id, elapsed_s=elapsed,
                            stolen=worker.stolen)
                        self._settle(seq, outcome, outcomes, on_result)
                        settled += 1
                    else:
                        settled += fail(worker, seq, payload, elapsed,
                                        RuntimeError(payload))
        except BaseException:
            for worker in pool:
                if not worker.idle:
                    worker.kill()
            raise
        finally:
            # Drain before joining too: a worker blocked flushing its
            # events into a full queue would not exit.
            drain_queue(event_queue, bus)
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
            worker.dispatch(seq, tasks[seq], stolen)

    def _tick_timeout(self, pool, delayed, now: float) -> float:
        """How long to wait for an outcome: until the nearest task
        deadline or retry-backoff expiry, bounded to stay responsive."""
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
                worker.respawn()
                hung.append((worker, seq))
        return hung

    # -------------------------------------------------------- settling

    def _retry_later(self, task: Task, attempt: int, error: str,
                     bus: Bus, exc: BaseException) -> bool:
        """Does the policy allow another execution after ``attempt``
        failures?  If so, narrate it as a ``task_retry`` event."""
        if not self.retry.should_retry(attempt, exc):
            return False
        bus.emit("task_retry", label=task.describe(), attempt=attempt + 1,
                 delay_s=round(self.retry.delay_s(attempt), 3),
                 error=error_tail(error))
        return True

    def _quarantine(self, task: Task, attempts: int, error: str,
                    bus: Bus, worker: int = -1) -> TaskOutcome:
        bus.emit("task_quarantine", label=task.describe(),
                 attempts=attempts, error=error_tail(error))
        log.warning("task %s quarantined after %d attempt(s): %s",
                    task.describe(), attempts, error_tail(error))
        return TaskOutcome(key=task.key, status="error", error=error,
                           attempts=attempts, worker=worker)

    @staticmethod
    def _settle(seq: int, outcome: TaskOutcome, outcomes,
                on_result) -> None:
        outcome.index = seq
        outcomes[seq] = outcome
        if on_result is not None:
            on_result(outcome)
