"""The worker pool's failure paths: a worker that dies mid-task, an
early stop with busy workers, and the import footprint of the harness
that hosts the pool.

Each pool test runs under ``signal.alarm``, so a pool that hangs fails
the test instead of stalling the suite.  Task functions live at module
level so the process-pool path can pickle them.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness import (
    ParallelExecutor,
    PoolCancelled,
    Task,
    WorkerTaskError,
    WorkStealingPool,
)
from repro.obsv import EventBus

#: Wall-clock bound for one pool test before the alarm fails it.
ALARM_S = 30


@pytest.fixture(autouse=True)
def _alarm():
    def expire(_signum, _frame):
        raise TimeoutError(f"pool test still running after {ALARM_S}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(ALARM_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _die(parent: int) -> None:
    """SIGKILL the worker running this -- never the test process."""
    if os.getpid() == parent:
        raise RuntimeError("refusing to SIGKILL the test runner")
    os.kill(os.getpid(), signal.SIGKILL)


def _dies_first_time(arg):
    """Kills its worker on the first attempt only (the marker file is
    the cross-process attempt counter); ``marker=None`` never dies."""
    parent, marker, value = arg
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("killed once")
        _die(parent)
    return value


def _always_dies(parent):
    _die(parent)


def _sleep_then(arg):
    delay, value = arg
    time.sleep(delay)
    return value


def _collecting_bus():
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    return bus, events


class TestDeadWorker:
    def test_worker_killed_once_is_retried(self, tmp_path):
        bus, events = _collecting_bus()
        marker = str(tmp_path / "marker")
        out = ParallelExecutor(jobs=2, bus=bus).map(
            _dies_first_time, [(os.getpid(), marker, "survived"),
                               (os.getpid(), None, "bystander")])
        assert out == ["survived", "bystander"]
        retries = [e for e in events if e["kind"] == "task_retry"]
        assert len(retries) == 1
        assert "died" in retries[0]["error"]

    def test_worker_that_always_dies_raises(self):
        started = time.monotonic()
        with pytest.raises(WorkerTaskError, match="died"):
            ParallelExecutor(jobs=2).map(_always_dies,
                                         [os.getpid(), os.getpid()])
        assert time.monotonic() - started < 15.0


class TestEarlyStop:
    def test_cancel_kills_busy_workers_at_once(self):
        pool = WorkStealingPool(workers=2)
        tasks = [Task(key=f"long{i}", fn=_sleep_then, arg=(30.0, i),
                      affinity=i) for i in range(2)]
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(PoolCancelled):
            pool.run(tasks,
                     should_stop=lambda: time.monotonic() - started > 1.0)
        assert time.monotonic() - started < 2.0
        assert set(multiprocessing.active_children()) <= before


def test_harness_import_loads_no_service_or_network_modules():
    # ``setup_s`` of every benchmark pass is the harness import; the
    # pool living in the harness must not drag the service in.
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(sys.modules["repro"].__file__)))
    probe = ("import sys, repro.harness; print(sorted(m for m in "
             "sys.modules if m.startswith('repro.service') or m in "
             "('asyncio', 'urllib.request')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"
