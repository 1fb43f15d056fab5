"""Kill-and-resume acceptance: the service's durability contract.

A 160-trial stratified campaign (the ``bench_campaign`` fixture:
hashmap + queue x PMEM-Spec + IntelX86, budget 40 per cell) runs as a
service job in a subprocess and is SIGKILLed mid-flight.  Restarting
over the same store must (a) re-queue the job via
:meth:`JobStore.recover`, (b) re-execute *only* the chunks whose
outcomes never reached the task journal (asserted via the
``tasks_from_journal`` / ``tasks_executed`` counters the runner writes
into the terminal journal entry), and (c) produce a
:class:`CampaignReport` byte-identical to an uninterrupted run modulo
wall-clock (:func:`report_fingerprint`).  The victim's pool workers
must not outlive it: each exits within a few seconds of the SIGKILL."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.service import (
    JobRunner,
    JobSpec,
    JobStore,
    report_fingerprint,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# The bench_campaign 160-trial fixture, verbatim.
WORKLOADS = ["hashmap", "queue"]
DESIGNS = ["PMEM-Spec", "IntelX86"]
BUDGET = 40
N_THREADS = 2
FASES = 400
SEED = 42
RUNGS = 16
CHUNK = 10

#: 4 cells x ceil(40/10) trial chunks, plus two profiling passes
#: (ladder sizing + cache seeding) of one probe per cell.
EXPECTED_TASKS = 4 * (BUDGET // CHUNK) + 2 * 4

#: Journaled outcomes to wait for before pulling the plug.
KILL_AFTER_TASKS = 6

#: How long a killed victim's pool workers may linger.
WORKER_EXIT_S = 10.0

VICTIM = """\
import sys
from repro.service import JobRunner, JobSpec, JobStore
from tests.service.test_resume import fixture_spec
store = JobStore(sys.argv[1])
record = store.submit(fixture_spec())
JobRunner(store, workers=2).run_job(record.job_id)
"""


def fixture_spec() -> JobSpec:
    return JobSpec.campaign(WORKLOADS, DESIGNS, budget=BUDGET,
                            seed=SEED, n_threads=N_THREADS,
                            fases_per_thread=FASES,
                            snapshot_rungs=RUNGS, batch=CHUNK)


@pytest.fixture(scope="module")
def reference_fingerprint(tmp_path_factory):
    """An uninterrupted run of the same job: the ground truth."""
    store = JobStore(str(tmp_path_factory.mktemp("reference")))
    record = store.submit(fixture_spec())
    done = JobRunner(store, workers=2).run_job(record.job_id)
    assert done.state == "done", done.detail
    assert done.detail["tasks_total"] == EXPECTED_TASKS
    return report_fingerprint(store.load_report(record.job_id))


def _proc_stat(pid: int):
    """(state, ppid) of a live process from /proc, or None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children(pid: int):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit()
            and (_proc_stat(int(entry)) or ("", -1))[1] == pid]


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _count_lines(path: str) -> int:
    try:
        with open(path) as handle:
            return sum(1 for line in handle if line.strip())
    except OSError:
        return 0


def test_kill_mid_campaign_then_resume_byte_identical(
        tmp_path, reference_fingerprint):
    root = str(tmp_path / "store")
    store = JobStore(root)
    job_id = fixture_spec().job_id()

    env = dict(os.environ)
    env["PYTHONPATH"] = (SRC + os.pathsep
                         + os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__)))
                         + os.pathsep + env.get("PYTHONPATH", ""))
    victim = subprocess.Popen([sys.executable, "-c", VICTIM, root],
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    tasks_path = store.tasks_path(job_id)
    deadline = time.monotonic() + 120.0
    while _count_lines(tasks_path) < KILL_AFTER_TASKS:
        if victim.poll() is not None:
            pytest.fail("victim finished before it could be killed; "
                        "raise KILL_AFTER_TASKS")
        if time.monotonic() > deadline:
            victim.kill()
            pytest.fail("victim never journaled enough tasks")
        time.sleep(0.02)
    has_proc = os.path.isdir("/proc/self")
    workers = _children(victim.pid) if has_proc else []
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)

    if has_proc:
        # Orphaned workers must notice their owner is gone and exit.
        assert workers, "victim had no pool workers at the kill"
        deadline = time.monotonic() + WORKER_EXIT_S
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"pool workers {[p for p in workers if _running(p)]} "
                f"outlived their SIGKILLed owner")
            time.sleep(0.05)

    # The kill left the journal tail at `running`; recovery re-queues.
    assert store.record(job_id).state == "running"
    [requeued] = store.recover()
    assert requeued.job_id == job_id
    assert requeued.state == "queued"
    assert requeued.detail == {"resumed": True, "previous": "running"}

    journaled = len(store.tasks(job_id))
    assert 0 < journaled < EXPECTED_TASKS, (
        f"kill landed outside the window ({journaled} of "
        f"{EXPECTED_TASKS} tasks journaled)")

    done = JobRunner(store, workers=2).run_job(job_id)
    assert done.state == "done", done.detail

    # Only the missing work re-simulated, attributed exactly.
    assert done.detail["tasks_total"] == EXPECTED_TASKS
    assert done.detail["tasks_from_journal"] == journaled
    assert done.detail["tasks_executed"] == EXPECTED_TASKS - journaled

    # The resumed report is byte-identical modulo wall-clock.
    resumed = report_fingerprint(store.load_report(job_id))
    assert resumed == reference_fingerprint
