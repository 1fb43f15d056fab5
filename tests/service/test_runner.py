"""ServiceExecutor journal short-circuit + JobRunner state machine.

The executor is the resumability hinge: identical work must produce
identical task keys, journaled outcomes must replay instead of
re-simulating, and the runner must tell interrupted (resumable) apart
from cancelled (terminal)."""

import os

import pytest

from repro.harness import RetryPolicy, WorkerTaskError
from repro.harness.sweep import RunSpec, Sweep
from repro.service import (
    JobRunner,
    JobSpec,
    JobStore,
    ServiceExecutor,
    report_fingerprint,
    task_key,
)

FAST_RETRY = RetryPolicy(max_attempts=1)


def _double(x):
    return x * 2


def _double_chunk(chunk):
    return [item * 2 for item in chunk]


def _bad_chunk(chunk):
    return [0]                      # wrong length on purpose


def _always_fails(x):
    raise ValueError("poison")


def tiny_campaign(name: str = "") -> JobSpec:
    return JobSpec.campaign(["hashmap"], ["PMEM-Spec"], budget=4,
                            fases_per_thread=4, snapshot_rungs=4,
                            batch=2, name=name)


def make_executor(tmp_path, job="j1"):
    store = JobStore(str(tmp_path))
    os.makedirs(store.job_dir(job), exist_ok=True)
    return store, ServiceExecutor(store, job, retry=FAST_RETRY)


class TestTaskKey:
    def test_stable_across_dict_ordering(self):
        assert (task_key(_double, {"a": 1, "b": 2})
                == task_key(_double, {"b": 2, "a": 1}))

    def test_distinguishes_fn_and_arg(self):
        assert task_key(_double, 1) != task_key(_double, 2)
        assert task_key(_double, 1) != task_key(_double_chunk, 1)


class TestServiceExecutor:
    def test_map_journals_then_short_circuits(self, tmp_path):
        store, executor = make_executor(tmp_path)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor.stats == {"tasks_from_journal": 0,
                                  "tasks_executed": 3,
                                  "tasks_total": 3}
        # A fresh executor over the same store replays the journal.
        resumed = ServiceExecutor(store, "j1")
        assert resumed.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert resumed.stats == {"tasks_from_journal": 3,
                                 "tasks_executed": 0,
                                 "tasks_total": 3}

    def test_map_batched_scatter_and_resume(self, tmp_path):
        store, executor = make_executor(tmp_path)
        items = list(range(10))
        key = lambda x: x // 5                          # noqa: E731
        out = executor.map_batched(_double_chunk, items, key=key,
                                   chunk_size=3)
        assert out == [x * 2 for x in items]
        assert executor.stats["tasks_executed"] == 4    # 2 per group
        resumed = ServiceExecutor(store, "j1")
        assert resumed.map_batched(_double_chunk, items, key=key,
                                   chunk_size=3) == out
        assert resumed.stats["tasks_executed"] == 0
        assert resumed.stats["tasks_from_journal"] == 4

    def test_partial_journal_runs_only_missing(self, tmp_path):
        store, executor = make_executor(tmp_path)
        executor.map(_double, [1, 2])
        resumed = ServiceExecutor(store, "j1")
        assert resumed.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert resumed.stats["tasks_from_journal"] == 2
        assert resumed.stats["tasks_executed"] == 2

    def test_batched_length_mismatch_raises(self, tmp_path):
        _store, executor = make_executor(tmp_path)
        with pytest.raises(WorkerTaskError, match="chunk"):
            executor.map_batched(_bad_chunk, [1, 2, 3], chunk_size=3)

    def test_quarantined_task_fails_the_map(self, tmp_path):
        _store, executor = make_executor(tmp_path)
        with pytest.raises(WorkerTaskError, match="quarantined"):
            executor.map(_always_fails, [1])


class TestReportFingerprint:
    BASE = {"schema_version": 1, "elapsed_s": 1.5,
            "obsv": {"events": 10},
            "params": {"budget": 4, "snapshot_dir": "/tmp/a"},
            "cells": [{"passes": 3}]}

    def test_ignores_wall_clock_and_location(self):
        other = {"schema_version": 1, "elapsed_s": 99.0,
                 "obsv": {"events": 123},
                 "params": {"budget": 4, "snapshot_dir": "/tmp/b"},
                 "cells": [{"passes": 3}]}
        assert (report_fingerprint(self.BASE)
                == report_fingerprint(other))

    def test_tracks_outcomes(self):
        other = {**self.BASE, "cells": [{"passes": 2}]}
        assert (report_fingerprint(self.BASE)
                != report_fingerprint(other))


class TestJobRunner:
    def test_campaign_done_then_forced_rerun_replays(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(tiny_campaign())
        runner = JobRunner(store, workers=1)
        done = runner.run_job(record.job_id)
        assert done.state == "done"
        assert done.detail["tasks_executed"] > 0
        assert done.detail["tasks_from_journal"] == 0
        first = store.load_report(record.job_id)
        assert first["schema_version"] >= 1

        rerun = store.submit(tiny_campaign(), force=True)
        assert rerun.state == "queued"
        again = runner.run_job(record.job_id)
        assert again.state == "done"
        assert again.detail["tasks_executed"] == 0
        assert (again.detail["tasks_from_journal"]
                == done.detail["tasks_executed"])
        assert (report_fingerprint(store.load_report(record.job_id))
                == report_fingerprint(first))

    def test_sweep_resumes_through_cache(self, tmp_path):
        store = JobStore(str(tmp_path))
        sweep = Sweep.grid(benchmarks=("tatp",),
                           designs=("PMEM-Spec",), n_threads=2,
                           seeds=7, fases_per_thread=5)
        spec = JobSpec.sweep(sweep.specs, name="tiny")
        record = store.submit(spec)
        runner = JobRunner(store, workers=1)
        done = runner.run_job(record.job_id)
        assert done.state == "done"
        assert done.detail["cache_misses"] == 1
        report = store.load_report(record.job_id)
        assert report["kind"] == "sweep" and report["n_specs"] == 1

        store.submit(spec, force=True)
        again = runner.run_job(record.job_id)
        assert again.state == "done"
        assert again.detail["cache_hits"] == 1
        assert again.detail["cache_misses"] == 0

    def test_cancel_marker_terminates_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(tiny_campaign())
        with open(os.path.join(store.job_dir(record.job_id),
                               "CANCEL"), "w") as handle:
            handle.write("now")
        outcome = JobRunner(store, workers=1).run_job(record.job_id)
        assert outcome.state == "cancelled"
        assert not store.cancel_requested(record.job_id)
        # Terminal: recovery must not resurrect it.
        assert store.recover() == []

    def test_interrupt_is_resumable(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(tiny_campaign())
        stopped = JobRunner(store, workers=1,
                            interrupt=lambda: True).run_job(
                                record.job_id)
        assert stopped.state == "interrupted"
        [requeued] = store.recover()
        assert requeued.job_id == record.job_id
        assert requeued.state == "queued"
        finished = JobRunner(store, workers=1).run_job(record.job_id)
        assert finished.state == "done"

    def test_failed_job_records_error(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(tiny_campaign())
        runner = JobRunner(store, workers=1)
        original = runner._run_campaign

        def explode(*args, **kwargs):
            raise RuntimeError("engine fell over")

        runner._run_campaign = explode
        try:
            outcome = runner.run_job(record.job_id)
        finally:
            runner._run_campaign = original
        assert outcome.state == "failed"
        assert "engine fell over" in outcome.detail["error"]
