"""JobSpec/JobStore semantics: content-hash identity, idempotent
submission, torn-tail-tolerant journals, recovery, cancellation."""

import json
import os

import pytest

from repro.service import JobError, JobSpec, JobStore


def campaign_spec(name: str = "", budget: int = 4) -> JobSpec:
    return JobSpec.campaign(["hashmap"], ["PMEM-Spec"], budget=budget,
                            fases_per_thread=4, snapshot_rungs=4,
                            batch=2, name=name)


class TestJobSpec:
    def test_job_id_excludes_display_name(self):
        assert (campaign_spec(name="alpha").job_id()
                == campaign_spec(name="beta").job_id())

    def test_job_id_tracks_content(self):
        assert (campaign_spec(budget=4).job_id()
                != campaign_spec(budget=8).job_id())

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec(kind="mapreduce", params={})

    def test_schema_version_pinned(self):
        params = campaign_spec().params
        with pytest.raises(JobError, match="schema"):
            JobSpec(kind="campaign", params=params, schema_version=99)

    def test_campaign_validates_workload_names(self):
        with pytest.raises(ValueError):
            JobSpec.campaign(["no-such-workload"], ["PMEM-Spec"])

    def test_campaign_rejects_batch_below_one(self):
        with pytest.raises(JobError, match="batch"):
            JobSpec.campaign(["hashmap"], ["PMEM-Spec"], batch=0)

    def test_sweep_requires_specs(self):
        with pytest.raises(JobError, match="non-empty"):
            JobSpec(kind="sweep", params={"specs": []})

    def test_round_trip(self):
        spec = campaign_spec(name="rt")
        clone = JobSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.job_id() == spec.job_id()
        assert clone.describe() == spec.describe()


class TestJobStore:
    def test_submit_is_idempotent(self, tmp_path):
        store = JobStore(str(tmp_path))
        first = store.submit(campaign_spec())
        second = store.submit(campaign_spec(name="same-content"))
        assert first.job_id == second.job_id
        assert second.state == "queued"
        # The double submit did not journal a second transition.
        assert len(store.journal(first.job_id)) == 1

    def test_terminal_job_needs_force_to_requeue(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        store.set_state(record.job_id, "done")
        assert store.submit(campaign_spec()).state == "done"
        requeued = store.submit(campaign_spec(), force=True)
        assert requeued.state == "queued"
        assert requeued.detail.get("resubmitted") is True

    def test_running_job_submit_is_noop(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        store.set_state(record.job_id, "running", pid=123)
        assert store.submit(campaign_spec()).state == "running"

    def test_journal_tolerates_torn_tail(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        store.set_state(record.job_id, "running")
        with open(store.journal_path(record.job_id), "a") as handle:
            handle.write('{"ts": 1.0, "state": "don')   # SIGKILL tear
        assert store.record(record.job_id).state == "running"

    def test_recover_requeues_unfinished(self, tmp_path):
        store = JobStore(str(tmp_path))
        killed = store.submit(campaign_spec(budget=4))
        store.set_state(killed.job_id, "running", pid=99)
        graceful = store.submit(campaign_spec(budget=8))
        store.set_state(graceful.job_id, "interrupted")
        finished = store.submit(campaign_spec(budget=12))
        store.set_state(finished.job_id, "done")

        resumed = store.recover()
        assert {record.job_id for record in resumed} == {
            killed.job_id, graceful.job_id}
        for record in resumed:
            assert record.state == "queued"
            assert record.detail.get("resumed") is True
        assert store.record(finished.job_id).state == "done"
        assert set(store.queued_ids()) == {killed.job_id,
                                           graceful.job_id}

    def test_task_journal_last_write_wins(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        store.append_task(record.job_id, "k1", {"value": 1})
        store.append_task(record.job_id, "k2", {"value": 2})
        store.append_task(record.job_id, "k1", {"value": 3})
        assert store.tasks(record.job_id) == {
            "k1": {"value": 3}, "k2": {"value": 2}}

    def test_cancel_queued_is_immediate(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        assert store.request_cancel(record.job_id).state == "cancelled"

    def test_cancel_running_leaves_marker(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        store.set_state(record.job_id, "running")
        store.request_cancel(record.job_id)
        assert store.record(record.job_id).state == "running"
        assert store.cancel_requested(record.job_id)
        store.clear_cancel(record.job_id)
        assert not store.cancel_requested(record.job_id)

    def test_report_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(campaign_spec())
        assert store.load_report(record.job_id) is None
        store.save_report(record.job_id, {"kind": "campaign", "n": 1})
        assert store.load_report(record.job_id) == {
            "kind": "campaign", "n": 1}

    def test_unknown_job_raises(self, tmp_path):
        store = JobStore(str(tmp_path))
        with pytest.raises(JobError, match="unknown job"):
            store.record("deadbeef")

    def test_shared_tiers_exist(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert os.path.isdir(store.cache_dir)
        assert os.path.isdir(store.snapshot_dir)
