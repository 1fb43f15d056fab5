"""Job model + durable queue: what the service remembers across kills.

A *job* is one unit of service work -- a whole :class:`RunSpec` sweep
or a whole crash-consistency campaign -- identified by a content hash
of its canonical spec (the same scheme as ``RunSpec.cache_key``), so
submitting the same work twice yields the same job, and a resubmission
of a half-finished job is literally a resume.

Durability is a directory tree of append-only JSON-Lines files::

    <root>/jobs/<job_id>/spec.json      the canonical JobSpec (atomic)
    <root>/jobs/<job_id>/journal.jsonl  state transitions, last wins
    <root>/jobs/<job_id>/tasks.jsonl    per-task outcomes as they land
    <root>/jobs/<job_id>/events.jsonl   the job's bus events (NDJSON)
    <root>/jobs/<job_id>/report.json    the final result document
    <root>/cache                        shared per-spec result cache
    <root>/snapshots                    shared SnapshotStore rung tier

States: ``queued -> running -> done | failed | cancelled`` (plus
``interrupted``, written by a graceful shutdown).  The journal is the
single source of truth: a killed service leaves a job whose last line
is ``running``, and :meth:`JobStore.recover` re-queues exactly those
jobs on restart.  Task outcomes in ``tasks.jsonl`` are keyed by a
content hash of the task's input, so a resumed job replays completed
work from the journal and re-simulates only what is missing.

Every line is written with ``flush()`` before the call returns; a
SIGKILL can tear at most the line being written, and every reader here
tolerates a torn final line (the OS page cache guarantees previously
flushed lines survive process death).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

JOB_SCHEMA_VERSION = 1

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, INTERRUPTED)
#: States a restart must not resurrect.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})
#: States :meth:`JobStore.recover` re-queues.
RESUMABLE_STATES = frozenset({QUEUED, RUNNING, INTERRUPTED})

JOB_KINDS = ("sweep", "campaign")


class JobError(ValueError):
    """A malformed job spec or an impossible state transition."""


# ---------------------------------------------------------------- JobSpec


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work, fully canonicalised.

    ``kind`` selects the execution recipe (``"sweep"`` fans a list of
    resolved :class:`repro.harness.RunSpec` dicts over the pool;
    ``"campaign"`` drives :func:`repro.validation.run_campaign` with
    journaled, resumable fan-out).  ``params`` is the canonical
    JSON-ready payload; ``name`` is a free-form display tag excluded
    from the job id, mirroring ``RunSpec.label``.
    """

    kind: str
    params: Mapping
    name: str = ""
    schema_version: int = field(default=JOB_SCHEMA_VERSION)

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {self.kind!r}; choose "
                           f"from {JOB_KINDS}")
        if self.schema_version != JOB_SCHEMA_VERSION:
            raise JobError(
                f"job schema {self.schema_version} not supported "
                f"(this service writes {JOB_SCHEMA_VERSION})")
        self.validate()

    # ---------------------------------------------------- constructors

    @classmethod
    def sweep(cls, specs, name: str = "") -> "JobSpec":
        """A sweep job from RunSpecs (or an iterable of their dicts)."""
        from ..harness.sweep import RunSpec
        canonical = []
        for spec in specs:
            if not isinstance(spec, RunSpec):
                spec = RunSpec.from_dict(spec)
            canonical.append(spec.to_dict())
        return cls(kind="sweep", params={"specs": canonical}, name=name)

    @classmethod
    def campaign(cls, workloads, designs, planner: str = "stratified",
                 fault: str = "power-cut", budget: int = 200,
                 seed: int = 42, n_threads: int = 2,
                 fases_per_thread: int = 10, log_mode: str = "undo",
                 shrink: bool = False, snapshot_rungs: int = 16,
                 batch: int = 10, name: str = "") -> "JobSpec":
        """A campaign job; defaults mirror the batched campaign path
        (per-cell rung ladders sized to ~16 rungs, chunked trials)."""
        return cls(kind="campaign", name=name, params={
            "workloads": list(workloads), "designs": list(designs),
            "planner": planner, "fault": fault, "budget": budget,
            "seed": seed, "n_threads": n_threads,
            "fases_per_thread": fases_per_thread, "log_mode": log_mode,
            "shrink": shrink, "snapshot_rungs": snapshot_rungs,
            "batch": batch,
        })

    # ------------------------------------------------------ validation

    def validate(self) -> None:
        if self.kind == "sweep":
            specs = self.params.get("specs")
            if not specs:
                raise JobError("sweep job needs a non-empty "
                               "params['specs'] list")
            from ..harness.sweep import RunSpec
            for payload in specs:
                try:
                    RunSpec.from_dict(payload)
                except (ValueError, KeyError, TypeError) as exc:
                    raise JobError(f"bad sweep spec {payload!r}: "
                                   f"{exc}") from None
            return
        # campaign
        from ..validation.campaign import TrialSpec
        workloads = self.params.get("workloads")
        designs = self.params.get("designs")
        if not workloads or not designs:
            raise JobError("campaign job needs non-empty workloads "
                           "and designs lists")
        if self.params.get("batch", 10) < 1:
            raise JobError("campaign batch must be >= 1 (trials per "
                           "chunk)")
        for workload in workloads:
            for design in designs:
                # TrialSpec.__post_init__ is the existing name check.
                TrialSpec(workload=workload, design=design,
                          fault=self.params.get("fault", "power-cut"),
                          n_threads=self.params.get("n_threads", 2),
                          log_mode=self.params.get("log_mode", "undo"))

    # ---------------------------------------------------- serialisation

    def to_dict(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "params": json.loads(json.dumps(dict(self.params))),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobSpec":
        return cls(kind=payload["kind"], params=payload["params"],
                   name=payload.get("name", ""),
                   schema_version=payload.get("schema_version",
                                              JOB_SCHEMA_VERSION))

    def job_id(self) -> str:
        """Content hash of everything that determines the work (the
        ``RunSpec.cache_key`` scheme: canonical JSON, sorted keys,
        display fields excluded, schema version included)."""
        payload = self.to_dict()
        del payload["name"]
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def describe(self) -> str:
        tag = f" [{self.name}]" if self.name else ""
        if self.kind == "sweep":
            return f"sweep x{len(self.params['specs'])}{tag}"
        return (f"campaign {'x'.join(self.params['workloads'])} / "
                f"{'x'.join(self.params['designs'])} "
                f"budget={self.params.get('budget')}{tag}")


# --------------------------------------------------------------- records


@dataclass
class JobRecord:
    """One job's current view: spec + last journaled state."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    created_ts: float = 0.0
    updated_ts: float = 0.0
    detail: Dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "created_ts": self.created_ts,
            "updated_ts": self.updated_ts,
            "detail": self.detail,
        }


def _read_jsonl(path: str) -> List[Dict]:
    """Read a JSON-Lines file, tolerating a torn final line (the only
    damage a SIGKILL mid-write can inflict on an append-only file)."""
    records: List[Dict] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # Torn tail; anything after it is unreachable
                    # anyway because appends are sequential.
                    break
    except OSError:
        pass
    return records


def _append_jsonl(path: str, record: Dict) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
        handle.write("\n")
        handle.flush()


# -------------------------------------------------------------- JobStore


class JobStore:
    """The durable half of the service: specs, journals, task outcomes.

    Purely filesystem-backed and lock-free on the happy path: one
    process appends to a given job's journal at a time (the service
    runs jobs sequentially), and readers only ever see a prefix.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.jobs_root, exist_ok=True)

    # ----------------------------------------------------------- layout

    @property
    def jobs_root(self) -> str:
        return os.path.join(self.root, "jobs")

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_root, job_id)

    def spec_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "spec.json")

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "journal.jsonl")

    def tasks_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "tasks.jsonl")

    def events_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "events.jsonl")

    def report_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "report.json")

    @property
    def cache_dir(self) -> str:
        """Shared per-spec result cache (the sweep artifact tier)."""
        path = os.path.join(self.root, "cache")
        os.makedirs(path, exist_ok=True)
        return path

    @property
    def snapshot_dir(self) -> str:
        """Shared content-addressed rung store (the campaign tier)."""
        path = os.path.join(self.root, "snapshots")
        os.makedirs(path, exist_ok=True)
        return path

    # ------------------------------------------------------- submission

    def submit(self, spec: JobSpec, force: bool = False) -> JobRecord:
        """Admit a job; idempotent on content.

        A brand-new spec is journaled ``queued``.  Resubmitting an
        in-flight or interrupted job is a no-op (it is already going
        to run); resubmitting a *terminal* job returns the finished
        record unless ``force=True``, which re-queues it -- completed
        task outcomes remain journaled, so the re-run only simulates
        what the artifact tier cannot answer.
        """
        job_id = spec.job_id()
        directory = self.job_dir(job_id)
        os.makedirs(directory, exist_ok=True)
        spec_path = self.spec_path(job_id)
        if not os.path.exists(spec_path):
            staging = f"{spec_path}.tmp.{os.getpid()}"
            with open(staging, "w") as handle:
                json.dump(spec.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            os.replace(staging, spec_path)
        record = self.record(job_id)
        if record.state in TERMINAL_STATES and not force:
            return record
        if record.state in (RUNNING,):
            return record
        if record.state != QUEUED or not _read_jsonl(
                self.journal_path(job_id)):
            self.set_state(job_id, QUEUED,
                           resubmitted=bool(record.terminal))
        return self.record(job_id)

    # ---------------------------------------------------------- journal

    def set_state(self, job_id: str, state: str, **detail) -> Dict:
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        record = {"ts": round(time.time(), 6), "state": state}
        record.update(detail)
        _append_jsonl(self.journal_path(job_id), record)
        return record

    def journal(self, job_id: str) -> List[Dict]:
        return _read_jsonl(self.journal_path(job_id))

    def record(self, job_id: str) -> JobRecord:
        spec_path = self.spec_path(job_id)
        try:
            with open(spec_path) as handle:
                spec = JobSpec.from_dict(json.load(handle))
        except OSError:
            raise JobError(f"unknown job {job_id!r}") from None
        entries = self.journal(job_id)
        record = JobRecord(job_id=job_id, spec=spec)
        if entries:
            record.created_ts = entries[0].get("ts", 0.0)
            last = entries[-1]
            record.state = last.get("state", QUEUED)
            record.updated_ts = last.get("ts", 0.0)
            record.detail = {key: value for key, value in last.items()
                             if key not in ("ts", "state")}
        return record

    def list_records(self) -> List[JobRecord]:
        records = []
        try:
            names = sorted(os.listdir(self.jobs_root))
        except OSError:
            return records
        for name in names:
            try:
                records.append(self.record(name))
            except JobError:
                continue
        return records

    def queued_ids(self) -> List[str]:
        """Job ids whose latest state is ``queued``, submission order
        (journal birth time, then id for stability)."""
        queued = [record for record in self.list_records()
                  if record.state == QUEUED]
        queued.sort(key=lambda r: (r.created_ts, r.job_id))
        return [record.job_id for record in queued]

    def recover(self) -> List[JobRecord]:
        """Re-queue every job a previous process left unfinished.

        Called once at service start: any job whose journal tail is
        ``running`` (killed mid-run) or ``interrupted`` (graceful
        shutdown) is appended a ``queued`` transition with
        ``resumed=True``.  Returns the re-queued records.
        """
        resumed = []
        for record in self.list_records():
            if record.state in (RUNNING, INTERRUPTED):
                self.set_state(record.job_id, QUEUED, resumed=True,
                               previous=record.state)
                resumed.append(self.record(record.job_id))
        return resumed

    # ----------------------------------------------------- task journal

    def append_task(self, job_id: str, key: str, value) -> None:
        """Journal one completed task's outcome (key = content hash of
        the task input; value must be JSON-ready)."""
        _append_jsonl(self.tasks_path(job_id),
                      {"key": key, "value": value})

    def tasks(self, job_id: str) -> Dict[str, object]:
        """All journaled task outcomes, last write per key wins."""
        out: Dict[str, object] = {}
        for record in _read_jsonl(self.tasks_path(job_id)):
            if "key" in record:
                out[record["key"]] = record.get("value")
        return out

    # ----------------------------------------------------- cancellation

    def _cancel_marker(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "CANCEL")

    def request_cancel(self, job_id: str) -> JobRecord:
        """Ask a job to stop: queued jobs cancel immediately; running
        jobs get a marker the runner honours between tasks."""
        record = self.record(job_id)
        if record.terminal:
            return record
        if record.state == RUNNING:
            with open(self._cancel_marker(job_id), "w") as handle:
                handle.write(str(time.time()))
                handle.flush()
            return record
        self.set_state(job_id, CANCELLED, requested=True)
        return self.record(job_id)

    def cancel_requested(self, job_id: str) -> bool:
        return os.path.exists(self._cancel_marker(job_id))

    def clear_cancel(self, job_id: str) -> None:
        try:
            os.unlink(self._cancel_marker(job_id))
        except OSError:
            pass

    # ----------------------------------------------------------- report

    def save_report(self, job_id: str, payload: Dict) -> str:
        path = self.report_path(job_id)
        staging = f"{path}.tmp.{os.getpid()}"
        with open(staging, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(staging, path)
        return path

    def load_report(self, job_id: str) -> Optional[Dict]:
        try:
            with open(self.report_path(job_id)) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
