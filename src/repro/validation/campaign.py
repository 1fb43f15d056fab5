"""Crash-consistency campaigns: plan, fan out, judge, shrink, report.

One *trial* = run a workload under a design with a fault model armed,
cut (or virtually cut) at a planned crash cycle, recover, and judge the
outcome twice: the workload's own ``validate_recovered`` structural
check on the recovered data image, and the :class:`PersistOrderOracle`
on the run's trace-event history truncated at the crash horizon.  A
*campaign* is a planned set of trials per ``workload x design`` cell,
fanned out in cell-affine chunks through
:meth:`ParallelExecutor.map_batched` and served by one resident
:class:`Cell` per cell and process, with every failing cell shrunk to a
minimal reproducing crash cycle and everything summarised in a
versioned :class:`CampaignReport`.

Trials are pure functions of their :class:`TrialSpec` (fixed seed, no
wall-clock inputs), which is what makes fan-out order irrelevant,
failures replayable, and shrinking sound.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import table3_config
from ..obsv.bus import get_bus
from ..persistency import design_by_name
from ..runtime.crash import build_crash_system
from ..runtime.recovery import run_recovery
from ..sim import collector_paused
from ..sim.trace import TraceRecorder
from ..snapshot import (SNAPSHOT_SCHEMA_VERSION, SnapshotError,
                        SnapshotLadder, SnapshotStore, nearest_rung)
from ..telemetry import get_logger
from ..workloads import BENCHMARKS, holding_programs
from .faults import fault_by_name
from .history import (FASE, PERSIST, WRITEBACK, events_to_history,
                      history_from_recorder, truncate_history)
from .oracle import PersistOrderOracle
from .planners import RunProfile, planner_by_name
from .shrink import shrink_crash_cycle

CAMPAIGN_SCHEMA_VERSION = 1

log = get_logger("validation.campaign")


@dataclass(frozen=True)
class TrialSpec:
    """One crash trial, fully determined (picklable, hashable)."""

    workload: str
    design: str
    fault: str = "power-cut"
    crash_cycle: int = 0
    n_threads: int = 2
    fases_per_thread: int = 10
    seed: int = 42
    log_mode: str = "undo"
    # Snapshot ladder: every K persist events, 0 = off.  A non-zero K
    # changes trial timing (parking is part of the timing universe), so
    # it participates in the cell identity alongside seed and threads.
    snapshot_every: int = 0
    # Where rungs live on disk; None keeps the ladder timing-only (no
    # capture, no warm restore) -- used when trials must replay a
    # laddered canonical run without a shared filesystem.
    snapshot_dir: Optional[str] = None

    def __post_init__(self):
        if self.workload not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.workload!r}; "
                             f"choose from {sorted(BENCHMARKS)}")
        try:
            design_by_name(self.design)
            fault_by_name(self.fault)
        except KeyError as exc:
            # ValueError is the CLI's "user error" class (exit 2, no
            # traceback); bad names are exactly that.
            raise ValueError(str(exc)) from None
        if self.crash_cycle < 0:
            raise ValueError("crash_cycle must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    def describe(self) -> str:
        return (f"{self.workload}/{self.design} {self.fault}"
                f"@{self.crash_cycle}")


def _cell_index_name(spec: TrialSpec) -> str:
    """Stable rung-index name for a cell: every spec field except the
    crash cycle (all trials of a cell restore from the same canonical
    laddered run) and the store location (moving the store must not
    orphan its own indexes)."""
    fields = asdict(spec)
    fields.pop("crash_cycle")
    fields.pop("snapshot_dir")
    fields["snapshot_schema"] = SNAPSHOT_SCHEMA_VERSION
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:24]


def _build(spec: TrialSpec, capture: bool = False,
           keep_rungs: bool = False):
    """Build the traced system for one trial, fault armed.  With a
    non-zero ``snapshot_every`` a ladder is installed: capturing for a
    canonical run, replay-only (identical parking, no capture) for
    trials.  ``keep_rungs`` keeps each captured payload on its rung
    dict, for the in-process rung caches."""
    fault = fault_by_name(spec.fault)
    recorder = TraceRecorder()
    config = table3_config(n_cores=spec.n_threads,
                           **fault.config_overrides())
    workload, system = build_crash_system(
        BENCHMARKS[spec.workload], spec.design, spec.n_threads,
        spec.fases_per_thread, spec.seed, config, log_mode=spec.log_mode,
        tracer=recorder)
    ladder = None
    if spec.snapshot_every:
        store = (SnapshotStore(spec.snapshot_dir)
                 if spec.snapshot_dir else None)
        ladder = SnapshotLadder(
            system, spec.snapshot_every, store=store,
            index_name=_cell_index_name(spec), capture=capture,
            keep_in_memory=keep_rungs).install()
    fault.arm(system)
    return workload, system, fault, recorder, ladder


def _oracle_for(system) -> PersistOrderOracle:
    """The oracle configured for this system's design: the replay must
    mirror the hardware (same window), and the stale-read pattern only
    exists where writebacks are dropped *and* a speculation buffer is
    expected to catch the resulting staleness (PMEM-Spec).  A run whose
    buffer overflowed also skips the replay: overflow evicts the oldest
    entry early (with an all-core stall), which an unbounded replay
    cannot mirror, and the hardware's miss there is by design."""
    design = system.design
    overflows = sum(buffer.stats["overflows"]
                    for buffer in system.spec_buffers)
    return PersistOrderOracle(
        window=system.config.speculation_window_cycles,
        check_stale_reads=(design.drops_llc_writebacks
                           and design.uses_persist_path
                           and overflows == 0))


def _emit_cold_fallback(crash_cycle: int, error: str) -> None:
    """A restore that *should* have been warm degraded to a cold start:
    surface it as a structured event, not just a log line, so campaigns
    can see silent performance loss (a damaged store costs O(run) per
    trial instead of O(segment))."""
    bus = get_bus()
    if bus.enabled:
        bus.emit("snapshot_restore", crash_cycle=crash_cycle,
                 rung_cycle=None, rung=None, outcome="cold_fallback",
                 error=error)


def _cut(system, fault, crash_cycle: int, done) -> None:
    """Advance a launched system to ``crash_cycle`` and apply the
    fault's cut there."""
    system.advance(until=crash_cycle, stop_event=done)
    if system.env.now < crash_cycle:
        # Cores finished early: power stays on, so the persistence
        # drain proceeds until the planned cut.
        system.advance(until=crash_cycle)
    fault.at_crash(system, crash_cycle)


def _judge(spec: TrialSpec, workload, system, fault, done,
           history: Callable[[int], list],
           restored_from: Optional[int]) -> Dict:
    """The trial body after the cut, shared by the cold reference
    (:func:`run_trial`) and :meth:`Cell.run_trial`: carry a virtual
    fault's run to completion, recover, judge.  ``history`` maps the
    crash horizon to the trial's oracle history."""
    if fault.run_to_completion:
        # Virtual failures leave the machine on: the runtime's
        # abort/retry recovery must carry the run to a clean finish.
        system.advance(stop_event=done)
        system.advance()
    horizon = system.env.now
    commits = system.runtime.total_commits

    snapshot = system.persisted_snapshot()
    fault_notes = fault.mutate_snapshot(snapshot, spec.n_threads)
    report = run_recovery(snapshot, spec.n_threads,
                          log_mode=spec.log_mode)
    violations = [
        {"kind": "structural", "cycle": spec.crash_cycle,
         "subject": workload.name, "detail": message}
        for message in workload.validate_recovered(report.data_image())]
    trial_history = history(horizon)
    violations.extend(v.to_dict()
                      for v in _oracle_for(system).check(trial_history))

    return {
        "spec": asdict(spec),
        "crash_cycle": spec.crash_cycle,
        "horizon": horizon,
        "commits_before_crash": commits,
        "rolled_back_threads": report.rolled_back_threads,
        "history_events": len(trial_history),
        "fault_notes": fault_notes,
        "violations": violations,
        "consistent": not violations,
        "restored_from_cycle": restored_from,
    }


@collector_paused()
def run_trial(spec: TrialSpec) -> Dict:
    """Execute one trial cold; returns a JSON-ready outcome dict.

    The reference every warm path is checked against: a freshly built
    system simulated from cycle 0 (``snapshot_dir`` is ignored, so
    ``restored_from_cycle`` is always None).  Campaigns reach crash
    cycles through :class:`Cell` and fall back to this only when a
    cell cannot be served.
    """
    workload, system, fault, recorder, _ladder = _build(spec)
    done = system.launch()
    _cut(system, fault, spec.crash_cycle, done)
    return _judge(spec, workload, system, fault, done,
                  lambda horizon: truncate_history(
                      history_from_recorder(recorder), horizon),
                  restored_from=None)


# ---------------------------------------------------------- crash cells


#: Rung payloads held deserialised per cell (each is one full machine
#: state, a few hundred KiB for campaign-sized runs).
_RESIDENT_RUNG_CAP = 64
#: Cells held resident per process.  Campaign chunks are cell-affine,
#: so a worker rarely juggles more than a couple.
_RESIDENT_CELL_CAP = 4

_RESIDENT_CELLS: "OrderedDict[Tuple[str, Optional[str]], Cell]" = \
    OrderedDict()

#: Rung payloads seeded straight from a canonical profile run's
#: captures: (snapshot_dir, object key) -> payload.  A campaign whose
#: trials run in the process that profiled never re-reads a rung it
#: just wrote -- no disk read, no unpickle.
_CAPTURED_PAYLOADS: "OrderedDict[Tuple[Optional[str], str], Dict]" = \
    OrderedDict()
_CAPTURED_PAYLOAD_CAP = _RESIDENT_RUNG_CAP * _RESIDENT_CELL_CAP


def _private_copy(value):
    """Copy the dict/list skeleton of a live capture payload; leaves and
    tuples are shared.

    Component ``capture_state`` implementations build fresh containers,
    but that is convention, not contract -- the skeleton copy makes a
    kept payload safe even against a capture that returns a live dict
    or list the run later mutates.  Tuples are shared because the only
    captured tuples wrapping mutables are trace event rows, whose
    ``args`` dicts are never written after recording (the same sharing
    ``TraceRecorder.restore_state`` itself relies on).
    """
    kind = type(value)
    if kind is dict:
        return {key: _private_copy(item) for key, item in value.items()}
    if kind is list:
        return [_private_copy(item) for item in value]
    return value


def _pre_tuple_events(payload: Dict) -> Dict:
    """Convert trace event rows to tuples once, at cache-admission time.

    ``Trace.restore_state`` re-tuples every event row on each restore;
    ``tuple()`` of a tuple returns the same object, so a payload that is
    restored many times (the whole point of a resident cell) pays the
    per-row copy only once.  Safe to do in place: cached payloads are
    private to the cell machinery (``SnapshotStore.get`` unpickles a
    fresh object per call; kept payloads are skeleton-copied at
    admission) and the canonical fingerprint encodes tuples and lists
    identically.
    """
    for state in payload.get("components", {}).values():
        if isinstance(state, dict):
            events = state.get("events")
            if events:
                state["events"] = [tuple(item) for item in events]
    return payload


def _kept_payload(payload: Dict) -> Dict:
    return _pre_tuple_events(_private_copy(payload))


def _seed_captured_rungs(spec: TrialSpec, ladder) -> None:
    """Admit a canonical run's in-memory rung payloads to the seeded
    cache, keyed exactly like the on-disk store the run also filled."""
    if ladder is None or ladder.store is None:
        return
    for rung in ladder.rungs:
        payload = rung.pop("payload", None)
        if payload is None or "key" not in rung:
            continue
        _CAPTURED_PAYLOADS[(spec.snapshot_dir, rung["key"])] = \
            _kept_payload(payload)
    while len(_CAPTURED_PAYLOADS) > _CAPTURED_PAYLOAD_CAP:
        _CAPTURED_PAYLOADS.popitem(last=False)


class Cell:
    """One crash cell kept resident in this process: the one way to get
    a machine to a crash cycle.

    Built once per cell: the traced system, its cycle-0 payload, a rung
    source, an LRU of deserialised rung payloads, and the oracle-history
    prefix of the last restored rung.  :meth:`acquire` arms a fresh
    fault, restores the nearest rung at or before the crash cycle (the cycle-0
    payload when there is none), and advances to the cut -- no rebuild,
    and no disk read or unpickle for a hot rung.  Restoring into the one
    resident system is safe because restore fully resets every
    component (what ``tests/snapshot/test_restore_equivalence.py``
    proves) and payload containers are copied on restore, never aliased.

    The rung source is one of:

    * ``Cell(spec)``: the cell's on-disk rung index, with payloads taken
      first from this process's LRU, then from what a profiling run in
      this process seeded (:func:`profile_cell_seeding`), then from the
      store.  Any snapshot damage degrades to the cycle-0 restore with a
      warning and a ``cold_fallback`` event -- outcomes never depend on
      cache health.  Campaign trials, shrinking and
      :func:`verify_cell` use it.
    * ``Cell(spec, canonical=True)``: the in-memory ladder of the
      cell's own canonical run, with PM-device history recording on --
      the crash-states checker's source.  ``restore=False`` keeps that
      ladder's timing universe but starts every acquire from cycle 0.
    """

    def __init__(self, spec: TrialSpec, canonical: bool = False,
                 restore: bool = True):
        started = time.perf_counter()
        self.spec = replace(spec, crash_cycle=0)
        if canonical:
            self.spec = replace(self.spec, snapshot_dir=None)
        self.restore = restore
        self.workload, self.system, _fault, self.recorder, ladder = \
            _build(self.spec, capture=canonical, keep_rungs=canonical)
        self.store = ladder.store if ladder is not None else None
        self.index_name = ladder.index_name if ladder is not None else None
        self._rungs: Optional[List[Dict]] = None
        self._payloads: "OrderedDict[str, Dict]" = OrderedDict()
        # (restored cycle, n_prefix_events, converted HistoryEvents):
        # the oracle history of the last restored rung's event prefix.
        # Planners hand out crash cycles in ascending order, so
        # consecutive acquisitions mostly share a rung and convert its
        # prefix once.  HistoryEvent is frozen, so sharing one prefix
        # list across acquisitions is safe; concatenation is exact
        # because events_to_history is a stateless per-event map.
        self._prefix: Tuple[Optional[int], int, list] = (None, 0, [])
        self.total_cycles: Optional[int] = None
        # Pre-launch the heap is empty and no generator is live, so the
        # pristine capture is legal and exact.
        self.initial = _kept_payload(self.system.capture_state())
        if canonical:
            # The device history is the crash-states enumerator's
            # input; the flag is not part of captured state, so it
            # survives every restore.
            self.system.device.record_history = True
            self.initial_image = dict(self.system.device.snapshot())
            self.total_cycles = self.system.run().cycles
            self._rungs = [{**rung, "payload": _kept_payload(rung["payload"])}
                           for rung in (ladder.rungs if ladder else [])
                           if "payload" in rung]
        self.canonical_s = time.perf_counter() - started

    # ----------------------------------------------------------- rungs

    def _rung_index(self) -> List[Dict]:
        if self._rungs is None:
            self._rungs = (self.store.load_index(self.index_name)
                           if self.store is not None else [])
        return self._rungs

    def _payload(self, rung: Dict) -> Tuple[Dict, str]:
        """(payload, source) for a rung of the index."""
        if "payload" in rung:
            return rung["payload"], "resident"
        key = rung["key"]
        payload = self._payloads.get(key)
        if payload is not None:
            self._payloads.move_to_end(key)
            return payload, "resident"
        # First touch: prefer the payload the profiling run seeded in
        # this very process (zero re-read) over the store round trip.
        payload = _CAPTURED_PAYLOADS.get((self.spec.snapshot_dir, key))
        source = "resident"
        if payload is None:
            payload = _pre_tuple_events(self.store.get(key))
            source = "store"
        self._payloads[key] = payload
        while len(self._payloads) > _RESIDENT_RUNG_CAP:
            self._payloads.popitem(last=False)
        return payload, source

    def _nearest(self, cycle: int) -> Tuple[Optional[Dict], Dict, str]:
        """(rung, payload, source) to restore for ``cycle``; the rung is
        None when the restore starts from cycle 0."""
        if self.restore:
            try:
                rung = nearest_rung(self._rung_index(), cycle)
                if rung is not None:
                    return (rung, *self._payload(rung))
            except SnapshotError as exc:
                log.warning("snapshot restore failed (%s); starting cold",
                            exc)
                _emit_cold_fallback(cycle, str(exc))
        return None, self.initial, "cold"

    # --------------------------------------------------------- acquire

    def launch(self, cycle: int):
        """Arm a fresh fault, restore the nearest rung at or before
        ``cycle`` (cycle 0 without one), and launch the cores.  Returns
        ``(fault, restored_from, done)``: the armed fault, the restored
        rung's cycle (None from cycle 0), and the all-done event."""
        fault = fault_by_name(self.spec.fault)
        fault.arm(self.system)
        rung, payload, source = self._nearest(cycle)
        self.system.restore_state(payload)
        restored_from = rung["cycle"] if rung is not None else None
        bus = get_bus()
        if bus.enabled:
            bus.emit("snapshot_restore", crash_cycle=cycle,
                     rung_cycle=restored_from,
                     rung=rung["rung"] if rung is not None else None,
                     source=source)
        count = len(self.recorder)
        if self._prefix[:2] != (restored_from, count):
            self._prefix = (restored_from, count,
                            events_to_history(self.recorder.events()))
        return fault, restored_from, self.system.launch()

    def acquire(self, crash_cycle: int):
        """:meth:`launch` for ``crash_cycle`` and advance to the cut;
        returns ``(fault, restored_from, done)`` with the system
        positioned exactly at a trial's cut point."""
        fault, restored_from, done = self.launch(crash_cycle)
        _cut(self.system, fault, crash_cycle, done)
        return fault, restored_from, done

    def history(self, horizon: int) -> list:
        """The oracle history of the current acquisition, truncated at
        ``horizon``."""
        _restored_from, count, prefix = self._prefix
        return truncate_history(
            prefix + events_to_history(self.recorder.events(count)),
            horizon)

    def oracle(self) -> PersistOrderOracle:
        """The persist-order oracle for this cell's design."""
        return _oracle_for(self.system)

    def run_trial(self, spec: TrialSpec) -> Dict:
        """One campaign trial of this cell; equals :func:`run_trial`
        of ``spec`` except for ``restored_from_cycle``."""
        fault, restored_from, done = self.acquire(spec.crash_cycle)
        return _judge(spec, self.workload, self.system, fault, done,
                      self.history, restored_from)


def _resident_key(spec: TrialSpec) -> Tuple[str, Optional[str]]:
    return _cell_index_name(spec), spec.snapshot_dir


def _resident_cell(spec: TrialSpec) -> Cell:
    key = _resident_key(spec)
    cell = _RESIDENT_CELLS.get(key)
    if cell is None:
        cell = Cell(spec)
        _RESIDENT_CELLS[key] = cell
        while len(_RESIDENT_CELLS) > _RESIDENT_CELL_CAP:
            _RESIDENT_CELLS.popitem(last=False)
    else:
        _RESIDENT_CELLS.move_to_end(key)
    return cell


@collector_paused()
def run_trial_batch(specs: Sequence[TrialSpec]) -> List[Dict]:
    """Execute a chunk of trials against resident cells, in order.

    Module-level so :meth:`ParallelExecutor.map_batched` can ship it to
    pool workers; the resident cache is per process, so a worker that
    receives several chunks of one cell builds its system exactly once.
    Any :class:`SnapshotError` the cell itself cannot absorb evicts the
    cell and re-runs that trial through the cold :func:`run_trial` --
    outcomes never depend on cache health.
    """
    outcomes: List[Dict] = []
    for spec in specs:
        try:
            outcomes.append(_resident_cell(spec).run_trial(spec))
        except SnapshotError as exc:
            _RESIDENT_CELLS.pop(_resident_key(spec), None)
            log.warning("resident trial failed (%s); re-running cold",
                        exc)
            outcomes.append(run_trial(spec))
    return outcomes


def _batch_key(spec: TrialSpec) -> Tuple[str, str]:
    return spec.workload, spec.design


def _describe_batch(specs: Sequence[TrialSpec]) -> str:
    first = specs[0]
    return f"{first.workload}/{first.design} x{len(specs)}"


def profile_cell(spec: TrialSpec) -> RunProfile:
    """Profile the uninterrupted run of one cell (fault still armed, so
    crash points land inside the *perturbed* run's duration).  With a
    snapshot store configured this is also the canonical run that fills
    the cell's rung ladder."""
    return _profile_cell(spec)[0]


def profile_cell_seeding(spec: TrialSpec) -> RunProfile:
    """:func:`profile_cell`, additionally seeding this process's rung
    cache with the payloads the canonical run just captured.  Batched
    campaigns profile through this so trials that land in the profiling
    process restore without ever re-reading the store."""
    profile, ladder = _profile_cell(spec, keep_rungs=True)
    _seed_captured_rungs(spec, ladder)
    return profile


@collector_paused()
def _profile_cell(spec: TrialSpec, keep_rungs: bool = False
                  ) -> Tuple[RunProfile, Optional[SnapshotLadder]]:
    _workload, system, _fault, recorder, ladder = _build(
        spec, capture=spec.snapshot_dir is not None,
        keep_rungs=keep_rungs)
    result = system.run()
    if ladder is not None:
        ladder.flush_index()
    history = history_from_recorder(recorder)
    return RunProfile(
        total_cycles=result.cycles,
        fase_intervals=[(event.cycle, event.end) for event in history
                        if event.kind == FASE],
        commit_cycles=[when for _tid, _fid, when
                       in system.runtime.commit_log],
        issue_end=max((core.finish_time or 0) for core in system.cores),
        persist_cycles=sorted({event.cycle for event in history
                               if event.kind in (PERSIST, WRITEBACK)}),
    ), ladder


def snapshot_cell(spec: TrialSpec) -> List[Dict]:
    """Run one cell's canonical laddered run, filling its on-disk rung
    ladder, and return the stored rung index entries."""
    if not (spec.snapshot_every and spec.snapshot_dir):
        raise ValueError("snapshot capture needs snapshot_every > 0 "
                         "and a snapshot_dir")
    profile_cell(spec)
    store = SnapshotStore(spec.snapshot_dir)
    return store.load_index(_cell_index_name(spec))


def verify_cell(spec: TrialSpec) -> Dict:
    """The standing determinism check for one cell's stored ladder.

    Runs the cell cold (laddered, no capture) to get the reference
    end-of-run fingerprint, then restores *every* stored rung through
    one :class:`Cell` and replays the tail; each replay must start from
    its rung and land on the reference fingerprint exactly.  Returns
    ``{"reference", "checks", "ok"}`` with one check dict per rung.
    """
    if not (spec.snapshot_every and spec.snapshot_dir):
        raise ValueError("snapshot verify needs snapshot_every > 0 "
                         "and a snapshot_dir")
    store = SnapshotStore(spec.snapshot_dir)
    index = store.load_index(_cell_index_name(spec))
    _workload, system, _fault, _recorder, _ladder = _build(spec)
    system.run()
    reference = system.state_fingerprint()
    cell = Cell(spec)
    checks = []
    for rung in index:
        _fault, restored_from, done = cell.launch(rung["cycle"])
        cell.system.advance(stop_event=done)
        cell.system.advance()
        checks.append({"rung": rung["rung"], "cycle": rung["cycle"],
                       "restored_from": restored_from,
                       "fingerprint_ok":
                           restored_from == rung["cycle"]
                           and cell.system.state_fingerprint()
                           == reference})
    return {"reference": reference, "checks": checks,
            "ok": bool(checks) and all(c["fingerprint_ok"]
                                       for c in checks)}


# --------------------------------------------------------------- report


class CampaignReport:
    """Structured outcome of one campaign (JSON artifact + table rows)."""

    def __init__(self, params: Dict, cells: List[Dict],
                 elapsed_s: float = 0.0):
        self.schema_version = CAMPAIGN_SCHEMA_VERSION
        self.params = params
        self.cells = cells
        self.elapsed_s = elapsed_s
        # Aggregate-metrics snapshot from the run's MetricsRegistry
        # (set by run_campaign when an observed bus is active).
        self.obsv: Optional[Dict] = None
        # Versioned durable-state enumeration section (set by
        # run_campaign when crash_states is on): per-cell payloads from
        # repro.crashstates.checker.check_cell.
        self.crash_states: Optional[Dict] = None

    @property
    def total_trials(self) -> int:
        return sum(cell["trials"] for cell in self.cells)

    @property
    def total_failures(self) -> int:
        return sum(len(cell["failures"]) for cell in self.cells)

    @property
    def consistent(self) -> bool:
        return self.total_failures == 0

    @property
    def crash_states_ok(self) -> bool:
        """True when no enumerated durable state failed (vacuously true
        without a crash_states section)."""
        if self.crash_states is None:
            return True
        return all(cell["consistent"]
                   for cell in self.crash_states["cells"])

    def violation_kinds(self) -> List[str]:
        kinds = {violation["kind"] for cell in self.cells
                 for failure in cell["failures"]
                 for violation in failure["violations"]}
        return sorted(kinds)

    def rows(self) -> List[Dict]:
        """Flat per-cell summaries for the harness table renderer."""
        rows = []
        for cell in self.cells:
            shrunk = cell.get("shrink")
            rows.append({
                "workload": cell["workload"],
                "design": cell["design"],
                "trials": cell["trials"],
                "failures": len(cell["failures"]),
                "violation_kinds": ",".join(cell["violation_kinds"]) or "-",
                "minimal_cycle": (shrunk["minimal_cycle"]
                                  if shrunk else None),
            })
        return rows

    def to_dict(self) -> Dict:
        payload = {
            "schema_version": self.schema_version,
            "params": self.params,
            "elapsed_s": self.elapsed_s,
            "total_trials": self.total_trials,
            "total_failures": self.total_failures,
            "consistent": self.consistent,
            "violation_kinds": self.violation_kinds(),
            "cells": self.cells,
        }
        if self.crash_states is not None:
            payload["crash_states"] = self.crash_states
            payload["crash_states_ok"] = self.crash_states_ok
        if self.obsv is not None:
            payload["obsv"] = self.obsv
        return payload

    def fingerprint(self) -> str:
        """:func:`report_fingerprint` of this report."""
        return report_fingerprint(self.to_dict())

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path

    def __repr__(self) -> str:
        status = "OK" if self.consistent else (
            f"{self.total_failures} FAILURES {self.violation_kinds()}")
        return (f"CampaignReport({len(self.cells)} cells, "
                f"{self.total_trials} trials: {status})")


def report_fingerprint(payload: Dict) -> str:
    """Content hash of a campaign report without its wall-clock fields
    (``elapsed_s``, ``timings``), metrics (``obsv``) and store location
    (``snapshot_dir``), at any depth: identical seeded campaigns, and a
    cold run and its service resume, hash alike wherever they ran."""
    def strip(value):
        if isinstance(value, dict):
            return {key: strip(item) for key, item in value.items()
                    if key not in ("elapsed_s", "timings", "obsv",
                                   "snapshot_dir")}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    blob = json.dumps(strip(payload), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- campaign


def _cell_rng(seed: int, workload: str, design: str,
              round_index: int) -> random.Random:
    # String seeding is stable across processes and Python runs
    # (unlike hash()), so every cell's sample is reproducible.
    return random.Random(f"{seed}:{workload}:{design}:{round_index}")


#: Crash cycles enumerated per cell when crash_states is on: a seeded
#: sample of the cycles the trial rounds already tried.
_CRASH_STATE_MAX_CYCLES = 12
#: Rung-ladder target for the crashstates canonical run when the
#: campaign itself runs unladdered.
_CRASH_STATE_RUNGS = 16


# The campaign's phases (probe, profile, trials, crash states) visit
# every cell in turn: hold the cells' programs so each is built once.
@holding_programs()
def run_campaign(workloads: Sequence[str], designs: Sequence[str],
                 planner: str = "stratified", fault: str = "power-cut",
                 budget: int = 200, seed: int = 42,
                 n_threads: int = 2, fases_per_thread: int = 10,
                 log_mode: str = "undo", shrink: bool = True,
                 executor=None,
                 progress: Optional[Callable[[str], None]] = None,
                 snapshot_dir: Optional[str] = None,
                 snapshot_every: int = 0,
                 snapshot_rungs: int = 0,
                 batch: int = 10,
                 crash_states: bool = False,
                 image_budget: int = 64) -> CampaignReport:
    """Run a full campaign over the ``workloads x designs`` grid.

    ``budget`` is the trial budget *per cell*.  ``executor`` is a
    :class:`repro.harness.ParallelExecutor` (or anything with its
    ``map``); ``None`` runs serially -- the package never constructs a
    harness object itself, so the dependency points one way only.

    With ``snapshot_every > 0`` and a ``snapshot_dir``, the profiling
    pass doubles as the canonical laddered run per cell, and each trial
    restores the nearest rung at or before its crash cycle instead of
    simulating from cycle 0 -- O(segment) per trial instead of O(run).

    ``snapshot_rungs > 0`` sizes the ladder per cell instead: each cell
    gets ``snapshot_every = persists // snapshot_rungs`` from a quick
    unladdered probe, so persist-dense and persist-sparse cells both
    land ~``snapshot_rungs`` rungs (a grid-wide interval gives one cell
    tails too long to matter and another a capture bill too high to
    amortise).  Overrides ``snapshot_every``.

    With ``crash_states`` on, every cell additionally runs the
    durable-state enumeration oracle (:mod:`repro.crashstates`): a
    seeded sample of the cell's tried crash cycles is re-acquired by
    rung-restore, the design's formal model enumerates up to
    ``image_budget`` durable images per cycle, and recovery must
    converge from every one.  Results land in the report's versioned
    ``crash_states`` section; :attr:`CampaignReport.crash_states_ok`
    gates on them.

    Trials run cell-affine: they ship as chunks of up to ``batch``
    specs per (cell, chunk) task through
    :meth:`ParallelExecutor.map_batched` (or run through
    :func:`run_trial_batch` in-process when there is no executor), and
    each process serves a chunk from its resident :class:`Cell` instead
    of rebuilding per trial; the profiling/probe passes fan out over
    cells through the executor too.  ``batch`` is only a chunk size
    (``>= 1``): outcomes equal the cold :func:`run_trial` of every
    trial, whatever the chunking.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1 (trials per chunk), "
                         f"got {batch}")
    started = time.perf_counter()
    planner_obj = planner_by_name(planner)
    bus = get_bus()
    cells: List[Tuple[str, str]] = [
        (workload, design) for workload in workloads for design in designs]
    bus.emit("campaign_start", workloads=list(workloads),
             designs=list(designs), planner=planner, fault=fault,
             budget=budget)

    def say(message: str) -> None:
        log.info("%s", message)
        if progress is not None:
            progress(message)

    cell_every: Dict[Tuple[str, str], int] = {}

    def base_spec(workload: str, design: str) -> TrialSpec:
        every = cell_every.get((workload, design), snapshot_every)
        return TrialSpec(workload=workload, design=design, fault=fault,
                         crash_cycle=0, n_threads=n_threads,
                         fases_per_thread=fases_per_thread, seed=seed,
                         log_mode=log_mode, snapshot_every=every,
                         snapshot_dir=snapshot_dir)

    def profile_cells(specs: List[TrialSpec]) -> List[RunProfile]:
        """Profiles are pure functions of their spec, so the per-cell
        canonical runs fan out over the executor (rungs land in the
        shared on-disk store either way).  Profiling seeds the
        profiling process's rung cache so trials that stay in that
        process never re-read what it just wrote; a pool worker that
        gets the cell without the seed falls back to the store read,
        nothing worse."""
        if executor is not None and len(specs) > 1:
            return executor.map(
                profile_cell_seeding, specs,
                describe=lambda s: f"profile {s.workload}/{s.design}")
        return [profile_cell_seeding(spec) for spec in specs]

    if snapshot_rungs:
        say(f"sizing ladders: ~{snapshot_rungs} rungs per cell")
        probes = profile_cells([
            replace(base_spec(workload, design), snapshot_every=0,
                    snapshot_dir=None)
            for workload, design in cells])
        for (workload, design), probe in zip(cells, probes):
            cell_every[(workload, design)] = max(
                1, len(probe.persist_cycles) // snapshot_rungs)

    def fan_out(specs: List[TrialSpec]) -> List[Dict]:
        if executor is None or not specs:
            return run_trial_batch(specs)
        return executor.map_batched(
            run_trial_batch, specs, key=_batch_key, chunk_size=batch,
            describe=_describe_batch)

    say(f"profiling {len(cells)} cells "
        f"({len(workloads)} workloads x {len(designs)} designs)")
    profiles: Dict[Tuple[str, str], RunProfile] = {}
    for (workload, design), profile in zip(
            cells, profile_cells([base_spec(workload, design)
                                  for workload, design in cells])):
        profiles[(workload, design)] = profile
        bus.emit("cell_profile", workload=workload, design=design,
                 total_cycles=profile.total_cycles)

    # The adaptive planner wants a feedback round; the others spend
    # their whole budget at once.
    rounds = 2 if planner == "adaptive" else 1
    tried: Dict[Tuple[str, str], set] = {cell: set() for cell in cells}
    results: Dict[Tuple[str, str], List[Dict]] = {cell: [] for cell in cells}
    failures: Dict[Tuple[str, str], List[Dict]] = {cell: [] for cell in cells}

    for round_index in range(rounds):
        round_budget = budget // rounds
        if round_index == rounds - 1:
            round_budget = budget - round_budget * (rounds - 1)
        specs: List[TrialSpec] = []
        for workload, design in cells:
            cell = (workload, design)
            rng = _cell_rng(seed, workload, design, round_index)
            cycles = planner_obj.plan(
                profiles[cell], round_budget, rng,
                failures=[f["crash_cycle"] for f in failures[cell]])
            fresh = [c for c in cycles if c not in tried[cell]]
            tried[cell].update(fresh)
            specs.extend(replace(base_spec(workload, design),
                                 crash_cycle=cycle) for cycle in fresh)
        say(f"round {round_index + 1}/{rounds}: {len(specs)} trials")
        bus.emit("round_start", round=round_index + 1, rounds=rounds,
                 n_trials=len(specs))
        for spec, outcome in zip(specs, fan_out(specs)):
            cell = (spec.workload, spec.design)
            results[cell].append(outcome)
            bus.emit("trial_finish", workload=spec.workload,
                     design=spec.design, crash_cycle=spec.crash_cycle,
                     consistent=outcome["consistent"],
                     violations=len(outcome["violations"]),
                     restored_from_cycle=outcome["restored_from_cycle"])
            if not outcome["consistent"]:
                failures[cell].append(outcome)
                for violation in outcome["violations"]:
                    bus.emit("oracle_violation", workload=spec.workload,
                             design=spec.design,
                             crash_cycle=spec.crash_cycle,
                             violation_kind=violation["kind"],
                             cycle=violation.get("cycle",
                                                 spec.crash_cycle))

    cell_reports: List[Dict] = []
    for workload, design in cells:
        cell = (workload, design)
        cell_failures = sorted(failures[cell],
                               key=lambda f: f["crash_cycle"])
        shrink_payload = None
        if shrink and cell_failures:
            shrink_payload = _shrink_cell(
                base_spec(workload, design), cell_failures, say)
            bus.emit("shrink_finish", workload=workload, design=design,
                     earliest_cycle=cell_failures[0]["crash_cycle"],
                     minimal_cycle=shrink_payload["minimal_cycle"],
                     trials=shrink_payload.get("trials", 0))
        cell_reports.append({
            "workload": workload,
            "design": design,
            "fault": fault,
            "total_cycles": profiles[cell].total_cycles,
            "trials": len(results[cell]),
            "restored_trials": sum(
                1 for outcome in results[cell]
                if outcome.get("restored_from_cycle") is not None),
            "failures": cell_failures,
            "violation_kinds": sorted({
                violation["kind"] for failure in cell_failures
                for violation in failure["violations"]}),
            "shrink": shrink_payload,
        })

    crash_states_payload = None
    if crash_states:
        # Imported here, not at module top: crashstates builds on this
        # module, so the dependency must stay one-way at import time.
        from ..crashstates.checker import (CRASH_STATES_SCHEMA_VERSION,
                                           check_cell)
        cs_cells: List[Dict] = []
        for workload, design in cells:
            cell = (workload, design)
            cycles = sorted(tried[cell])
            rng = random.Random(
                f"{seed}:{workload}:{design}:crashstates")
            if len(cycles) > _CRASH_STATE_MAX_CYCLES:
                cycles = sorted(rng.sample(cycles,
                                           _CRASH_STATE_MAX_CYCLES))
            every = cell_every.get(cell, snapshot_every) or max(
                1, len(profiles[cell].persist_cycles)
                // _CRASH_STATE_RUNGS)
            spec = replace(base_spec(workload, design),
                           snapshot_every=every, snapshot_dir=None)
            say(f"crash-states {workload}/{design}: "
                f"{len(cycles)} cycles, budget {image_budget}")
            payload = check_cell(spec, cycles, image_budget=image_budget,
                                 shrink=shrink)
            cs_cells.append(payload)
            say(f"crash-states {workload}/{design}: "
                f"{payload.get('images_checked', 0)} images, "
                f"{payload.get('images_failed', 0)} failed")
        crash_states_payload = {
            "schema_version": CRASH_STATES_SCHEMA_VERSION,
            "image_budget": image_budget,
            "max_cycles_per_cell": _CRASH_STATE_MAX_CYCLES,
            "cells": cs_cells,
        }

    report = CampaignReport(
        params={
            "workloads": list(workloads), "designs": list(designs),
            "planner": planner, "fault": fault, "budget": budget,
            "seed": seed, "n_threads": n_threads,
            "fases_per_thread": fases_per_thread, "log_mode": log_mode,
            "shrink": shrink, "snapshot_every": snapshot_every,
            "snapshot_rungs": snapshot_rungs, "batch": batch,
            "crash_states": crash_states, "image_budget": image_budget,
            "cell_snapshot_every": {
                f"{workload}/{design}": every
                for (workload, design), every in sorted(cell_every.items())},
            "snapshot_dir": snapshot_dir,
        },
        cells=cell_reports,
        elapsed_s=time.perf_counter() - started,
    )
    report.crash_states = crash_states_payload
    bus.emit("campaign_finish", cells=len(cells),
             trials=report.total_trials, failures=report.total_failures,
             consistent=report.consistent, elapsed_s=report.elapsed_s)
    if bus.registry is not None:
        report.obsv = bus.registry.snapshot()
    say(f"campaign done: {report!r}")
    return report


def _shrink_cell(base: TrialSpec, cell_failures: List[Dict], say) -> Dict:
    """Shrink a cell's earliest failing cycle to a minimal reproducer."""
    earliest = cell_failures[0]["crash_cycle"]
    outcomes: Dict[int, Dict] = {earliest: cell_failures[0]}

    def fails(cycle: int) -> bool:
        [outcome] = run_trial_batch([replace(base, crash_cycle=cycle)])
        outcomes[cycle] = outcome
        return not outcome["consistent"]

    shrunk = shrink_crash_cycle(fails, earliest)
    minimal = outcomes.get(shrunk.minimal_cycle)
    if minimal is None:  # minimal == earliest and it was never re-run
        minimal = outcomes[earliest]
    say(f"shrunk {base.workload}/{base.design} failure: cycle "
        f"{earliest} -> {shrunk.minimal_cycle} "
        f"({shrunk.trials} bisection trials)")
    payload = shrunk.to_dict()
    payload["minimal_violations"] = minimal["violations"]
    return payload
