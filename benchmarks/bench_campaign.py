"""Campaign throughput: the batched campaign path vs cold trials.

Runs the PR 4 stratified crash campaign (hashmap + queue x PMEM-Spec +
IntelX86, 40 trials per cell = 160 trials, ~16 rungs per cell) two
ways over identical work:

=========== ==========================================================
pass         what each trial costs
=========== ==========================================================
``batched``  the campaign path: cell-affine chunks over
             :meth:`ParallelExecutor.map_batched`; each worker keeps a
             resident :class:`repro.validation.Cell` per cell and
             serves whole chunks from in-memory rungs -- cost scales
             with *cells*, not trials.
``cold``     the outcome reference: the cold :func:`run_trial` of
             every trial the batched pass ran, each a fresh system
             simulated from cycle 0, plus one profiling run per cell.
=========== ==========================================================

Ladder spacing is sized per cell (~RUNGS rungs) from *untimed* probe
runs before either measured pass -- interval choice is campaign
configuration, not part of the work being compared -- and both passes
run with the same per-cell ``snapshot_every``, so they share one
laddered timing universe.  Correctness is asserted, not assumed: the
cold trials of the crash cycles the batched pass planned must produce
the same stripped per-cell outcomes (trials, cycles, violations,
failures), so the speedup is pure mechanics.  The batched pass runs
under an event bus + metrics registry and the JSON records where its
restores came from (``resident`` / ``store`` / ``cold``), batch
counts, how many trials restored a rung, and a determinism sample:
every rung the pass stored for the first cell must replay onto the
straight-line run's end fingerprint (:func:`verify_cell`).

Standalone::

    PYTHONPATH=src python benchmarks/bench_campaign.py

CI regression gate (compares against the committed JSON, fails the
process if batched trials/sec drop >20%)::

    PYTHONPATH=src python benchmarks/bench_campaign.py --check BENCH_campaign.json
"""

import gc
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace

from repro.harness import ParallelExecutor
from repro.obsv.bus import EventBus, bus_scope
from repro.obsv.registry import MetricsRegistry
from repro.snapshot import SnapshotStore
from repro.validation.campaign import (_CAPTURED_PAYLOADS,
                                       _RESIDENT_CELLS, TrialSpec,
                                       profile_cell, run_campaign,
                                       run_trial, verify_cell)

WORKLOADS = ["hashmap", "queue"]
DESIGNS = ["PMEM-Spec", "IntelX86"]
CELLS = [(w, d) for w in WORKLOADS for d in DESIGNS]
BUDGET = 40          # per cell: 2x2 cells -> 160 stratified trials
N_THREADS = 2
FASES = 400
SEED = 42
RUNGS = 16
#: Pool width for the batched pass.  Resident-cell batching is a
#: per-worker mechanism, so it pays off at any width; capping at the
#: core count keeps single-core boxes honest (``jobs=1`` runs the
#: batched path in-process instead of taxing one core with a pool).
JOBS = min(4, os.cpu_count() or 1)
CHUNK = 10           # trials per (cell, chunk) task: 4 batches/cell
MIN_SPEEDUP = 2.5    # batched vs the committed PR 4 warm number
REGRESSION_TOLERANCE = 0.20

#: The PR 4 snapshot-ladder bench measured the warm serial
#: (trial-at-a-time restore-from-store) campaign at 8.4s on this exact
#: grid.  Frozen so the batched path's headline is measured against
#: the design it replaced.
PR4_WARM_BASELINE_S = 8.4


def cell_spec(workload: str, design: str, every: int = 0) -> TrialSpec:
    return TrialSpec(workload=workload, design=design,
                     n_threads=N_THREADS, fases_per_thread=FASES,
                     seed=SEED, snapshot_every=every)


def pick_intervals() -> dict:
    """Per-cell ladder spacing (~RUNGS rungs) from unladdered probes."""
    intervals = {}
    for workload, design in CELLS:
        profile = profile_cell(cell_spec(workload, design))
        intervals[(workload, design)] = max(
            1, len(profile.persist_cycles) // RUNGS)
    return intervals


def _settle() -> None:
    """Start a pass from a settled process: no resident systems, no
    cached rung bytes or payloads, and no garbage from the previous
    pass inflating this one."""
    _RESIDENT_CELLS.clear()
    _CAPTURED_PAYLOADS.clear()
    SnapshotStore.clear_read_cache()
    gc.collect()


def _batched(intervals, snapshot_dir, bus):
    """The campaign path, one campaign per cell; returns (reports,
    wall)."""
    _settle()
    started = time.perf_counter()
    reports = [
        run_campaign(
            [workload], [design], planner="stratified", budget=BUDGET,
            seed=SEED, n_threads=N_THREADS, fases_per_thread=FASES,
            shrink=False, snapshot_every=intervals[(workload, design)],
            snapshot_dir=snapshot_dir,
            executor=ParallelExecutor(jobs=JOBS, bus=bus), batch=CHUNK)
        for workload, design in CELLS]
    return reports, time.perf_counter() - started


def _failure(outcome: dict) -> dict:
    return {key: value for key, value in outcome.items()
            if key not in ("restored_from_cycle", "spec")}


def _cold(intervals, cycles):
    """The cold trial of every planned crash cycle, shaped like
    :func:`_strip` of the campaign reports; returns (cells, wall)."""
    _settle()
    started = time.perf_counter()
    cells = []
    for workload, design in CELLS:
        spec = cell_spec(workload, design, intervals[(workload, design)])
        total_cycles = profile_cell(spec).total_cycles
        outcomes = [run_trial(replace(spec, crash_cycle=cycle))
                    for cycle in cycles[(workload, design)]]
        failures = sorted((o for o in outcomes if not o["consistent"]),
                          key=lambda o: o["crash_cycle"])
        cells.append({
            "workload": workload, "design": design,
            "trials": len(outcomes), "total_cycles": total_cycles,
            "violation_kinds": sorted({
                violation["kind"] for failure in failures
                for violation in failure["violations"]}),
            "failures": [_failure(failure) for failure in failures],
        })
    return cells, time.perf_counter() - started


def _strip(reports) -> list:
    """Cell outcomes without timing/provenance fields."""
    cells = []
    for report in reports:
        for cell in report.cells:
            cells.append({
                "workload": cell["workload"], "design": cell["design"],
                "trials": cell["trials"],
                "total_cycles": cell["total_cycles"],
                "violation_kinds": cell["violation_kinds"],
                "failures": [_failure(failure)
                             for failure in cell["failures"]],
            })
    return cells


def _restore_sources(registry) -> dict:
    """resident/store/cold restore counts out of the registry."""
    snap = registry.snapshot()
    series = snap.get("repro_snapshot_restores_total", {}).get("series", {})
    sources = {"resident": 0, "store": 0, "cold": 0}
    for labels, count in series.items():
        for source in sources:
            if source in labels:
                sources[source] += int(count)
    fallbacks = snap.get("repro_snapshot_cold_fallbacks_total", {})
    sources["cold_fallbacks"] = int(
        sum(fallbacks.get("series", {}).values()))
    batches = snap.get("repro_batches_total", {})
    sources["batches"] = int(sum(batches.get("series", {}).values()))
    return sources


def run_campaign_bench(scratch: str) -> dict:
    intervals = pick_intervals()

    registry = MetricsRegistry()
    bus = EventBus(registry=registry)
    bus.subscribe(registry.observe_event)
    cycles = {cell: [] for cell in CELLS}

    def planned(event):
        if event["kind"] == "trial_finish":
            cycles[(event["workload"], event["design"])].append(
                event["crash_cycle"])
    bus.subscribe(planned)
    with bus_scope(bus):
        reports, batched_s = _batched(intervals, scratch, bus)

    cold_cells, cold_s = _cold(intervals, cycles)
    outcomes_match = _strip(reports) == cold_cells
    total_trials = sum(report.total_trials for report in reports)

    first = CELLS[0]
    determinism = verify_cell(replace(
        cell_spec(*first, intervals[first]), snapshot_dir=scratch))

    passes = {"cold": cold_s, "batched": batched_s}
    return {
        "bench": "campaign_batched_throughput",
        "params": {"workloads": WORKLOADS, "designs": DESIGNS,
                   "budget_per_cell": BUDGET, "n_threads": N_THREADS,
                   "fases_per_thread": FASES, "seed": SEED,
                   "rungs_per_cell": RUNGS, "jobs": JOBS,
                   "batch_chunk": CHUNK,
                   "cell_snapshot_every": {
                       f"{w}/{d}": every
                       for (w, d), every in sorted(intervals.items())}},
        "total_trials": total_trials,
        "passes": {name: round(wall, 3) for name, wall in passes.items()},
        "trials_per_sec": {name: round(total_trials / wall, 1)
                           for name, wall in passes.items()},
        "batched_trials_per_sec": round(total_trials / batched_s, 1),
        "pr4_warm_baseline_s": PR4_WARM_BASELINE_S,
        "speedup_vs_pr4_warm": round(PR4_WARM_BASELINE_S / batched_s, 2),
        "speedup_vs_cold": round(cold_s / batched_s, 2),
        "batched_restore_sources": _restore_sources(registry),
        "restored_trials": sum(cell["restored_trials"]
                               for report in reports
                               for cell in report.cells),
        "outcomes_match": outcomes_match,
        "determinism": {
            "cell": "/".join(first),
            "rungs_verified": len(determinism["checks"]),
            "all_rungs_deterministic": determinism["ok"],
        },
    }


def main(argv) -> int:
    scratch = tempfile.mkdtemp(prefix="repro-campaign-bench-")
    try:
        payload = run_campaign_bench(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = []
    if not payload["outcomes_match"]:
        failures.append("batched outcomes diverged from cold trials")
    if not payload["determinism"]["all_rungs_deterministic"]:
        failures.append("a stored rung did not replay deterministically")
    if payload["speedup_vs_pr4_warm"] < MIN_SPEEDUP:
        failures.append(
            f"batched speedup {payload['speedup_vs_pr4_warm']}x < "
            f"{MIN_SPEEDUP}x bar vs the PR 4 warm baseline")
    if payload["batched_restore_sources"]["resident"] == 0:
        failures.append("no trial was ever served from a resident rung")
    if "--check" in argv:
        committed_path = argv[argv.index("--check") + 1]
        with open(committed_path) as handle:
            committed = json.load(handle)["batched_trials_per_sec"]
        floor = committed * (1.0 - REGRESSION_TOLERANCE)
        payload["regression_check"] = {
            "committed_batched_trials_per_sec": committed,
            "floor": round(floor, 1),
            "ok": payload["batched_trials_per_sec"] >= floor,
        }
        if payload["batched_trials_per_sec"] < floor:
            failures.append(
                f"batched {payload['batched_trials_per_sec']} trials/s "
                f"below {floor:.1f} (committed {committed} - "
                f"{REGRESSION_TOLERANCE:.0%})")
    else:
        with open("BENCH_campaign.json", "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    status = "ok" if not failures else "; ".join(failures)
    print(f"campaign bench: {payload['total_trials']} trials, "  # noqa: T201
          f"cold {payload['passes']['cold']}s / batched "
          f"{payload['passes']['batched']}s "
          f"({payload['speedup_vs_pr4_warm']}x vs PR 4 warm) [{status}]")
    return 0 if not failures else 1


def test_campaign_batched_speedup(benchmark, run_once, tmp_path):
    payload = run_once(benchmark,
                       lambda: run_campaign_bench(str(tmp_path)))
    print("\n" + json.dumps(payload, indent=2))  # noqa: T201
    assert payload["outcomes_match"], \
        "batched campaign changed trial outcomes"
    assert payload["determinism"]["all_rungs_deterministic"]
    assert payload["batched_restore_sources"]["resident"] > 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
