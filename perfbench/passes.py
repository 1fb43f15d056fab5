"""One benchmark pass of one workload, in the interpreter it starts.

Run by ``perfbench/run.py`` in a fresh process per pass, so every
process-wide cache of the program (resident campaign cells, captured
rung payloads, the snapshot store's read cache, the lowering memo)
starts empty, as it does for a command-line user.  The pass drives the
public Python entry points with in-process execution
(``ParallelExecutor(jobs=1)``) and the sweep result cache off, checks
its outputs, and prints one JSON object as its last line of output.

``--trace 1`` adds ``cProfile`` and timed spans around the layers'
public calls (see :mod:`layers`); end-to-end numbers never come from a
traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import pstats
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List

from layers import (ROOT, SIM_LAYERS, UNREPORTED_LAYERS, Spans,
                    all_layers, repro_modules, self_metric,
                    self_time_by_layer, unmapped_modules)

sys.path.insert(0, str(ROOT / "src"))

from repro.harness import ParallelExecutor  # noqa: E402
from repro.harness.experiments import figure10, figure10_summary  # noqa: E402
from repro.obsv.bus import EventBus  # noqa: E402
from repro.validation import run_campaign  # noqa: E402

#: Scratch space for campaign snapshot stores, inside the checkout.
TMP_DIR = ROOT / ".perfbench_tmp"

#: FASEs per thread = max(5, round(default x scale)).  At 0.1 every
#: Table-4 benchmark runs 5-6 FASEs per thread: warm-up dominated, far
#: below the paper's 100K, but the only size at which a 64-core pass
#: fits a run (about 20 s on a 2-core host).
FIG10_SCALE = 0.1

#: The paper's margin of PMEM-Spec over HOPS at 64 cores (geomean,
#: normalised to IntelX86), §8.3.1.
PAPER_MARGIN_64_CORES_PTS = 10.0

#: The reference campaign grid, at a reduced size (see README.md).
CAMPAIGN = dict(workloads=["hashmap", "queue"],
                designs=["PMEM-Spec", "IntelX86"], planner="stratified",
                budget=20, n_threads=2, fases_per_thread=200,
                snapshot_rungs=16, batch=10, crash_states=True)


#: Host-speed probe: a fixed pure-Python loop, timed every
#: PROBE_PERIOD_S during an untraced pass.  PROBE_REF_S is its time at
#: the reference host speed (the typical speed of the 2-core host the
#: benchmark was built on).
PROBE_ITERATIONS = 20_000
PROBE_PERIOD_S = 0.2
PROBE_REF_S = 2.0e-3


class HostSpeedProbe:
    """Samples how fast the host runs this process while a pass runs.

    The machine this benchmark was built on changes speed by up to 2x
    over seconds to minutes, independently per CPU, with CPU time
    tracking wall time, so run-to-run wall times mostly measure the
    host.  The probe runs from a ``SIGALRM`` handler on the pass's own
    thread, so it sees the CPU and the moment the pass runs on;
    :meth:`scale` converts measured seconds to reference-speed seconds.
    """

    def __init__(self):
        self.samples: List[float] = []

    def _probe(self, _signum=None, _frame=None) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @property
    def probe_s(self) -> float:
        """Time the probe itself took."""
        return sum(self.samples)

    @property
    def scale(self) -> float:
        """Reference-speed seconds per measured second."""
        return PROBE_REF_S / statistics.mean(self.samples)


class RecordingExecutor(ParallelExecutor):
    """Keeps every :class:`SweepResult` the figure functions produce
    (they return only normalised tables)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sweeps = []

    def run(self, sweep):
        done = super().run(sweep)
        self.sweeps.append(done)
        return done


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Host-time fields, and the per-pass temp dir: provenance, not outcome.
#: (``CampaignReport.fingerprint()`` strips the first three but still
#: hashes ``params.snapshot_dir``, so it differs between identical
#: campaigns run in different directories.)
NOT_OUTCOME = ("elapsed_s", "timings", "obsv", "snapshot_dir")


def _strip(value):
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items()
                if key not in NOT_OUTCOME}
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def _sim_cells(executor: RecordingExecutor) -> Dict:
    """Per-cell digests and checks over every sweep of the pass."""
    cells: Dict[str, Dict] = {}
    for done in executor.sweeps:
        for spec, result in done:
            info = result.stats["executor"]
            expected = spec.n_threads * spec.resolved_fases()
            problems = []
            if result.fases_committed != expected:
                problems.append(f"committed {result.fases_committed} of "
                                f"{expected} FASEs")
            if info["cache_hit"]:
                problems.append("served from the result cache")
            name = spec.describe()
            if name in cells:
                problems.append("cell simulated twice")
            cells[name] = {"digest": _digest(result.to_dict()),
                           "cycles": result.cycles, "problems": problems}
    return cells


def fig10_manycore(seed: int, executor: RecordingExecutor, _tmp) -> Dict:
    """Figure 10 at 64 cores: 8 benchmarks x 4 designs."""
    table = figure10(core_counts=(64,), scale=FIG10_SCALE, seed=seed,
                     executor=executor)
    geomeans = figure10_summary(table)[64]
    margin = 100.0 * (geomeans["PMEM-Spec"] / geomeans["HOPS"] - 1.0)
    return {"cells": _sim_cells(executor),
            "accuracy": {
                "margin_pts": margin,
                "paper_margin_pts": PAPER_MARGIN_64_CORES_PTS,
                "hops_margin_gap_pts": abs(margin
                                           - PAPER_MARGIN_64_CORES_PTS)}}


def campaign_crashstates(seed: int, executor: RecordingExecutor,
                         tmp: str) -> Dict:
    """The reference stratified campaign with the crash-states oracle."""
    report = run_campaign(seed=seed, executor=executor, snapshot_dir=tmp,
                          **CAMPAIGN)
    cs_cells = report.crash_states["cells"]
    cells: Dict[str, Dict] = {}
    for cell, cs_cell in zip(report.cells, cs_cells):
        name = f"{cell['workload']}/{cell['design']}"
        problems = []
        if cell["failures"]:
            problems.append(f"{len(cell['failures'])} inconsistent trials")
        if cs_cell["images_failed"] or cs_cell["floor_mismatches"]:
            problems.append(f"{cs_cell['images_failed']} failed images, "
                            f"{cs_cell['floor_mismatches']} floor "
                            f"mismatches")
        cells[name] = {
            "digest": _digest([_strip(cell), _strip(cs_cell)]),
            "trials": cell["trials"],
            "failed_trials": len(cell["failures"]),
            "restored_trials": cell["restored_trials"],
            "images": cs_cell["images_enumerated"],
            "failed_images": cs_cell["images_failed"],
            "timings": cs_cell["timings"],
            "truncated_cycles": cs_cell["truncated_cycles"],
            "problems": problems}
    return {"cells": cells,
            "report_digest": _digest(_strip(report.to_dict())),
            "fingerprint": report.fingerprint(),
            "consistent": report.consistent and report.crash_states_ok}


WORKLOADS = {
    "fig10-manycore": fig10_manycore,
    "campaign-crashstates": campaign_crashstates,
}


def _ops(workload: str, outcome: Dict) -> Dict:
    """Operations attempted and failed: cells for Figure 10, trials
    plus crash-state images for the campaign."""
    cells = outcome["cells"]
    if workload == "campaign-crashstates":
        attempted = sum(c["trials"] + c["images"] for c in cells.values())
        failed = sum(c["failed_trials"] + c["failed_images"]
                     for c in cells.values())
        if not outcome["consistent"] and not failed:
            failed = 1
    else:
        attempted = len(cells)
        failed = sum(1 for c in cells.values() if c["problems"])
    return {"attempted": attempted, "failed": failed}


def _span_key(event: Dict) -> str:
    """The cell an executor event belongs to.  Campaign task labels end
    in ``workload/design``, so a campaign cell's probe, profile and
    trial batches add up to one span."""
    if event["kind"] == "spec_finish":
        return event["describe"]
    match = re.search(r"(\S+/\S+)", event["label"].replace("profile ", ""))
    return match.group(1) if match else event["label"]


def _cell_spans(events: List[Dict]) -> Dict[str, float]:
    """Host time per cell from the executor's finish events."""
    spans: Dict[str, float] = {}
    for event in events:
        if event["kind"] in ("spec_finish", "task_finish", "batch_finish"):
            key = _span_key(event)
            spans[key] = spans.get(key, 0.0) + event["elapsed_s"]
    return spans


def _cell_seconds(outcome: Dict, cell_spans: Dict[str, float]
                  ) -> Dict[str, float]:
    """Host time per cell: executor spans, plus for a campaign cell its
    crash-states check (which runs outside the executor)."""
    seconds = dict(cell_spans)
    for name, cell in outcome["cells"].items():
        if "timings" in cell:
            seconds[name] = seconds.get(name, 0.0) + sum(
                cell["timings"].values())
    return seconds


def _install_spans(spans: Spans, counts: Dict[str, int]) -> None:
    """Wrap the public entry points of each measured layer; ``counts``
    accumulates the simulated work every ``System.advance`` does."""
    import repro.system as system_mod
    from repro.harness import sweep as sweep_mod
    from repro.validation import campaign as campaign_mod
    from repro.crashstates import checker as checker_mod
    from repro.workloads.base import Workload

    def advance_counts(args, before):
        system = args[0]
        now = (system.env.now, system.pmc.stats["persists"],
               system.pmc.stats["reads"], system.runtime.total_commits,
               sum(b.stats["overflows"] for b in system.spec_buffers),
               sum(b.stats["load_misspeculations"]
                   + b.stats["store_misspeculations"]
                   for b in system.spec_buffers))
        if before is None:
            return now
        for key, new, old in zip(
                ("sim.cycles", "pmc.persists", "pmc.reads", "sim.fases",
                 "core.spec_buffer_overflows", "sim.misspeculations"),
                now, before):
            counts[key] += new - old
        return None

    spans.wrap(Workload, "build", "workloads.build_s")
    spans.wrap(system_mod, "lower_program", "compiler.lower_s")
    spans.wrap(system_mod, "build_system", "system.build_s")
    spans.wrap(sweep_mod, "build_system", "system.build_s")
    spans.wrap(system_mod.System, "advance", "sim.run_s",
               observe=advance_counts)
    spans.wrap(system_mod.System, "capture_state", "snapshot.capture_s")
    spans.wrap(system_mod.System, "restore_state", "snapshot.restore_s")
    spans.wrap(campaign_mod, "profile_cell", "validation.profile_s")
    spans.wrap(campaign_mod, "profile_cell_seeding", "validation.profile_s")
    spans.wrap(campaign_mod, "run_trial_batch", "validation.trials_s")
    spans.wrap(campaign_mod, "shrink_crash_cycle", "validation.shrink_s")
    spans.wrap(checker_mod, "shrink_crash_cycle", "validation.shrink_s")
    spans.wrap(checker_mod, "check_cell", "crashstates.check_cell_s")


def _per_layer(workload: str, outcome: Dict, spans: Spans,
               profile: Dict, counts: Dict[str, int], wall: float,
               cell_spans: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    t = spans.totals
    metrics: Dict[str, float] = {
        "workloads.build_s": t["workloads.build_s"],
        "compiler.lower_s": t["compiler.lower_s"],
        # Lowering runs inside build_system; charge it to the compiler.
        "system.build_s": t["system.build_s"] - t["compiler.lower_s"],
        "sim.run_s": t["sim.run_s"],
    }
    metrics.update(counts)
    persists = max(1, counts["pmc.persists"])
    metrics["sim.kcycles_per_s"] = (counts["sim.cycles"] / 1e3
                                    / max(t["sim.run_s"], 1e-9))
    metrics["sim.host_us_per_persist"] = t["sim.run_s"] * 1e6 / persists
    metrics["sim.stats_add_calls"] = profile["stats_add_calls"]
    metrics["sim.calls_per_persist"] = sum(
        profile["calls"][layer] for layer in SIM_LAYERS) / persists
    for layer in all_layers():
        if layer not in UNREPORTED_LAYERS:
            metrics[self_metric(layer)] = profile["self_s"][layer]
    metrics["snapshot.capture_s"] = t["snapshot.capture_s"]
    metrics["snapshot.captures"] = spans.calls["snapshot.capture_s"]
    metrics["snapshot.restore_s"] = t["snapshot.restore_s"]
    metrics["snapshot.restores"] = spans.calls["snapshot.restore_s"]

    cells = outcome["cells"]
    campaign = workload == "campaign-crashstates"
    trials = sum(c["trials"] for c in cells.values()) if campaign else 0
    restored = sum(c["restored_trials"] for c in cells.values()) \
        if campaign else 0
    metrics["validation.profile_s"] = t["validation.profile_s"]
    metrics["validation.trials_s"] = t["validation.trials_s"]
    metrics["validation.trials"] = trials
    metrics["validation.restored_frac"] = restored / trials if trials else 0.0
    metrics["validation.shrink_s"] = t["validation.shrink_s"]

    cs = {key: 0.0 for key in ("canonical_s", "acquire_s", "enumerate_s",
                               "check_s")}
    images = truncated = 0
    if campaign:
        for cell in cells.values():
            for key in cs:
                cs[key] += cell["timings"][key]
            images += cell["images"]
            truncated += cell["truncated_cycles"]
    for key, value in cs.items():
        metrics[f"crashstates.{key}"] = value
    metrics["crashstates.images"] = images
    judged_s = cs["acquire_s"] + cs["enumerate_s"] + cs["check_s"]
    metrics["crashstates.images_per_s"] = images / judged_s \
        if judged_s else 0.0
    metrics["crashstates.truncated_cycles"] = truncated

    executed = sum(cell_spans.values()) + t["crashstates.check_cell_s"]
    metrics["harness.executor_s"] = wall - executed
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() at which the parent started "
                             "this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first measured call and report "
                             "setup_s alone")
    args = parser.parse_args()

    events: List[Dict] = []
    bus = EventBus()
    bus.subscribe(events.append)
    executor = RecordingExecutor(jobs=1, cache_dir=None, bus=bus)
    TMP_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pass-", dir=TMP_DIR)

    spans = profiler = None
    counts: Dict[str, int] = {}
    if args.trace:
        strays = unmapped_modules(repro_modules())
        if strays:
            raise SystemExit(f"repro modules outside every layer: {strays}")
        counts = defaultdict(int)
        spans = Spans()
        _install_spans(spans, counts)

        def follow_cell(event):
            if event["kind"] == "spec_start":
                spans.cell = event["describe"]
            elif event["kind"] == "spec_finish":
                spans.cell = None
        bus.subscribe(follow_cell)
        profiler = cProfile.Profile()

    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        shutil.rmtree(tmp, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    probe = HostSpeedProbe() if not args.trace else None
    started = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            with probe or contextlib.nullcontext():
                outcome = WORKLOADS[args.workload](args.seed, executor,
                                                   tmp)
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if spans is not None:
            spans.restore()

    stale = [e for e in events
             if e["kind"] == "spec_finish" and e["cache_hit"]]
    ops = _ops(args.workload, outcome)
    ops["failed"] += len(stale)
    cell_spans = _cell_spans(events)
    result = {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace),
        "wall_s": wall, "setup_s": setup_s,
        "probe_s": probe.probe_s if probe else 0.0,
        "host_scale": probe.scale if probe else 1.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cell_s": _cell_seconds(outcome, cell_spans),
        "cache_hits": len(stale),
        **ops,
        "digests": {name: cell["digest"]
                    for name, cell in outcome["cells"].items()},
        "problems": {name: cell["problems"]
                     for name, cell in outcome["cells"].items()
                     if cell["problems"]},
    }
    for key in ("accuracy", "report_digest", "fingerprint"):
        if key in outcome:
            result[key] = outcome[key]
    if args.trace:
        profile = self_time_by_layer(pstats.Stats(profiler))
        partition_error = abs(sum(profile["self_s"].values())
                              - profile["total_s"])
        result["partition"] = {
            "strays": profile["strays"],
            "profiled_total_s": profile["total_s"],
            "sum_error_s": partition_error,
            "ok": not profile["strays"] and partition_error < 1e-6}
        result["per_layer"] = _per_layer(
            args.workload, outcome, spans, profile, dict(counts), wall,
            cell_spans)
        table = []
        for name, totals in spans.cell_totals.items():
            table.append({"cell": name,
                          "build_s": cell_spans[name] - totals["sim.run_s"],
                          "run_s": totals["sim.run_s"],
                          "cycles": outcome["cells"][name]["cycles"]})
        result["cell_table"] = table
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
