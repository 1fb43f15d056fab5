"""The reproduction's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Runs cold passes of one workload, each in a fresh interpreter
(``perfbench/passes.py``), for about ``--seconds`` seconds, then checks
that every pass produced the same per-cell result digests (and, for the
seeds recorded in ``golden.json``, the recorded ones).  With
``--trace 1`` one more pass runs under ``cProfile`` with timed spans and
its per-layer breakdown is reported instead of the end-to-end metrics.

Human-readable lines go to standard output first; the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the reasons behind them: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("fig10-manycore", "campaign-crashstates")
END_TO_END = {"wall_ref_s": "s", "slowest_cell_ref_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
#: Every run keeps starting passes until the next would overrun
#: ``--seconds``, but makes at least this many, so a median exists.
MIN_PASSES = 2
#: Extra processes per run that stop at the first measured call, so
#: setup_s is a median over more samples than there are passes.
SETUP_SAMPLES = 6
#: A run must end within 180 s; no pass may start after this.
DEADLINE_S = 165.0

#: Exact counts of the traced pass that must repeat run to run.
EXACT_COUNTS = ("sim.cycles", "sim.fases", "pmc.persists", "pmc.reads",
                "core.spec_buffer_overflows", "sim.misspeculations",
                "sim.stats_add_calls", "sim.calls_per_persist",
                "snapshot.captures", "snapshot.restores",
                "validation.trials", "crashstates.images",
                "crashstates.truncated_cycles")


def run_pass(workload: str, seed: int, timeout: float,
             trace: bool = False, setup_only: bool = False
             ) -> Optional[Dict]:
    """One pass in a fresh interpreter; ``None`` if it failed."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(BENCH_DIR / "passes.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        print(f"pass exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def slowest_cell(passes: List[Dict]):
    """(name, reference-speed seconds) of the cell with the largest
    median over the passes; per-cell medians keep one slow pass from
    setting the maximum."""
    medians = {name: statistics.median(p["cell_s"][name] * p["host_scale"]
                                       for p in passes)
               for name in passes[0]["cell_s"]}
    name = max(medians, key=medians.get)
    return name, medians[name]


def digest_mismatches(passes: List[Dict]) -> int:
    """Cells whose digest differs from the first pass's."""
    reference = passes[0]["digests"]
    bad = 0
    for other in passes[1:]:
        names = set(reference) | set(other["digests"])
        bad += sum(1 for name in names
                   if reference.get(name) != other["digests"].get(name))
    return bad


def golden_mismatches(workload: str, seed: int, passes: List[Dict],
                      traced: Optional[Dict]) -> Optional[List[str]]:
    """Differences from ``golden.json``; ``None`` if the seed is not in
    it."""
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    expected = golden.get(workload, {}).get(str(seed))
    if expected is None:
        return None
    problems = []
    for name, digest in expected["digests"].items():
        if passes[0]["digests"].get(name) != digest:
            problems.append(f"digest of {name}")
    if set(passes[0]["digests"]) != set(expected["digests"]):
        problems.append("set of cells")
    if traced is not None:
        for key, value in expected["counts"].items():
            if traced["per_layer"][key] != value:
                problems.append(f"{key} {traced['per_layer'][key]} != "
                                f"{value}")
    return problems


def end_to_end(passes: List[Dict], setups: List[float]
               ) -> Dict[str, List[float]]:
    """Samples behind each end-to-end metric; the metric is their
    median (``slowest_cell_ref_s`` has one sample, already a median).
    Host times are rescaled to the reference host speed, net of the
    probe's own time (see ``HostSpeedProbe`` in passes.py)."""
    return {"wall_ref_s": [(p["wall_s"] - p["probe_s"]) * p["host_scale"]
                           for p in passes],
            "slowest_cell_ref_s": [slowest_cell(passes)[1]],
            "setup_s": setups + [p["setup_s"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}


def report(workload: str, seed: int, passes: List[Dict],
           samples: Dict[str, List[float]], traced: Optional[Dict]) -> None:
    """The human-readable summary (everything but the last line)."""
    print(f"workload {workload} seed {seed}: {len(passes)} cold passes")
    for name, unit in END_TO_END.items():
        values = samples[name]
        print(f"  {name:<16} {statistics.median(values):12.4f} {unit}"
              f"   (samples: {' '.join(f'{v:.3f}' for v in values)})")
    for name in ("wall_s", "host_scale"):
        values = [p[name] for p in passes]
        print(f"  {name:<16} {statistics.median(values):12.4f} "
              f"{'s' if name == 'wall_s' else 'x'}"
              f"   (samples: {' '.join(f'{v:.3f}' for v in values)})")
    first = passes[0]
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    print(f"  failed_frac      {failed / attempted:12.4f}"
          f"   ({failed} of {attempted} operations)")
    print(f"  slowest cell     {slowest_cell(passes)[0]}")
    if "accuracy" in first:
        acc = first["accuracy"]
        print(f"  hops_margin_gap_pts {acc['hops_margin_gap_pts']:9.4f} pts"
              f"   (PMEM-Spec vs HOPS {acc['margin_pts']:+.2f}% here, "
              f"paper {acc['paper_margin_pts']:+.1f}%; simulated)")
    if "report_digest" in first:
        print(f"  report digest    {first['report_digest'][:16]}  "
              f"fingerprint() per pass: "
              f"{sorted({p['fingerprint'][:8] for p in passes})}")
    if traced is None:
        return
    layer = traced["per_layer"]
    print(f"  traced pass: wall {traced['wall_s']:.3f} s, "
          f"trace_overhead {layer['trace_overhead']:.3f}, "
          f"partition ok {traced['partition']['ok']}")
    for key in sorted(layer):
        print(f"    {key:<34} {layer[key]:.6g}")
    slow = sorted(traced["cell_table"], key=lambda row: -(row["build_s"]
                                                          + row["run_s"]))
    if slow:
        print("  slowest cells (traced): build_s run_s cycles")
        for row in slow[:8]:
            print(f"    {row['cell']:<48} {row['build_s']:7.3f} "
                  f"{row['run_s']:7.3f} {row['cycles']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # What a user's second run finds on disk: byte-compiled modules.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the program does not compile", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_SAMPLES):
        sample = run_pass(args.workload, args.seed, 60, setup_only=True)
        if sample is None:
            return 1
        setups.append(sample["setup_s"])
    passes: List[Dict] = []
    broken = 0
    # A traced run needs one untraced pass, for trace_overhead and the
    # digest comparison; its end-to-end numbers are not reported.
    min_passes = 1 if args.trace else MIN_PASSES
    while True:
        elapsed = time.perf_counter() - started
        done = run_pass(args.workload, args.seed, DEADLINE_S - elapsed)
        if done is None:
            broken += 1
            break
        passes.append(done)
        elapsed = time.perf_counter() - started
        mean = elapsed / len(passes)
        if len(passes) >= min_passes and (
                args.trace or elapsed + mean > args.seconds):
            break
        if elapsed + mean > DEADLINE_S:
            break
    traced = None
    if args.trace and passes:
        elapsed = time.perf_counter() - started
        traced = run_pass(args.workload, args.seed,
                          DEADLINE_S + 10 - elapsed, trace=True)
        if traced is None:
            broken += 1
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1

    checked = passes + ([traced] if traced is not None else [])
    attempted = sum(p["attempted"] for p in checked) + broken
    failed = sum(p["failed"] for p in checked) + broken
    failed += digest_mismatches(checked)
    correct = failed == 0
    golden = golden_mismatches(args.workload, args.seed, passes, traced)
    if golden:
        print(f"golden.json mismatch for seed {args.seed}: {golden}")
        failed += len(golden)
        correct = False
    if traced is not None:
        traced["per_layer"]["trace_overhead"] = traced["wall_s"] / \
            statistics.median(p["wall_s"] for p in passes)
        if not traced["partition"]["ok"]:
            print(f"layer partition check failed: {traced['partition']}")
            correct = False

    samples = end_to_end(passes, setups)
    report(args.workload, args.seed, passes, samples, traced)
    if traced is not None:
        metrics = {key: {"value": value, "unit": unit_of(key)}
                   for key, value in traced["per_layer"].items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    special = {"sim.kcycles_per_s": "kcycles/s",
               "sim.host_us_per_persist": "us",
               "sim.calls_per_persist": "calls",
               "crashstates.images_per_s": "1/s",
               "validation.restored_frac": "ratio",
               "trace_overhead": "ratio"}
    if metric in special:
        return special[metric]
    return "s" if metric.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
