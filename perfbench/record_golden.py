"""Rewrite ``golden.json``: per-cell digests and exact counts for the
recorded seeds, from one traced pass per workload and seed.

    python3 perfbench/record_golden.py

Run it only when a change is meant to alter simulated results; a change
that only makes the program faster must reproduce the file as it is.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, EXACT_COUNTS, WORKLOADS, run_pass

#: 42 is the repository's default seed; 7 is held out from tuning.
SEEDS = (42, 7)


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            traced = run_pass(workload, seed, 600, trace=True)
            if traced is None or traced["failed"]:
                print(f"{workload} seed {seed}: pass failed",
                      file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = {
                "digests": traced["digests"],
                "counts": {key: traced["per_layer"][key]
                           for key in EXACT_COUNTS}}
            print(f"{workload} seed {seed}: {len(traced['digests'])} "
                  f"cells recorded")
    (BENCH_DIR / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
