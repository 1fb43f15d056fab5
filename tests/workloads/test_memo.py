"""The built-program memo: shared programs must not change a single
simulated bit, must be rebuilt for any other (seed, FASEs, threads), must
be released when a sweep moves on, and must not make a campaign build
more often than once per workload."""

import gc
import json

import pytest

from repro.harness.sweep import Sweep, _workload_class, execute_spec
from repro.persistency import design_by_name
from repro.system import build_system
from repro.validation import run_campaign
from repro.workloads import (BENCHMARKS, Workload, built_program,
                             holding_programs, memo)

DESIGNS = ["IntelX86", "DPO", "HOPS", "PMEM-Spec"]


@pytest.fixture
def builds(monkeypatch):
    """Every ``Workload.build`` call, as (class name, seed, args)."""
    calls = []
    original = Workload.build

    def counting(self, *args, **kwargs):
        calls.append((type(self).__name__, self.seed) + args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "build", counting)
    return calls


def fresh_result(spec):
    """One cell built the way it was before the memo: its own workload,
    program and lowering."""
    program = _workload_class(spec.benchmark)(seed=spec.seed).build(
        spec.n_threads, spec.resolved_fases())
    system = build_system(program, design_by_name(spec.design),
                          spec.resolved_config(),
                          recovery_mode=spec.recovery_mode,
                          log_mode=spec.log_mode)
    return system.run()


def canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestSharedProgramsAreNeutral:
    def test_grid_matches_fresh_builds_byte_for_byte(self, builds):
        sweep = Sweep.grid(["queue", "hashmap"], DESIGNS, n_threads=4,
                           seeds=1201, fases_per_thread=6)
        shared = [canonical(execute_spec(spec)) for spec in sweep]
        # The four designs of a benchmark share one build.
        assert [call[0] for call in builds] == ["ConcurrentQueue",
                                                "Hashmap"]
        fresh = [canonical(fresh_result(spec)) for spec in sweep]
        assert shared == fresh


class TestKeys:
    @pytest.mark.parametrize("seed,change", [
        (1301, dict(seed=1302)), (1311, dict(fases_per_thread=5)),
        (1321, dict(n_threads=3))])
    def test_any_key_change_rebuilds(self, builds, seed, change):
        base = dict(seed=seed, n_threads=2, fases_per_thread=4)
        first = built_program(BENCHMARKS["queue"], **base)
        assert built_program(BENCHMARKS["queue"], **base) is not None
        assert len(builds) == 1
        other = built_program(BENCHMARKS["queue"], **{**base, **change})
        assert len(builds) == 2
        assert other[1] is not first[1]

    def test_same_key_shares_workload_and_program(self, builds):
        key = (BENCHMARKS["hashmap"], 1401, 2, 4)
        first = built_program(*key)
        second = built_program(*key)
        assert first[0] is second[0] and first[1] is second[1]
        assert len(builds) == 1


class TestBound:
    def test_program_released_when_the_sweep_moves_on(self):
        old = (BENCHMARKS["queue"], 1501, 2, 4)
        built_program(*old)
        built_program(BENCHMARKS["hashmap"], 1501, 2, 4)
        gc.collect()
        assert old not in memo._live

    def test_held_programs_survive_until_the_hold_ends(self, builds):
        keys = [(BENCHMARKS[name], 1601, 2, 4)
                for name in ("queue", "hashmap", "queue", "hashmap")]
        with holding_programs():
            for key in keys:
                built_program(*key)
            assert len(builds) == 2
            gc.collect()
            assert keys[0] in memo._live
        built_program(BENCHMARKS["rbtree"], 1601, 2, 4)
        gc.collect()
        assert keys[0] not in memo._live and keys[1] not in memo._live


class TestCampaignBuilds:
    def test_campaign_builds_each_workload_once(self, builds, tmp_path):
        """Probe, profile, trials and crash states all revisit every
        cell; the campaign still builds each workload's program once."""
        report = run_campaign(["hashmap", "queue"], ["PMEM-Spec", "DPO"],
                              budget=6, seed=1701, fases_per_thread=6,
                              snapshot_dir=str(tmp_path), snapshot_rungs=4,
                              batch=3, crash_states=True, image_budget=4)
        assert report.consistent
        assert sorted(call[0] for call in builds) == ["ConcurrentQueue",
                                                      "Hashmap"]
