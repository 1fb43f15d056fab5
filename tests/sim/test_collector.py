"""The cell-scoped collector pause: the context manager itself, the
entry points that use it, and the invariant it depends on -- a
simulation run creates no cyclic garbage, so nothing accumulates while
the collector is off."""

import gc
import weakref

import pytest

from repro.crashstates.checker import check_cell
from repro.harness import sweep
from repro.harness.sweep import RunSpec, build_spec_system, execute_spec
from repro.sim import collector_paused
from repro.snapshot import SnapshotLadder
from repro.validation import campaign
from repro.validation.campaign import (TrialSpec, _profile_cell, run_trial,
                                       run_trial_batch)
from repro.workloads import LoadMisspecProbe, StoreMisspecProbe


@pytest.fixture
def collector_on():
    """Start each test with the collector on, and leave it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestContextManager:
    def test_pauses_the_body_and_resumes(self, collector_on):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_resumes_after_an_exception(self, collector_on):
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_leaves_a_caller_disabled_collector_disabled(self,
                                                         collector_on):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nests(self, collector_on):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_decorator_pauses_each_call(self, collector_on):
        seen = []

        @collector_paused()
        def entry(fail):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("cell failed")
            return "done"

        assert entry(False) == "done"
        with pytest.raises(RuntimeError):
            entry(True)
        assert entry(False) == "done"
        assert seen == [False, False, False]
        assert gc.isenabled()


def _small_run():
    return RunSpec(benchmark="hashmap", design="PMEM-Spec", n_threads=2,
                   fases_per_thread=6, seed=11)


def _small_trial(crash_cycle=400):
    return TrialSpec(workload="hashmap", design="PMEM-Spec", n_threads=2,
                     fases_per_thread=6, seed=11, crash_cycle=crash_cycle)


ENTRY_POINTS = {
    "execute_spec": lambda: execute_spec(_small_run()),
    "run_trial": lambda: run_trial(_small_trial()),
    "_profile_cell": lambda: _profile_cell(_small_trial()),
    "run_trial_batch": lambda: run_trial_batch([_small_trial(300),
                                                _small_trial(600)]),
    "check_cell": lambda: check_cell(_small_trial(), (300, 600),
                                     image_budget=4),
}


class TestEntryPoints:
    @pytest.fixture
    def builds_seen(self, monkeypatch):
        """The collector state at every system build, so the pause is
        known to cover the system's whole life, construction included."""
        seen = []
        for module, name in ((sweep, "build_spec_system"),
                             (campaign, "build_crash_system")):
            original = getattr(module, name)

            def recording(*args, _original=original, **kwargs):
                seen.append(gc.isenabled())
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)
        return seen

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_paused_inside_and_restored_after(self, collector_on,
                                              builds_seen, entry):
        ENTRY_POINTS[entry]()
        assert gc.isenabled()
        assert builds_seen and not any(builds_seen)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_caller_disabled_collector_stays_disabled(self, collector_on,
                                                      entry):
        gc.disable()
        ENTRY_POINTS[entry]()
        assert not gc.isenabled()

    def test_dead_system_is_freed_by_the_next_young_collection(
            self, collector_on, monkeypatch):
        # The pause covers the system's whole life, so none of it has
        # been promoted out of the youngest generation when the cell
        # drops it: a generation-0 collection frees all of it.
        ghosts = []
        original = sweep.build_spec_system

        def recording(*args, **kwargs):
            system = original(*args, **kwargs)
            ghosts.append(weakref.ref(system))
            return system

        monkeypatch.setattr(sweep, "build_spec_system", recording)
        old = gc.get_threshold()
        try:
            # Eager thresholds: any collection during the cell would
            # promote the system out of generation 0.
            gc.set_threshold(100, 1, 1)
            execute_spec(_small_run())
            gc.collect(0)
        finally:
            gc.set_threshold(*old)
        assert len(ghosts) == 1 and ghosts[0]() is None

    def test_results_do_not_depend_on_the_collector(self, collector_on):
        paused = execute_spec(_small_run()).to_dict()
        old = gc.get_threshold()
        try:
            gc.set_threshold(10, 2, 2)
            system = build_spec_system(_small_run())
            aggressive = system.run().to_dict()
        finally:
            gc.set_threshold(*old)
        assert paused == aggressive


# ------------------------------------------------ no cyclic garbage


def _spec(**fields):
    base = dict(benchmark="hashmap", design="PMEM-Spec", n_threads=2,
                fases_per_thread=6, seed=21)
    base.update(fields)
    return RunSpec(**base)


STORE_PROBE = dict(
    benchmark=StoreMisspecProbe.name, n_threads=2, fases_per_thread=10,
    config=StoreMisspecProbe.recommended_config(2),
    core_extra_cycles=(0, StoreMisspecProbe.slow_core_extra_cycles()))

CASES = {
    "IntelX86": (_spec(design="IntelX86"), None),
    "DPO": (_spec(design="DPO"), None),
    "HOPS": (_spec(design="HOPS"), None),
    "PMEM-Spec": (_spec(), None),
    "StrandWeaver": (_spec(design="StrandWeaver"), None),
    "store-probe-lazy": (_spec(**STORE_PROBE), None),
    "store-probe-eager": (_spec(recovery_mode="eager", **STORE_PROBE),
                          None),
    "load-probe": (_spec(
        benchmark=LoadMisspecProbe.name, fases_per_thread=10,
        config=LoadMisspecProbe.recommended_config(2, True)), None),
    "redo": (_spec(design="HOPS", log_mode="redo"), None),
    "crash-cut": (_spec(benchmark="queue"), 700),
    "ladder-capture": (_spec(benchmark="queue"), "ladder"),
}


class TestRunsCreateNoCyclicGarbage:
    """A model change that adds a reference cycle per event (a closure
    capturing its own event, a back-pointer in a queue entry) fails here
    instead of silently growing memory while cells run paused."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_collect_after_run_finds_nothing(self, collector_on, case):
        spec, mode = CASES[case]
        system = build_spec_system(spec)
        ladder = None
        if mode == "ladder":
            ladder = SnapshotLadder(system, 5, keep_in_memory=True).install()
        with collector_paused():
            gc.collect()
            result = system.run(until=mode if isinstance(mode, int)
                                else None)
            # Still paused: the collector must not have run since.
            unreachable = gc.collect()
        assert unreachable == 0
        if case.startswith("store-probe"):
            assert result.store_misspeculations > 0
            assert result.fases_aborted > 0
        if case == "load-probe":
            assert result.load_misspeculations > 0
        if ladder is not None:
            assert ladder.rungs_captured > 0
        if case == "crash-cut":
            assert system.env.now <= 700
            assert result.fases_committed < (spec.n_threads
                                             * spec.fases_per_thread)
