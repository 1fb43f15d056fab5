"""End-to-end tests for each stall source the comparison turns on:
store-queue pressure, MLP exhaustion, WPQ backpressure, ring
contention, and DPO's serial flush channel."""

from repro.config import table3_config
from repro.isa import Compute, Fase, PRead, Program, PWrite, ThreadProgram
from repro.persistency import design_by_name
from repro.runtime import DATA_BASE
from repro.system import build_system


def program_of(ops_fn, n_threads=1, fases=4, think=0, initial=None):
    threads = []
    fase_id = 0
    for tid in range(n_threads):
        fase_list = []
        for index in range(fases):
            fase_list.append(Fase(fase_id, ops_fn(tid, index)))
            fase_id += 1
        threads.append(ThreadProgram(tid, fase_list, think_cycles=think))
    return Program("stalls", threads, initial_heap=initial or {})


class TestStoreQueuePressure:
    def test_tiny_store_queue_stalls_the_core(self):
        """§8.2.1: CLWB and SFENCE consume store-queue entries."""
        def burst(tid, index):
            base = DATA_BASE + index * 4096
            return [PWrite(base + i * 64, i + 1) for i in range(24)]

        def run(entries):
            program = program_of(burst)
            config = table3_config(n_cores=1,
                                   store_queue_entries=entries)
            system = build_system(program, design_by_name("IntelX86"),
                                  config)
            result = system.run()
            sq = system.cores[0].store_queue.stats
            return result.cycles, sq["full_stalls"], sq["full_stall_cycles"]

        cycles_small, stalls_small, stall_cycles_small = run(entries=2)
        cycles_big, stalls_big, stall_cycles_big = run(entries=64)
        assert stalls_small > stalls_big
        assert stall_cycles_small > stall_cycles_big
        assert cycles_small >= cycles_big


class TestMLPBudget:
    def test_mlp_one_serialises_pm_misses(self):
        """Independent PM misses overlap up to the MSHR budget; budget
        1 degenerates to blocking loads."""
        def scatter(tid, index):
            base = DATA_BASE + index * (1 << 16)
            return [PRead(base + i * 64) for i in range(12)]

        def run(budget):
            program = program_of(scatter, fases=3)
            config = table3_config(n_cores=1, mlp_misses=budget)
            system = build_system(program, design_by_name("PMEM-Spec"),
                                  config)
            return system.run().cycles

        serial = run(1)
        parallel = run(8)
        assert serial > parallel * 2


class TestWPQBackpressure:
    def test_tiny_write_queue_throttles_flush_heavy_code(self):
        def writer(tid, index):
            base = DATA_BASE + index * 8192
            return [PWrite(base + i * 64, 1) for i in range(16)]

        def run(capacity, banks):
            program = program_of(writer, fases=4)
            config = table3_config(n_cores=1, pmc_write_queue=capacity,
                                   pmc_write_banks=banks)
            system = build_system(program, design_by_name("IntelX86"),
                                  config)
            result = system.run()
            return result.cycles, system.pmc.write_queue.stalled_pushes

        slow_cycles, slow_stalls = run(capacity=2, banks=1)
        fast_cycles, fast_stalls = run(capacity=64, banks=8)
        assert slow_stalls > fast_stalls
        assert slow_cycles > fast_cycles


class TestRingContention:
    def test_narrow_ring_slows_pmem_spec_write_bursts(self):
        def writer(tid, index):
            base = DATA_BASE + (tid * 64 + index) * 8192
            return [PWrite(base + i * 8, 1) for i in range(64)]

        def run(lanes):
            program = program_of(writer, n_threads=4, fases=3)
            config = table3_config(n_cores=4, persist_path_lanes=lanes)
            system = build_system(program, design_by_name("PMEM-Spec"),
                                  config)
            result = system.run()
            return result.cycles, system.persist_path.stats[
                "cycles_waited"]

        narrow_cycles, narrow_wait = run(lanes=1)
        wide_cycles, wide_wait = run(lanes=8)
        assert narrow_wait > wide_wait
        assert narrow_cycles >= wide_cycles


class TestDPOSerialChannel:
    def test_contention_scales_dpo_fence_stalls(self):
        def writer(tid, index):
            base = DATA_BASE + tid * (1 << 14) + index * 256
            return [PWrite(base, 1), PWrite(base + 64, 2)]

        def run(n_threads):
            program = program_of(writer, n_threads=n_threads, fases=6)
            config = table3_config(n_cores=n_threads)
            system = build_system(program, design_by_name("DPO"), config)
            result = system.run()
            stats = result.stats["design"]
            return (stats["sfence_stall_cycles"]
                    / max(1, stats["sfences"]))

        assert run(8) > run(1)
