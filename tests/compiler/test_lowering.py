"""Unit tests for the per-design lowering."""

import pytest

from repro.compiler import (
    LoweringError,
    lower_fase,
    lower_program,
    lower_rollback,
)
from repro.isa import (
    Clwb,
    Comp,
    Compute,
    Dfence,
    Fase,
    FaseBegin,
    FaseEnd,
    Ld,
    Lock,
    LockAcquire,
    LockRelease,
    Ofence,
    PRead,
    Program,
    PWrite,
    Sfence,
    SpecAssign,
    SpecBarrier,
    SpecRevoke,
    St,
    ThreadProgram,
    Unlock,
)
from repro.runtime.undo_log import UndoLogLayout, stamp_target


def locked_fase(fase_id=0, addr=0x1000_0040, value=9):
    return Fase(fase_id, [
        LockAcquire(0),
        PRead(addr),
        PWrite(addr, value),
        Compute(10),
        LockRelease(0),
    ])


def tx_fase(fase_id=0, addr=0x1000_0040, value=9):
    return Fase(fase_id, [PRead(addr), PWrite(addr, value)])


class TestStructure:
    def test_begin_and_end_markers(self):
        lowered = lower_fase(locked_fase(), 0, "x86")
        assert isinstance(lowered.ops[0], FaseBegin)
        assert isinstance(lowered.ops[-1], FaseEnd)

    def test_unknown_flavor_rejected(self):
        with pytest.raises(LoweringError):
            lower_fase(locked_fase(), 0, "arm")

    def test_lock_ops_lowered(self):
        lowered = lower_fase(locked_fase(), 0, "x86")
        assert lowered.count(Lock) == 1
        assert lowered.count(Unlock) == 1

    def test_compute_lowered(self):
        lowered = lower_fase(locked_fase(), 0, "x86")
        assert lowered.count(Comp) == 1

    def test_log_entries_before_data_write(self):
        lowered = lower_fase(tx_fase(addr=0x1000_0040, value=7), 3, "x86",
                             epoch=4)
        layout = UndoLogLayout(3)
        kinds = [(op.kind if isinstance(op, St) else type(op).__name__)
                 for op in lowered.ops]
        first_log = kinds.index("log")
        first_data = kinds.index("data")
        assert first_log < first_data
        # Old value first, stamped validity marker second, right region.
        log_stores = [op for op in lowered.ops
                      if isinstance(op, St) and op.kind == "log"]
        assert log_stores[0].addr == layout.entry_old_addr(0)
        assert log_stores[0].log_of == 0x1000_0040
        assert log_stores[1].addr == layout.entry_target_addr(0)
        assert log_stores[1].value == stamp_target(4, 0x1000_0040)

    def test_old_value_read_emitted(self):
        lowered = lower_fase(tx_fase(addr=0x1000_0040), 0, "pmemspec")
        loads = [op.addr for op in lowered.ops if isinstance(op, Ld)]
        assert 0x1000_0040 in loads

    def test_commit_bumps_epoch(self):
        lowered = lower_fase(tx_fase(), 2, "pmemspec", epoch=6)
        layout = UndoLogLayout(2)
        commits = [op for op in lowered.ops
                   if isinstance(op, St) and op.kind == "commit"]
        assert len(commits) == 1
        assert commits[0].addr == layout.epoch_addr
        assert commits[0].value == 7

    def test_read_only_fase_has_no_log_or_barrier(self):
        fase = Fase(0, [PRead(0x1000_0040), Compute(5)])
        for flavor in ("x86", "hops", "pmemspec"):
            lowered = lower_fase(fase, 0, flavor)
            assert lowered.count(St) == 0
            assert lowered.count(Sfence) == 0
            assert lowered.count(Dfence) == 0
            assert lowered.count(SpecBarrier) == 0


class TestX86Flavor:
    def test_three_sfences_per_writing_fase(self):
        lowered = lower_fase(locked_fase(), 0, "x86")
        assert lowered.count(Sfence) == 3

    def test_clwb_covers_data_blocks(self):
        fase = Fase(0, [PWrite(0x1000_0040, 1), PWrite(0x1000_0080, 2),
                        PWrite(0x1000_0044, 3)])
        lowered = lower_fase(fase, 0, "x86")
        data_clwbs = {op.addr for op in lowered.ops if isinstance(op, Clwb)}
        assert 0x1000_0040 in data_clwbs
        assert 0x1000_0080 in data_clwbs

    def test_no_custom_instructions(self):
        lowered = lower_fase(locked_fase(), 0, "x86")
        for forbidden in (Ofence, Dfence, SpecBarrier, SpecAssign,
                          SpecRevoke):
            assert lowered.count(forbidden) == 0


class TestHopsFlavor:
    def test_two_ofences_one_dfence(self):
        lowered = lower_fase(locked_fase(), 0, "hops")
        assert lowered.count(Ofence) == 2
        assert lowered.count(Dfence) == 1
        assert lowered.count(Sfence) == 0
        assert lowered.count(Clwb) == 0


class TestPmemSpecFlavor:
    def test_single_barrier(self):
        lowered = lower_fase(locked_fase(), 0, "pmemspec")
        assert lowered.count(SpecBarrier) == 1
        assert lowered.count(Sfence) == 0
        assert lowered.count(Ofence) == 0
        assert lowered.count(Clwb) == 0

    def test_spec_assign_after_lock_revoke_before_unlock(self):
        lowered = lower_fase(locked_fase(), 0, "pmemspec")
        ops = lowered.ops
        lock_idx = next(i for i, op in enumerate(ops)
                        if isinstance(op, Lock))
        assign_idx = next(i for i, op in enumerate(ops)
                          if isinstance(op, SpecAssign))
        revoke_idx = next(i for i, op in enumerate(ops)
                          if isinstance(op, SpecRevoke))
        unlock_idx = next(i for i, op in enumerate(ops)
                          if isinstance(op, Unlock))
        assert lock_idx < assign_idx < revoke_idx < unlock_idx

    def test_transaction_fase_not_tagged(self):
        lowered = lower_fase(tx_fase(), 0, "pmemspec")
        assert lowered.count(SpecAssign) == 0
        assert lowered.count(SpecRevoke) == 0


class TestRollback:
    def test_rollback_writes_then_barrier_no_truncate(self):
        writes = [(0x1000_0048, 7), (0x1000_0040, 3)]
        for flavor, barrier in (("x86", Sfence), ("hops", Dfence),
                                ("pmemspec", SpecBarrier)):
            ops = lower_rollback(writes, 1, flavor)
            stores = [op for op in ops if isinstance(op, St)]
            assert [(s.addr, s.value) for s in stores] == writes
            # No epoch/truncate write: the log stays live (idempotence).
            assert all(s.kind == "rollback" for s in stores)
            assert isinstance(ops[-1], barrier)

    def test_rollback_of_nothing_is_empty(self):
        assert lower_rollback([], 0, "pmemspec") == []


class TestProgramLowering:
    def test_lower_program_per_thread(self):
        program = Program("p", [
            ThreadProgram(0, [locked_fase(0), locked_fase(1)],
                          think_cycles=5),
            ThreadProgram(1, [locked_fase(2)]),
        ], n_locks=1)
        lowered = lower_program(program, "pmemspec")
        assert len(lowered.threads) == 2
        assert len(lowered.threads[0].fases) == 2
        assert lowered.threads[0].think_cycles == 5
        assert lowered.total_ops > 0

    def test_flavors_differ_in_op_count(self):
        program = Program("p", [ThreadProgram(0, [locked_fase()])],
                          n_locks=1)
        x86 = lower_program(program, "x86").total_ops
        pmem = lower_program(program, "pmemspec").total_ops
        assert x86 > pmem

    def test_memoised_per_program(self):
        program = Program("p", [ThreadProgram(0, [locked_fase()])],
                          n_locks=1)
        assert lower_program(program, "x86") is lower_program(program,
                                                              "x86")
        assert lower_program(program, "x86") is not \
            lower_program(program, "pmemspec")

    def test_memo_does_not_outlive_program(self):
        # The memo must not pin the program: a module-level cache whose
        # value references the program leaks every program ever lowered
        # (each later benchmark pass then pays GC for all earlier ones).
        import gc
        import weakref
        program = Program("p", [ThreadProgram(0, [locked_fase()])],
                          n_locks=1)
        lower_program(program, "x86")
        ghost = weakref.ref(program)
        del program
        gc.collect()
        assert ghost() is None

    def test_memo_freed_by_reference_counting(self):
        # Cells run with the cyclic collector paused, so a program and
        # its lowerings must form no cycle: they go the moment the last
        # strong reference to the program drops, without a collection.
        import gc
        import weakref

        def lowered_program():
            program = Program("p", [ThreadProgram(0, [locked_fase()])],
                              n_locks=1)
            lowered = lower_program(program, "x86")
            lower_program(program, "pmemspec")
            return program, lowered

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            program, _lowered = lowered_program()
            ghost = weakref.ref(program)
            del program, _lowered
            assert ghost() is None
            # A lowering does not keep its program alive either.
            program, lowered = lowered_program()
            ghost = weakref.ref(program)
            assert lowered.program is program
            del program
            assert ghost() is None
            with pytest.raises(ReferenceError):
                lowered.program
        finally:
            if was_enabled:
                gc.enable()


class TestStrandFlavor:
    def test_strand_per_log_group(self):
        from repro.isa import JoinStrand, NewStrand, StrandBarrier
        fase = Fase(0, [PWrite(0x1000_0040, 1), PWrite(0x1000_0080, 2)])
        lowered = lower_fase(fase, 0, "strand")
        # Two groups (different blocks): two strands, two strand
        # barriers, one join before the commit record, one dfence.
        assert lowered.count(NewStrand) == 2
        assert lowered.count(StrandBarrier) == 2
        assert lowered.count(JoinStrand) == 1
        assert lowered.count(Dfence) == 1
        assert lowered.count(Sfence) == 0

    def test_join_precedes_commit_record(self):
        from repro.isa import JoinStrand
        fase = Fase(0, [PWrite(0x1000_0040, 1)])
        lowered = lower_fase(fase, 0, "strand", epoch=3)
        join_index = next(i for i, op in enumerate(lowered.ops)
                          if isinstance(op, JoinStrand))
        commit_index = next(i for i, op in enumerate(lowered.ops)
                            if isinstance(op, St) and op.kind == "commit")
        assert join_index < commit_index

    def test_read_only_strand_fase_is_bare(self):
        from repro.isa import JoinStrand, NewStrand
        fase = Fase(0, [PRead(0x1000_0040)])
        lowered = lower_fase(fase, 0, "strand")
        assert lowered.count(NewStrand) == 0
        assert lowered.count(JoinStrand) == 0
        assert lowered.count(Dfence) == 0
