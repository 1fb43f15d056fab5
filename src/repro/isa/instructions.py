"""Instruction definitions.

Two layers mirror the paper's software stack:

* **Abstract IR** -- what an unannotated persistent program says: reads and
  writes to persistent memory, computation, lock operations, and
  failure-atomic section (FASE) boundaries.  Workloads emit this layer;
  it carries *no* persistency annotations (Figure 2's "leave the program
  almost as-is" ideal).
* **Machine ops** -- what a core executes after the compiler lowers the IR
  for a given design: plain loads/stores plus the per-design ordering
  primitives (CLWB/SFENCE for IntelX86 and DPO, OFENCE/DFENCE for HOPS,
  SPEC_BARRIER/SPEC_ASSIGN/SPEC_REVOKE for PMEM-Spec).

Addresses are byte addresses on a 64-byte cache-block grid; ``block_of``
maps an address to its block number.
"""

from __future__ import annotations

from typing import Dict, Optional

CACHE_BLOCK_BYTES = 64


def block_of(addr: int) -> int:
    """Cache-block number containing byte address ``addr``."""
    return addr >> 6


def block_base(addr: int) -> int:
    """First byte address of the block containing ``addr``."""
    return addr & ~(CACHE_BLOCK_BYTES - 1)


def index_blocks(image: Dict[int, int]) -> Dict[int, Dict[int, int]]:
    """``image`` by cache block, {block: {addr: value}}, in its order."""
    blocks: Dict[int, Dict[int, int]] = {}
    for addr, value in image.items():
        bucket = blocks.get(addr >> 6)
        if bucket is None:
            blocks[addr >> 6] = {addr: value}
        else:
            bucket[addr] = value
    return blocks


# --------------------------------------------------------------------------
# Abstract IR (design-independent)
# --------------------------------------------------------------------------

class IROp:
    """Base class for abstract program operations."""

    __slots__ = ()


class PRead(IROp):
    """Read from persistent memory."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:
        return f"PRead(0x{self.addr:x})"


class PWrite(IROp):
    """Write to persistent memory (undo-logged inside a FASE).

    ``shared`` marks the target as potentially visible to other threads.
    Writes a compiler can prove thread-private (escape analysis over
    per-thread allocations) carry ``shared=False``; PMEM-Spec's lowering
    skips spec-ID tagging for them since no inter-thread persist order
    exists to violate (§5.2.2).
    """

    __slots__ = ("addr", "value", "shared")

    def __init__(self, addr: int, value: int, shared: bool = True):
        self.addr = addr
        self.value = value
        self.shared = shared

    def __repr__(self) -> str:
        return f"PWrite(0x{self.addr:x}, {self.value})"


class Compute(IROp):
    """Local (non-memory) work measured in core cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError("negative compute cycles")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Compute({self.cycles})"


class LockAcquire(IROp):
    """Acquire a named program lock (enters a critical section)."""

    __slots__ = ("lock_id",)

    def __init__(self, lock_id: int):
        self.lock_id = lock_id

    def __repr__(self) -> str:
        return f"LockAcquire({self.lock_id})"


class LockRelease(IROp):
    """Release a named program lock (exits a critical section)."""

    __slots__ = ("lock_id",)

    def __init__(self, lock_id: int):
        self.lock_id = lock_id

    def __repr__(self) -> str:
        return f"LockRelease({self.lock_id})"


# --------------------------------------------------------------------------
# Machine ops (design-specific, produced by the compiler)
# --------------------------------------------------------------------------

class MachineOp:
    """Base class for lowered machine operations."""

    __slots__ = ()

    mnemonic = "nop"


class Ld(MachineOp):
    """Load: travels the regular path (caches, then PM on miss)."""

    __slots__ = ("addr",)

    mnemonic = "ld"

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:
        return f"Ld(0x{self.addr:x})"


class St(MachineOp):
    """Store.  ``to_pm`` marks a persistent-memory store; ``kind`` tags
    its role ('data', 'log', 'commit') for statistics and log replay.

    ``log_of`` marks an undo-log *old-value* store: its value is not
    known at compile time, so the executing core resolves it by reading
    the architectural value of address ``log_of`` at execution time and
    reports the pair to the failure-atomic runtime.
    """

    __slots__ = ("addr", "value", "to_pm", "kind", "log_of", "shared")

    mnemonic = "st"

    def __init__(self, addr: int, value: int = 0, to_pm: bool = True,
                 kind: str = "data", log_of: Optional[int] = None,
                 shared: bool = True):
        self.addr = addr
        self.value = value
        self.to_pm = to_pm
        self.kind = kind
        self.log_of = log_of
        self.shared = shared

    def __repr__(self) -> str:
        return f"St(0x{self.addr:x}, {self.value}, kind={self.kind})"


class Clwb(MachineOp):
    """Cache-line write-back: pushes the line toward the PM controller
    without invalidating it.  Occupies a store-queue entry (see §8.2.1)."""

    __slots__ = ("addr",)

    mnemonic = "clwb"

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:
        return f"Clwb(0x{self.addr:x})"


class Sfence(MachineOp):
    """x86 store fence: stalls the core until prior CLWBs complete."""

    __slots__ = ()

    mnemonic = "sfence"

    def __repr__(self) -> str:
        return "Sfence()"


class Ofence(MachineOp):
    """HOPS ordering fence: epoch boundary, asynchronous (non-blocking)."""

    __slots__ = ()

    mnemonic = "ofence"

    def __repr__(self) -> str:
        return "Ofence()"


class Dfence(MachineOp):
    """HOPS durability fence: blocks until this core's persist buffer drains."""

    __slots__ = ()

    mnemonic = "dfence"

    def __repr__(self) -> str:
        return "Dfence()"


class SpecBarrier(MachineOp):
    """PMEM-Spec durability barrier: blocks until all prior persist-path
    stores of this core have reached the PM controller (ADR domain)."""

    __slots__ = ()

    mnemonic = "spec_barrier"

    def __repr__(self) -> str:
        return "SpecBarrier()"


class SpecAssign(MachineOp):
    """PMEM-Spec: read the global speculation-ID counter into the core's
    spec-ID register and atomically increment it (critical-section entry)."""

    __slots__ = ()

    mnemonic = "spec_assign"

    def __repr__(self) -> str:
        return "SpecAssign()"


class SpecRevoke(MachineOp):
    """PMEM-Spec: clear the core's spec-ID register (critical-section exit)."""

    __slots__ = ()

    mnemonic = "spec_revoke"

    def __repr__(self) -> str:
        return "SpecRevoke()"


class MirrorOld(MachineOp):
    """Runtime bookkeeping op (redo logging): record the current value of
    ``addr`` in the runtime's volatile undo mirror so an abort can
    restore the cached view.  Free at execution time -- the value was
    just loaded by the preceding Ld."""

    __slots__ = ("addr",)

    mnemonic = "mirror_old"

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:
        return f"MirrorOld(0x{self.addr:x})"


class NewStrand(MachineOp):
    """StrandWeaver: begin a new strand -- clears persist-order
    dependencies so the new strand's persists may drain concurrently
    with older strands (Gogte et al., ISCA'20)."""

    __slots__ = ()

    mnemonic = "new_strand"

    def __repr__(self) -> str:
        return "NewStrand()"


class StrandBarrier(MachineOp):
    """StrandWeaver persist-barrier: orders persists *within* the
    current strand only; never stalls the core."""

    __slots__ = ()

    mnemonic = "strand_barrier"

    def __repr__(self) -> str:
        return "StrandBarrier()"


class JoinStrand(MachineOp):
    """StrandWeaver: join -- subsequent persists are ordered after every
    outstanding strand (used before the commit record); the durability
    wait happens at the following strand-aware dfence."""

    __slots__ = ()

    mnemonic = "join_strand"

    def __repr__(self) -> str:
        return "JoinStrand()"


class Comp(MachineOp):
    """Lowered computation: ``cycles`` of non-memory core work."""

    __slots__ = ("cycles",)

    mnemonic = "comp"

    def __init__(self, cycles: int):
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Comp({self.cycles})"


class Lock(MachineOp):
    """Acquire program lock ``lock_id`` (simulated futex)."""

    __slots__ = ("lock_id",)

    mnemonic = "lock"

    def __init__(self, lock_id: int):
        self.lock_id = lock_id

    def __repr__(self) -> str:
        return f"Lock({self.lock_id})"


class Unlock(MachineOp):
    """Release program lock ``lock_id``."""

    __slots__ = ("lock_id",)

    mnemonic = "unlock"

    def __init__(self, lock_id: int):
        self.lock_id = lock_id

    def __repr__(self) -> str:
        return f"Unlock({self.lock_id})"


class FaseBegin(MachineOp):
    """Runtime hook: a failure-atomic section starts (clears the thread's
    misspeculation flag, opens an undo-log scope)."""

    __slots__ = ("fase_id",)

    mnemonic = "fase_begin"

    def __init__(self, fase_id: int):
        self.fase_id = fase_id

    def __repr__(self) -> str:
        return f"FaseBegin({self.fase_id})"


class FaseEnd(MachineOp):
    """Runtime hook: FASE commit point (checks the misspeculation flag --
    lazy recovery aborts here -- then truncates the undo log)."""

    __slots__ = ("fase_id",)

    mnemonic = "fase_end"

    def __init__(self, fase_id: int):
        self.fase_id = fase_id

    def __repr__(self) -> str:
        return f"FaseEnd({self.fase_id})"


MEMORY_OPS = (Ld, St, Clwb)
FENCE_OPS = (Sfence, Ofence, Dfence, SpecBarrier, StrandBarrier)


def is_barrier(op: MachineOp) -> bool:
    """True for any ordering/durability primitive (Figure 2 counting)."""
    return isinstance(op, FENCE_OPS)


def describe(op: MachineOp) -> str:
    """Short human-readable description used by trace dumps."""
    addr: Optional[int] = getattr(op, "addr", None)
    if addr is not None:
        return f"{op.mnemonic} 0x{addr:x}"
    return op.mnemonic
