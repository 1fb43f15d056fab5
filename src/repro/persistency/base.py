"""Design abstraction: one class per evaluated persistency-model
implementation (§8.1's four designs).

A :class:`Design` owns the persistency-specific behaviour on both sides:

* **core side** -- what each lowered machine op costs and which state it
  touches (``store``, ``clwb``, the four fences, spec-assign/revoke).
  Every method is synchronous: it mutates timing resources and returns
  the completion time; the CPU core converts that into store-queue
  occupancy and stalls.
* **PMC side** -- via :meth:`build_pmc_policy`, the policy that decides
  what happens to writebacks/reads/persists arriving at the controller.

The compiler selects the instruction *flavor* (which lowering to emit)
from :attr:`Design.flavor`; the system builder wires a design to the
machine through :meth:`bind`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..mem import PMCPolicy
from ..sim import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import System


class UnsupportedOp(RuntimeError):
    """An op foreign to this design's ISA reached the core (compiler bug)."""


class Design:
    """Base class; subclasses are IntelX86Epoch, DPO, HOPS, PMEMSpec."""

    name = "base"
    flavor = "x86"          # which compiler lowering this design executes
    drops_llc_writebacks = False
    uses_persist_path = False

    def __init__(self) -> None:
        self.system: "System" = None
        self.stats = Counter()

    # ------------------------------------------------------------- wiring

    def bind(self, system: "System") -> None:
        """Attach to a built system; called once before simulation."""
        self.system = system

    def build_pmc_policy(self, index: int = 0) -> PMCPolicy:
        """The policy installed into PM controller ``index`` (multi-PMC
        systems build one per controller; baselines persist everything)."""
        return PMCPolicy()

    @property
    def bus_extra_cycles(self) -> int:
        """Extra L1<->LLC bus cycles (HOPS' sticky bit, §8.2.2)."""
        return 0

    # -------------------------------------------------------------- stores

    def store(self, core_id: int, addr: int, value: int, now: int,
              to_pm: bool = True, kind: str = "data",
              shared: bool = True) -> int:
        """Perform a committed store; returns its completion time."""
        return self.system.hierarchy.store(core_id, addr, value, now)

    # ----------------------------------------------------- flushes/fences

    def clwb(self, core_id: int, addr: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement clwb")

    def sfence(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement sfence")

    def ofence(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement ofence")

    def dfence(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement dfence")

    def spec_barrier(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement spec_barrier")

    def spec_assign(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement spec_assign")

    def spec_revoke(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement spec_revoke")

    def new_strand(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement new_strand")

    def strand_barrier(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement strand_barrier")

    def join_strand(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement join_strand")

    # ----------------------------------------------------- program events

    def on_lock_op(self, core_id: int, now: int) -> int:
        """Hook for volatile synchronisation ops.  DPO orders persists at
        *every* barrier inherited in the program (§8.2.2); other designs
        return ``now`` unchanged."""
        return now

    # ------------------------------------------------------------ queries

    def quiesce_time(self, now: int) -> int:
        """Time by which all in-flight persistence work has landed; used
        at end-of-run before crash snapshots and validation."""
        return now

    # -------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        """Stats only in the base; stateful designs extend the dict."""
        return {"stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        self.stats.restore_state(state["stats"])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} design>"


class PersistLog:
    """Shared helper: schedule device persists for buffered designs.

    HOPS and DPO buffer (addr, value) pairs and persist them when their
    buffers drain; this helper schedules the device update at the drain
    acceptance time so crash snapshots observe buffered-but-undrained
    data as *lost* -- the semantics persist buffers actually have.
    """

    def __init__(self, system: "System"):
        self.system = system

    def persist_at(self, addr: int, value: int, when: int,
                   origin: str = "drain") -> None:
        env = self.system.env
        device = self.system.device
        if when <= env.now:
            device.persist_store(addr, value, env.now, origin=origin)
        else:
            env.call_at(when, lambda: device.persist_store(
                addr, value, when, origin=origin))

    def persist_block_at(self, block_addr: int, data: Dict[int, int],
                         when: int, origin: str = "drain") -> None:
        env = self.system.env
        device = self.system.device
        snapshot = dict(data)
        if when <= env.now:
            device.persist_block(block_addr, snapshot, env.now,
                                 origin=origin)
        else:
            env.call_at(when, lambda: device.persist_block(
                block_addr, snapshot, when, origin=origin))
