"""Multiple PM controllers (§7).

PMEM-Spec "currently cannot support systems with multiple PM
controllers": detection state lives inside one controller, and the
per-core FIFO property of the persist path only holds *per controller*
-- two stores from one core that route to different controllers can be
accepted (become durable) out of program order, breaking the strict
intra-thread persist order that both misspeculation detection and the
undo-log protocol rest on.

:class:`PMCComplex` models exactly that: ``n`` controllers interleaved
by cache-block number, each with its own queues, policy (and, under
PMEM-Spec, its own speculation buffer), sharing one PM device.
``set_controller_extra`` skews one controller's arrival latency so the
hazard is reachable in small runs.

The paper leaves the fix -- "an extension to an on-chip network to make
it respect the store order" -- as future work; ``ordered_noc=True``
implements it: per-core acceptance is clamped to be monotone *across*
controllers, restoring strict order at the cost of coupling the
controllers' admission.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..sim import Counter, Environment
from .interconnect import PersistMessage
from .pm_controller import PMCPolicy, PMController
from .pm_device import PMDevice


class PMCComplex:
    """N block-interleaved PM controllers behind one device."""

    def __init__(self, env: Environment, config: SystemConfig,
                 device: PMDevice,
                 policies: Optional[Sequence[PMCPolicy]] = None,
                 n_controllers: Optional[int] = None,
                 ordered_noc: Optional[bool] = None):
        self.env = env
        self.config = config
        self.device = device
        count = n_controllers or config.n_pm_controllers
        if count < 1:
            raise ValueError("need at least one PM controller")
        if policies is None:
            policies = [PMCPolicy() for _ in range(count)]
        if len(policies) != count:
            raise ValueError(
                f"{count} controllers need {count} policies, "
                f"got {len(policies)}")
        self.controllers: List[PMController] = [
            PMController(env, config, device, policy)
            for policy in policies]
        self.ordered_noc = (config.ordered_noc if ordered_noc is None
                            else ordered_noc)
        self._extra: List[int] = [0] * count
        # Ordered-NoC state: last acceptance per core, across controllers.
        self._core_order: Dict[int, int] = {}
        self.local_stats = Counter()

    # ------------------------------------------------------------- routing

    @property
    def n_controllers(self) -> int:
        return len(self.controllers)

    def route(self, block: int) -> int:
        """Which controller owns cache block ``block`` (interleaved)."""
        return block % self.n_controllers

    def controller_of(self, block: int) -> PMController:
        return self.controllers[self.route(block)]

    def set_controller_extra(self, index: int, cycles: int) -> None:
        """Extra arrival latency into controller ``index`` (asymmetric
        interconnect distance/congestion; the §7 hazard needs it)."""
        if cycles < 0:
            raise ValueError("negative extra latency")
        self._extra[index] = cycles

    # ------------------------------------------------- PMC-compatible API

    def read_block(self, block: int, now: int, fill=None) -> int:
        return self.controller_of(block).read_block(block, now, fill)

    def accept_writeback(self, block_addr: int, data, arrival: int) -> int:
        block = block_addr >> 6
        arrival += self._extra[self.route(block)]
        return self.controller_of(block).accept_writeback(
            block_addr, data, arrival)

    def accept_persist(self, msg: PersistMessage, arrival: int) -> int:
        block = msg.addr >> 6
        index = self.route(block)
        arrival += self._extra[index]
        previous = self._core_order.get(msg.core_id, 0)
        if self.ordered_noc and arrival < previous:
            # Future-work extension (§7): the NoC respects store order,
            # so a message cannot reach its controller before the core's
            # earlier messages were accepted elsewhere.
            self.local_stats.add("noc_order_clamps")
            arrival = previous
        accept = self.controllers[index].accept_persist(msg, arrival)
        if accept < previous:
            # Only reachable without the ordered NoC: the §7 hazard.
            self.local_stats.add("cross_pmc_reorderings")
        self._core_order[msg.core_id] = max(previous, accept)
        return accept

    # --------------------------------------------------------------- stats

    @property
    def stats(self) -> Counter:
        merged = Counter()
        merged.merge(self.local_stats)
        for controller in self.controllers:
            merged.merge(controller.stats)
        return merged

    # ---------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        return {"controllers": [controller.capture_state()
                                for controller in self.controllers],
                "core_order": list(self._core_order.items()),
                "local_stats": self.local_stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        for controller, sub in zip(self.controllers, state["controllers"]):
            controller.restore_state(sub)
        self._core_order = {core: t for core, t in state["core_order"]}
        self.local_stats.restore_state(state["local_stats"])
