"""The cache hierarchy: per-core L1 data caches over a shared, inclusive
LLC, with MESI-lite coherence and write-back/write-allocate policy.

Timing conventions
------------------
* **Loads** return a :class:`LoadResult`; cache hits are fully
  synchronous, an LLC miss (``level == "pm"``) fills the caches and
  calls the caller's ``on_fill`` when the PM read completes.  The value
  a PM miss returns is the *persisted* content at arrival time -- this
  is how stale reads (PM load misspeculation, §5.1) manifest.
* **Stores** are computed synchronously: state is mutated immediately
  and a completion time is returned; the store queue in
  :mod:`repro.cpu.store_queue` turns that into back-pressure.  Automaton
  inputs (PM reads for write-allocate fetches) are still delivered to
  the PMC policy at their arrival times, in global time order.
* **Evictions** of dirty LLC lines travel the flush path to the PMC; the
  active design's policy decides whether the data persists (baselines)
  or is dropped with only monitoring started (PMEM-Spec, §4.2).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..config import SystemConfig
from ..isa import block_of
from ..sim import Counter, Environment
from .cache import EXCLUSIVE, MODIFIED, SHARED, Cache, EvictedLine
from .interconnect import FlushPath
from .pm_controller import PMController


class MemoryImage:
    """Architectural (volatile-visible) values: what a race-free reader
    should observe.  Diffed against the PM device image by stale-read
    accounting and crash tests."""

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self._values: Dict[int, int] = dict(initial or {})

    def read(self, addr: int) -> int:
        return self._values.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self._values[addr] = value

    def snapshot(self) -> Dict[int, int]:
        return dict(self._values)

    def capture_state(self) -> dict:
        return {"values": list(self._values.items())}

    def restore_state(self, state: dict) -> None:
        self._values = {addr: value for addr, value in state["values"]}


class LoadResult:
    """Outcome of a load; a PM miss (``level == "pm"``) gets its
    ``value`` and ``stale`` when its fill runs at ``done``."""

    __slots__ = ("value", "done", "level", "stale")

    def __init__(self, value: Optional[int] = None, done: int = 0,
                 level: str = "l1", stale: bool = False):
        self.value = value
        self.done = done
        self.level = level
        self.stale = stale


class CacheHierarchy:
    """L1s + shared LLC + coherence + the flush path to the PMC."""

    def __init__(self, env: Environment, config: SystemConfig,
                 pmc: PMController, image: MemoryImage,
                 bus_extra_cycles: int = 0):
        self.env = env
        self.config = config
        self.pmc = pmc
        self.image = image
        self.flush_path = FlushPath(config)
        self.l1_lat = config.ns(config.l1_hit_ns)
        self.l2_lat = config.ns(config.l2_hit_ns) + bus_extra_cycles
        self.l1s: List[Cache] = [
            Cache(f"l1[{i}]", config.l1_sets, config.l1_ways)
            for i in range(config.n_cores)]
        self.llc = Cache("llc", config.l2_sets, config.l2_ways)
        # Sharer directory: block -> set of core ids whose L1 holds it.
        # Pure bookkeeping (states still live in the lines); it keeps
        # coherence lookups O(sharers) instead of O(n_cores), which is
        # what makes 64-core runs tractable.
        self._sharers: Dict[int, set] = {}
        self.stats = Counter()

    # ---------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        # Sharer sets hold small core ids; capture sorted for a stable
        # encoding (value-ordered iteration matches CPython's small-int
        # set order on restore, so replay is unaffected).
        return {"l1s": [l1.capture_state() for l1 in self.l1s],
                "llc": self.llc.capture_state(),
                "sharers": [(block, sorted(cores))
                            for block, cores in self._sharers.items()],
                "flush_path": self.flush_path.capture_state(),
                "image": self.image.capture_state(),
                "stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        for l1, l1_state in zip(self.l1s, state["l1s"]):
            l1.restore_state(l1_state)
        self.llc.restore_state(state["llc"])
        self._sharers = {block: set(cores)
                         for block, cores in state["sharers"]}
        self.flush_path.restore_state(state["flush_path"])
        self.image.restore_state(state["image"])
        self.stats.restore_state(state["stats"])

    # ------------------------------------------------------------ coherence

    def _sharer_add(self, core_id: int, block: int) -> None:
        self._sharers.setdefault(block, set()).add(core_id)

    def _sharer_drop(self, core_id: int, block: int) -> None:
        sharers = self._sharers.get(block)
        if sharers is not None:
            sharers.discard(core_id)
            if not sharers:
                del self._sharers[block]

    def _other_modified_owner(self, core_id: int,
                              block: int) -> Optional[int]:
        for owner in self._sharers.get(block, ()):
            if owner == core_id:
                continue
            line = self.l1s[owner].lookup(block, touch=False)
            if line is not None and line.state == MODIFIED:
                return owner
        return None

    def _snoop_downgrade_peers(self, core_id: int, block: int) -> bool:
        """A read snoop reached ``block``: every other L1 copy must drop
        to SHARED, or its owner's next store would take the silent
        exclusive-hit path and skip invalidating the new reader.  Only
        call after the MODIFIED-owner (c2c) case has been handled, so
        peers here are E or S and no dirty data can be lost.  Returns
        True when any peer copy exists (the requester fills SHARED)."""
        shared = False
        for owner in self._sharers.get(block, ()):
            if owner == core_id:
                continue
            self.l1s[owner].downgrade(block, SHARED)
            shared = True
        return shared

    def _invalidate_other_l1s(self, core_id: int, block: int) -> Dict[int, int]:
        """Invalidate every other L1 copy; returns merged dirty data."""
        merged: Dict[int, int] = {}
        for owner in list(self._sharers.get(block, ())):
            if owner == core_id:
                continue
            victim = self.l1s[owner].invalidate(block)
            self._sharer_drop(owner, block)
            if victim is not None:
                self.stats.add("coherence_invalidations")
                if victim.dirty:
                    merged.update(victim.data)
        return merged

    def _merge_into_llc(self, block: int, data: Dict[int, int],
                        dirty: bool, now: int) -> None:
        """Fold (possibly dirty) data into the inclusive LLC copy."""
        line = self.llc.lookup(block, touch=False)
        if line is None:
            victim = self.llc.insert(block, dict(data),
                                     MODIFIED if dirty else EXCLUSIVE)
            if victim is not None:
                self._retire_llc_victim(victim, now)
            return
        line.data.update(data)
        if dirty:
            line.state = MODIFIED

    def _retire_llc_victim(self, victim: EvictedLine, now: int) -> None:
        """An LLC line leaves the hierarchy: enforce inclusivity by pulling
        back any L1 copies, then notify the PMC if the result is dirty."""
        data = dict(victim.data)
        dirty = victim.dirty
        for owner in list(self._sharers.get(victim.block, ())):
            pulled = self.l1s[owner].invalidate(victim.block)
            self._sharer_drop(owner, victim.block)
            if pulled is not None:
                self.stats.add("inclusive_back_invalidations")
                if pulled.dirty:
                    data.update(pulled.data)
                    dirty = True
        if dirty:
            self.stats.add("llc_dirty_writebacks")
            arrival = self.flush_path.send(now)
            self.pmc.accept_writeback(victim.block * 64, data, arrival)
        else:
            self.stats.add("llc_clean_evictions")

    def _fill_l1(self, core_id: int, block: int, data: Dict[int, int],
                 state: str, now: int) -> None:
        victim = self.l1s[core_id].insert(block, data, state)
        self._sharer_add(core_id, block)
        if victim is not None:
            self._sharer_drop(core_id, victim.block)
            if victim.dirty:
                self.stats.add("l1_dirty_evictions")
                self._merge_into_llc(victim.block, victim.data,
                                     dirty=True, now=now)

    # ----------------------------------------------------------------- load

    def load(self, core_id: int, addr: int, now: int,
             on_fill: Optional[Callable] = None) -> LoadResult:
        block = block_of(addr)
        l1 = self.l1s[core_id]
        t = now + self.l1_lat
        line = l1.lookup(block)
        if line is not None:
            self.stats.add("l1_hits")
            return LoadResult(value=line.data.get(addr, 0), done=t,
                              level="l1")
        t += self.l2_lat
        # Dirty copy in a peer L1: cache-to-cache transfer, both -> SHARED.
        owner = self._other_modified_owner(core_id, block)
        if owner is not None:
            self.stats.add("c2c_transfers")
            peer = self.l1s[owner].lookup(block, touch=False)
            data = dict(peer.data)
            self.l1s[owner].downgrade(block, SHARED)
            self._merge_into_llc(block, data, dirty=True, now=t)
            self._fill_l1(core_id, block, dict(data), SHARED, t)
            return LoadResult(value=data.get(addr, 0), done=t, level="c2c")
        llc_line = self.llc.lookup(block)
        if llc_line is not None:
            self.stats.add("llc_hits")
            shared = self._snoop_downgrade_peers(core_id, block)
            self._fill_l1(core_id, block, dict(llc_line.data),
                          SHARED if shared else EXCLUSIVE, t)
            return LoadResult(value=llc_line.data.get(addr, 0), done=t,
                              level="llc")
        # PM access (regular path read).  Stale-read accounting compares
        # against the architectural value a race-free reader should
        # observe *when the load issues*; later same-thread stores must
        # not be mistaken for staleness.
        self.stats.add("pm_reads")
        result = LoadResult(level="pm")
        result.done = self.pmc.read_block(block, t, partial(
            self._pm_fill, core_id, addr, self.image.read(addr), result,
            on_fill))
        return result

    def _pm_fill(self, core_id: int, addr: int, arch_at_issue: int,
                 result: LoadResult, on_fill: Optional[Callable],
                 content: Dict[int, int], done: int) -> None:
        """A PM miss's block arrives: fill the caches, complete ``result``."""
        block = block_of(addr)
        value = content.get(addr, 0)
        # Stale means the PM returned an *old* value: different from
        # what a race-free reader expected at issue AND not simply the
        # fresh value of a store whose persist landed before this
        # read's (queue-delayed) arrival at the controller.
        stale = (value != arch_at_issue
                 and value != self.image.read(addr))
        if stale:
            self.stats.add("stale_reads")
        # A store may have write-allocated this block while the fetch
        # was in flight; never clobber newer cached data -- only add
        # words the caches do not have yet.
        existing = self.llc.lookup(block, touch=False)
        if existing is None:
            llc_victim = self.llc.insert(block, dict(content), EXCLUSIVE)
            if llc_victim is not None:
                self._retire_llc_victim(llc_victim, done)
        else:
            for word_addr, word_value in content.items():
                existing.data.setdefault(word_addr, word_value)
        l1_line = self.l1s[core_id].lookup(block, touch=False)
        if l1_line is None:
            owner = self._other_modified_owner(core_id, block)
            if owner is not None:
                # A store write-allocated the block (MODIFIED) while the
                # fetch was in flight: fill from the peer's data,
                # c2c-style, so the caches stay coherent even though the
                # load's returned value is the (possibly stale) PM
                # content.
                peer = self.l1s[owner].lookup(block, touch=False)
                data = dict(peer.data)
                self.l1s[owner].downgrade(block, SHARED)
                self._merge_into_llc(block, data, dirty=True, now=done)
                self._fill_l1(core_id, block, data, SHARED, done)
            else:
                shared = self._snoop_downgrade_peers(core_id, block)
                self._fill_l1(core_id, block, dict(content),
                              SHARED if shared else EXCLUSIVE, done)
        else:
            for word_addr, word_value in content.items():
                l1_line.data.setdefault(word_addr, word_value)
        result.value, result.stale = value, stale
        if on_fill is not None:
            on_fill(result)

    # ---------------------------------------------------------------- store

    def store(self, core_id: int, addr: int, value: int, now: int) -> int:
        """Apply a committed store through the caches; returns the time the
        store is globally performed (exclusive ownership + data written)."""
        block = block_of(addr)
        l1 = self.l1s[core_id]
        self.image.write(addr, value)
        line = l1.lookup(block)
        if line is not None and line.state in (MODIFIED, EXCLUSIVE):
            self.stats.add("store_l1_hits")
            l1.write(block, addr, value)
            return now + self.l1_lat
        t = now + self.l1_lat + self.l2_lat
        if line is not None:  # SHARED: upgrade
            self.stats.add("store_upgrades")
            self._invalidate_other_l1s(core_id, block)
            l1.write(block, addr, value)
            line.state = MODIFIED
            return t
        # Write-allocate fetch.
        owner = self._other_modified_owner(core_id, block)
        merged = self._invalidate_other_l1s(core_id, block)
        if owner is not None:
            self.stats.add("store_c2c")
            data = merged
            self._merge_into_llc(block, data, dirty=True, now=t)
        else:
            llc_line = self.llc.lookup(block)
            if llc_line is not None:
                self.stats.add("store_llc_hits")
                data = dict(llc_line.data)
            else:
                # Write-on-allocation fetch from PM (Figure 4): a regular-
                # path Read the PMC observes, though the store itself does
                # not wait for full fetch latency in an OoO core; charge
                # the LLC round trip and book the PM read.
                self.stats.add("store_pm_fetches")
                self.pmc.read_block(block, t)
                data = dict(self.pmc.device.block_content(block))
                llc_victim = self.llc.insert(block, dict(data), EXCLUSIVE)
                if llc_victim is not None:
                    self._retire_llc_victim(llc_victim, t)
        data[addr] = value
        self._fill_l1(core_id, block, data, MODIFIED, t)
        return t

    # ----------------------------------------------------------------- clwb

    def clwb(self, core_id: int, addr: int, now: int) -> int:
        """Write the line containing ``addr`` back toward the PMC without
        invalidating it.  Returns the durability (WPQ-acceptance) time a
        following SFENCE must wait for."""
        block = block_of(addr)
        t = now + self.l1_lat
        line = self.l1s[core_id].lookup(block, touch=False)
        if line is not None and line.state == MODIFIED:
            self.stats.add("clwb_flushes")
            line.state = EXCLUSIVE
            self._merge_into_llc(block, dict(line.data), dirty=False, now=t)
            arrival = self.flush_path.send(t)
            return self.pmc.accept_writeback(block * 64, dict(line.data),
                                             arrival)
        llc_line = self.llc.lookup(block, touch=False)
        if llc_line is not None and llc_line.state == MODIFIED:
            self.stats.add("clwb_flushes")
            llc_line.state = EXCLUSIVE
            arrival = self.flush_path.send(t + self.l2_lat)
            return self.pmc.accept_writeback(block * 64,
                                             dict(llc_line.data), arrival)
        self.stats.add("clwb_clean")
        return t
