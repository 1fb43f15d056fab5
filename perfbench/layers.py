"""Host-time attribution for the traced pass.

Two instruments, both kept in the benchmark's own files so the program
under test is measured from the outside:

* :class:`Spans` replaces a layer's public function or method with a
  timed wrapper for the life of the pass.  A span's total is the sum of
  its *outermost* calls (a re-entrant or nested call of the same span is
  not counted twice); different spans may nest, so their totals overlap
  and are not a partition.
* :func:`self_time_by_layer` folds a ``cProfile`` self-time table into
  layers by module.  Every ``repro`` module belongs to exactly one
  layer, so the layer self times partition the profiled total.
"""

from __future__ import annotations

import functools
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = (ROOT / "src").resolve()
BENCH_DIR = Path(__file__).resolve().parent
#: How a ``repro`` source file shows in a path, mapped or not.
REPRO_PART = f"{os.sep}repro{os.sep}"

#: Module (or package) name -> layer.  A module belongs to the layer of
#: its longest listed prefix.  ``service`` is mapped so the partition
#: stays whole, but no workload drives it and it is not reported.
LAYER_OF_PREFIX: Dict[str, str] = {
    "repro": "system",
    "repro.system": "system",
    "repro.config": "system",
    "repro.sim": "sim.trace",
    "repro.sim.engine": "sim.engine",
    "repro.sim.resources": "sim.resources",
    "repro.sim.stats": "sim.stats",
    "repro.sim.trace": "sim.trace",
    "repro.sim.metrics": "sim.trace",
    "repro.mem": "mem.hierarchy",
    "repro.mem.cache": "mem.cache",
    "repro.mem.hierarchy": "mem.hierarchy",
    "repro.mem.interconnect": "mem.interconnect",
    "repro.mem.pm_controller": "mem.pm_controller",
    "repro.mem.pm_complex": "mem.pm_controller",
    "repro.mem.pm_device": "mem.pm_device",
    "repro.cpu": "cpu.core",
    "repro.cpu.core": "cpu.core",
    "repro.cpu.store_queue": "cpu.store_queue",
    "repro.core": "core.pmem_spec",
    "repro.core.spec_buffer": "core.spec_buffer",
    "repro.persistency": "persistency",
    "repro.runtime": "runtime",
    "repro.oslayer": "oslayer",
    "repro.isa": "isa",
    "repro.workloads": "workloads",
    "repro.compiler": "compiler",
    "repro.harness": "harness",
    "repro.validation": "validation",
    "repro.snapshot": "snapshot",
    "repro.crashstates": "crashstates",
    "repro.obsv": "obsv",
    "repro.telemetry": "obsv",
    "repro.service": "service",
}

#: Frames of the benchmark itself (span wrappers, pass code).
BENCH_LAYER = "bench"
#: Standard library, builtins and anything else outside ``repro``.
OTHER_LAYER = "other"
#: Mapped but deliberately not reported.
UNREPORTED_LAYERS = ("service",)

#: Layers whose code is the simulator proper; their calls per persist
#: is the "frames per PM store" count.
SIM_LAYERS = ("sim.engine", "sim.resources", "sim.stats", "sim.trace",
              "mem.cache", "mem.hierarchy", "mem.interconnect",
              "mem.pm_controller", "mem.pm_device", "cpu.core",
              "cpu.store_queue", "core.pmem_spec", "core.spec_buffer",
              "persistency", "runtime", "oslayer", "isa")


def layer_of(module: str) -> str:
    """The layer a dotted module name belongs to."""
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        layer = LAYER_OF_PREFIX.get(".".join(parts[:cut]))
        if layer is not None:
            return layer
    return OTHER_LAYER


def all_layers() -> List[str]:
    """Every layer the partition can produce, in report order."""
    seen: List[str] = []
    for layer in list(LAYER_OF_PREFIX.values()) + [BENCH_LAYER,
                                                   OTHER_LAYER]:
        if layer not in seen:
            seen.append(layer)
    return seen


def self_metric(layer: str) -> str:
    """``sim.engine`` -> ``sim.engine_self_s``; ``isa`` -> ``isa.self_s``."""
    return f"{layer}_self_s" if "." in layer else f"{layer}.self_s"


def module_of(path: Path) -> Optional[str]:
    """Dotted module name of a file under ``src/``, else ``None``."""
    try:
        relative = path.relative_to(SRC)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules() -> List[str]:
    """Every module of the ``repro`` package, from the source tree."""
    return sorted(module_of(path) for path in (SRC / "repro").rglob("*.py"))


def unmapped_modules(modules) -> List[str]:
    """``repro`` modules that would land in ``other`` (must be none)."""
    return [module for module in modules if layer_of(module) == OTHER_LAYER]


def _frame_layer(filename: str, cache: Dict[str, Tuple[str, str]]
                 ) -> Tuple[str, str]:
    """(layer, module-or-file) of one profiled frame's file."""
    hit = cache.get(filename)
    if hit is not None:
        return hit
    if filename.startswith("~") or filename.startswith("<"):
        hit = (OTHER_LAYER, filename)
    else:
        path = Path(filename).resolve()
        module = module_of(path)
        if module is not None and module.split(".")[0] == "repro":
            hit = (layer_of(module), module)
        elif BENCH_DIR in path.parents:
            hit = (BENCH_LAYER, path.name)
        else:
            hit = (OTHER_LAYER, filename)
    cache[filename] = hit
    return hit


def self_time_by_layer(stats: pstats.Stats) -> Dict:
    """Fold a profile into per-layer self time and call counts.

    Returns ``self_s`` and ``calls`` per layer, the profiled total, the
    calls of :meth:`repro.sim.stats.Counter.add`, and the files of
    ``repro`` code that fell through to ``other`` (the partition check).
    """
    self_s: Dict[str, float] = {layer: 0.0 for layer in all_layers()}
    calls: Dict[str, int] = {layer: 0 for layer in all_layers()}
    total = 0.0
    stats_add_calls = 0
    strays = set()
    cache: Dict[str, Tuple[str, str]] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) \
            in stats.stats.items():
        layer, module = _frame_layer(filename, cache)
        if layer == OTHER_LAYER and REPRO_PART in filename:
            strays.add(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        total += tottime
        if module == "repro.sim.stats" and func == "add":
            stats_add_calls += ncalls
    return {"self_s": self_s, "calls": calls, "total_s": total,
            "stats_add_calls": stats_add_calls, "strays": sorted(strays)}


class Spans:
    """Timed wrappers around public entry points of the layers.

    ``cell`` names the sweep cell being executed (set from the event
    bus); while it is set, span time is also charged to that cell.
    """

    def __init__(self):
        self.totals: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.cell: Optional[str] = None
        self.cell_totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Time ``owner.attr`` under span ``name``.

        ``observe(args, before)``, if given, is called as
        ``observe(args, None)`` before an outermost call and with its own
        return value after it, for counts read off the arguments.
        """
        original = getattr(owner, attr)
        depth = self._depth

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if depth[name]:
                return original(*args, **kwargs)
            depth[name] += 1
            before = observe(args, None) if observe is not None else None
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                depth[name] -= 1
                self.totals[name] += elapsed
                self.calls[name] += 1
                if self.cell is not None:
                    self.cell_totals[self.cell][name] += elapsed
                if observe is not None:
                    observe(args, before)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
