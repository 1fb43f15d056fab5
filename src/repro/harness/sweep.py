"""Declarative experiment sweeps and the parallel executor.

This module is the single request surface for every simulation the
harness runs.  A :class:`RunSpec` names one cell of the paper's
evaluation grid -- benchmark, design, thread count, FASE count, seed,
configuration -- and a :class:`Sweep` is an ordered collection of specs
(usually a cartesian grid).  :class:`ParallelExecutor` turns a sweep
into a :class:`SweepResult`:

* specs fan out over a ``multiprocessing`` pool (``jobs > 1``) while
  results always come back in sweep order, so ``jobs=1`` and ``jobs=N``
  produce bit-identical payloads;
* each spec's result is cached on disk (one artifact JSON per spec,
  keyed by a content hash of the resolved spec), so re-running an
  unchanged sweep is free;
* a spec whose worker dies is retried serially in the parent; only if
  the serial retry fails too does the executor raise, with the worker
  traceback attached.

Per-spec wall-clock timing and cache provenance land in
``SimResult.stats["executor"]``; that section is host-specific and is
deliberately excluded from ``SimResult.to_dict()`` so serialised
results stay deterministic.

Observability: every sweep narrates itself onto the current
:mod:`repro.obsv.bus` -- ``sweep_start``, ``cache_hit``/``cache_miss``,
``spec_start`` (worker-side), ``spec_finish``/``spec_error``
(authoritative, parent-side), ``sweep_finish`` -- and the legacy
``progress`` string callback is now a thin adapter over those same
events.  Workers reach the parent's bus through a multiprocessing
queue installed by the pool initializer (fork start-method only); the
parent drains and merges, so the log stays a single ordered stream.
Events are wall-clock-side bookkeeping: an enabled bus leaves every
``SimResult`` payload bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..config import SystemConfig
from ..obsv.bus import (
    Bus,
    EventBus,
    QueueEmitter,
    drain_queue,
    get_bus,
    set_bus,
)
from ..persistency import design_by_name
from ..sim import collector_paused
from ..system import RESULT_SCHEMA_VERSION, SimResult, build_system
from ..telemetry import current_context, get_logger, run_context, seed_context
from ..workloads import (
    BENCHMARKS,
    LoadMisspecProbe,
    StoreMisspecProbe,
    built_program,
)
from .artifacts import load_artifact, save_artifact
from .configs import default_config
from .retry import DEFAULT_POLICY, RetryPolicy

# Synthetic §8.4 probes are runnable through the sweep API even though
# they are not Table 4 benchmarks.
PROBES = {
    LoadMisspecProbe.name: LoadMisspecProbe,
    StoreMisspecProbe.name: StoreMisspecProbe,
}

log = get_logger("harness.sweep")


def _workload_class(name: str):
    if name in BENCHMARKS:
        return BENCHMARKS[name]
    if name in PROBES:
        return PROBES[name]
    raise ValueError(
        f"unknown benchmark {name!r}; choose from "
        f"{sorted(BENCHMARKS) + sorted(PROBES)}")


# --------------------------------------------------------------- RunSpec


@dataclass(frozen=True)
class RunSpec:
    """One simulation request: a single cell of an evaluation grid.

    ``config`` is the *base* configuration (default: Table 3 with
    ``n_threads`` cores); ``config_overrides`` are field replacements
    applied on top of it (``spec_buffer_entries``, ``persist_path_ns``,
    ``extra``, ...).  The resolved configuration's ``n_cores`` MUST
    equal ``n_threads`` -- threads are pinned 1:1 to cores and the old
    ``run_benchmark`` behaviour of silently rewriting a caller-supplied
    config is a bug this class refuses to reproduce.  Pass a matching
    config, or override ``n_cores`` explicitly.

    ``label`` is a free-form tag carried through to results (used by
    the misspeculation/ablation tables); it does not affect the cache
    key.
    """

    benchmark: str
    design: str
    n_threads: int = 8
    fases_per_thread: Optional[int] = None
    seed: int = 42
    config: Optional[SystemConfig] = None
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    recovery_mode: str = "lazy"
    log_mode: str = "undo"
    # (core_id, extra_cycles) applied to the persist path after build --
    # the §8.4 congested-ring probe and the recovery ablation use this.
    core_extra_cycles: Optional[Tuple[int, int]] = None
    label: str = ""

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------- validation

    def validate(self) -> None:
        _workload_class(self.benchmark)
        try:
            design_by_name(self.design)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.fases_per_thread is not None and self.fases_per_thread < 1:
            raise ValueError("fases_per_thread must be >= 1")
        if self.recovery_mode not in ("lazy", "eager"):
            raise ValueError(f"unknown recovery_mode {self.recovery_mode!r}")
        if self.log_mode not in ("undo", "redo"):
            raise ValueError(f"unknown log_mode {self.log_mode!r}")
        cfg = self.resolved_config()
        if cfg.n_cores != self.n_threads:
            raise ValueError(
                f"config.n_cores={cfg.n_cores} disagrees with "
                f"n_threads={self.n_threads}: threads are pinned 1:1 to "
                f"cores.  Pass a config built for {self.n_threads} cores "
                f"(or add n_cores={self.n_threads} to config_overrides); "
                f"RunSpec never rewrites a caller-supplied config.")

    # ------------------------------------------------------- resolution

    def resolved_config(self) -> SystemConfig:
        """The base config plus overrides (what the simulation uses)."""
        base = (self.config if self.config is not None
                else default_config(n_cores=self.n_threads))
        if self.config_overrides:
            base = base.with_overrides(**dict(self.config_overrides))
        base.validate()
        return base

    def resolved_fases(self) -> int:
        if self.fases_per_thread is not None:
            return self.fases_per_thread
        return _workload_class(self.benchmark).default_fases

    # ---------------------------------------------------- serialisation

    def to_dict(self) -> Dict:
        """Canonical JSON-ready form (fases and config fully resolved)."""
        return {
            "benchmark": self.benchmark,
            "design": self.design,
            "n_threads": self.n_threads,
            "fases_per_thread": self.resolved_fases(),
            "seed": self.seed,
            "config": dataclasses.asdict(self.resolved_config()),
            "recovery_mode": self.recovery_mode,
            "log_mode": self.log_mode,
            "core_extra_cycles": (list(self.core_extra_cycles)
                                  if self.core_extra_cycles else None),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunSpec":
        config = payload.get("config")
        extra = payload.get("core_extra_cycles")
        return cls(
            benchmark=payload["benchmark"],
            design=payload["design"],
            n_threads=payload.get("n_threads", 8),
            fases_per_thread=payload.get("fases_per_thread"),
            seed=payload.get("seed", 42),
            config=SystemConfig(**config) if config else None,
            recovery_mode=payload.get("recovery_mode", "lazy"),
            log_mode=payload.get("log_mode", "undo"),
            core_extra_cycles=tuple(extra) if extra else None,
            label=payload.get("label", ""),
        )

    def cache_key(self) -> str:
        """Content hash of everything that determines the result.

        Covers the resolved spec (benchmark, design, threads, fases,
        seed, full resolved config, recovery/log mode, persist-path
        perturbations) plus the result schema version, so a schema bump
        invalidates stale cache entries.  ``label`` is presentation-only
        and excluded.
        """
        payload = self.to_dict()
        del payload["label"]
        payload["schema_version"] = RESULT_SCHEMA_VERSION
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return (f"{self.benchmark}/{self.design} x{self.n_threads} "
                f"seed={self.seed}{tag}")


# ----------------------------------------------------------------- Sweep


class Sweep:
    """An ordered collection of :class:`RunSpec` (usually a grid)."""

    def __init__(self, specs: Iterable[RunSpec], name: str = "sweep"):
        self.specs: List[RunSpec] = list(specs)
        self.name = name

    @classmethod
    def grid(cls,
             benchmarks: Sequence[str],
             designs: Sequence[str],
             n_threads: Union[int, Sequence[int]] = 8,
             seeds: Union[int, Sequence[int]] = 42,
             fases_per_thread: Union[None, int,
                                     Mapping[str, int]] = None,
             config: Optional[SystemConfig] = None,
             config_overrides: Optional[Mapping[str, object]] = None,
             recovery_mode: str = "lazy",
             log_mode: str = "undo",
             name: str = "grid") -> "Sweep":
        """Cartesian product in deterministic order: thread counts
        outermost, then benchmarks, then designs, then seeds (the order
        Figures 9 and 10 print in).  ``fases_per_thread`` may be a
        single int, a per-benchmark mapping, or ``None`` (workload
        defaults)."""
        thread_list = ([n_threads] if isinstance(n_threads, int)
                       else list(n_threads))
        seed_list = [seeds] if isinstance(seeds, int) else list(seeds)

        def fases_for(benchmark: str) -> Optional[int]:
            if isinstance(fases_per_thread, Mapping):
                return fases_per_thread.get(benchmark)
            return fases_per_thread

        specs = [
            RunSpec(benchmark=benchmark, design=design, n_threads=threads,
                    fases_per_thread=fases_for(benchmark), seed=seed,
                    config=config,
                    config_overrides=dict(config_overrides or {}),
                    recovery_mode=recovery_mode, log_mode=log_mode)
            for threads in thread_list
            for benchmark in benchmarks
            for design in designs
            for seed in seed_list
        ]
        return cls(specs, name=name)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __getitem__(self, index: int) -> RunSpec:
        return self.specs[index]

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(self.specs + list(other),
                     name=f"{self.name}+{getattr(other, 'name', 'sweep')}")

    def __repr__(self) -> str:
        return f"Sweep({self.name}: {len(self.specs)} specs)"


# ----------------------------------------------------------- SweepResult


class SweepResult:
    """Ordered (spec, result) pairs plus executor-level statistics."""

    def __init__(self, specs: Sequence[RunSpec],
                 results: Sequence[SimResult], stats: Dict):
        if len(specs) != len(results):
            raise ValueError("specs and results length mismatch")
        self.specs = list(specs)
        self.results = list(results)
        self.stats = stats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple[RunSpec, SimResult]]:
        return iter(zip(self.specs, self.results))

    def __getitem__(self, index: int) -> SimResult:
        return self.results[index]

    def filter(self, predicate: Callable[[RunSpec], bool]) -> "SweepResult":
        kept = [(s, r) for s, r in self if predicate(s)]
        return SweepResult([s for s, _ in kept], [r for _, r in kept],
                           dict(self.stats))

    def table(self, row_key: Callable[[RunSpec], object],
              col_key: Callable[[RunSpec], object]
              ) -> "Dict[object, Dict[object, SimResult]]":
        """Group results into ``{row: {col: SimResult}}`` (insertion
        order follows the sweep order)."""
        out: Dict[object, Dict[object, SimResult]] = {}
        for spec, result in self:
            out.setdefault(row_key(spec), {})[col_key(spec)] = result
        return out

    def __repr__(self) -> str:
        return (f"SweepResult({len(self)} runs, "
                f"{self.stats.get('cache_hits', 0)} cached, "
                f"{self.stats.get('elapsed_s', 0.0):.1f}s)")


# -------------------------------------------------------------- executor


class SweepError(RuntimeError):
    """A spec failed in a worker AND in the serial retry."""

    def __init__(self, spec: RunSpec, message: str,
                 worker_traceback: str = ""):
        detail = f"spec {spec.describe()} failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.spec = spec
        self.worker_traceback = worker_traceback


class WorkerTaskError(RuntimeError):
    """A worker-side failure the retry policy declined to re-run."""


def _error_tail(error: str, limit: int = 200) -> str:
    """The last non-blank line of a traceback string, for events."""
    lines = [line for line in str(error).strip().splitlines() if line]
    tail = lines[-1] if lines else str(error)
    return tail[:limit]


def _retry_serial(policy: RetryPolicy, bus: Bus, label: str,
                  worker_error: str, action: Callable,
                  sleep: Callable[[float], None] = time.sleep):
    """Re-run a failed worker task serially, as the policy allows.

    Emits one ``task_retry`` event -- attempt number, backoff delay,
    error tail -- before *every* re-execution; the pre-PR 8 silent
    serial fallback is gone.  Returns ``action()``'s value on the
    first success.  When attempts are exhausted the last in-parent
    exception re-raises; when the policy allows no retry at all (or
    rules the failure non-retryable) a :class:`WorkerTaskError`
    carrying the worker traceback raises instead.
    """
    attempt = 1           # the worker execution already failed
    error = worker_error
    while policy.should_retry(attempt):
        delay = policy.delay_s(attempt)
        bus.emit("task_retry", label=label, attempt=attempt + 1,
                 delay_s=round(delay, 3), error=_error_tail(error))
        if delay:
            sleep(delay)
        try:
            return action()
        except Exception as exc:
            attempt += 1
            error = str(exc)
            if not policy.should_retry(attempt, exc):
                raise
    raise WorkerTaskError(
        f"{label}: worker failed and policy allows no retry\n"
        f"--- worker traceback ---\n{worker_error}")


def plan_batches(items: Sequence, key: Optional[Callable] = None,
                 chunk_size: Optional[int] = None) -> List[List[int]]:
    """Affinity-batched chunk plan: item indexes per (group, chunk).

    The chunking rule behind :meth:`ParallelExecutor.map_batched`,
    exposed so other schedulers (the service's work-stealing pool)
    produce *identical* chunks for identical inputs -- which is what
    makes journaled chunk outcomes reusable across runs.  Items with
    equal ``key`` stay contiguous; ``chunk_size`` caps items per chunk
    (``None``/``0`` ships each whole group as one chunk).
    """
    groups: Dict[object, List[int]] = {}
    for index, item in enumerate(items):
        group = key(item) if key is not None else None
        groups.setdefault(group, []).append(index)
    batches: List[List[int]] = []
    for indices in groups.values():
        step = chunk_size or len(indices)
        for start in range(0, len(indices), step):
            batches.append(indices[start:start + step])
    return batches


def build_spec_system(spec: RunSpec, tracer=None, metrics=None,
                      scheduler=None):
    """Build (but do not run) the fully wired system for one spec.

    ``scheduler`` selects the event-queue implementation (see
    :data:`repro.sim.SCHEDULERS`); it is an execution detail -- results
    are identical either way -- so it is not part of the spec and does
    not perturb the sweep cache key.
    """
    _workload, program = built_program(
        _workload_class(spec.benchmark), spec.seed, spec.n_threads,
        spec.resolved_fases())
    system = build_system(program, design_by_name(spec.design),
                          spec.resolved_config(),
                          recovery_mode=spec.recovery_mode,
                          log_mode=spec.log_mode,
                          tracer=tracer, metrics=metrics,
                          scheduler=scheduler)
    if spec.core_extra_cycles is not None:
        core_id, cycles = spec.core_extra_cycles
        system.persist_path.set_core_extra(core_id, cycles)
    return system


@collector_paused()
def execute_spec(spec: RunSpec, tracer=None, metrics=None) -> SimResult:
    """Run one spec to completion.

    ``tracer`` / ``metrics`` (a :class:`repro.sim.TraceRecorder` /
    :class:`repro.sim.MetricsCollector`) opt the run into observability;
    both default to off, which is what the sweep cache assumes -- traced
    runs bypass the executor entirely (see the CLI ``trace`` command)."""
    return build_spec_system(spec, tracer=tracer, metrics=metrics).run()


# Worker-side alias (kept for pickling stability and old imports).
_execute_spec = execute_spec


def reset_worker_signals() -> None:
    """Restore default signal dispositions in a forked worker.

    The CLI installs SIGINT/SIGTERM handlers that raise into the
    *parent's* dispatch loop for a graceful unwind; a forked worker
    inherits them, which breaks ``Pool.terminate()`` -- the worker's
    main thread can sit in an uninterruptible semaphore wait (or catch
    the raised exception as an ordinary task failure) and outlive the
    pool, deadlocking the parent's ``join()``.  Workers therefore go
    back to ``SIG_DFL`` for SIGTERM (so terminate() kills them) and
    ignore SIGINT (a Ctrl-C is the parent's to handle; it tears the
    pool down explicitly)."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / platform quirks
        pass


def _pool_initializer(queue, context_fields: Dict[str, str]) -> None:
    """Runs once in each pool worker: install a queue-backed bus and
    the parent's run context, so events (and log records) emitted deep
    inside a worker carry the parent's correlation IDs.  Only wired up
    under the ``fork`` start method (queue inheritance)."""
    reset_worker_signals()
    if queue is not None:
        set_bus(QueueEmitter(queue))
    seed_context(context_fields)


def _pool_worker(item: Tuple[int, RunSpec]):
    index, spec = item
    start = time.perf_counter()
    try:
        with run_context(spec_hash=spec.cache_key()[:12]):
            get_bus().emit("spec_start", index=index,
                           describe=spec.describe())
            result = _execute_spec(spec)
        return index, "ok", result.to_dict(), time.perf_counter() - start
    except Exception:
        return (index, "err", traceback.format_exc(),
                time.perf_counter() - start)


def _map_worker(item: Tuple[int, Callable, object]):
    index, fn, arg = item
    start = time.perf_counter()
    try:
        get_bus().emit("task_start", index=index, label=f"item {index}")
        return index, "ok", fn(arg), time.perf_counter() - start
    except Exception:
        return (index, "err", traceback.format_exc(),
                time.perf_counter() - start)


def _batch_worker(item: Tuple[int, Callable, list]):
    index, fn, chunk = item
    start = time.perf_counter()
    try:
        get_bus().emit("batch_start", index=index,
                       label=f"batch {index}", size=len(chunk))
        return index, "ok", fn(chunk), time.perf_counter() - start
    except Exception:
        return (index, "err", traceback.format_exc(),
                time.perf_counter() - start)


def _pool_channel(context, ship: bool):
    """(queue, initializer, initargs) for a pool: a real event channel
    when ``ship`` is on and the platform forks workers (queue
    inheritance needs fork); an inert initializer otherwise, so the
    worker still gets the parent's run context."""
    queue = None
    if ship and context.get_start_method() == "fork":
        queue = context.Queue()
    return queue, _pool_initializer, (queue, current_context())


class _ProgressAdapter:
    """Backward-compat shim: turns ``spec_finish``/``spec_error`` (and
    ``task_*``) events back into the legacy one-line-per-item progress
    strings, so existing ``progress=callable`` users see the exact
    output they always did -- the callback is now just another bus
    subscriber."""

    _HOW = {"cache": "cached", "retry": "serial retry",
            "degraded": "serial (no pool)"}

    def __init__(self, callback: Callable[[str], None], total: int,
                 describe: Optional[Callable[[int], str]] = None):
        self.callback = callback
        self.total = total
        self.describe = describe
        self.done = 0

    def __call__(self, event: Dict) -> None:
        kind = event.get("kind")
        if kind in ("spec_finish", "task_finish", "batch_finish"):
            how = (self._HOW.get(event.get("source"))
                   or f"{event.get('elapsed_s', 0.0):.1f}s")
        elif kind in ("spec_error", "task_error"):
            how = "error"
        else:
            return
        self.done += 1
        label = event.get("describe") or event.get("label") or ""
        self.callback(f"[{self.done}/{self.total}] {label} ({how})")


class _SweepTally:
    """Bus subscriber accumulating the end-of-sweep statistics (cache
    provenance, retries, per-spec wall time) from the event stream
    itself -- the summary line and ``SweepResult.stats`` report what
    the events say, not a parallel set of hand-kept counters."""

    def __init__(self):
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.errors = 0
        self.busy_s = 0.0
        self.spec_walls: List[float] = []

    def __call__(self, event: Dict) -> None:
        kind = event.get("kind")
        if kind == "cache_hit":
            self.cache_hits += 1
        elif kind == "cache_miss":
            self.cache_misses += 1
        elif kind in ("spec_finish", "task_finish"):
            elapsed = float(event.get("elapsed_s") or 0.0)
            if not event.get("cache_hit"):
                self.busy_s += elapsed
                self.spec_walls.append(elapsed)
            if event.get("retried"):
                self.retries += 1
        elif kind in ("spec_error", "task_error"):
            self.errors += 1

    def wall_mean_max(self) -> Tuple[float, float]:
        if not self.spec_walls:
            return 0.0, 0.0
        return (sum(self.spec_walls) / len(self.spec_walls),
                max(self.spec_walls))


#: Distinguishes "no result yet" from a legitimate ``None`` result in
#: :meth:`ParallelExecutor.map`'s OSError fallback.
_UNSET = object()


class ParallelExecutor:
    """Executes sweeps; the only way experiments run simulations.

    ``jobs`` is the worker-process count (``None`` = ``os.cpu_count()``,
    ``1`` = in-process serial).  ``cache_dir`` enables the per-spec
    result cache (``None`` disables it).  ``progress`` is an optional
    ``callable(str)`` invoked once per completed spec -- implemented as
    a subscription on the event bus (see :class:`_ProgressAdapter`).
    ``bus`` pins the event bus this executor publishes to; the default
    resolves :func:`repro.obsv.bus.get_bus` at each ``run()``/``map()``
    so the CLI's ``--events-out`` scope is picked up automatically.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 bus: Optional[Bus] = None,
                 retry: Optional[RetryPolicy] = None):
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.cache_dir = cache_dir
        self.progress = progress
        self.bus = bus
        #: Worker-failure recovery policy shared with the service pool
        #: (:mod:`repro.harness.retry`); the default reproduces the
        #: historical behaviour -- one immediate serial retry -- but
        #: narrated through ``task_retry`` events instead of silently.
        self.retry = retry if retry is not None else DEFAULT_POLICY

    def _resolve_bus(self) -> Tuple[Bus, bool]:
        """(bus to publish on, whether it is externally observed).

        With no external bus the executor still runs a private
        :class:`EventBus` so the progress adapter and the stats tally
        are fed from real events; privately-generated events are
        dropped at the end of the call (and no worker queue is set up).
        """
        bus = self.bus if self.bus is not None else get_bus()
        if bus.enabled:
            return bus, True
        return EventBus(), False

    # ------------------------------------------------------------ cache

    def _cache_path(self, spec: RunSpec) -> str:
        return os.path.join(self.cache_dir, f"{spec.cache_key()}.json")

    def _cache_load(self, spec: RunSpec) -> Optional[SimResult]:
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec)
        if not os.path.exists(path):
            return None
        try:
            document = load_artifact(path)
        except (ValueError, json.JSONDecodeError, OSError):
            return None
        payload = document["data"]
        if payload.get("schema_version") != RESULT_SCHEMA_VERSION:
            return None
        return SimResult.from_dict(payload)

    def _cache_store(self, spec: RunSpec, result: SimResult) -> None:
        if self.cache_dir is None:
            return
        save_artifact(self.cache_dir, spec.cache_key(), result.to_dict(),
                      meta={"spec": spec.to_dict()})

    # -------------------------------------------------------------- run

    def run(self, sweep: Union[Sweep, RunSpec, Iterable[RunSpec]]
            ) -> SweepResult:
        """Execute every spec; results come back in sweep order."""
        if isinstance(sweep, RunSpec):
            specs = [sweep]
        else:
            specs = list(sweep)
        started = time.perf_counter()
        results: List[Optional[SimResult]] = [None] * len(specs)
        timings: List[Dict] = [dict() for _ in specs]
        bus, external = self._resolve_bus()
        tally = _SweepTally()
        adapter = (_ProgressAdapter(self.progress, len(specs))
                   if self.progress is not None else None)
        bus.subscribe(tally)
        if adapter is not None:
            bus.subscribe(adapter)

        def finish(index: int, elapsed: float, cache_hit: bool,
                   retried: bool, source: str) -> None:
            """One authoritative parent-side spec_finish per spec."""
            timings[index] = {"cache_hit": int(cache_hit),
                              "elapsed_s": elapsed,
                              "retried": int(retried)}
            bus.emit(
                "spec_finish", index=index,
                describe=specs[index].describe(), elapsed_s=elapsed,
                cache_hit=cache_hit, retried=retried, source=source,
                cycles=(results[index].cycles
                        if results[index] is not None else 0))
            log.debug("%s done (%s, %.1fs)", specs[index].describe(),
                      source, elapsed)

        try:
            bus.emit("sweep_start", n_specs=len(specs), jobs=self.jobs)
            misses: List[int] = []
            for index, spec in enumerate(specs):
                cached = self._cache_load(spec)
                if cached is not None:
                    results[index] = cached
                    bus.emit("cache_hit", index=index,
                             describe=spec.describe())
                    finish(index, 0.0, True, False, "cache")
                else:
                    bus.emit("cache_miss", index=index,
                             describe=spec.describe())
                    misses.append(index)

            if misses and self.jobs > 1 and len(misses) > 1:
                self._run_pool(specs, misses, results, timings, bus,
                               finish, ship=external)
            else:
                for index in misses:
                    spec = specs[index]
                    start = time.perf_counter()
                    bus.emit("spec_start", index=index,
                             describe=spec.describe())
                    try:
                        results[index] = _execute_spec(spec)
                    except Exception as exc:
                        bus.emit("spec_error", index=index,
                                 describe=spec.describe(),
                                 error=str(exc))
                        raise SweepError(spec, str(exc)) from exc
                    self._cache_store(spec, results[index])
                    finish(index, time.perf_counter() - start, False,
                           False, "serial")

            elapsed = time.perf_counter() - started
            # The summary -- both the stats dict and the log line --
            # is derived from the event stream (the tally subscriber),
            # so the events are the single source of truth.
            stats = {
                "jobs": self.jobs,
                "n_specs": len(specs),
                "cache_hits": tally.cache_hits,
                "cache_misses": tally.cache_misses,
                "retries": tally.retries,
                "elapsed_s": elapsed,
            }
            bus.emit("sweep_finish", n_specs=len(specs),
                     cache_hits=tally.cache_hits,
                     cache_misses=tally.cache_misses,
                     retries=tally.retries, elapsed_s=elapsed,
                     busy_s=tally.busy_s, jobs=self.jobs)
            wall_mean, wall_max = tally.wall_mean_max()
            log.info(
                "sweep done: %d specs in %.1fs (%d cached, %d simulated, "
                "%d retried, jobs=%d, spec wall mean/max "
                "%.1f/%.1fs)", len(specs), elapsed, tally.cache_hits,
                tally.cache_misses, tally.retries, self.jobs,
                wall_mean, wall_max)
        finally:
            bus.unsubscribe(tally)
            if adapter is not None:
                bus.unsubscribe(adapter)
        if bus.registry is not None:
            stats["obsv"] = bus.registry.snapshot()
        for index, result in enumerate(results):
            info = dict(timings[index])
            info["jobs"] = self.jobs
            result.stats["executor"] = info
        return SweepResult(specs, results, stats)

    # -------------------------------------------------------------- map

    def map(self, fn: Callable, items: Sequence,
            describe: Optional[Callable[[object], str]] = None) -> List:
        """Apply a picklable ``fn`` to every item, in order.

        The generic sibling of :meth:`run` for non-``RunSpec`` work (the
        validation campaign's crash trials fan out through this): same
        pool/serial split, same per-item serial retry with the worker
        traceback attached on a second failure, same OSError degradation
        to serial -- but no disk cache and plain return values instead of
        :class:`SimResult`.  ``fn`` and each item must survive pickling
        when ``jobs > 1``.
        """
        items = list(items)
        results: List = [_UNSET] * len(items)
        bus, external = self._resolve_bus()
        adapter = (_ProgressAdapter(self.progress, len(items))
                   if self.progress is not None else None)
        if adapter is not None:
            bus.subscribe(adapter)

        def label(index: int) -> str:
            return (describe(items[index]) if describe is not None
                    else f"item {index}")

        def finish(index: int, elapsed: float, source: str) -> None:
            bus.emit("task_finish", index=index, label=label(index),
                     elapsed_s=elapsed, source=source)

        def run_serial(index: int, source: str = "serial") -> None:
            start = time.perf_counter()
            results[index] = fn(items[index])
            finish(index, time.perf_counter() - start, source)

        try:
            if self.jobs > 1 and len(items) > 1:
                work = [(index, fn, item)
                        for index, item in enumerate(items)]
                queue = None
                try:
                    context = multiprocessing.get_context()
                    queue, initializer, initargs = _pool_channel(
                        context, external)
                    with context.Pool(
                            processes=min(self.jobs, len(work)),
                            initializer=initializer,
                            initargs=initargs) as pool:
                        for index, status, payload, elapsed in \
                                pool.imap_unordered(_map_worker, work):
                            drain_queue(queue, bus)
                            if status == "ok":
                                results[index] = payload
                                finish(index, elapsed, "pool")
                                continue
                            try:
                                _retry_serial(
                                    self.retry, bus, label(index),
                                    payload,
                                    lambda index=index: run_serial(
                                        index, "retry"))
                            except Exception as exc:
                                bus.emit("task_error", index=index,
                                         label=label(index),
                                         error=str(exc))
                                raise RuntimeError(
                                    f"map item {index} failed in the "
                                    f"worker and in serial retry: "
                                    f"{exc}\n"
                                    f"--- worker traceback ---\n"
                                    f"{payload}") from exc
                except OSError:
                    log.warning("no process pool available; map "
                                "degrades to serial")
                    for index in range(len(items)):
                        if results[index] is _UNSET:
                            run_serial(index, "degraded")
                finally:
                    drain_queue(queue, bus)
            else:
                for index in range(len(items)):
                    run_serial(index)
        finally:
            if adapter is not None:
                bus.unsubscribe(adapter)
        return results

    # ------------------------------------------------------ map_batched

    def map_batched(self, fn: Callable, items: Sequence,
                    key: Optional[Callable[[object], object]] = None,
                    chunk_size: Optional[int] = None,
                    describe: Optional[Callable[[Sequence], str]] = None
                    ) -> List:
        """Affinity-batched fan-out: one task per (group, chunk).

        ``fn`` is a *batch* function: it receives a list of items and
        must return a list of results of the same length, in order.
        ``key`` groups items (all items with equal keys land in the
        same chunks -- the campaign groups crash trials by cell so a
        worker can keep the cell's system resident across the chunk);
        ``chunk_size`` caps items per shipped task (``None``/``0``
        ships each whole group as one task).  Results come back in the
        original item order.

        Pool conventions match :meth:`map` -- per-chunk serial retry in
        the parent on a worker failure, OSError degradation to serial
        -- but the bus carries one ``batch_start``/``batch_finish`` per
        chunk instead of one ``task_*`` pair per item: collapsing the
        per-item pickle round-trips into one per chunk is the point.
        """
        items = list(items)
        batches = plan_batches(items, key=key, chunk_size=chunk_size)
        results: List = [_UNSET] * len(items)
        bus, external = self._resolve_bus()
        adapter = (_ProgressAdapter(self.progress, len(batches))
                   if self.progress is not None else None)
        if adapter is not None:
            bus.subscribe(adapter)

        def chunk_items(batch_index: int) -> list:
            return [items[i] for i in batches[batch_index]]

        def label(batch_index: int) -> str:
            chunk = chunk_items(batch_index)
            return (describe(chunk) if describe is not None
                    else f"batch {batch_index} (x{len(chunk)})")

        def install(batch_index: int, payload) -> None:
            indices = batches[batch_index]
            if (not isinstance(payload, (list, tuple))
                    or len(payload) != len(indices)):
                raise RuntimeError(
                    f"batched fn returned "
                    f"{len(payload) if hasattr(payload, '__len__') else payload!r} "
                    f"result(s) for a {len(indices)}-item batch")
            for index, value in zip(indices, payload):
                results[index] = value

        def finish(batch_index: int, elapsed: float, source: str) -> None:
            bus.emit("batch_finish", index=batch_index,
                     label=label(batch_index),
                     size=len(batches[batch_index]), elapsed_s=elapsed,
                     source=source)

        def run_serial(batch_index: int, source: str = "serial") -> None:
            start = time.perf_counter()
            install(batch_index, fn(chunk_items(batch_index)))
            finish(batch_index, time.perf_counter() - start, source)

        try:
            if self.jobs > 1 and len(batches) > 1:
                work = [(batch_index, fn, chunk_items(batch_index))
                        for batch_index in range(len(batches))]
                queue = None
                try:
                    context = multiprocessing.get_context()
                    queue, initializer, initargs = _pool_channel(
                        context, external)
                    with context.Pool(
                            processes=min(self.jobs, len(work)),
                            initializer=initializer,
                            initargs=initargs) as pool:
                        for batch_index, status, payload, elapsed in \
                                pool.imap_unordered(_batch_worker, work):
                            drain_queue(queue, bus)
                            if status == "ok":
                                install(batch_index, payload)
                                finish(batch_index, elapsed, "pool")
                                continue
                            try:
                                _retry_serial(
                                    self.retry, bus,
                                    label(batch_index), payload,
                                    lambda batch_index=batch_index:
                                        run_serial(batch_index, "retry"))
                            except Exception as exc:
                                bus.emit("task_error", index=batch_index,
                                         label=label(batch_index),
                                         error=str(exc))
                                raise RuntimeError(
                                    f"batch {batch_index} failed in the "
                                    f"worker and in serial retry: "
                                    f"{exc}\n"
                                    f"--- worker traceback ---\n"
                                    f"{payload}") from exc
                except OSError:
                    log.warning("no process pool available; batched map "
                                "degrades to serial")
                    for batch_index in range(len(batches)):
                        if any(results[i] is _UNSET
                               for i in batches[batch_index]):
                            run_serial(batch_index, "degraded")
                finally:
                    drain_queue(queue, bus)
            else:
                for batch_index in range(len(batches)):
                    run_serial(batch_index)
        finally:
            if adapter is not None:
                bus.unsubscribe(adapter)
        return results

    def _run_pool(self, specs: Sequence[RunSpec], misses: Sequence[int],
                  results: List[Optional[SimResult]],
                  timings: List[Dict], bus: Bus, finish,
                  ship: bool = False) -> None:
        """Fan the cache misses out over a process pool.

        Worker-side events (``spec_start`` and anything emitted deeper)
        travel back over a multiprocessing queue and are merged into
        ``bus`` as results stream in; the authoritative ``spec_finish``
        for each spec is emitted parent-side by ``finish``.
        """
        work = [(index, specs[index]) for index in misses]
        queue = None
        try:
            context = multiprocessing.get_context()
            queue, initializer, initargs = _pool_channel(context, ship)
            with context.Pool(processes=min(self.jobs, len(work)),
                              initializer=initializer,
                              initargs=initargs) as pool:
                outcomes = pool.imap_unordered(_pool_worker, work)
                for index, status, payload, elapsed in outcomes:
                    drain_queue(queue, bus)
                    if status == "ok":
                        results[index] = SimResult.from_dict(payload)
                        self._cache_store(specs[index], results[index])
                        finish(index, elapsed, False, False, "pool")
                        continue
                    # Worker failed: re-run serially in the parent as
                    # the retry policy allows, so a flaky worker cannot
                    # sink the sweep; exhausting the policy surfaces
                    # both tracebacks.
                    start = time.perf_counter()
                    bus.emit("spec_start", index=index,
                             describe=specs[index].describe())

                    def rerun(index=index):
                        return _execute_spec(specs[index])

                    try:
                        results[index] = _retry_serial(
                            self.retry, bus, specs[index].describe(),
                            payload, rerun)
                    except Exception as exc:
                        bus.emit("spec_error", index=index,
                                 describe=specs[index].describe(),
                                 error=str(exc))
                        raise SweepError(specs[index], str(exc),
                                         worker_traceback=payload) from exc
                    self._cache_store(specs[index], results[index])
                    finish(index, time.perf_counter() - start, False,
                           True, "retry")
        except OSError:
            # No process pool available (restricted environments):
            # degrade to serial for the whole remainder.
            for index in misses:
                if results[index] is not None:
                    continue
                start = time.perf_counter()
                bus.emit("spec_start", index=index,
                         describe=specs[index].describe())
                try:
                    results[index] = _execute_spec(specs[index])
                except Exception as exc:
                    bus.emit("spec_error", index=index,
                             describe=specs[index].describe(),
                             error=str(exc))
                    raise SweepError(specs[index], str(exc)) from exc
                self._cache_store(specs[index], results[index])
                finish(index, time.perf_counter() - start, False,
                       False, "degraded")
        finally:
            drain_queue(queue, bus)
