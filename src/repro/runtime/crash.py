"""Crash injection: power-fail a running system and validate recovery.

The failure-atomicity contract (§2.1) says a crash at *any* cycle must
recover to a state where every FASE is all-or-nothing.  These utilities
run a workload under a design, cut power at a chosen cycle, snapshot the
PM device (exactly what ADR preserves), run the undo-log recovery
protocol, and let the workload check its structural invariants on the
recovered data image.

PMEM-Spec treats misspeculation as a *virtual* power failure (§4.4);
these are the real ones, exercising the same log and recovery code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

from ..config import SystemConfig, table3_config
from .recovery import RecoveryReport, run_recovery


class CrashOutcome:
    """Result of one crash-injection run."""

    def __init__(self, workload_name: str, design_name: str,
                 crash_cycle: int, total_cycles: int,
                 report: RecoveryReport, violations: List[str],
                 commits_before_crash: int):
        self.workload_name = workload_name
        self.design_name = design_name
        self.crash_cycle = crash_cycle
        self.total_cycles = total_cycles
        self.report = report
        self.violations = violations
        self.commits_before_crash = commits_before_crash

    @property
    def consistent(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        status = "OK" if self.consistent else f"{len(self.violations)} BAD"
        return (f"CrashOutcome({self.workload_name}/{self.design_name} "
                f"@{self.crash_cycle}/{self.total_cycles}: {status})")


def build_crash_system(workload_cls: Type, design_name: str,
                       n_threads: int, fases_per_thread: int, seed: int,
                       config: Optional[SystemConfig] = None,
                       log_mode: str = "undo", tracer=None):
    """One build path for every crash-injection entry point: returns the
    ``(workload, system)`` pair ready to run (the validation campaign
    reuses this with a tracer attached, so a measured uninterrupted run
    and the crashed run are built identically by construction); runs
    of one cell share the program through the built-program memo.
    """
    from ..persistency import design_by_name
    from ..system import build_system
    from ..workloads import built_program
    workload, program = built_program(workload_cls, seed, n_threads,
                                      fases_per_thread)
    cfg = config or table3_config(n_cores=n_threads)
    system = build_system(program, design_by_name(design_name), cfg,
                          log_mode=log_mode, tracer=tracer)
    return workload, system


def measure_run_cycles(workload_cls: Type, design_name: str,
                       n_threads: int, fases_per_thread: int,
                       seed: int,
                       config: Optional[SystemConfig] = None,
                       log_mode: str = "undo") -> int:
    """Length of an uninterrupted run (to place crash points inside it)."""
    _workload, system = build_crash_system(
        workload_cls, design_name, n_threads, fases_per_thread, seed,
        config, log_mode=log_mode)
    return system.run().cycles


def run_with_crash(workload_cls: Type, design_name: str, crash_cycle: int,
                   n_threads: int = 2, fases_per_thread: int = 20,
                   seed: int = 42,
                   config: Optional[SystemConfig] = None,
                   log_mode: str = "undo",
                   total_cycles: Optional[int] = None) -> CrashOutcome:
    """Run the workload, cut power at ``crash_cycle``, recover, validate.

    ``total_cycles`` is the uninterrupted run length; pass it when known
    (e.g. from a sweep that measured it once) to avoid re-measuring --
    otherwise it is measured here so the outcome reports the true total
    rather than the crash cycle itself.
    """
    if total_cycles is None:
        total_cycles = measure_run_cycles(
            workload_cls, design_name, n_threads, fases_per_thread, seed,
            config, log_mode=log_mode)
    workload, system = build_crash_system(
        workload_cls, design_name, n_threads, fases_per_thread, seed,
        config, log_mode=log_mode)
    system.run(until=crash_cycle)
    commits = system.runtime.total_commits
    snapshot = system.persisted_snapshot()
    report = run_recovery(snapshot, n_threads, log_mode=log_mode)
    violations = workload.validate_recovered(report.data_image())
    return CrashOutcome(workload.name, design_name, crash_cycle,
                        total_cycles, report, violations, commits)


def crash_sweep(workload_cls: Type, design_name: str,
                crash_points: Optional[Sequence[int]] = None,
                n_points: int = 10, n_threads: int = 2,
                fases_per_thread: int = 20, seed: int = 42,
                config: Optional[SystemConfig] = None,
                log_mode: str = "undo") -> List[CrashOutcome]:
    """Crash at several points spread across one run's duration."""
    total = measure_run_cycles(workload_cls, design_name, n_threads,
                               fases_per_thread, seed, config,
                               log_mode=log_mode)
    if crash_points is None:
        step = max(1, total // (n_points + 1))
        crash_points = [step * (index + 1) for index in range(n_points)]
    outcomes = []
    for crash_cycle in crash_points:
        outcomes.append(run_with_crash(
            workload_cls, design_name, crash_cycle, n_threads,
            fases_per_thread, seed, config, log_mode=log_mode,
            total_cycles=total))
    return outcomes
