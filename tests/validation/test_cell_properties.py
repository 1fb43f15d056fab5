"""Restored ≡ cold on the one acquire path, for generated crash cycles.

Both rung sources of :class:`Cell` are checked at crash cycles drawn
from the whole run, ``[0, total_cycles]``:

* the store source (campaign trials): :meth:`Cell.run_trial` equals the
  cold :func:`run_trial` of the same spec, modulo
  ``restored_from_cycle``;
* the canonical source (crash states): :meth:`Cell.acquire` leaves the
  machine where a freshly built system advanced to the same cycle
  stands -- same cycle, durable image, device history and trace -- and
  both then run on to the same end-of-run ``state_fingerprint()``
  (a fingerprint needs a quiesced machine, so it is taken there).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validation.campaign import (Cell, TrialSpec, _build, _cut,
                                       profile_cell, run_trial)

DESIGNS = ["PMEM-Spec", "IntelX86"]
EXAMPLES = settings(max_examples=6, deadline=None)


def cell_spec(design, **overrides):
    fields = dict(workload="hashmap", design=design, n_threads=2,
                  fases_per_thread=6, seed=11, snapshot_every=6)
    fields.update(overrides)
    return TrialSpec(**fields)


@pytest.fixture(scope="module")
def store_cells(tmp_path_factory):
    """One profiled store-backed cell per design: (spec, total, Cell)."""
    root = str(tmp_path_factory.mktemp("cells"))
    cells = {}
    for design in DESIGNS:
        spec = cell_spec(design, snapshot_dir=root)
        cells[design] = (spec, profile_cell(spec).total_cycles, Cell(spec))
    return cells


@pytest.fixture(scope="module")
def canonical_cells():
    return {design: Cell(cell_spec(design), canonical=True)
            for design in DESIGNS}


def unrestored(outcome):
    return {k: v for k, v in outcome.items() if k != "restored_from_cycle"}


@pytest.mark.parametrize("design", DESIGNS)
@EXAMPLES
@given(data=st.data())
def test_store_cell_trial_equals_cold_trial(store_cells, design, data):
    spec, total, cell = store_cells[design]
    trial = replace(spec, crash_cycle=data.draw(
        st.integers(0, total), label="crash_cycle"))
    assert unrestored(cell.run_trial(trial)) == \
        unrestored(run_trial(trial))


def _run_on(system, done) -> str:
    system.advance(stop_event=done)
    system.advance()
    return system.state_fingerprint()


@pytest.mark.parametrize("design", DESIGNS)
@EXAMPLES
@given(data=st.data())
def test_canonical_acquire_equals_fresh_system(canonical_cells, design,
                                               data):
    cell = canonical_cells[design]
    cycle = data.draw(st.integers(0, cell.total_cycles),
                      label="crash_cycle")
    _fault, _restored_from, done = cell.acquire(cycle)

    _workload, fresh, fault, recorder, _ladder = _build(cell.spec)
    fresh.device.record_history = True
    fresh_done = fresh.launch()
    _cut(fresh, fault, cycle, fresh_done)

    assert cell.system.env.now == fresh.env.now
    assert cell.system.persisted_snapshot() == fresh.persisted_snapshot()
    assert cell.system.device.history == fresh.device.history
    assert [tuple(e) for e in cell.recorder.events()] == \
        [tuple(e) for e in recorder.events()]
    assert _run_on(cell.system, done) == _run_on(fresh, fresh_done)


def test_canonical_cell_restores_rungs(canonical_cells):
    """The property above must exercise warm acquires, not only cold
    ones: late cycles restore a rung."""
    for cell in canonical_cells.values():
        _fault, restored_from, _done = cell.acquire(cell.total_cycles)
        assert restored_from is not None
