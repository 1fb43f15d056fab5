"""Unit tests for the PM controller: queueing, policy hooks, timing order."""

import pytest

from repro.config import table3_config
from repro.mem import (PMCComplex, PMController, PMCPolicy, PMDevice,
                       PersistMessage)
from repro.sim import SCHEDULERS, Environment


def make_pmc(policy=None, initial=None, **overrides):
    env = Environment()
    config = table3_config(**overrides)
    device = PMDevice(initial)
    pmc = PMController(env, config, device, policy=policy)
    return env, pmc


def read(pmc, block, now):
    """Issue one read; returns the list its fill appends (content, done)
    to."""
    fills = []
    pmc.read_block(block, now, lambda content, done:
                   fills.append((content, done)))
    return fills


class TestReads:
    def test_read_latency_is_device_read(self):
        env, pmc = make_pmc(initial={0x40: 7})
        fills = read(pmc, 1, env.now)
        env.run()
        config = table3_config()
        assert fills == [({0x40: 7}, config.ns(config.pm_read_ns))]

    def test_read_returns_done_synchronously(self):
        env, pmc = make_pmc(initial={0x40: 7})
        done = pmc.read_block(1, 0, lambda content, at: None)
        config = table3_config()
        assert done == config.ns(config.pm_read_ns)
        assert env.now == 0

    def test_read_snapshot_taken_at_arrival(self):
        """A persist accepted after the read's arrival must NOT be visible:
        the stale-read semantics of §5.1."""
        env, pmc = make_pmc()
        fills = read(pmc, 1, 0)

        def late_writer():
            yield env.timeout(50)  # after read arrival (0), before done (350)
            pmc.accept_persist(PersistMessage(0, 0x40, 99), arrival=env.now)

        env.process(late_writer())
        env.run()
        assert [content.get(0x40, 0) for content, _done in fills] == [0]

    def test_read_sees_earlier_persist(self):
        env, pmc = make_pmc()
        pmc.accept_persist(PersistMessage(0, 0x40, 42), arrival=0)
        env.run(until=10)
        fills = read(pmc, 1, env.now)
        env.run()
        assert [content[0x40] for content, _done in fills] == [42]

    def test_read_queue_backpressure(self):
        env, pmc = make_pmc(pmc_read_queue=2, pmc_banks=1)
        fills = [read(pmc, i, 0) for i in range(3)]
        env.run()
        read_ns = table3_config().ns(table3_config().pm_read_ns)
        assert [fill[0][1] for fill in fills] == [read_ns, 2 * read_ns,
                                                  3 * read_ns]

    def test_unconsumed_read_holds_queue_until_done(self):
        """A write-allocate fetch has no fill, but the event queue must
        not drain before it completes (snapshot quiesce points and the
        final cycle count depend on it)."""
        env, pmc = make_pmc()
        done = pmc.read_block(1, 0)
        env.run()
        assert env.now == done


class TestReadOrdering:
    """The fill runs at the tail of its completion cycle: the completion
    hop booked when the read issues queues it behind anything already
    queued for that cycle."""

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_item_queued_after_issue_runs_before_fill(self, scheduler,
                                                      complex_):
        env = Environment(scheduler=scheduler)
        config = table3_config()
        device = PMDevice({0x40: 1})
        pmc = (PMCComplex(env, config, device, n_controllers=2)
               if complex_ else PMController(env, config, device))
        order = []
        done = pmc.read_block(1, 0, lambda content, at:
                              order.append(("fill", env.now)))
        env.call_at(done, lambda: order.append(("later", env.now)))
        env.run()
        assert order == [("later", done), ("fill", done)]


class TestWritebacks:
    def test_writeback_persists_by_default(self):
        env, pmc = make_pmc()
        pmc.accept_writeback(0x40, {0x40: 3, 0x48: 4}, arrival=5)
        env.run()
        assert pmc.device.read(0x40) == 3
        assert pmc.device.read(0x48) == 4

    def test_acceptance_time_is_admission(self):
        env, pmc = make_pmc()
        accept = pmc.accept_writeback(0x40, {0x40: 1}, arrival=17)
        assert accept == 17  # empty WPQ admits immediately

    def test_wpq_backpressure_delays_acceptance(self):
        env, pmc = make_pmc(pmc_write_queue=1, pmc_banks=1)
        first = pmc.accept_writeback(0x40, {0x40: 1}, arrival=0)
        second = pmc.accept_writeback(0x80, {0x80: 2}, arrival=0)
        write = table3_config().ns(table3_config().pm_write_ns)
        assert first == 0
        assert second == write


class TestPersists:
    def test_persist_updates_device_at_accept_time(self):
        env, pmc = make_pmc()
        pmc.accept_persist(PersistMessage(2, 0x80, 11), arrival=30)
        assert pmc.device.read(0x80) == 0  # not yet processed
        env.run()
        assert pmc.device.read(0x80) == 11

    def test_stats_counted(self):
        env, pmc = make_pmc()
        pmc.accept_persist(PersistMessage(0, 0x40, 1), arrival=0)
        pmc.accept_writeback(0x80, {0x80: 2}, arrival=0)
        env.run()
        assert pmc.stats["persists"] == 1
        assert pmc.stats["writebacks"] == 1


class RecordingPolicy(PMCPolicy):
    """Captures hook invocation order with timestamps."""

    def __init__(self):
        self.trace = []

    def read_delay(self, block, now):
        return 7

    def on_read(self, block, now):
        self.trace.append(("read", block, now))

    def on_writeback(self, block_addr, data, now):
        self.trace.append(("writeback", block_addr, now))

    def on_persist(self, msg, now):
        self.trace.append(("persist", msg.addr, now))


class TestPolicyDispatch:
    def test_hooks_fire_in_global_time_order(self):
        """The WriteBack-Read-Persist pattern must reach the policy in
        arrival order regardless of host call order."""
        policy = RecordingPolicy()
        env, pmc = make_pmc(policy=policy)
        # Host call order: persist first, but with the LATEST arrival.
        pmc.accept_persist(PersistMessage(0, 0x40, 1), arrival=500)
        pmc.accept_writeback(0x40, {0x40: 0}, arrival=100)
        pmc.read_block(1, 200)
        env.run()
        kinds = [entry[0] for entry in policy.trace]
        assert kinds == ["writeback", "read", "persist"]

    def test_read_delay_charged(self):
        policy = RecordingPolicy()
        env, pmc = make_pmc(policy=policy)
        fills = read(pmc, 1, 0)
        env.run()
        base = table3_config().ns(table3_config().pm_read_ns)
        assert [done for _content, done in fills] == [base + 7]
        assert pmc.stats["read_delay_cycles"] == 7

    def test_overriding_policy_suppresses_default_persist(self):
        policy = RecordingPolicy()  # does not call device.persist_*
        env, pmc = make_pmc(policy=policy)
        pmc.accept_writeback(0x40, {0x40: 9}, arrival=0)
        env.run()
        assert pmc.device.read(0x40) == 0
