"""Property-based coherence tests: the cache hierarchy, under arbitrary
interleavings of loads and stores from multiple cores, must always be
coherent with a flat reference memory (single-writer semantics are
guaranteed here by spacing operations in time, so every load has one
well-defined expected value)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import table3_config
from repro.mem import CacheHierarchy, MemoryImage, PMController, PMDevice
from repro.sim import Environment

N_CORES = 3
N_BLOCKS = 6
BASE = 0x1000_0000

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["load", "store"]),
        st.integers(min_value=0, max_value=N_CORES - 1),
        st.integers(min_value=0, max_value=N_BLOCKS - 1),
        st.integers(min_value=0, max_value=7),      # word within block
        st.integers(min_value=1, max_value=1000),   # store value
    ),
    min_size=1, max_size=60)


def build(tiny=False):
    env = Environment()
    overrides = {}
    if tiny:
        overrides = dict(l1_size_bytes=64 * 4, l1_ways=2,
                         l2_size_bytes=64 * 8, l2_ways=4)
    config = table3_config(n_cores=N_CORES, **overrides)
    device = PMDevice()
    pmc = PMController(env, config, device)
    image = MemoryImage()
    hierarchy = CacheHierarchy(env, config, pmc, image)
    return env, hierarchy


def run_sequence(ops, tiny):
    """Apply ops well-separated in time; check every load against the
    reference; returns (mismatches, hierarchy)."""
    env, hierarchy = build(tiny)
    reference = {}
    mismatches = []
    clock = [0]

    def next_time():
        clock[0] = max(clock[0] + 2000, env.now + 1)
        return clock[0]

    for kind, core, block, word, value in ops:
        addr = BASE + block * 64 + word * 8
        t = next_time()
        if kind == "store":
            hierarchy.store(core, addr, value, t)
            reference[addr] = value
            env.run(until=t + 1900)
        else:
            expected = reference.get(addr, 0)

            def check(result, expected=expected, addr=addr):
                if result.value != expected:
                    mismatches.append((addr, result.value, expected))
            result = hierarchy.load(core, addr, t, check)
            if result.level != "pm":
                check(result)
            env.run(until=t + 1900)
    env.run()
    return mismatches, hierarchy


class TestExclusiveDowngradeRegression:
    def test_read_snoop_downgrades_clean_exclusive_peer(self):
        """Minimal Hypothesis counterexample (PR 3 era): core 0 holds a
        block EXCLUSIVE, core 1's LLC-hit load must downgrade it to
        SHARED -- otherwise core 0's next store takes the silent
        exclusive-hit path and core 1 keeps reading the stale copy."""
        ops = [
            ("load", 0, 0, 0, 1),   # core 0 fills L1[0] EXCLUSIVE via PM
            ("load", 1, 0, 0, 1),   # core 1 LLC hit: must snoop-downgrade
            ("store", 0, 0, 0, 7),  # would silently hit if still E
            ("load", 1, 0, 0, 1),   # must see 7, not the stale 0
        ]
        mismatches, hierarchy = run_sequence(ops, tiny=False)
        assert mismatches == []
        # Both copies coherent and non-exclusive after the sharing load.
        line0 = hierarchy.l1s[0].lookup(BASE >> 6, touch=False)
        assert line0 is not None and line0.data[BASE] == 7


class TestCoherenceAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(ops_strategy)
    def test_big_caches_always_coherent(self, ops):
        mismatches, _ = run_sequence(ops, tiny=False)
        assert mismatches == []

    @settings(max_examples=40, deadline=None)
    @given(ops_strategy)
    def test_tiny_caches_with_evictions_still_coherent(self, ops):
        """Constant evictions/writebacks/refetches must never lose data
        under the default (persist-everything) PMC policy."""
        mismatches, hierarchy = run_sequence(ops, tiny=True)
        assert mismatches == []

    @settings(max_examples=25, deadline=None)
    @given(ops_strategy)
    def test_architectural_image_tracks_reference(self, ops):
        _mismatches, hierarchy = run_sequence(ops, tiny=True)
        for kind, core, block, word, value in ops:
            addr = BASE + block * 64 + word * 8
        reference = {}
        for kind, core, block, word, value in ops:
            if kind == "store":
                reference[BASE + block * 64 + word * 8] = value
        for addr, value in reference.items():
            assert hierarchy.image.read(addr) == value

    @settings(max_examples=25, deadline=None)
    @given(ops_strategy)
    def test_durable_image_converges_to_reference(self, ops):
        """After quiescing, PM holds the final values (default policy:
        everything persists via CLWB-free writebacks at eviction, so we
        flush explicitly via clwb for blocks still cached)."""
        _mismatches, hierarchy = run_sequence(ops, tiny=True)
        reference = {}
        for kind, core, block, word, value in ops:
            if kind == "store":
                reference[BASE + block * 64 + word * 8] = value
        env = hierarchy.env
        t = env.now + 1000
        for addr in reference:
            for core in range(N_CORES):
                hierarchy.clwb(core, addr, t)
                t += 100
        env.run()
        for addr, value in reference.items():
            assert hierarchy.pmc.device.read(addr) == value
