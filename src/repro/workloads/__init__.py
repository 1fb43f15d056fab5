"""The Table 4 benchmarks plus the §8.4 synthetic misspeculation probes."""

from .array_swaps import ArraySwaps
from .base import TraceRecorder, Workload
from .hashmap import Hashmap
from .memcached import Memcached
from .memo import built_program, holding_programs
from .queue import ConcurrentQueue
from .rbtree import RBTree
from .synthetic import LoadMisspecProbe, StoreMisspecProbe
from .tatp import TATP
from .tpcc import TPCC
from .vacation import Vacation

# The paper's Table 4, in figure order.
BENCHMARKS = {
    "array_swaps": ArraySwaps,
    "queue": ConcurrentQueue,
    "hashmap": Hashmap,
    "rbtree": RBTree,
    "tatp": TATP,
    "tpcc": TPCC,
    "vacation": Vacation,
    "memcached": Memcached,
}


def workload_by_name(name: str, seed: int = 42) -> Workload:
    """Factory for Table 4 benchmarks (harness entry point)."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"choose from {sorted(BENCHMARKS)}")
    return BENCHMARKS[name](seed=seed)


__all__ = [
    "ArraySwaps", "BENCHMARKS", "ConcurrentQueue", "Hashmap",
    "LoadMisspecProbe", "Memcached", "RBTree", "StoreMisspecProbe",
    "TATP", "TPCC", "TraceRecorder", "Vacation", "Workload",
    "built_program", "holding_programs", "workload_by_name",
]
