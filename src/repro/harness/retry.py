"""One retry policy for every fan-out path in the repo.

Every task -- a sweep spec, a map item, a campaign chunk, inline or on
a worker -- runs on :class:`repro.harness.WorkStealingPool`, and the
pool re-dispatches a failed task as the executor's
:class:`RetryPolicy` allows: bounded attempts, exponential backoff
with optional jitter, a predicate for which exceptions are worth
retrying at all.  The CLI's executors use :data:`DEFAULT_POLICY`, the
service :data:`SERVICE_POLICY`.

The policy is deliberately *passive*: it answers "should attempt N+1
happen?" and "how long to wait first?", while the pool owns the loop,
the clock, and the ``task_retry`` event it emits before re-running
(silent retries are a bug this module exists to end).

Determinism: ``jitter`` defaults to 0 so the default policy is a pure
function of the attempt number.  Callers that want jitter pass a
seeded :class:`random.Random`; the policy never touches global RNG
state (sweep results must stay bit-identical regardless of retries).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["RetryPolicy", "DEFAULT_POLICY", "SERVICE_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_attempts`` counts *executions*, not retries: the default of 2
    means "one retry after the first failure".  ``base_delay_s`` is the wait
    before attempt 2; each further attempt multiplies it by
    ``multiplier`` and caps at ``max_delay_s``.  ``jitter`` widens each
    delay to ``delay * uniform(1 - jitter, 1 + jitter)`` when an RNG is
    supplied.  ``retryable`` filters exceptions: ``None`` retries
    everything the caller bothered to catch.
    """

    max_attempts: int = 2
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.0
    retryable: Optional[Callable[[BaseException], bool]] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def should_retry(self, attempt: int,
                     exc: Optional[BaseException] = None) -> bool:
        """May attempt ``attempt + 1`` happen?  ``attempt`` is the
        1-based count of executions that have already failed."""
        if attempt >= self.max_attempts:
            return False
        if exc is not None and self.retryable is not None:
            return bool(self.retryable(exc))
        return True

    def delay_s(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Seconds to wait before attempt ``attempt + 1`` (``attempt``
        failures so far).  Deterministic unless an RNG is passed."""
        if attempt < 1 or self.base_delay_s == 0.0:
            return 0.0
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        if rng is not None and self.jitter:
            delay *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay


#: What the CLI's executors run: one immediate retry.
DEFAULT_POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.0)

#: What the service's executors run: three attempts, 0.5s/1s
#: backoff -- enough to ride out a transient (OOM-killed worker, a
#: snapshot store being rewritten underneath) without stalling a
#: straggler task for long.
SERVICE_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.5,
                             max_delay_s=10.0)
