"""Reusable retry with exponential backoff, deterministic jitter, and a
deadline budget.

One :class:`RetryPolicy` serves every retry site in the stack — the
loadgen's readiness probe, the service client's per-request retries, and
anything a test wants to drive with a fake clock.  Jitter is
*deterministic*: attempt ``n`` for key ``k`` under seed ``s`` always
sleeps the same amount, so two runs of the same scenario replay the same
timing decisions (the same property the fault plans guarantee for
injection).  The deadline is a hard budget: the policy never starts a
sleep that would overrun it, raising the last error instead.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Tuple, Type


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule with seeded jitter and a deadline.

    Args:
        max_attempts: total tries (1 = no retry).
        base_delay_s: sleep before the first retry (attempt 0's delay).
        multiplier: backoff growth factor per retry.
        max_delay_s: cap on any single sleep.
        deadline_s: total budget from the first attempt; ``None`` means
            unbounded.  A sleep that would cross the deadline is not
            taken — the last exception propagates instead.
        jitter: fraction of each delay that is jittered.  The delay for
            attempt ``n`` lands deterministically in
            ``[raw * (1 - jitter), raw]``.
        seed: jitter stream seed (combined with the per-call ``key``).
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    deadline_s: Optional[float] = None
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0:
            raise ValueError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay_s < 0:
            raise ValueError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError(
                f"deadline_s must be >= 0, got {self.deadline_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    # ------------------------------------------------------------------ #
    # Schedule
    # ------------------------------------------------------------------ #

    def delay_for(self, attempt: int, key: str = "") -> float:
        """The sleep after failed attempt ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        raw = min(self.base_delay_s * (self.multiplier ** attempt),
                  self.max_delay_s)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        frac = random.Random(f"{self.seed}:{key}:{attempt}").random()
        return raw * (1.0 - self.jitter * (1.0 - frac))

    def delays(self, key: str = "") -> List[float]:
        """Every between-attempt sleep, in order (len = max_attempts-1)."""
        return [self.delay_for(attempt, key)
                for attempt in range(self.max_attempts - 1)]

    # ------------------------------------------------------------------ #
    # Drivers
    # ------------------------------------------------------------------ #

    def execute(self, fn: Callable[[], Any],
                retry_on: Tuple[Type[BaseException], ...] = (Exception,),
                key: str = "",
                clock: Callable[[], float] = time.monotonic,
                sleep: Callable[[float], None] = time.sleep,
                on_retry: Optional[Callable[[int, BaseException], None]]
                = None) -> Any:
        """Call ``fn`` until it succeeds, retries exhaust, or the
        deadline budget would be overrun; re-raises the last error."""
        deadline = (clock() + self.deadline_s
                    if self.deadline_s is not None else None)
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retry_on as exc:
                delay = self.delay_for(attempt, key)
                if attempt == self.max_attempts - 1:
                    raise
                if deadline is not None and clock() + delay > deadline:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(delay)
        raise AssertionError("unreachable")  # loop always returns/raises

    async def execute_async(
            self, fn: Callable[[], Awaitable[Any]],
            retry_on: Tuple[Type[BaseException], ...] = (Exception,),
            key: str = "",
            clock: Callable[[], float] = time.monotonic,
            sleep: Optional[Callable[[float], Awaitable[None]]] = None,
            on_retry: Optional[Callable[[int, BaseException], None]]
            = None) -> Any:
        """Async twin of :meth:`execute` (``fn`` returns an awaitable)."""
        do_sleep = sleep if sleep is not None else asyncio.sleep
        deadline = (clock() + self.deadline_s
                    if self.deadline_s is not None else None)
        for attempt in range(self.max_attempts):
            try:
                return await fn()
            except retry_on as exc:
                delay = self.delay_for(attempt, key)
                if attempt == self.max_attempts - 1:
                    raise
                if deadline is not None and clock() + delay > deadline:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                await do_sleep(delay)
        raise AssertionError("unreachable")
