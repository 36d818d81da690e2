"""Fairness-aware task scheduling for the service front door.

:class:`FairScheduler` replaces the single FIFO submission queue of the
original service with one queue per tenant and a **deficit round-robin**
dispatcher: each tenant accumulates ``weight`` units of service credit when
the dispatch cursor reaches it and spends one unit per dequeued query, so a
tenant with weight 4 gets four consecutive dispatch slots for every one a
weight-1 tenant gets — and, crucially, a tenant flooding its own queue can
never push another tenant's queries back (the cursor always comes around).
With a single tenant the discipline degenerates to plain FIFO, which is what
keeps the embedded service path byte-identical to the original driver loop.

Admission control happens at the edges:

* ``submit()`` enforces the tenant's ``max_in_flight`` quota — blocking
  (embedded callers get backpressure, as before) or non-blocking (the
  network server turns the quota into a typed ``overloaded`` error via
  :class:`AdmissionError`);
* ``next()`` enforces the tenant's token-bucket ``rate_limit`` — a tenant
  over its rate leaves its queue untouched while others are served, and
  ``poll()`` tells the caller how long until the earliest token refill.

The scheduler owns no threads and never waits for work: the service's
combiner (whichever submitting thread runs the queue) calls ``next()`` and
``poll()``, submitters call ``submit()`` / ``discard()`` / ``finish()`` —
all state lives behind one lock.  Draining (after :meth:`close`) ignores
rate limits so shutdown never waits on a token bucket.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..core.config import ServiceConfig, TenantConfig

__all__ = ["CLOSED", "AdmissionError", "SchedulerClosed", "FairScheduler"]


class AdmissionError(RuntimeError):
    """A non-blocking submission exceeded the tenant's ``max_in_flight`` quota."""


class SchedulerClosed(RuntimeError):
    """The scheduler no longer accepts submissions."""


class _Closed:
    """Sentinel returned by :meth:`FairScheduler.next` once fully drained."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CLOSED>"


CLOSED = _Closed()


class _TenantState:
    """One tenant's queue, DRR deficit, quota and token bucket."""

    __slots__ = (
        "name",
        "weight",
        "max_in_flight",
        "rate",
        "burst",
        "queue",
        "deficit",
        "in_flight",
        "tokens",
        "refilled_at",
    )

    def __init__(self, config: TenantConfig, now: float) -> None:
        self.name = config.name
        self.weight = config.weight
        self.max_in_flight = config.max_in_flight
        self.rate = config.rate_limit
        # One full-rate second of burst (>= 1 so a fresh tenant never waits).
        self.burst = max(1.0, config.rate_limit or 0.0)
        self.queue: deque = deque()
        self.deficit = 0
        self.in_flight = 0
        self.tokens = self.burst
        self.refilled_at = now

    def _refill(self, now: float) -> None:
        if self.rate is not None and now > self.refilled_at:
            self.tokens = min(self.burst, self.tokens + (now - self.refilled_at) * self.rate)
            self.refilled_at = now

    def ready(self, now: float) -> bool:
        """True when the token bucket allows a dispatch right now."""
        if self.rate is None:
            return True
        self._refill(now)
        return self.tokens >= 1.0

    def wait(self, now: float) -> float:
        """Seconds until the next token becomes available."""
        self._refill(now)
        return max(0.0, (1.0 - self.tokens) / self.rate)

    def consume(self, now: float) -> None:
        """Spend one rate token for a dispatch."""
        if self.rate is not None:
            self._refill(now)
            self.tokens -= 1.0


class FairScheduler:
    """Per-tenant queues behind a deficit round-robin dispatcher.

    Tasks are opaque to the scheduler except for two attributes it manages:
    ``task.tenant`` (set by the caller before :meth:`submit`) and
    ``task.finalized`` (written by :meth:`finish` to make slot release
    idempotent under the cancel/timeout/resolve races).
    """

    def __init__(self, config: ServiceConfig, *, clock=time.monotonic) -> None:
        self._config = config
        self._clock = clock
        self._lock = threading.Lock()
        #: signalled when an in-flight slot frees up
        self._space = threading.Condition(self._lock)
        self._tenants: dict[str, _TenantState] = {}
        self._ring: list[_TenantState] = []
        self._cursor = 0
        self._queued = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(self._config.tenant(name), self._clock())
            self._tenants[name] = state
            self._ring.append(state)
        return state

    def submit(self, task, *, block: bool = True) -> None:
        """Enqueue ``task`` under its tenant, enforcing the in-flight quota.

        Blocking form waits for a slot (embedded backpressure); the
        non-blocking form raises :class:`AdmissionError` when the tenant is
        at quota.  Raises :class:`SchedulerClosed` after :meth:`close`.
        """
        with self._lock:
            state = self._tenant(task.tenant)
            while not self._closed and state.in_flight >= state.max_in_flight:
                if not block:
                    raise AdmissionError(
                        f"tenant {state.name!r} is over its "
                        f"max_in_flight={state.max_in_flight} quota"
                    )
                self._space.wait()
            if self._closed:
                raise SchedulerClosed("the scheduler is closed")
            state.in_flight += 1
            task.finalized = False
            state.queue.append(task)
            self._queued += 1

    def discard(self, task) -> bool:
        """Remove a not-yet-dispatched task from its tenant queue.

        Returns True when the task was still queued (the caller then owns
        its finalisation); False when the combiner already dequeued it.
        """
        with self._lock:
            state = self._tenants.get(task.tenant)
            if state is None:
                return False
            try:
                state.queue.remove(task)
            except ValueError:
                return False
            self._queued -= 1
            return True

    def finish(self, task) -> None:
        """Release the task's in-flight slot (idempotent)."""
        with self._lock:
            if getattr(task, "finalized", True):
                return
            task.finalized = True
            self._tenants[task.tenant].in_flight -= 1
            self._space.notify_all()

    # ------------------------------------------------------------------
    # Dispatch side
    # ------------------------------------------------------------------
    def next(self):
        """Dequeue the next task the DRR discipline selects.

        Returns a task; or ``None`` when nothing is dispatchable right now
        (every queue is empty, or its tenant is rate-limited); or
        :data:`CLOSED` once the scheduler is closed and every queue has
        drained.
        """
        with self._lock:
            task = self._pick(self._clock())
            if task is None and self._closed:
                return CLOSED
            return task

    def poll(self) -> float | None:
        """Seconds until :meth:`next` can return a queued task: ``0.0`` when
        one is dispatchable now, the wait for the earliest token refill
        when only rate-limited tenants have work, ``None`` when nothing is
        queued."""
        with self._lock:
            if self._queued == 0:
                return None
            if self._closed:
                return 0.0
            now = self._clock()
            waits = []
            for state in self._ring:
                if state.queue:
                    if state.ready(now):
                        return 0.0
                    waits.append(state.wait(now))
            return min(waits)

    def _pick(self, now: float):
        """One DRR scan: the chosen task, or ``None``."""
        if self._queued == 0:
            return None
        ring = self._ring
        size = len(ring)
        # Two sweeps bound the scan: a backlogged, dispatchable tenant is
        # served by its second visit at the latest (the first may only
        # replenish its deficit).
        for _ in range(2 * size):
            state = ring[self._cursor % size]
            if not state.queue:
                # An idle tenant forfeits unused credit (standard DRR) so it
                # cannot hoard a burst allowance while away.
                state.deficit = 0
                self._cursor = (self._cursor + 1) % size
                continue
            if not self._closed and not state.ready(now):
                self._cursor = (self._cursor + 1) % size
                continue
            if state.deficit < 1:
                state.deficit += state.weight
            state.deficit -= 1
            if not self._closed:
                state.consume(now)
            task = state.queue.popleft()
            self._queued -= 1
            if not state.queue:
                state.deficit = 0
                self._cursor = (self._cursor + 1) % size
            elif state.deficit < 1:
                self._cursor = (self._cursor + 1) % size
            return task
        return None

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admissions; ``next()`` drains the backlog, then reports CLOSED."""
        with self._lock:
            self._closed = True
            self._space.notify_all()

    @property
    def queued(self) -> int:
        """Number of tasks currently waiting across all tenant queues."""
        with self._lock:
            return self._queued

    def snapshot(self) -> dict:
        """Per-tenant scheduling state (for reports and tests)."""
        with self._lock:
            return {
                state.name: {
                    "queued": len(state.queue),
                    "in_flight": state.in_flight,
                    "weight": state.weight,
                    "max_in_flight": state.max_in_flight,
                    "rate_limit": state.rate,
                }
                for state in self._ring
            }
