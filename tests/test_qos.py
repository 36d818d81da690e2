"""Multi-tenant QoS: fair scheduling, quotas, rate limits, cancel, timeouts.

Two layers:

* :class:`~repro.service.scheduler.FairScheduler` unit tests drive the
  deficit round-robin dispatcher with a fake clock — dispatch order,
  weighting, token-bucket rate limiting, quota admission and drain
  semantics are all deterministic;
* service-level tests run a real engine and assert the user-visible
  contracts: a flooding tenant cannot starve a light one, ``Future.cancel``
  on a queued submission prevents its execution, and deadlines expire
  submissions with :class:`~repro.service.QueryTimeout`.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.core import CacheConfig, EngineConfig
from repro.core.config import ConfigError, ServiceConfig, TenantConfig
from repro.datasets.registry import load_dataset
from repro.methods import create_method
from repro.service import (
    AdmissionError,
    FairScheduler,
    GraphQueryService,
    QueryTimeout,
)
from repro.service.scheduler import CLOSED, SchedulerClosed
from repro.workloads.generator import QueryGenerator, WorkloadSpec


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_scheduler(clock=None, **service_kwargs) -> FairScheduler:
    return FairScheduler(
        ServiceConfig(**service_kwargs), clock=clock or FakeClock()
    )


def task_for(tenant: str, tag: int = 0) -> SimpleNamespace:
    return SimpleNamespace(tenant=tenant, tag=tag, finalized=False)


def drain_tags(scheduler: FairScheduler) -> list[tuple[str, int]]:
    order = []
    while True:
        task = scheduler.next(block=False)
        if task is None or task is CLOSED:
            return order
        order.append((task.tenant, task.tag))
        scheduler.finish(task)


class TestFairScheduler:
    def test_single_tenant_is_fifo(self):
        scheduler = make_scheduler()
        for tag in range(6):
            scheduler.submit(task_for("default", tag))
        assert drain_tags(scheduler) == [("default", tag) for tag in range(6)]

    def test_deficit_round_robin_respects_weights(self):
        scheduler = make_scheduler(
            tenants=({"name": "heavy", "weight": 3}, {"name": "light", "weight": 1})
        )
        for tag in range(9):
            scheduler.submit(task_for("heavy", tag))
        for tag in range(3):
            scheduler.submit(task_for("light", tag))
        tenants = [tenant for tenant, _ in drain_tags(scheduler)]
        # 3 heavy dispatches per light one, and each tenant's own order FIFO.
        assert tenants == ["heavy"] * 3 + ["light"] + ["heavy"] * 3 + ["light"] + [
            "heavy"
        ] * 3 + ["light"]

    def test_backlogged_tenant_cannot_starve_a_newcomer(self):
        scheduler = make_scheduler(tenants=({"name": "hog", "max_in_flight": 64},))
        for tag in range(50):
            scheduler.submit(task_for("hog", tag))
        scheduler.submit(task_for("fast", 0))
        served_before_fast = 0
        while True:
            task = scheduler.next(block=False)
            if task.tenant == "fast":
                break
            served_before_fast += 1
            scheduler.finish(task)
        # The cursor reaches the newcomer within one round, not after 50.
        assert served_before_fast <= 2

    def test_rate_limit_blocks_and_refills(self):
        clock = FakeClock()
        scheduler = make_scheduler(
            clock, tenants=({"name": "metered", "rate_limit": 2.0},)
        )
        for tag in range(4):
            scheduler.submit(task_for("metered", tag))
        # burst of max(1, rate)=2 tokens, then the bucket is dry
        assert scheduler.next(block=False).tag == 0
        assert scheduler.next(block=False).tag == 1
        assert scheduler.next(block=False) is None
        clock.advance(0.5)  # one token at 2/sec
        assert scheduler.next(block=False).tag == 2
        assert scheduler.next(block=False) is None
        clock.advance(10.0)
        assert scheduler.next(block=False).tag == 3

    def test_rate_limited_tenant_does_not_block_others(self):
        clock = FakeClock()
        scheduler = make_scheduler(
            clock, tenants=({"name": "metered", "rate_limit": 1.0},)
        )
        for tag in range(3):
            scheduler.submit(task_for("metered", tag))
        scheduler.submit(task_for("free", 0))
        scheduler.submit(task_for("free", 1))
        assert scheduler.next(block=False).tenant == "metered"  # burst token
        # metered is dry now; the free tenant keeps being served
        assert scheduler.next(block=False).tenant == "free"
        assert scheduler.next(block=False).tenant == "free"
        assert scheduler.next(block=False) is None

    def test_quota_admission_blocking_and_not(self):
        scheduler = make_scheduler(tenants=({"name": "t", "max_in_flight": 2},))
        first = task_for("t", 0)
        scheduler.submit(first)
        scheduler.submit(task_for("t", 1))
        with pytest.raises(AdmissionError, match="max_in_flight=2"):
            scheduler.submit(task_for("t", 2), block=False)
        # the quota releases on finish(), not on dequeue
        assert scheduler.next(block=False) is first
        with pytest.raises(AdmissionError):
            scheduler.submit(task_for("t", 2), block=False)
        scheduler.finish(first)
        scheduler.submit(task_for("t", 2), block=False)

    def test_blocking_submit_wakes_on_slot_release(self):
        scheduler = make_scheduler(tenants=({"name": "t", "max_in_flight": 1},))
        first = task_for("t", 0)
        scheduler.submit(first)
        submitted = threading.Event()

        def blocked_submit():
            scheduler.submit(task_for("t", 1))
            submitted.set()

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        assert not submitted.wait(0.1)
        assert scheduler.next(block=False) is first
        scheduler.finish(first)
        assert submitted.wait(5.0)
        thread.join()

    def test_finish_is_idempotent(self):
        scheduler = make_scheduler(tenants=({"name": "t", "max_in_flight": 1},))
        task = scheduler_task = task_for("t")
        scheduler.submit(scheduler_task)
        assert scheduler.next(block=False) is task
        scheduler.finish(task)
        scheduler.finish(task)
        assert scheduler.snapshot()["t"]["in_flight"] == 0

    def test_discard_removes_only_queued_tasks(self):
        scheduler = make_scheduler()
        first, second = task_for("default", 0), task_for("default", 1)
        scheduler.submit(first)
        scheduler.submit(second)
        assert scheduler.discard(second) is True
        assert scheduler.discard(second) is False  # already gone
        dequeued = scheduler.next(block=False)
        assert dequeued is first
        assert scheduler.discard(first) is False  # already dispatched
        assert scheduler.next(block=False) is None

    def test_close_drains_ignoring_rate_limits_then_reports_closed(self):
        clock = FakeClock()
        scheduler = make_scheduler(
            clock, tenants=({"name": "metered", "rate_limit": 0.001},)
        )
        scheduler.submit(task_for("metered", 0))
        scheduler.submit(task_for("metered", 1))
        assert scheduler.next(block=False).tag == 0  # the burst token
        assert scheduler.next(block=False) is None  # rate-blocked
        scheduler.close()
        assert scheduler.next(block=False).tag == 1  # drain ignores the bucket
        assert scheduler.next(block=False) is CLOSED
        with pytest.raises(SchedulerClosed):
            scheduler.submit(task_for("metered", 2))

    def test_snapshot_reports_qos_knobs(self):
        scheduler = make_scheduler(
            default_weight=2,
            tenants=({"name": "vip", "weight": 8, "rate_limit": 100.0},),
        )
        scheduler.submit(task_for("vip"))
        scheduler.submit(task_for("anon"))
        snapshot = scheduler.snapshot()
        assert snapshot["vip"] == {
            "queued": 1, "in_flight": 1, "weight": 8,
            "max_in_flight": 32, "rate_limit": 100.0,
        }
        assert snapshot["anon"]["weight"] == 2


@pytest.fixture(scope="module")
def database():
    return load_dataset("synthetic", scale=0.12)


@pytest.fixture(scope="module")
def query_pool(database):
    spec = WorkloadSpec(
        name="zipf", graph_distribution="zipf", node_distribution="zipf",
        alpha=1.2, seed=23,
    )
    return QueryGenerator(database, spec).generate(12)


def qos_service(database, **service_kwargs) -> GraphQueryService:
    config = EngineConfig(
        cache=CacheConfig(size=10, window=3),
        service=ServiceConfig(**service_kwargs),
    )
    return GraphQueryService(
        create_method("ggsx", max_path_length=3), config, database=database
    )


class TestServiceQoS:
    def test_flooding_tenant_does_not_starve_fast_tenant(
        self, database, query_pool, monkeypatch
    ):
        """The whole backlog is queued before the driver dispatches any of
        it (a first query holds the driver until then), so the completion
        order is exactly the weighted DRR order — no thread race."""
        hog_backlog, fast_count = 20, 5
        tenants = (TenantConfig(name="hog", weight=1), TenantConfig(name="fast", weight=4))
        with qos_service(database, tenants=tenants) as service:
            gate_query = query_pool[0].relabeled()
            entered, release = threading.Event(), threading.Event()
            plan_query = service.engine.plan_query

            def gated_plan_query(query, *args, **kwargs):
                if query is gate_query:
                    entered.set()
                    assert release.wait(60)
                return plan_query(query, *args, **kwargs)

            monkeypatch.setattr(service.engine, "plan_query", gated_plan_query)
            completed: list[tuple[str, int]] = []

            def submit(session, tag, query):
                future = session.submit(query)
                future.add_done_callback(lambda _: completed.append((session.name, tag)))
                return future

            gate = submit(service.session("gate"), 0, gate_query)
            assert entered.wait(60)
            hog, fast = service.session("hog"), service.session("fast")
            futures = [
                submit(hog, tag, query_pool[tag % len(query_pool)])
                for tag in range(hog_backlog)
            ] + [submit(fast, tag, query_pool[tag]) for tag in range(fast_count)]
            release.set()
            for future in [gate, *futures]:
                future.result(timeout=120)

            # The same submissions through a bare scheduler give the order.
            scheduler = make_scheduler(tenants=tenants)
            scheduler.submit(task_for("gate", 0))
            scheduler.finish(scheduler.next(block=False))
            for tag in range(hog_backlog):
                scheduler.submit(task_for("hog", tag))
            for tag in range(fast_count):
                scheduler.submit(task_for("fast", tag))
            assert completed == [("gate", 0), *drain_tags(scheduler)]
            # The weighted scheduler interleaved the light tenant ahead of
            # the flood: a chunk of the hog's backlog was still waiting when
            # the fast tenant's last answer arrived.
            last_fast = max(i for i, (tenant, _) in enumerate(completed) if tenant == "fast")
            hog_unfinished = sum(tenant == "hog" for tenant, _ in completed[last_fast + 1 :])
            assert hog_unfinished >= 5
            report = service.stats()
            assert report.sessions["hog"].queries == hog_backlog
            assert report.sessions["fast"].queries == fast_count
            assert report.totals.queries == hog_backlog + fast_count + 1

    def test_cancel_before_dispatch_removes_from_queue(self, database, query_pool):
        # rate_limit < 1 gives a single-token burst: the second submission
        # is deterministically still queued when we cancel it.
        with qos_service(
            database, tenants=(TenantConfig(name="metered", rate_limit=0.5),)
        ) as service:
            session = service.session("metered")
            first = session.submit(query_pool[0])
            second = session.submit(query_pool[1])
            assert second.cancel()
            assert second.cancelled()
            first.result(timeout=120)
            assert service.scheduler_snapshot()["metered"]["queued"] == 0
            assert service.scheduler_snapshot()["metered"]["in_flight"] == 0
            report = service.stats()
            # the cancelled query never reached the engine
            assert report.totals.queries == 1

    def test_cancel_frees_the_tenant_quota_slot(self, database, query_pool):
        with qos_service(
            database,
            tenants=(
                TenantConfig(name="metered", rate_limit=0.5, max_in_flight=2),
            ),
        ) as service:
            session = service.session("metered")
            # burn the single burst token so later submissions stay queued
            session.submit(query_pool[0]).result(timeout=120)
            second = session.submit(query_pool[1])
            third = session.submit(query_pool[2])
            with pytest.raises(AdmissionError, match="max_in_flight=2"):
                session.submit(query_pool[3], block=False)
            assert second.cancel()
            # the freed slot admits a new submission at once
            fourth = session.submit(query_pool[3], block=False)
            assert fourth.cancel()
            assert third.cancel()

    def test_timeout_expires_queued_submission(self, database, query_pool):
        with qos_service(
            database, tenants=(TenantConfig(name="metered", rate_limit=0.5),)
        ) as service:
            session = service.session("metered")
            first = session.submit(query_pool[0])
            second = session.submit(query_pool[1], timeout=0.05)
            with pytest.raises(QueryTimeout, match="timed out after 0.05s"):
                second.result(timeout=120)
            first.result(timeout=120)
            assert service.stats().totals.queries == 1

    def test_default_timeout_from_service_config(self, database, query_pool):
        with qos_service(
            database,
            default_timeout_seconds=0.05,
            tenants=(TenantConfig(name="metered", rate_limit=0.5),),
        ) as service:
            session = service.session("metered")
            session.submit(query_pool[0])
            second = session.submit(query_pool[1])
            with pytest.raises(QueryTimeout):
                second.result(timeout=120)

    def test_invalid_timeout_rejected(self, database, query_pool):
        with qos_service(database) as service:
            with pytest.raises(ConfigError, match="timeout=0"):
                service.submit(query_pool[0], timeout=0)

    def test_service_still_serves_after_timeouts_and_cancels(
        self, database, query_pool
    ):
        with qos_service(database) as service:
            with pytest.raises(QueryTimeout):
                # expires pre- or mid-execution, whichever the race decides;
                # either way the caller sees QueryTimeout, not a late result
                service.submit(query_pool[0], timeout=0.000001).result(timeout=120)
            result = service.query(query_pool[1])
            assert result.query_name == query_pool[1].name

    def test_microsecond_timeout_never_delivers_a_late_result(
        self, database, query_pool
    ):
        """The deadline is enforced at completion, not only by the timer.

        A 1 µs timer thread routinely loses the race against the driver;
        before the completion check that delivered a result after its
        deadline roughly one run in four.
        """
        with qos_service(database) as service:
            for index in range(200):
                future = service.submit(
                    query_pool[index % len(query_pool)], timeout=0.000001
                )
                with pytest.raises(QueryTimeout):
                    future.result(timeout=120)
            assert service.query(query_pool[0]).query_name == query_pool[0].name
