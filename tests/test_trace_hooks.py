"""The wrap points of the end-to-end tracer fire during a service stream.

``bench_e2e/trace.py`` instance-wraps engine callables by name and derives a
layer metric from the calls it sees.  A renamed hook shows up there as
``missing_hooks``; a hook that still exists but is no longer called would
read as a layer that costs nothing.  These tests wrap the same names on a
live :class:`~repro.service.GraphQueryService` and assert every one fires.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import CacheConfig, EngineConfig, ShardConfig
from repro.datasets.registry import load_dataset
from repro.methods import create_method
from repro.service import GraphQueryService
from repro.workloads.generator import QueryGenerator, WorkloadSpec


@pytest.fixture(scope="module")
def database():
    return load_dataset("synthetic", scale=0.05)


@pytest.fixture(scope="module")
def stream(database):
    pool = QueryGenerator(database, WorkloadSpec(name="uniform", seed=3)).generate(8)
    rng = random.Random(11)
    return [rng.choice(pool) for _ in range(24)]


def single_shard_hooks(engine) -> dict:
    """What the tracer wraps on an unsharded workload."""
    return {
        "isub.probe": (engine.isub, "find_supergraphs"),
        "isuper.probe": (engine.isuper, "find_subgraphs"),
        "maintenance.rebuild": (engine.maintenance, "flush"),
        "maintenance.flush": (engine, "_flush_window"),
    }


def sharded_hooks(engine) -> dict:
    """What the tracer wraps on a sharded workload."""
    runtime = engine.shard_runtime
    hooks = {"shard.probe": (runtime, "probe"), "shard.sync": (runtime, "sync")}
    for shard in runtime.shards:
        hooks[f"isub.probe[{shard.shard_id}]"] = (shard, "find_supergraph_ids")
        hooks[f"isuper.probe[{shard.shard_id}]"] = (shard, "find_subgraph_ids")
    return hooks


def fired_hooks(database, stream, shard: ShardConfig, hooks_of) -> tuple[set, Counter, int]:
    """Wrap ``hooks_of(engine)`` on each instance, run ``stream``, count
    calls; also return how many plans the engine replayed."""
    config = EngineConfig(cache=CacheConfig(size=8, window=3), shard=shard)
    method = create_method("ggsx", max_path_length=3)
    calls: Counter = Counter()
    with GraphQueryService(method, config, database=database) as service:
        hooks = hooks_of(service.engine)
        for name, (owner, attribute) in hooks.items():
            original = getattr(owner, attribute)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            setattr(owner, attribute, counted)
        for query in stream:
            service.query(query)
    return set(hooks), calls, service.engine.plans_replayed


def test_single_shard_hooks_fire(database, stream):
    hooks, calls, _ = fired_hooks(database, stream, ShardConfig(), single_shard_hooks)
    assert set(calls) == hooks
    assert calls["maintenance.flush"] == calls["maintenance.rebuild"] == len(stream) // 3


def test_inline_shard_hooks_fire(database, stream):
    shard = ShardConfig(shards=4, backend="inline")
    hooks, calls, replayed = fired_hooks(database, stream, shard, sharded_hooks)
    assert set(calls) == hooks
    # a repeat within a window replays its plan instead of probing
    assert calls["shard.probe"] == len(stream) - replayed
