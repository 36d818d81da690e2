"""Tests for the typed engine configuration (:mod:`repro.core.config`).

Three contracts:

* **Round-trip** — ``EngineConfig.from_dict(config.to_dict()) == config``
  for defaults and for fully customised configs, through JSON included.
* **Validation** — invalid values (negative cache size, unknown backend,
  unknown keys, W > C, both components off) raise :class:`ConfigError`
  with a message naming the field and the accepted values.
* **One construction path** — engines take an ``EngineConfig`` and nothing
  else: the 1.x flat kwargs are rejected, and names 2.0 or 4.0 removed fail
  with a message saying what to write instead.  The three hot-key
  arguments 4.0 removed still construct a ``ShardConfig`` for one release:
  they warn and change nothing.  6.0 removed the process backends:
  ``batch.backend`` is gone and ``shard.backend="process"`` is rejected.
  7.0 removed the ``verifier`` section: the C kernel is the only kernel.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    IGQ,
    BatchConfig,
    CacheConfig,
    ConfigError,
    EngineConfig,
    ShardConfig,
)
from repro.datasets.registry import load_dataset
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec


@pytest.fixture(scope="module")
def database():
    return load_dataset("synthetic", scale=0.12)


def hot_key_shard(**fields) -> ShardConfig:
    """A 3.x hot-key shard section, built through the deprecation shim."""
    with pytest.warns(DeprecationWarning, match="hot-key placement was removed in 4.0"):
        return ShardConfig(
            shards=4, hot_threshold=2, rebalance_interval=10, replication_factor=2, **fields
        )


# ----------------------------------------------------------------------
# Round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_default_round_trip(self):
        config = EngineConfig()
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_custom_round_trip(self):
        config = EngineConfig(
            mode="mixed",
            enable_isuper=False,
            cache=CacheConfig(size=64, window=16, policy="hit_rate"),
            batch=BatchConfig(num_workers=4, chunk_size=8,
                              pipeline=False, memoize_features=False),
            shard=ShardConfig(shards=4, backend="inline", compact_threshold=None),
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = EngineConfig(
            mode="supergraph",
            cache=CacheConfig(size=10, window=5),
            shard=ShardConfig(shards=2, backend="inline"),
        )
        restored = EngineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_hot_key_fields_round_trip(self):
        """The 3.x hot-key arguments warn and are dropped: not stored, not
        serialised, not compared."""
        shard = hot_key_shard()
        assert shard == ShardConfig(shards=4)
        assert hash(shard) == hash(ShardConfig(shards=4))
        config = EngineConfig(shard=shard)
        assert config.to_dict()["shard"] == {
            "shards": 4, "backend": "auto", "compact_threshold": 1024,
        }
        restored = EngineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config == EngineConfig(shard=ShardConfig(shards=4))

    def test_partial_dict_fills_defaults(self):
        config = EngineConfig.from_dict({"cache": {"size": 7, "window": 3}})
        assert config.cache == CacheConfig(size=7, window=3)
        assert config.batch == BatchConfig()
        assert config.mode == "subgraph"

    def test_sections_accept_plain_dicts(self):
        config = EngineConfig(cache={"size": 12, "window": 4}, shard={"shards": 2})
        assert config.cache == CacheConfig(size=12, window=4)
        assert config.shard.shards == 2

    def test_configs_are_frozen_and_hashable(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.mode = "supergraph"
        assert hash(config) == hash(EngineConfig())

    def test_replace_returns_modified_copy(self):
        config = EngineConfig()
        mixed = config.replace(mode="mixed")
        assert mixed.mode == "mixed"
        assert config.mode == "subgraph"


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_negative_cache_size(self):
        with pytest.raises(ConfigError, match=r"cache\.size=-5.*integer >= 1"):
            CacheConfig(size=-5)

    def test_zero_window(self):
        with pytest.raises(ConfigError, match=r"cache\.window=0"):
            CacheConfig(window=0)

    def test_window_larger_than_size(self):
        with pytest.raises(ConfigError, match=r"W <= C"):
            CacheConfig(size=10, window=20)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match=r"cache\.policy='lru'.*one of"):
            CacheConfig(policy="lru")

    def test_unknown_batch_backend(self):
        """6.0 removed the key: verification runs on threads whenever
        ``batch.num_workers > 1``."""
        with pytest.raises(
            ConfigError,
            match=r"unknown key\(s\) \['backend'\].*removed in 6\.0 — batch\.backend: "
            r"verification runs on a thread pool when batch\.num_workers > 1",
        ):
            EngineConfig.from_dict({"batch": {"backend": "thread"}})

    def test_unknown_shard_backend(self):
        with pytest.raises(ConfigError, match=r"shard\.backend='remote'.*one of"):
            ShardConfig(backend="remote")

    def test_unknown_algorithm(self):
        with pytest.raises(
            ConfigError, match=r"removed in 7\.0 — algorithm: VF2 is the only matching algorithm"
        ):
            EngineConfig.from_dict({"verifier": {"algorithm": "vf3"}})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match=r"engine\.mode='bidirectional'"):
            EngineConfig(mode="bidirectional")

    def test_both_components_disabled(self):
        with pytest.raises(ConfigError, match=r"at least one iGQ component"):
            EngineConfig(enable_isub=False, enable_isuper=False)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['caches'\]"):
            EngineConfig.from_dict({"caches": {"size": 3}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['capacity'\]"):
            EngineConfig.from_dict({"cache": {"capacity": 3}})

    def test_wrong_section_type(self):
        with pytest.raises(ConfigError, match=r"engine\.cache must be a CacheConfig"):
            EngineConfig(cache=42)

    def test_non_bool_flag(self):
        with pytest.raises(ConfigError, match=r"batch\.pipeline=1.*expected a bool"):
            BatchConfig(pipeline=1)

    def test_plain_igq_accepts_sharded_config(self, database):
        """One engine class for every ``shard.shards`` (3.0)."""
        method = create_method("ggsx", max_path_length=3)
        config = EngineConfig(shard=ShardConfig(shards=4, backend="inline"))
        with IGQ(method, config) as engine:
            assert type(engine) is IGQ
            assert len(engine.shard_runtime.shards) == 4

    def test_config_plus_legacy_kwargs_rejected(self):
        method = create_method("ggsx", max_path_length=3)
        with pytest.raises(TypeError, match=r"cache_size"):
            IGQ(method, EngineConfig(), cache_size=10)
        with pytest.raises(TypeError, match=r"shards"):
            IGQ(method, EngineConfig(), shards=2)
        with pytest.raises(TypeError, match=r"num_workers"):
            IGQ(method).run_batch([], num_workers=1)

    def test_positional_cache_size_names_the_config_field(self):
        method = create_method("ggsx", max_path_length=3)
        with pytest.raises(ConfigError, match=r"EngineConfig\.cache\.size"):
            IGQ(method, 20)

    @pytest.mark.parametrize(
        "data",
        [
            {"verifier": {"igq_compiled": False}},
            {"verifier": {"compiled": False}},
            {"verifier": {"precheck": False}},
        ],
    )
    def test_removed_verifier_switch_says_inject_a_verifier(self, data):
        with pytest.raises(
            ConfigError,
            match=r"removed in 2\.0.*Verifier\(compiled=False\).*igq_verifier=.*"
            r"create_method\(verifier=\)",
        ):
            EngineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, home",
        [
            ("cache_size", "EngineConfig.cache.size"),
            ("window_size", "EngineConfig.cache.window"),
            ("shard_backend", "EngineConfig.shard.backend"),
            ("num_workers", "EngineConfig.batch.num_workers"),
        ],
    )
    def test_flat_name_says_where_it_moved(self, key, home):
        with pytest.raises(ConfigError, match=rf"removed in 2\.0.*{key}: use {home}"):
            EngineConfig.from_dict({key: 1})

    def test_unknown_legacy_kwarg_rejected(self):
        method = create_method("ggsx", max_path_length=3)
        with pytest.raises(TypeError, match=r"cache_capacity"):
            IGQ(method, cache_capacity=10)


# ----------------------------------------------------------------------
# Construction routing
# ----------------------------------------------------------------------
class TestFromConfig:
    def test_default_engine(self, database):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method)
        assert type(engine) is IGQ
        assert engine.config == EngineConfig()
        assert engine.maintenance.cache_size == 500

    def test_sharded_dispatch(self, database):
        method = create_method("ggsx", max_path_length=3)
        config = EngineConfig(shard=ShardConfig(shards=4, backend="inline"))
        with IGQ(method, config) as engine:
            assert type(engine) is IGQ
            assert engine.num_shards == 4
            assert len(engine.shard_runtime.shards) == 4

    def test_single_shard_stays_plain_path(self, database):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, EngineConfig())
        assert engine.num_shards == 1
        # one in-process replica holds the index pair
        (replica,) = engine.shard_runtime.shards
        assert engine.isub is replica.isub and engine.isuper is replica.isuper
        assert engine.isub is not None and engine.isuper is not None

    def test_single_shard_never_forks(self, database):
        """``"auto"`` and ``"inline"`` both mean in-process replicas."""
        method = create_method("ggsx", max_path_length=3)
        for backend in ("auto", "inline"):
            with IGQ(method, EngineConfig(shard=ShardConfig(backend=backend))) as engine:
                (replica,) = engine.shard_runtime.shards
                assert engine.isub is replica.isub

    def test_run_batch_defaults_come_from_config(self, database):
        method = create_method("ggsx", max_path_length=3)
        config = EngineConfig(
            cache=CacheConfig(size=8, window=4),
            batch=BatchConfig(num_workers=2),
        )
        engine = IGQ(method, config)
        engine.build_index(database)
        spec = WorkloadSpec(name="uni", seed=3)
        queries = QueryGenerator(database, spec).generate(6)
        results = engine.run_batch(queries)
        assert len(results) == 6


class TestLegacyShims:
    """The 1.x flat-kwarg shims are gone; the bare call stays silent."""

    def test_no_kwargs_means_no_warning(self, recwarn):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method)
        assert engine.config == EngineConfig()
        assert not recwarn.list


# ----------------------------------------------------------------------
# Hot-key placement removal (4.0)
# ----------------------------------------------------------------------
class TestHotKeyRemoval:
    def test_hot_key_arguments_build_a_static_engine(self, database):
        """Answers, H/R/C and the delta log equal a static 4-shard engine's."""
        spec = WorkloadSpec(
            name="zipf", graph_distribution="zipf", node_distribution="zipf",
            alpha=1.4, seed=5,
        )
        pool = QueryGenerator(database, spec).generate(8)
        stream = [pool[(index * index) % len(pool)] for index in range(30)]

        def run(shard: ShardConfig):
            method = create_method("ggsx", max_path_length=3)
            config = EngineConfig(cache=CacheConfig(size=10, window=3), shard=shard)
            with IGQ(method, config) as engine:
                engine.build_index(database)
                answers = [sorted(map(repr, engine.query(query).answers)) for query in stream]
                credits = [
                    (entry.entry_id, entry.hits, entry.removed, entry.alleviated_cost.hex())
                    for entry in engine.cache.entries()
                ]
                records = [
                    (record.version, record.epoch, record.op, record.shard, record.entry_id)
                    for record in engine.delta_log.since(0)
                ]
            return answers, credits, records

        hot = run(hot_key_shard(backend="inline"))
        assert hot == run(ShardConfig(shards=4, backend="inline"))
        assert {op for _, _, op, _, _ in hot[2]} == {"insert", "evict", "flush"}

    def test_from_dict_names_the_removal(self):
        with pytest.raises(
            ConfigError,
            match=r"unknown key\(s\) \['hot_threshold'\].*removed in 4\.0 — hot_threshold",
        ):
            EngineConfig.from_dict({"shard": {"hot_threshold": 2}})


# ----------------------------------------------------------------------
# Process backend removal (6.0)
# ----------------------------------------------------------------------
class TestProcessBackendRemoval:
    def test_batch_config_has_no_backend(self):
        with pytest.raises(TypeError, match=r"backend"):
            BatchConfig(backend="thread")

    def test_process_shards_name_the_removal(self):
        with pytest.raises(ConfigError, match=r"shard\.backend='process' was removed in 6\.0"):
            ShardConfig(backend="process")
        with pytest.raises(ConfigError, match=r"removed in 6\.0"):
            EngineConfig.from_dict({"shard": {"shards": 2, "backend": "process"}})

    def test_describe_names_no_backend(self):
        config = EngineConfig(
            shard=ShardConfig(shards=4, backend="inline"), batch=BatchConfig(num_workers=2)
        )
        assert config.describe() == "mode=subgraph cache=500/100 shards=4 workers=2"


# ----------------------------------------------------------------------
# Verifier section removal (7.0)
# ----------------------------------------------------------------------
class TestVerifierSectionRemoval:
    def test_the_section_names_the_removal(self):
        with pytest.raises(
            ConfigError,
            match=r"unknown key\(s\) \['verifier'\].*removed in 7\.0 — verifier: the section "
            r"is gone.*Verifier\(compiled=False\) via igq_verifier=",
        ):
            EngineConfig.from_dict({"verifier": {}})

    def test_a_kernel_choice_names_the_removal(self):
        with pytest.raises(
            ConfigError,
            match=r"removed in 7\.0 — verifier: .*removed in 7\.0 — kernel: the C kernel "
            r"is the only verification kernel",
        ):
            EngineConfig.from_dict({"verifier": {"kernel": "bigint"}})

    def test_no_verifier_section_or_constructor_argument(self):
        assert "verifier" not in EngineConfig().to_dict()
        with pytest.raises(TypeError, match="verifier"):
            EngineConfig(verifier={})

    def test_the_engine_builds_the_kernel_verifier(self):
        with IGQ(create_method("ggsx", max_path_length=3)) as engine:
            assert engine.igq_verifier.supports_compiled()
            assert engine.igq_verifier.resolved_kernel_name() == "native"
