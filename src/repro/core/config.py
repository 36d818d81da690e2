"""Typed engine configuration: the one way to configure an engine.

A small tree of frozen dataclasses:

* :class:`CacheConfig` — the query cache (``C``, ``W``, replacement policy);
* :class:`BatchConfig` — query execution (verification thread workers,
  feature memo);
* :class:`ShardConfig` — the sharded query index;
* :class:`ServiceConfig` / :class:`TenantConfig` — the service front door:
  per-tenant fairness weights, ``max_in_flight`` admission quotas, rate
  limits and query timeouts consumed by the multi-tenant scheduler and the
  network server;
* :class:`PersistConfig` — durable cache state: the WAL/snapshot directory,
  fsync discipline and snapshot budget consumed by :mod:`repro.persist`;
* :class:`EngineConfig` — the composition of the sections plus the query mode,
  which is what :class:`~repro.core.engine.IGQ`, the experiment
  runner and :class:`~repro.service.GraphQueryService` consume.

Every config is frozen (hashable, shareable), validates eagerly at
construction with actionable errors (:class:`ConfigError` names the field,
the offending value and the accepted ones), and round-trips losslessly
through :meth:`EngineConfig.to_dict` / :meth:`EngineConfig.from_dict` — the
dict form is JSON-serialisable, so experiment grids and stored results can
carry one config object.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, asdict, dataclass, field, fields
from typing import Any

__all__ = [
    "MODES",
    "QUERY_MODES",
    "SUBGRAPH_MODE",
    "SUPERGRAPH_MODE",
    "MIXED_MODE",
    "ConfigError",
    "CacheConfig",
    "BatchConfig",
    "ShardConfig",
    "TenantConfig",
    "ServiceConfig",
    "PersistConfig",
    "EngineConfig",
    "validate_query_mode",
]

SUBGRAPH_MODE = "subgraph"
SUPERGRAPH_MODE = "supergraph"
#: engines in mixed mode take the query type per call instead of fixing it
MIXED_MODE = "mixed"

#: accepted engine modes; ``"mixed"`` engines take the query type per call
#: (the service front door) instead of fixing it at construction
MODES = (SUBGRAPH_MODE, SUPERGRAPH_MODE, MIXED_MODE)
#: modes an individual *query* can have (an engine mode minus ``"mixed"``)
QUERY_MODES = (SUBGRAPH_MODE, SUPERGRAPH_MODE)


def validate_query_mode(mode: str) -> str:
    """Check a per-query mode (:meth:`IGQ.resolve_mode` calls it)."""
    if mode not in QUERY_MODES:
        raise ValueError(
            f"unknown query mode {mode!r}; expected "
            f"{SUBGRAPH_MODE!r} or {SUPERGRAPH_MODE!r}"
        )
    return mode

_POLICIES = ("utility", "hit_rate", "fifo")
_SHARD_BACKENDS = ("auto", "inline")
_FSYNC_MODES = ("always", "flush", "never")


class ConfigError(ValueError):
    """An engine configuration value is invalid (message says how to fix it)."""


#: flat names repro 1.x accepted -> their 2.0 home (unknown-key hints)
_MOVED_IN_2_0 = {
    "cache_size": "EngineConfig.cache.size",
    "window_size": "EngineConfig.cache.window",
    "policy": "EngineConfig.cache.policy",
    "shards": "EngineConfig.shard.shards",
    "shard_backend": "EngineConfig.shard.backend",
    "num_workers": "EngineConfig.batch.num_workers",
}

#: the hot-key placement knobs 4.0 removed (accepted, with a
#: ``DeprecationWarning``, by the ``ShardConfig`` constructor for one release)
_HOT_KEY_FIELDS = ("hot_threshold", "rebalance_interval", "replication_factor")

#: the ``verifier`` section 7.0 removed, and its three keys -> what now
_REMOVED_IN_7_0 = {
    "verifier": (
        "the section is gone, verification always runs VF2 in the C kernel; drop it"
    ),
    "algorithm": "VF2 is the only matching algorithm, drop the key",
    "induced": "verification is non-induced only, drop the key",
    "kernel": "the C kernel is the only verification kernel, drop the key",
}


#: the batch executor knobs 8.0 removed with its overlapped planning
_REMOVED_IN_8_0 = ("pipeline", "chunk_size")

#: the keys 11.0 removed with the in-memory delta log -> what now
_REMOVED_IN_11_0 = {
    "compact_threshold": (
        "shard.compact_threshold: the in-memory delta log is gone (a window "
        "flush updates the replicas directly), drop the key"
    ),
    "follow": "persist.follow: followers are gone, drop the key",
}


def _removed_hint(key: str) -> str | None:
    """What to write instead of a removed name (``None`` = never valid)."""
    if key == "precheck" or key.endswith("compiled"):
        # the verifier A/B switches: ``compiled`` and its ``igq_`` twin
        return (
            f"removed in 2.0 — {key}: verification always runs in the C kernel "
            "(13.0 removed the Verifier's own switch too), drop the key"
        )
    if key in _MOVED_IN_2_0:
        return f"removed in 2.0 — {key}: use {_MOVED_IN_2_0[key]}"
    if key in _HOT_KEY_FIELDS:
        return f"removed in 4.0 — {key}: hot-key placement is gone, drop the key"
    if key == "backend":
        return (
            "removed in 6.0 — batch.backend: verification runs on a thread pool "
            "when batch.num_workers > 1 and in-process otherwise, drop the key"
        )
    if key in _REMOVED_IN_7_0:
        return f"removed in 7.0 — {key}: {_REMOVED_IN_7_0[key]}"
    if key in _REMOVED_IN_8_0:
        return (
            f"removed in 8.0 — batch.{key}: verification fans out evenly over the "
            "thread pool when batch.num_workers > 1, drop the key"
        )
    if key in _REMOVED_IN_11_0:
        return f"removed in 11.0 — {_REMOVED_IN_11_0[key]}"
    return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_choice(section: str, name: str, value: Any, choices: tuple) -> None:
    _require(
        value in choices,
        f"{section}.{name}={value!r} is not valid; expected one of {choices}",
    )


def _require_positive_int(section: str, name: str, value: Any) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 1,
        f"{section}.{name}={value!r} is not valid; expected an integer >= 1",
    )


def _require_bool(section: str, name: str, value: Any) -> None:
    _require(
        isinstance(value, bool),
        f"{section}.{name}={value!r} is not valid; expected a bool",
    )


def _require_positive_number(section: str, name: str, value: Any) -> None:
    _require(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0,
        f"{section}.{name}={value!r} is not valid; expected a number > 0",
    )


def _from_dict(cls, data: Any, section: str):
    """Build a config dataclass from a (possibly partial) plain dict."""
    if isinstance(data, cls):
        return data
    _require(
        isinstance(data, dict),
        f"{section} must be a mapping or {cls.__name__}, got {type(data).__name__}",
    )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    removed = list(filter(None, map(_removed_hint, unknown)))
    for key in unknown:
        # a removed section's keys say what became of them too
        if isinstance(data[key], dict):
            removed += filter(None, map(_removed_hint, data[key]))
    _require(
        not unknown,
        f"{section} has unknown key(s) {unknown}; valid keys are {sorted(known)}"
        + (f" ({'; '.join(removed)})" if removed else ""),
    )
    return cls(**data)


@dataclass(frozen=True)
class CacheConfig:
    """The iGQ query cache: capacity ``C``, window ``W``, replacement policy."""

    #: maximum number of cached query graphs (the paper's ``C``)
    size: int = 500
    #: query-window size (the paper's ``W``, with ``W <= C``)
    window: int = 100
    #: replacement policy name (``"utility"`` | ``"hit_rate"`` | ``"fifo"``)
    policy: str = "utility"

    def __post_init__(self) -> None:
        _require_positive_int("cache", "size", self.size)
        _require_positive_int("cache", "window", self.window)
        _require(
            self.window <= self.size,
            f"cache.window={self.window} cannot exceed cache.size={self.size} "
            "(the paper requires W <= C)",
        )
        _require_choice("cache", "policy", self.policy, _POLICIES)


@dataclass(frozen=True)
class BatchConfig:
    """How :meth:`IGQ.execute <repro.core.engine.IGQ.execute>` runs a
    query: verification thread pool and feature memo."""

    #: thread-pool size for the verification stage (1 = in-process, no pool;
    #: more split each query's candidates evenly over the workers)
    num_workers: int = 1
    #: memoise query preparation (flattening and feature extraction) across
    #: the engine's queries (:meth:`IGQ.prepare <repro.core.engine.IGQ.prepare>`)
    memoize_features: bool = True

    def __post_init__(self) -> None:
        _require_positive_int("batch", "num_workers", self.num_workers)
        _require_bool("batch", "memoize_features", self.memoize_features)


@dataclass(frozen=True)
class ShardConfig:
    """The sharded query index (cache partitions, one replica each).

    Every entry lives on the one shard its feature counts hash to.  The
    hot-key placement knobs of 3.x (``hot_threshold``,
    ``rebalance_interval``, ``replication_factor``) are still accepted as
    constructor arguments for one release: passing one warns and does
    nothing — it is not stored, serialised or compared.
    """

    #: number of cache partitions (1 = one inline replica holds the index)
    shards: int = 1
    #: shard runtime (``"auto"`` | ``"inline"``); both mean in-process
    #: replicas (process shards were removed in 6.0)
    backend: str = "auto"
    hot_threshold: InitVar[int | None] = None
    rebalance_interval: InitVar[int | None] = None
    replication_factor: InitVar[int | None] = None

    def __post_init__(self, *hot_key_values) -> None:
        _require_positive_int("shard", "shards", self.shards)
        _require(
            self.backend != "process",
            "shard.backend='process' was removed in 6.0: process shards are "
            'gone, every replica lives in the engine process; use "inline"',
        )
        _require_choice("shard", "backend", self.backend, _SHARD_BACKENDS)
        passed = [
            name for name, value in zip(_HOT_KEY_FIELDS, hot_key_values) if value is not None
        ]
        if passed:
            warnings.warn(
                f"ShardConfig ignores {', '.join(passed)}: hot-key placement "
                "was removed in 4.0 (every entry lives on its feature-hash "
                "shard)",
                DeprecationWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class TenantConfig:
    """QoS envelope of one named tenant at the service front door.

    Tenants are the unit of fairness: the service scheduler keeps one queue
    per tenant and dispatches across them with deficit round-robin weighted
    by :attr:`weight`, so one tenant's backlog can never starve another's
    queries.  Sessions opened on the embedded
    :class:`~repro.service.GraphQueryService` and ``tenant`` names sent over
    the wire protocol both resolve to these entries (unnamed traffic runs
    under the ``"default"`` tenant with the :class:`ServiceConfig`
    defaults).
    """

    #: tenant name (what sessions and wire requests carry)
    name: str = ""
    #: deficit-round-robin weight: per dispatch round a tenant gets up to
    #: ``weight`` queries before the scheduler moves on
    weight: int = 1
    #: admission quota — maximum submitted-but-unresolved queries; further
    #: submissions block (embedded API) or are rejected (network front
    #: door).  ``None`` uses ``service.default_max_in_flight``
    max_in_flight: int | None = None
    #: token-bucket rate limit in queries/second (``None`` = unlimited);
    #: over-rate queries stay queued and dispatch when tokens refill
    rate_limit: float | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and self.name,
            f"service.tenants.name={self.name!r} is not valid; expected a "
            "non-empty string",
        )
        _require_positive_int("service.tenants", "weight", self.weight)
        if self.max_in_flight is not None:
            _require_positive_int("service.tenants", "max_in_flight", self.max_in_flight)
        if self.rate_limit is not None:
            _require_positive_number("service.tenants", "rate_limit", self.rate_limit)
            object.__setattr__(self, "rate_limit", float(self.rate_limit))


@dataclass(frozen=True)
class ServiceConfig:
    """The service front door: tenant QoS defaults and per-tenant overrides."""

    #: fairness weight of tenants without an explicit :class:`TenantConfig`
    default_weight: int = 1
    #: admission quota of tenants without an explicit ``max_in_flight``
    default_max_in_flight: int = 32
    #: default per-query timeout in seconds (``None`` = no timeout); a
    #: query that expires before dispatch is dropped unexecuted, one that
    #: expires after dispatch fails its future but still completes in the
    #: engine (cache state is never left half-updated)
    default_timeout_seconds: float | None = None
    #: per-tenant QoS overrides (any tenant not listed uses the defaults)
    tenants: tuple = ()

    def __post_init__(self) -> None:
        _require_positive_int("service", "default_weight", self.default_weight)
        _require_positive_int("service", "default_max_in_flight", self.default_max_in_flight)
        if self.default_timeout_seconds is not None:
            _require_positive_number(
                "service", "default_timeout_seconds", self.default_timeout_seconds
            )
            object.__setattr__(
                self, "default_timeout_seconds", float(self.default_timeout_seconds)
            )
        _require(
            isinstance(self.tenants, (tuple, list)),
            f"service.tenants={self.tenants!r} is not valid; expected a "
            "sequence of TenantConfig entries (or their dict forms)",
        )
        coerced = tuple(
            _from_dict(TenantConfig, entry, "service.tenants") for entry in self.tenants
        )
        names = [entry.name for entry in coerced]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        _require(
            not duplicates,
            f"service.tenants has duplicate tenant name(s) {duplicates}; "
            "each tenant may be configured once",
        )
        object.__setattr__(self, "tenants", coerced)

    def tenant(self, name: str) -> TenantConfig:
        """The effective :class:`TenantConfig` for ``name`` (defaults filled)."""
        for entry in self.tenants:
            if entry.name == name:
                if entry.max_in_flight is None:
                    return TenantConfig(
                        name=entry.name,
                        weight=entry.weight,
                        max_in_flight=self.default_max_in_flight,
                        rate_limit=entry.rate_limit,
                    )
                return entry
        return TenantConfig(
            name=name,
            weight=self.default_weight,
            max_in_flight=self.default_max_in_flight,
        )


@dataclass(frozen=True)
class PersistConfig:
    """Durable cache state: the WAL + snapshot store of :mod:`repro.persist`.

    Persistence is off by default (``dir=None``): the engine then behaves
    exactly as before, keeping all cache state in memory.  Setting ``dir``
    turns every window flush into a durable WAL batch and warm-starts the
    engine from disk on the next open with the same directory.
    """

    #: WAL/snapshot directory (``None`` = persistence off).  Each engine
    #: needs its own directory; segments and snapshots inside it are
    #: managed by the persister.
    dir: str | None = None
    #: fsync discipline: ``"flush"`` (default) fsyncs once per window flush
    #: — a crash loses at most the un-flushed window; ``"never"`` leaves
    #: flushing to the OS (fastest, weakest — survives process crash but
    #: not power loss); ``"always"`` is a deprecated alias of ``"flush"``
    #: (a flush is one WAL record since 5.0)
    fsync: str = "flush"
    #: write a snapshot of the live cache and rotate the WAL segment once this many
    #: records have accumulated since the last snapshot
    snapshot_interval: int = 256

    def __post_init__(self) -> None:
        if self.dir is not None:
            _require(
                isinstance(self.dir, str) and self.dir,
                f"persist.dir={self.dir!r} is not valid; expected a non-empty "
                "path string (or None to disable persistence)",
            )
        _require_choice("persist", "fsync", self.fsync, _FSYNC_MODES)
        if self.fsync == "always":
            warnings.warn(
                'persist.fsync="always" now means "flush": since 5.0 a window '
                "flush is one WAL record with one fsync",
                DeprecationWarning,
                stacklevel=3,
            )
        _require_positive_int("persist", "snapshot_interval", self.snapshot_interval)

    @property
    def enabled(self) -> bool:
        """True when a durable directory is configured."""
        return self.dir is not None


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to construct (and drive) an iGQ engine.

    Build one, pass it to :class:`repro.core.engine.IGQ` or
    :class:`repro.service.GraphQueryService`; store it next to experiment
    results via :meth:`to_dict`.
    """

    #: query type the engine serves; ``"mixed"`` engines dispatch per query
    mode: str = "subgraph"
    #: enable the ``Isub`` component (cached supergraphs of the new query)
    enable_isub: bool = True
    #: enable the ``Isuper`` component (cached subgraphs of the new query)
    enable_isuper: bool = True
    cache: CacheConfig = field(default_factory=CacheConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    shard: ShardConfig = field(default_factory=ShardConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    persist: PersistConfig = field(default_factory=PersistConfig)

    def __post_init__(self) -> None:
        _require_choice("engine", "mode", self.mode, MODES)
        _require_bool("engine", "enable_isub", self.enable_isub)
        _require_bool("engine", "enable_isuper", self.enable_isuper)
        _require(
            self.enable_isub or self.enable_isuper,
            "engine.enable_isub and engine.enable_isuper cannot both be False; "
            "at least one iGQ component must stay enabled",
        )
        # Sections may arrive as plain dicts (from_dict, JSON configs);
        # coerce them so every EngineConfig holds validated sub-configs.
        for section, section_cls in _SECTIONS.items():
            value = getattr(self, section)
            if isinstance(value, dict):
                object.__setattr__(self, section, _from_dict(section_cls, value, section))
            else:
                _require(
                    isinstance(value, section_cls),
                    f"engine.{section} must be a {section_cls.__name__} (or a "
                    f"mapping of its fields), got {type(value).__name__}",
                )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain nested-dict form (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output (partial dicts fill
        in defaults; unknown keys raise :class:`ConfigError`)."""
        return _from_dict(cls, data, "engine")

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "EngineConfig":
        """A copy with top-level fields replaced (``dataclasses.replace``)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def describe(self) -> str:
        """One-line human summary (used by reprs and service reports)."""
        parts = [f"mode={self.mode}", f"cache={self.cache.size}/{self.cache.window}"]
        if self.shard.shards > 1:
            parts.append(f"shards={self.shard.shards}")
        if self.batch.num_workers > 1:
            parts.append(f"workers={self.batch.num_workers}")
        return " ".join(parts)


#: section name -> dataclass, used when sections arrive as plain dicts
_SECTIONS = {
    "cache": CacheConfig,
    "batch": BatchConfig,
    "shard": ShardConfig,
    "service": ServiceConfig,
    "persist": PersistConfig,
}
