"""iGQ core: query cache, component indexes, replacement policy, engine."""

from .batch import FeatureMemo
from .cache import CacheEntry, QueryCache
from .config import (
    BatchConfig,
    CacheConfig,
    ConfigError,
    EngineConfig,
    ServiceConfig,
    ShardConfig,
    TenantConfig,
)
from .containment import ContainmentIndex
from .engine import IGQ, IGQQueryResult, QueryPlan
from .isub import SubgraphQueryIndex
from .isuper import SupergraphQueryIndex
from .maintenance import IndexMaintenance, MaintenanceReport, PendingQuery
from .replacement import (
    HitRateReplacementPolicy,
    LeastRecentlyAddedPolicy,
    ReplacementPolicy,
    UtilityReplacementPolicy,
    create_policy,
)
from .shard import QueryIndexShard

__all__ = [
    "IGQ",
    "IGQQueryResult",
    "QueryPlan",
    "EngineConfig",
    "CacheConfig",
    "BatchConfig",
    "ShardConfig",
    "ServiceConfig",
    "TenantConfig",
    "ConfigError",
    "QueryIndexShard",
    "FeatureMemo",
    "CacheEntry",
    "QueryCache",
    "ContainmentIndex",
    "SubgraphQueryIndex",
    "SupergraphQueryIndex",
    "IndexMaintenance",
    "MaintenanceReport",
    "PendingQuery",
    "ReplacementPolicy",
    "UtilityReplacementPolicy",
    "HitRateReplacementPolicy",
    "LeastRecentlyAddedPolicy",
    "create_policy",
]
