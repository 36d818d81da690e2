"""iGQ reproduction: indexing query graphs to speed up graph query processing.

This package reproduces the system described in

    Jing Wang, Nikos Ntarmos, Peter Triantafillou.
    "Indexing Query Graphs to Speedup Graph Query Processing", EDBT 2016.

Public API overview
-------------------

* :mod:`repro.graphs` — the labeled-graph substrate (graphs, databases, I/O).
* :mod:`repro.isomorphism` — VF2 subgraph isomorphism in the C kernel,
  which runs every verification and serves the embedding API
  (:func:`~repro.isomorphism.compiled.is_subgraph_isomorphic`,
  :func:`~repro.isomorphism.compiled.find_subgraph_embedding`), and the
  cost model used by iGQ's replacement policy.
* :mod:`repro.features` — path / tree / cycle feature extraction and the
  threshold-bitmap feature index.
* :mod:`repro.methods` — the filter-then-verify base methods: GraphGrepSX,
  Grapes, CT-Index (plus a scan baseline).
* :mod:`repro.core` — iGQ itself: the query cache, the Isub and Isuper
  component indexes, the utility-based replacement policy and the
  :class:`~repro.core.engine.IGQ` engine that wraps any base method.
* :mod:`repro.datasets` / :mod:`repro.workloads` — synthetic stand-ins for
  the paper's datasets and the four query workloads.
* :mod:`repro.experiments` — drivers that regenerate every figure of the
  paper's evaluation.

* :mod:`repro.service` — :class:`~repro.service.GraphQueryService`, the
  session façade that owns engine lifecycle and is the intended public
  entry point for applications; :func:`~repro.service.server.serve` /
  :func:`~repro.service.client.connect` expose and reach it over a
  versioned JSON wire protocol with per-tenant QoS.

Quickstart
----------

>>> from repro import CacheConfig, EngineConfig, GraphQueryService
>>> from repro import create_method, load_dataset, QueryGenerator, WorkloadSpec
>>> database = load_dataset("aids", scale=0.2)
>>> config = EngineConfig(cache=CacheConfig(size=50, window=10))
>>> queries = QueryGenerator(database, WorkloadSpec(name="zipf-zipf",
...     graph_distribution="zipf", node_distribution="zipf")).generate(20)
>>> with GraphQueryService(create_method("ggsx"), config, database=database) as service:
...     results = service.run(queries)
"""

from .core.config import (
    BatchConfig,
    CacheConfig,
    ConfigError,
    EngineConfig,
    PersistConfig,
    ServiceConfig,
    ShardConfig,
    TenantConfig,
)
from .core.engine import IGQ, IGQQueryResult
from .datasets.registry import available_datasets, load_dataset
from .graphs.database import GraphDatabase
from .graphs.graph import GraphError, LabeledGraph
from .isomorphism.verifier import Verifier
from .isomorphism.compiled import is_subgraph_isomorphic
from .methods import available_methods, create_method
from .methods.base import QueryResult, SubgraphQueryMethod
from .service import (
    AdmissionError,
    GraphQueryService,
    QueryTimeout,
    ServiceClosed,
    ServiceReport,
    ServiceSession,
    SessionStats,
)
from .service.client import ServiceClient, connect
from .service.server import ServiceServer, serve
from .workloads.generator import QueryGenerator, WorkloadSpec, standard_workloads

__version__ = "20.0.0"

__all__ = [
    "IGQ",
    "IGQQueryResult",
    "EngineConfig",
    "CacheConfig",
    "BatchConfig",
    "ShardConfig",
    "ServiceConfig",
    "TenantConfig",
    "PersistConfig",
    "ConfigError",
    "GraphQueryService",
    "ServiceClosed",
    "QueryTimeout",
    "AdmissionError",
    "ServiceReport",
    "ServiceSession",
    "SessionStats",
    "ServiceServer",
    "ServiceClient",
    "serve",
    "connect",
    "GraphDatabase",
    "GraphError",
    "LabeledGraph",
    "QueryGenerator",
    "QueryResult",
    "SubgraphQueryMethod",
    "Verifier",
    "WorkloadSpec",
    "available_datasets",
    "available_methods",
    "create_method",
    "is_subgraph_isomorphic",
    "load_dataset",
    "standard_workloads",
    "__version__",
]
