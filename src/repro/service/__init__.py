"""Service layer: the session façade over the iGQ engine.

:class:`GraphQueryService` is the intended public entry point for
applications — one context-managed object owning engine construction
(from a typed :class:`~repro.core.config.EngineConfig`), dataset indexing,
engine lifecycle, a single ``query()`` endpoint serving subgraph *and*
supergraph queries, futures-based submission with bounded backpressure, and
structured introspection (:class:`ServiceReport`).
"""

from .client import ServiceClient, connect
from .scheduler import AdmissionError, FairScheduler
from .server import ServiceServer, serve
from .service import (
    GraphQueryService,
    QueryTimeout,
    ServiceClosed,
    ServiceReport,
    ServiceSession,
    SessionStats,
)

__all__ = [
    "GraphQueryService",
    "QueryTimeout",
    "ServiceClosed",
    "AdmissionError",
    "FairScheduler",
    "ServiceReport",
    "ServiceSession",
    "SessionStats",
    "ServiceServer",
    "ServiceClient",
    "serve",
    "connect",
]
