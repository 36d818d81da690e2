"""Versioned JSON wire protocol of the graph-query service.

Everything the network front door (:mod:`repro.service.server`) and the
client (:mod:`repro.service.client`) exchange is defined here, so the wire
format has exactly one source of truth:

* **Graphs** — :func:`graph_to_dict` / :func:`graph_from_dict` serialise a
  :class:`~repro.graphs.graph.LabeledGraph` losslessly (vertex order,
  labels, optional edge labels); the round-trip preserves structural
  equality *and* vertex iteration order, which downstream planning relies
  on for determinism.
* **Envelopes** — every request and response carries
  :data:`PROTOCOL_VERSION`; :func:`decode_request` /
  :func:`decode_response` reject any other version with a typed
  :class:`ProtocolError` instead of mis-parsing a future format.
* **Results** — :func:`result_to_dict` / :func:`result_from_dict` carry
  what the byte-identity gates compare: the answers and the scalar iGQ
  counters of an :class:`~repro.core.engine.IGQQueryResult`.  Since
  version 2 the candidate-level sets (``candidates``,
  ``guaranteed_answers``, ``pruned_candidates``) are not sent; they stay
  on the embedded result, and the service-wide totals are in ``stats``.
* **Errors** — :func:`error_to_dict` maps service exceptions onto typed
  payloads ``{"code", "message", "field"}``, reusing the
  :class:`~repro.core.config.ConfigError` convention of naming the
  offending field in the message.

Framing is newline-delimited JSON (one compact JSON document per line,
UTF-8): :func:`encode_frame` / :func:`decode_frame`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..core.config import ConfigError
from ..core.engine import IGQQueryResult
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "Response",
    "graph_to_dict",
    "graph_from_dict",
    "result_to_dict",
    "result_from_dict",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "error_to_dict",
    "encode_frame",
    "decode_frame",
]

#: wire protocol version; bumped on any incompatible change to the schema
PROTOCOL_VERSION = 2

#: operations a request may carry — ``log_since`` streams the engine's
#: delta-log tail to remote followers (:mod:`repro.persist.replicate`)
OPS = ("ping", "query", "stats", "log_since")


class ProtocolError(ValueError):
    """A malformed or version-incompatible wire payload.

    Carries a machine-readable ``code`` and, when the problem is tied to a
    specific payload field, its dotted ``field`` path — the same naming
    convention :class:`~repro.core.config.ConfigError` uses for
    configuration fields.
    """

    def __init__(self, message: str, *, code: str = "protocol_error",
                 field: str | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.field = field


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def graph_to_dict(graph: LabeledGraph) -> dict:
    """Serialise a labeled graph to its wire form.

    Vertices are emitted in iteration order as ``[id, label]`` pairs and
    edges as ``[u, v, label]`` triples (``label`` is ``null`` for the
    unlabeled edges the paper's datasets use).  Ids and labels must be
    JSON-representable (ints and strings in every shipped dataset).
    """
    return {
        "name": graph.name,
        "vertices": [[vertex, graph.label(vertex)] for vertex in graph.vertices()],
        "edges": [[u, v, graph.edge_label(u, v)] for u, v in graph.edges()],
    }


def _invalid_graph(message: str, field: str) -> ProtocolError:
    return ProtocolError(message, code="invalid_graph", field=field)


def graph_from_dict(data: Any, *, field: str = "graph") -> LabeledGraph:
    """Rebuild a :func:`graph_to_dict` payload into a :class:`LabeledGraph`.

    The reconstruction preserves vertex insertion order, so a round-tripped
    graph is structurally equal to the original *and* plans identically.
    Malformed payloads raise :class:`ProtocolError` naming the offending
    field; the message is only formatted once a check has failed, so a
    valid graph pays for no ``repr`` of its vertices and edges.
    """
    if not isinstance(data, dict):
        raise _invalid_graph(
            f"{field}={data!r} is not valid; expected a graph object", field
        )
    name = data.get("name")
    if not (name is None or isinstance(name, str)):
        raise _invalid_graph(
            f"{field}.name={name!r} is not valid; expected a string or null",
            f"{field}.name",
        )
    vertices = data.get("vertices")
    if not isinstance(vertices, list):
        raise _invalid_graph(
            f"{field}.vertices is not valid; expected a list of [id, label] pairs",
            f"{field}.vertices",
        )
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise _invalid_graph(
            f"{field}.edges is not valid; expected a list of [u, v, label] triples",
            f"{field}.edges",
        )
    unknown = sorted(set(data) - {"name", "vertices", "edges"})
    if unknown:
        raise _invalid_graph(
            f"{field} has unknown key(s) {unknown}; valid keys are "
            "['edges', 'name', 'vertices']",
            field,
        )
    graph = LabeledGraph(name=name)
    for index, pair in enumerate(vertices):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise _invalid_graph(
                f"{field}.vertices[{index}]={pair!r} is not valid; expected "
                "an [id, label] pair",
                f"{field}.vertices[{index}]",
            )
        vertex, label = pair
        if graph.has_vertex(vertex):
            raise _invalid_graph(
                f"{field}.vertices[{index}] repeats vertex id {vertex!r}",
                f"{field}.vertices[{index}]",
            )
        graph.add_vertex(vertex, label)
    for index, triple in enumerate(edges):
        if not (isinstance(triple, (list, tuple)) and len(triple) in (2, 3)):
            raise _invalid_graph(
                f"{field}.edges[{index}]={triple!r} is not valid; expected "
                "a [u, v, label] triple",
                f"{field}.edges[{index}]",
            )
        u, v = triple[0], triple[1]
        label = triple[2] if len(triple) == 3 else None
        if not (graph.has_vertex(u) and graph.has_vertex(v) and u != v
                and not graph.has_edge(u, v)):
            raise _invalid_graph(
                f"{field}.edges[{index}]=[{u!r}, {v!r}] is not valid; edges "
                "must connect two distinct declared vertices exactly once",
                f"{field}.edges[{index}]",
            )
        graph.add_edge(u, v, label)
    return graph


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _wire_ids(values) -> list:
    """Deterministic JSON ordering for a set of dataset-graph ids.

    An engine result's :class:`~repro.graphs.bitset.CandidateBitmap` lists
    its ids in :class:`~repro.graphs.bitset.GraphIdSpace` position order,
    which is already deterministic; any other set is sorted by ``repr``.
    """
    if isinstance(values, CandidateBitmap):
        return values.space.to_ids(values.mask)
    return sorted(values, key=repr)


def result_to_dict(result) -> dict:
    """Serialise a query result (plain or iGQ-enriched) to its wire form.

    The wire carries the answers and the scalar §4 counters only; the
    candidate-level sets (``candidates``, ``guaranteed_answers``,
    ``pruned_candidates``) stay with embedded callers.
    """
    return {
        "query_name": result.query_name,
        "answers": _wire_ids(result.answers),
        "num_isomorphism_tests": result.num_isomorphism_tests,
        "num_sub_hits": getattr(result, "num_sub_hits", 0),
        "num_super_hits": getattr(result, "num_super_hits", 0),
        "exact_hit": bool(getattr(result, "exact_hit", False)),
        "verification_skipped": bool(getattr(result, "verification_skipped", False)),
        "filter_seconds": result.filter_seconds,
        "igq_seconds": result.igq_seconds,
        "verify_seconds": result.verify_seconds,
    }


_RESULT_KEYS = {
    "query_name", "answers", "num_isomorphism_tests", "num_sub_hits",
    "num_super_hits", "exact_hit", "verification_skipped",
    "filter_seconds", "igq_seconds", "verify_seconds",
}


def result_from_dict(data: Any, *, field: str = "result") -> IGQQueryResult:
    """Rebuild a :func:`result_to_dict` payload into an :class:`IGQQueryResult`.

    The answers and counters are restored; the candidate-level sets keep
    their empty defaults.
    """
    if not isinstance(data, dict):
        raise ProtocolError(
            f"{field}={data!r} is not valid; expected a result object",
            code="invalid_result", field=field,
        )
    unknown = sorted(set(data) - _RESULT_KEYS)
    if unknown:
        raise ProtocolError(
            f"{field} has unknown key(s) {unknown}",
            code="invalid_result", field=field,
        )
    try:
        return IGQQueryResult(
            query_name=data.get("query_name"),
            answers=set(data.get("answers", ())),
            num_isomorphism_tests=int(data.get("num_isomorphism_tests", 0)),
            num_sub_hits=int(data.get("num_sub_hits", 0)),
            num_super_hits=int(data.get("num_super_hits", 0)),
            exact_hit=bool(data.get("exact_hit", False)),
            verification_skipped=bool(data.get("verification_skipped", False)),
            filter_seconds=float(data.get("filter_seconds", 0.0)),
            igq_seconds=float(data.get("igq_seconds", 0.0)),
            verify_seconds=float(data.get("verify_seconds", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"{field} is not valid: {exc}", code="invalid_result", field=field
        ) from None


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """A decoded request envelope."""

    op: str
    request_id: int
    tenant: str
    payload: dict


@dataclass(frozen=True)
class Response:
    """A decoded response envelope (``result`` xor ``error`` is set)."""

    request_id: int | None
    result: dict | None
    error: dict | None

    @property
    def ok(self) -> bool:
        """True when the request succeeded."""
        return self.error is None


def encode_request(op: str, *, request_id: int, tenant: str = "default",
                   payload: dict | None = None) -> dict:
    """Build a request envelope (the client side of the wire)."""
    return {
        "protocol_version": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "tenant": tenant,
        "payload": payload or {},
    }


def _check_version(data: dict, field: str) -> None:
    version = data.get("protocol_version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{field}.protocol_version={version!r} is not supported; this "
            f"endpoint speaks version {PROTOCOL_VERSION}",
            code="unsupported_version", field=f"{field}.protocol_version",
        )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def decode_request(data: Any) -> Request:
    """Validate and decode a request envelope (the server side)."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request={data!r} is not valid; expected a JSON object",
            code="invalid_request", field="request",
        )
    _check_version(data, "request")
    op = data.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"request.op={op!r} is not valid; expected one of {OPS}",
            code="invalid_request", field="request.op",
        )
    request_id = data.get("id")
    if not _is_int(request_id):
        raise ProtocolError(
            f"request.id={request_id!r} is not valid; expected an integer",
            code="invalid_request", field="request.id",
        )
    tenant = data.get("tenant", "default")
    if not (isinstance(tenant, str) and tenant):
        raise ProtocolError(
            f"request.tenant={tenant!r} is not valid; expected a non-empty string",
            code="invalid_request", field="request.tenant",
        )
    payload = data.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request.payload={payload!r} is not valid; expected an object",
            code="invalid_request", field="request.payload",
        )
    return Request(op=op, request_id=request_id, tenant=tenant, payload=payload)


def encode_response(request_id: int | None, *, result: dict | None = None,
                    error: dict | None = None) -> dict:
    """Build a response envelope (exactly one of ``result`` / ``error``)."""
    if (result is None) == (error is None):
        raise ValueError("a response carries exactly one of result= or error=")
    envelope: dict = {"protocol_version": PROTOCOL_VERSION, "id": request_id}
    if error is not None:
        envelope["error"] = error
    else:
        envelope["result"] = result
    return envelope


def decode_response(data: Any) -> Response:
    """Validate and decode a response envelope (the client side)."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"response={data!r} is not valid; expected a JSON object",
            code="invalid_response", field="response",
        )
    _check_version(data, "response")
    request_id = data.get("id")
    if not (request_id is None or _is_int(request_id)):
        raise ProtocolError(
            f"response.id={request_id!r} is not valid; expected an integer or null",
            code="invalid_response", field="response.id",
        )
    error = data.get("error")
    result = data.get("result")
    if (result is None) == (error is None):
        raise ProtocolError(
            "response must carry exactly one of 'result' / 'error'",
            code="invalid_response", field="response",
        )
    if error is not None and not (
        isinstance(error, dict) and isinstance(error.get("code"), str)
        and isinstance(error.get("message"), str)
    ):
        raise ProtocolError(
            f"response.error={error!r} is not valid; expected "
            "{'code', 'message', 'field'}",
            code="invalid_response", field="response.error",
        )
    return Response(request_id=request_id, result=result, error=error)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def error_to_dict(exc: BaseException) -> dict:
    """Map a service-side exception onto its typed wire payload.

    ``code`` is machine-readable (clients branch on it), ``message`` keeps
    the ConfigError-style ``section.field=value`` phrasing, and ``field``
    names the offending request field when one is known.
    """
    from .scheduler import AdmissionError
    from .service import QueryTimeout, ServiceClosed

    if isinstance(exc, ProtocolError):
        return {"code": exc.code, "message": str(exc), "field": exc.field}
    if isinstance(exc, QueryTimeout):
        return {"code": "timeout", "message": str(exc), "field": None}
    if isinstance(exc, AdmissionError):
        return {"code": "overloaded", "message": str(exc), "field": None}
    if isinstance(exc, ServiceClosed):
        return {"code": "closed", "message": str(exc), "field": None}
    if isinstance(exc, ConfigError):
        return {"code": "invalid_config", "message": str(exc), "field": None}
    if isinstance(exc, ValueError):
        return {"code": "invalid_request", "message": str(exc), "field": None}
    return {"code": "internal", "message": f"{type(exc).__name__}: {exc}", "field": None}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(envelope: dict) -> bytes:
    """One compact JSON document plus the newline terminator (UTF-8)."""
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Any:
    """Parse one received line; malformed JSON raises :class:`ProtocolError`."""
    try:
        return json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            f"frame is not valid JSON: {exc}", code="invalid_json", field=None
        ) from None
