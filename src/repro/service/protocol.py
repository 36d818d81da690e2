"""Versioned JSON wire protocol of the graph-query service.

Everything the network front door (:mod:`repro.service.server`) and the
client (:mod:`repro.service.client`) exchange is defined here, so the wire
format has exactly one source of truth:

* **Graphs** — :func:`graph_to_dict` / :func:`graph_from_dict` serialise a
  :class:`~repro.graphs.graph.LabeledGraph` as position arrays (vertex ids
  and labels in order, edges as a flat list of vertex-position pairs,
  optional edge labels); the round-trip preserves structural equality
  *and* vertex and adjacency order, which downstream planning relies on
  for determinism.
* **The id space** — a ``hello`` request, sent once per connection,
  returns :func:`id_space_to_dict`: the dataset's graph ids in the bit
  positions of the engine's :class:`~repro.graphs.bitset.GraphIdSpace`,
  and its fingerprint.  :func:`id_space_from_dict` rebuilds that space on
  the client, and every answer mask of the connection is read over it.
* **Envelopes** — every request and response carries
  :data:`PROTOCOL_VERSION`; :func:`decode_request` /
  :func:`decode_response` reject any other version with a typed
  :class:`ProtocolError` instead of mis-parsing a future format.
* **Results** — :func:`result_to_dict` / :func:`result_from_dict` carry
  what the byte-identity gates compare: the answers, as the lowercase hex
  of their mask over the id space, and the scalar iGQ counters of an
  :class:`~repro.core.engine.IGQQueryResult`.  The candidate-level sets
  (``candidates``, ``guaranteed_answers``, ``pruned_candidates``) are not
  sent; they stay on the embedded result, and the service-wide totals
  are in ``stats``.
* **Errors** — :func:`error_to_dict` maps service exceptions onto typed
  payloads ``{"code", "message", "field"}``, reusing the
  :class:`~repro.core.config.ConfigError` convention of naming the
  offending field in the message.

Framing is newline-delimited JSON (one compact JSON document per line,
UTF-8): :func:`encode_frame` / :func:`decode_frame`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Any

from ..core.config import ConfigError
from ..core.engine import IGQQueryResult
from ..graphs.bitset import CandidateBitmap, GraphIdSpace
from ..graphs.graph import LabeledGraph

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "Response",
    "graph_to_dict",
    "graph_from_dict",
    "id_space_to_dict",
    "id_space_from_dict",
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
PROTOCOL_VERSION = 3

#: operations a request may carry
OPS = ("hello", "ping", "query", "stats")


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
_GRAPH_KEYS = frozenset({"name", "ids", "labels", "edges", "edge_labels"})


def graph_to_dict(graph: LabeledGraph) -> dict:
    """Serialise a labeled graph to its wire form.

    ``ids`` and ``labels`` list the vertices and their labels in iteration
    order.  ``edges`` is one flat list of vertex-position pairs ``p, q``
    with ``p < q``, in the order :meth:`LabeledGraph.edges` reports the
    edges, read off the adjacency without building that iterator's
    per-edge sets.  ``edge_labels`` lists the edges' labels in the same
    order, or is ``null`` when no edge has one (the paper's datasets).
    Ids and labels must be JSON-representable (ints and strings in every
    shipped dataset).
    """
    labels = graph._labels
    position = {vertex: index for index, vertex in enumerate(labels)}
    edges: list[int] = []
    edge_labels: list = []
    for p, neighbours in enumerate(graph._adjacency.values()):
        for neighbour, label in neighbours.items():
            q = position[neighbour]
            if p < q:
                edges += (p, q)
                edge_labels.append(label)
    return {
        "name": graph.name,
        "ids": list(labels),
        "labels": list(labels.values()),
        "edges": edges,
        "edge_labels": (
            edge_labels if any(label is not None for label in edge_labels) else None
        ),
    }


def _invalid_graph(message: str, field: str) -> ProtocolError:
    return ProtocolError(message, code="invalid_graph", field=field)


def _first_unhashable(values: list) -> int:
    for index, value in enumerate(values):
        try:
            hash(value)
        except TypeError:
            return index
    raise AssertionError("every value is hashable")


def _edge_defect(edges: list, field: str) -> ProtocolError:
    """The error naming the first edge that is a loop or a repeat."""
    seen: set = set()
    for index in range(0, len(edges), 2):
        p, q = edges[index], edges[index + 1]
        pair = (p, q) if p < q else (q, p)
        if p == q or pair in seen:
            return _invalid_graph(
                f"{field}.edges[{index}:{index + 2}]=[{p}, {q}] is not valid; "
                "an edge must join two distinct vertices and appear once",
                f"{field}.edges[{index}]",
            )
        seen.add(pair)
    raise AssertionError("no edge is a loop or a repeat")


def graph_from_dict(data: Any, *, field: str = "graph") -> LabeledGraph:
    """Rebuild a :func:`graph_to_dict` payload into a :class:`LabeledGraph`.

    The graph is built from its state (:meth:`LabeledGraph.from_state`):
    its vertex order is ``ids`` and every adjacency lists the neighbours
    in the order of ``edges``, which is the order a graph rebuilt edge by
    edge has, so a round-tripped graph is structurally equal to the
    original *and* plans identically.  Malformed payloads raise
    :class:`ProtocolError` naming the offending field; the checks run
    over whole lists, and an error's message is only formatted once one
    has failed, so a valid graph pays for no ``repr`` of its parts.
    """
    if not isinstance(data, dict):
        raise _invalid_graph(
            f"{field}={data!r} is not valid; expected a graph object", field
        )
    unknown = data.keys() - _GRAPH_KEYS
    if unknown:
        raise _invalid_graph(
            f"{field} has unknown key(s) {sorted(unknown, key=repr)}; valid keys "
            f"are {sorted(_GRAPH_KEYS)}",
            field,
        )
    name = data.get("name")
    if not (name is None or isinstance(name, str)):
        raise _invalid_graph(
            f"{field}.name={name!r} is not valid; expected a string or null",
            f"{field}.name",
        )
    ids = data.get("ids")
    if not isinstance(ids, list):
        raise _invalid_graph(
            f"{field}.ids is not valid; expected a list of vertex ids", f"{field}.ids"
        )
    labels = data.get("labels")
    if not (isinstance(labels, list) and len(labels) == len(ids)):
        raise _invalid_graph(
            f"{field}.labels is not valid; expected a list of one label per "
            f"vertex id ({len(ids)})",
            f"{field}.labels",
        )
    edges = data.get("edges")
    if not (isinstance(edges, list) and len(edges) % 2 == 0):
        raise _invalid_graph(
            f"{field}.edges is not valid; expected a flat list of "
            "vertex-position pairs",
            f"{field}.edges",
        )
    edge_labels = data.get("edge_labels")
    if not (edge_labels is None or (
        isinstance(edge_labels, list) and 2 * len(edge_labels) == len(edges)
    )):
        raise _invalid_graph(
            f"{field}.edge_labels is not valid; expected null or one label per "
            f"edge ({len(edges) // 2})",
            f"{field}.edge_labels",
        )
    try:
        label_of = dict(zip(ids, labels))
    except TypeError:
        index = _first_unhashable(ids)
        raise _invalid_graph(
            f"{field}.ids[{index}]={ids[index]!r} is not valid; a vertex id "
            "must be hashable",
            f"{field}.ids[{index}]",
        ) from None
    count = len(ids)
    if len(label_of) != count:
        seen: set = set()
        for index, vertex in enumerate(ids):
            if vertex in seen:
                break
            seen.add(vertex)
        raise _invalid_graph(
            f"{field}.ids[{index}] repeats vertex id {ids[index]!r}",
            f"{field}.ids[{index}]",
        )
    if edges and not (
        set(map(type, edges)) <= {int} and min(edges) >= 0 and max(edges) < count
    ):
        index = next(
            i for i, end in enumerate(edges) if not (type(end) is int and 0 <= end < count)
        )
        raise _invalid_graph(
            f"{field}.edges[{index}]={edges[index]!r} is not valid; expected a "
            f"vertex position in [0, {count})",
            f"{field}.edges[{index}]",
        )
    adjacency: dict = {vertex: {} for vertex in ids}
    ends = iter(edges)
    for (p, q), label in zip(zip(ends, ends), edge_labels or repeat(None)):
        u, v = ids[p], ids[q]
        adjacency[u][v] = label
        adjacency[v][u] = label
    num_edges = len(edges) // 2
    # a loop adds one adjacency item instead of two, a repeat none
    if sum(map(len, adjacency.values())) != 2 * num_edges:
        raise _edge_defect(edges, field)
    try:
        return LabeledGraph.from_state((name, label_of, adjacency, num_edges))
    except TypeError:
        index = _first_unhashable(labels)
        raise _invalid_graph(
            f"{field}.labels[{index}]={labels[index]!r} is not valid; a label "
            "must be hashable",
            f"{field}.labels[{index}]",
        ) from None


# ----------------------------------------------------------------------
# The id space
# ----------------------------------------------------------------------
def id_space_to_dict(space: GraphIdSpace) -> dict:
    """The ``hello`` reply: the dataset's graph ids in bit-position order
    and the space's fingerprint."""
    return {"id_space": space.fingerprint(), "ids": list(space.ids)}


def id_space_from_dict(data: Any, *, field: str = "hello") -> GraphIdSpace:
    """Rebuild the :class:`GraphIdSpace` a ``hello`` reply describes.

    The rebuilt space must reproduce the fingerprint the server sent: ids
    that JSON does not carry unchanged (tuples, say) are refused here
    instead of giving answer masks another meaning.
    """
    if not (isinstance(data, dict) and data.keys() == {"id_space", "ids"}):
        raise ProtocolError(
            f"{field}={data!r} is not valid; expected {{'id_space', 'ids'}}",
            code="invalid_response", field=field,
        )
    ids = data["ids"]
    try:
        if not isinstance(ids, list):
            raise TypeError
        space = GraphIdSpace(ids)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"{field}.ids is not valid; expected a list of unique graph ids",
            code="invalid_response", field=f"{field}.ids",
        ) from None
    if space.fingerprint() != data["id_space"]:
        raise ProtocolError(
            f"{field}.id_space={data['id_space']!r} does not match its ids "
            f"(they give {space.fingerprint()!r})",
            code="invalid_response", field=f"{field}.id_space",
        )
    return space


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: a result's scalar counters: the check each value passes, and its type
_COUNTERS = {
    "num_isomorphism_tests": (_is_int, "an integer"),
    "num_sub_hits": (_is_int, "an integer"),
    "num_super_hits": (_is_int, "an integer"),
    "exact_hit": (lambda value: isinstance(value, bool), "a boolean"),
    "verification_skipped": (lambda value: isinstance(value, bool), "a boolean"),
    "filter_seconds": (_is_number, "a number"),
    "igq_seconds": (_is_number, "a number"),
    "verify_seconds": (_is_number, "a number"),
}
_RESULT_KEYS = frozenset(("query_name", "answers", *_COUNTERS))
_HEX = re.compile("[0-9a-f]+")


def result_to_dict(result, space: GraphIdSpace) -> dict:
    """Serialise a query result (plain or iGQ-enriched) to its wire form.

    ``answers`` is the lowercase hex of the answer mask over ``space``
    (the engine's result already holds that mask).  The wire carries the
    answers and the scalar §4 counters only; the candidate-level sets
    (``candidates``, ``guaranteed_answers``, ``pruned_candidates``) stay
    with embedded callers.
    """
    return {
        "query_name": result.query_name,
        "answers": format(space.mask_of(result.answers), "x"),
        "num_isomorphism_tests": result.num_isomorphism_tests,
        "num_sub_hits": getattr(result, "num_sub_hits", 0),
        "num_super_hits": getattr(result, "num_super_hits", 0),
        "exact_hit": bool(getattr(result, "exact_hit", False)),
        "verification_skipped": bool(getattr(result, "verification_skipped", False)),
        "filter_seconds": result.filter_seconds,
        "igq_seconds": result.igq_seconds,
        "verify_seconds": result.verify_seconds,
    }


def _invalid_result(message: str, field: str) -> ProtocolError:
    return ProtocolError(message, code="invalid_result", field=field)


def result_from_dict(data: Any, space: GraphIdSpace, *,
                     field: str = "result") -> IGQQueryResult:
    """Rebuild a :func:`result_to_dict` payload into an :class:`IGQQueryResult`.

    The answers become a :class:`CandidateBitmap` over ``space`` (the
    connection's id space), the type an embedded result's answers have;
    the counters are restored and the candidate-level sets keep their
    empty defaults.
    """
    if not isinstance(data, dict):
        raise _invalid_result(
            f"{field}={data!r} is not valid; expected a result object", field
        )
    if data.keys() != _RESULT_KEYS:
        unknown = data.keys() - _RESULT_KEYS
        if unknown:
            raise _invalid_result(
                f"{field} has unknown key(s) {sorted(unknown, key=repr)}", field
            )
        raise _invalid_result(
            f"{field} lacks key(s) {sorted(_RESULT_KEYS - data.keys())}", field
        )
    name = data["query_name"]
    if not (name is None or isinstance(name, str)):
        raise _invalid_result(
            f"{field}.query_name={name!r} is not valid; expected a string or null",
            f"{field}.query_name",
        )
    answers = data["answers"]
    if not (isinstance(answers, str) and _HEX.fullmatch(answers)):
        raise _invalid_result(
            f"{field}.answers={answers!r} is not valid; expected the lowercase "
            "hex of an answer mask",
            f"{field}.answers",
        )
    mask = int(answers, 16)
    if mask.bit_length() > len(space):
        raise _invalid_result(
            f"{field}.answers sets bit {mask.bit_length() - 1}, past the "
            f"{len(space)} graphs of the connection's id space",
            f"{field}.answers",
        )
    for key, (valid, expected) in _COUNTERS.items():
        if not valid(data[key]):
            raise _invalid_result(
                f"{field}.{key}={data[key]!r} is not valid; expected {expected}",
                f"{field}.{key}",
            )
    return IGQQueryResult(
        query_name=name,
        answers=CandidateBitmap(space, mask),
        **{key: data[key] for key in _COUNTERS},
    )


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
#: compact JSON; built once (``json.dumps`` builds an encoder per call
#: when given ``separators``)
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(envelope: dict) -> bytes:
    """One compact JSON document plus the newline terminator (UTF-8)."""
    return _encode_json(envelope).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Any:
    """Parse one received line; malformed JSON raises :class:`ProtocolError`."""
    try:
        return json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            f"frame is not valid JSON: {exc}", code="invalid_json", field=None
        ) from None
