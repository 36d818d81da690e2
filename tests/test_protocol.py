"""Round-trip and validation tests for the versioned JSON wire protocol."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IGQ
from repro.core.config import ConfigError
from repro.core.engine import IGQQueryResult
from repro.graphs import GraphDatabase
from repro.graphs.bitset import CandidateBitmap, GraphIdSpace
from repro.graphs.graph import LabeledGraph
from repro.methods import create_method
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_request,
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
    error_to_dict,
    graph_from_dict,
    graph_to_dict,
    id_space_from_dict,
    id_space_to_dict,
    result_from_dict,
    result_to_dict,
)

from .conftest import (
    engine_config,
    labeled_graphs,
    make_clique,
    make_cycle_graph,
    make_path_graph,
)


def wire_round_trip(envelope):
    """Push a payload through the actual bytes-on-the-wire path."""
    return decode_frame(encode_frame(envelope))


@st.composite
def shuffled_graphs(draw):
    """A labeled graph with mixed int / string vertex ids, a drawn vertex
    order, edges added in a drawn order and orientation, and edge labels
    on some draws: every adjacency lists its neighbours in an order of its
    own."""
    base = draw(labeled_graphs(max_vertices=8, connected=False))

    def vertex_id(vertex):
        return vertex if vertex % 2 else f"v{vertex}"

    edge_labels = draw(st.booleans())
    graph = LabeledGraph(name=draw(st.none() | st.text(max_size=4)))
    for vertex in draw(st.permutations(list(base.vertices()))):
        graph.add_vertex(vertex_id(vertex), base.label(vertex))
    for u, v in draw(st.permutations(sorted(base.edges()))):
        if draw(st.booleans()):
            u, v = v, u
        label = draw(st.sampled_from([None, "-", "="])) if edge_labels else None
        graph.add_edge(vertex_id(u), vertex_id(v), label)
    return graph


def rebuilt_edge_by_edge(graph: LabeledGraph) -> LabeledGraph:
    """The graph version 2's decoder built: the vertices in order, then one
    ``add_edge`` per edge in :meth:`LabeledGraph.edges` order."""
    clone = LabeledGraph(name=graph.name)
    for vertex in graph.vertices():
        clone.add_vertex(vertex, graph.label(vertex))
    for u, v in graph.edges():
        clone.add_edge(u, v, graph.edge_label(u, v))
    return clone


def layout(graph: LabeledGraph) -> list:
    """Vertex order, labels, and every adjacency in its order."""
    return [
        (vertex, graph.label(vertex),
         [(neighbour, graph.edge_label(vertex, neighbour))
          for neighbour in graph.neighbors(vertex)])
        for vertex in graph.vertices()
    ]


class TestGraphRoundTrip:
    @given(shuffled_graphs())
    def test_round_trip_preserves_structure_and_order(self, graph):
        """Equal graph, equal vertex order, and the adjacency order a graph
        rebuilt edge by edge has (what version 2's round trip produced)."""
        payload = graph_to_dict(graph)
        restored = graph_from_dict(wire_round_trip(payload))
        assert restored == graph
        assert restored.name == graph.name
        assert list(restored.vertices()) == list(graph.vertices())
        assert layout(restored) == layout(rebuilt_edge_by_edge(graph))
        assert [(restored.label(v), restored.degree(v)) for v in restored.vertices()] == [
            (graph.label(v), graph.degree(v)) for v in graph.vertices()
        ]
        assert restored.vertices_with_label("A") == graph.vertices_with_label("A")
        ends = payload["edges"]
        pairs = list(zip(ends[::2], ends[1::2]))
        assert all(p < q for p, q in pairs)
        ids = payload["ids"]
        assert [(ids[p], ids[q]) for p, q in pairs] == list(graph.edges())

    def test_round_trip_preserves_labels_names_and_mixed_ids(self):
        graph = LabeledGraph(name="query-7")
        graph.add_vertex("a", "X")
        graph.add_vertex(2, "Y")
        graph.add_vertex("c", "X")
        graph.add_edge("a", 2, "bond")
        graph.add_edge(2, "c")
        payload = graph_to_dict(graph)
        assert payload == {
            "name": "query-7", "ids": ["a", 2, "c"], "labels": ["X", "Y", "X"],
            "edges": [0, 1, 1, 2], "edge_labels": ["bond", None],
        }
        restored = graph_from_dict(wire_round_trip(payload))
        assert restored == graph
        assert restored.name == "query-7"
        assert restored.edge_label("a", 2) == "bond"
        assert restored.edge_label(2, "c") is None

    def test_unlabeled_edges_send_null(self):
        payload = graph_to_dict(make_cycle_graph("ABC"))
        assert payload["edge_labels"] is None
        assert payload["edges"] == [0, 1, 0, 2, 1, 2]

    @pytest.mark.parametrize(
        ("payload", "fragment"),
        [
            ("nope", "graph='nope'"),
            ({"ids": [], "labels": []}, "graph.edges"),
            ({"ids": {}, "labels": [], "edges": []}, "graph.ids"),
            ({"ids": [], "labels": [], "edges": [], "label": 1}, "unknown key"),
            ({"ids": [1], "labels": [], "edges": []}, "graph.labels"),
            ({"ids": [1, 1], "labels": ["A", "B"], "edges": []}, "repeats vertex id"),
            ({"ids": [1], "labels": ["A"], "edges": [0, 1]}, "graph.edges[1]"),
            ({"ids": [1], "labels": ["A"], "edges": [0, 0]}, "graph.edges[0:2]"),
            (
                {"ids": [1, 2], "labels": ["A", "B"], "edges": [0, 1, 1, 0]},
                "graph.edges[2:4]",
            ),
            ({"ids": [[1]], "labels": ["A"], "edges": []}, "graph.ids[0]"),
            ({"ids": [1, True], "labels": ["A", "B"], "edges": []}, "graph.ids[1]"),
            ({"ids": [1], "labels": [["A"]], "edges": []}, "graph.labels[0]"),
            ({"ids": [1, 2], "labels": ["A", "B"], "edges": [0]}, "graph.edges"),
            ({"ids": [1, 2], "labels": ["A", "B"], "edges": [0, True]}, "graph.edges[1]"),
            ({"ids": [1, 2], "labels": ["A", "B"], "edges": [0, "1"]}, "graph.edges[1]"),
            ({"ids": [1, 2], "labels": ["A", "B"], "edges": [-1, 1]}, "graph.edges[0]"),
            (
                {"ids": [1, 2], "labels": ["A", "B"], "edges": [0, 1], "edge_labels": []},
                "graph.edge_labels",
            ),
            ({"name": 7, "ids": [], "labels": [], "edges": []}, "graph.name"),
            ({"vertices": [[1, "A"]], "edges": []}, "unknown key"),
        ],
    )
    def test_malformed_graph_names_offending_field(self, payload, fragment):
        with pytest.raises(ProtocolError, match="graph") as excinfo:
            graph_from_dict(payload)
        assert excinfo.value.code == "invalid_graph"
        assert fragment in str(excinfo.value)
        assert excinfo.value.field.startswith("graph")


#: the documented result object (docs/service.md)
RESULT_KEYS = {
    "query_name", "answers", "num_isomorphism_tests", "num_sub_hits",
    "num_super_hits", "exact_hit", "verification_skipped",
    "filter_seconds", "igq_seconds", "verify_seconds",
}
COUNTERS = sorted(RESULT_KEYS - {"query_name", "answers"})


def id_space_engine():
    """An engine over three graphs whose insertion order (the id space's
    positions) is not their ``repr`` order."""
    database = GraphDatabase()
    database.add("z_k4", make_clique("ABCD"))
    database.add("a_ab", make_path_graph("AB"))
    database.add("m_tri", make_cycle_graph("ABC"))
    engine = IGQ(create_method("ggsx"), engine_config())
    engine.build_index(database)
    return engine


def client_space(space: GraphIdSpace) -> GraphIdSpace:
    """The space a client rebuilds from the ``hello`` reply."""
    return id_space_from_dict(wire_round_trip(id_space_to_dict(space)))


class TestResultRoundTrip:
    @given(
        st.sets(st.text(min_size=1, max_size=4), max_size=6),
        st.sets(st.text(min_size=1, max_size=4), max_size=6),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.booleans(),
        st.booleans(),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_round_trip(self, answers, guaranteed, tests, sub_hits, super_hits,
                        exact, skipped, seconds):
        space = GraphIdSpace(sorted(answers | guaranteed | {"spare"}))
        result = IGQQueryResult(
            query_name="q",
            answers=answers,
            candidates=answers | guaranteed,
            guaranteed_answers=guaranteed,
            pruned_candidates=guaranteed - answers,
            num_isomorphism_tests=tests,
            num_sub_hits=sub_hits,
            num_super_hits=super_hits,
            exact_hit=exact,
            verification_skipped=skipped,
            filter_seconds=seconds,
            igq_seconds=seconds / 2,
            verify_seconds=seconds * 2,
        )
        payload = result_to_dict(result, space)
        assert set(payload) == RESULT_KEYS
        assert payload["answers"] == format(space.mask_of(answers), "x")
        restored = result_from_dict(wire_round_trip(payload), client_space(space))
        assert restored.query_name == "q"
        assert isinstance(restored.answers, CandidateBitmap)
        assert restored.answers == result.answers
        assert sorted(map(repr, restored.answers)) == sorted(map(repr, answers))
        for counter in COUNTERS:
            assert getattr(restored, counter) == getattr(result, counter), counter
        assert restored.candidates == set()
        assert restored.guaranteed_answers == set()
        assert restored.pruned_candidates == set()

    def test_engine_answers_serialise_in_id_space_order(self):
        """An engine result travels as its own mask, bit ``i`` standing for
        the id at position ``i`` of the id space (insertion order, not
        ``repr`` order), and reads back as those ids in that order."""
        engine = id_space_engine()
        result = engine.query(make_path_graph("AB", name="q"))
        assert isinstance(result.answers, CandidateBitmap)
        payload = result_to_dict(result, engine.method.id_space)
        assert payload["answers"] == format(result.answers.mask, "x") == "7"
        restored = result_from_dict(
            wire_round_trip(payload), client_space(engine.method.id_space)
        )
        assert list(restored.answers) == ["z_k4", "a_ab", "m_tri"]
        assert restored.answers == result.answers
        assert sorted(map(repr, restored.answers)) == sorted(map(repr, result.answers))

    def test_answers_are_serialised_deterministically(self):
        space = GraphIdSpace(["c", "a", "b", "d"])
        first = json.dumps(result_to_dict(IGQQueryResult(query_name="q", answers={"b", "a", "c"}), space))
        second = json.dumps(result_to_dict(IGQQueryResult(query_name="q", answers={"c", "a", "b"}), space))
        assert first == second
        assert json.loads(first)["answers"] == "7"

    def test_unknown_result_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown key"):
            result_from_dict({"query_name": "q", "bogus": 1}, GraphIdSpace([]))

    @pytest.mark.parametrize(
        ("answers", "fragment"),
        [
            ("10", "sets bit 4, past the 4 graphs"),
            ("F", "lowercase hex"),
            ("0x1", "lowercase hex"),
            ("", "lowercase hex"),
            (" 1", "lowercase hex"),
            (7, "lowercase hex"),
        ],
    )
    def test_answers_must_be_a_mask_of_the_space(self, answers, fragment):
        space = GraphIdSpace("abcd")
        payload = result_to_dict(IGQQueryResult(query_name="q", answers={"a"}), space)
        payload["answers"] = answers
        with pytest.raises(ProtocolError, match="result.answers") as excinfo:
            result_from_dict(payload, space)
        assert excinfo.value.code == "invalid_result"
        assert excinfo.value.field == "result.answers"
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("num_isomorphism_tests", "3"),
            ("num_sub_hits", True),
            ("exact_hit", 1),
            ("verify_seconds", None),
            ("query_name", 5),
        ],
    )
    def test_mistyped_fields_name_the_field(self, key, value):
        space = GraphIdSpace("ab")
        payload = result_to_dict(IGQQueryResult(query_name="q", answers={"a"}), space)
        payload[key] = value
        with pytest.raises(ProtocolError) as excinfo:
            result_from_dict(payload, space)
        assert excinfo.value.field == f"result.{key}"

    def test_a_missing_key_is_named(self):
        space = GraphIdSpace("ab")
        payload = result_to_dict(IGQQueryResult(query_name="q", answers={"a"}), space)
        del payload["igq_seconds"]
        with pytest.raises(ProtocolError, match="lacks key.*igq_seconds"):
            result_from_dict(payload, space)


class TestIdSpace:
    def test_round_trip_keeps_positions_and_fingerprint(self):
        space = GraphIdSpace(["z", 3, "a", 10])
        payload = id_space_to_dict(space)
        assert payload == {"id_space": space.fingerprint(), "ids": ["z", 3, "a", 10]}
        rebuilt = client_space(space)
        assert rebuilt.ids == space.ids
        assert rebuilt.fingerprint() == space.fingerprint()

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ([], "hello"),
            ({"ids": []}, "hello"),
            ({"id_space": "x", "ids": "ab"}, "hello.ids"),
            ({"id_space": "x", "ids": [[1]]}, "hello.ids"),
            ({"id_space": "x", "ids": [1, 1]}, "hello.ids"),
            ({"id_space": "x", "ids": [1, 2]}, "hello.id_space"),
        ],
    )
    def test_malformed_hello_is_refused(self, payload, field):
        with pytest.raises(ProtocolError) as excinfo:
            id_space_from_dict(payload)
        assert excinfo.value.field == field

    def test_ids_json_does_not_carry_are_refused(self):
        """A tuple id comes back as a list: the fingerprint no longer
        matches, so the client refuses the space."""
        space = GraphIdSpace([(1, 2), (3, 4)])
        with pytest.raises(ProtocolError) as excinfo:
            client_space(space)
        assert excinfo.value.field == "hello.ids"


# ----------------------------------------------------------------------
# Fuzzing: mutated valid payloads decode to a valid value or a typed error
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    """The path (keys and indices) of every node of a JSON document."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def edited(draw, value, path):
    """``value`` with the node at ``path`` edited: retyped; a key dropped or
    added; a list item dropped, inserted or repeated, or a pair of items
    repeated (repeated ids and edges); an int shifted (positions out of
    range); a string rewritten from hex-ish characters (non-hex or
    over-wide masks)."""
    if path:
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[path[0]] = edited(draw, value[path[0]], path[1:])
        return copy
    edits = ["retype"]
    if isinstance(value, dict):
        edits += ["add", "drop"] if value else ["add"]
    elif isinstance(value, list) and value:
        edits += ["drop", "insert", "repeat", "repeat_pair"]
    elif isinstance(value, str):
        edits.append("hexish")
    elif type(value) is int:
        edits.append("shift")
    edit = draw(st.sampled_from(edits))
    if edit == "retype":
        return draw(json_values)
    if edit == "hexish":
        return draw(
            st.text(alphabet="0123456789abcdef", min_size=1, max_size=40)
            | st.text(alphabet="0123456789abcdefABCDEFx_ +-", max_size=40)
        )
    if edit == "shift":
        return value + draw(st.integers(-50, 50))
    if isinstance(value, dict):
        copy = dict(value)
        if edit == "add":
            copy[draw(st.text(max_size=6))] = draw(json_values)
        else:
            del copy[draw(st.sampled_from(sorted(value)))]
        return copy
    copy = list(value)
    index = draw(st.integers(0, len(value) - 1))
    if edit == "drop":
        del copy[index]
    elif edit == "insert":
        copy.insert(index, draw(json_values))
    elif edit == "repeat":
        copy.insert(index, value[index])
    else:
        copy[index:index] = value[index:index + 2]
    return copy


def mutations(draw, document):
    """``document`` after one to three edits, each at a node drawn
    uniformly from the document's nodes."""
    for _ in range(draw(st.integers(1, 3))):
        document = edited(draw, document, draw(st.sampled_from(list(paths(document)))))
    return document


def decodes_or_names_a_field(decode, payload):
    """``decode(payload)``: a value, or a :class:`ProtocolError` naming a
    field; any other exception fails the test."""
    try:
        return decode(payload)
    except ProtocolError as exc:
        assert exc.field, exc
        return None


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))


class TestWireFuzz:
    @FUZZ
    @given(shuffled_graphs(), st.data())
    def test_graph_payloads(self, graph, data):
        payload = mutations(data.draw, wire_round_trip(graph_to_dict(graph)))
        restored = decodes_or_names_a_field(graph_from_dict, payload)
        if restored is not None:
            assert graph_from_dict(wire_round_trip(graph_to_dict(restored))) == restored
            assert list(restored.vertices()) == payload["ids"]

    @FUZZ
    @given(st.sets(st.sampled_from("abcde")), st.data())
    def test_result_payloads(self, answers, data):
        space = GraphIdSpace("abcde")
        result = IGQQueryResult(query_name="q", answers=answers, num_isomorphism_tests=3)
        payload = mutations(data.draw, wire_round_trip(result_to_dict(result, space)))
        restored = decodes_or_names_a_field(lambda p: result_from_dict(p, space), payload)
        if restored is not None:
            assert restored.answers.mask >> len(space) == 0
            assert set(restored.answers) <= set("abcde")

    @FUZZ
    @given(shuffled_graphs(), st.data())
    def test_request_payloads(self, graph, data):
        envelope = encode_request(
            "query", request_id=4, tenant="t",
            payload={"graph": graph_to_dict(graph), "mode": "subgraph", "timeout": 1.5},
        )
        envelope = mutations(data.draw, wire_round_trip(envelope))
        request = decodes_or_names_a_field(decode_request, envelope)
        if request is not None and request.op == "query":
            decodes_or_names_a_field(
                lambda p: graph_from_dict(p.get("graph"), field="request.payload.graph"),
                request.payload,
            )

    @FUZZ
    @given(st.data())
    def test_hello_payloads(self, data):
        space = GraphIdSpace(["g0", "g1", 2, 3])
        payload = mutations(data.draw, wire_round_trip(id_space_to_dict(space)))
        rebuilt = decodes_or_names_a_field(id_space_from_dict, payload)
        if rebuilt is not None:
            assert rebuilt.fingerprint() == payload["id_space"]


class TestEnvelopes:
    def test_request_round_trip(self):
        envelope = encode_request(
            "query", request_id=9, tenant="fast", payload={"mode": "subgraph"}
        )
        request = decode_request(wire_round_trip(envelope))
        assert request.op == "query"
        assert request.request_id == 9
        assert request.tenant == "fast"
        assert request.payload == {"mode": "subgraph"}

    def test_request_defaults(self):
        request = decode_request(encode_request("ping", request_id=0))
        assert request.tenant == "default"
        assert request.payload == {}

    def test_response_round_trip(self):
        ok = decode_response(wire_round_trip(encode_response(3, result={"pong": True})))
        assert ok.ok and ok.request_id == 3 and ok.result == {"pong": True}
        failed = decode_response(
            encode_response(4, error={"code": "timeout", "message": "t", "field": None})
        )
        assert not failed.ok
        assert failed.error["code"] == "timeout"

    def test_response_needs_exactly_one_of_result_or_error(self):
        with pytest.raises(ValueError, match="exactly one"):
            encode_response(1)
        with pytest.raises(ValueError, match="exactly one"):
            encode_response(1, result={}, error={"code": "x", "message": "y"})
        with pytest.raises(ProtocolError, match="exactly one"):
            decode_response({"protocol_version": PROTOCOL_VERSION, "id": 1})

    @pytest.mark.parametrize("version", [0, 1, 2, "3", None])
    def test_version_mismatch_rejected_both_directions(self, version):
        request = encode_request("ping", request_id=1)
        request["protocol_version"] = version
        with pytest.raises(ProtocolError, match="protocol_version") as excinfo:
            decode_request(request)
        assert excinfo.value.code == "unsupported_version"
        response = encode_response(1, result={})
        response["protocol_version"] = version
        with pytest.raises(ProtocolError, match="protocol_version"):
            decode_response(response)

    @pytest.mark.parametrize(
        ("mutation", "field"),
        [
            ({"op": "shutdown"}, "request.op"),
            ({"id": "seven"}, "request.id"),
            ({"id": True}, "request.id"),
            ({"tenant": ""}, "request.tenant"),
            ({"payload": []}, "request.payload"),
            ({"op": "log_since"}, "request.op"),
        ],
    )
    def test_malformed_request_names_offending_field(self, mutation, field):
        envelope = encode_request("ping", request_id=7)
        envelope.update(mutation)
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(envelope)
        assert excinfo.value.field == field
        assert field.split(".", 1)[1] in str(excinfo.value)

    def test_malformed_frame(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"{not json")
        assert excinfo.value.code == "invalid_json"


class TestErrorPayloads:
    def test_known_exceptions_map_to_typed_codes(self):
        from repro.service.scheduler import AdmissionError
        from repro.service.service import QueryTimeout, ServiceClosed

        cases = [
            (ProtocolError("bad", code="invalid_graph", field="graph"), "invalid_graph"),
            (QueryTimeout("query timed out after 1.0s"), "timeout"),
            (AdmissionError("tenant 'hog' is over its max_in_flight=2 quota"), "overloaded"),
            (ServiceClosed("service is closed"), "closed"),
            (ConfigError("service.tenants[0].weight=0 is not valid"), "invalid_config"),
            (ValueError("unknown mode"), "invalid_request"),
            (RuntimeError("boom"), "internal"),
        ]
        for exc, code in cases:
            payload = error_to_dict(exc)
            assert payload["code"] == code
            assert isinstance(payload["message"], str) and payload["message"]
            wire_round_trip(encode_response(1, error=payload))

    def test_error_payload_keeps_field_naming(self):
        payload = error_to_dict(
            ProtocolError(
                "request.payload.graph.vertices is not valid",
                code="invalid_graph",
                field="request.payload.graph.vertices",
            )
        )
        assert payload["field"] == "request.payload.graph.vertices"
        assert "graph.vertices" in payload["message"]
