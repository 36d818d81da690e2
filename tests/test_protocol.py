"""Round-trip and validation tests for the versioned JSON wire protocol."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IGQ
from repro.core.config import ConfigError
from repro.core.engine import IGQQueryResult
from repro.graphs import GraphDatabase
from repro.graphs.bitset import CandidateBitmap
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


class TestGraphRoundTrip:
    @given(labeled_graphs(max_vertices=8))
    def test_round_trip_preserves_structure_and_order(self, graph):
        restored = graph_from_dict(wire_round_trip(graph_to_dict(graph)))
        assert restored == graph
        assert list(restored.vertices()) == list(graph.vertices())
        assert sorted(restored.edges()) == sorted(graph.edges())

    def test_round_trip_preserves_labels_names_and_mixed_ids(self):
        graph = LabeledGraph(name="query-7")
        graph.add_vertex("a", "X")
        graph.add_vertex(2, "Y")
        graph.add_vertex("c", "X")
        graph.add_edge("a", 2, "bond")
        graph.add_edge(2, "c")
        restored = graph_from_dict(wire_round_trip(graph_to_dict(graph)))
        assert restored == graph
        assert restored.name == "query-7"
        assert restored.edge_label("a", 2) == "bond"
        assert restored.edge_label(2, "c") is None

    @pytest.mark.parametrize(
        ("payload", "fragment"),
        [
            ("nope", "graph='nope'"),
            ({"vertices": []}, "graph.edges"),
            ({"vertices": {}, "edges": []}, "graph.vertices"),
            ({"vertices": [], "edges": [], "label": 1}, "unknown key"),
            ({"vertices": [[1]], "edges": []}, "graph.vertices[0]"),
            ({"vertices": [[1, "A"], [1, "B"]], "edges": []}, "repeats vertex id"),
            ({"vertices": [[1, "A"]], "edges": [[1, 2]]}, "graph.edges[0]"),
            ({"vertices": [[1, "A"]], "edges": [[1, 1]]}, "graph.edges[0]"),
            (
                {"vertices": [[1, "A"], [2, "B"]], "edges": [[1, 2], [2, 1]]},
                "graph.edges[1]",
            ),
        ],
    )
    def test_malformed_graph_names_offending_field(self, payload, fragment):
        with pytest.raises(ProtocolError, match="graph") as excinfo:
            graph_from_dict(payload)
        assert excinfo.value.code == "invalid_graph"
        assert fragment in str(excinfo.value)


#: the documented version-2 result object (docs/service.md)
V2_RESULT_KEYS = {
    "query_name", "answers", "num_isomorphism_tests", "num_sub_hits",
    "num_super_hits", "exact_hit", "verification_skipped",
    "filter_seconds", "igq_seconds", "verify_seconds",
}
COUNTERS = sorted(V2_RESULT_KEYS - {"query_name", "answers"})


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
        payload = result_to_dict(result)
        assert set(payload) == V2_RESULT_KEYS
        restored = result_from_dict(wire_round_trip(payload))
        assert restored.query_name == "q"
        assert restored.answers == result.answers
        for counter in COUNTERS:
            assert getattr(restored, counter) == getattr(result, counter), counter
        assert restored.candidates == set()
        assert restored.guaranteed_answers == set()
        assert restored.pruned_candidates == set()

    def test_engine_answers_serialise_in_id_space_order(self):
        # insertion order (the id space's positions) is not repr order
        database = GraphDatabase()
        database.add("z_k4", make_clique("ABCD"))
        database.add("a_ab", make_path_graph("AB"))
        database.add("m_tri", make_cycle_graph("ABC"))
        engine = IGQ(create_method("ggsx"), engine_config())
        engine.build_index(database)
        result = engine.query(make_path_graph("AB", name="q"))
        assert isinstance(result.answers, CandidateBitmap)
        answers = result_to_dict(result)["answers"]
        assert answers == ["z_k4", "a_ab", "m_tri"]
        assert answers != sorted(answers, key=repr)

    def test_answers_are_serialised_deterministically(self):
        result = IGQQueryResult(query_name="q", answers={"b", "a", "c"})
        first = json.dumps(result_to_dict(result))
        second = json.dumps(result_to_dict(IGQQueryResult(query_name="q", answers={"c", "a", "b"})))
        assert first == second

    def test_unknown_result_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown key"):
            result_from_dict({"query_name": "q", "bogus": 1})


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

    @pytest.mark.parametrize("version", [0, 1, 3, "2", None])
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
