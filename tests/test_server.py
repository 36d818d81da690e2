"""Integration tests for the network front door (server + client).

The contracts:

* **Byte identity** — a single-tenant query stream through the socket
  yields the same answers, accounting and engine cache state as the legacy
  sequential ``engine.query()`` loop (the protocol is a transport, not a
  semantic layer).
* **Typed errors** — malformed frames, version mismatches, bad payloads and
  quota pressure come back as machine-readable error payloads and are
  re-raised client-side as their local exception types.
* **Concurrency** — multiple tenants on separate connections get correctly
  attributed stats, and responses are matched by request id even when they
  complete out of submission order.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.config import ServiceConfig, TenantConfig
from repro.methods import create_method
from repro.service import (
    AdmissionError,
    GraphQueryService,
    connect,
    serve,
)
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError, graph_to_dict

from .test_service import (
    database,  # noqa: F401 - fixture re-export
    engine_fingerprint,
    mixed_config,
    mixed_stream,  # noqa: F401 - fixture re-export
    sequential_baseline,
)


def serve_mixed(database, **service_kwargs):  # noqa: F811 - fixture name
    config = mixed_config(service=ServiceConfig(**service_kwargs))
    service = GraphQueryService(
        create_method("ggsx", max_path_length=3), config, database=database
    )
    return service


class TestWireEquivalence:
    def test_remote_stream_matches_sequential_engine(self, database, mixed_stream):  # noqa: F811
        baseline = sequential_baseline(database, mixed_stream)
        service = serve_mixed(database)
        with service, serve(service) as server:
            with connect(server.host, server.port) as client:
                results = [client.query(query, mode) for query, mode in mixed_stream]
            fingerprint = engine_fingerprint(service.engine, results)
        assert fingerprint == baseline

    def test_pipelined_submissions_keep_order_and_identity(self, database, mixed_stream):  # noqa: F811
        baseline = sequential_baseline(database, mixed_stream)
        # the whole stream is submitted at once: raise the quota above 36
        service = serve_mixed(database, default_max_in_flight=64)
        with service, serve(service) as server:
            with connect(server.host, server.port) as client:
                futures = [
                    client.submit(query, mode) for query, mode in mixed_stream
                ]
                results = [future.result(timeout=120) for future in futures]
            fingerprint = engine_fingerprint(service.engine, results)
        assert fingerprint == baseline


class TestProtocolSurface:
    @pytest.fixture()
    def endpoint(self, database):  # noqa: F811
        service = serve_mixed(database)
        with service, serve(service) as server:
            yield server

    def raw_exchange(self, server, envelope: dict) -> dict:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(json.dumps(envelope).encode() + b"\n")
            reader = sock.makefile("rb")
            return json.loads(reader.readline())

    def test_ping(self, endpoint):
        with connect(endpoint.host, endpoint.port) as client:
            assert client.ping() == {"pong": True}

    def test_responses_carry_protocol_version(self, endpoint):
        response = self.raw_exchange(
            endpoint,
            {"protocol_version": PROTOCOL_VERSION, "id": 5, "op": "ping"},
        )
        assert response["protocol_version"] == PROTOCOL_VERSION
        assert response["id"] == 5
        assert response["result"] == {"pong": True}

    def test_query_response_omits_candidate_lists(self, endpoint, mixed_stream):  # noqa: F811
        query, mode = mixed_stream[0]
        response = self.raw_exchange(
            endpoint,
            {
                "protocol_version": PROTOCOL_VERSION,
                "id": 6,
                "op": "query",
                "payload": {"graph": graph_to_dict(query), "mode": mode},
            },
        )
        result = response["result"]
        assert "answers" in result and "num_isomorphism_tests" in result
        for key in ("candidates", "guaranteed_answers", "pruned_candidates"):
            assert key not in result

    def test_version_mismatch_is_a_typed_error(self, endpoint):
        response = self.raw_exchange(
            endpoint, {"protocol_version": 99, "id": 1, "op": "ping"}
        )
        assert response["error"]["code"] == "unsupported_version"
        assert "protocol_version=99" in response["error"]["message"]

    def test_malformed_json_is_a_typed_error(self, endpoint):
        with socket.create_connection((endpoint.host, endpoint.port)) as sock:
            sock.sendall(b"{this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["error"]["code"] == "invalid_json"
        assert response["id"] is None

    def test_unknown_op_and_bad_graph_name_the_field(self, endpoint):
        bad_op = self.raw_exchange(
            endpoint, {"protocol_version": PROTOCOL_VERSION, "id": 2, "op": "drop"}
        )
        assert bad_op["error"]["code"] == "invalid_request"
        assert bad_op["error"]["field"] == "request.op"
        bad_graph = self.raw_exchange(
            endpoint,
            {
                "protocol_version": PROTOCOL_VERSION,
                "id": 3,
                "op": "query",
                "payload": {"graph": {"vertices": "nope", "edges": []}},
            },
        )
        assert bad_graph["error"]["code"] == "invalid_graph"
        assert bad_graph["error"]["field"] == "request.payload.graph.vertices"

    def test_client_raises_local_exception_types(self, endpoint, mixed_stream):  # noqa: F811
        query = mixed_stream[0][0]
        with connect(endpoint.host, endpoint.port) as client:
            with pytest.raises(ProtocolError, match="mixed-mode"):
                client.query(query)  # mixed engine: mode is mandatory
            with pytest.raises(ProtocolError, match="unknown query mode"):
                client.query(query, "sideways")

    def test_stats_over_the_wire(self, endpoint, mixed_stream):  # noqa: F811
        query, mode = mixed_stream[0]
        with connect(endpoint.host, endpoint.port, tenant="acct") as client:
            client.query(query, mode)
            stats = client.stats()
        assert stats["sessions"]["acct"]["queries"] == 1
        assert stats["scheduler"]["acct"]["in_flight"] == 0
        assert stats["config"]["mode"] == "mixed"


class TestMultiTenant:
    def test_tenants_on_separate_connections_are_attributed(self, database, mixed_stream):  # noqa: F811
        service = serve_mixed(
            database, tenants=(TenantConfig(name="vip", weight=4),)
        )
        with service, serve(service) as server:
            with connect(server.host, server.port, tenant="vip") as vip, connect(
                server.host, server.port, tenant="guest"
            ) as guest:
                vip_futures = [
                    vip.submit(query, mode) for query, mode in mixed_stream[:8]
                ]
                guest_futures = [
                    guest.submit(query, mode) for query, mode in mixed_stream[8:12]
                ]
                for future in vip_futures + guest_futures:
                    future.result(timeout=120)
                stats = guest.stats()
        assert stats["sessions"]["vip"]["queries"] == 8
        assert stats["sessions"]["guest"]["queries"] == 4
        assert stats["totals"]["queries"] == 12
        assert stats["scheduler"]["vip"]["weight"] == 4

    def test_quota_pressure_is_an_overloaded_error(self, database, mixed_stream):  # noqa: F811
        # One burst token, then queued: with max_in_flight=2 the third
        # concurrent submission is deterministically over quota.
        service = serve_mixed(
            database,
            tenants=(
                TenantConfig(name="busy", max_in_flight=2, rate_limit=0.5),
            ),
        )
        with service, serve(service) as server:
            with connect(server.host, server.port, tenant="busy") as client:
                query, mode = mixed_stream[0]
                client.query(query, mode)  # consumes the burst token
                client.submit(*mixed_stream[1])  # queued, holds a slot
                client.submit(*mixed_stream[2])  # queued, holds a slot
                third = client.submit(*mixed_stream[3])
                with pytest.raises(AdmissionError, match="max_in_flight=2"):
                    third.result(timeout=120)
