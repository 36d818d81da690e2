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
import re
import socket
import threading
import time
from collections import Counter

import pytest

from repro.core import IGQ
from repro.core.config import ServiceConfig, TenantConfig
from repro.graphs.bitset import CandidateBitmap
from repro.methods import create_method
from repro.service import (
    AdmissionError,
    GraphQueryService,
    client as client_module,
    connect,
    serve,
)
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError, graph_to_dict
from repro.service.server import MAX_FRAME_BYTES

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


class TestOnePipeline:
    def test_every_entry_point_executes_once(self, database, mixed_stream, monkeypatch):  # noqa: F811
        """``IGQ.execute`` is the one place a query runs: each
        ``IGQ.query``, ``run_batch`` item, ``service.submit`` and wire query
        calls it exactly once, and nothing but it plans a query."""
        calls = Counter()
        execute, plan_query = IGQ.execute, IGQ.plan_query

        def counting_execute(engine, query, supergraph):
            calls["execute"] += 1
            return execute(engine, query, supergraph)

        def counting_plan_query(engine, *args, **kwargs):
            calls["plan_query"] += 1
            return plan_query(engine, *args, **kwargs)

        monkeypatch.setattr(IGQ, "execute", counting_execute)
        monkeypatch.setattr(IGQ, "plan_query", counting_plan_query)
        tasks = mixed_stream[:4]
        engine = IGQ(create_method("ggsx", max_path_length=3), mixed_config())
        engine.build_index(database)
        for query, mode in tasks:
            engine.query(query, mode)
        assert calls == {"execute": 4, "plan_query": 4}
        engine.run_batch(tasks)
        assert calls == {"execute": 8, "plan_query": 8}
        service = serve_mixed(database)
        with service, serve(service) as server:
            for query, mode in tasks:
                service.submit(query, mode).result(timeout=120)
            assert calls == {"execute": 12, "plan_query": 12}
            with connect(server.host, server.port) as client:
                for query, mode in tasks:
                    client.query(query, mode)
        assert calls == {"execute": 16, "plan_query": 16}


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
        assert re.fullmatch("[0-9a-f]+", result["answers"])
        assert "num_isomorphism_tests" in result
        for key in ("candidates", "guaranteed_answers", "pruned_candidates"):
            assert key not in result
        # the mask's bits are positions of the id space hello sends
        space = endpoint.service.engine.method.id_space
        assert int(result["answers"], 16) >> len(space) == 0

    def test_version_mismatch_is_a_typed_error(self, endpoint):
        response = self.raw_exchange(
            endpoint, {"protocol_version": 99, "id": 1, "op": "ping"}
        )
        assert response["error"]["code"] == "unsupported_version"
        assert "protocol_version=99" in response["error"]["message"]

    @pytest.mark.parametrize("op", ["hello", "query"])
    def test_a_version_2_peer_is_refused(self, endpoint, mixed_stream, op):  # noqa: F811
        query, mode = mixed_stream[0]
        payload = {"graph": graph_to_dict(query), "mode": mode} if op == "query" else {}
        response = self.raw_exchange(
            endpoint, {"protocol_version": 2, "id": 1, "op": op, "payload": payload}
        )
        assert response["error"]["code"] == "unsupported_version"
        assert response["error"]["field"] == "request.protocol_version"

    def test_hello_sends_the_id_space(self, endpoint):
        response = self.raw_exchange(
            endpoint, {"protocol_version": PROTOCOL_VERSION, "id": 1, "op": "hello"}
        )
        space = endpoint.service.engine.method.id_space
        assert response["result"] == {
            "id_space": space.fingerprint(), "ids": list(space.ids),
        }
        with connect(endpoint.host, endpoint.port) as client:
            assert client.id_space.ids == space.ids
            assert client.id_space.fingerprint() == space.fingerprint()
            # the hello's deadline is gone before the reader thread reads
            assert client._sock.gettimeout() is None

    def test_wire_answers_equal_the_embedded_answers(self, endpoint, mixed_stream):  # noqa: F811
        """A wire result's answers are a bitmap over the connection's id
        space that equals the embedded result's answers as a set and by
        ``repr``."""
        service = endpoint.service
        with connect(endpoint.host, endpoint.port) as client:
            for query, mode in mixed_stream[:6]:
                embedded = service.submit(query, mode).result(timeout=60)
                wire = client.query(query, mode)
                assert isinstance(wire.answers, CandidateBitmap)
                assert wire.answers.space is client.id_space
                assert wire.answers == embedded.answers
                assert embedded.answers == wire.answers
                assert sorted(map(repr, wire.answers)) == sorted(map(repr, embedded.answers))


    def test_a_cancelled_submission_leaves_the_connection_working(
        self, endpoint, mixed_stream  # noqa: F811
    ):
        """The caller may cancel a wire future before its response arrives:
        the reader drops that response and keeps serving the others."""
        query, mode = mixed_stream[0]
        with connect(endpoint.host, endpoint.port) as client:
            abandoned = client.submit(query, mode)
            abandoned.cancel()
            assert client.query(query, mode).answers == client.query(query, mode).answers
            assert client.ping() == {"pong": True}

    def test_an_oversized_frame_is_answered_then_closed(self, endpoint):
        """A ``ping`` frame ``MAX_FRAME_BYTES + 50`` bytes long gets a typed
        error (no id could be read from it), then the server closes."""
        head = json.dumps(
            {"protocol_version": PROTOCOL_VERSION, "id": 1, "op": "ping", "payload": {"pad": ""}}
        ).encode()
        pad = MAX_FRAME_BYTES + 50 - len(head) - 1
        frame = head[:-3] + b"x" * pad + head[-3:] + b"\n"
        assert len(frame) == MAX_FRAME_BYTES + 50
        with socket.create_connection((endpoint.host, endpoint.port), timeout=60) as sock:
            sock.sendall(frame)
            reader = sock.makefile("rb")
            response = json.loads(reader.readline())
            assert reader.readline() == b""
        assert response["id"] is None
        assert response["error"]["code"] == "frame_too_large"
        assert str(MAX_FRAME_BYTES) in response["error"]["message"]
        with connect(endpoint.host, endpoint.port) as client:  # the server serves on
            assert client.ping() == {"pong": True}

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
                "payload": {"graph": {"ids": "nope", "labels": [], "edges": []}},
            },
        )
        assert bad_graph["error"]["code"] == "invalid_graph"
        assert bad_graph["error"]["field"] == "request.payload.graph.ids"

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


class TestHandshake:
    """``connect()`` against a stub server that answers ``hello`` badly."""

    def stub_connect(self, reply):
        """Run ``connect()`` against a one-connection server that answers
        the first frame with ``reply(request)`` and then stays silent;
        return what ``connect()`` raised."""
        listener = socket.create_server(("127.0.0.1", 0))
        served = threading.Event()

        def stub():
            conn, _ = listener.accept()
            with conn:
                request = json.loads(conn.makefile("rb").readline())
                conn.sendall(json.dumps(reply(request)).encode() + b"\n")
                served.wait(30)  # keep the connection open: no EOF rescues connect()

        server = threading.Thread(target=stub, daemon=True)
        server.start()
        outcome: list = []

        def client():
            try:
                connect("127.0.0.1", listener.getsockname()[1])
            except BaseException as exc:  # noqa: BLE001 - the outcome under test
                outcome.append(exc)

        caller = threading.Thread(target=client, daemon=True)
        caller.start()
        caller.join(timeout=10)
        hung = caller.is_alive()
        served.set()
        server.join(timeout=10)
        listener.close()
        assert not hung, "connect() hung on the hello reply"
        assert not server.is_alive()
        assert len(outcome) == 1
        return outcome[0]

    @pytest.mark.parametrize("code", ["internal", "closed", "invalid_request"])
    def test_an_error_reply_raises_protocol_error(self, code):
        exc = self.stub_connect(
            lambda request: {
                "protocol_version": PROTOCOL_VERSION,
                "id": request["id"],
                "error": {"code": code, "message": "no hello here", "field": None},
            }
        )
        assert isinstance(exc, ProtocolError)
        assert exc.code == code
        assert "no hello here" in str(exc)

    def test_a_version_2_reply_is_refused(self):
        exc = self.stub_connect(
            lambda request: {"protocol_version": 2, "id": request["id"], "result": {}}
        )
        assert isinstance(exc, ProtocolError)
        assert exc.code == "unsupported_version"

    def test_a_silent_server_times_the_hello_out(self, monkeypatch):
        """A server that accepts and never answers: ``connect()`` raises a
        ``ConnectionError`` naming ``hello`` after ``HELLO_TIMEOUT_S``."""
        monkeypatch.setattr(client_module, "HELLO_TIMEOUT_S", 0.5)
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []
        stub = threading.Thread(target=lambda: accepted.append(listener.accept()), daemon=True)
        stub.start()
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="hello"):
            connect("127.0.0.1", listener.getsockname()[1])
        assert time.monotonic() - started < 5
        stub.join(timeout=10)
        assert not stub.is_alive()
        accepted[0][0].close()
        listener.close()

    def test_a_hello_frame_is_the_first_frame(self):
        seen: list = []

        def reply(request):
            seen.append(request)
            return {"protocol_version": PROTOCOL_VERSION, "id": request["id"],
                    "result": {"id_space": "0", "ids": ["g"]}}

        exc = self.stub_connect(reply)
        assert isinstance(exc, ProtocolError) and exc.field == "hello.id_space"
        assert seen[0]["op"] == "hello"
        assert seen[0]["protocol_version"] == PROTOCOL_VERSION


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

    def test_a_pipelining_tenant_does_not_starve_a_weighted_one(
        self, database, mixed_stream, monkeypatch  # noqa: F811
    ):
        """A request is queued when it is read, and the loop runs one query
        per turn: a request the vip sends while the hog's first query runs
        is read before the next query starts, and the weighted scheduler
        serves it within the hog's next few.  (Running each request as it
        is read would run the hog's whole pipelined backlog first.)"""
        hog_backlog = 20
        service = serve_mixed(
            database,
            tenants=(TenantConfig(name="hog", weight=1), TenantConfig(name="vip", weight=4)),
        )
        with service, serve(service) as server:
            with connect(server.host, server.port, tenant="hog") as hog, connect(
                server.host, server.port, tenant="vip"
            ) as vip:
                hog.ping(), vip.ping()  # both connection handlers are running
                order: list[str] = []
                entered, release = threading.Event(), threading.Event()
                execute = service.engine.execute

                def recording_execute(query, supergraph):
                    order.append(query.name)
                    if len(order) == 1:
                        entered.set()
                        assert release.wait(60)
                    return execute(query, supergraph)

                monkeypatch.setattr(service.engine, "execute", recording_execute)
                # Hold the loop while the hog pipelines its backlog, so the
                # whole backlog is read in one turn.
                loop_free = threading.Event()
                server._loop.call_soon_threadsafe(loop_free.wait, 60)
                hog_futures = [
                    hog.submit(query.copy(name=f"hog-{index}"), mode)
                    for index, (query, mode) in enumerate(mixed_stream[:hog_backlog])
                ]
                time.sleep(0.1)
                loop_free.set()
                assert entered.wait(60)
                query, mode = mixed_stream[hog_backlog]
                vip_future = vip.submit(query.copy(name="vip-0"), mode)
                time.sleep(0.1)  # the request reaches the server's socket
                release.set()
                vip_future.result(timeout=120)
                for future in hog_futures:
                    future.result(timeout=120)
        assert order[0] == "hog-0"
        assert order.index("vip-0") <= 4, order

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
