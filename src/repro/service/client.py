"""Synchronous client for the network front door (:mod:`repro.service.server`).

:func:`connect` opens one TCP connection speaking the versioned NDJSON
protocol, reads the dataset's id space from the server (the ``hello``
handshake, once per connection) and returns a :class:`ServiceClient`:

* :meth:`~ServiceClient.submit` sends a query and returns a
  :class:`concurrent.futures.Future` — many queries can be in flight on one
  connection, and a background reader thread matches responses to requests
  by envelope ``id`` (the server answers in completion order, not
  submission order);
* :meth:`~ServiceClient.query` is the blocking convenience form, returning
  an :class:`~repro.core.engine.IGQQueryResult` whose answers and scalar
  counters equal the embedded service's (the engine behind the socket is
  the same code path); its answers are a
  :class:`~repro.graphs.bitset.CandidateBitmap` over the connection's id
  space, as an embedded result's are; the candidate-level sets
  (``candidates``, ``guaranteed_answers``, ``pruned_candidates``) are not
  sent and stay empty;
* typed server errors are raised as their local exception types
  (``timeout`` → :class:`~repro.service.service.QueryTimeout`,
  ``overloaded`` → :class:`~repro.service.scheduler.AdmissionError`,
  ``closed`` → :class:`~repro.service.service.ServiceClosed`, protocol
  violations → :class:`~repro.service.protocol.ProtocolError`).
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import Future

from ..core.config import ConfigError
from ..core.engine import IGQQueryResult
from ..graphs.bitset import GraphIdSpace
from ..graphs.graph import LabeledGraph
from . import protocol
from .scheduler import AdmissionError
from .service import QueryTimeout, ServiceClosed

__all__ = ["ServiceClient", "connect"]


def _exception_for(error: dict) -> BaseException:
    """Rebuild the local exception a typed error payload stands for."""
    code = error.get("code", "internal")
    message = error.get("message", "")
    if code == "timeout":
        return QueryTimeout(message)
    if code == "overloaded":
        return AdmissionError(message)
    if code == "closed":
        return ServiceClosed(message)
    if code == "invalid_config":
        return ConfigError(message)
    if code == "internal":
        return RuntimeError(message)
    return protocol.ProtocolError(message, code=code, field=error.get("field"))


class ServiceClient:
    """One connection to a :class:`~repro.service.server.ServiceServer`.

    Parameters
    ----------
    host, port:
        The server's bound address.
    tenant:
        Tenant name stamped on every request — the identity the server's
        fair scheduler applies weights, quotas and rate limits to (and the
        session its stats are attributed to).
    """

    def __init__(self, host: str, port: int, *, tenant: str = "default") -> None:
        self.tenant = tenant
        self._sock = socket.create_connection((host, port))
        self._reader = self._sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        #: request id -> (future, decoder of its result payload or None)
        self._pending: dict[int, tuple] = {}
        self._request_ids = itertools.count(1)
        self._closed = False
        try:
            #: the dataset's id space, read once by the ``hello`` handshake
            self.id_space = self._hello()
        except BaseException:
            self._reader.close()
            self._sock.close()
            raise
        self._reader_thread = threading.Thread(
            target=self._read_responses, name="graph-query-client", daemon=True
        )
        self._reader_thread.start()

    def _hello(self) -> GraphIdSpace:
        """Send ``hello`` and read its reply before any other traffic (the
        reader thread is not running yet).  A refusal raises
        :class:`~repro.service.protocol.ProtocolError` whatever its code."""
        request_id = next(self._request_ids)
        envelope = protocol.encode_request(
            "hello", request_id=request_id, tenant=self.tenant
        )
        self._sock.sendall(protocol.encode_frame(envelope))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("the server closed the connection during hello")
        response = protocol.decode_response(protocol.decode_frame(line))
        if response.error is not None:
            raise protocol.ProtocolError(
                f"hello was refused: {response.error['message']}",
                code=response.error["code"], field=response.error.get("field"),
            )
        if response.request_id != request_id:
            raise protocol.ProtocolError(
                f"response.id={response.request_id!r} is not valid; expected "
                f"the hello's id {request_id}",
                code="invalid_response", field="response.id",
            )
        return protocol.id_space_from_dict(response.result)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _send(self, op: str, payload: dict | None = None, decode=None) -> Future:
        """Send one request; its future resolves to the response's result
        payload, passed through ``decode`` on the reader thread if given."""
        if self._closed:
            raise ServiceClosed("the client is closed")
        request_id = next(self._request_ids)
        future: Future = Future()
        with self._pending_lock:
            self._pending[request_id] = (future, decode)
        envelope = protocol.encode_request(
            op, request_id=request_id, tenant=self.tenant, payload=payload
        )
        try:
            with self._write_lock:
                self._sock.sendall(protocol.encode_frame(envelope))
        except OSError as exc:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ConnectionError("the server connection is gone") from exc
        return future

    def ping(self) -> dict:
        """Round-trip a no-op request (liveness + protocol handshake)."""
        return self._send("ping").result()

    def submit(
        self,
        query: LabeledGraph,
        mode: str | None = None,
        *,
        timeout: float | None = None,
    ) -> Future:
        """Send a query; the future resolves to its :class:`IGQQueryResult`.

        ``timeout`` is enforced *server-side* (the submission expires with
        a ``timeout`` error payload); admission failures surface as
        :class:`~repro.service.scheduler.AdmissionError` — back off and
        resubmit.
        """
        payload: dict = {"graph": protocol.graph_to_dict(query)}
        if mode is not None:
            payload["mode"] = mode
        if timeout is not None:
            payload["timeout"] = timeout
        return self._send("query", payload, self._decode_result)

    def _decode_result(self, payload: dict) -> IGQQueryResult:
        return protocol.result_from_dict(payload, self.id_space)

    def query(
        self,
        query: LabeledGraph,
        mode: str | None = None,
        *,
        timeout: float | None = None,
    ) -> IGQQueryResult:
        """Blocking form of :meth:`submit`."""
        return self.submit(query, mode, timeout=timeout).result()

    def stats(self) -> dict:
        """The server's :meth:`ServiceReport.as_dict` snapshot (+ scheduler)."""
        return self._send("stats").result()

    # ------------------------------------------------------------------
    # Response reader (background thread)
    # ------------------------------------------------------------------
    def _read_responses(self) -> None:
        try:
            while True:
                line = self._reader.readline()
                if not line:
                    break
                self._handle_response(line)
        except (OSError, ValueError):
            pass  # socket torn down under the reader
        finally:
            self._fail_pending(ConnectionError("the server connection closed"))

    def _handle_response(self, line: bytes) -> None:
        response = protocol.decode_response(protocol.decode_frame(line))
        if response.request_id is None:
            # A request so malformed the server could not even read its id;
            # there is no future to route it to — drop it (the sender's
            # future fails when the connection dies, if it ever existed).
            return
        with self._pending_lock:
            entry = self._pending.pop(response.request_id, None)
        if entry is None:
            return
        future, decode = entry
        if not future.set_running_or_notify_cancel():
            return  # cancelled by its caller
        if response.error is not None:
            future.set_exception(_exception_for(response.error))
            return
        try:
            result = response.result if decode is None else decode(response.result)
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _fail_pending(self, exc: BaseException) -> None:
        with self._pending_lock:
            pending, self._pending = dict(self._pending), {}
        for future, _ in pending.values():
            try:
                future.set_exception(exc)
            except Exception:  # noqa: BLE001 - already resolved
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection; outstanding futures fail (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader_thread.join()
        self._reader.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "connected"
        return f"<ServiceClient {state} tenant={self.tenant!r}>"


def connect(host: str, port: int, *, tenant: str = "default") -> ServiceClient:
    """Open a client connection to a served graph-query endpoint."""
    return ServiceClient(host, port, tenant=tenant)
