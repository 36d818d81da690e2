"""Network front door: an asyncio NDJSON server over :class:`GraphQueryService`.

:func:`serve` binds a TCP endpoint speaking the versioned JSON protocol of
:mod:`repro.service.protocol` (one compact JSON envelope per line) and
bridges it onto an open :class:`~repro.service.service.GraphQueryService`:

* every request names a **tenant**; the server maps it onto a service
  session of the same name, so the fair scheduler's per-tenant weights,
  quotas and rate limits (``EngineConfig.service``) apply to network
  traffic exactly as they do embedded;
* query submissions are **non-blocking** — a tenant over its
  ``max_in_flight`` quota receives a typed ``overloaded`` error instead of
  stalling the connection (and everyone behind it);
* responses are written **as results complete**, matched to requests by
  envelope ``id``, so one connection can keep many queries in flight and a
  slow query never blocks the reply to a fast one;
* a ``hello`` request returns the dataset's id space (its graph ids in
  bit-position order); a query's response carries its answers, as a hex
  mask over that space, and its scalar counters only
  (:func:`~repro.service.protocol.result_to_dict`); it is encoded in the
  future's done-callback, normally on the loop thread itself, so every
  byte of it costs serial engine time.

The asyncio event loop runs on a background daemon thread — callers get a
plain synchronous :class:`ServiceServer` handle (``with serve(service) as
server: ...``).  The service is caller-runs, so a wire query normally
executes on the loop thread.  Reading a request only enqueues it; the
loop then runs the queue one task per loop turn (``run_pending(1)``), so
every connection with a request ready is read, and its tenant queued,
between two queries: the scheduler picks among all of them, and the
response of a finished query is written before the next query starts.  A
response computed on the loop thread is queued there directly; a query
that another thread runs (an embedded caller holding the combiner, the
rate limit's wake timer, or a result released by the journal writer) is
handed back to the loop with ``call_soon_threadsafe``.  One query runs at
a time whichever thread runs it, which preserves the engine's sequential
semantics.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass

from . import protocol
from .service import GraphQueryService

__all__ = ["ServiceServer", "serve"]

#: bytes cap of one NDJSON frame (a ~100k-vertex graph fits comfortably)
MAX_FRAME_BYTES = 1 << 24


@dataclass
class _Connection:
    """Per-connection response plumbing (touched only on the loop thread)."""

    #: completed response envelopes waiting for the writer task
    outbox: asyncio.Queue
    #: query futures dispatched but not yet responded to
    outstanding: int = 0
    #: the reader saw EOF; close the writer once outstanding drains
    eof: bool = False

    def finish_one(self) -> None:
        """One response delivered; signal the writer when fully drained."""
        self.outstanding -= 1
        if self.eof and self.outstanding == 0:
            self.outbox.put_nowait(None)


class ServiceServer:
    """A running network endpoint over one :class:`GraphQueryService`.

    Create it with :func:`serve`; ``host``/``port`` report the bound
    address (``port=0`` requests an ephemeral port).  Closing the server
    stops accepting and tears the event loop down; the underlying service
    is *not* closed — its lifecycle belongs to the caller.
    """

    def __init__(self, service: GraphQueryService, host: str, port: int) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: ``threading.get_ident()`` of the loop thread
        self._loop_ident: int | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._closed = False
        self._handler_tasks: set = set()
        self._client_writers: set = set()
        #: a :meth:`_run_pending` callback is scheduled (loop thread only)
        self._run_scheduled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceServer":
        """Bind the socket and start serving on a background thread."""
        self.service.open()
        self._thread = threading.Thread(
            target=self._run_loop, name="graph-query-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._loop_ident = threading.get_ident()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()
        # Graceful connection teardown: closing the transports makes every
        # pending readline() return EOF, after which the handlers flush
        # their outboxes and finish on their own.  Waiting for them here
        # (instead of letting asyncio.run() cancel them mid-write) keeps
        # shutdown silent; a handler stuck past the grace period is left
        # to loop teardown.
        for writer in list(self._client_writers):
            writer.close()
        if self._handler_tasks:
            await asyncio.wait(set(self._handler_tasks), timeout=5.0)

    def close(self) -> None:
        """Stop accepting and shut the event loop down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        return (self.host, self.port)

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "serving"
        return f"<ServiceServer {state} {self.host}:{self.port}>"

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        connection = _Connection(outbox=asyncio.Queue())
        self._handler_tasks.add(asyncio.current_task())
        self._client_writers.add(writer)
        writer_task = asyncio.ensure_future(self._write_responses(writer, connection))
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as end:
                    if end.partial:  # a last frame without its newline
                        self._serve_request(end.partial, connection)
                    break
                self._serve_request(line, connection)
        except asyncio.LimitOverrunError:
            # a frame over MAX_FRAME_BYTES (the reader's limit): answer it
            # with a typed error, read past it (closing on unread input would
            # reset the connection and lose the answer), then close
            connection.outbox.put_nowait(_FRAME_TOO_LARGE)
            await _skip_frame(reader)
        except ConnectionError:
            pass  # client vanished
        finally:
            connection.eof = True
            if connection.outstanding == 0:
                connection.outbox.put_nowait(None)
            self._client_writers.discard(writer)
            await writer_task
            self._handler_tasks.discard(asyncio.current_task())

    def _serve_request(self, line: bytes, connection: _Connection) -> None:
        """Decode and dispatch one frame; errors become typed responses."""
        request_id = None
        try:
            envelope = protocol.decode_frame(line)
            if isinstance(envelope, dict):
                raw_id = envelope.get("id")
                if isinstance(raw_id, int) and not isinstance(raw_id, bool):
                    request_id = raw_id
            request = protocol.decode_request(envelope)
            if request.op == "hello":
                self._respond(
                    connection, request.request_id,
                    protocol.id_space_to_dict(self.service.engine.method.id_space),
                )
            elif request.op == "ping":
                self._respond(connection, request.request_id, {"pong": True})
            elif request.op == "stats":
                report = self.service.stats().as_dict()
                report["scheduler"] = self.service.scheduler_snapshot()
                self._respond(connection, request.request_id, report)
            else:
                self._serve_query(request, connection)
        except BaseException as exc:  # noqa: BLE001 - becomes a typed payload
            connection.outbox.put_nowait(
                protocol.encode_response(request_id, error=protocol.error_to_dict(exc))
            )

    def _serve_query(self, request: protocol.Request, connection: _Connection) -> None:
        payload = request.payload
        unknown = sorted(set(payload) - {"graph", "mode", "timeout"})
        if unknown:
            raise protocol.ProtocolError(
                f"request.payload has unknown key(s) {unknown}; valid keys "
                "are ['graph', 'mode', 'timeout']",
                code="invalid_request",
                field="request.payload",
            )
        graph = protocol.graph_from_dict(
            payload.get("graph"), field="request.payload.graph"
        )
        mode = payload.get("mode")
        if mode is not None and not isinstance(mode, str):
            raise protocol.ProtocolError(
                f"request.payload.mode={mode!r} is not valid; expected a string",
                code="invalid_request",
                field="request.payload.mode",
            )
        timeout = payload.get("timeout")
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        ):
            raise protocol.ProtocolError(
                f"request.payload.timeout={timeout!r} is not valid; expected a number",
                code="invalid_request",
                field="request.payload.timeout",
            )
        session = self.service.session(request.tenant, exist_ok=True)
        # Non-blocking: quota pressure becomes an "overloaded" response
        # instead of stalling every tenant multiplexed on this connection.
        # Only enqueued: the query runs in a later loop turn.
        future = session.submit(graph, mode, timeout=timeout, block=False, run=False)
        self._schedule_run()
        connection.outstanding += 1
        loop = self._loop
        request_id = request.request_id
        space = self.service.engine.method.id_space

        def deliver(done_future) -> None:
            try:
                result = done_future.result()
            except BaseException as exc:  # noqa: BLE001 - becomes a typed payload
                envelope = protocol.encode_response(
                    request_id, error=protocol.error_to_dict(exc)
                )
            else:
                envelope = protocol.encode_response(
                    request_id, result=protocol.result_to_dict(result, space)
                )
            if threading.get_ident() == self._loop_ident:
                # completed on the loop thread (the usual case) — no
                # self-pipe write, no extra loop turn
                self._deliver(connection, envelope)
                return
            try:
                loop.call_soon_threadsafe(self._deliver, connection, envelope)
            except RuntimeError:
                pass  # server torn down before the result came back

        future.add_done_callback(deliver)

    def _schedule_run(self) -> None:
        if not self._run_scheduled:
            self._run_scheduled = True
            self._loop.call_soon(self._run_pending)

    def _run_pending(self) -> None:
        """Run one queued query, then yield the loop to reads and writes
        (requests read meanwhile join the scheduler's choice)."""
        self._run_scheduled = False
        if self.service.run_pending(1):
            self._schedule_run()

    def _deliver(self, connection: _Connection, envelope: dict) -> None:
        """Loop-thread completion: enqueue a query response for the writer."""
        connection.outbox.put_nowait(envelope)
        connection.finish_one()

    def _respond(self, connection: _Connection, request_id: int, result: dict) -> None:
        connection.outbox.put_nowait(
            protocol.encode_response(request_id, result=result)
        )

    async def _write_responses(self, writer, connection: _Connection) -> None:
        """Writer task: drain the outbox until the ``None`` sentinel."""
        try:
            while True:
                envelope = await connection.outbox.get()
                if envelope is None:
                    break
                writer.write(protocol.encode_frame(envelope))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away mid-write
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass


#: the response to a frame over :data:`MAX_FRAME_BYTES` (no request id
#: could be read from it)
_FRAME_TOO_LARGE = protocol.encode_response(
    None,
    error=protocol.error_to_dict(
        protocol.ProtocolError(
            f"frame exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES} bytes); the "
            "connection is closed",
            code="frame_too_large",
        )
    ),
)


async def _skip_frame(reader) -> None:
    """Read and drop the rest of an oversized frame: up to its newline, or
    to the end of the stream."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as overrun:
            await reader.readexactly(overrun.consumed)
        except (asyncio.IncompleteReadError, ConnectionError):
            return


def serve(
    service: GraphQueryService, *, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Expose an (open or openable) service on a TCP endpoint.

    Returns a started :class:`ServiceServer`; ``port=0`` binds an
    ephemeral port (read it back from ``server.port``).  Use as a context
    manager — closing the server leaves ``service`` open for its owner.
    """
    return ServiceServer(service, host, port).start()
