"""Span tracing from outside the program (the per-layer metrics are in ``harness``).

The tracer wraps callables of the objects the benchmark itself built (the
counting-proxy idiom of SNIPPETS.md #3): nothing under ``src/`` is edited.
Every wrap point is looked up by name; one that is gone is recorded in
``Tracer.missing`` and its metrics are reported as ``MISSING`` instead of
breaking the benchmark a later refactor is judged by.

The serial path of every workload is the service's single driver thread.
Its time is tiled by two sibling spans — ``scheduler.next`` (waiting for
work) and ``service.dispatch`` (everything between dequeuing a task and
asking for the next one) — so the self times of the driver-thread spans sum
to the lap's wall time.  Spans on other threads (network clients, the
server's event loop) overlap that wait and are reported per query, outside
the sum.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: value reported for a per-layer metric whose wrap point no longer exists
MISSING = -1.0

_ENCODERS = ("encode_request", "encode_response", "encode_frame", "graph_to_dict",
             "result_to_dict")
_DECODERS = ("decode_request", "decode_response", "decode_frame", "graph_from_dict",
             "result_from_dict")


def optional_import(name):
    """The module called ``name``, or ``None`` if it is gone."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Span:
    """One timed interval; ``parent`` is a span id, ``rid`` the query index."""

    __slots__ = ("id", "name", "start", "end", "parent", "rid", "thread")

    def __init__(self, id, name, start, parent, rid, thread, end=None):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.rid, self.thread = parent, rid, thread

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self, tenants=()):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counters: Counter = Counter()
        self.queue_waits: list[float] = []
        self.service_latencies: list[float] = []
        self._tenants = tuple(tenants) or ("default",)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []
        self._submitted: Counter = Counter()
        #: ``id(task) -> (rid, time it entered its queue)``
        self._enqueued: dict = {}

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.rid = [], None
        return local

    def begin(self, name):
        local = self._state()
        parent = local.stack[-1].id if local.stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, local.rid,
                    threading.get_ident())
        local.stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        stack = self._state().stack
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name, start, end, rid):
        """Record a span measured elsewhere (the callers' request spans)."""
        self.spans.append(Span(next(self._ids), name, start, None, rid, 0, end))

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attribute, name, before=None, after=None):
        """Wrap ``owner.attribute`` in a span called ``name``.

        ``owner`` is an instance (the wrapper shadows its class's method), a
        class or a module (the wrapper replaces the function and
        :meth:`uninstall` puts it back).  A wrap point that is not there goes
        to ``missing``.  ``before()`` runs ahead of the span,
        ``after(span, result, args)`` once it has ended.
        """
        if owner is None or not hasattr(owner, "__dict__") or not hasattr(owner, attribute):
            self.missing.append(name)
            return
        original = getattr(owner, attribute)
        shadowed = attribute in vars(owner)
        previous = vars(owner).get(attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, result, args)
            return result

        setattr(owner, attribute, traced)
        if shadowed:
            self._undo.append(lambda: setattr(owner, attribute, previous))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def install(self, service, method, *, sharded, durable, wire):
        """Wrap every layer boundary reachable from ``service`` and ``method``."""
        engine = service.engine
        self.wrap(getattr(method, "extractor", None), "extract", "features.extract")
        self.wrap(method, "filter_candidates", "methods.filter")
        self.wrap(method, "filter_supergraph_candidates", "methods.filter")
        self.wrap(method, "verify", "isomorphism.verify")
        self.wrap(method, "verify_supergraph", "isomorphism.verify")
        self.wrap(engine, "plan_query", "engine.plan")
        self.wrap(engine, "verify_plan", "engine.verify")
        self.wrap(engine, "complete_query", "engine.complete")
        self.wrap(engine, "_flush_window", "maintenance.flush")
        if sharded:
            runtime = getattr(engine, "shard_runtime", None)
            self.wrap(runtime, "probe", "shard.probe")
            self.wrap(runtime, "sync", "shard.sync")
            shards = getattr(runtime, "shards", None) or ()
            if not shards:
                self.missing += ["isub.probe", "isuper.probe"]
            for shard in shards:
                self.wrap(shard, "find_supergraph_ids", "isub.probe")
                self.wrap(shard, "find_subgraph_ids", "isuper.probe")
        else:
            self.wrap(getattr(engine, "isub", None), "find_supergraphs", "isub.probe")
            self.wrap(getattr(engine, "isuper", None), "find_subgraphs", "isuper.probe")
            self.wrap(getattr(engine, "maintenance", None), "flush", "maintenance.rebuild")
        if durable:
            self.wrap(getattr(engine, "persister", None), "record_flush", "persist.record_flush")
            self.wrap(optional_import("repro.persist.snapshot"), "write_snapshot", "persist.snapshot")
            writer = getattr(optional_import("repro.persist.wal"), "WalWriter", None)
            self.wrap(writer, "append", "persist.append",
                      after=self._count("persist.wal_bytes", int))
        if wire:
            protocol = optional_import("repro.service.protocol")
            for function in _ENCODERS:
                after = self._count("protocol.bytes", len) if function == "encode_frame" else None
                self.wrap(protocol, function, "protocol.encode", after=after)
            for function in _DECODERS:
                self.wrap(protocol, function, "protocol.decode")
        scheduler = getattr(optional_import("repro.service.scheduler"), "FairScheduler", None)
        self.wrap(scheduler, "submit", "scheduler.submit", after=self._after_submit)
        self.wrap(scheduler, "next", "scheduler.next",
                  before=self._before_next, after=self._after_next)
        self.wrap(service, "submit", "service.submit", after=self._after_service_submit)

    def _count(self, counter, measure):
        def after(span, result, args):
            self.counters[counter] += measure(result)
        return after

    # The scheduler is where a request changes threads, so it is where the
    # request id is handed over: the k-th submission of tenant t is stream
    # index t + k * tenants (how ``harness.drive`` slices the stream).
    def _after_submit(self, span, result, args):
        task = args[1] if len(args) > 1 else None
        tenant = getattr(task, "tenant", "default")
        position = self._tenants.index(tenant) if tenant in self._tenants else 0
        rid = position + self._submitted[tenant] * len(self._tenants)
        self._submitted[tenant] += 1
        span.rid = rid
        self._enqueued[id(task)] = (rid, span.end)

    def _before_next(self):
        """The driver asks for work: its open ``service.dispatch`` span ends."""
        local = self._state()
        if local.stack and local.stack[-1].name == "service.dispatch":
            self.end(local.stack[-1])
            local.rid = None

    def _after_next(self, span, task, args):
        entry = self._enqueued.pop(id(task), None)
        if entry is None:  # None (nothing dispatchable) or the CLOSED sentinel
            return
        rid, enqueued_at = entry
        self.queue_waits.append(span.end - enqueued_at)
        self.counters["scheduler.dispatches"] += 1
        self._state().rid = rid
        self.begin("service.dispatch")

    def _after_service_submit(self, span, future, args):
        start = span.start
        future.add_done_callback(
            lambda done: self.service_latencies.append(time.perf_counter() - start)
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def finish(self, lap_start, lap_end):
        """Clip to the lap, link requests across threads, compute self times.

        Leaves ``on_driver`` / ``elsewhere`` (self seconds by span name, on
        the driver thread and off it), ``totals`` (whole-span seconds by
        name) and ``counts`` on the tracer.
        """
        spans = [
            span for span in self.spans
            if span.end is not None and span.end > lap_start and span.start < lap_end
        ]
        for span in spans:
            span.start = max(span.start, lap_start)
            span.end = min(span.end, lap_end)
        requests = {span.rid: span.id for span in spans if span.name == "request"}
        driver_threads = Counter(
            span.thread for span in spans if span.name == "service.dispatch"
        )
        driver = driver_threads.most_common(1)[0][0] if driver_threads else None
        children = defaultdict(list)
        for span in spans:
            if span.name == "service.dispatch" and span.parent is None:
                span.parent = requests.get(span.rid)
            if span.parent is not None:
                children[span.parent].append(span)
        on_driver, elsewhere, totals, counts = Counter(), Counter(), Counter(), Counter()
        self.self_seconds = {}
        for span in spans:
            covered, cursor = 0.0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda child: child.start):
                start, end = max(child.start, cursor), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            own = max(span.seconds - covered, 0.0)
            self.self_seconds[span.id] = own
            (on_driver if span.thread == driver else elsewhere)[span.name] += own
            totals[span.name] += span.seconds
            counts[span.name] += 1
        self.spans = spans
        self.on_driver, self.elsewhere = on_driver, elsewhere
        self.totals, self.counts = totals, counts

    def dump(self, path):
        """Write one JSON object per span (times in seconds from the first)."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda span: span.start):
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent, "rid": span.rid,
                    "thread": span.thread, "start": round(span.start - origin, 7),
                    "end": round(span.end - origin, 7),
                    "self": round(self.self_seconds.get(span.id, 0.0), 7),
                }) + "\n")
