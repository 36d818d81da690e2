"""Set-up cycles, timed laps, correctness checks and the metrics of one workload.

A run of a workload is: three cold set-up cycles, one untimed warm-up lap,
then timed laps — each a fixed number of queries on a fresh service and an
empty cache over the same built method — until ``--seconds`` have passed
(never fewer than three).  Laps replay identical work, so counts repeat
exactly and every timing is a median over the laps, taken chunk by chunk and
query by query, of values first divided by the machine's measured slowdown
(see "Machine-speed calibration" below and README.md).
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import shutil
import signal
import statistics
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import GraphQueryService, LabeledGraph, connect, create_method, serve

from .trace import MISSING, Tracer, optional_import
from .workloads import TAIL, Workload

#: build outputs and traces; named in the root ``.gitignore``
OUT = Path(__file__).resolve().parent / "out"
MIN_LAPS = 3
SETUP_CYCLES = 3
WARMUP_QUERIES = 100


class BenchmarkFailure(Exception):
    """A correctness check failed; the message says which."""


# ----------------------------------------------------------------------
# Running one service and driving it
# ----------------------------------------------------------------------
def _scratch_dir() -> str:
    OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="persist-", dir=OUT)


@contextmanager
def running(workload: Workload, method, persist_dir=None, database=None, tracer=None):
    """Open the workload's service (and front door); yield ``(service, callers)``.

    A caller is anything with ``submit(query) -> Future``: the service
    itself when embedded, one network client per tenant otherwise.
    """
    service = GraphQueryService(method, workload.config(persist_dir), database=database)
    if tracer is not None:
        tracer.install(
            service, method,
            sharded=service.config.shard.shards > 1,
            durable=workload.durable,
            wire=bool(workload.tenants),
        )
    try:
        with service:
            if not workload.tenants:
                yield service, [service]
                return
            with serve(service) as server:
                clients = [connect(server.host, server.port, tenant=t) for t in workload.tenants]
                try:
                    yield service, clients
                finally:
                    for client in clients:
                        client.close()
    finally:
        if tracer is not None:
            tracer.uninstall()


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
# The reference box is a shared VM whose speed drops by 1.2-3x for tens of
# seconds at a time (a fixed loop measured over minutes shows it), far more
# than any bound a regression check could use.  So every timing is divided
# by the slowdown a fixed calibration loop saw right around it: reported
# times are "at reference speed", and they stay put while the box does not.
PROBE_LOOPS = 20000
#: quiet duration of :func:`probe` between chunks on the reference box
PROBE_REFERENCE_S = 0.00195
#: The engine loses more to a busy neighbour than the probe does (it has the
#: larger working set to refill after every time slice): over 15 minutes of
#: fixed work, with the box between 1x and 1.9x slower, work time tracked
#: probe time to the power 1.3-1.4, whichever kind of probe was used.
PROBE_EXPONENT = 1.3
#: queries between two probes; a chunk drains the callers' pipelines
CHUNK = 24


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now (~2 ms)."""
    begin = time.perf_counter()
    total, table = 0, {}
    for index in range(PROBE_LOOPS):
        table[index & 255] = total
        total += index * index % 7
    return time.perf_counter() - begin


def slowdown(*probes) -> float:
    """How much slower than the reference the box runs the engine (1.0 = reference)."""
    return (statistics.fmean(probes) / PROBE_REFERENCE_S) ** PROBE_EXPONENT


class Phases:
    """Times consecutive single-threaded phases at reference speed.

    A phase such as ``build_index`` cannot be cut into chunks from outside,
    so an interval timer interrupts the main thread every ``TICK`` seconds
    and the signal handler runs the probe there.  A phase's time is its wall
    time minus the probes it hosted, divided by their mean slowdown.  Main
    thread only; the few milliseconds in which a service thread answers the
    first query are the only time a probe shares the interpreter.
    """

    TICK = 0.04

    def __init__(self):
        self.seconds: dict = {}
        self._probes = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        self._start = time.perf_counter()

    def _tick(self, signum, frame):
        if self._start is not None:  # not while a boundary probe runs
            self._probes.append(probe())

    def end(self, name):
        """Close the current phase as ``name`` and start the next one."""
        stop = time.perf_counter()
        started, self._start = self._start, None
        probes = self._probes + [probe()]
        hosted = sum(probes[1:-1])
        self.seconds[name] = (stop - started - hosted) / slowdown(*probes)
        self._probes = probes[-1:]
        self._start = time.perf_counter()

    def stop(self):
        """Switch the timer off (idempotent)."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


# ----------------------------------------------------------------------
# Laps
# ----------------------------------------------------------------------
#: chunks on either side whose probes are averaged into a chunk's slowdown
SMOOTH = 2


@dataclass
class Lap:
    """What one lap measured; times ending in ``_n`` are at reference speed."""

    #: per chunk: ``(start, stop, cpu seconds)``
    chunks: list
    #: ``probes[c]`` ran just before chunk ``c``; one more follows the last
    probes: list
    starts: list
    latencies: list
    results: list
    report: object = None
    persist_dir: str | None = None
    tail_results: list = field(default_factory=list)
    #: the closed engine of a traced lap, for its counters
    engine: object = None

    def __post_init__(self):
        self.failed = sum(isinstance(result, Exception) for result in self.results)
        self.tests = sum(
            result.num_isomorphism_tests
            for result in self.results if not isinstance(result, Exception)
        )
        #: blake2 over ``(query name, sorted answers)`` in stream order
        state = hashlib.blake2b(digest_size=16)
        for result in self.results:
            state.update(repr(_answer_key(result)).encode())
        self.digest = state.hexdigest()
        self.start, self.end = self.chunks[0][0], self.chunks[-1][1]
        slow = [
            slowdown(*self.probes[max(chunk - SMOOTH, 0):chunk + SMOOTH + 2])
            for chunk in range(len(self.chunks))
        ]
        #: seconds spent answering (the probes between chunks excluded)
        self.wall = sum(stop - start for start, stop, _ in self.chunks)
        self.chunk_wall_n = [
            (stop - start) / slow[chunk] for chunk, (start, stop, _) in enumerate(self.chunks)
        ]
        self.chunk_cpu_n = [cpu / slow[chunk] for chunk, (_, _, cpu) in enumerate(self.chunks)]
        self.wall_n = sum(self.chunk_wall_n)
        #: a failed query has no latency: it is missing from every percentile
        self.latencies_n = [
            latency / slow[index // CHUNK] if latency is not None else None
            for index, latency in enumerate(self.latencies)
        ]


def across_laps(laps, attribute):
    """Element-wise median over the laps of a per-chunk or per-query list.

    The laps replay the same stream against the same state, so element ``i``
    is the same work in each: its median drops whatever disturbed one lap.
    """
    columns = zip(*(getattr(lap, attribute) for lap in laps))
    return [
        statistics.median(kept) if (kept := [v for v in column if v is not None]) else None
        for column in columns
    ]


def percentile(values, fraction):
    """Mean of the order statistics within half a percent of rank ``fraction``.

    One order statistic in the tail jumps from sample to sample; the mean of
    a window one percent wide estimates the same quantile with less variance.
    """
    ordered = sorted(value for value in values if value is not None)
    low = int((fraction - 0.005) * len(ordered))
    high = max(int((fraction + 0.005) * len(ordered)), low + 1)
    return statistics.fmean(ordered[low:high])


def _answer_key(result):
    if isinstance(result, Exception):
        return type(result).__name__
    return result.query_name, sorted(map(repr, result.answers))


def drive(callers, stream, depth) -> Lap:
    """Closed loop over ``stream``, one chunk of ``CHUNK`` queries at a time.

    Within a chunk caller ``i`` sends the stream indices congruent to ``i``
    in order, keeping ``depth`` submissions outstanding; between chunks
    every caller has its answers and the service is idle, which is when the
    calibration probe runs.  A failed query leaves its exception in
    ``results`` and no latency.
    """
    size, step = len(stream), len(callers)
    starts, latencies, results = [None] * size, [None] * size, [None] * size
    bounds = [(begin, min(begin + CHUNK, size)) for begin in range(0, size, CHUNK)]

    def reap(window):
        index, future = window.popleft()
        try:
            results[index] = future.result(timeout=120)
            latencies[index] = time.perf_counter() - starts[index]
        except Exception as exc:  # noqa: BLE001 - a failure is data here
            results[index] = exc

    def run(position, begin, end):
        caller, window = callers[position], deque()
        for index in range(begin + (position - begin) % step, end, step):
            if len(window) >= depth:
                reap(window)
            starts[index] = time.perf_counter()
            try:
                window.append((index, caller.submit(stream[index])))
            except Exception as exc:  # noqa: BLE001
                results[index] = exc
        while window:
            reap(window)

    # Several callers run on threads of their own; this thread keeps the
    # clock and meets them at a barrier before and after every chunk.
    barrier = threading.Barrier(step + 1)

    def worker(position):
        for begin, end in bounds:
            barrier.wait(timeout=300)
            run(position, begin, end)
            barrier.wait(timeout=300)

    threads = (
        [threading.Thread(target=worker, args=(position,)) for position in range(step)]
        if step > 1 else []
    )
    for thread in threads:
        thread.start()
    chunks, probes = [], [probe()]
    for begin, end in bounds:
        if threads:
            barrier.wait(timeout=300)
        cpu, start = time.process_time(), time.perf_counter()
        if threads:
            barrier.wait(timeout=300)
        else:
            run(0, begin, end)
        stop, cpu = time.perf_counter(), time.process_time() - cpu
        chunks.append((start, stop, cpu))
        probes.append(probe())
    for thread in threads:
        thread.join()
    return Lap(chunks, probes, starts, latencies, results)


def run_lap(workload, method, stream, tail=(), tracer=None) -> Lap:
    """One lap on a fresh service; ``tail`` is answered after the clock stops."""
    persist_dir = _scratch_dir() if workload.durable else None
    gc.collect()
    with running(workload, method, persist_dir, tracer=tracer) as (service, callers):
        lap = drive(callers, stream, workload.depth)
        lap.tail_results = drive(callers[:1], tail, 1).results if tail else []
        lap.report = service.stats()
        lap.engine = service.engine if tracer is not None else None
    lap.persist_dir = persist_dir
    return lap


# ----------------------------------------------------------------------
# Set-up and restart
# ----------------------------------------------------------------------
def setup_cycle(workload, scale, first_query) -> dict:
    """One cold start: data, index, compiled graphs, service, first answer."""
    persist_dir = _scratch_dir() if workload.durable else None
    supergraph = workload.mode == "supergraph"
    with Phases() as phases:
        database, _ = workload.make_databases(scale)
        phases.end("load_s")
        method = create_method(workload.method, **workload.method_kwargs)
        method.build_index(database)
        phases.end("build_index_s")
        database.precompile(targets=not supergraph, plans=supergraph)
        phases.end("precompile_s")
        with running(workload, method, persist_dir) as (_, callers):
            callers[0].submit(first_query).result(timeout=120)
            phases.end("boot_s")
    if persist_dir:
        shutil.rmtree(persist_dir)
    seconds = phases.seconds
    return {
        "method": method,
        "database": database,
        **seconds,
        "setup_s": sum(seconds.values()),
        # a restart keeps the generated (and compiled) database object
        "restart_s": seconds["build_index_s"] + seconds["boot_s"],
    }


def restart(workload, database, persist_dir, queries):
    """New method + new service over ``persist_dir``; time to the first answer.

    Returns ``(seconds, entries recovered, results, cache size at close)``.
    """
    with Phases() as phases:
        method = create_method(workload.method, **workload.method_kwargs)
        with running(workload, method, persist_dir, database=database) as (service, callers):
            recovered = len(service.engine.cache)
            first = callers[0].submit(queries[0]).result(timeout=120)
            phases.end("restart_s")
            phases.stop()  # the rest of the tail is answered untimed
            rest = drive(callers, queries[1:], 1).results
            closing_size = service.stats().cache_size
    return phases.seconds["restart_s"], recovered, [first, *rest], closing_size


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_against_bare(workload, method, stream, results, seed):
    """A seeded 10 % of the answers equal the uncached method's, one by one."""
    ask = method.supergraph_query if workload.mode == "supergraph" else method.query
    sample = random.Random(seed).sample(range(len(stream)), max(len(stream) // 10, 1))
    bare: dict = {}
    for index in sample:
        query = stream[index]
        if id(query) not in bare:
            bare[id(query)] = sorted(map(repr, ask(query).answers))
        if _answer_key(results[index]) != (query.name, bare[id(query)]):
            raise BenchmarkFailure(
                f"{workload.name}: query {index} ({query.name}) differs from the bare method"
            )


def check_laps(workload, laps):
    digests = {lap.digest for lap in laps}
    if len(digests) != 1:
        raise BenchmarkFailure(f"{workload.name}: answer digests differ across laps: {digests}")
    failed = sum(lap.failed for lap in laps)
    if failed:
        raise BenchmarkFailure(f"{workload.name}: {failed} queries failed")


def timed_restarts(workload, database, laps, tail, cycles):
    """Restart ``cycles`` times from what the last timed lap left on disk.

    The first restart answers ``tail`` and must match the first lap, which
    answered the same queries without ever restarting.
    """
    persist_dir, expected = laps[-1].persist_dir, laps[-1].report.cache_size
    seconds, recovered_entries = [], None
    for cycle in range(cycles):
        took, recovered, results, closing_size = restart(workload, database, persist_dir, tail)
        if recovered != expected:
            raise BenchmarkFailure(
                f"{workload.name}: restart recovered {recovered} entries, expected {expected}"
            )
        if cycle == 0:
            recovered_entries = recovered
            reference = [_answer_key(result) for result in laps[0].tail_results]
            if [_answer_key(result) for result in results] != reference:
                raise BenchmarkFailure(
                    f"{workload.name}: the restarted service answers differently"
                )
        expected = closing_size
        seconds.append(took)
    return seconds, recovered_entries


# ----------------------------------------------------------------------
# The run of one workload
# ----------------------------------------------------------------------
def isomorphic_copy(graph, rng):
    """``graph`` with its vertex ids, vertex order and edge order permuted."""
    order = list(graph.vertices())
    rng.shuffle(order)
    renamed = {vertex: index for index, vertex in enumerate(order)}
    copy = LabeledGraph(name=graph.name)
    for vertex in order:
        copy.add_vertex(renamed[vertex], graph.label(vertex))
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v in edges:
        copy.add_edge(renamed[u], renamed[v], graph.edge_label(u, v))
    return copy


def prepare(workload, seed, quick):
    """``(scale, stream, tail)``: the trace, re-encoded under ``seed``.

    Every distinct query graph of the trace is replaced by a seeded
    isomorphic copy (a repeat stays a repeat of the same object).  That
    changes the bytes on the wire, hash and iteration orders and the
    matcher's search order, but no answer and no count — so what differs
    between seeds is how the machine and the code take the encoding, not the
    work asked for.  (Replaying from a seeded offset instead moved
    ``iso_tests_per_query`` by up to 2x: the cache is chaotic in the
    arrival order.)  ``tail`` is what the trace holds beyond a lap.
    """
    scale = 0.5 if quick else 1.0
    size = max(workload.lap_queries // 20, 40) if quick else workload.lap_queries
    _, source = workload.make_databases(scale)
    trace = workload.make_trace(source, size + (TAIL if workload.durable else 0))
    rng = random.Random(seed)
    copies = {id(graph): isomorphic_copy(graph, rng) for graph in dict.fromkeys(trace)}
    stream = [copies[id(graph)] for graph in trace]
    return scale, stream[:size], stream[size:]


def cleanup(laps):
    for lap in laps:
        if lap.persist_dir:
            shutil.rmtree(lap.persist_dir, ignore_errors=True)


def run_untraced(workload, seed, seconds, quick=False):
    """End-to-end metrics of one workload: ``(metrics, info)``."""
    scale, stream, tail = prepare(workload, seed, quick)
    cycles = []
    for _ in range(1 if quick else SETUP_CYCLES):
        if cycles:  # one built method is enough; let the earlier ones go
            del cycles[-1]["method"], cycles[-1]["database"]
        cycles.append(setup_cycle(workload, scale, stream[0]))
    method, database = cycles[-1]["method"], cycles[-1]["database"]

    cleanup([run_lap(workload, method, stream[:WARMUP_QUERIES])])
    laps, began = [], time.perf_counter()
    try:
        while len(laps) < MIN_LAPS or (not quick and time.perf_counter() - began < seconds):
            laps.append(run_lap(workload, method, stream, tail=() if laps else tail))
            if len(laps) > 1:  # only the first lap's answers are compared one by one
                laps[-1].results = None
        check_laps(workload, laps)
        check_against_bare(workload, method, stream, laps[0].results, seed)
        if workload.durable:
            restarts, _ = timed_restarts(workload, database, laps, tail, len(cycles))
        else:
            restarts = [cycle["restart_s"] for cycle in cycles]
    finally:
        cleanup(laps)

    size = len(stream)
    median = statistics.median
    latencies = across_laps(laps, "latencies_n")
    metrics = {
        "qps": size / sum(across_laps(laps, "chunk_wall_n")),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "cpu_ms_per_query": sum(across_laps(laps, "chunk_cpu_n")) / size * 1e3,
        "iso_tests_per_query": median(lap.tests / size for lap in laps),
        "setup_s": median(cycle["setup_s"] for cycle in cycles),
        "restart_s": median(restarts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "attempted": size * len(laps),
        "failed": sum(lap.failed for lap in laps),
        "laps": len(laps),
        "lap_seconds": [round(lap.wall, 3) for lap in laps],
        "lap_slowdown": [round(lap.wall / lap.wall_n, 3) for lap in laps],
        "raw_qps": round(median(size / lap.wall for lap in laps), 3),
        "probe_quartile_ms": round(
            statistics.quantiles([p for lap in laps for p in lap.probes], n=4)[0] * 1e3, 4
        ),
        "latency_samples_per_lap": size,
        "digest": laps[0].digest,
        "kernel": laps[0].report.kernel_resolved.get("parent"),
    }
    return metrics, info


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _verifier_counts(verifier):
    stats = getattr(verifier, "stats", None)
    return (getattr(stats, "tests", 0), getattr(stats, "positives", 0)) if stats else (0, 0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _dir_bytes(path):
    return sum(child.stat().st_size for child in Path(path).iterdir() if child.is_file())


def run_traced(workload, seed, quick=False):
    """Per-layer metrics of one workload: ``(metrics, info)``.

    One set-up cycle, a warm-up lap, one lap with tracing off and one with
    it on; the spans go to ``out/trace-<workload>.jsonl``.
    """
    scale, stream, tail = prepare(workload, seed, quick)
    cycle = setup_cycle(workload, scale, stream[0])
    method, database = cycle["method"], cycle["database"]
    cleanup([run_lap(workload, method, stream[:WARMUP_QUERIES])])
    plain = run_lap(workload, method, stream, tail=tail)
    tracer = Tracer(workload.tenants)
    tests_before, positives_before = _verifier_counts(getattr(method, "verifier", None))
    traced = run_lap(workload, method, stream, tracer=tracer)
    tests, positives = _verifier_counts(getattr(method, "verifier", None))
    tests, positives = tests - tests_before, positives - positives_before
    laps = [plain, traced]
    try:
        check_laps(workload, laps)
        for index, latency in enumerate(traced.latencies):
            tracer.add("request", traced.starts[index], traced.starts[index] + latency, index)
        tracer.finish(traced.start, traced.end)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload.name}.jsonl")
        metrics = layer_metrics(workload, tracer, traced, cycle, method, tests, positives)
        metrics["trace.overhead_ratio"] = traced.wall_n / plain.wall_n
        if workload.durable:
            recover_dir = getattr(optional_import("repro.persist.restore"), "recover_dir", None)
            if recover_dir is None:
                metrics["persist.recover_ms"] = MISSING
            else:
                begin = time.perf_counter()
                recover_dir(traced.persist_dir)
                metrics["persist.recover_ms"] = (time.perf_counter() - begin) * 1e3
            _, metrics["persist.recovered_entries"] = timed_restarts(
                workload, database, laps, tail, 1
            )
    finally:
        cleanup(laps)
    size = len(stream)
    info = {
        "attempted": size * len(laps),
        "failed": sum(lap.failed for lap in laps),
        "missing_hooks": sorted(set(tracer.missing)),
        "kernel": traced.report.kernel_resolved.get("parent"),
        "driver_self_ms_per_query": {
            name: round(seconds / size * 1e3, 4)
            for name, seconds in tracer.on_driver.most_common()
        },
    }
    return metrics, info


def layer_metrics(workload, tracer, lap, cycle, method, tests, positives) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced lap.

    ``*_per_query`` times are self times (a span minus its children) on the
    driver thread, so they add up; the protocol rows also count the client
    and event-loop threads, which overlap the driver's wait.  Times are
    scaled to reference speed by the lap's own slowdown.
    """
    size, report = len(lap.results), lap.report
    totals = report.totals
    missing = set(tracer.missing)
    everywhere = tracer.on_driver + tracer.elsewhere
    to_reference = lap.wall_n / lap.wall
    span = lap.end - lap.start
    # the calibration probes run while the driver waits; they are not its idling
    idle = tracer.on_driver["scheduler.next"] - (span - lap.wall)

    def per_query(name, unit=1e3, source=tracer.on_driver):
        return MISSING if name in missing else source[name] * to_reference / size * unit

    def per_flush(name):
        if name in missing:
            return MISSING
        return _ratio(tracer.totals[name] * to_reference, flushes) * 1e3

    results = lap.results
    candidates = sum(len(result.candidates) for result in results)
    answers = sum(len(result.answers) for result in results)
    # Over the wire the maintenance report does not travel; the span count does.
    flush_reports = [result.maintenance for result in results if result.maintenance]
    flushes = tracer.counts["maintenance.flush"] or len(flush_reports)
    waits = sorted(tracer.queue_waits) or [0.0]
    igq_tests, igq_positives = _verifier_counts(getattr(lap.engine, "igq_verifier", None))
    index_bytes = getattr(lap.engine, "index_size_bytes", None)
    return {
        "protocol.encode_us_per_query": per_query("protocol.encode", 1e6, everywhere),
        "protocol.decode_us_per_query": per_query("protocol.decode", 1e6, everywhere),
        "protocol.bytes_per_query": tracer.counters["protocol.bytes"] / size,
        "wire.overhead_ms_per_query": (
            (statistics.fmean(lap.latencies) - statistics.fmean(tracer.service_latencies))
            * to_reference * 1e3
            if workload.tenants and tracer.service_latencies else 0.0
        ),
        "scheduler.queue_wait_ms_p50": waits[len(waits) // 2] * to_reference * 1e3,
        "scheduler.queue_wait_ms_p99": (
            waits[min(int(0.99 * len(waits)), len(waits) - 1)] * to_reference * 1e3
        ),
        "scheduler.dispatches": tracer.counters["scheduler.dispatches"],
        "scheduler.idle_ms_per_query": (
            MISSING if "scheduler.next" in missing else max(idle, 0.0) * to_reference / size * 1e3
        ),
        "service.dispatch_us_per_query": per_query("service.dispatch", 1e6),
        "batch.pipelined_plans": report.pipelined_plans,
        "batch.pipeline_replans": report.pipeline_replans,
        "batch.feature_memo_hit_ratio": _ratio(
            report.feature_memo_hits, report.feature_memo_hits + report.feature_memo_misses
        ),
        "engine.plan_ms_per_query": per_query("engine.plan"),
        "engine.verify_ms_per_query": per_query("engine.verify"),
        "engine.complete_ms_per_query": per_query("engine.complete"),
        "engine.index_bytes": index_bytes() if index_bytes else MISSING,
        "features.extract_ms_per_query": per_query("features.extract"),
        "methods.filter_ms_per_query": per_query("methods.filter"),
        "methods.candidates_per_query": candidates / size,
        "methods.false_positive_ratio": _ratio(candidates - answers, candidates),
        "methods.build_index_s": cycle["build_index_s"],
        "methods.index_bytes": method.index_size_bytes(),
        "isub.probe_ms_per_query": per_query("isub.probe"),
        "isuper.probe_ms_per_query": per_query("isuper.probe"),
        "containment.tests_per_query": igq_tests / size,
        "containment.hit_ratio": _ratio(igq_positives, igq_tests),
        "cache.hit_rate": totals.hit_rate,
        "cache.exact_hit_rate": _ratio(totals.exact_hits, totals.queries),
        "cache.pruned_per_query": totals.pruned_candidates / size,
        "isomorphism.verify_ms_per_query": per_query("isomorphism.verify"),
        "isomorphism.us_per_test": (
            MISSING if "isomorphism.verify" in missing
            else _ratio(tracer.on_driver["isomorphism.verify"] * to_reference, tests) * 1e6
        ),
        "isomorphism.positive_ratio": _ratio(positives, tests),
        "maintenance.flushes": flushes,
        "maintenance.flush_ms_per_flush": per_flush("maintenance.flush"),
        "maintenance.evictions_per_flush": _ratio(
            sum(flush.evicted for flush in flush_reports), len(flush_reports)
        ),
        "maintenance.wall_share": (
            MISSING if "maintenance.flush" in missing
            else tracer.totals["maintenance.flush"] / lap.wall
        ),
        "shard.probe_ms_per_query": per_query("shard.probe"),
        "shard.delta_records_per_flush": _ratio(report.delta_log.get("version", 0), flushes),
        "shard.log_length": report.delta_log.get("length", 0),
        "shard.records_folded": report.delta_log.get("records_folded", 0),
        "shard.replicas_live": report.replicas_live,
        "shard.moves_applied": report.moves_applied,
        "persist.record_flush_ms_per_flush": per_flush("persist.record_flush"),
        "persist.wal_bytes_per_query": tracer.counters["persist.wal_bytes"] / size,
        "persist.disk_bytes": _dir_bytes(lap.persist_dir) if lap.persist_dir else 0,
        "persist.snapshots_written": tracer.counts["persist.snapshot"],
        "persist.recover_ms": 0.0,
        "persist.recovered_entries": 0,
        "datasets.load_s": cycle["load_s"],
        "graphs.precompile_s": cycle["precompile_s"],
        "trace.accounted_ratio": sum(tracer.on_driver.values()) / span,
    }
