"""Exhaustive path enumeration (the feature class of GGSX and Grapes).

GraphGrepSX and Grapes index *all* simple paths of the dataset graphs up to a
maximum length (number of edges; 4 in the paper's experiments).  The same
enumeration is reused by the iGQ ``Isuper`` index, whose Algorithm 1 records
the features of every previously executed query together with their number
of occurrences.

Every undirected path is counted exactly once (a path and its reverse are the
same occurrence); the canonical label tuple of the path (see
:func:`repro.features.canonical.canonical_path_key`) is the feature key.
Location information — the set of vertices participating in at least one
occurrence of the feature — is kept as well, because Grapes uses it to
restrict verification to the relevant region of a candidate graph.

Two implementations produce the same features.  :func:`native_path_features`
hands the graph to the C kernel (``ck_path_features`` in
``isomorphism/_ckernel.c``) as a small CSR and decodes the few dozen
distinct path codes it returns; :func:`path_features` over
:func:`enumerate_simple_paths` is the pure-Python form — the fallback when
the kernel is unavailable or a graph's codes do not fit 64 bits, and the
oracle the native one is tested against.

**Feature codes.**  The kernel also returns the features as ``(code,
count)`` pairs whose codes compare *across graphs*: a path's canonical label
sequence spelt with one process-wide byte per label text, most significant
byte first, so two graphs share a code exactly when they share the key.
That is the form the iGQ component indexes' native probe table
(:mod:`repro.core.probe`) filters on.  The byte table is append-only and per
process, so codes are never pickled; :func:`encode_path_keys` rebuilds them
from the keys for a feature table that crossed a pipe or the WAL.
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain

from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import _packed
from .canonical import canonical_path_key

__all__ = [
    "PathOccurrences",
    "encode_path_keys",
    "enumerate_simple_paths",
    "native_path_features",
    "path_features",
]


#: a native path code spends one byte per vertex on ``rank + 1``
_MAX_CODE_LABELS = 255
_MAX_CODE_LENGTH = 7

#: process-wide label text -> byte of the cross-graph feature codes, assigned
#: on first sight from 1 (0 marks the end of a path); append-only, so a code
#: stays valid for the life of the process
_LABEL_BYTES: dict[str, int] = {}
_LABEL_BYTES_LOCK = threading.Lock()
_MAX_LABEL_BYTES = 254


def _label_bytes(texts: list[str]) -> list[int] | None:
    """The process-wide byte of each of ``texts``; ``None`` once they no
    longer all fit the table (none of them is assigned then, so one
    wide-alphabet graph cannot use up the table for everybody else)."""
    table = _LABEL_BYTES
    try:
        return [table[text] for text in texts]
    except KeyError:
        pass
    with _LABEL_BYTES_LOCK:
        unseen = {text for text in texts if text not in table}
        if len(table) + len(unseen) > _MAX_LABEL_BYTES:
            return None
        for text in sorted(unseen):
            table[text] = len(table) + 1
    return [table[text] for text in texts]


def encode_path_keys(counts: Mapping[tuple[str, ...], int]) -> array | None:
    """``counts`` as the ``(code, count)`` pairs the kernel returns.

    One ``array("Q")`` holding the pairs back to back, code ascending; equal
    to the third element of :func:`native_path_features` for the graph the
    keys came from.  ``None`` when a key is longer than a code or the label
    table is full.  A Python loop over the features: for tables that lost
    their codes to pickling, not for the query path.
    """
    texts = sorted({text for key in counts for text in key})
    if _label_bytes(texts) is None or any(len(key) > _MAX_CODE_LENGTH + 1 for key in counts):
        return None
    byte_of = _LABEL_BYTES.__getitem__
    # a code reads its key's bytes from the most significant end down
    # (little-endian host, as everywhere in the native binding)
    codes = array("Q")
    codes.frombytes(b"".join([bytes(map(byte_of, key)).ljust(8, b"\0") for key in counts]))
    codes.byteswap()
    return array("Q", chain.from_iterable(sorted(zip(codes, counts.values()))))


@dataclass
class PathOccurrences:
    """Aggregate information about one path feature within one graph."""

    count: int = 0
    vertices: set = field(default_factory=set)

    def record(self, path: tuple[Hashable, ...]) -> None:
        """Record one more occurrence along the vertex sequence ``path``."""
        self.count += 1
        self.vertices.update(path)


def enumerate_simple_paths(
    graph: LabeledGraph,
    max_length: int,
    min_length: int = 0,
) -> Iterator[tuple[Hashable, ...]]:
    """Yield every simple path with ``min_length..max_length`` edges.

    Paths are yielded as vertex tuples; each undirected path is yielded
    exactly once (in the direction whose vertex-repr sequence is smaller).
    Zero-length paths are the single vertices.
    """
    if max_length < 0:
        raise ValueError("max_length must be non-negative")
    if min_length < 0:
        raise ValueError("min_length must be non-negative")

    if min_length == 0:
        for vertex in graph.vertices():
            yield (vertex,)

    if max_length == 0:
        return

    reprs = {vertex: repr(vertex) for vertex in graph.vertices()}

    def extend(path: list[Hashable], on_path: set) -> Iterator[tuple[Hashable, ...]]:
        last = path[-1]
        for neighbor in graph.neighbors(last):
            if neighbor in on_path:
                continue
            path.append(neighbor)
            on_path.add(neighbor)
            if len(path) - 1 >= max(min_length, 1) and _is_canonical_direction(path, reprs):
                yield tuple(path)
            if len(path) - 1 < max_length:
                yield from extend(path, on_path)
            on_path.discard(neighbor)
            path.pop()

    for vertex in graph.vertices():
        yield from extend([vertex], {vertex})


def _is_canonical_direction(path: list[Hashable], reprs: dict[Hashable, str]) -> bool:
    """True if the path's vertex-repr sequence is not larger than its reverse.

    The two sequences start with the reprs of the path's two (distinct)
    endpoints, so those decide unless two vertices share a repr.
    """
    first, last = reprs[path[0]], reprs[path[-1]]
    if first != last:
        return first < last
    forward = [reprs[vertex] for vertex in path]
    return forward <= forward[::-1]


def path_features(
    graph: LabeledGraph,
    max_length: int,
    min_length: int = 0,
    locations: bool = True,
) -> dict[tuple[str, ...], PathOccurrences]:
    """Return the path features of ``graph``.

    The result maps the canonical label tuple of each path feature (the
    value of :func:`~repro.features.canonical.canonical_path_key`) to a
    :class:`PathOccurrences` record with the occurrence count and the set of
    vertices covered by its occurrences (left empty with
    ``locations=False`` — only Grapes' dataset index reads it).
    """
    text = {vertex: str(graph.label(vertex)) for vertex in graph.vertices()}
    features: dict[tuple[str, ...], PathOccurrences] = {}
    for path in enumerate_simple_paths(graph, max_length, min_length=min_length):
        key = canonical_path_key([text[vertex] for vertex in path])
        occurrences = features.get(key)
        if occurrences is None:
            occurrences = features[key] = PathOccurrences()
        if locations:
            occurrences.record(path)
        else:
            occurrences.count += 1
    return features


def native_path_features(
    graph: LabeledGraph, max_length: int, locations: bool = False
) -> tuple[dict[tuple[str, ...], int], dict[tuple[str, ...], int], array | None] | None:
    """:func:`path_features` of ``graph`` computed by the C kernel.

    Returns ``(counts, location masks, codes)``: the first two keyed like
    :func:`path_features`, keys in ascending order; a mask covers the
    positions of ``graph.vertices()`` (empty dict unless ``locations``);
    ``codes`` is the cross-graph form of ``counts`` (see
    :func:`encode_path_keys`), ``None`` once the process-wide label table
    is full.  The whole result is ``None`` when
    the kernel is unavailable in this process, or when a path's label
    sequence does not pack into one 64-bit code (a byte per vertex: more
    than 255 distinct label strings in the graph, or ``max_length`` above
    7) — the caller then runs the Python enumeration.

    One call per graph, the interpreter lock released for its duration; all
    buffers are per call, so concurrent extractions do not interfere.
    """
    library = _ckernel_loader.kernel()
    if library is None:
        return None
    num_vertices = graph.num_vertices
    texts = [str(graph.label(vertex)) for vertex in graph.vertices()]
    names = sorted(set(texts))
    if len(names) > _MAX_CODE_LABELS or max_length > _MAX_CODE_LENGTH:
        return None
    rank_of = {text: rank for rank, text in enumerate(names)}
    label_bytes = _label_bytes(names)
    # ``buffer`` owns the columns for the duration of the call
    buffer, (*csr, bytes_address) = _packed(
        *graph.csr(), [rank_of[text] for text in texts], label_bytes or ()
    )
    block = library.ck_path_features(
        num_vertices, *csr, max_length, locations,
        None if label_bytes is None else bytes_address,
    )
    if not block:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native path extraction could not allocate its result")
    try:
        distinct = ctypes.c_uint64.from_address(block).value
        row_bytes = 8 * ((num_vertices + 63) // 64) if locations else 0
        pairs_start = distinct * (16 + row_bytes)
        payload = ctypes.string_at(
            block + 8, pairs_start + (16 * distinct if label_bytes is not None else 0)
        )
    finally:
        library.ck_free(block)
    pairs = None
    if label_bytes is not None:
        pairs = array("Q")
        pairs.frombytes(payload[pairs_start:])
    words = array("Q")
    words.frombytes(payload[: 16 * distinct])
    # A code holds rank + 1 per path vertex from its most significant byte
    # down (0 = past the end), so the swapped bytes of each code are the
    # key's slots in order.  (Little-endian host, as everywhere in the
    # native binding.)
    codes = words[:distinct]
    codes.byteswap()
    slots = codes.tobytes()
    name_of = [None, *names].__getitem__
    keys = [
        tuple(map(name_of, slots[start : start + 8].rstrip(b"\0")))
        for start in range(0, 8 * distinct, 8)
    ]
    counts = dict(zip(keys, words[distinct:]))
    masks = {}
    if row_bytes:
        rows = range(16 * distinct, pairs_start, row_bytes)
        masks = {
            key: int.from_bytes(payload[start : start + row_bytes], "little")
            for key, start in zip(keys, rows)
        }
    return counts, masks, pairs
