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

**Feature codes.**  Every index of the process — the dataset-side
threshold index, Grapes' locations, the iGQ probe table of
:mod:`repro.core.probe`, the durable journal — names a feature by its
*code*, :func:`path_code` of its key: the 64-bit BLAKE2 hash of each label
text (:func:`label_hash`), folded in key order into a 60-bit code.  A code
is a pure function of the key, the same in every process, so it is
computed, compared, pickled and journalled as it is.  Two keys may share
a code; their counts (and locations) then merge, which can only let more
candidates through a filter — a false positive verification removes,
never a false negative.

Two implementations produce the same features.  :func:`native_path_features`
hands the graph to the C kernel (``ck_path_features`` in
``isomorphism/_ckernel.c``) as the CSR of its
:class:`~repro.isomorphism.compiled.FlatGraph` — the buffer the graph's
compiles read too — with the hash of each of its labels, and gets the
``(code, count)`` pairs back; :func:`path_features` over
:func:`enumerate_simple_paths` is the pure-Python form, keyed by tuple —
the route for a graph with more than 255 label strings or paths longer
than 7 edges, and the oracle the native one is tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
from array import array
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import FlatGraph
from .canonical import canonical_path_key

__all__ = [
    "PathOccurrences",
    "code_pairs",
    "enumerate_simple_paths",
    "label_hash",
    "native_path_features",
    "path_code",
    "path_features",
]


#: a graph-local path code (the kernel's) spends one byte per vertex on
#: ``rank + 1``
_MAX_CODE_LABELS = 255
_MAX_CODE_LENGTH = 7

#: where every code's fold starts (``CK_PATH_SEED`` in the kernel)
_PATH_SEED = 0x9E3779B97F4A7C15
_WORD = (1 << 64) - 1


@lru_cache(maxsize=1 << 16)
def label_hash(text: str) -> int:
    """The 64-bit BLAKE2 hash of one label text (or of a CT-Index tree or
    cycle's canonical string); memoised, as every extraction hashes its
    graph's labels."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def path_code(key: Iterable[str]) -> int:
    """The code of the feature ``key``: each element's :func:`label_hash`
    folded in order through the splitmix64 finaliser — what the kernel
    computes for the same label sequence.  The top 60 bits are kept: a
    code below ``2**60`` is a two-digit Python int (32 bytes, where a full
    64-bit value takes 36), and the dataset tables hold one per feature."""
    code = _PATH_SEED
    for text in key:
        z = code ^ label_hash(text)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD
        code = z ^ (z >> 31)
    return code >> 4


def code_pairs(items: Iterable[tuple[int, int]]) -> array:
    """``(code, count)`` items as the flat, code-ascending pairs array the
    probe table reads."""
    return array("Q", chain.from_iterable(sorted(items)))


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
    graph: LabeledGraph, max_length: int, locations: bool = False, flat: FlatGraph | None = None
) -> tuple[dict[int, int], dict[int, int], array] | None:
    """:func:`path_features` of ``graph`` computed by the C kernel, keyed by
    code.

    Returns ``(counts, location masks, pairs)``: the first two keyed by the
    features' codes (:func:`path_code`), code ascending; a mask covers the
    positions of ``graph.vertices()`` (empty dict unless ``locations``);
    ``pairs`` is ``counts`` as the flat ``(code, count)`` array
    (:func:`code_pairs`).

    ``None`` when the graph's paths do not fit the kernel's graph-local
    codes — more than 255 distinct label strings, or ``max_length`` above
    7 — and the caller runs the Python enumeration.  ``flat`` is the
    graph's :class:`FlatGraph` when the caller compiles the graph from the
    same arrays.

    One call per graph, the interpreter lock released for its duration; all
    buffers are per call, so concurrent extractions do not interfere.
    """
    if flat is None:
        flat = FlatGraph(graph)
    texts = list(map(str, flat.labels))
    names = sorted(set(texts))
    if len(names) > _MAX_CODE_LABELS or max_length > _MAX_CODE_LENGTH:
        return None
    num_vertices = graph.num_vertices
    rank_of = {text: rank for rank, text in enumerate(names)}
    # ``ranks`` and ``hashes`` own the columns for the duration of the call
    ranks = array("q", [rank_of[text] for text in texts])
    hashes = array("Q", map(label_hash, names))
    library = _ckernel_loader.kernel()
    block = library.ck_path_features(
        num_vertices, *flat.csr(), ranks.buffer_info()[0], max_length, locations,
        hashes.buffer_info()[0],
    )
    if not block:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native path extraction could not allocate its result")
    try:
        distinct = ctypes.c_uint64.from_address(block).value
        row_bytes = 8 * ((num_vertices + 63) // 64) if locations else 0
        payload = ctypes.string_at(block + 8, distinct * (16 + row_bytes))
    finally:
        library.ck_free(block)
    pairs = array("Q")
    pairs.frombytes(payload[: 16 * distinct])
    codes = pairs[0::2]
    counts = dict(zip(codes, pairs[1::2]))
    masks = {}
    if row_bytes:
        rows = range(16 * distinct, len(payload), row_bytes)
        masks = {
            code: int.from_bytes(payload[start : start + row_bytes], "little")
            for code, start in zip(codes, rows)
        }
    return counts, masks, pairs
