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
"""

from __future__ import annotations

import ctypes
from array import array
from collections.abc import Hashable, Iterator
from dataclasses import dataclass, field

from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import _packed
from .canonical import canonical_path_key

__all__ = [
    "PathOccurrences",
    "enumerate_simple_paths",
    "native_path_features",
    "path_features",
]


#: a native path code spends one byte per vertex on ``rank + 1``
_MAX_CODE_LABELS = 255
_MAX_CODE_LENGTH = 7


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
) -> tuple[dict[tuple[str, ...], int], dict[tuple[str, ...], int]] | None:
    """:func:`path_features` of ``graph`` computed by the C kernel.

    Returns ``(counts, location masks)`` keyed like :func:`path_features`,
    keys in ascending order; a mask covers the positions of
    ``graph.vertices()`` (empty dict unless ``locations``).  ``None`` when
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
    vertices = list(graph.vertices())
    texts = [str(graph.label(vertex)) for vertex in vertices]
    names = sorted(set(texts))
    if len(names) > _MAX_CODE_LABELS or max_length > _MAX_CODE_LENGTH:
        return None
    rank_of = {text: rank for rank, text in enumerate(names)}
    position_of = {vertex: position for position, vertex in enumerate(vertices)}
    offsets = [0]
    flat: list[int] = []
    for vertex in vertices:
        flat += [position_of[neighbor] for neighbor in graph.neighbors(vertex)]
        offsets.append(len(flat))
    # ``buffer`` owns the three columns for the duration of the call
    buffer, addresses = _packed(offsets, flat, [rank_of[text] for text in texts])
    block = library.ck_path_features(len(vertices), *addresses, max_length, locations)
    if not block:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native path extraction could not allocate its result")
    try:
        distinct = ctypes.c_uint64.from_address(block).value
        row_bytes = 8 * ((len(vertices) + 63) // 64) if locations else 0
        payload = ctypes.string_at(block + 8, distinct * (16 + row_bytes))
    finally:
        library.ck_free(block)
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
        rows = range(16 * distinct, len(payload), row_bytes)
        masks = {
            key: int.from_bytes(payload[start : start + row_bytes], "little")
            for key, start in zip(keys, rows)
        }
    return counts, masks
