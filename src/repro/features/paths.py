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
``isomorphism/_ckernel.c``) as the CSR of its
:class:`~repro.isomorphism.compiled.FlatGraph` — the buffer the graph's
compiles read too — and gets the distinct features back as codes;
:func:`path_features` over :func:`enumerate_simple_paths` is the pure-Python
form, keyed by tuple — the route for a graph whose features do not pack
into codes (more than 255 label strings, paths longer than 7 edges, a full
label table), and the oracle the native one is tested against.

**Feature codes.**  A feature's code is its canonical label sequence spelt
with one process-wide byte per label text, most significant byte first, in
a ``uint64``: two graphs share a code exactly when they share the key.
Codes are the primary form — the kernel returns nothing else, and every
index of the process (the dataset-side threshold index, Grapes' locations,
the iGQ probe table of :mod:`repro.core.probe`) is keyed by them — so the
query path never builds a tuple.  :func:`encode_path_codes` /
:func:`encode_path_keys` turn tuple keys into codes (the Python extractor's
output, a copy that crossed a pickle), :func:`decode_path_codes` turns codes
back into keys (pickling, introspection, oracles) and
:func:`codes_where_known` re-keys a tuple-keyed table as far as the table
knows its labels.  The byte table is append-only and per process, holds at
most 254 labels and never takes a graph's labels unless it can take them
all.  A pickle carries tuple keys, never codes; the durable journal
(:mod:`repro.persist.restore`) stores codes together with the table's
:func:`label_spelling`, and a process whose table differs maps them onto
its own with one ``bytes.translate`` (:func:`respelling`).
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from collections.abc import Collection, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import FlatGraph, _packed
from .canonical import canonical_path_key

__all__ = [
    "PathOccurrences",
    "code_pairs",
    "codes_where_known",
    "decode_path_codes",
    "encode_path_codes",
    "encode_path_keys",
    "enumerate_simple_paths",
    "label_spelling",
    "native_path_features",
    "path_features",
    "respelling",
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


def _label_texts() -> list:
    """The inverse of the label table: ``texts[byte]`` is the label text
    spelt with that byte (``texts[0]`` unused).  Rebuilt only after the
    table grew (or was swapped, as tests do)."""
    global _LABEL_TEXTS
    table = _LABEL_BYTES
    cached_table, texts = _LABEL_TEXTS
    if cached_table is not table or len(texts) != len(table) + 1:
        texts = [None] * (len(table) + 1)
        for text, byte in list(table.items()):
            texts[byte] = text
        _LABEL_TEXTS = (table, texts)
    return texts


#: ``(table, texts)``: the :func:`_label_texts` of ``table``
_LABEL_TEXTS: tuple[dict | None, list] = (None, [])


def encode_path_codes(keys: Collection[tuple[str, ...]]) -> array | None:
    """The code of each of ``keys``, in order, as one ``array("Q")``.

    ``None`` when a key is longer than a code or the label table cannot
    take every label of ``keys``.  Labels not yet in the table are added.
    A Python loop over the features: for key tables that come from the
    Python extractor or lost their codes to pickling, not for the query
    path.
    """
    texts = sorted({text for key in keys for text in key})
    if _label_bytes(texts) is None or any(len(key) > _MAX_CODE_LENGTH + 1 for key in keys):
        return None
    byte_of = _LABEL_BYTES.__getitem__
    # a code reads its key's bytes from the most significant end down
    # (little-endian host, as everywhere in the native binding)
    codes = array("Q")
    codes.frombytes(b"".join([bytes(map(byte_of, key)).ljust(8, b"\0") for key in keys]))
    codes.byteswap()
    return codes


def encode_path_keys(counts: Mapping[tuple[str, ...], int]) -> array | None:
    """``counts`` as the ``(code, count)`` pairs the kernel returns.

    One ``array("Q")`` holding the pairs back to back, code ascending; equal
    to the third element of :func:`native_path_features` for the graph the
    keys came from.  ``None`` when :func:`encode_path_codes` is.
    """
    codes = encode_path_codes(counts)
    if codes is None:
        return None
    return code_pairs(zip(codes, counts.values()))


def code_pairs(items: Iterable[tuple[int, int]]) -> array:
    """``(code, count)`` items as the flat, code-ascending pairs array the
    probe table reads."""
    return array("Q", chain.from_iterable(sorted(items)))


def decode_path_codes(
    codes: Iterable[int], spelling: Sequence[str] | None = None
) -> list[tuple[str, ...]]:
    """The label-path key of each of ``codes`` (the inverse of
    :func:`encode_path_codes`): for pickling, introspection and oracles.
    ``spelling`` reads codes another table spelt (a :func:`label_spelling`)."""
    spelt = array("Q", codes)
    spelt.byteswap()
    data = spelt.tobytes()
    text_of = (_label_texts() if spelling is None else [None, *spelling]).__getitem__
    return [
        tuple(map(text_of, data[start : start + 8].rstrip(b"\0")))
        for start in range(0, len(data), 8)
    ]


def label_spelling() -> tuple[str, ...]:
    """The label table as the texts of bytes 1, 2, ...: what a journal
    stores next to codes so that a process with another table can read
    them (:func:`respelling`)."""
    return tuple(_label_texts()[1:])


def respelling(spelling: Sequence[str]) -> bytes | None:
    """The ``bytes.translate`` table taking the bytes of codes spelt with
    ``spelling`` (a :func:`label_spelling`) to this process's spelling.

    Byte 0 (a code's unused tail) maps to itself, so the table applies to
    the raw bytes of a code array.  Labels this table has not seen yet are
    added; ``None`` when it cannot take them all.  A re-spelt set of codes
    sorts differently: whoever needs them in code order sorts them again.
    """
    spelt = _label_bytes(list(spelling))
    if spelt is None:
        return None
    table = bytearray(range(256))
    table[1 : len(spelt) + 1] = bytes(spelt)
    return bytes(table)


def codes_where_known(counts: Mapping[tuple[str, ...], int]) -> dict:
    """``counts`` with every key re-keyed by its code if it has one now,
    kept as it is otherwise.  The label table is only read: a key keeps its
    tuple exactly when one of its labels was never coded, so no coded
    feature table can hold it either — which is what lets a tuple-keyed
    query filter against a code-keyed index."""
    table = _LABEL_BYTES
    recoded = {}
    for key, count in counts.items():
        if len(key) <= _MAX_CODE_LENGTH + 1 and all(text in table for text in key):
            key = int.from_bytes(bytes(map(table.__getitem__, key)).ljust(8, b"\0"), "big")
        recoded[key] = count
    return recoded


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
    features' cross-graph codes (:func:`encode_path_codes`), in ascending
    order of the label-path keys — the order :func:`path_features` keys
    sort in; a mask covers the positions of ``graph.vertices()`` (empty
    dict unless ``locations``); ``pairs`` is ``counts`` as the flat
    ``(code, count)`` array, code ascending (:func:`code_pairs`).  Nothing
    is decoded: :func:`decode_path_codes` turns the codes back into keys
    for whoever needs them.

    The whole result is ``None`` when the features do not pack into codes —
    more than 255 distinct label strings in the graph, ``max_length`` above
    7, or labels the process-wide table cannot take — and the caller runs
    the Python enumeration.  ``flat`` is the graph's :class:`FlatGraph`
    when the caller compiles the graph from the same arrays.

    One call per graph, the interpreter lock released for its duration; all
    buffers are per call, so concurrent extractions do not interfere.
    """
    if flat is None:
        flat = FlatGraph(graph)
    texts = list(map(str, flat.labels))
    names = sorted(set(texts))
    if len(names) > _MAX_CODE_LABELS or max_length > _MAX_CODE_LENGTH:
        return None
    label_bytes = _label_bytes(names)
    if label_bytes is None:
        return None
    num_vertices = graph.num_vertices
    rank_of = {text: rank for rank, text in enumerate(names)}
    # ``buffer`` owns the label columns for the duration of the call
    buffer, (ranks_address, bytes_address) = _packed(
        [rank_of[text] for text in texts], label_bytes
    )
    library = _ckernel_loader.kernel()
    block = library.ck_path_features(
        num_vertices, *flat.csr(), ranks_address, max_length, locations, bytes_address
    )
    if not block:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native path extraction could not allocate its result")
    try:
        distinct = ctypes.c_uint64.from_address(block).value
        row_bytes = 8 * ((num_vertices + 63) // 64) if locations else 0
        pairs_start = distinct * (16 + row_bytes)
        payload = ctypes.string_at(block + 8, pairs_start + 16 * distinct)
    finally:
        library.ck_free(block)
    words = array("Q")
    words.frombytes(payload[: 16 * distinct])
    pairs = array("Q")
    pairs.frombytes(payload[pairs_start:])
    codes = words[:distinct]
    counts = dict(zip(codes, words[distinct:]))
    masks = {}
    if row_bytes:
        rows = range(16 * distinct, pairs_start, row_bytes)
        masks = {
            code: int.from_bytes(payload[start : start + row_bytes], "little")
            for code, start in zip(codes, rows)
        }
    return counts, masks, pairs
