"""Exhaustive path enumeration (the feature class of GGSX and Grapes).

GraphGrepSX and Grapes index *all* simple paths of the dataset graphs up to a
maximum length (number of edges; 4 in the paper's experiments).  The same
enumeration is reused by the iGQ ``Isuper`` index, whose Algorithm 1 records
the features of every previously executed query together with their number
of occurrences.

Every undirected path is counted exactly once (a path and its reverse are the
same occurrence); the canonical label tuple of the path (see
:func:`repro.features.canonical.canonical_path_key`) is the feature key.
Extraction yields occurrence counts only.  Grapes' per-feature *locations*
— the vertices a feature's occurrences cover — are not kept: its regions
come from the kernel's label rows, and Figure 18's byte count needs only
their total size, :func:`path_coverage`.

**Feature codes.**  Every index of the process — the dataset-side
threshold index, the iGQ probe table of :mod:`repro.core.probe`, the
durable journal — names a feature by its *code*, :func:`path_code` of its
key: the 64-bit BLAKE2 hash of each label text (:func:`label_hash`),
folded in key order into a 60-bit code.  A code is a pure function of the
key, the same in every process, so it is computed, compared, pickled and
journalled as it is.  Two keys may share a code; their counts then merge,
which can only let more candidates through a filter — a false positive
verification removes, never a false negative.

The C kernel enumerates the paths.  :func:`native_path_features` hands
it the graph (``ck_path_features`` in ``isomorphism/_ckernel.c``) as the
CSR of its :class:`~repro.isomorphism.compiled.FlatGraph` — the buffer
the graph's compiles read too — with the rank and the hash of each of its
labels, and gets the ``(code, count)`` pairs back, at any number of labels
and any path length; :func:`path_coverage` is one ``ck_path_coverage``
call.  The Python enumeration the kernel is tested against lives in the
test tree (``tests/kernel_oracle.py``).
"""

from __future__ import annotations

import ctypes
import hashlib
from array import array
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain

from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import FlatGraph

__all__ = [
    "code_pairs",
    "label_hash",
    "native_path_features",
    "path_code",
    "path_coverage",
]


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


def _label_ranks(flat: FlatGraph) -> tuple[list[str], array]:
    """The kernel's graph-local alphabet: the graph's distinct label strings
    in ascending order, and per vertex position the rank of its own."""
    texts = list(map(str, flat.labels))
    names = sorted(set(texts))
    rank_of = {text: rank for rank, text in enumerate(names)}
    return names, array("q", [rank_of[text] for text in texts])


def native_path_features(
    graph: LabeledGraph, max_length: int, flat: FlatGraph | None = None
) -> tuple[dict[int, int], array]:
    """The path features of ``graph`` — every simple path of up to
    ``max_length`` edges, counted once per occurrence under its canonical
    label sequence — computed by the C kernel, keyed by code.

    Returns ``(counts, pairs)``: ``counts`` keyed by the features' codes
    (:func:`path_code`), code ascending, and ``pairs`` the same as the flat
    ``(code, count)`` array (:func:`code_pairs`).  ``flat`` is the graph's
    :class:`FlatGraph` when the caller compiles the graph from the same
    arrays.

    One call per graph, the interpreter lock released for its duration; all
    buffers are per call, so concurrent extractions do not interfere.
    """
    if flat is None:
        flat = FlatGraph(graph)
    names, ranks = _label_ranks(flat)
    # ``ranks`` and ``hashes`` own the columns for the duration of the call
    hashes = array("Q", map(label_hash, names))
    library = _ckernel_loader.kernel()
    block = library.ck_path_features(
        graph.num_vertices, *flat.csr(), ranks.buffer_info()[0], max_length,
        hashes.buffer_info()[0],
    )
    if not block:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native path extraction could not allocate its result")
    try:
        distinct = ctypes.c_uint64.from_address(block).value
        payload = ctypes.string_at(block + 8, 16 * distinct)
    finally:
        library.ck_free(block)
    pairs = array("Q")
    pairs.frombytes(payload)
    return dict(zip(pairs[0::2], pairs[1::2])), pairs


def path_coverage(graph: LabeledGraph, max_length: int) -> int:
    """The number of vertices each path key's occurrences cover in
    ``graph``, summed over its distinct keys: the vertex ids Grapes'
    location lists hold for the graph.

    Counted per key, before coding, so two keys sharing a code count
    apart.  One ``ck_path_coverage`` call.
    """
    flat = FlatGraph(graph)
    ranks = _label_ranks(flat)[1]
    total = _ckernel_loader.kernel().ck_path_coverage(
        graph.num_vertices, *flat.csr(), ranks.buffer_info()[0], max_length
    )
    if total < 0:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native path coverage could not allocate its scratch")
    return total
