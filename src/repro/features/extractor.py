"""Feature-extraction facade shared by the indexing methods and by iGQ.

A :class:`FeatureExtractor` turns a graph into a :class:`GraphFeatures`
record: a multiset of features plus, on request, the location information
Grapes stores.  The same extractor object must be used for the dataset
graphs and for the queries of a given index, which is why the methods
expose their extractor and iGQ simply reuses it (the framework of §4.2
obtains "the features of the query graph" from the base method).

Two feature families are provided, matching the reproduced methods:

``paths``
    Every simple path up to ``max_path_length`` edges (GGSX, Grapes, and the
    default for the iGQ ``Isub``/``Isuper`` indexes).  Extracted by the C
    kernel when it is loadable (:func:`~repro.features.paths.native_path_features`),
    by the Python enumeration otherwise; either way the features are keyed
    by their cross-graph codes (``coded``) whenever they pack — paths of at
    most 7 edges over labels the process-wide table holds — in the same
    (ascending key) order.  A query is extracted from the
    :class:`~repro.isomorphism.compiled.FlatGraph` its compiles read, so it
    is flattened once.

``trees_cycles``
    Every tree subgraph up to ``tree_max_size`` vertices and every simple
    cycle up to ``cycle_max_length`` vertices (CT-Index), keyed by tuple.

Tuple keys of coded features are decoded only on request
(:meth:`GraphFeatures.key_counts`): when they are pickled and by the Python
oracles.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable
from dataclasses import dataclass, field

from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import FlatGraph
from .canonical import canonical_cycle_code, canonical_tree_code
from .cycles import enumerate_simple_cycles
from .paths import (
    _MAX_CODE_LENGTH,
    code_pairs,
    decode_path_codes,
    encode_path_codes,
    native_path_features,
    path_features,
)
from .trees import enumerate_tree_subgraphs

__all__ = ["FeatureKey", "GraphFeatures", "FeatureExtractor"]

#: A feature key is a tuple of hashable elements: the label sequence of a
#: path, or a single-element tuple wrapping a canonical tree / cycle code.
FeatureKey = tuple


@dataclass
class GraphFeatures:
    """Features of one graph: occurrence counts and (optional) locations.

    ``counts`` maps a feature to its number of occurrences.  A feature is
    named by its *code* when ``coded`` — the ``uint64`` cross-graph code
    :func:`~repro.features.paths.native_path_features` returns, the form
    every index of the process filters on — and by its tuple key otherwise
    (trees and cycles, paths longer than a code, labels the process-wide
    table could not take).  :meth:`key_counts` / :meth:`key_locations` are
    the tuple-keyed view of either form, decoded on first request: pickling
    (the WAL, pipes), introspection and the Python oracles read it, the
    query path never does.

    ``locations`` maps a feature (named as in ``counts``) to the vertices
    its occurrences cover, as a bitmask over the positions of
    ``graph.vertices()`` — the dense vertex id space
    :func:`~repro.isomorphism.compiled.compile_target` assigns, so a union
    of locations is directly a region mask of the compiled target.  Empty
    unless the extraction asked for locations.

    ``codes`` is ``counts`` once more, as the flat ``(code, count)`` pairs
    the native probe table filters on — read it through
    :meth:`feature_codes`.  Codes are spelt with a per-process label table,
    so they are never pickled: a copy pickles its tuple keys and re-encodes
    them on arrival.
    """

    counts: dict[FeatureKey | int, int] = field(default_factory=dict)
    locations: dict[FeatureKey | int, int] = field(default_factory=dict)
    codes: array | None = field(default=None, repr=False, compare=False)
    coded: bool = False
    #: the decoded :meth:`key_counts` of a coded table, once asked for
    _keys: dict | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_path_keys(
        cls, counts: dict[FeatureKey, int], locations: dict[FeatureKey, int]
    ) -> "GraphFeatures":
        """Path features given by tuple key, coded when they pack (the
        Python extractor's output, a pickled copy)."""
        codes = encode_path_codes(counts)
        if codes is None:
            return cls(counts, locations)
        code_of = dict(zip(counts, codes))
        return cls(
            dict(zip(codes, counts.values())),
            {code_of[key]: mask for key, mask in locations.items()},
            coded=True,
        )

    def feature_codes(self) -> array | None:
        """The features as ``(code, count)`` pairs, or ``None`` when they are
        not coded."""
        if self.codes is None and self.coded:
            self.codes = code_pairs(self.counts.items())
        return self.codes

    def key_counts(self) -> dict[FeatureKey, int]:
        """``counts`` keyed by tuple key, in ascending key order."""
        if not self.coded:
            return self.counts
        if self._keys is None:
            self._keys = dict(zip(decode_path_codes(self.counts), self.counts.values()))
        return self._keys

    def key_locations(self) -> dict[FeatureKey, int]:
        """``locations`` keyed by tuple key."""
        if not (self.coded and self.locations):  # queries record none
            return self.locations
        return dict(zip(decode_path_codes(self.locations), self.locations.values()))

    def __getstate__(self) -> dict:
        """Pickle the tuple keys (codes are per process); ``path_keys`` asks
        the receiving process to re-encode them."""
        return {
            "counts": self.key_counts(),
            "locations": self.key_locations(),
            "codes": None,
            "path_keys": self.coded,
        }

    def __setstate__(self, state: dict) -> None:
        """Restore a pickle (of this layout or the one before codes became
        primary), re-encoding label-path keys in this process's codes."""
        counts, locations = state["counts"], state["locations"]
        if state.get("path_keys"):
            self.__dict__.update(GraphFeatures.from_path_keys(counts, locations).__dict__)
        else:
            self.__init__(counts, locations)

    @property
    def num_distinct(self) -> int:
        """Number of distinct features."""
        return len(self.counts)


class FeatureExtractor:
    """Extract filtering features from labeled graphs.

    Parameters
    ----------
    kind:
        ``"paths"`` or ``"trees_cycles"``.
    max_path_length:
        Maximum number of edges of enumerated paths (``paths`` kind).
    tree_max_size:
        Maximum number of vertices of enumerated tree subgraphs
        (``trees_cycles`` kind).
    cycle_max_length:
        Maximum number of vertices of enumerated simple cycles
        (``trees_cycles`` kind).
    """

    PATHS = "paths"
    TREES_CYCLES = "trees_cycles"

    def __init__(
        self,
        kind: str = PATHS,
        max_path_length: int = 4,
        tree_max_size: int = 4,
        cycle_max_length: int = 6,
    ) -> None:
        if kind not in (self.PATHS, self.TREES_CYCLES):
            raise ValueError(f"unknown feature kind {kind!r}")
        if max_path_length < 1:
            raise ValueError("max_path_length must be at least 1")
        if tree_max_size < 1:
            raise ValueError("tree_max_size must be at least 1")
        if cycle_max_length < 3:
            raise ValueError("cycle_max_length must be at least 3")
        self.kind = kind
        self.max_path_length = max_path_length
        self.tree_max_size = tree_max_size
        self.cycle_max_length = cycle_max_length

    # ------------------------------------------------------------------
    def extract(
        self, graph: LabeledGraph, locations: bool = False, flat: FlatGraph | None = None
    ) -> GraphFeatures:
        """Return the features of ``graph`` under this extractor's config.

        ``locations=True`` also records where each feature occurs (only
        Grapes' dataset-side index reads that; queries never need it).
        ``flat`` is the graph's :class:`~repro.isomorphism.compiled.FlatGraph`
        when the caller will compile the graph from the same arrays.
        """
        if self.kind == self.PATHS:
            return self._extract_paths(graph, locations, flat)
        return self._extract_trees_cycles(graph, locations)

    def describe(self) -> dict[str, Hashable]:
        """A JSON-friendly description of the configuration."""
        if self.kind == self.PATHS:
            return {"kind": self.kind, "max_path_length": self.max_path_length}
        return {
            "kind": self.kind,
            "tree_max_size": self.tree_max_size,
            "cycle_max_length": self.cycle_max_length,
        }

    # ------------------------------------------------------------------
    def _extract_paths(
        self, graph: LabeledGraph, locations: bool, flat: FlatGraph | None
    ) -> GraphFeatures:
        """Path features, coded and in ascending key order: one kernel call,
        or (kernel unavailable, features that do not pack) the Python
        enumeration, coded afterwards when the keys pack."""
        native = native_path_features(graph, self.max_path_length, locations, flat)
        if native is not None:
            return GraphFeatures(*native, coded=True)
        occurrences = path_features(graph, self.max_path_length, locations=locations)
        keys = sorted(occurrences)
        counts = {key: occurrences[key].count for key in keys}
        located = {}
        if locations:
            bit_of = _vertex_bits(graph).__getitem__
            # distinct single bits: their sum is their union
            located = {key: sum(map(bit_of, occurrences[key].vertices)) for key in keys}
        if self.max_path_length > _MAX_CODE_LENGTH:
            return GraphFeatures(counts, located)
        return GraphFeatures.from_path_keys(counts, located)

    def _extract_trees_cycles(self, graph: LabeledGraph, locations: bool) -> GraphFeatures:
        features = GraphFeatures()
        counts, covered = features.counts, features.locations
        bit_of = _vertex_bits(graph).__getitem__ if locations else None

        def record(key: FeatureKey, vertices) -> None:
            counts[key] = counts.get(key, 0) + 1
            if locations:
                covered[key] = covered.get(key, 0) | sum(map(bit_of, vertices))

        for tree in enumerate_tree_subgraphs(graph, self.tree_max_size):
            record((canonical_tree_code(tree),), tree.vertices())
        for cycle in enumerate_simple_cycles(graph, self.cycle_max_length):
            record((canonical_cycle_code([graph.label(vertex) for vertex in cycle]),), cycle)
        return features


def _vertex_bits(graph: LabeledGraph) -> dict[Hashable, int]:
    """Single-bit mask per vertex, by position in ``graph.vertices()``."""
    return {vertex: 1 << position for position, vertex in enumerate(graph.vertices())}
