"""Feature-extraction facade shared by the indexing methods and by iGQ.

A :class:`FeatureExtractor` turns a graph into a :class:`GraphFeatures`
record: a multiset of feature keys plus, on request, the location
information Grapes stores.  The same extractor object must be used for the
dataset graphs and for the queries of a given index, which is why the
methods expose their extractor and iGQ simply reuses it (the framework of
§4.2 obtains "the features of the query graph" from the base method).

Two feature families are provided, matching the reproduced methods:

``paths``
    Every simple path up to ``max_path_length`` edges (GGSX, Grapes, and the
    default for the iGQ ``Isub``/``Isuper`` indexes).  Extracted by the C
    kernel when it is loadable (:func:`~repro.features.paths.native_path_features`),
    by the Python enumeration otherwise; the two agree key for key, in the
    same (ascending) key order.

``trees_cycles``
    Every tree subgraph up to ``tree_max_size`` vertices and every simple
    cycle up to ``cycle_max_length`` vertices (CT-Index).
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable
from dataclasses import dataclass, field

from ..graphs.graph import LabeledGraph
from .canonical import canonical_cycle_code, canonical_tree_code
from .cycles import enumerate_simple_cycles
from .paths import encode_path_keys, native_path_features, path_features
from .trees import enumerate_tree_subgraphs

__all__ = ["FeatureKey", "GraphFeatures", "FeatureExtractor"]

#: A feature key is a tuple of hashable elements: the label sequence of a
#: path, or a single-element tuple wrapping a canonical tree / cycle code.
FeatureKey = tuple


@dataclass
class GraphFeatures:
    """Features of one graph: occurrence counts and (optional) locations.

    ``locations`` maps a feature to the vertices its occurrences cover, as a
    bitmask over the positions of ``graph.vertices()`` — the dense vertex id
    space :func:`~repro.isomorphism.compiled.compile_target` assigns, so a
    union of locations is directly a region mask of the compiled target.
    Empty unless the extraction asked for locations.

    ``codes`` is ``counts`` once more, as the ``(code, count)`` pairs the
    native probe table filters on (:func:`~repro.features.paths.encode_path_keys`)
    — read it through :meth:`feature_codes`.  Codes are spelt with a
    per-process label table, so they are never pickled: a copy that crossed
    a pipe or the WAL rebuilds them from its keys on first request, which
    ``path_keys`` — "the keys are label paths" — permits.
    """

    counts: dict[FeatureKey, int] = field(default_factory=dict)
    locations: dict[FeatureKey, int] = field(default_factory=dict)
    codes: array | None = field(default=None, repr=False, compare=False)
    path_keys: bool = field(default=False, repr=False, compare=False)

    def feature_codes(self) -> array | None:
        """The features as ``(code, count)`` pairs, or ``None`` when they do
        not pack (tree/cycle features, long paths, label table full)."""
        codes = self.codes
        if codes is None and self.path_keys:
            codes = self.codes = encode_path_keys(self.counts)
            self.path_keys = codes is not None  # the table only fills up
        return codes

    def __getstate__(self) -> dict:
        """Pickle everything but the per-process codes."""
        return {**self.__dict__, "codes": None}

    @property
    def num_distinct(self) -> int:
        """Number of distinct feature keys."""
        return len(self.counts)

    def keys(self) -> set[FeatureKey]:
        """The set of distinct feature keys."""
        return set(self.counts)

    def contains_all_of(self, other: "GraphFeatures") -> bool:
        """True if every feature of ``other`` also appears here (set-wise)."""
        return all(key in self.counts for key in other.counts)

    def covers_counts_of(self, other: "GraphFeatures") -> bool:
        """True if every feature of ``other`` appears here at least as often."""
        return all(
            self.counts.get(key, 0) >= count for key, count in other.counts.items()
        )


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
    def extract(self, graph: LabeledGraph, locations: bool = False) -> GraphFeatures:
        """Return the features of ``graph`` under this extractor's config.

        ``locations=True`` also records where each feature occurs (only
        Grapes' dataset-side index reads that; queries never need it).
        """
        if self.kind == self.PATHS:
            return self._extract_paths(graph, locations)
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
    def _extract_paths(self, graph: LabeledGraph, locations: bool) -> GraphFeatures:
        """Path features, keys ascending: one kernel call, or (kernel
        unavailable, codes wider than 64 bits) the Python enumeration."""
        native = native_path_features(graph, self.max_path_length, locations)
        if native is not None:
            return GraphFeatures(*native, path_keys=True)
        occurrences = path_features(graph, self.max_path_length, locations=locations)
        keys = sorted(occurrences)
        features = GraphFeatures({key: occurrences[key].count for key in keys}, path_keys=True)
        if locations:
            bit_of = _vertex_bits(graph).__getitem__
            # distinct single bits: their sum is their union
            features.locations = {
                key: sum(map(bit_of, occurrences[key].vertices)) for key in keys
            }
        return features

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
