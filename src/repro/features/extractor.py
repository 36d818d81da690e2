"""Feature-extraction facade shared by the indexing methods and by iGQ.

A :class:`FeatureExtractor` turns a graph into a :class:`GraphFeatures`
record: a multiset of features, their occurrence counts, and nothing else.
The same extractor object must be used for the dataset graphs and for the
queries of a given index, which is why the methods
expose their extractor and iGQ simply reuses it (the framework of §4.2
obtains "the features of the query graph" from the base method).

Two feature families are provided, matching the reproduced methods:

``paths``
    Every simple path up to ``max_path_length`` edges (GGSX, Grapes, and the
    default for the iGQ ``Isub``/``Isuper`` indexes).  Extracted by the C
    kernel (:func:`~repro.features.paths.native_path_features`) for paths
    of at most 7 edges over at most 255 label strings, and by the Python
    enumeration otherwise; both return the same codes.  A query is
    extracted from the :class:`~repro.isomorphism.compiled.FlatGraph` its
    compiles read, so it is flattened once.

``trees_cycles``
    Every tree subgraph up to ``tree_max_size`` vertices and every simple
    cycle up to ``cycle_max_length`` vertices (CT-Index), by the Python
    enumeration.

Either way a feature is named by one 60-bit code,
:func:`~repro.features.paths.path_code` of its key — a label path, or a
tree or cycle's canonical string wrapped in a 1-tuple — so every index
filters every graph in one key domain.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from itertools import chain

from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import FlatGraph
from .canonical import canonical_cycle_code, canonical_tree_code
from .cycles import enumerate_simple_cycles
from .paths import code_pairs, native_path_features, path_code, path_features
from .trees import enumerate_tree_subgraphs

__all__ = ["FeatureKey", "GraphFeatures", "FeatureExtractor"]

#: A feature key is a tuple of hashable elements: the label sequence of a
#: path, or a single-element tuple wrapping a canonical tree / cycle code.
FeatureKey = tuple


@dataclass
class GraphFeatures:
    """Features of one graph: their occurrence counts.

    ``counts`` maps a feature's code (:func:`~repro.features.paths.path_code`
    of its key) to its number of occurrences, code ascending.  Codes are
    the same in every process, so a copy pickles them as they are.

    ``codes`` is ``counts`` once more, as the flat ``(code, count)`` pairs
    the native probe table filters on — read it through
    :meth:`feature_codes`.
    """

    counts: dict[int, int] = field(default_factory=dict)
    codes: array | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_keys(cls, counts: Mapping[FeatureKey, int]) -> "GraphFeatures":
        """Features given by tuple key (the Python extractors' output, a
        pickle written before features were coded), coded.  Keys that share
        a code merge: their counts add up."""
        coded: dict[int, int] = {}
        for key, count in counts.items():
            code = path_code(key)
            coded[code] = coded.get(code, 0) + count
        return cls(dict(sorted(coded.items())))

    def feature_codes(self) -> array:
        """The features as ``(code, count)`` pairs, code ascending."""
        if self.codes is None:
            self.codes = code_pairs(self.counts.items())
        return self.codes

    def __setstate__(self, state: dict) -> None:
        """Restore a pickle of this layout, or of an older one: keyed by
        tuple (written before features were coded: its keys are coded
        here), or carrying the per-feature location table older builds
        kept (dropped)."""
        counts = state["counts"]
        if isinstance(next(iter(counts), None), tuple):
            self.__dict__.update(GraphFeatures.from_keys(counts).__dict__)
        else:
            self.__init__(counts)

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
    def extract(self, graph: LabeledGraph, flat: FlatGraph | None = None) -> GraphFeatures:
        """Return the features of ``graph`` under this extractor's config.

        ``flat`` is the graph's :class:`~repro.isomorphism.compiled.FlatGraph`
        when the caller will compile the graph from the same arrays.
        """
        if self.kind == self.PATHS:
            return self._extract_paths(graph, flat)
        return self._extract_trees_cycles(graph)

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
    def _extract_paths(self, graph: LabeledGraph, flat: FlatGraph | None) -> GraphFeatures:
        """Path features: one kernel call, or (more than 255 labels or 7
        edges) the Python enumeration, coded afterwards."""
        native = native_path_features(graph, self.max_path_length, flat)
        if native is not None:
            return GraphFeatures(*native)
        return GraphFeatures.from_keys(path_features(graph, self.max_path_length))

    def _extract_trees_cycles(self, graph: LabeledGraph) -> GraphFeatures:
        trees = map(canonical_tree_code, enumerate_tree_subgraphs(graph, self.tree_max_size))
        cycles = (
            canonical_cycle_code([graph.label(vertex) for vertex in cycle])
            for cycle in enumerate_simple_cycles(graph, self.cycle_max_length)
        )
        return GraphFeatures.from_keys(Counter((code,) for code in chain(trees, cycles)))
