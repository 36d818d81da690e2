"""CT-Index: tree and cycle fingerprints hashed into fixed-width bitmaps.

Klein, Kriege and Mutzel [2011] describe every graph by the canonical string
codes of its tree subgraphs (size ≤ 6) and simple cycles (length ≤ 8), hash
each code into a fixed-width bitmap (4096 bits by default), and filter a
subgraph query with a single bitwise check: a candidate must have every bit
of the query's bitmap set (supergraphs contain all features of their
subgraphs, and the hash is feature-deterministic).  Verification uses VF2.

The fingerprints are held as Python integers and, for filtering, transposed:
one mask of dataset graphs per fingerprint bit, so the check is one bitwise
AND per set bit of the query's fingerprint and touches no graph; the
false-positive rate depends on the bitmap width exactly as in the original
fingerprint design.
"""

from __future__ import annotations

import zlib
from collections.abc import Hashable

from ..features.extractor import FeatureExtractor, GraphFeatures
from ..graphs.bitset import CandidateBitmap, iter_bits
from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from ..isomorphism.verifier import Verifier
from .base import SubgraphQueryMethod

__all__ = ["CTIndexMethod"]


class CTIndexMethod(SubgraphQueryMethod):
    """CT-Index: hashed tree/cycle fingerprints with bitwise filtering."""

    name = "ctindex"

    def __init__(
        self,
        tree_max_size: int = 4,
        cycle_max_length: int = 6,
        bitmap_bits: int = 4096,
        verifier: Verifier | None = None,
        extractor: FeatureExtractor | None = None,
    ) -> None:
        if bitmap_bits < 8:
            raise ValueError("bitmap_bits must be at least 8")
        if extractor is None:
            extractor = FeatureExtractor(
                kind=FeatureExtractor.TREES_CYCLES,
                tree_max_size=tree_max_size,
                cycle_max_length=cycle_max_length,
            )
        super().__init__(extractor, verifier)
        self.tree_max_size = extractor.tree_max_size
        self.cycle_max_length = extractor.cycle_max_length
        self.bitmap_bits = bitmap_bits
        #: fingerprint bit -> mask (over ``id_space``) of the graphs that set it
        self._graphs_with_bit: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def _hash_feature(self, key: tuple) -> int:
        """Deterministically map a feature key to a bit position."""
        text = "\x1e".join(str(element) for element in key)
        return zlib.crc32(text.encode("utf-8")) % self.bitmap_bits

    def fingerprint(self, features: GraphFeatures) -> int:
        """Bitmap fingerprint of a feature set."""
        bitmap = 0
        for key in features.counts:
            bitmap |= 1 << self._hash_feature(key)
        return bitmap

    # ------------------------------------------------------------------
    def build_index(self, database: GraphDatabase) -> None:
        """Index every graph of ``database`` and transpose the fingerprints."""
        super().build_index(database)
        graph_bit = self.id_space.bit
        graphs_with_bit: dict[int, int] = {}
        for graph_id, features in self._graph_features.items():
            bit = graph_bit(graph_id)
            for position in iter_bits(self.fingerprint(features)):
                graphs_with_bit[position] = graphs_with_bit.get(position, 0) | bit
        self._graphs_with_bit = graphs_with_bit

    def index_size_bytes(self) -> int:
        # One mask of dataset graphs per used fingerprint bit, plus a small
        # per-entry overhead.
        return len(self._graphs_with_bit) * (len(self._graph_features) // 8 + 48)

    # ------------------------------------------------------------------
    def filter_candidates(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> CandidateBitmap:
        """Graphs whose bitmap covers every bit of the query's bitmap."""
        self._require_index()
        if features is None:
            features = self.extract_query_features(query)
        space = self.id_space
        graphs_with_bit = self._graphs_with_bit
        mask = space.full_mask
        for position in iter_bits(self.fingerprint(features)):
            mask &= graphs_with_bit.get(position, 0)
            if not mask:
                break
        return CandidateBitmap(space, mask)

    def graph_bitmap(self, graph_id: Hashable) -> int:
        """The fingerprint of an indexed graph."""
        self._require_index()
        return self.fingerprint(self._graph_features[graph_id])
