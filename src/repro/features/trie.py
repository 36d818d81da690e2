"""Feature trie with per-graph occurrence postings.

GraphGrepSX organises the enumerated paths of the dataset graphs in a suffix
trie whose nodes carry, per graph, the number of occurrences of the path
spelled out by the root-to-node label sequence.  The iGQ ``Isuper`` component
(Algorithm 1 of the paper) uses the same structure over the features of
*previous queries*.  This module provides that structure.

Keys are tuples of hashable elements — label sequences for path features,
single-element tuples wrapping a canonical code for tree/cycle features.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence
from types import MappingProxyType

__all__ = ["TrieNode", "FeatureTrie"]

_NO_POSTINGS: Mapping = MappingProxyType({})


class TrieNode:
    """One node of a :class:`FeatureTrie`."""

    __slots__ = ("children", "postings")

    def __init__(self) -> None:
        self.children: dict[Hashable, TrieNode] = {}
        self.postings: dict[Hashable, int] = {}

    def is_feature(self) -> bool:
        """True if at least one graph has this node's sequence as a feature."""
        return bool(self.postings)


class FeatureTrie:
    """A trie mapping feature key sequences to ``{graph_id: occurrences}``."""

    def __init__(self) -> None:
        self._root = TrieNode()
        self._num_features = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: Sequence[Hashable], graph_id: Hashable, occurrences: int = 1) -> None:
        """Record that ``graph_id`` contains the feature ``key`` ``occurrences`` times.

        Repeated insertion for the same ``(key, graph_id)`` overwrites the
        occurrence count (the extractors always report totals).
        """
        if occurrences < 1:
            raise ValueError("occurrences must be positive")
        node = self._root
        for element in key:
            child = node.children.get(element)
            if child is None:
                child = node.children[element] = TrieNode()
            node = child
        if not node.postings:
            self._num_features += 1
        node.postings[graph_id] = occurrences

    def remove_graph(self, graph_id: Hashable) -> None:
        """Remove every posting of ``graph_id`` and prune empty branches.

        Walks the whole trie; callers that know the graph's feature keys
        should prefer :meth:`remove_posting` per key, which only walks the
        key's path.
        """
        self._remove_graph(self._root, graph_id)

    def _remove_graph(self, node: TrieNode, graph_id: Hashable) -> bool:
        """Depth-first removal; returns True if ``node`` can be pruned."""
        if graph_id in node.postings:
            del node.postings[graph_id]
            if not node.postings:
                self._num_features -= 1
        for element in list(node.children):
            if self._remove_graph(node.children[element], graph_id):
                del node.children[element]
        return not node.postings and not node.children

    def remove_posting(self, key: Sequence[Hashable], graph_id: Hashable) -> None:
        """Remove the single ``(key, graph_id)`` posting, pruning its branch.

        Cost is proportional to ``len(key)`` instead of the trie size, which
        is what makes incremental index maintenance (window flushes and
        delta-applied shard replicas) cheap.  Unknown keys and absent
        postings are ignored.
        """
        node = self._find(key)
        if node is None or node.postings.pop(graph_id, None) is None or node.postings:
            return
        self._num_features -= 1
        if node.children:
            return
        # The key's last posting went and nothing hangs below it: walk the
        # path again to cut the now-empty branch back to its last live node.
        path: list[tuple[TrieNode, Hashable]] = []
        node = self._root
        for element in key:
            path.append((node, element))
            node = node.children[element]
        for parent, element in reversed(path):
            child = parent.children[element]
            if child.postings or child.children:
                break
            del parent.children[element]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, key: Sequence[Hashable]) -> dict[Hashable, int]:
        """Return a copy of the postings of ``key`` (empty dict if absent)."""
        return dict(self.postings(key))

    def postings(self, key: Sequence[Hashable]) -> Mapping[Hashable, int]:
        """The live postings of ``key``, uncopied — for read-only iteration.

        The probe path of the component indexes walks one posting list per
        query feature per lookup; the mapping returned here is the trie's
        own, so callers must not mutate it or hold it across an update.
        """
        node = self._find(key)
        return node.postings if node is not None else _NO_POSTINGS

    def __contains__(self, key: Sequence[Hashable]) -> bool:
        node = self._find(key)
        return node is not None and node.is_feature()

    def _find(self, key: Sequence[Hashable]) -> TrieNode | None:
        node = self._root
        for element in key:
            node = node.children.get(element)
            if node is None:
                return None
        return node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_features(self) -> int:
        """Number of distinct feature keys with at least one posting."""
        return self._num_features

    def num_nodes(self) -> int:
        """Total number of trie nodes (used for index-size accounting)."""
        return sum(1 for _ in self._iter_nodes())

    def num_postings(self) -> int:
        """Total number of ``(feature, graph)`` postings."""
        return sum(len(node.postings) for node in self._iter_nodes())

    def graph_ids(self) -> set:
        """The set of graph ids that have at least one posting."""
        ids: set = set()
        for node in self._iter_nodes():
            ids.update(node.postings)
        return ids

    def items(self) -> Iterator[tuple[tuple, dict[Hashable, int]]]:
        """Iterate over ``(feature key, postings)`` pairs."""
        stack: list[tuple[tuple, TrieNode]] = [((), self._root)]
        while stack:
            prefix, node = stack.pop()
            if node.postings:
                yield prefix, dict(node.postings)
            for element, child in node.children.items():
                stack.append((prefix + (element,), child))

    def _iter_nodes(self) -> Iterator[TrieNode]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def estimated_size_bytes(self) -> int:
        """Rough in-memory footprint estimate (for the Figure 18 experiment).

        Counts a fixed overhead per node, per child link and per posting.
        The constants approximate CPython dictionary/object overheads; the
        figure-18 comparison only relies on relative sizes.
        """
        node_bytes = 0
        for node in self._iter_nodes():
            node_bytes += 64
            node_bytes += 48 * len(node.children)
            node_bytes += 40 * len(node.postings)
        return node_bytes
