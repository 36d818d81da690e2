"""VF2-style subgraph isomorphism (monomorphism) matcher.

The paper's Definition 2 asks for an *injection* from the query graph's
vertices into a dataset graph's vertices such that every query edge maps onto
an edge of the dataset graph and vertex labels are preserved.  This is the
non-induced variant (subgraph monomorphism) that VF2 [Cordella et al., 2004]
computes when only pattern edges are required to be present — the test the
verification stage of every filter-then-verify method performs.  The stage
itself runs in the C kernel (:mod:`repro.isomorphism.compiled`); this module
is the public embedding API (:func:`find_subgraph_embedding`,
:func:`is_subgraph_isomorphic`) and the independent matcher the test suite
checks the kernel against.

The matcher follows the VF2 state-space exploration:

* pattern vertices are matched one at a time following a connectivity-aware
  static order (highest-degree, rarest-label first, then BFS),
* candidate target vertices are drawn from the intersection of the target
  neighbourhoods of already-matched pattern neighbours (falling back to the
  label index when the next pattern vertex touches no matched vertex),
* feasibility checks: label equality, degree bound, adjacency consistency
  with the partial mapping, and a one-step look-ahead on the number of
  unmatched neighbours.

The implementation is deliberately free of third-party dependencies; the test
suite cross-validates it against ``networkx``'s matcher.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from itertools import islice

from ..graphs.graph import LabeledGraph

__all__ = [
    "VF2Matcher",
    "is_subgraph_isomorphic",
    "find_subgraph_embedding",
    "count_subgraph_embeddings",
    "are_isomorphic",
]


class VF2Matcher:
    """Search for embeddings of ``pattern`` inside ``target``.

    Parameters
    ----------
    pattern:
        The (small) query graph.
    target:
        The (larger) dataset graph.
    induced:
        When ``True``, also require that non-edges of the pattern map to
        non-edges of the target (induced subgraph isomorphism).  The paper's
        experiments only need the default non-induced semantics.
    """

    def __init__(
        self,
        pattern: LabeledGraph,
        target: LabeledGraph,
        induced: bool = False,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.induced = induced
        self._order = self._matching_order()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def has_match(self) -> bool:
        """True if at least one embedding exists."""
        return self.find_one() is not None

    def find_one(self) -> dict[Hashable, Hashable] | None:
        """Return one embedding (pattern vertex -> target vertex) or ``None``."""
        for mapping in self.iter_matches(limit=1):
            return mapping
        return None

    def count_matches(self, limit: int | None = None) -> int:
        """Count embeddings, optionally stopping after ``limit`` of them."""
        count = 0
        for _ in self.iter_matches(limit=limit):
            count += 1
        return count

    def iter_matches(self, limit: int | None = None) -> Iterator[dict[Hashable, Hashable]]:
        """Yield embeddings as dictionaries mapping pattern to target vertices."""
        matches = self._iter_all_matches()
        if limit is None:
            yield from matches
        else:
            yield from islice(matches, max(limit, 0))

    def _iter_all_matches(self) -> Iterator[dict[Hashable, Hashable]]:
        if self.pattern.num_vertices == 0:
            yield {}
            return
        if self.pattern.num_vertices > self.target.num_vertices:
            return
        if self.pattern.num_edges > self.target.num_edges:
            return
        if not self._labels_compatible():
            return
        yield from self._search({}, set(), 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _labels_compatible(self) -> bool:
        """Quick rejection: every pattern label must be frequent enough."""
        target_hist = self.target.label_histogram()
        for label, count in self.pattern.label_histogram().items():
            if target_hist.get(label, 0) < count:
                return False
        return True

    def _matching_order(self) -> list[Hashable]:
        """Static matching order: rare labels and high degrees first, then
        grow the order so that each vertex (when possible) is adjacent to an
        already-ordered vertex, preferring the most-connected frontier vertex."""
        pattern = self.pattern
        if pattern.num_vertices == 0:
            return []
        target_hist = self.target.label_histogram()
        rarity = {
            vertex: (
                target_hist.get(pattern.label(vertex), 0),
                -pattern.degree(vertex),
                repr(vertex),
            )
            for vertex in pattern.vertices()
        }

        order: list[Hashable] = []
        placed: set = set()
        remaining = set(pattern.vertices())
        #: number of already-placed neighbours, maintained incrementally
        placed_neighbors = {vertex: 0 for vertex in remaining}

        def place(vertex: Hashable) -> None:
            order.append(vertex)
            placed.add(vertex)
            remaining.discard(vertex)
            for neighbor in pattern.neighbors(vertex):
                if neighbor not in placed:
                    placed_neighbors[neighbor] += 1

        while remaining:
            # Start (or restart, for disconnected patterns) at the most
            # constrained vertex.
            start = min(remaining, key=rarity.__getitem__)
            place(start)
            frontier = {
                neighbor
                for neighbor in pattern.neighbors(start)
                if neighbor not in placed
            }
            while frontier:
                nxt = min(
                    frontier,
                    key=lambda v: (-placed_neighbors[v],) + rarity[v],
                )
                place(nxt)
                frontier.discard(nxt)
                frontier.update(
                    neighbor
                    for neighbor in pattern.neighbors(nxt)
                    if neighbor not in placed
                )
        return order

    def _candidates(
        self, vertex: Hashable, mapping: dict[Hashable, Hashable], used: set
    ) -> list[Hashable]:
        """Candidate target vertices for the next pattern ``vertex``."""
        pattern, target = self.pattern, self.target
        label = pattern.label(vertex)
        mapped_neighbors = [n for n in pattern.neighbors(vertex) if n in mapping]
        if mapped_neighbors:
            # Intersect the target neighbourhoods of the images of the mapped
            # pattern neighbours: any valid image must be adjacent to all.
            anchor = min(
                mapped_neighbors, key=lambda n: target.degree(mapping[n])
            )
            candidates = [
                candidate
                for candidate in target.neighbors(mapping[anchor])
                if candidate not in used and target.label(candidate) == label
            ]
        else:
            candidates = [
                candidate
                for candidate in target.vertices_with_label(label)
                if candidate not in used
            ]
        return candidates

    def _feasible(
        self, vertex: Hashable, candidate: Hashable, mapping: dict[Hashable, Hashable]
    ) -> bool:
        pattern, target = self.pattern, self.target
        if pattern.degree(vertex) > target.degree(candidate):
            return False
        unmapped_pattern_neighbors = 0
        for neighbor in pattern.neighbors(vertex):
            if neighbor in mapping:
                if not target.has_edge(candidate, mapping[neighbor]):
                    return False
            else:
                unmapped_pattern_neighbors += 1
        if self.induced:
            mapped_images = set(mapping.values())
            for image in target.neighbors(candidate):
                if image in mapped_images:
                    # Find the pattern vertex mapped to this image.
                    for p_vertex, t_vertex in mapping.items():
                        if t_vertex == image and not pattern.has_edge(vertex, p_vertex):
                            return False
        # One-step look-ahead: the candidate must have enough unmatched
        # neighbours left to host the unmatched pattern neighbours.
        unmapped_target_neighbors = sum(
            1 for image in target.neighbors(candidate) if image not in mapping.values()
        )
        return unmapped_target_neighbors >= unmapped_pattern_neighbors

    def _search(
        self,
        mapping: dict[Hashable, Hashable],
        used: set,
        depth: int,
    ) -> Iterator[dict[Hashable, Hashable]]:
        if depth == len(self._order):
            yield dict(mapping)
            return
        vertex = self._order[depth]
        for candidate in self._candidates(vertex, mapping, used):
            if not self._feasible(vertex, candidate, mapping):
                continue
            mapping[vertex] = candidate
            used.add(candidate)
            yield from self._search(mapping, used, depth + 1)
            del mapping[vertex]
            used.discard(candidate)


def is_subgraph_isomorphic(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> bool:
    """True if ``pattern`` is subgraph-isomorphic to ``target`` (g ⊆ G)."""
    return VF2Matcher(pattern, target, induced=induced).has_match()


def find_subgraph_embedding(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> dict[Hashable, Hashable] | None:
    """Return one embedding of ``pattern`` in ``target``, or ``None``."""
    return VF2Matcher(pattern, target, induced=induced).find_one()


def count_subgraph_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None = None,
    induced: bool = False,
) -> int:
    """Count embeddings of ``pattern`` in ``target`` (up to ``limit``)."""
    return VF2Matcher(pattern, target, induced=induced).count_matches(limit=limit)


def are_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Exact graph isomorphism between two labeled graphs.

    Two graphs with equal vertex and edge counts are isomorphic exactly when
    one is subgraph-isomorphic to the other (the injection is then a
    bijection and, with equal edge counts, edge-surjective as well).  This is
    the §4.3 "same query submitted again" check.
    """
    if first.num_vertices != second.num_vertices or first.num_edges != second.num_edges:
        return False
    if first.invariant_signature() != second.invariant_signature():
        return False
    return is_subgraph_isomorphic(first, second)
