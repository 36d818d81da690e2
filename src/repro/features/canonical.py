"""Canonical string codes for path, cycle and tree features.

Filter-then-verify indexes compare features *by value*: two occurrences of
the same structure anywhere in any graph must map to the same key.  For
general graphs computing such a canonical form is as hard as graph
isomorphism, but for the restricted feature classes used by the reproduced
methods it is cheap (this is exactly the observation CT-Index builds on):

* a **path** is canonicalised by taking the lexicographically smaller of its
  label sequence and the reversed sequence;
* a **cycle** is canonicalised by the lexicographically smallest rotation of
  the label sequence, in either direction;
* a **tree** is canonicalised with the AHU (Aho/Hopcroft/Ullman) encoding,
  rooted at its centroid(s).

All codes are plain strings so they can be used as trie keys, dictionary
keys, and hashed into CT-Index bitmaps.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from ..graphs.graph import GraphError, LabeledGraph

__all__ = [
    "canonical_path_key",
    "canonical_path_code",
    "canonical_cycle_code",
    "canonical_tree_code",
    "tree_code_of_subtree",
]

_SEPARATOR = "\x1f"  # unit separator: never appears in sane label text


def _join(labels: Sequence[Hashable]) -> str:
    return _SEPARATOR.join(str(label) for label in labels)


def canonical_path_key(labels: Sequence[Hashable]) -> tuple[str, ...]:
    """Canonical key of a label path: min(sequence, reversed sequence).

    This tuple of label strings is the feature key the path extractor emits.
    """
    forward = tuple([str(label) for label in labels])
    backward = forward[::-1]
    return forward if forward <= backward else backward


def canonical_path_code(labels: Sequence[Hashable]) -> str:
    """:func:`canonical_path_key` joined into one string."""
    return _SEPARATOR.join(canonical_path_key(labels))


def canonical_cycle_code(labels: Sequence[Hashable]) -> str:
    """Canonical code of a cycle given as the label sequence around it.

    The code is the lexicographically smallest string over all rotations of
    the sequence and of its reversal, prefixed with ``cycle:`` so that a
    cycle can never collide with a path or tree of the same labels.
    """
    values = [str(label) for label in labels]
    if len(values) < 3:
        raise ValueError("a simple cycle has at least 3 vertices")
    best: str | None = None
    for sequence in (values, list(reversed(values))):
        for shift in range(len(sequence)):
            rotated = sequence[shift:] + sequence[:shift]
            code = _join(rotated)
            if best is None or code < best:
                best = code
    return f"cycle:{best}"


def canonical_tree_code(tree: LabeledGraph) -> str:
    """AHU canonical code of a labeled free tree.

    The tree is rooted at its centroid; when the centroid is an edge (two
    centroids) the code is the smaller of the two rooted codes.  Raises
    :class:`GraphError` if the graph is not a tree.
    """
    n = tree.num_vertices
    if n == 0:
        return "tree:"
    if tree.num_edges != n - 1:
        raise GraphError("not a tree: |E| != |V| - 1")
    centroids = _tree_centroids(tree)
    codes = sorted(_rooted_code(tree, root, None) for root in centroids)
    return f"tree:{codes[0]}"


def tree_code_of_subtree(graph: LabeledGraph, vertices: Sequence[Hashable]) -> str:
    """Canonical tree code of the subgraph of ``graph`` induced by ``vertices``.

    The induced subgraph must be a tree (checked by :func:`canonical_tree_code`).
    """
    return canonical_tree_code(graph.subgraph(vertices))


def _rooted_code(tree: LabeledGraph, vertex: Hashable, parent: Hashable | None) -> str:
    child_codes = sorted(
        _rooted_code(tree, child, vertex)
        for child in tree.neighbors(vertex)
        if child != parent
    )
    return "(" + str(tree.label(vertex)) + _SEPARATOR + "".join(child_codes) + ")"


def _tree_centroids(tree: LabeledGraph) -> list[Hashable]:
    """Return the one or two centroid vertices of a tree (by repeated leaf
    stripping, without mutating the input)."""
    degrees = {vertex: tree.degree(vertex) for vertex in tree.vertices()}
    remaining = set(degrees)
    leaves = [vertex for vertex, degree in degrees.items() if degree <= 1]
    while len(remaining) > 2:
        next_leaves: list[Hashable] = []
        for leaf in leaves:
            remaining.discard(leaf)
            for neighbor in tree.neighbors(leaf):
                if neighbor in remaining:
                    degrees[neighbor] -= 1
                    if degrees[neighbor] == 1:
                        next_leaves.append(neighbor)
        leaves = next_leaves
    return sorted(remaining, key=repr)
