"""Graph traversal: breadth-first order and connectivity.

Grapes' verification reads :func:`is_connected`: a connected query is
tested component by component inside a candidate's region, a disconnected
one against the whole graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterator

from .graph import GraphError, LabeledGraph

__all__ = ["bfs_order", "is_connected"]


def bfs_order(graph: LabeledGraph, source: Hashable) -> Iterator[Hashable]:
    """Yield vertices in breadth-first order starting from ``source``."""
    if not graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source!r}")
    seen = {source}
    queue: deque = deque([source])
    while queue:
        vertex = queue.popleft()
        yield vertex
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)


def is_connected(graph: LabeledGraph) -> bool:
    """True if the graph is connected (the empty graph counts as connected)."""
    if graph.num_vertices == 0:
        return True
    source = next(graph.vertices())
    return len(set(bfs_order(graph, source))) == graph.num_vertices
