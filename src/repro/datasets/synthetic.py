"""Synthetic graph generators reproducing the *shape* of the paper's datasets.

The paper evaluates on three real datasets (AIDS antiviral screen molecules,
PDBS biomolecule structures, PPI protein-interaction networks) and one dense
synthetic dataset; Table 1 lists their structural statistics.  The real data
files are not redistributable (and not reachable offline), so this module
provides parameterised generators that reproduce those statistics *and* the
structural property that makes graph query processing interesting on them:
graphs in a real collection share substructure (molecules share functional
groups, proteins share domains), which is what produces non-trivial candidate
sets, false positives, and sub/supergraph relationships among queries.

Every generator therefore works in two steps:

1. build a pool of *motifs* — small connected labeled graphs shared by the
   whole collection (the stand-in for functional groups / domains);
2. assemble each dataset graph by sampling a few motifs (with a Zipf-skewed
   popularity, so some motifs are ubiquitous), bridging them with random
   edges and optionally adding extra random edges to reach the target
   density.

Generation is deterministic given the seed.
"""

from __future__ import annotations

import random

from ..graphs.graph import LabeledGraph

__all__ = [
    "random_connected_graph",
    "MotifPool",
    "generate_motif_collection",
    "generate_molecule_like",
    "generate_biomolecule_like",
    "generate_interaction_like",
    "generate_dense_synthetic",
]


def _label_universe(num_labels: int) -> list[str]:
    """Deterministic label names ``L00..L<n-1>``."""
    return [f"L{index:02d}" for index in range(num_labels)]


def _zipf_weights(count: int, skew: float) -> list[float]:
    return [(rank + 1) ** (-skew) for rank in range(count)]


def random_connected_graph(
    rng: random.Random,
    num_nodes: int,
    average_degree: float,
    labels: list[str],
    label_skew: float = 1.0,
    name: str | None = None,
) -> LabeledGraph:
    """A connected random graph with the requested size, degree and labels.

    Construction: random-attachment spanning tree (guarantees connectivity)
    followed by uniformly random extra edges until the average degree is
    reached.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if average_degree < 0:
        raise ValueError("average_degree must be non-negative")
    label_weights = _zipf_weights(len(labels), label_skew)
    graph = LabeledGraph(name=name)
    for vertex in range(num_nodes):
        graph.add_vertex(vertex, rng.choices(labels, weights=label_weights, k=1)[0])
    for vertex in range(1, num_nodes):
        graph.add_edge(vertex, rng.randrange(vertex))
    target_edges = max(int(round(average_degree * num_nodes / 2.0)), num_nodes - 1)
    max_edges = num_nodes * (num_nodes - 1) // 2
    target_edges = min(target_edges, max_edges)
    attempts = 0
    while graph.num_edges < target_edges and attempts < 20 * target_edges:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class MotifPool:
    """A pool of shared motifs with Zipf-skewed popularity."""

    def __init__(
        self,
        rng: random.Random,
        num_motifs: int,
        size_range: tuple[int, int],
        average_degree: float,
        labels: list[str],
        label_skew: float,
        popularity_skew: float = 1.2,
    ) -> None:
        if num_motifs < 1:
            raise ValueError("num_motifs must be positive")
        low, high = size_range
        self.motifs = [
            random_connected_graph(
                rng,
                rng.randint(low, high),
                average_degree,
                labels,
                label_skew=label_skew,
                name=f"motif{index}",
            )
            for index in range(num_motifs)
        ]
        self._weights = _zipf_weights(num_motifs, popularity_skew)

    def sample(self, rng: random.Random, count: int) -> list[LabeledGraph]:
        """Sample ``count`` motifs with replacement (popular motifs recur)."""
        return rng.choices(self.motifs, weights=self._weights, k=count)


def _assemble_graph(
    rng: random.Random,
    motifs: list[LabeledGraph],
    extra_edge_fraction: float,
    name: str,
) -> LabeledGraph:
    """Union of ``motifs`` bridged into one connected graph."""
    graph = LabeledGraph(name=name)
    blocks: list[list[int]] = []
    next_vertex = 0
    for motif in motifs:
        mapping = {}
        for vertex in motif.vertices():
            mapping[vertex] = next_vertex
            graph.add_vertex(next_vertex, motif.label(vertex))
            next_vertex += 1
        for u, v in motif.edges():
            graph.add_edge(mapping[u], mapping[v])
        blocks.append(list(mapping.values()))
    # Bridge consecutive blocks so the graph is connected.
    for first, second in zip(blocks, blocks[1:]):
        graph.add_edge(rng.choice(first), rng.choice(second))
    # Optional extra random edges to raise density (dense datasets).
    extra_edges = int(round(extra_edge_fraction * graph.num_edges))
    attempts = 0
    while extra_edges > 0 and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u = rng.randrange(next_vertex)
        v = rng.randrange(next_vertex)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            extra_edges -= 1
    return graph


def generate_motif_collection(
    num_graphs: int,
    num_labels: int,
    num_motifs: int,
    motif_size_range: tuple[int, int],
    motifs_per_graph: tuple[int, int],
    average_degree: float,
    label_skew: float,
    extra_edge_fraction: float,
    seed: int,
    prefix: str,
) -> list[LabeledGraph]:
    """Generate a collection of motif-sharing graphs (see module docstring)."""
    if num_graphs < 1:
        raise ValueError("num_graphs must be positive")
    rng = random.Random(seed)
    labels = _label_universe(num_labels)
    pool = MotifPool(
        rng,
        num_motifs=num_motifs,
        size_range=motif_size_range,
        average_degree=average_degree,
        labels=labels,
        label_skew=label_skew,
    )
    low, high = motifs_per_graph
    graphs = []
    for index in range(num_graphs):
        chosen = pool.sample(rng, rng.randint(low, high))
        graphs.append(
            _assemble_graph(rng, chosen, extra_edge_fraction, f"{prefix}{index}")
        )
    return graphs


def generate_molecule_like(
    num_graphs: int = 300,
    num_labels: int = 62,
    node_range: tuple[int, int] = (12, 45),
    average_degree: float = 2.1,
    seed: int = 11,
) -> list[LabeledGraph]:
    """AIDS-like collection: many small, sparse, molecule-shaped graphs.

    The paper's AIDS dataset has 40 000 graphs of ~45 nodes on average; the
    defaults here scale the count down while preserving the shape: small
    sparse graphs, a large but heavily skewed label alphabet, and substantial
    substructure sharing across the collection (shared "functional groups").
    ``node_range`` controls the motif sizes and how many motifs make up one
    graph.
    """
    motif_low = max(node_range[0] // 3, 3)
    motif_high = max(node_range[1] // 4, motif_low + 1)
    return generate_motif_collection(
        num_graphs=num_graphs,
        num_labels=num_labels,
        num_motifs=30,
        motif_size_range=(motif_low, motif_high),
        motifs_per_graph=(3, 5),
        average_degree=average_degree,
        label_skew=2.2,
        extra_edge_fraction=0.0,
        seed=seed,
        prefix="aids",
    )


def generate_biomolecule_like(
    num_graphs: int = 60,
    num_labels: int = 10,
    node_range: tuple[int, int] = (60, 220),
    average_degree: float = 2.1,
    seed: int = 13,
) -> list[LabeledGraph]:
    """PDBS-like collection: fewer, larger, sparse graphs with few labels."""
    motif_low = max(node_range[0] // 4, 8)
    motif_high = max(node_range[1] // 6, motif_low + 1)
    return generate_motif_collection(
        num_graphs=num_graphs,
        num_labels=num_labels,
        num_motifs=18,
        motif_size_range=(motif_low, motif_high),
        motifs_per_graph=(4, 7),
        average_degree=average_degree,
        label_skew=1.0,
        extra_edge_fraction=0.0,
        seed=seed,
        prefix="pdbs",
    )


def generate_interaction_like(
    num_graphs: int = 12,
    num_labels: int = 46,
    node_range: tuple[int, int] = (60, 110),
    average_degree: float = 6.0,
    seed: int = 17,
) -> list[LabeledGraph]:
    """PPI-like collection: a handful of large, dense interaction networks."""
    motif_low = max(node_range[0] // 4, 10)
    motif_high = max(node_range[1] // 4, motif_low + 1)
    return generate_motif_collection(
        num_graphs=num_graphs,
        num_labels=num_labels,
        num_motifs=14,
        motif_size_range=(motif_low, motif_high),
        motifs_per_graph=(4, 5),
        average_degree=average_degree,
        label_skew=1.4,
        extra_edge_fraction=0.15,
        seed=seed,
        prefix="ppi",
    )


def generate_dense_synthetic(
    num_graphs: int = 40,
    num_labels: int = 20,
    node_range: tuple[int, int] = (40, 90),
    average_degree: float = 8.0,
    seed: int = 19,
) -> list[LabeledGraph]:
    """Dense synthetic collection (the paper's generator-produced dataset)."""
    motif_low = max(node_range[0] // 4, 8)
    motif_high = max(node_range[1] // 4, motif_low + 1)
    return generate_motif_collection(
        num_graphs=num_graphs,
        num_labels=num_labels,
        num_motifs=16,
        motif_size_range=(motif_low, motif_high),
        motifs_per_graph=(4, 5),
        average_degree=average_degree,
        label_skew=0.8,
        extra_edge_fraction=0.2,
        seed=seed,
        prefix="syn",
    )
