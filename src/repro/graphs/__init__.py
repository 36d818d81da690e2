"""Graph substrate: labeled graphs, traversal, statistics and I/O."""

from .bitset import CandidateBitmap, GraphIdSpace, iter_bits
from .database import GraphDatabase
from .graph import GraphError, LabeledGraph
from .io import (
    graph_from_dict,
    graph_to_dict,
    graphs_from_gfu,
    graphs_to_gfu,
    read_gfu,
    read_jsonl,
    write_gfu,
    write_jsonl,
)
from .statistics import DatasetStatistics, summarize_dataset
from .traversal import bfs_order, is_connected

__all__ = [
    "CandidateBitmap",
    "GraphDatabase",
    "GraphError",
    "GraphIdSpace",
    "LabeledGraph",
    "iter_bits",
    "DatasetStatistics",
    "summarize_dataset",
    "bfs_order",
    "is_connected",
    "graph_from_dict",
    "graph_to_dict",
    "graphs_from_gfu",
    "graphs_to_gfu",
    "read_gfu",
    "read_jsonl",
    "write_gfu",
    "write_jsonl",
]
