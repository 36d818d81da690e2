"""Graph substrate: labeled graphs, databases and I/O."""

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

__all__ = [
    "CandidateBitmap",
    "GraphDatabase",
    "GraphError",
    "GraphIdSpace",
    "LabeledGraph",
    "iter_bits",
    "graph_from_dict",
    "graph_to_dict",
    "graphs_from_gfu",
    "graphs_to_gfu",
    "read_gfu",
    "read_jsonl",
    "write_gfu",
    "write_jsonl",
]
