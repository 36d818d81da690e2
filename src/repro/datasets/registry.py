"""Dataset registry: named, scalable stand-ins for the paper's datasets.

``load_dataset("aids")`` and friends return a ready-to-index
:class:`~repro.graphs.database.GraphDatabase` whose structural statistics
mirror Table 1 of the paper (see :mod:`repro.datasets.synthetic`).  The
``scale`` parameter multiplies the number of graphs (and, mildly, their
size), so the same code path runs both the quick benchmark configurations
and larger, closer-to-paper configurations when more time is available.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.database import GraphDatabase
from . import synthetic

__all__ = ["DatasetSpec", "available_datasets", "dataset_spec", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of a named dataset configuration."""

    name: str
    description: str
    #: the paper's published Table 1 values, printed beside the generated
    #: collection's by repro.experiments' Table 1
    paper_num_graphs: int
    paper_num_labels: int
    paper_avg_nodes: float
    paper_avg_degree: float
    default_num_graphs: int
    default_num_labels: int
    default_node_range: tuple[int, int]
    default_average_degree: float
    #: recommended maximum path length for path-based methods on this dataset
    recommended_path_length: int


_SPECS: dict[str, DatasetSpec] = {
    "aids": DatasetSpec(
        name="aids",
        description="NCI AIDS antiviral screen: many small sparse molecules",
        paper_num_graphs=40000,
        paper_num_labels=62,
        paper_avg_nodes=45,
        paper_avg_degree=2.09,
        default_num_graphs=300,
        default_num_labels=62,
        default_node_range=(12, 45),
        default_average_degree=2.1,
        recommended_path_length=4,
    ),
    "pdbs": DatasetSpec(
        name="pdbs",
        description="PDBS: few large sparse DNA/RNA/protein structure graphs",
        paper_num_graphs=600,
        paper_num_labels=10,
        paper_avg_nodes=2939,
        paper_avg_degree=2.13,
        default_num_graphs=60,
        default_num_labels=10,
        default_node_range=(60, 220),
        default_average_degree=2.1,
        recommended_path_length=4,
    ),
    "ppi": DatasetSpec(
        name="ppi",
        description="PPI: a handful of large dense protein-interaction networks",
        paper_num_graphs=20,
        paper_num_labels=46,
        paper_avg_nodes=4943,
        paper_avg_degree=9.23,
        default_num_graphs=12,
        default_num_labels=46,
        default_node_range=(60, 110),
        default_average_degree=6.0,
        recommended_path_length=3,
    ),
    "synthetic": DatasetSpec(
        name="synthetic",
        description="Dense synthetic graphs (the paper's generated dataset)",
        paper_num_graphs=1000,
        paper_num_labels=20,
        paper_avg_nodes=892,
        paper_avg_degree=19.52,
        default_num_graphs=40,
        default_num_labels=20,
        default_node_range=(40, 90),
        default_average_degree=8.0,
        recommended_path_length=3,
    ),
}

_GENERATORS = {
    "aids": synthetic.generate_molecule_like,
    "pdbs": synthetic.generate_biomolecule_like,
    "ppi": synthetic.generate_interaction_like,
    "synthetic": synthetic.generate_dense_synthetic,
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(_SPECS)


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` registered under ``name``."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {available_datasets()}"
        ) from None


def load_dataset(name: str, scale: float = 1.0, seed: int | None = None) -> GraphDatabase:
    """Generate the named dataset and wrap it in a :class:`GraphDatabase`.

    Parameters
    ----------
    name:
        One of :func:`available_datasets`.
    scale:
        Multiplier on the number of graphs (``0 < scale``); ``1.0`` is the
        quick default configuration (the spec's ``default_*`` fields).
    seed:
        Override the dataset's default random seed.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    spec = dataset_spec(name)
    generator = _GENERATORS[name]
    num_graphs = max(int(round(spec.default_num_graphs * scale)), 2)
    kwargs = {
        "num_graphs": num_graphs,
        "num_labels": spec.default_num_labels,
        "node_range": spec.default_node_range,
        "average_degree": spec.default_average_degree,
    }
    if seed is not None:
        kwargs["seed"] = seed
    graphs = generator(**kwargs)
    return GraphDatabase.from_graphs(graphs, name=name)
