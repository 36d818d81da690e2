"""Dataset substrate: synthetic stand-ins for the paper's graph collections."""

from .registry import (
    DatasetSpec,
    available_datasets,
    dataset_spec,
    load_dataset,
)
from .synthetic import (
    generate_biomolecule_like,
    generate_dense_synthetic,
    generate_interaction_like,
    generate_molecule_like,
    random_connected_graph,
)

__all__ = [
    "DatasetSpec",
    "available_datasets",
    "dataset_spec",
    "load_dataset",
    "generate_biomolecule_like",
    "generate_dense_synthetic",
    "generate_interaction_like",
    "generate_molecule_like",
    "random_connected_graph",
]
