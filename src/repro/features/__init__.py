"""Feature extraction: paths, trees, cycles, canonical codes and the threshold index."""

from .bitmaps import ThresholdBitmapIndex
from .canonical import (
    canonical_cycle_code,
    canonical_path_code,
    canonical_path_key,
    canonical_tree_code,
    tree_code_of_subtree,
)
from .cycles import cycle_feature_codes, cycle_feature_counts, enumerate_simple_cycles
from .extractor import FeatureExtractor, FeatureKey, GraphFeatures
from .paths import (
    enumerate_simple_paths,
    native_path_features,
    path_coverage,
    path_features,
)
from .trees import (
    enumerate_connected_subsets,
    enumerate_spanning_trees,
    enumerate_tree_subgraphs,
    tree_feature_codes,
    tree_feature_counts,
)

__all__ = [
    "FeatureExtractor",
    "FeatureKey",
    "GraphFeatures",
    "ThresholdBitmapIndex",
    "canonical_cycle_code",
    "canonical_path_code",
    "canonical_path_key",
    "canonical_tree_code",
    "tree_code_of_subtree",
    "cycle_feature_codes",
    "cycle_feature_counts",
    "enumerate_simple_cycles",
    "enumerate_simple_paths",
    "enumerate_connected_subsets",
    "enumerate_spanning_trees",
    "enumerate_tree_subgraphs",
    "native_path_features",
    "path_coverage",
    "path_features",
    "tree_feature_codes",
    "tree_feature_counts",
]
