"""Method-specific behaviour: GGSX path index, Grapes locations, CT-Index bitmaps."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features import FeatureExtractor
from repro.graphs import GraphDatabase
from repro.isomorphism import VF2Matcher
from repro.methods import CTIndexMethod, GGSXMethod, GrapesMethod, ScanMethod

from . import kernel_oracle
from .conftest import (
    make_clique,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    random_labeled_graph,
)

#: string labels, some longer than one character
LABELS = ["C", "N", "O", "Cl", "Br"]

extractors = st.one_of(
    st.builds(
        FeatureExtractor,
        kind=st.just(FeatureExtractor.PATHS),
        max_path_length=st.integers(min_value=1, max_value=4),
    ),
    st.just(FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES)),
)


def containment_database() -> GraphDatabase:
    return GraphDatabase.from_graphs(
        [
            make_path_graph("ABC", name="chain"),
            make_cycle_graph("ABC", name="tri"),
            make_cycle_graph("ABCD", name="square"),
            make_star_graph("A", "BBB", name="star"),
            make_clique("ABCD", name="k4"),
        ]
    )


class TestGGSX:
    def test_count_based_filtering(self):
        method = GGSXMethod(max_path_length=2)
        method.build_index(containment_database())
        # The query needs two A-B edges; only graphs with at least two A-B
        # contacts survive the count filter.
        query = make_star_graph("A", "BB")
        candidates = method.filter_candidates(query)
        assert "star" in candidates
        assert "chain" not in candidates

    def test_empty_query_returns_all(self):
        from repro.graphs import LabeledGraph

        method = GGSXMethod(max_path_length=2)
        database = containment_database()
        method.build_index(database)
        assert method.filter_candidates(LabeledGraph()) == set(database.ids())

    def test_feature_index_is_exposed(self):
        method = GGSXMethod(max_path_length=2)
        method.build_index(containment_database())
        assert len(method.feature_index) > 0
        assert method.index_size_bytes() > 0

    def test_custom_extractor(self):
        extractor = FeatureExtractor(max_path_length=1)
        method = GGSXMethod(extractor=extractor)
        assert method.max_path_length == 1


class TestGrapes:
    def test_name_reflects_workers(self):
        assert GrapesMethod(num_workers=1).name == "grapes"
        assert GrapesMethod(num_workers=6).name == "grapes6"

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            GrapesMethod(num_workers=0)

    def test_candidate_regions_cover_embeddings(self):
        method = GrapesMethod(max_path_length=2)
        database = containment_database()
        method.build_index(database)
        query = make_path_graph("ABC")
        square = database.get("square")
        vertices = list(square.vertices())
        region = kernel_oracle.location_union(method, query, "square")
        # Any embedding of the query into the square lies inside the region.
        embeddings = list(VF2Matcher(query, square).iter_matches())
        assert embeddings
        for embedding in embeddings:
            for image in embedding.values():
                assert region >> vertices.index(image) & 1

    def test_verification_restricted_to_components(self):
        method = GrapesMethod(max_path_length=2)
        database = containment_database()
        method.build_index(database)
        query = make_cycle_graph("ABC")
        result = method.query(query)
        # The ABC triangle is contained in the triangle itself and in K4
        # (whose A, B and C vertices are mutually adjacent), nowhere else.
        assert result.answers == {"tri", "k4"}

    def test_disconnected_query_falls_back(self):
        from repro.graphs import LabeledGraph

        method = GrapesMethod(max_path_length=2)
        database = containment_database()
        method.build_index(database)
        query = LabeledGraph()
        query.add_vertex(0, "A")
        query.add_vertex(1, "C")
        result = method.query(query)
        # Every graph containing both an A and a C vertex.
        expected = {
            gid
            for gid, graph in database.items()
            if graph.vertices_with_label("A") and graph.vertices_with_label("C")
        }
        assert result.answers == expected

    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    @given(extractor=extractors, rng=st.randoms(use_true_random=False))
    def test_location_union_is_the_query_label_region(self, extractor, rng):
        """The OR of a graph's locations over the query's feature keys is
        the mask of the graph's vertices whose label occurs in the query —
        the region the kernel builds from its label rows."""

        def graph(sizes):
            labels = rng.sample(LABELS, rng.randint(1, len(LABELS)))
            return random_labeled_graph(
                rng, rng.choice(sizes), rng.random() * 0.5, labels, connected=rng.random() < 0.7
            )

        targets = [graph((1, 3, 5, 8)) for _ in range(3)]
        method = GrapesMethod(extractor=extractor)
        method.build_index(GraphDatabase.from_graphs(targets))
        for _ in range(3):
            query = graph((0, 1, 2, 4, 6))
            labels = query.labels()
            for graph_id, target in method.database.items():
                expected = sum(
                    1 << position
                    for position, vertex in enumerate(target.vertices())
                    if target.label(vertex) in labels
                )
                assert kernel_oracle.location_union(method, query, graph_id) == expected

    def test_index_size_includes_locations(self):
        plain = GGSXMethod(max_path_length=2)
        located = GrapesMethod(max_path_length=2)
        database = containment_database()
        plain.build_index(database)
        located.build_index(database)
        assert located.index_size_bytes() > plain.index_size_bytes()

    def test_index_size_is_the_documented_formula(self):
        """Per graph an 8-byte list header per distinct feature and a 4-byte
        vertex id per vertex a feature key's occurrences cover, on top of
        the threshold index GGSX has too."""
        plain = GGSXMethod(max_path_length=3)
        method = GrapesMethod(max_path_length=3)
        database = containment_database()
        plain.build_index(database)
        method.build_index(database)
        expected = plain.index_size_bytes()
        for graph_id, graph in database.items():
            features = method.graph_features(graph_id)
            expected += 8 * len(features.counts) + 4 * kernel_oracle.coverage(graph, 3)
        assert method.index_size_bytes() == expected

    def test_index_size_walks_the_paths_once_per_build(self, monkeypatch):
        """The location bytes are computed by the first call after a build
        and kept: a second call walks no path, a rebuild walks them again."""
        from repro.methods import grapes as grapes_module

        walked: list = []
        coverage = grapes_module.path_coverage

        def counting_coverage(graph, max_length):
            walked.append(graph.name)
            return coverage(graph, max_length)

        monkeypatch.setattr(grapes_module, "path_coverage", counting_coverage)
        database = containment_database()
        method = GrapesMethod(max_path_length=3)
        method.build_index(database)
        assert walked == []  # the build sizes nothing
        first = method.index_size_bytes()
        assert len(walked) == len(database)
        assert method.index_size_bytes() == first
        assert len(walked) == len(database)
        method.build_index(database)
        assert method.index_size_bytes() == first
        assert len(walked) == 2 * len(database)


class TestCTIndex:
    def test_bitmap_is_deterministic(self):
        method = CTIndexMethod(tree_max_size=3, cycle_max_length=4, bitmap_bits=256)
        other = CTIndexMethod(tree_max_size=3, cycle_max_length=4, bitmap_bits=256)
        database = containment_database()
        method.build_index(database)
        other.build_index(database)
        for graph_id in database.ids():
            assert method.graph_bitmap(graph_id) == other.graph_bitmap(graph_id)

    def test_bitmap_within_width(self):
        method = CTIndexMethod(bitmap_bits=64, tree_max_size=3, cycle_max_length=4)
        method.build_index(containment_database())
        for graph_id in ("tri", "k4"):
            assert method.graph_bitmap(graph_id) < (1 << 64)

    def test_subgraph_bitmap_is_covered(self):
        method = CTIndexMethod(tree_max_size=3, cycle_max_length=4)
        database = containment_database()
        method.build_index(database)
        query = make_cycle_graph("ABC")
        query_bitmap = method.fingerprint(method.extract_query_features(query))
        tri_bitmap = method.graph_bitmap("tri")
        assert tri_bitmap & query_bitmap == query_bitmap

    def test_invalid_bitmap_width(self):
        with pytest.raises(ValueError):
            CTIndexMethod(bitmap_bits=4)

    def test_smaller_bitmaps_cannot_reduce_candidates(self):
        database = containment_database()
        wide = CTIndexMethod(tree_max_size=3, cycle_max_length=4, bitmap_bits=4096)
        narrow = CTIndexMethod(tree_max_size=3, cycle_max_length=4, bitmap_bits=16)
        wide.build_index(database)
        narrow.build_index(database)
        query = make_path_graph("ABC")
        assert set(wide.filter_candidates(query)) <= set(narrow.filter_candidates(query))

    def test_index_size_scales_with_width(self):
        database = containment_database()
        small = CTIndexMethod(tree_max_size=3, cycle_max_length=4, bitmap_bits=256)
        large = CTIndexMethod(tree_max_size=3, cycle_max_length=4, bitmap_bits=8192)
        small.build_index(database)
        large.build_index(database)
        assert large.index_size_bytes() > small.index_size_bytes()


class TestScan:
    def test_candidates_are_size_filtered_universe(self):
        method = ScanMethod()
        database = containment_database()
        method.build_index(database)
        query = make_clique("ABCD")
        candidates = method.filter_candidates(query)
        assert candidates == {"k4"}  # only K4 is large enough
        assert method.index_size_bytes() == 0
