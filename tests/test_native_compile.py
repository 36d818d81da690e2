"""Graph compilation in the kernel against the Python marshalling it replaced.

:meth:`CompiledTarget.native` and :meth:`CompiledQueryPlan.native` flatten
the graph (:class:`FlatGraph`) and get a ``ck_target`` / ``ck_plan`` block
back from ``ck_compile_target`` / ``ck_compile_plan``.
``kernel_oracle.marshal_target`` / ``marshal_plan`` — the structs built from
the bigint state in the test tree — are the oracle: every scalar and every
array equal, field by field, so the DFS tree, the test counts and the
answers are the same by construction.  The same arrangement
``ck_path_features`` has with ``kernel_oracle.path_features``
(``tests/test_native_extract.py``); this file is on the ASan leg's pytest
line, where a block freed while a probe-table row still points at it would
be a use-after-free and a short ``label_map`` an over-read.
"""

from __future__ import annotations

import base64
import ctypes
import gc
import pickle
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryCache, SubgraphQueryIndex, SupergraphQueryIndex
from repro.features import FeatureExtractor
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism import Verifier, _ckernel_loader
from repro.isomorphism import compiled as compiled_module
from repro.isomorphism.compiled import (
    CompiledQuery,
    CompiledQueryPlan,
    CompiledTarget,
    _KernelBlock,
    match_pairs,
)

from . import kernel_oracle
from .kernel_oracle import VF2Matcher, compiled_has_embedding
from .conftest import make_cycle_graph, make_path_graph, random_labeled_graph

EXTRACTOR = FeatureExtractor(max_path_length=3)


# ----------------------------------------------------------------------
# Reading the structs back
# ----------------------------------------------------------------------
def _column(kind, address: int, count: int) -> list[int]:
    # an empty column's address is whatever came next in its buffer
    return list((kind * count).from_address(address)) if count else []


def read_target(address: int) -> dict:
    """Every field of the ``ck_target`` at ``address``, arrays by value."""
    struct = kernel_oracle.CkTarget.from_address(address)
    n, words, rows = struct.n, struct.num_words, struct.num_labels
    ladj_indptr = _column(ctypes.c_int64, struct.ladj_indptr, n + 1)
    entries = ladj_indptr[-1]
    return {
        "n": n,
        "num_words": words,
        "num_labels": rows,
        "num_edges": struct.num_edges,
        "label_map_len": struct.label_map_len,
        "adjacency": _column(ctypes.c_uint64, struct.adjacency, n * words),
        "label_members": _column(ctypes.c_uint64, struct.label_members, rows * words),
        "ladj_words": _column(ctypes.c_uint64, struct.ladj_words, entries * words),
        "degrees": _column(ctypes.c_int64, struct.degrees, n),
        "ladj_indptr": ladj_indptr,
        "ladj_labels": _column(ctypes.c_int64, struct.ladj_labels, entries),
        "label_map": _column(ctypes.c_int64, struct.label_map, struct.label_map_len),
        "ranks": _column(ctypes.c_int64, struct.ranks, n),
        "sig_indptr": _column(ctypes.c_int64, struct.sig_indptr, rows + 1),
        "sig_degrees": _column(ctypes.c_int64, struct.sig_degrees, n),
    }


def read_plan(address: int) -> dict:
    """Every field of the ``ck_plan`` at ``address``, arrays by value."""
    struct = kernel_oracle.CkPlan.from_address(address)
    steps, rows = struct.num_steps, struct.num_sig_labels
    anchor_indptr = _column(ctypes.c_int64, struct.anchor_indptr, steps + 1)
    return {
        "num_steps": steps,
        "num_edges": struct.num_edges,
        "num_sig_labels": rows,
        "connected": struct.connected,
        "min_degrees": _column(ctypes.c_int64, struct.min_degrees, steps),
        "lookaheads": _column(ctypes.c_int64, struct.lookaheads, steps),
        "step_labels": _column(ctypes.c_int64, struct.step_labels, steps),
        "anchor_indptr": anchor_indptr,
        "anchors": _column(ctypes.c_int64, struct.anchors, anchor_indptr[-1]),
        "sig_labels": _column(ctypes.c_int64, struct.sig_labels, rows),
        "sig_indptr": _column(ctypes.c_int64, struct.sig_indptr, rows + 1),
        "sig_degrees": _column(ctypes.c_int64, struct.sig_degrees, steps),
        "order": _column(ctypes.c_int64, struct.order, steps),
    }


def assert_kernel_equals_marshalled(graph: LabeledGraph) -> None:
    """Both forms of ``graph``: the kernel's block ≡ the Python marshalling."""
    target, plan = CompiledTarget(graph), CompiledQueryPlan(graph)
    native_target, plan_address = target.native(), plan.native()
    assert isinstance(native_target._block, _KernelBlock)
    assert isinstance(plan._native, _KernelBlock)
    oracle_target, keep_target = kernel_oracle.marshal_target(graph)
    oracle_plan, keep_plan = kernel_oracle.marshal_plan(graph)
    assert read_target(native_target.address) == read_target(oracle_target)
    assert read_plan(plan_address) == read_plan(oracle_plan)
    assert native_target.row_bytes == 8 * read_target(oracle_target)["num_words"]
    assert native_target.full_mask == (1 << graph.num_vertices) - 1


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
#: ways to spell vertex ``i`` whose ``repr`` order is not numeric order
VERTEX_STYLES = (
    lambda i: i,
    lambda i: str(i),
    lambda i: (i,),
    lambda i: (i % 3, i),
    lambda i: f"v{i}",
    lambda i: (str(i), i),
)


def styled_graph(rng: random.Random, n: int, density: float, num_labels: int, mixed: bool):
    """A random graph — no connectivity forced, so isolated vertices and
    several components are the rule at low density — over ``n`` vertices
    inserted in shuffled order and spelt as ints or as a mix of ints, strs
    and tuples."""
    spell = [rng.choice(VERTEX_STYLES) if mixed else VERTEX_STYLES[0] for _ in range(n)]
    vertices = [spell[i](i) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    graph = LabeledGraph()
    for i in order:
        graph.add_vertex(vertices[i], ("tnc", rng.randrange(num_labels)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < density:
            graph.add_edge(vertices[u], vertices[v])
    return graph


class TestKernelEqualsMarshalled:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.sampled_from([0, 1, 2, 3, 4, 6, 9, 14]),
        density=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
        num_labels=st.sampled_from([1, 2, 4, 40]),
        mixed=st.booleans(),
    )
    def test_small_graphs(self, seed, n, density, num_labels, mixed):
        assert_kernel_equals_marshalled(
            styled_graph(random.Random(seed), n, density, num_labels, mixed)
        )

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.08])
    def test_word_boundaries(self, n, density):
        rng = random.Random(1000 * n + int(100 * density))
        assert_kernel_equals_marshalled(styled_graph(rng, n, density, 5, mixed=True))

    def test_repr_order_is_not_numeric_order(self):
        # equal degrees and labels everywhere: every choice the matching
        # order makes is a tie, broken by repr ("10" < "100" < "2" < "9")
        graph = LabeledGraph()
        for vertex in (2, 10, 9, 100):
            graph.add_vertex(vertex, "A")
        for u, v in ((2, 10), (10, 9), (9, 100), (100, 2)):
            graph.add_edge(u, v)
        assert kernel_oracle.repr_ranks(graph) == [2, 0, 3, 1]
        assert kernel_oracle.matching_order(graph) == [10, 2, 100, 9]
        assert_kernel_equals_marshalled(graph)

    def test_three_hundred_labels(self):
        graph = LabeledGraph()
        for vertex in range(320):
            graph.add_vertex(vertex, ("wide", vertex % 310))
        rng = random.Random(7)
        for vertex in range(1, 320):
            graph.add_edge(vertex, rng.randrange(vertex))
        assert_kernel_equals_marshalled(graph)
        native = CompiledTarget(graph).native()  # owns the block being read
        assert read_target(native.address)["num_labels"] == 310

    def test_label_interned_after_the_target_was_compiled(self):
        """The late label's id lies beyond the target's ``label_map``: the
        target lacks it by definition, and nothing reads past the map."""
        target = CompiledTarget(make_cycle_graph("ABC"))
        native = target.native()
        late = ("late", random.random())
        assert late not in compiled_module._LABEL_IDS
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, late)
        pattern.add_edge(0, 1)
        plan = CompiledQueryPlan(pattern)
        plan.native()
        assert compiled_module._LABEL_IDS[late] >= read_target(native.address)["label_map_len"]
        assert not compiled_has_embedding(plan, target)
        assert compiled_has_embedding(CompiledQueryPlan(make_path_graph("AB")), target)
        # and the map is as long as the oracle makes it, late label or not
        assert_kernel_equals_marshalled(make_cycle_graph("ABC"))
        assert_kernel_equals_marshalled(pattern)

    def test_a_compiled_query_flattens_once_for_both_forms(self, monkeypatch):
        flattened = []
        csr = LabeledGraph.csr
        monkeypatch.setattr(
            LabeledGraph, "csr", lambda self: flattened.append(self) or csr(self)
        )
        graph = random_labeled_graph(random.Random(3), 7, 0.4)
        compiled = CompiledQuery(graph)
        assert compiled.compiled_plan().native() and compiled.compiled_target().native()
        assert flattened == [graph]
        # and neither form keeps the arrays once it is compiled
        assert compiled.plan._flat is None and compiled.target._flat is None
        assert_kernel_equals_marshalled(graph)


class _SameRepr:
    """Distinct hashable vertices that all print alike."""

    def __repr__(self) -> str:
        return "same"


def same_repr_graph(rng: random.Random, n: int, density: float, labels: str) -> LabeledGraph:
    """A random graph whose vertices all print as ``same``."""
    vertices = [_SameRepr() for _ in range(n)]
    graph = LabeledGraph()
    for vertex in vertices:
        graph.add_vertex(vertex, rng.choice(labels))
    for index, u in enumerate(vertices):
        for v in vertices[index + 1 :]:
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


class TestCollidingReprs:
    """Vertices that print alike rank by position, so the ranks stay a
    permutation and such graphs compile in the kernel like any other."""

    def test_both_forms_compile_in_the_kernel(self):
        rng = random.Random(11)
        twins = [_SameRepr() for _ in range(5)]
        graph = LabeledGraph()
        for vertex in twins:
            graph.add_vertex(vertex, rng.choice("AB"))
        for vertex in twins[1:]:
            graph.add_edge(vertex, twins[0])
        target, plan = CompiledTarget(graph), CompiledQueryPlan(graph)
        assert isinstance(target.native()._block, _KernelBlock)
        plan.native()
        assert isinstance(plan._native, _KernelBlock)
        assert compiled_has_embedding(plan, target)
        assert not compiled_has_embedding(CompiledQueryPlan(make_cycle_graph("ABA")), target)
        assert_kernel_equals_marshalled(graph)

    def test_random_pairs_answer_as_vf2(self):
        rng = random.Random(29)
        positives = 0
        for _ in range(200):
            pattern = same_repr_graph(rng, rng.randint(1, 5), rng.random() * 0.8, "AB")
            target_graph = same_repr_graph(rng, rng.randint(1, 9), rng.random() * 0.6, "AB")
            expected = VF2Matcher(pattern, target_graph).has_match()
            plan, target = CompiledQueryPlan(pattern), CompiledTarget(target_graph)
            assert match_pairs(plan, [target]) == ([expected], [1])
            assert match_pairs(target, [plan]) == ([expected], [1])
            positives += expected
        assert 20 < positives < 180  # both outcomes exercised


# ----------------------------------------------------------------------
# Lazy forms and pickles
# ----------------------------------------------------------------------
#: three ``CacheEntry`` objects (a square, an edge, a "house") pickled at the
#: commit before compilation moved into the kernel, zlib + base64: every
#: slot of both compiled forms is in there (bitmask lists, steps, sizes,
#: ``_ranks``) — the layout every WAL record and snapshot written until then
#: has; 7.0 drops all but the graph on arrival
PARENT_LAYOUT_ENTRIES = """
eNqVVW1vG0UQ9r3YzmtTiiKf+wUkvjhCssQvqNqUhrLFQAEJIQVrfd56TGyfudtNG1Ak+JCAxCJSsfyfit/Aj+Ej
M7t7ZztJq9DKud2Z2dmdmWee+Sn+65+Nmv13aDr6di7medZNs1x0U56CMHpjn74fzmR+Yv40ez+bU7RbE7Tvj4eG
1XR9lPM5GH3HHba7ouuFW0/4QEzE8MBurYMeeYhnfIreG8X3iud0TZ8Pv+OpmKUndAOr0Z+gx6KeYoEV9FiI63BJ
HtE67KFKKd3sT+imwp3WwX3DAh08MCzUwb5hEbSU3nI2/fFsKF6QIbT+IGsWXUBCq+AC2vQNLxS+aKamfTEcicKw
WG/7s2mmZrIwejPNJhORynE2w11zn8QixwitWxZCwgJos0CdmadGnZuBXnsmuFQ5utOJS1Up6IoXMuepzHKjt22m
HpWmVcob/mLr/gzDgha0zjFI+kLyC646bgltWYrbC3EbEi9O/KlkocYltLy67dVt5xSSM2uUOC/WKPFGbVIpvT7J
Uu4ScWp0Pc2G+PCeXp9zCf0jcVKYX9VAN/iseI4Z6sAtHY4+MC+NXuPDoRj2uSQYxTDG8LBozVxMs2OB2Ir0Dsck
H4+5RLM0K6Q5uPevg6uOJR/ZC3fSbDofI8b6kucjIY2+69I7LrJpls9hXEy7pY3Rt/b98ktnXWYYmrCp68UcQWj0
2ytYHuDLyO+Wrc3j4RfWaAnM2AmFBVLAQhZJgvM8K8ZlTkhDOtKinkXKAmKLAHYscjlOHcbWVxDX8IA+NFWJhG4O
xSgXwkqtN/wvME1l8/SnvDhy2g1Wp5/Quw6519hQ2AlBia0ph1vCbKxeJxd60/lyHpxq3ZqSWu84LWZcZpi76ZVm
0NvOoozC6n0oApJDxDWHtv0o3ejnfIbX9BA921WR5xM+M/CJfqus4+dK5CefkbRqliZCD7sR7TbhkMXwLaazXkgx
t1HbJ+2xULooWY1gTJs2boJy07LJrSHQa9IImF4OBbI3PV4N1AAij6wGHmnChocLbOuYimxgxzMdElpBLIdMVijY
tVKb80TB3QVNVSSl4B1UvgvvlbVJlngGOvC+v7dbksWi7W03K7h3auB+Dx5gY8J+B36Hhy8NPMJbD9DmI2TLx1Wj
wcdo+wQ+rbrkN3gKX5WxfE3APjfwzRLKLbox7yHmPYC+x68ATrlCvYDUZQ1XwqKQylDgB2MpBBwtwgpVmXgXZJV0
FnCb8YArkAgQUPDcv/AHfGF5+Y++3MGeKyr6sOVeLunrPV8qYrhaxDpkqliq4jXzisWvHVlWFdM26qFWrdbdNhTO
LMTuKgYWo4rFi2GFeGgs8BD682/GxNUBEpYDhCZF+D+mSehOlS4SGhayGi0LFzebOB239DcQYMNy/CTymllUPSxZ
elji8N5xj6ls/QsuTbDL7fAQ/r55O7xaaYdqCLBYrnZFyf0sRqb0HVJHkDaqDqGUVH1Ctvbnu2WD7bpf2TPXMjTK
bqub6qpOIwa/Yxl8mebCyzQXeZrzK890V9vvVRWZa7+ERXs0FR2n1hYEG1m2DUvqrbHQsa2j5evJ94avotYV3f8A
cCOHwA==
"""


class TestPickleRoundTrips:
    def test_a_form_never_built_pickles_as_its_graph_alone(self):
        graph = make_cycle_graph("ABCA")
        target, plan = CompiledTarget(graph), CompiledQueryPlan(graph)
        target.native()  # the native form is per process
        plan.native()
        assert target.__getstate__() == {"graph": graph}
        assert plan.__getstate__() == {"pattern": graph}
        for form in (target, plan):
            clone = pickle.loads(pickle.dumps(form))
            assert clone._native is None
            assert (clone.num_vertices, clone.num_edges) == (4, 4)
        assert len(pickle.dumps(target)) < len(pickle.dumps(graph)) + 100

    def test_an_entry_pickled_in_the_parent_layout_restores_and_probes_identically(self):
        restored = pickle.loads(zlib.decompress(base64.b64decode(PARENT_LAYOUT_ENTRIES)))
        assert [entry.graph.name for entry in restored] == ["square", "edge", "house"]
        cache = QueryCache()
        fresh = [
            cache.add(entry.graph, EXTRACTOR.extract(entry.graph), entry.answer)
            for entry in restored
        ]
        for old, new in zip(restored, fresh):
            assert (old.entry_id, old.answer, old.hits, old.removed, old.alleviated_cost) == (
                new.entry_id, new.answer, 1, 3, 1.5
            )
            assert old.features.counts == new.features.counts
            # the eager layout's search state is dropped; the graph stays
            assert old.compiled_target.__getstate__() == {"graph": old.graph}
            assert old.compiled_plan.__getstate__() == {"pattern": old.graph}
            assert old.compiled_target.num_vertices == old.graph.num_vertices
        queries = [entry.graph for entry in restored] + [
            make_path_graph("ABC"),
            make_path_graph("BA"),
            make_cycle_graph("ABCAB"),
            make_path_graph("CCC"),
        ]
        queries[-2].add_edge(0, 3)  # holds the square and the house
        for kind, find in (
            (SubgraphQueryIndex, "find_supergraphs"),
            (SupergraphQueryIndex, "find_subgraphs"),
        ):
            outcomes = []
            for entries in (restored, fresh):
                index = kind(Verifier())
                for entry in entries:
                    index.add(entry)
                outcomes.append(
                    [
                        getattr(index, find)(q, EXTRACTOR.extract(q))
                        for q in queries
                    ]
                    + [index.verifier.stats.tests, index.verifier.stats.positives]
                )
            assert outcomes[0] == outcomes[1]
            assert any(outcomes[0][: len(queries)])

    def test_state_builds_on_first_read_only(self):
        """A form compiles in the kernel on its first use, not before."""
        target = CompiledTarget(make_path_graph("ABC"))
        plan = CompiledQueryPlan(make_path_graph("AB"))
        with pytest.raises(AttributeError):
            getattr(target, "degrees")  # no Python search state
        assert target._native is None and plan._native is None
        assert compiled_has_embedding(plan, target)
        assert target._native is not None and plan._native is not None


class TestPrecompile:
    def database(self) -> GraphDatabase:
        rng = random.Random(2)
        return GraphDatabase.from_graphs(
            random_labeled_graph(rng, rng.randint(3, 9), 0.3) for _ in range(6)
        )

    def test_natively_only_the_blocks_are_built(self):
        database = self.database()
        database.precompile(targets=True, plans=True)
        for graph_id in database:
            for side in (database.compiled_target(graph_id), database.compiled_plan(graph_id)):
                assert isinstance(side._native, (_KernelBlock, compiled_module.NativeTarget))


# ----------------------------------------------------------------------
# Block lifetime
# ----------------------------------------------------------------------
class _CountingLibrary:
    """The loaded kernel, recording what is handed to ``ck_free``."""

    def __init__(self, library) -> None:
        self._library = library
        self.freed: list[int] = []

    def __getattr__(self, name: str):
        return getattr(self._library, name)

    def ck_free(self, address: int) -> None:
        self.freed.append(address)
        self._library.ck_free(address)


class TestBlockLifetime:
    @pytest.fixture
    def library(self, monkeypatch):
        counting = _CountingLibrary(_ckernel_loader.kernel())
        monkeypatch.setattr(_ckernel_loader, "kernel", lambda: counting)
        return counting

    def test_a_block_is_freed_exactly_once_when_its_form_goes(self, library):
        graph = make_cycle_graph("ABC")
        target, plan = CompiledTarget(graph), CompiledQueryPlan(graph)
        addresses = [target.native().address, plan.native()]
        assert plan.native() == addresses[1] and target.native().address == addresses[0]
        # malloc may have handed out an address that was freed before
        before = [library.freed.count(address) for address in addresses]
        clone = pickle.loads(pickle.dumps(target))  # shares no block
        del target, plan
        gc.collect()
        assert [library.freed.count(address) for address in addresses] == [
            count + 1 for count in before
        ]
        assert clone.native().address

    @pytest.mark.parametrize("kind", [SubgraphQueryIndex, SupergraphQueryIndex])
    def test_a_probe_table_row_keeps_the_block_alive(self, library, kind):
        """The row takes over the block its entry's query compiled: the
        form lets go of it, dropping every Python reference frees nothing,
        the probe still runs on it, and clearing the row frees it in the
        kernel — never through a ``ck_free`` from Python."""
        index = kind(Verifier())
        cache = QueryCache()
        graph = make_cycle_graph("ABCA")
        entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
        if kind is SubgraphQueryIndex:
            form = entry.compiled_target = CompiledTarget(graph)
            address = form.native().address
            query, find = make_path_graph("ABC"), index.find_supergraphs
        else:
            form = entry.compiled_plan = CompiledQueryPlan(graph)
            address = form.native()
            query, find = make_cycle_graph("ABCAB"), index.find_subgraphs
            query.add_edge(0, 3)
        index.add(entry)
        assert index._table.row(0)[4] == address  # taken over, not recompiled
        assert form._native is None and entry.compiled_target is entry.compiled_plan is None
        before = library.freed.count(address)
        del form
        gc.collect()
        assert library.freed.count(address) == before
        assert find(query, EXTRACTOR.extract(query)) == [entry.entry_id]
        index.remove(entry.entry_id)
        gc.collect()
        assert index._table.row(0) is None
        assert library.freed.count(address) == before
