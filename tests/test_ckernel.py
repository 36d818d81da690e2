"""Tests for the native C kernel backend (``kernel="native"``).

The contract is the repository-wide byte-identity guarantee extended to the
second backend: the C kernel (``_ckernel.c``, loaded through
:mod:`repro.isomorphism._ckernel_loader`) must return the same boolean as
the bigint kernel on every (plan, target, mask) triple — cross-validated on
four corpora (random pairs, the supergraph direction, multi-word targets
past 64 vertices, region-masked runs; ``test_verify_pairs.py`` adds the
batch and component-decomposition property) — and the engine built on top
must produce identical answers, accounting and cache state.  The backend
must also *degrade*: with the extension force-disabled
(``REPRO_DISABLE_NATIVE=1``) everything falls back to bigint with no
behaviour change beyond speed, and the fallback is visible in the service
report's ``kernel_resolved`` block rather than silent.
"""

from __future__ import annotations

import ctypes
import pickle
import random

import pytest

from repro.core import IGQ
from repro.core.config import (
    BatchConfig,
    CacheConfig,
    EngineConfig,
    ShardConfig,
    VerifierConfig,
)
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism import (
    KERNELS,
    Verifier,
    compile_query_plan,
    compile_target,
    compiled_has_embedding,
    native_kernel_available,
    resolve_kernel,
)
from repro.isomorphism import _ckernel_loader
from repro.methods import create_method
from repro.service import GraphQueryService

from .conftest import (
    engine_config,
    make_clique,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    random_labeled_graph,
)
from .test_compiled import mask_of_vertices, random_pair
from .test_shard import engine_fingerprint, run_engine

needs_native = pytest.mark.skipif(
    not native_kernel_available(),
    reason="native kernel unavailable (no compiler / REPRO_DISABLE_NATIVE)",
)


@pytest.fixture
def small_db():
    rng = random.Random(19)
    graphs = [random_labeled_graph(rng, rng.randint(6, 12), 0.3) for _ in range(24)]
    return GraphDatabase.from_graphs(graphs, name="ckernel_db")


@pytest.fixture
def queries():
    rng = random.Random(23)
    return [random_labeled_graph(rng, rng.randint(3, 5), 0.5) for _ in range(10)]


# ----------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------
class TestLoader:
    def test_kernel_listed(self):
        assert "native" in KERNELS

    @needs_native
    def test_loaded_artifact_reported(self):
        path = _ckernel_loader.native_kernel_path()
        assert path is not None and path.is_file()

    @needs_native
    def test_resolution_is_cached(self):
        assert _ckernel_loader.kernel() is _ckernel_loader.kernel()

    @needs_native
    def test_stale_abi_rejected(self, monkeypatch):
        """An artifact built for another struct layout must never be driven."""
        assert _ckernel_loader.ABI_VERSION == 7
        library = ctypes.CDLL(str(_ckernel_loader.native_kernel_path()))
        assert _ckernel_loader._configure(library) is library
        monkeypatch.setattr(_ckernel_loader, "ABI_VERSION", 2)
        assert _ckernel_loader._configure(library) is None

    def test_cflags_are_part_of_the_cache_key(self, monkeypatch):
        """A sanitised build must not collide with the ``-O3`` artifact."""
        monkeypatch.delenv("CFLAGS", raising=False)
        plain = _ckernel_loader._source_key(b"source")
        monkeypatch.setenv("CFLAGS", "-O1 -g -fsanitize=address,undefined")
        assert _ckernel_loader._source_key(b"source") != plain


# ----------------------------------------------------------------------
# Kernel parity (the four corpora)
# ----------------------------------------------------------------------
@needs_native
class TestNativeKernelParity:
    """``kernel="native"`` must be observationally identical to the bigint
    loop — same boolean on every (plan, target, mask) triple, since the
    engine's byte-identity guarantee rides on the kernels agreeing."""

    def both_kernels(self, plan, target, mask=None) -> bool:
        bigint = compiled_has_embedding(plan, target, mask, kernel="bigint")
        native = compiled_has_embedding(plan, target, mask, kernel="native")
        assert native == bigint
        return bigint

    def test_known_cases_agree(self):
        cases = [
            (make_path_graph("ABC"), make_cycle_graph("ABC")),
            (make_cycle_graph("ABC"), make_path_graph("ABC")),
            (make_cycle_graph("AAA"), make_clique("AAAA")),
            (make_star_graph("A", "BBB"), make_path_graph("BAB")),
            (LabeledGraph(), make_path_graph("AB")),
        ]
        for pattern, target_graph in cases:
            self.both_kernels(compile_query_plan(pattern), compile_target(target_graph))

    def test_random_pairs_subgraph_direction(self):
        rng = random.Random(171)  # the TestCrossValidation corpus
        positives = 0
        for _ in range(400):
            pattern, target_graph = random_pair(rng)
            positives += self.both_kernels(
                compile_query_plan(pattern), compile_target(target_graph)
            )
        assert positives > 20  # both outcomes exercised

    def test_random_pairs_supergraph_direction(self):
        rng = random.Random(733)
        for _ in range(200):
            query = random_labeled_graph(rng, rng.randint(3, 10), 0.4)
            compiled_query = compile_target(query)
            dataset_graph = random_labeled_graph(rng, rng.randint(1, 6), 0.5)
            self.both_kernels(compile_query_plan(dataset_graph), compiled_query)

    def test_multi_word_targets(self):
        """Targets past 64 vertices span several uint64 words — the CSR
        row arithmetic and cross-word lookahead popcounts must agree."""
        rng = random.Random(65)
        for _ in range(40):
            target_graph = random_labeled_graph(rng, rng.randint(65, 150), 0.05)
            target = compile_target(target_graph)
            for _ in range(5):
                pattern = random_labeled_graph(rng, rng.randint(2, 6), 0.5)
                self.both_kernels(compile_query_plan(pattern), target)

    def test_masked_regions_agree(self):
        rng = random.Random(4242)  # the TestRegionMaskedKernel corpus
        for _ in range(200):
            target_graph = random_labeled_graph(
                rng, rng.randint(2, 10), rng.random() * 0.6, connected=rng.random() < 0.6
            )
            pattern = random_labeled_graph(
                rng, rng.randint(1, 4), rng.random() * 0.8, connected=rng.random() < 0.8
            )
            target = compile_target(target_graph)
            vertices = [vertex for vertex in target_graph.vertices() if rng.random() < 0.6]
            self.both_kernels(
                compile_query_plan(pattern), target, mask_of_vertices(target, vertices)
            )

    def test_verifier_accounting_identical_across_kernels(self, tiny_database):
        query = make_path_graph("ABC")
        verifiers = {name: Verifier(kernel=name) for name in ("bigint", "native", "auto")}
        answers = {}
        for name, verifier in verifiers.items():
            plan = verifier.compile_pattern(query)
            answers[name] = [
                verifier.is_subgraph_compiled(plan, compile_target(tiny_database.get(gid)))
                for gid in tiny_database.ids()
            ]
        assert answers["bigint"] == answers["native"] == answers["auto"]
        reference = verifiers["bigint"].stats
        for name in ("native", "auto"):
            stats = verifiers[name].stats
            assert stats.tests == reference.tests
            assert stats.positives == reference.positives
            assert stats.negatives == reference.negatives


# ----------------------------------------------------------------------
# Resolution and the hoisted dispatch
# ----------------------------------------------------------------------
@needs_native
class TestKernelResolution:
    def test_native_and_auto_resolve_to_native(self):
        assert KERNELS == ("auto", "bigint", "native")
        assert resolve_kernel("native") == "native"
        assert resolve_kernel("auto") == "native"
        assert resolve_kernel("bigint") == "bigint"
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("numpy")

    def test_verifier_reports_resolved_name(self):
        assert Verifier(kernel="native").resolved_kernel_name() == "native"
        assert Verifier(kernel="auto").resolved_kernel_name() == "native"
        assert Verifier(kernel="bigint").resolved_kernel_name() == "bigint"
        assert Verifier(compiled=False).resolved_kernel_name() == "uncompiled"
        assert Verifier(algorithm="ullmann").resolved_kernel_name() == "uncompiled"

    def test_config_accepts_native(self):
        verifier = VerifierConfig(kernel="native").build()
        assert verifier.kernel == "native"
        with pytest.raises(ValueError, match="kernel"):
            VerifierConfig(kernel="simd").build()


# ----------------------------------------------------------------------
# Pickling (compiled forms ride in WAL records)
# ----------------------------------------------------------------------
@needs_native
class TestPickling:
    def test_target_native_cache_excluded_from_pickles(self):
        target = compile_target(make_clique("ABCD"))
        assert target._native is None
        native = target.native()
        assert target.native() is native  # cached
        clone = pickle.loads(pickle.dumps(target))
        assert clone._native is None  # raw addresses never cross processes
        assert compiled_has_embedding(
            compile_query_plan(make_cycle_graph("ABC")), clone, kernel="native"
        )

    def test_plan_native_cache_excluded_from_pickles(self):
        plan = compile_query_plan(make_cycle_graph("ABC"))
        plan.native()
        assert plan._native is not None
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._native is None
        assert clone.steps == plan.steps
        assert compiled_has_embedding(clone, compile_target(make_clique("ABCD")), kernel="native")


# ----------------------------------------------------------------------
# Forced fallback (no hard dependency on a compiler)
# ----------------------------------------------------------------------
class TestForcedFallback:
    def test_env_gate_disables_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        _ckernel_loader.reset_for_testing()
        try:
            assert _ckernel_loader.native_disabled()
            assert not native_kernel_available()
            assert resolve_kernel("native") == "bigint"
            assert resolve_kernel("auto") == "bigint"
            target = compile_target(make_cycle_graph("ABC"))
            # a forced-native verifier still answers correctly (on bigint)
            verifier = Verifier(kernel="native")
            plan = verifier.compile_pattern(make_path_graph("AB"))
            assert verifier.is_subgraph_compiled(plan, target)
            assert verifier.stats.tests == 1
        finally:
            _ckernel_loader.reset_for_testing()

    @needs_native
    def test_fallback_answers_identical(self, monkeypatch):
        rng = random.Random(171)
        corpus = [random_pair(rng) for _ in range(60)]
        native_answers = [
            compiled_has_embedding(compile_query_plan(p), compile_target(t), kernel="native")
            for p, t in corpus
        ]
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        _ckernel_loader.reset_for_testing()
        try:
            fallback_answers = [
                compiled_has_embedding(
                    compile_query_plan(p), compile_target(t), kernel="native"
                )
                for p, t in corpus
            ]
        finally:
            _ckernel_loader.reset_for_testing()
        assert fallback_answers == native_answers


# ----------------------------------------------------------------------
# Engine-level byte-identity
# ----------------------------------------------------------------------
@needs_native
class TestEngineByteIdentity:
    def bigint_baseline(self, small_db, queries):
        method = create_method("ggsx", max_path_length=3, verifier=Verifier(kernel="bigint"))
        engine = IGQ(method, engine_config(10, 3))
        engine.build_index(small_db)
        results = [engine.query(query) for query in queries]
        fingerprint = engine_fingerprint(engine, results)
        engine.close()
        return fingerprint

    def test_sequential_engine_matches_bigint(self, small_db, queries):
        baseline = self.bigint_baseline(small_db, queries)
        method = create_method("ggsx", max_path_length=3, verifier=Verifier(kernel="native"))
        engine = IGQ(method, engine_config(10, 3))
        engine.build_index(small_db)
        results = [engine.query(query) for query in queries]
        fingerprint = engine_fingerprint(engine, results)
        engine.close()
        assert fingerprint == baseline

    def test_default_auto_engine_matches_bigint(self, small_db, queries):
        """The default configuration now runs the native kernel — its
        results must stay identical to the pre-native bigint engine."""
        baseline = self.bigint_baseline(small_db, queries)
        _, fingerprint = run_engine(small_db, queries)
        assert fingerprint == baseline


# ----------------------------------------------------------------------
# Service report visibility
# ----------------------------------------------------------------------
@needs_native
class TestServiceVisibility:
    def test_report_carries_kernel_resolution(self, small_db, queries):
        method = create_method("ggsx", max_path_length=3)
        config = EngineConfig(
            cache=CacheConfig(size=10, window=3),
            shard=ShardConfig(shards=2, backend="inline"),
            batch=BatchConfig(num_workers=2),
        )
        with GraphQueryService(method, config, database=small_db) as service:
            for query in queries[:4]:
                service.query(query)
            report = service.stats()
        # every stage runs in the service's process: one resolution to show
        resolved = report.kernel_resolved
        assert resolved == {"configured": "auto", "parent": "native"}
        assert resolved == report.as_dict()["kernel_resolved"]
