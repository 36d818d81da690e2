"""Tests for the C kernel, the only verification kernel.

The contract is the repository-wide byte-identity guarantee: the C kernel
(``_ckernel.c``, loaded through :mod:`repro.isomorphism._ckernel_loader`)
must return the same boolean as the pure-Python bigint kernel of
``tests/kernel_oracle.py`` on every (plan, target, mask) triple —
cross-validated on four corpora (random pairs, the supergraph direction,
multi-word targets past 64 vertices, region-masked runs;
``test_verify_pairs.py`` adds the batch and component-decomposition
property) — and the engine built on top must produce the answers,
accounting and cache state of the oracle engine
(``kernel_oracle.oracle_engine``: the bigint kernel for the base method,
``VF2Matcher`` behind the Python filters for the probes).
A host that cannot build the kernel gets an ``ImportError`` that says how
to fix it, not a slower engine.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import IGQ
from repro.core.config import BatchConfig, CacheConfig, EngineConfig, ShardConfig
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism import (
    Verifier,
    compile_query_plan,
    compile_target,
)
from repro.isomorphism import _ckernel_loader
from repro.methods import create_method
from repro.service import GraphQueryService

from . import kernel_oracle
from .kernel_oracle import compiled_has_embedding
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
    def test_loaded_artifact_reported(self):
        path = _ckernel_loader.native_kernel_path()
        assert path is not None and path.is_file()

    def test_resolution_is_cached(self):
        assert _ckernel_loader.kernel() is _ckernel_loader.kernel()

    def test_a_failed_build_raises_import_error_and_keeps_it(self, monkeypatch):
        """No compiler: the first call and every later one raise an
        ``ImportError`` naming the source, the failed command with the tail
        of its output, and the fix."""
        monkeypatch.setattr(_ckernel_loader, "_installed_extension", lambda: None)
        command = ["cc", "-O3", "-shared", "-fPIC", "-o", "out.so", "_ckernel.c"]

        def failing_compile():
            failing_compile.calls += 1
            raise subprocess.CalledProcessError(
                1, command, stderr=b"line 1\n_ckernel.c:1: error: no toolchain\n"
            )

        failing_compile.calls = 0
        monkeypatch.setattr(_ckernel_loader, "_compile_cached", failing_compile)
        _ckernel_loader.reset_for_testing()
        try:
            messages = []
            for _ in range(2):
                with pytest.raises(ImportError) as raised:
                    _ckernel_loader.kernel()
                messages.append(str(raised.value))
            assert failing_compile.calls == 1  # the failure is kept, not retried
            for message in messages:
                assert "_ckernel.c" in message and "cc -O3 -shared -fPIC" in message
                assert "error: no toolchain" in message
                assert "CC" in message and "pip install -e ." in message
        finally:
            _ckernel_loader.reset_for_testing()

    def test_stale_abi_rejected(self, monkeypatch):
        """An artifact built for another struct layout must never be driven."""
        assert _ckernel_loader.ABI_VERSION == 14
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


class TestRuntimeDependencies:
    def test_import_repro_leaves_numpy_out(self):
        """Nothing but the C kernel backs verification: ``import repro``
        (and a verified query) loads no numpy."""
        source = Path(repro.__file__).resolve().parent.parent
        script = (
            "import sys, repro\n"
            "from repro.isomorphism import compile_query_plan, compile_target, match_pairs\n"
            "graph = repro.LabeledGraph.from_edges({0: 'A', 1: 'B'}, [(0, 1)])\n"
            "assert match_pairs(compile_query_plan(graph), [compile_target(graph)])[0][0]\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
        )
        environment = dict(os.environ, PYTHONPATH=str(source))
        done = subprocess.run(
            [sys.executable, "-c", script], env=environment, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Kernel parity (the four corpora)
# ----------------------------------------------------------------------
class TestNativeKernelParity:
    """The C kernel must be observationally identical to the bigint oracle —
    same boolean on every (plan, target, mask) triple, since the engine's
    byte-identity guarantee rides on the kernel being right."""

    def both_kernels(self, plan, target, mask=None) -> bool:
        bigint = kernel_oracle.has_embedding(plan, target, mask)
        native = compiled_has_embedding(plan, target, mask)
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
        """The verifier folds the kernel's counts: one test a pair, the
        positives the oracle finds."""
        query = make_path_graph("ABC")
        verifier = Verifier()
        plan = verifier.compile_pattern(query)
        targets = [compile_target(tiny_database.get(gid)) for gid in tiny_database.ids()]
        answers = [verifier.is_subgraph_compiled(plan, target) for target in targets]
        assert answers == kernel_oracle.match_pairs(plan, targets)[0]
        stats = verifier.stats
        assert stats.tests == len(targets)
        assert stats.positives == sum(answers) and stats.negatives == len(targets) - sum(answers)


# ----------------------------------------------------------------------
# Pickling (compiled forms ride in WAL records)
# ----------------------------------------------------------------------
class TestPickling:
    def test_target_native_cache_excluded_from_pickles(self):
        target = compile_target(make_clique("ABCD"))
        assert target._native is None
        native = target.native()
        assert target.native() is native  # cached
        clone = pickle.loads(pickle.dumps(target))
        assert clone._native is None  # raw addresses never cross processes
        assert compiled_has_embedding(compile_query_plan(make_cycle_graph("ABC")), clone)

    def test_plan_native_cache_excluded_from_pickles(self):
        plan = compile_query_plan(make_cycle_graph("ABC"))
        plan.native()
        assert plan._native is not None
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._native is None
        assert clone.pattern == plan.pattern
        assert compiled_has_embedding(clone, compile_target(make_clique("ABCD")))


# ----------------------------------------------------------------------
# Engine-level byte-identity
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("oracle_probes")
class TestEngineByteIdentity:
    def oracle_baseline(self, small_db, queries):
        """The oracle engine: base method, probes and replay on the oracles."""
        engine = kernel_oracle.oracle_engine("ggsx", engine_config(10, 3), max_path_length=3)
        engine.build_index(small_db)
        results = [engine.query(query) for query in queries]
        fingerprint = engine_fingerprint(engine, results)
        engine.close()
        return fingerprint

    def test_sequential_engine_matches_bigint(self, small_db, queries):
        baseline = self.oracle_baseline(small_db, queries)
        method = create_method("ggsx", max_path_length=3, verifier=Verifier())
        engine = IGQ(method, engine_config(10, 3))
        engine.build_index(small_db)
        results = [engine.query(query) for query in queries]
        fingerprint = engine_fingerprint(engine, results)
        engine.close()
        assert fingerprint == baseline

    def test_default_auto_engine_matches_bigint(self, small_db, queries):
        """The default configuration runs the C kernel — its results must
        stay identical to the oracle engine."""
        baseline = self.oracle_baseline(small_db, queries)
        _, fingerprint = run_engine(small_db, queries)
        assert fingerprint == baseline


# ----------------------------------------------------------------------
# Service report visibility
# ----------------------------------------------------------------------
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
        assert resolved == {"parent": "native"}
        assert resolved == report.as_dict()["kernel_resolved"]
