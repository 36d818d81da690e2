"""Pure-Python oracles of the C kernel (``src/repro/isomorphism/_ckernel.c``).

The kernel is the only verification kernel the package ships.  What it
replaced lives here, in the test tree, as the reference the native
differentials compare against:

* the *bigint kernel* — :class:`BigintTarget` / :class:`BigintPlan` hold a
  graph's search state as Python ``int`` bitmasks over its vertex positions
  (``graph.vertices()`` order), :func:`bigint_has_embedding` is the
  depth-first search ``ck_verify_many`` transliterates, and
  :func:`match_pairs` its per-pair loop (signature pre-reject, region masks,
  Grapes' component-by-component mode over :func:`label_region` with
  :func:`masked_components` / :func:`masked_edge_count`): same flags, same
  test counts.
  :class:`OracleVerifier` is a ``Verifier`` that runs its compiled pairs
  there, to put a base method on the bigint kernel;
* the *oracle engine* — :func:`oracle_engine`, an ``IGQ`` on
  :class:`OracleVerifier` s whose probes run :func:`oracle_hits` under the
  ``oracle_probes`` fixture of ``conftest``: no verification code shared
  with the kernel;
* :func:`signature_prereject` (the pre-reject on two graphs) and
  :func:`grapes_region_verify` (Grapes on region subgraphs cut from the
  location table, :func:`location_union`, tested with ``VF2Matcher``);
* Grapes' location table, which the package does not keep:
  :func:`tuple_features` (per key its count and covered vertices) and
  :func:`coverage` (what ``ck_path_coverage`` counts);
* the *marshalling* — :func:`marshal_target` / :func:`marshal_plan` build
  the ``ck_target`` / ``ck_plan`` structs from that state, field for field
  what ``ck_compile_target`` / ``ck_compile_plan`` build from the CSR;
* :func:`mask_sums`, the loop ``ck_mask_sums`` replaces, and
  :func:`isub_candidate_ids` / :func:`isuper_candidate_ids`, the Python
  filters ``ck_probe_filter`` replaces (``Isub``'s dominance, ``Isuper``'s
  Algorithm 2);
* :func:`compiled_has_embedding`, one native pair: the single-pair entry
  point the tests drive the kernel through;
* :class:`UllmannMatcher`, Ullmann's [1976] backtracking matcher, a second
  independent subgraph-monomorphism oracle next to ``VF2Matcher``.

Everything here is deliberately slow and obvious.  The matching order breaks
ties by ``repr`` and then by position — the rank the kernel reads — so the
oracle is defined on graphs whose vertices print alike too.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from collections.abc import Hashable, Iterator, Sequence
from itertools import chain

from repro.core import IGQ
from repro.graphs import LabeledGraph
from repro.graphs.bitset import iter_bits
from repro.features import FeatureExtractor, enumerate_simple_paths
from repro.features.canonical import canonical_cycle_code, canonical_path_key, canonical_tree_code
from repro.features.cycles import enumerate_simple_cycles
from repro.features.trees import enumerate_tree_subgraphs
from repro.graphs.traversal import bfs_order, is_connected
from repro.isomorphism import Verifier, VF2Matcher
from repro.isomorphism.compiled import CompiledQueryPlan, _intern_label, _packed
from repro.isomorphism.compiled import match_pairs as native_match_pairs
from repro.methods import create_method


def repr_ranks(graph: LabeledGraph) -> list[int]:
    """Per vertex position, the vertex's rank in ``repr`` order (equal
    ``repr`` s rank by position)."""
    reprs = [repr(vertex) for vertex in graph.vertices()]
    order = sorted(range(len(reprs)), key=lambda position: (reprs[position], position))
    ranks = [0] * len(reprs)
    for rank, position in enumerate(order):
        ranks[position] = rank
    return ranks


def positions(graph: LabeledGraph) -> dict[Hashable, int]:
    """Vertex -> its bit position in every mask over ``graph``."""
    return {vertex: position for position, vertex in enumerate(graph.vertices())}


# ----------------------------------------------------------------------
# The bigint state
# ----------------------------------------------------------------------
class BigintTarget:
    """One graph in the target role as ``int`` bitmasks over its positions.

    ``label_masks`` / ``label_histogram`` / ``label_degrees`` list the
    labels in order of first appearance — the kernel's local label rows.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        position = positions(graph)
        self.labels = [graph.label(vertex) for vertex in graph.vertices()]
        n = len(self.labels)
        adjacency = [0] * n
        label_adjacency: list[dict[Hashable, int]] = [{} for _ in range(n)]
        for u, v in graph.edges():
            pu, pv = position[u], position[v]
            adjacency[pu] |= 1 << pv
            adjacency[pv] |= 1 << pu
            by_label = label_adjacency[pu]
            by_label[self.labels[pv]] = by_label.get(self.labels[pv], 0) | 1 << pv
            by_label = label_adjacency[pv]
            by_label[self.labels[pu]] = by_label.get(self.labels[pu], 0) | 1 << pu
        self.adjacency_masks = adjacency
        self.label_adjacency_masks = label_adjacency
        self.degrees = [mask.bit_count() for mask in adjacency]
        self.label_masks: dict[Hashable, int] = {}
        self.label_histogram: dict[Hashable, int] = {}
        self.label_degrees: dict[Hashable, list[int]] = {}
        for index, label in enumerate(self.labels):
            self.label_masks[label] = self.label_masks.get(label, 0) | 1 << index
            self.label_histogram[label] = self.label_histogram.get(label, 0) + 1
            self.label_degrees.setdefault(label, []).append(self.degrees[index])
        for degrees in self.label_degrees.values():
            degrees.sort(reverse=True)
        self.ranks = repr_ranks(graph)


def matching_order(pattern: LabeledGraph) -> list[Hashable]:
    """The plan's vertex order: a component starts at its vertex of highest
    degree, then the frontier vertex with most placed neighbours, then
    highest degree, comes next; every tie goes to the smaller rank."""
    rank = dict(zip(pattern.vertices(), repr_ranks(pattern)))
    constraint = {vertex: (-pattern.degree(vertex), rank[vertex]) for vertex in rank}
    order: list[Hashable] = []
    remaining = set(rank)
    placed_neighbors = dict.fromkeys(remaining, 0)

    def place(vertex: Hashable) -> None:
        order.append(vertex)
        remaining.discard(vertex)
        for neighbor in pattern.neighbors(vertex):
            placed_neighbors[neighbor] += 1

    while remaining:
        start = min(remaining, key=constraint.__getitem__)
        place(start)
        frontier = {neighbor for neighbor in pattern.neighbors(start) if neighbor in remaining}
        while frontier:
            nxt = min(frontier, key=lambda v: (-placed_neighbors[v],) + constraint[v])
            place(nxt)
            frontier.discard(nxt)
            frontier.update(
                neighbor for neighbor in pattern.neighbors(nxt) if neighbor in remaining
            )
    return order


class BigintPlan:
    """One graph in the pattern role: ``steps`` holds one ``(label, degree,
    anchors, lookahead)`` tuple per matching-order position — ``anchors``
    the order positions of the already-matched neighbours, ``lookahead``
    the number of neighbours matched later."""

    def __init__(self, pattern: LabeledGraph) -> None:
        self.pattern = pattern
        self.num_vertices = pattern.num_vertices
        self.num_edges = pattern.num_edges
        self.label_histogram = dict(pattern.label_histogram())
        self.label_degrees: dict[Hashable, list[int]] = {}
        for vertex in pattern.vertices():
            self.label_degrees.setdefault(pattern.label(vertex), []).append(
                pattern.degree(vertex)
            )
        for degrees in self.label_degrees.values():
            degrees.sort(reverse=True)
        order = matching_order(pattern)
        order_position = {vertex: index for index, vertex in enumerate(order)}
        self.steps = []
        for index, vertex in enumerate(order):
            anchors = []
            lookahead = 0
            for neighbor in pattern.neighbors(vertex):
                if order_position[neighbor] < index:
                    anchors.append(order_position[neighbor])
                else:
                    lookahead += 1
            self.steps.append(
                (pattern.label(vertex), pattern.degree(vertex), tuple(anchors), lookahead)
            )


def degree_signature_dominates(
    pattern_degrees: dict[Hashable, list[int]],
    target_degrees: dict[Hashable, list[int]],
) -> bool:
    """Hall-style degree-signature check, per label.

    A pattern vertex of label ``L`` and degree ``d`` can only map to a target
    vertex of label ``L`` with degree ``>= d``; because that compatibility
    relation is a threshold on sorted degrees, a label class admits an
    injective assignment exactly when the k-th largest pattern degree is
    bounded by the k-th largest target degree for every ``k``.  Both inputs
    map labels to descending degree lists.
    """
    for label, p_degrees in pattern_degrees.items():
        t_degrees = target_degrees.get(label)
        if t_degrees is None or len(t_degrees) < len(p_degrees):
            return False
        for p_degree, t_degree in zip(p_degrees, t_degrees):
            if p_degree > t_degree:
                return False
    return True


def prereject(plan: BigintPlan, target: BigintTarget) -> bool:
    """The signature pre-reject: cheap invariants prove no embedding."""
    if plan.num_vertices > target.num_vertices or plan.num_edges > target.num_edges:
        return True
    for label, count in plan.label_histogram.items():
        if target.label_histogram.get(label, 0) < count:
            return True
    return not degree_signature_dominates(plan.label_degrees, target.label_degrees)


def signature_prereject(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """True if cheap invariants already prove ``pattern ⊄ target``: vertex
    and edge counts, label-histogram and per-label degree-signature
    dominance — :func:`prereject` on two graphs."""
    return prereject(BigintPlan(pattern), BigintTarget(target))


# ----------------------------------------------------------------------
# The bigint kernel
# ----------------------------------------------------------------------
def bigint_has_embedding(
    plan: BigintPlan, target: BigintTarget, vertex_mask: int | None = None
) -> bool:
    """The depth-first search: one explicit frame per matching-order
    position holding the not-yet-tried candidates, tried in ascending
    position order; degree and look-ahead feasibility per candidate."""
    region = -1 if vertex_mask is None else vertex_mask
    steps = plan.steps
    depth_count = len(steps)
    images = [0] * depth_count
    image_bits = [0] * depth_count
    pending = [0] * depth_count
    used = 0
    depth = 0
    advancing = True
    while True:
        label, min_degree, anchors, lookahead = steps[depth]
        if advancing:
            if anchors:
                candidates = -1
                for anchor in anchors:
                    candidates &= target.label_adjacency_masks[images[anchor]].get(label, 0)
            else:
                candidates = target.label_masks.get(label, 0)
            candidates &= region & ~used
        else:
            candidates = pending[depth]
        advanced = False
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            vertex = low.bit_length() - 1
            if target.degrees[vertex] < min_degree:
                continue
            free_neighbors = target.adjacency_masks[vertex] & region & ~used
            if lookahead and free_neighbors.bit_count() < lookahead:
                continue
            pending[depth] = candidates
            images[depth] = vertex
            image_bits[depth] = low
            used |= low
            depth += 1
            if depth == depth_count:
                return True
            advanced = True
            break
        if advanced:
            advancing = True
            continue
        depth -= 1
        if depth < 0:
            return False
        used ^= image_bits[depth]
        advancing = False


def masked_components(target: BigintTarget, vertex_mask: int) -> list[int]:
    """Connected components of ``target`` inside ``vertex_mask`` as masks,
    largest first, ties by the smallest rank they hold — the order
    ``connected_components`` visits the materialised region in."""
    components: list[int] = []
    remaining = vertex_mask
    while remaining:
        frontier = remaining & -remaining
        component = 0
        while frontier:
            component |= frontier
            reached = 0
            for position in iter_bits(frontier):
                reached |= target.adjacency_masks[position]
            frontier = reached & vertex_mask & ~component
        components.append(component)
        remaining &= ~component
    components.sort(
        key=lambda c: (-c.bit_count(), min(target.ranks[p] for p in iter_bits(c)))
    )
    return components


def masked_edge_count(target: BigintTarget, vertex_mask: int) -> int:
    """Edges of ``target`` with both ends inside ``vertex_mask``."""
    total = sum(
        (target.adjacency_masks[position] & vertex_mask).bit_count()
        for position in iter_bits(vertex_mask)
    )
    return total // 2


def match_one(plan: BigintPlan, target: BigintTarget, region: int | None) -> bool:
    """One counted test of one pair (inside ``region`` when given)."""
    if plan.num_vertices == 0:
        return True
    if region is not None and region.bit_count() < plan.num_vertices:
        return False
    if prereject(plan, target):
        return False
    return bigint_has_embedding(plan, target, region)


def match_by_component(plan: BigintPlan, target: BigintTarget, region: int) -> tuple[bool, int]:
    """Grapes' component-restricted verification of one pair: ``(matched,
    tests)``.  A component too small (vertices or edges) for the pattern is
    skipped untested; the first match ends the pair."""
    tests = 0
    if region.bit_count() < plan.num_vertices:
        return False, tests
    for component in masked_components(target, region):
        if component.bit_count() < plan.num_vertices:
            continue
        if masked_edge_count(target, component) < plan.num_edges:
            continue
        tests += 1
        if match_one(plan, target, component):
            return True, tests
    return False, tests


def label_region(plan: BigintPlan, target: BigintTarget) -> int:
    """The target's vertices that carry a label of the pattern: the region
    ``by_component`` decomposes."""
    region = 0
    for label in plan.label_histogram:
        region |= target.label_masks.get(label, 0)
    return region


def match_pairs(
    query_side, candidates: Sequence, regions: Sequence[int] | None = None, by_component=False
) -> tuple[list[bool], list[int]]:
    """``repro.isomorphism.compiled.match_pairs`` on the bigint kernel:
    the same compiled-form arguments, the same flags and test counts."""
    if by_component and regions is not None:
        raise ValueError("by_component computes its own regions; pass no regions")
    if isinstance(query_side, CompiledQueryPlan):
        shared = BigintPlan(query_side.pattern)
        pairs = [(shared, BigintTarget(target.graph)) for target in candidates]
    else:
        shared = BigintTarget(query_side.graph)
        pairs = [(BigintPlan(plan.pattern), shared) for plan in candidates]
    matched, tests = [], []
    for index, (plan, target) in enumerate(pairs):
        full = (1 << target.num_vertices) - 1
        region = None if regions is None else regions[index] & full
        if by_component:
            flag, count = match_by_component(plan, target, label_region(plan, target))
        else:
            flag, count = match_one(plan, target, region), 1
        matched.append(flag)
        tests.append(count)
    return matched, tests


def has_embedding(plan, target, vertex_mask: int | None = None) -> bool:
    """``compiled_has_embedding`` on the bigint kernel."""
    regions = None if vertex_mask is None else [vertex_mask]
    return match_pairs(plan, [target], regions)[0][0]


class OracleVerifier(Verifier):
    """A :class:`Verifier` whose :meth:`verify_pairs` runs on the bigint
    kernel, accounted exactly as the C kernel's calls are."""

    def verify_pairs(self, query_side, candidates, regions=None, by_component=False):
        start = time.perf_counter()
        matched, tests = match_pairs(query_side, candidates, regions, by_component)
        self.record_batch(sum(tests), sum(matched), time.perf_counter() - start)
        return matched


# ----------------------------------------------------------------------
# The marshalling: kernel structs built from the bigint state
# ----------------------------------------------------------------------
class CkTarget(ctypes.Structure):
    """ctypes mirror of ``ck_target`` in ``_ckernel.c``."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in ("n", "num_words", "num_labels", "num_edges", "label_map_len")
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "adjacency",
            "label_members",
            "ladj_words",
            "degrees",
            "ladj_indptr",
            "ladj_labels",
            "label_map",
            "ranks",
            "sig_indptr",
            "sig_degrees",
        )
    ]


class CkPlan(ctypes.Structure):
    """ctypes mirror of ``ck_plan`` in ``_ckernel.c``."""

    _fields_ = [
        (name, ctypes.c_int64) for name in ("num_steps", "num_edges", "num_sig_labels")
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "min_degrees",
            "lookaheads",
            "step_labels",
            "anchor_indptr",
            "anchors",
            "sig_labels",
            "sig_indptr",
            "sig_degrees",
        )
    ]


def marshal_target(graph: LabeledGraph) -> tuple[int, tuple]:
    """The ``ck_target`` of ``graph`` built from its :class:`BigintTarget`:
    its address and the buffers to keep alive while it is read.

    Every bitmask as little-endian ``uint64`` words — ``adjacency`` an
    ``(n, W)`` row-major block, ``label_members`` one row per local label
    row, the label-partitioned adjacency a CSR block whose entries per
    vertex ascend by label row — and the integer columns back to back:
    degrees, the CSR offsets and label rows, ``label_map`` (interned label
    id → local row, ``-1`` for a label the target lacks), the ranks and the
    pre-reject signature (per label row, its vertices' descending degrees).
    """
    target = BigintTarget(graph)
    n = target.num_vertices
    num_words = max(1, (n + 63) // 64)
    row_bytes = num_words * 8
    rows = {label: row for row, label in enumerate(target.label_masks)}
    offsets = [0] * (n + 1)
    entry_labels: list[int] = []
    entry_masks: list[int] = []
    for position, by_label in enumerate(target.label_adjacency_masks):
        entries = sorted((rows[label], mask) for label, mask in by_label.items())
        offsets[position + 1] = offsets[position] + len(entries)
        for row, mask in entries:
            entry_labels.append(row)
            entry_masks.append(mask)
    words = array("Q")
    words.frombytes(
        b"".join(
            mask.to_bytes(row_bytes, "little")
            for masks in (target.adjacency_masks, target.label_masks.values(), entry_masks)
            for mask in masks
        )
    )
    adjacency = words.buffer_info()[0]
    members = adjacency + n * row_bytes
    ladj_words = members + len(rows) * row_bytes
    interned = {_intern_label(label): row for label, row in rows.items()}
    label_map = [-1] * (max(interned, default=-1) + 1)
    for label_id, row in interned.items():
        label_map[label_id] = row
    sig_degrees: list[int] = []
    sig_indptr = [0]
    for label in rows:
        sig_degrees.extend(target.label_degrees[label])
        sig_indptr.append(len(sig_degrees))
    integers, addresses = _packed(
        target.degrees, offsets, entry_labels, label_map, target.ranks, sig_indptr, sig_degrees
    )
    struct = CkTarget(
        n, num_words, len(rows), target.num_edges, len(label_map),
        adjacency, members, ladj_words, *addresses,
    )
    return ctypes.addressof(struct), (struct, words, integers)


def marshal_plan(pattern: LabeledGraph) -> tuple[int, tuple]:
    """The ``ck_plan`` of ``pattern`` built from its :class:`BigintPlan`:
    per-step degrees, look-aheads, interned labels and anchors, plus the
    pre-reject signature (distinct interned labels with their descending
    degree lists); its address and the buffers to keep alive."""
    plan = BigintPlan(pattern)
    steps = plan.steps
    flat_anchors: list[int] = []
    anchor_indptr = [0]
    for _, _, anchors, _ in steps:
        flat_anchors.extend(anchors)
        anchor_indptr.append(len(flat_anchors))
    sig_degrees: list[int] = []
    sig_indptr = [0]
    for degrees in plan.label_degrees.values():
        sig_degrees.extend(degrees)
        sig_indptr.append(len(sig_degrees))
    buffer, addresses = _packed(
        [step[1] for step in steps],
        [step[3] for step in steps],
        [_intern_label(step[0]) for step in steps],
        anchor_indptr,
        flat_anchors,
        [_intern_label(label) for label in plan.label_degrees],
        sig_indptr,
        sig_degrees,
    )
    struct = CkPlan(len(steps), plan.num_edges, len(plan.label_degrees), *addresses)
    return ctypes.addressof(struct), (struct, buffer)


# ----------------------------------------------------------------------
# The credit sums
# ----------------------------------------------------------------------
def mask_sums(costs: array, masks: Sequence[int]) -> list[float]:
    """Per mask, ``costs`` over its set bits added from ``0.0`` in ascending
    position order — the doubles ``ck_mask_sums`` must return."""
    totals = []
    for mask in masks:
        total = 0.0
        for position in iter_bits(mask):
            total += costs[position]
        totals.append(total)
    return totals


# ----------------------------------------------------------------------
# Ullmann's matcher
# ----------------------------------------------------------------------
class UllmannMatcher:
    """Ullmann's [1976] matcher for embeddings of ``pattern`` in ``target``.

    A candidate matrix ``M[i][j]`` (pattern vertex *i* may still map onto
    target vertex *j*) interleaved with *refinement*: a pair ``(i, j)``
    survives only if every neighbour of *i* still has a candidate among the
    neighbours of *j*.  Non-induced subgraph monomorphism with label
    equality, the semantics of ``VF2Matcher``.
    """

    def __init__(self, pattern: LabeledGraph, target: LabeledGraph) -> None:
        self.pattern = pattern
        self.target = target
        self._pattern_vertices = list(pattern.vertices())
        self._target_vertices = list(target.vertices())
        self._target_position = positions(target)

    def has_match(self) -> bool:
        """True if at least one embedding exists."""
        return self.find_one() is not None

    def find_one(self) -> dict[Hashable, Hashable] | None:
        """One embedding (pattern vertex -> target vertex), or ``None``."""
        return next(self.iter_matches(), None)

    def iter_matches(self) -> Iterator[dict[Hashable, Hashable]]:
        """Yield embeddings one at a time."""
        if self.pattern.num_vertices == 0:
            yield {}
            return
        if (
            self.pattern.num_vertices > self.target.num_vertices
            or self.pattern.num_edges > self.target.num_edges
        ):
            return
        candidates = self._initial_candidates()
        if candidates is not None:
            yield from self._backtrack(0, candidates, {})

    def _initial_candidates(self) -> list[set[int]] | None:
        rows: list[set[int]] = []
        for p_vertex in self._pattern_vertices:
            degree = self.pattern.degree(p_vertex)
            row = {
                self._target_position[t_vertex]
                for t_vertex in self.target.vertices_with_label(self.pattern.label(p_vertex))
                if self.target.degree(t_vertex) >= degree
            }
            if not row:
                return None
            rows.append(row)
        return rows

    def _refine(self, candidates: list[set[int]]) -> bool:
        changed = True
        while changed:
            changed = False
            for i, p_vertex in enumerate(self._pattern_vertices):
                pattern_neighbors = [
                    self._pattern_vertices.index(n) for n in self.pattern.neighbors(p_vertex)
                ]
                for j in list(candidates[i]):
                    t_vertex = self._target_vertices[j]
                    around = {self._target_position[n] for n in self.target.neighbors(t_vertex)}
                    if any(not candidates[row] & around for row in pattern_neighbors):
                        candidates[i].discard(j)
                        changed = True
                if not candidates[i]:
                    return False
        return True

    def _backtrack(
        self, row: int, candidates: list[set[int]], mapping: dict[int, int]
    ) -> Iterator[dict[Hashable, Hashable]]:
        if row == len(self._pattern_vertices):
            yield {self._pattern_vertices[i]: self._target_vertices[j] for i, j in mapping.items()}
            return
        used = set(mapping.values())
        p_vertex = self._pattern_vertices[row]
        for j in sorted(candidates[row]):
            if j in used or not self._consistent(p_vertex, self._target_vertices[j], mapping):
                continue
            narrowed = [set(r) for r in candidates]
            narrowed[row] = {j}
            if not self._refine(narrowed):
                continue
            mapping[row] = j
            yield from self._backtrack(row + 1, narrowed, mapping)
            del mapping[row]

    def _consistent(self, p_vertex: Hashable, t_vertex: Hashable, mapping: dict[int, int]) -> bool:
        for i, j in mapping.items():
            if self.pattern.has_edge(p_vertex, self._pattern_vertices[i]) and not (
                self.target.has_edge(t_vertex, self._target_vertices[j])
            ):
                return False
        return True


def ullmann_is_subgraph_isomorphic(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """True if ``pattern`` is subgraph-isomorphic to ``target`` (Ullmann)."""
    return UllmannMatcher(pattern, target).has_match()


# ----------------------------------------------------------------------
# The one-pair entry point and the cache-side filters
# ----------------------------------------------------------------------
def compiled_has_embedding(plan, target, vertex_mask: int | None = None) -> bool:
    """True if the plan's pattern has a (non-induced) embedding in ``target``
    — inside ``vertex_mask`` when one is given: the ``n = 1`` case of
    :func:`repro.isomorphism.compiled.match_pairs`, the native kernel."""
    regions = None if vertex_mask is None else [vertex_mask]
    return native_match_pairs(plan, [target], regions)[0][0]


def _dominates(have: dict, wanted: dict) -> bool:
    """``have`` holds every feature of ``wanted`` at least as often."""
    return all(have.get(code, 0) >= count for code, count in wanted.items())


def isub_candidate_ids(index, features) -> list[int]:
    """``Isub``'s filter as a Python loop: the ids, ascending, of the
    entries of ``index`` holding every feature of ``features`` at least as
    often (what ``ck_probe_filter`` keeps for a table of targets, before
    its size pre-check)."""
    wanted = features.counts
    return sorted(
        entry_id
        for entry_id, entry in index._entries.items()
        if _dominates(entry.features.counts, wanted)
    )


def isuper_candidate_ids(index, features) -> list[int]:
    """Algorithm 2 as a Python loop: the ids, ascending, of the entries of
    ``index`` holding no feature more often than ``features`` does."""
    available = features.counts
    return sorted(
        entry_id
        for entry_id, entry in index._entries.items()
        if _dominates(available, entry.features.counts)
    )


def probe_hits(index, query, features) -> tuple[list[int], int]:
    """A containment index's probe as Python loops: ``(hit ids ascending,
    tests)`` — the direction's filter, the size pre-checks (no test) and
    one ``VF2Matcher`` test per survivor."""
    if index.entry_is_target:
        candidates = isub_candidate_ids(index, features)
    else:
        candidates = isuper_candidate_ids(index, features)
    hits, tests = [], 0
    for entry_id in candidates:
        graph = index._entries[entry_id].graph
        pattern, target = (query, graph) if index.entry_is_target else (graph, query)
        if pattern.num_vertices > target.num_vertices or pattern.num_edges > target.num_edges:
            continue
        tests += 1
        if VF2Matcher(pattern, target).has_match():
            hits.append(entry_id)
    return hits, tests


# ----------------------------------------------------------------------
# The oracle engine
# ----------------------------------------------------------------------
def oracle_hits(index, query, features) -> list:
    """A containment index's hits from :func:`probe_hits`, its tests folded
    into the index's verifier as the native probe folds them — what the
    ``oracle_probes`` fixture puts in place of ``ContainmentIndex._hits``
    for an index on an :class:`OracleVerifier`."""
    start = time.perf_counter()
    hit_ids, tests = probe_hits(index, query, features)
    index.verifier.record_batch(tests, len(hit_ids), time.perf_counter() - start)
    return [index._entries[entry_id] for entry_id in hit_ids]


def oracle_engine(method_name: str, config, **method_options) -> IGQ:
    """An ``IGQ`` on the oracles: the base method verifies on the bigint
    kernel, and so does plan replay's confirming test; the probes are
    :func:`oracle_hits` under the ``oracle_probes`` fixture."""
    method = create_method(method_name, verifier=OracleVerifier(), **method_options)
    return IGQ(method, config, igq_verifier=OracleVerifier())


# ----------------------------------------------------------------------
# Grapes on region subgraphs
# ----------------------------------------------------------------------
def connected_components(graph: LabeledGraph) -> list[set]:
    """The connected components of ``graph`` as vertex sets, largest first,
    ties by the smallest vertex ``repr`` they hold."""
    remaining = set(graph.vertices())
    components: list[set] = []
    while remaining:
        component = set(bfs_order(graph, next(iter(remaining))))
        components.append(component)
        remaining -= component
    components.sort(key=lambda comp: (-len(comp), min(map(repr, comp))))
    return components


def path_occurrences(graph: LabeledGraph, max_length: int) -> Iterator[tuple[tuple, tuple]]:
    """``(key, path)`` for every simple path of ``graph`` up to
    ``max_length`` edges: ``enumerate_simple_paths`` keyed by
    ``canonical_path_key`` of the label strings."""
    text = {vertex: str(graph.label(vertex)) for vertex in graph.vertices()}
    for path in enumerate_simple_paths(graph, max_length):
        yield canonical_path_key([text[vertex] for vertex in path]), path


def tally(graph: LabeledGraph, occurrences) -> tuple[dict, dict]:
    """``(counts, locations)`` of ``(key, vertices)`` occurrences: per key
    their number and the mask (over the positions of ``graph.vertices()``)
    of the vertices they cover — Grapes' location table."""
    bit = {vertex: 1 << position for position, vertex in enumerate(graph.vertices())}
    counts: dict = {}
    located: dict = {}
    for key, vertices in occurrences:
        counts[key] = counts.get(key, 0) + 1
        located[key] = located.get(key, 0) | sum(bit[vertex] for vertex in vertices)
    return counts, located


def tuple_features(extractor: FeatureExtractor, graph: LabeledGraph) -> tuple[dict, dict]:
    """:func:`tally` of the Python enumeration of ``extractor``'s feature
    class: ``(counts, locations)`` keyed by tuple, uncoded."""
    if extractor.kind == FeatureExtractor.PATHS:
        return tally(graph, path_occurrences(graph, extractor.max_path_length))
    trees = (
        ((canonical_tree_code(tree),), tree.vertices())
        for tree in enumerate_tree_subgraphs(graph, extractor.tree_max_size)
    )
    cycles = (
        ((canonical_cycle_code([graph.label(vertex) for vertex in cycle]),), cycle)
        for cycle in enumerate_simple_cycles(graph, extractor.cycle_max_length)
    )
    return tally(graph, chain(trees, cycles))


def coverage(graph: LabeledGraph, max_length: int) -> int:
    """The vertices each path key's occurrences cover, summed over the keys
    of the location table :func:`tally` builds."""
    located = tally(graph, path_occurrences(graph, max_length))[1]
    return sum(mask.bit_count() for mask in located.values())


def location_union(method, query: LabeledGraph, graph_id) -> int:
    """Vertices of ``graph_id`` (a mask over its positions) covered by an
    occurrence of a feature key of ``query``: the union of the location
    lists Grapes would index, built here from :func:`tuple_features`."""
    keys, _ = tuple_features(method.extractor, query)
    _, located = tuple_features(method.extractor, method.database.get(graph_id))
    region = 0
    for key in keys:
        region |= located.get(key, 0)
    return region


def match_region_subgraph(pattern, graph, region) -> tuple[bool, int]:
    """Grapes' dict-based loop for one pair: ``(matched, tests)`` of
    ``pattern`` against the subgraph of ``graph`` induced by the vertices
    ``region`` — its connected components largest first, size and edge
    pre-checks, one ``VF2Matcher`` test per surviving component up to the
    first match."""
    tests = 0
    if len(region) < pattern.num_vertices:
        return False, tests
    region_graph = graph.subgraph(region)
    for component in connected_components(region_graph):
        if len(component) < pattern.num_vertices:
            continue
        component_graph = region_graph.subgraph(component)
        if component_graph.num_edges < pattern.num_edges:
            continue
        tests += 1
        if VF2Matcher(pattern, component_graph).has_match():
            return True, tests
    return False, tests


def grapes_region_verify(method, query, candidate_ids) -> tuple[set, int]:
    """Grapes' verification on materialised graphs: ``(answers, tests)`` —
    per candidate :func:`match_region_subgraph` inside
    :func:`location_union`; a disconnected query is one whole-graph test."""
    answers, tests = set(), 0
    for graph_id in candidate_ids:
        graph = method.database.get(graph_id)
        if is_connected(query):
            vertices = list(graph.vertices())
            region = location_union(method, query, graph_id)
            matched, count = match_region_subgraph(
                query, graph, [vertices[position] for position in iter_bits(region)]
            )
        else:
            matched, count = VF2Matcher(query, graph).has_match(), 1
        tests += count
        if matched:
            answers.add(graph_id)
    return answers, tests
