"""Compiled verification: graphs compiled once, verified in the C kernel.

The verification stage dominates filter-then-verify query processing, and the
dict-based :class:`~repro.isomorphism.vf2.VF2Matcher` rebuilds all of its
state — target label histogram, matching order, adjacency bookkeeping — for
every ``(query, candidate graph)`` pair.  Almost all of that state is a
property of *one* side of the pair:

* :class:`CompiledTarget` is a dataset graph in the target role: dense
  vertex positions (``graph.vertices()`` order), neighbour bitsets,
  label-partitioned neighbour bitsets, degrees, the label histogram and
  per-label degree signatures.  It is built once per graph and cached on the
  :class:`~repro.graphs.database.GraphDatabase`, so the cost is amortised
  over every query that ever verifies against the graph.
* :class:`CompiledQueryPlan` is a graph in the pattern role — a
  connectivity-aware static matching order plus, per step, the positions of
  the already-matched pattern neighbours and the look-ahead neighbour count.
  It is computed **once per query** and reused across all candidates of the
  batch (and, for supergraph queries where the dataset graphs play the
  pattern role, cached per dataset graph on the database).

Both live in the C kernel (``_ckernel.c``, loaded by
:mod:`repro.isomorphism._ckernel_loader`): constructing a form records the
graph and its size, and the first :meth:`CompiledTarget.native` /
:meth:`CompiledQueryPlan.native` call flattens the graph once
(:class:`FlatGraph`) and gets back a ``ck_target`` / ``ck_plan`` block from
``ck_compile_target`` / ``ck_compile_plan``.  Labels are interned once per
process (append-only ids), so a plan's step labels belong to the plan and
each target maps interned id → local label row.  A form pickles as its graph;
the block is per process and compiled again on arrival.

**Batch entry point** — :func:`match_pairs` verifies every pair of one query
in **one** ``ck_verify_many`` call (signature pre-reject and search per pair,
in candidate order, interpreter lock released once): a shared plan against
many targets (subgraph verification, ``Isub``) or many plans against a shared
target (supergraph verification, ``Isuper``).  It explores the same
non-induced VF2 state space as :class:`VF2Matcher` — the test suite
cross-validates the two, and the kernel against the pure-Python oracle in
``tests/kernel_oracle.py``.  :func:`compiled_has_embedding` is its ``n = 1``
case.

**Region-masked matching** — a pair may carry a region (an ``int`` bitmask
over the target's vertex positions) restricting candidate generation to the
masked vertices.  A masked run answers "does the pattern embed with its image
entirely inside the mask?", which for a vertex-induced region is exactly the
question of matching against the materialised region subgraph.  With
``by_component`` the region is decomposed first — Grapes'
component-restricted verification: connected components in decreasing size
(ties by the smallest vertex ``repr``), size and edge-count pre-checks, one
counted test per surviving component, stop at the first match — all against
the *whole-graph* compiled target, no subgraph is materialised.

:func:`signature_prereject` is the graph-based early-fail check (vertex/edge
counts, label-histogram dominance, per-label degree-signature dominance) the
:class:`~repro.isomorphism.verifier.Verifier` applies on its uncompiled path;
the kernel runs the same check per pair.
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from collections.abc import Hashable, Sequence

from ..graphs.graph import LabeledGraph
from . import _ckernel_loader

__all__ = [
    "CompiledTarget",
    "CompiledQuery",
    "CompiledQueryPlan",
    "FlatGraph",
    "NativeTarget",
    "compile_target",
    "compile_query_plan",
    "compiled_has_embedding",
    "match_pairs",
    "signature_prereject",
    "degree_signature_dominates",
]

#: process-wide label interner: label -> append-only dense id.  Ids are
#: never pickled (the native structs that hold them are per-process caches)
_LABEL_IDS: dict[Hashable, int] = {}
_LABEL_IDS_LOCK = threading.Lock()


def _intern_label(label: Hashable) -> int:
    """The process-wide id of ``label``, assigned on first sight."""
    label_id = _LABEL_IDS.get(label)
    if label_id is None:
        with _LABEL_IDS_LOCK:
            label_id = _LABEL_IDS.setdefault(label, len(_LABEL_IDS))
    return label_id


def _packed(*columns: Sequence[int]) -> tuple[array, list[int]]:
    """The int64 ``columns`` back to back in one buffer, plus the address of
    each column (one allocation per marshalled object instead of one per
    field).  The caller keeps the array alive as long as the addresses."""
    flat: list[int] = []
    starts = []
    for column in columns:
        starts.append(len(flat))
        flat += column
    buffer = array("q", flat)
    base = buffer.buffer_info()[0]
    return buffer, [base + 8 * start for start in starts]


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


def _label_degree_lists(graph: LabeledGraph) -> dict[Hashable, list[int]]:
    """Per-label descending degree lists of ``graph``."""
    by_label: dict[Hashable, list[int]] = {}
    for vertex in graph.vertices():
        by_label.setdefault(graph.label(vertex), []).append(graph.degree(vertex))
    for degrees in by_label.values():
        degrees.sort(reverse=True)
    return by_label


def signature_prereject(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """True if cheap invariants already prove ``pattern ⊄ target``.

    Checks vertex/edge counts, label-histogram dominance and the per-label
    degree-signature condition — all necessary for a (non-induced or
    induced) subgraph isomorphism, so a ``True`` here is always safe to
    report as "no match" without running a matcher.
    """
    if pattern.num_vertices > target.num_vertices:
        return True
    if pattern.num_edges > target.num_edges:
        return True
    target_hist = target.label_histogram()
    for label, count in pattern.label_histogram().items():
        if target_hist.get(label, 0) < count:
            return True
    return not degree_signature_dominates(
        _label_degree_lists(pattern), _label_degree_lists(target)
    )


def _repr_ranks(graph: LabeledGraph) -> list[int]:
    """Per vertex position of ``graph``, the vertex's rank in ``repr`` order;
    vertices whose ``repr`` is equal rank by position, so the ranks are a
    permutation of the positions."""
    reprs = list(map(repr, graph.vertices()))
    ranks = [0] * len(reprs)
    for rank, position in enumerate(sorted(range(len(reprs)), key=reprs.__getitem__)):
        ranks[position] = rank
    return ranks


class FlatGraph:
    """One graph as the int64 arrays the kernel reads, each built once.

    The CSR of :meth:`LabeledGraph.csr <repro.graphs.graph.LabeledGraph.csr>`
    (:meth:`csr`) and the per-vertex label columns: the labels by vertex
    position (:attr:`labels`), and — for the compiles — the interned id of
    each label and the vertex's rank in ``repr`` order.  Path extraction
    (:func:`~repro.features.paths.native_path_features`) and both kernel
    compiles read the same CSR buffer, so a query prepared once — the
    engine hands one of these to the extractor and to its
    :class:`CompiledQuery` — is flattened once, whichever asks first, and
    not at all by nobody.  Read-only once built, so repeats of a query may
    share it.
    """

    __slots__ = ("graph", "_labels", "_csr", "_arguments", "_buffers")

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self._labels: list | None = None
        self._csr: tuple[int, int] | None = None
        self._arguments: tuple | None = None
        #: the arrays behind every address handed out
        self._buffers: list[array] = []

    def _pack(self, *columns: Sequence[int]) -> list[int]:
        """Addresses of ``columns`` packed into a buffer this object keeps
        alive (see :func:`_packed`)."""
        buffer, addresses = _packed(*columns)
        self._buffers.append(buffer)
        return addresses

    @property
    def labels(self) -> list:
        """The vertex labels, by vertex position."""
        if self._labels is None:
            self._labels = list(map(self.graph.label, self.graph.vertices()))
        return self._labels

    def csr(self) -> tuple[int, int]:
        """Addresses of the CSR ``offsets`` and ``neighbours`` columns."""
        if self._csr is None:
            self._csr = tuple(self._pack(*self.graph.csr()))
        return self._csr

    def arguments(self) -> tuple:
        """``(n, offsets, neighbours, label_ids, ranks)`` — the vertex count
        and four addresses into buffers this object keeps alive — as
        ``ck_compile_target`` / ``ck_compile_plan`` take them."""
        if self._arguments is None:
            label_ids = list(map(_intern_label, self.labels))
            ranks = _repr_ranks(self.graph)
            self._arguments = (
                self.graph.num_vertices, *self.csr(), *self._pack(label_ids, ranks)
            )
        return self._arguments


class _KernelBlock:
    """A block the kernel malloc'd (``ck_compile_*``), released with
    ``ck_free`` when the last reference to this object goes (``__del__``
    rather than a ``weakref.finalize``: two of these are made per query)."""

    __slots__ = ("address", "_library")

    def __init__(self, library: ctypes.CDLL, address: int) -> None:
        self.address = address
        self._library = library

    def __del__(self) -> None:
        self._library.ck_free(self.address)


def _native_form(entry_point: str, flat: FlatGraph) -> _KernelBlock:
    """The kernel struct compiled by the kernel's ``entry_point`` from
    ``flat``; its address is valid while the block is referenced."""
    library = _ckernel_loader.kernel()
    address = getattr(library, entry_point)(*flat.arguments())
    if not address:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native graph compilation could not allocate its result")
    return _KernelBlock(library, address)


class _LazyForm:
    """What the two compiled forms of a graph share.

    Constructing one is O(1): the graph and its size.  The kernel form is
    compiled on the first ``native()`` call and kept; a form pickles as its
    graph, and the kernel form is per process.
    """

    __slots__ = ("num_vertices", "num_edges", "_native", "_flat")

    #: the slot holding the source graph
    SOURCE = ""

    def __init__(self, graph: LabeledGraph, flat: FlatGraph | None = None) -> None:
        setattr(self, self.SOURCE, graph)
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self._native = None
        #: the flattened graph to compile from, when a second form shares it
        self._flat = flat

    def _flattened(self) -> FlatGraph:
        """The flattened graph to compile natively from, handed over once."""
        flat, self._flat = self._flat, None
        return flat or FlatGraph(getattr(self, self.SOURCE))

    def __getstate__(self):
        """Pickle the graph alone."""
        return {self.SOURCE: getattr(self, self.SOURCE)}

    def __setstate__(self, state) -> None:
        """Restore a pickle of this layout or of a pre-7.0 one: those may
        also carry the Python search state of the removed bigint kernel,
        which is dropped here."""
        self.__init__(state[self.SOURCE])


class CompiledTarget(_LazyForm):
    """Precompiled verification-side representation of one graph.

    :meth:`native` is what the C kernel reads.  The source graph must not be
    mutated after compilation.
    """

    SOURCE = "graph"

    __slots__ = ("graph",)

    def native(self) -> "NativeTarget":
        """The ``ck_target`` form of this target for the C kernel.

        Compiled on first request and cached for every later verification
        against this target.  The cache is dropped when the target is
        pickled (raw addresses are meaningless in another process; an
        unpickled target compiles on demand).
        """
        native = self._native
        if native is None:
            native = self._native = NativeTarget(self, self._flattened())
        return native

    def __repr__(self) -> str:
        return (
            f"<CompiledTarget |V|={self.num_vertices} |E|={self.num_edges} "
            f"labels={len(self.graph.labels())}>"
        )


class CompiledQueryPlan(_LazyForm):
    """Precompiled pattern-side matching plan, reusable across candidates.

    :meth:`native` is the ``ck_plan`` the C kernel reads: one step per
    matching-order position, each with the pattern vertex's label, degree,
    the order positions of its already-matched neighbours (empty exactly
    when the order restarts on a new connected component) and the number of
    its neighbours matched *later*, which the kernel compares against the
    candidate's count of unused target neighbours.

    The order is computed from the pattern alone (highest degree first, then
    grow connectivity-first preferring the most anchored frontier vertex,
    ties to the smaller ``repr``), so the plan of a dataset graph can be
    cached and reused across every supergraph query it is ever verified
    against.
    """

    SOURCE = "pattern"

    __slots__ = ("pattern",)

    def native(self) -> int:
        """Address of the plan's ``ck_plan`` struct for the C kernel.

        Compiled once and cached, like the target-side form; the block is
        kept alive alongside the address (pin the plan to pin the address).
        The cache is dropped on pickling (raw addresses and interned ids do
        not survive a process hop).
        """
        native = self._native
        if native is None:
            native = self._native = _native_form("ck_compile_plan", self._flattened())
        return native.address

    def __repr__(self) -> str:
        return f"<CompiledQueryPlan |V|={self.num_vertices} |E|={self.num_edges}>"


def compile_target(graph: LabeledGraph) -> CompiledTarget:
    """Compile ``graph`` into its verification-side representation."""
    return CompiledTarget(graph)


def compile_query_plan(pattern: LabeledGraph) -> CompiledQueryPlan:
    """Compile ``pattern`` into a reusable matching plan."""
    return CompiledQueryPlan(pattern)


class CompiledQuery:
    """The compiled forms of one query graph, each built at most once.

    A query is compiled as a *plan* for the ``Isub`` probe and for dataset
    verification, and as a *target* for the ``Isuper`` probe and supergraph
    verification; when the window flush caches it, ``Isuper`` wants the
    plan and ``Isub`` the target again.  The engine creates one of these
    per query and hands it to every stage, so whichever stage needs a form
    first builds it and the rest — including the cache entry the query
    becomes — share the object (and, through it, its native form).  The
    two forms also share one :class:`FlatGraph` — the one its features
    were extracted from, when the caller passes it — so the query is
    flattened once for extraction and both kernel compiles.  ``plan`` /
    ``target`` stay ``None`` until a stage asks.
    """

    __slots__ = ("graph", "plan", "target", "_flat")

    def __init__(self, graph: LabeledGraph, flat: FlatGraph | None = None) -> None:
        self.graph = graph
        self.plan: CompiledQueryPlan | None = None
        self.target: CompiledTarget | None = None
        self._flat = flat if flat is not None else FlatGraph(graph)

    def compiled_plan(self) -> CompiledQueryPlan:
        """The query's matching plan (created on first request)."""
        if self.plan is None:
            self.plan = CompiledQueryPlan(self.graph, self._flat)
        return self.plan

    def compiled_target(self) -> CompiledTarget:
        """The query's target form (created on first request)."""
        if self.target is None:
            self.target = CompiledTarget(self.graph, self._flat)
        return self.target


class NativeTarget:
    """The ``ck_target`` of a :class:`CompiledTarget` for the C kernel.

    ``address`` is the ready-to-pass ``ck_target`` pointer compiled by
    ``ck_compile_target`` from the flattened graph, and ``_block`` the
    block behind it, freed with this object.  ``row_bytes`` / ``full_mask``
    size a region row of this target.  Built via :meth:`CompiledTarget.native`
    and cached there; never pickled.
    """

    __slots__ = ("row_bytes", "full_mask", "address", "_block")

    def __init__(self, target: CompiledTarget, flat: FlatGraph) -> None:
        n = target.num_vertices
        self.row_bytes = 8 * max(1, (n + 63) // 64)
        self.full_mask = (1 << n) - 1
        self._block = _native_form("ck_compile_target", flat)
        self.address = self._block.address


def match_pairs(
    query_side: "CompiledQueryPlan | CompiledTarget",
    candidates: Sequence,
    regions: Sequence[int] | None = None,
    *,
    by_component: bool = False,
) -> tuple[list[bool], list[int]]:
    """Verify every pair of one query; return match flags and test counts.

    ``query_side`` is the side all pairs share: a :class:`CompiledQueryPlan`
    tested against each :class:`CompiledTarget` of ``candidates``, or a
    :class:`CompiledTarget` each :class:`CompiledQueryPlan` of ``candidates``
    is tested against.  Per pair the semantics are identical to
    ``VF2Matcher(pattern, target).has_match()``.

    ``regions`` (optional, one mask over the target's vertex positions per
    pair) restricts pair ``i``'s embedding to the masked target vertices —
    equivalently, to the vertex-induced subgraph the mask denotes; the
    whole-graph signature pre-reject stays sound (the region's invariants
    are dominated by the full target's).  With ``by_component`` the region
    is decomposed and tested component by component (see the module
    docstring), which may count zero or several tests for the pair;
    otherwise every pair counts exactly one.

    One ``ck_verify_many`` call: both sides are compiled once per object
    (:meth:`CompiledTarget.native` / :meth:`CompiledQueryPlan.native`); per
    call only the two pointer arrays, the region rows and the output
    buffers are built.
    """
    count = len(candidates)
    if not count:
        return [], []
    if isinstance(query_side, CompiledQueryPlan):
        natives = [target.native() for target in candidates]
        targets = array("Q", [native.address for native in natives])
        plans = array("Q", (query_side.native(),))
    else:
        natives = [query_side.native()] * count
        targets = array("Q", (natives[0].address,))
        plans = array("Q", [plan.native() for plan in candidates])
    regions_address = None
    if regions is not None:
        # the kernel reads pair i's region as the next row of its target's
        # width, and walks its set bits as vertices: drop bits beyond n
        region_rows = b"".join(
            [
                (region & native.full_mask).to_bytes(native.row_bytes, "little")
                for region, native in zip(regions, natives)
            ]
        )
        regions_address = ctypes.cast(region_rows, ctypes.c_void_p)
    matched = array("B", bytes(count))
    tests = array("q", bytes(8 * count))
    status = _ckernel_loader.kernel().ck_verify_many(
        targets.buffer_info()[0],
        len(targets),
        plans.buffer_info()[0],
        len(plans),
        regions_address,
        by_component,
        matched.buffer_info()[0],
        tests.buffer_info()[0],
    )
    if status < 0:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native kernel scratch allocation failed")
    return list(map(bool, matched)), tests.tolist()


def compiled_has_embedding(
    plan: CompiledQueryPlan,
    target: CompiledTarget,
    vertex_mask: int | None = None,
) -> bool:
    """True if the plan's pattern has a (non-induced) embedding in ``target``
    — inside ``vertex_mask`` when one is given.  The ``n = 1`` case of
    :func:`match_pairs`."""
    regions = None if vertex_mask is None else [vertex_mask]
    return match_pairs(plan, [target], regions)[0][0]
