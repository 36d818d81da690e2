"""Compiled verification fast path: bitset-based VF2 kernel.

The verification stage dominates filter-then-verify query processing, and the
dict-based :class:`~repro.isomorphism.vf2.VF2Matcher` rebuilds all of its
state — target label histogram, matching order, adjacency bookkeeping — for
every ``(query, candidate graph)`` pair.  Almost all of that state is a
property of *one* side of the pair:

* :class:`CompiledTarget` captures everything the kernel needs about a
  dataset graph — a dense vertex id space (reusing
  :class:`~repro.graphs.bitset.GraphIdSpace`, generalised here from graph ids
  to vertex ids), neighbour bitsets, label-partitioned neighbour bitsets,
  degree arrays, the label histogram and per-label degree signatures.  It is
  built once per graph and cached on the
  :class:`~repro.graphs.database.GraphDatabase`, so the cost is amortised
  over every query that ever verifies against the graph.
* :class:`CompiledQueryPlan` captures everything that depends only on the
  pattern — a connectivity-aware static matching order plus, per step, the
  positions of the already-matched pattern neighbours and the look-ahead
  neighbour count.  It is computed **once per query** and reused across all
  candidates of the batch (and, for supergraph queries where the dataset
  graphs play the pattern role, cached per dataset graph on the database).

The kernel itself (:func:`compiled_has_embedding`) explores the same
non-induced VF2 state space as :class:`VF2Matcher` — the test suite
cross-validates the two against each other and against ``networkx`` — but
its candidate generation is pure ``int`` bitmask intersection: the images of
the matched pattern neighbours contribute their label-partitioned adjacency
masks, the intersection is stripped of used vertices with one ``& ~used``,
and feasibility reduces to an array lookup plus a ``bit_count``.

:func:`signature_prereject` is the shared early-fail check (vertex/edge
counts, label-histogram dominance, per-label degree-signature dominance);
it rejects most non-matching candidates before any search starts and is
also applied by the :class:`~repro.isomorphism.verifier.Verifier` on the
non-compiled path.

**Batch entry point** — :func:`match_pairs` verifies every pair of one query
in one go: a shared plan against many targets (subgraph verification,
``Isub``) or many plans against a shared target (supergraph verification,
``Isuper``).  Natively that is **one** ``ck_verify_many`` call per query
(signature pre-reject and search per pair, in candidate order, interpreter
lock released once); without the native library it is the per-pair bigint
loop.  :func:`compiled_has_embedding` is its ``n = 1`` case.

**Region-masked matching** — a pair may carry a region (an ``int`` bitmask
over the target's :class:`VertexIdSpace`) restricting candidate generation
to the masked vertices.  A masked run answers "does the pattern embed with
its image entirely inside the mask?", which for a vertex-induced region is
exactly the question of matching against the materialised region subgraph.
With ``by_component`` the region is decomposed first — Grapes'
component-restricted verification: connected components in decreasing
size (ties by the smallest vertex ``repr``, precomputed per target as
:meth:`CompiledTarget.vertex_ranks`), size and edge-count pre-checks, one
counted test per surviving component, stop at the first match — all
against the *whole-graph* compiled target, no subgraph is materialised.
:func:`masked_components` and :func:`masked_edge_count` are the Python form
(the bigint fallback and the oracle the C kernel is tested against).

**Kernel backends** — two interchangeable implementations selected by the
``kernel`` argument (threaded through
:class:`~repro.core.config.VerifierConfig.kernel`):

* ``"bigint"`` — the pure-Python arbitrary-precision ``int`` bitmask loop;
  always available.
* ``"native"`` — the same search compiled to machine code: a hand-written
  C kernel (``_ckernel.c``) over ``uint64`` word arrays, driven through
  ctypes.  The kernel also *compiles* the graphs: :meth:`CompiledTarget.native`
  and :meth:`CompiledQueryPlan.native` flatten the graph once
  (:class:`FlatGraph`) and get back a ``ck_target`` / ``ck_plan`` block from
  ``ck_compile_target`` / ``ck_compile_plan``; a verification call passes
  two pointer arrays.  Labels are interned once per process (append-only
  ids), so a plan's step labels belong to the plan and each target maps
  interned id → local label row.  Built as an *optional* setuptools
  extension or compiled on demand into a user cache by
  :mod:`repro.isomorphism._ckernel_loader`; falls back to ``"bigint"`` when
  neither works (no compiler, ``REPRO_DISABLE_NATIVE``).
* ``"auto"`` (default) — ``"native"`` whenever the C kernel is loadable,
  else ``"bigint"``.

(A third, numpy ``uint64`` backend was measured at 0.5–0.7x of bigint at
every graph size and deleted; see docs/performance.md.)

**Two forms, each built when first read** — constructing a
:class:`CompiledTarget` / :class:`CompiledQueryPlan` records the graph and
its size and nothing else.  The *bigint state* (the bitmask lists, ``steps``,
histograms and degree lists described above) is built on the first read of
any of its attributes — by the bigint kernel, :class:`DatasetSignatures`,
the tests — and the *native form* on the first :meth:`native` call; on the
native path the bigint state of a graph is therefore never built, and a form
whose bigint state was never built pickles as its graph alone.  The kernel's
structs are field for field what :func:`_marshal_target` /
:func:`_marshal_plan` build from the bigint state; those two stay as the
route for graphs with two vertices of one ``repr`` (the matching order breaks
ties by ``repr``) and as the oracle of ``tests/test_native_compile.py``.

Both backends explore the *identical* DFS tree (same matching order, same
ascending candidate order, same feasibility predicates evaluated against
the same ``used`` state) and count the identical tests, so answers — and
therefore every downstream accounting and cache decision — are
byte-identical by construction.  The test suite cross-validates them
against each other and against networkx.

:class:`DatasetSignatures` is the batched form of the signature pre-check
for the bigint fallback: the per-graph invariants of a whole dataset
stacked into aligned numpy arrays so one vectorised pass rejects every
non-matching candidate of a query before any per-pair matching starts
(both query directions).  The native kernel runs its own pre-reject per
pair instead.
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from collections.abc import Hashable, Sequence

from ..graphs.bitset import VertexIdSpace, iter_bits
from ..graphs.graph import LabeledGraph
from . import _ckernel_loader
from ._ckernel_loader import native_kernel_available

try:  # pragma: no cover - numpy is optional (batched pre-reject only)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None

__all__ = [
    "CompiledTarget",
    "CompiledQuery",
    "CompiledQueryPlan",
    "DatasetSignatures",
    "FlatGraph",
    "NativeTarget",
    "KERNELS",
    "compile_target",
    "compile_query_plan",
    "compiled_has_embedding",
    "match_pairs",
    "masked_components",
    "masked_edge_count",
    "native_kernel_available",
    "numpy_available",
    "resolve_kernel",
    "signature_prereject",
    "degree_signature_dominates",
]

#: accepted values of the ``kernel`` flag, in documentation order
KERNELS = ("auto", "bigint", "native")


def numpy_available() -> bool:
    """True if numpy can be imported (:class:`DatasetSignatures` needs it)."""
    return _np is not None


def resolve_kernel(kernel: str) -> str:
    """Resolve a ``kernel`` request to the backend actually run.

    ``"bigint"`` always resolves to itself; ``"native"`` and ``"auto"``
    resolve to the C kernel when :func:`native_kernel_available` and to
    ``"bigint"`` otherwise.  Resolution is per *process*: a worker without
    a C compiler resolves ``"native"`` to ``"bigint"`` locally, regardless
    of its parent.
    """
    if kernel == "bigint":
        return "bigint"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return "native" if native_kernel_available() else "bigint"


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


def _repr_ranks(graph: LabeledGraph) -> tuple[list[int], bool]:
    """Per vertex position of ``graph``, the vertex's rank in ``repr`` order,
    and whether every ``repr`` is distinct (equal ones rank by
    position, which is an order but not the one the matching order's
    ``repr`` tie-break finds)."""
    reprs = list(map(repr, graph.vertices()))
    ranks = [0] * len(reprs)
    for rank, position in enumerate(sorted(range(len(reprs)), key=reprs.__getitem__)):
        ranks[position] = rank
    return ranks, len(set(reprs)) == len(reprs)


class FlatGraph:
    """One graph as the int64 arrays the kernel reads, each built once.

    The CSR of :meth:`LabeledGraph.csr <repro.graphs.graph.LabeledGraph.csr>`
    (:meth:`csr`) and the per-vertex label columns: the labels by vertex
    position (:attr:`labels`), and — for the compiles — the interned id of
    each label and the vertex's rank in ``repr`` order (what
    :meth:`CompiledTarget.vertex_ranks` returns).  Path extraction
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
        self._arguments: tuple | None | bool = False  # False: not flattened yet
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

    def arguments(self) -> tuple | None:
        """``(n, offsets, neighbours, label_ids, ranks)`` — the vertex count
        and four addresses into buffers this object keeps alive — as
        ``ck_compile_target`` / ``ck_compile_plan`` take them; ``None`` when
        two vertices share a ``repr`` (the graph compiles in Python then)."""
        arguments = self._arguments
        if arguments is False:
            graph = self.graph
            ranks, distinct = _repr_ranks(graph)
            arguments = None
            if distinct:
                label_ids = list(map(_intern_label, self.labels))
                arguments = (graph.num_vertices, *self.csr(), *self._pack(label_ids, ranks))
            self._arguments = arguments
        return arguments


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


def _native_form(entry_point: str, flat: FlatGraph, marshal, compiled) -> tuple[int, object]:
    """``(address, owner)`` of the kernel struct of ``compiled``: compiled by
    the kernel's ``entry_point`` from ``flat``, or — two vertices
    share a ``repr`` — marshalled by ``marshal`` from the bigint state.  The address
    is valid while ``owner`` is referenced.  Callers guarantee the library
    loaded."""
    arguments = flat.arguments()
    if arguments is None:
        return marshal(compiled)
    library = _ckernel_loader.kernel()
    address = getattr(library, entry_point)(*arguments)
    if not address:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native graph compilation could not allocate its result")
    return address, _KernelBlock(library, address)


class _LazyForm:
    """What the two compiled forms of a graph share.

    Constructing one is O(1): the graph and its size.  The *native form*
    is compiled on the first ``native()`` call; the *bigint state* — the
    slots named by ``STATE`` — on the first read of one of them, or by
    :meth:`build_state`.  A form pickles as its graph, plus the bigint
    state if that was built; the native form is per process.
    """

    __slots__ = ("num_vertices", "num_edges", "_built", "_native", "_flat")

    #: the slot holding the source graph, and the slots of the bigint state
    SOURCE = ""
    STATE: tuple[str, ...] = ()

    def __init__(self, graph: LabeledGraph, flat: FlatGraph | None = None) -> None:
        setattr(self, self.SOURCE, graph)
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self._built = False
        self._native = None
        #: the flattened graph to compile from, when a second form shares it
        self._flat = flat

    def __getattr__(self, name: str):
        """Build the bigint state on the first read of one of its slots."""
        if name in self.STATE and not self._built:
            self.build_state()
            return getattr(self, name)
        raise AttributeError(name)

    def build_state(self) -> None:
        """Build the bigint state now, unless it exists."""
        if not self._built:
            self._build_state()
            self._built = True

    def _flattened(self) -> FlatGraph:
        """The flattened graph to compile natively from, handed over once."""
        flat, self._flat = self._flat, None
        return flat or FlatGraph(getattr(self, self.SOURCE))

    def __getstate__(self):
        """Pickle the graph, and the bigint state only if it was built."""
        slots = (self.SOURCE, *self.STATE) if self._built else (self.SOURCE,)
        return {slot: getattr(self, slot) for slot in slots}

    def __setstate__(self, state) -> None:
        """Restore a pickle of this layout or of the eager one before it
        (every slot but the native form); both forms are rebuilt on demand."""
        self.__init__(state[self.SOURCE])
        for slot, value in state.items():
            setattr(self, slot, value)
        self._built = self.STATE[0] in state


class CompiledTarget(_LazyForm):
    """Precompiled verification-side representation of one graph.

    The native form (:meth:`native`) is what the C kernel reads.  The bigint
    state (built on first read, see :class:`_LazyForm`) is per-vertex arrays
    indexed by a dense vertex id (assigned by a frozen :class:`GraphIdSpace`
    over the vertex ids) and neighbourhood state stored as ``int`` bitmasks
    over that id space.  The source graph is kept for fallback paths
    (Ullmann, induced semantics) and must not be mutated after compilation.
    """

    SOURCE = "graph"
    STATE = (
        "space",
        "labels",
        "degrees",
        "adjacency_masks",
        "label_adjacency_masks",
        "label_masks",
        "label_histogram",
        "label_degrees",
    )

    __slots__ = ("graph", *STATE, "_ranks")

    def __init__(self, graph: LabeledGraph, flat: FlatGraph | None = None) -> None:
        super().__init__(graph, flat)
        self._ranks = None

    def _build_state(self) -> None:
        graph = self.graph
        space = VertexIdSpace(graph.vertices())
        self.space = space
        n = len(space)
        labels = [graph.label(space.id_at(index)) for index in range(n)]
        self.labels = labels

        adjacency = [0] * n
        label_adjacency: list[dict[Hashable, int]] = [{} for _ in range(n)]
        position = space.position
        for u, v in graph.edges():
            pu, pv = position(u), position(v)
            bu, bv = 1 << pu, 1 << pv
            adjacency[pu] |= bv
            adjacency[pv] |= bu
            lu, lv = labels[pu], labels[pv]
            by_label = label_adjacency[pu]
            by_label[lv] = by_label.get(lv, 0) | bv
            by_label = label_adjacency[pv]
            by_label[lu] = by_label.get(lu, 0) | bu
        self.adjacency_masks = adjacency
        self.label_adjacency_masks = label_adjacency
        self.degrees = [mask.bit_count() for mask in adjacency]

        label_masks: dict[Hashable, int] = {}
        label_histogram: dict[Hashable, int] = {}
        label_degrees: dict[Hashable, list[int]] = {}
        for index, label in enumerate(labels):
            label_masks[label] = label_masks.get(label, 0) | (1 << index)
            label_histogram[label] = label_histogram.get(label, 0) + 1
            label_degrees.setdefault(label, []).append(self.degrees[index])
        for degrees in label_degrees.values():
            degrees.sort(reverse=True)
        self.label_masks = label_masks
        self.label_histogram = label_histogram
        self.label_degrees = label_degrees

    def vertex_ranks(self) -> list[int]:
        """Per dense vertex position, the vertex's rank in ``repr`` order.

        The order :func:`repro.graphs.traversal.connected_components` breaks
        size ties by (the ``repr`` of a component's smallest vertex),
        reconciled once per target so component ordering — in
        :func:`masked_components` and in the C kernel — compares ints
        instead of recomputing ``repr`` per component per candidate.  Built
        on first request and cached.
        """
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = _repr_ranks(self.graph)[0]
        return ranks

    def native(self) -> "NativeTarget":
        """The ``ck_target`` form of this target for the C kernel.

        Compiled on first request by the native backend and cached for
        every later verification against this target; callers must first
        check :func:`native_kernel_available`.  The cache is dropped when
        the target is pickled (raw addresses are meaningless in another
        process; workers compile on demand).
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

    :meth:`native` is the ``ck_plan`` the C kernel reads; ``steps`` and the
    two signature tables are the bigint state (built on first read, see
    :class:`_LazyForm`).

    ``steps`` holds one ``(label, degree, anchors, lookahead)`` tuple per
    matching-order position: ``anchors`` are the order positions of the
    pattern vertex's already-matched neighbours (empty exactly when the order
    restarts on a new connected component) and ``lookahead`` is the number of
    its pattern neighbours matched *later*, which the kernel compares against
    the candidate's count of unused target neighbours.

    The order is computed from the pattern alone (highest degree first, then
    grow connectivity-first preferring the most anchored frontier vertex), so
    the plan of a dataset graph can be cached and reused across every
    supergraph query it is ever verified against.
    """

    SOURCE = "pattern"
    STATE = ("steps", "label_histogram", "label_degrees")

    __slots__ = ("pattern", *STATE)

    def _build_state(self) -> None:
        pattern = self.pattern
        self.label_histogram = dict(pattern.label_histogram())
        self.label_degrees = _label_degree_lists(pattern)

        order = self._matching_order(pattern)
        order_position = {vertex: index for index, vertex in enumerate(order)}
        steps = []
        for index, vertex in enumerate(order):
            anchors = []
            lookahead = 0
            for neighbor in pattern.neighbors(vertex):
                neighbor_position = order_position[neighbor]
                if neighbor_position < index:
                    anchors.append(neighbor_position)
                else:
                    lookahead += 1
            steps.append(
                (pattern.label(vertex), pattern.degree(vertex), tuple(anchors), lookahead)
            )
        self.steps = steps

    @staticmethod
    def _matching_order(pattern: LabeledGraph) -> list[Hashable]:
        constraint = {
            vertex: (-pattern.degree(vertex), repr(vertex))
            for vertex in pattern.vertices()
        }
        order: list[Hashable] = []
        placed: set = set()
        remaining = set(pattern.vertices())
        placed_neighbors = {vertex: 0 for vertex in remaining}

        def place(vertex: Hashable) -> None:
            order.append(vertex)
            placed.add(vertex)
            remaining.discard(vertex)
            for neighbor in pattern.neighbors(vertex):
                if neighbor not in placed:
                    placed_neighbors[neighbor] += 1

        while remaining:
            start = min(remaining, key=constraint.__getitem__)
            place(start)
            frontier = {
                neighbor
                for neighbor in pattern.neighbors(start)
                if neighbor not in placed
            }
            while frontier:
                nxt = min(
                    frontier,
                    key=lambda v: (-placed_neighbors[v],) + constraint[v],
                )
                place(nxt)
                frontier.discard(nxt)
                frontier.update(
                    neighbor
                    for neighbor in pattern.neighbors(nxt)
                    if neighbor not in placed
                )
        return order

    def prereject(self, target: CompiledTarget) -> bool:
        """Early-fail pre-check against a compiled target (no search)."""
        if self.num_vertices > target.num_vertices:
            return True
        if self.num_edges > target.num_edges:
            return True
        target_hist = target.label_histogram
        for label, count in self.label_histogram.items():
            if target_hist.get(label, 0) < count:
                return True
        return not degree_signature_dominates(self.label_degrees, target.label_degrees)

    def native(self) -> int:
        """Address of the plan's ``ck_plan`` struct for the C kernel.

        Compiled once and cached, like the target-side form; the block is
        kept alive alongside the address (pin the plan to pin the address).
        The cache is dropped on pickling (raw addresses and interned ids do
        not survive a process hop).
        """
        native = self._native
        if native is None:
            native = self._native = _native_form(
                "ck_compile_plan", self._flattened(), _marshal_plan, self
            )
        return native[0]

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


def masked_components(target: CompiledTarget, vertex_mask: int) -> list[int]:
    """Connected components of ``target`` restricted to ``vertex_mask``.

    Each component is returned as an ``int`` bitmask over the target's
    vertex id space.  The components are ordered exactly like
    :func:`repro.graphs.traversal.connected_components` orders them on the
    materialised induced subgraph — decreasing size, ties broken by the
    ``repr`` of the smallest vertex (read from the target's precomputed
    :meth:`~CompiledTarget.vertex_ranks`) — so a caller replacing a
    subgraph-then-decompose loop keeps visiting the same components in the
    same order (Grapes relies on this for byte-identical test accounting).
    """
    adjacency = target.adjacency_masks
    components: list[int] = []
    remaining = vertex_mask
    while remaining:
        frontier = remaining & -remaining
        component = 0
        while frontier:
            component |= frontier
            reached = 0
            for position in iter_bits(frontier):
                reached |= adjacency[position]
            frontier = reached & vertex_mask & ~component
        components.append(component)
        remaining &= ~component
    if len(components) > 1:
        rank_of = target.vertex_ranks().__getitem__
        components.sort(
            key=lambda component: (
                -component.bit_count(),
                min(map(rank_of, iter_bits(component))),
            )
        )
    return components


def masked_edge_count(target: CompiledTarget, vertex_mask: int) -> int:
    """Number of target edges with both endpoints inside ``vertex_mask``.

    Equals ``graph.subgraph(vertices).num_edges`` for the vertex set the
    mask denotes, computed by popcount instead of materialisation.
    """
    adjacency = target.adjacency_masks
    total = 0
    for position in iter_bits(vertex_mask):
        total += (adjacency[position] & vertex_mask).bit_count()
    return total // 2


def match_pairs(
    query_side: "CompiledQueryPlan | CompiledTarget",
    candidates: Sequence,
    regions: Sequence[int] | None = None,
    *,
    by_component: bool = False,
    kernel: str = "auto",
    prerejected: Sequence[bool] | None = None,
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
    whole-graph signature
    pre-reject stays sound (the region's invariants are dominated by the
    full target's).  With ``by_component`` the region is decomposed and
    tested component by component (see the module docstring), which may
    count zero or several tests for the pair; otherwise every pair counts
    exactly one.

    ``kernel`` selects the backend (:data:`KERNELS` / :func:`resolve_kernel`):
    one C call for the whole list, or the per-pair bigint loop — flags and
    counts never depend on the choice.  ``prerejected`` carries the pairs'
    verdicts from a batched :class:`DatasetSignatures` pass so the bigint
    loop skips its scalar check; the C kernel always runs its own.
    """
    shared_plan = isinstance(query_side, CompiledQueryPlan)
    if resolve_kernel(kernel) == "native":
        return _native_match_pairs(query_side, candidates, regions, by_component, shared_plan)
    matched: list[bool] = []
    tests: list[int] = []
    for index, candidate in enumerate(candidates):
        plan, target = (query_side, candidate) if shared_plan else (candidate, query_side)
        region = None if regions is None else regions[index]
        rejected = plan.prereject(target) if prerejected is None else prerejected[index]
        if by_component and region is not None:
            flag, count = _match_by_component(plan, target, region, rejected)
        else:
            flag, count = _match_one(plan, target, region, rejected), 1
        matched.append(flag)
        tests.append(count)
    return matched, tests


def compiled_has_embedding(
    plan: CompiledQueryPlan,
    target: CompiledTarget,
    vertex_mask: int | None = None,
    *,
    kernel: str = "auto",
) -> bool:
    """True if the plan's pattern has a (non-induced) embedding in ``target``
    — inside ``vertex_mask`` when one is given.  The ``n = 1`` case of
    :func:`match_pairs`."""
    regions = None if vertex_mask is None else [vertex_mask]
    return match_pairs(plan, [target], regions, kernel=kernel)[0][0]


def _match_one(
    plan: CompiledQueryPlan, target: CompiledTarget, region: int | None, rejected
) -> bool:
    """One counted test on the bigint backend; ``rejected`` is the pair's
    whole-target signature pre-reject verdict."""
    if plan.num_vertices == 0:
        return True
    if region is not None and region.bit_count() < plan.num_vertices:
        return False
    if rejected:
        return False
    return _bigint_has_embedding(plan, target, region)


def _match_by_component(
    plan: CompiledQueryPlan, target: CompiledTarget, region: int, rejected
) -> tuple[bool, int]:
    """Component-restricted verification of one pair: ``(matched, tests)``.

    Components of the region in :func:`masked_components` order; one too
    small (vertices or edges) to host the pattern is skipped without a
    test, every other one is one counted test, and the first match ends
    the pair.
    """
    tests = 0
    if region.bit_count() < plan.num_vertices:
        return False, tests
    for component in masked_components(target, region):
        if component.bit_count() < plan.num_vertices:
            continue
        if masked_edge_count(target, component) < plan.num_edges:
            continue
        tests += 1
        if _match_one(plan, target, component, rejected):
            return True, tests
    return False, tests


def _bigint_has_embedding(
    plan: CompiledQueryPlan, target: CompiledTarget, vertex_mask: int | None
) -> bool:
    """The pure-Python bigint-bitmask kernel backend.

    Recursion-free: one explicit stack frame per matching-order position,
    each holding the not-yet-tried candidate mask at that depth.  Candidates
    are tried in ascending dense-index order; degree and look-ahead
    feasibility are evaluated lazily per candidate.
    """
    region = -1 if vertex_mask is None else vertex_mask

    steps = plan.steps
    depth_count = len(steps)
    label_masks = target.label_masks
    label_adjacency = target.label_adjacency_masks
    adjacency = target.adjacency_masks
    degrees = target.degrees

    #: dense target index chosen at each depth, and its single-bit mask
    images = [0] * depth_count
    image_bits = [0] * depth_count
    #: candidates not yet tried at each depth
    pending = [0] * depth_count
    used = 0
    depth = 0
    advancing = True

    while True:
        label, min_degree, anchors, lookahead = steps[depth]
        if advancing:
            if anchors:
                candidates = label_adjacency[images[anchors[0]]].get(label, 0)
                for anchor in anchors[1:]:
                    if not candidates:
                        break
                    candidates &= label_adjacency[images[anchor]].get(label, 0)
            else:
                candidates = label_masks.get(label, 0)
            candidates &= region & ~used
        else:
            candidates = pending[depth]

        advanced = False
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            vertex = low.bit_length() - 1
            if degrees[vertex] < min_degree:
                continue
            if lookahead and (adjacency[vertex] & region & ~used).bit_count() < lookahead:
                continue
            # Accept this candidate and descend.
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
        # Exhausted this depth: backtrack.
        depth -= 1
        if depth < 0:
            return False
        used ^= image_bits[depth]
        advancing = False


# ----------------------------------------------------------------------
# native C kernel backend
# ----------------------------------------------------------------------


class _CkTarget(ctypes.Structure):
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


class _CkPlan(ctypes.Structure):
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


class NativeTarget:
    """The ``ck_target`` of a :class:`CompiledTarget` for the C kernel.

    ``address`` is the ready-to-pass ``ck_target`` pointer — compiled by
    ``ck_compile_target`` from the flattened graph, or marshalled from the
    bigint state (:func:`_marshal_target`) when two vertices share a ``repr`` —
    and what backs it is pinned in ``_buffers`` for the lifetime of this
    object.  ``row_bytes`` / ``full_mask`` size a region row of this target.
    Built via :meth:`CompiledTarget.native` and cached there; never pickled.
    """

    __slots__ = ("row_bytes", "full_mask", "address", "_buffers")

    def __init__(self, target: CompiledTarget, flat: FlatGraph) -> None:
        n = target.num_vertices
        self.row_bytes = 8 * max(1, (n + 63) // 64)
        self.full_mask = (1 << n) - 1
        self.address, self._buffers = _native_form(
            "ck_compile_target", flat, _marshal_target, target
        )


def _marshal_target(target: CompiledTarget) -> tuple[int, tuple]:
    """The ``ck_target`` of ``target`` built from its bigint state.

    Serialises every bigint bitmask of the target into little-endian
    ``uint64`` words — ``adjacency`` as an ``(n, W)`` row-major block,
    ``label_members`` as one ``W``-word row per local label row, and the
    label-partitioned adjacency as a CSR block whose entries per vertex are
    sorted by ascending label row (the order ``ck_label_row`` linear-scans)
    — and the integer columns back to back in one int64 buffer: degrees, the
    CSR offsets and label rows, ``label_map`` (interned label id → local
    label row, ``-1`` for a label the target lacks; a label whose id lies
    beyond the map is absent by definition — exactly the bigint kernel's
    ``.get(label, 0)``), the :meth:`~CompiledTarget.vertex_ranks`, and the
    pre-reject signature (per label row, the descending degrees of its
    vertices).  Returns the struct's address and the buffers to keep alive
    with it: what ``ck_compile_target`` returns in one block, field for
    field.
    """
    n = target.num_vertices
    num_words = max(1, (n + 63) // 64)
    row_bytes = num_words * 8
    rows = {label: row for row, label in enumerate(target.label_masks)}

    offsets = [0] * (n + 1)
    entry_labels: list[int] = []
    entry_masks: list[int] = []
    for position, by_label in enumerate(target.label_adjacency_masks):
        entries = [(rows[label], mask) for label, mask in by_label.items()]
        entries.sort()
        offsets[position + 1] = offsets[position] + len(entries)
        for row, mask in entries:
            entry_labels.append(row)
            entry_masks.append(mask)
    words = array("Q")
    words.frombytes(
        b"".join(
            [
                mask.to_bytes(row_bytes, "little")
                for masks in (
                    target.adjacency_masks,
                    target.label_masks.values(),
                    entry_masks,
                )
                for mask in masks
            ]
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
        target.degrees,
        offsets,
        entry_labels,
        label_map,
        target.vertex_ranks(),
        sig_indptr,
        sig_degrees,
    )
    struct = _CkTarget(
        n,
        num_words,
        len(rows),
        target.num_edges,
        len(label_map),
        adjacency,
        members,
        ladj_words,
        *addresses,
    )
    return ctypes.addressof(struct), (struct, words, integers)


def _marshal_plan(plan: CompiledQueryPlan) -> tuple[int, tuple]:
    """The ``ck_plan`` of ``plan`` built from its bigint state: the per-step
    degrees, look-aheads, interned step labels and anchor positions plus
    the pre-reject signature (distinct interned labels with their
    descending degree lists) in one contiguous int64 buffer, and the ctypes
    struct pointing into it.  Returns the struct's address and the buffers
    to keep alive with it: what ``ck_compile_plan`` returns in one block,
    field for field.
    """
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
    struct = _CkPlan(len(steps), plan.num_edges, len(plan.label_degrees), *addresses)
    return ctypes.addressof(struct), (struct, buffer)


def _native_match_pairs(query_side, candidates, regions, by_component, shared_plan):
    """:func:`match_pairs` on the C kernel: one ``ck_verify_many`` call.

    Both sides are compiled once per object (see
    :meth:`CompiledTarget.native` / :meth:`CompiledQueryPlan.native`); per
    call only the two pointer arrays, the region rows and the output
    buffers are built.  Callers guarantee the library loaded
    (``resolve_kernel`` returned ``"native"``).
    """
    count = len(candidates)
    if not count:
        return [], []
    if shared_plan:
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


# ----------------------------------------------------------------------
# Batched signature pre-reject
# ----------------------------------------------------------------------


class DatasetSignatures:
    """Stacked per-graph invariants for the vectorised batched pre-reject.

    Holds, aligned by a dense row per dataset graph: vertex/edge counts
    (int64 vectors), the label histogram as a ``(G, L)`` matrix over the
    dataset's label universe, and one descending per-label degree matrix per
    label, right-padded with ``-1`` for graphs with fewer vertices of that
    label.  :meth:`prereject_targets` / :meth:`prereject_patterns` evaluate
    :func:`signature_prereject` for *every* candidate of a query in a few
    whole-array comparisons — element-for-element the same boolean the
    scalar check returns, so answers and test accounting are unchanged.

    Built lazily (and invalidated on insert) by
    :meth:`repro.graphs.database.GraphDatabase.dataset_signatures`; requires
    :func:`numpy_available`.
    """

    __slots__ = ("_row", "_num_vertices", "_num_edges", "_labels", "_hist", "_degrees")

    def __init__(self, graphs: dict[Hashable, LabeledGraph]) -> None:
        ids = list(graphs)
        count = len(ids)
        self._row = {graph_id: row for row, graph_id in enumerate(ids)}
        self._num_vertices = _np.fromiter(
            (graphs[graph_id].num_vertices for graph_id in ids), _np.int64, count=count
        )
        self._num_edges = _np.fromiter(
            (graphs[graph_id].num_edges for graph_id in ids), _np.int64, count=count
        )
        degree_lists = [_label_degree_lists(graphs[graph_id]) for graph_id in ids]
        labels = sorted({label for lists in degree_lists for label in lists}, key=repr)
        self._labels = {label: column for column, label in enumerate(labels)}
        hist = _np.zeros((count, len(labels)), dtype=_np.int64)
        widths = {label: 0 for label in labels}
        for row, lists in enumerate(degree_lists):
            for label, degrees in lists.items():
                hist[row, self._labels[label]] = len(degrees)
                if len(degrees) > widths[label]:
                    widths[label] = len(degrees)
        self._hist = hist
        degree_matrices: dict[Hashable, object] = {}
        for label, width in widths.items():
            matrix = _np.full((count, width), -1, dtype=_np.int64)
            for row, lists in enumerate(degree_lists):
                degrees = lists.get(label)
                if degrees:
                    matrix[row, : len(degrees)] = degrees
            degree_matrices[label] = matrix
        self._degrees = degree_matrices

    def _rows(self, graph_ids: Sequence[Hashable]):
        row = self._row
        return _np.fromiter(
            (row[graph_id] for graph_id in graph_ids), _np.intp, count=len(graph_ids)
        )

    def prereject_targets(self, plan: CompiledQueryPlan, graph_ids: Sequence[Hashable]):
        """Batched pre-reject for a subgraph query (dataset graphs as targets).

        Returns a boolean array aligned with ``graph_ids``; entry ``i`` is
        exactly ``plan.prereject(compiled_target(graph_ids[i]))``.
        """
        rows = self._rows(graph_ids)
        reject = (self._num_vertices[rows] < plan.num_vertices) | (
            self._num_edges[rows] < plan.num_edges
        )
        for label, required in plan.label_histogram.items():
            column = self._labels.get(label)
            if column is None:
                reject[:] = True
                return reject
            reject |= self._hist[rows, column] < required
        for label, pattern_degrees in plan.label_degrees.items():
            matrix = self._degrees[label]
            needed = len(pattern_degrees)
            if needed > matrix.shape[1]:
                reject[:] = True
                return reject
            wanted = _np.asarray(pattern_degrees, dtype=_np.int64)
            # A -1 pad entry always compares below the (non-negative)
            # pattern degree, encoding "fewer target vertices than needed".
            reject |= (matrix[rows][:, :needed] < wanted).any(axis=1)
        return reject

    def prereject_patterns(self, target: CompiledTarget, graph_ids: Sequence[Hashable]):
        """Batched pre-reject for a supergraph query (dataset graphs as patterns).

        Returns a boolean array aligned with ``graph_ids``; entry ``i`` is
        exactly ``compiled_plan(graph_ids[i]).prereject(target)`` for the
        query compiled as the one shared target.
        """
        rows = self._rows(graph_ids)
        reject = (self._num_vertices[rows] > target.num_vertices) | (
            self._num_edges[rows] > target.num_edges
        )
        target_hist = _np.fromiter(
            (target.label_histogram.get(label, 0) for label in self._labels),
            _np.int64,
            count=len(self._labels),
        )
        reject |= (self._hist[rows] > target_hist).any(axis=1)
        for label, matrix in self._degrees.items():
            width = matrix.shape[1]
            target_degrees = target.label_degrees.get(label, ())
            padded = _np.full(width, -1, dtype=_np.int64)
            fill = min(width, len(target_degrees))
            padded[:fill] = target_degrees[:fill]
            # Pattern pad entries (-1) never exceed anything; pattern degrees
            # beyond the target's list compare against -1 and reject.
            reject |= (matrix[rows] > padded).any(axis=1)
        return reject
