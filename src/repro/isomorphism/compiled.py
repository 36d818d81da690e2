"""Compiled verification: graphs compiled once, verified in the C kernel.

The verification stage dominates filter-then-verify query processing, and
almost all of a pair's matching state is a property of *one* side of the
pair:

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

**Batch entry point** — :func:`match_mask` verifies every pair of one query
in **one** ``ck_verify_many`` call: a shared plan against many targets
(subgraph verification) or many plans against a shared target (supergraph
verification).  The many side is a :class:`FormTable` — the kernel address
of each candidate's form by dataset position — and the pairs are the set
bits of a mask over it: the kernel walks the bits (signature pre-reject and
search per pair, in ascending position, interpreter lock released once) and
writes the answer mask, so nothing is done in Python per candidate.
:func:`match_pairs` is the same call over a table of a list of forms under
the full mask (plan replay's confirming test, the embedding API).  It is the
package's only matcher: the test suite cross-validates it against the
dict-based VF2, the Ullmann matcher and the pure-Python bigint kernel of
``tests/kernel_oracle.py``.

**The embedding API** — :func:`is_subgraph_isomorphic`,
:func:`find_subgraph_embedding` and :func:`are_isomorphic` answer one pair
of graphs on the same compiled forms and the same search; an embedding is
read back through the plan's step order (``ck_find_embedding``).
Matching is non-induced (the paper's Definition 2): pattern edges must map
onto target edges, target edges between images need no pattern edge.

**Region-masked matching** — a pair may carry a region (an ``int`` bitmask
over the target's vertex positions) restricting candidate generation to the
masked vertices.  A masked run answers "does the pattern embed with its image
entirely inside the mask?", which for a vertex-induced region is exactly the
question of matching against the materialised region subgraph.

**Component-by-component matching** — with ``by_component`` the kernel
builds each pair's region itself when the pattern is connected (the plan
records whether it is; a disconnected pattern gets one whole-graph test):
the target's vertices that carry a label of
the pattern (the OR of the target's label-member rows over the plan's
labels), which is Grapes' region (the oracle is ``label_region`` in
``tests/kernel_oracle.py``).  It then decomposes
it — Grapes' component-restricted verification: connected components in
decreasing size (ties by the smallest vertex ``repr``), size and edge-count
pre-checks, one counted test per surviving component, stop at the first
match — all against the *whole-graph* compiled target; no region is
marshalled and no subgraph is materialised.

Per pair the kernel first runs the signature pre-reject (vertex/edge counts,
label-histogram dominance, per-label degree-signature dominance); the
check's graph-based form is a test oracle in ``tests/kernel_oracle.py``.
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from collections.abc import Hashable, Sequence

from ..graphs.bitset import iter_bits
from ..graphs.graph import LabeledGraph
from . import _ckernel_loader

__all__ = [
    "CompiledTarget",
    "CompiledQuery",
    "CompiledQueryPlan",
    "FlatGraph",
    "FormTable",
    "NativeTarget",
    "are_isomorphic",
    "compile_target",
    "compile_query_plan",
    "find_subgraph_embedding",
    "is_subgraph_isomorphic",
    "match_mask",
    "match_pairs",
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
    rather than a ``weakref.finalize``: two of these are made per query),
    unless it was handed over (:meth:`_LazyForm.hand_over`; the address
    reads 0 then)."""

    __slots__ = ("address", "_library")

    def __init__(self, library: ctypes.CDLL, address: int) -> None:
        self.address = address
        self._library = library

    def __del__(self) -> None:
        if self.address:
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

    def kernel_source(self) -> "int | FlatGraph":
        """What a new owner of this form's kernel block starts from: the
        block's address once compiled, else the flattened graph to compile
        it from (kept alive by the caller while the kernel reads it)."""
        native = self._native
        return self._flattened() if native is None else native.address

    def hand_over(self) -> None:
        """Give the compiled block to the owner :meth:`kernel_source` named
        it to (a probe table's row, which frees it): this form forgets it,
        and a later :meth:`native` call compiles afresh."""
        native, self._native = self._native, None
        if native is not None:
            getattr(native, "_block", native).address = native.address = 0

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


class FormTable:
    """The kernel addresses of a set of compiled forms, by position.

    One per dataset and role on a method (:meth:`SubgraphQueryMethod.verify
    <repro.methods.base.SubgraphQueryMethod.verify>` reads the targets,
    ``verify_supergraph`` the plans), or one per :func:`match_pairs` call
    over its candidates.  ``form_at(position)`` names the form of a
    position; :meth:`fill` compiles the forms a mask names that are not in
    the table yet (``ready`` holds the filled positions), so a table of a
    precompiled dataset is filled without compiling, and a lazily compiled
    one compiles each form on its first verification.  The table pins the
    kernel block behind every address it holds, so the addresses stay
    valid whatever happens to the forms meanwhile.
    """

    __slots__ = ("addresses", "forms", "ready", "words", "_blank", "_pins", "_form_at", "_lock")

    def __init__(self, size: int, form_at) -> None:
        #: per position the address of its ``ck_target`` / ``ck_plan``
        #: (0 until filled) — the table ``ck_verify_many`` reads
        self.addresses = array("Q", bytes(8 * size))
        #: per position its compiled form (``None`` until filled)
        self.forms: list = [None] * size
        #: mask of the filled positions
        self.ready = 0
        #: uint64 words of a mask over the positions
        self.words = max(1, (size + 63) // 64)
        #: a zeroed mask buffer, copied for each call's answer
        self._blank = array("Q", bytes(8 * self.words))
        self._pins: list = [None] * size
        self._form_at = form_at
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.forms)

    def fill(self, mask: int) -> None:
        """Compile and enter the forms of ``mask``'s positions that are not
        in the table yet (nothing to do, and no lock taken, when all are)."""
        if not mask & ~self.ready:
            return
        if mask >> len(self.forms):
            raise ValueError(f"mask has bits beyond the table's {len(self.forms)} positions")
        with self._lock:
            missing = mask & ~self.ready
            addresses, forms, pins = self.addresses, self.forms, self._pins
            for position in iter_bits(missing):
                form = self._form_at(position)
                form.native()
                # NativeTarget or _KernelBlock: each owns its block
                pins[position] = form._native
                addresses[position] = form._native.address
                forms[position] = form
            self.ready |= missing

    @classmethod
    def of(cls, forms: Sequence) -> "FormTable":
        """A filled table of ``forms``, position ``i`` holding ``forms[i]``."""
        table = cls(len(forms), forms.__getitem__)
        table.fill((1 << len(forms)) - 1)
        return table


def match_mask(
    query_side: "CompiledQueryPlan | CompiledTarget",
    table: FormTable,
    mask: int,
    *,
    regions: Sequence[int] | None = None,
    by_component: bool = False,
    tests: array | None = None,
) -> tuple[int, int]:
    """Verify the pairs of one query that ``mask`` names; return the mask of
    those that matched (its popcount is the matches) and the tests counted.

    ``query_side`` is the side all pairs share: a :class:`CompiledQueryPlan`
    tested against each :class:`CompiledTarget` of ``table``, or a
    :class:`CompiledTarget` each :class:`CompiledQueryPlan` of ``table`` is
    tested against; the pairs are ``mask``'s positions, ascending (forms
    missing from ``table`` are compiled first, :meth:`FormTable.fill`).  Per
    pair the semantics are those of :func:`is_subgraph_isomorphic`.

    ``regions`` (optional, one mask over the target's vertex positions per
    pair) restricts the pair's embedding to the masked target vertices —
    equivalently, to the vertex-induced subgraph the mask denotes; the
    whole-graph signature pre-reject stays sound (the region's invariants
    are dominated by the full target's).  Every such pair counts exactly
    one test.  ``by_component`` takes no ``regions``: the kernel tests a
    connected pattern component by component inside the target's vertices
    that carry a pattern label (see the module docstring), which may count
    zero or several tests for the pair, and a disconnected one against the
    whole target.  ``tests`` (optional, an ``array("q")`` as long as the
    table) receives each pair's test count at its position.

    One ``ck_verify_many`` call, which walks the mask's set bits itself:
    nothing is built per pair but the region rows, when given.
    """
    if by_component and regions is not None:
        raise ValueError("by_component computes its own regions; pass no regions")
    if not mask:
        return 0, 0
    table.fill(mask)
    holds_targets = isinstance(query_side, CompiledQueryPlan)
    if holds_targets:
        shared = query_side.native()
    else:
        shared = query_side.native().address
    region_rows = None
    if regions is not None:
        # the kernel reads pair i's region as the next row of its target's
        # width, and walks its set bits as vertices: drop bits beyond n
        if holds_targets:
            natives = [table.forms[position].native() for position in iter_bits(mask)]
        else:
            natives = [query_side.native()] * mask.bit_count()
        if len(regions) != len(natives):
            raise ValueError(f"{len(regions)} regions for {len(natives)} pairs")
        region_rows = b"".join(
            [
                (region & native.full_mask).to_bytes(native.row_bytes, "little")
                for region, native in zip(regions, natives)
            ]
        )
    words = table.words
    answer = table._blank.__copy__()
    tested = _ckernel_loader.kernel().ck_verify_many(
        table.addresses.buffer_info()[0],
        shared,
        holds_targets,
        mask.to_bytes(8 * words, "little"),
        words,
        region_rows,
        by_component,
        answer.buffer_info()[0],
        None if tests is None else tests.buffer_info()[0],
    )
    if tested < 0:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native kernel scratch allocation failed")
    return int.from_bytes(answer.tobytes(), "little"), tested


def match_pairs(
    query_side: "CompiledQueryPlan | CompiledTarget",
    candidates: Sequence,
    regions: Sequence[int] | None = None,
    *,
    by_component: bool = False,
) -> tuple[list[bool], list[int]]:
    """Verify every pair of one query; return match flags and test counts.

    :func:`match_mask` over a :class:`FormTable` of ``candidates`` under the
    full mask — the same kernel call — with the flags read back from the
    answer's bits and pair ``i``'s tests from position ``i``.
    """
    count = len(candidates)
    tests = array("q", bytes(8 * count))
    answer, _ = match_mask(
        query_side,
        FormTable.of(candidates),
        (1 << count) - 1,
        regions=regions,
        by_component=by_component,
        tests=tests,
    )
    return [bool(answer >> position & 1) for position in range(count)], tests.tolist()


def is_subgraph_isomorphic(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """True if ``pattern`` is subgraph-isomorphic to ``target`` (g ⊆ G):
    one :func:`match_pairs` test of their compiled forms."""
    return match_pairs(CompiledQueryPlan(pattern), [CompiledTarget(target)])[0][0]


def find_subgraph_embedding(pattern: LabeledGraph, target: LabeledGraph) -> dict | None:
    """One embedding of ``pattern`` in ``target`` — pattern vertex → target
    vertex, injective, label- and edge-preserving — or ``None``.  The
    empty pattern embeds as ``{}``.

    One ``ck_find_embedding`` call: the search every verification runs,
    writing each step's image back to its pattern position.
    """
    # the forms own the kernel blocks: keep them referenced through the call
    compiled_target, plan = CompiledTarget(target), CompiledQueryPlan(pattern)
    images = array("q", bytes(8 * pattern.num_vertices))
    found = _ckernel_loader.kernel().ck_find_embedding(
        compiled_target.native().address, plan.native(), images.buffer_info()[0]
    )
    if found < 0:  # pragma: no cover - allocation failure inside the kernel
        raise MemoryError("native kernel scratch allocation failed")
    if not found:
        return None
    vertices = list(target.vertices())
    return {vertex: vertices[image] for vertex, image in zip(pattern.vertices(), images)}


def are_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Exact isomorphism of two labeled graphs (the §4.3 "same query
    submitted again" check).

    With equal vertex and edge counts, an embedding of one in the other is
    a bijection onto every edge, so one kernel test decides.
    """
    return (
        first.num_vertices == second.num_vertices
        and first.num_edges == second.num_edges
        and is_subgraph_isomorphic(first, second)
    )
