"""ctypes binding of the kernel's cache-side structures (``_ckernel.c``, ABI 14).

:class:`ProbeTable` is the slot-aligned native table behind a
:class:`~repro.core.containment.ContainmentIndex`: per live slot the cached
query's feature codes, its size and its compiled form.  The rows change in
one :meth:`ProbeTable.apply` call a window flush, which clears the evicted
rows and writes the inserted ones, so that a probe —
:meth:`ProbeTable.filter`, then :meth:`ProbeTable.verify` on the survivors
— is two kernel calls that never touch a Python entry object.  Its hits
are entry ids.

:class:`ColumnBlock` is the engine-wide block of the cache's columns, a row
per live entry (its answer mask, sizes, insertion counter and the §5.1
statistics H/R/C), owned by the :class:`~repro.core.cache.QueryCache` and
written when an entry joins it and freed when it leaves.  After the probes
of every replica, :meth:`ColumnBlock.plan` takes the hit ids and returns
the combined masks while crediting each hit's row in place; the
replacement policy and the durable store read the statistics back as
columns (:meth:`ColumnBlock.read`).

Ownership: the kernel owns the rows — malloc'd copies of the feature
pairs and each row's compiled form, taken over from the entry's query or
compiled in the apply call, all freed when the row is cleared or the
table closed — and the block's columns, freed with the block.  The calls
release the interpreter lock; neither structure keeps scratch between
calls (the output buffers are per call), and every call on them is a
driver-thread operation, like the index and the cache they serve.
"""

from __future__ import annotations

import ctypes
import struct
import weakref
from array import array
from collections.abc import Iterable, Sequence


__all__ = ["ColumnBlock", "PlanCall", "ProbeTable"]

#: a row of ``ck_table_apply``, ``CK_ROW_FIELDS`` int64s: slot, entry id,
#: pairs, |V|, |E|, the compiled form's address (or 0), then the graph's
#: five ``ck_compile_*`` arguments to compile it from when that is 0
_ROW = struct.Struct("=11q")


class ProbeTable:
    """The kernel-side rows of one containment index.

    ``entries_are_targets`` fixes the direction for the table's lifetime:
    ``True`` for ``Isub`` (rows hold ``ck_target`` addresses, the filter
    keeps rows that dominate the query), ``False`` for ``Isuper`` (rows
    hold ``ck_plan`` addresses, Algorithm 2's condition).
    """

    __slots__ = ("_library", "_address", "_num_slots", "_release", "__weakref__")

    def __init__(self, library: ctypes.CDLL, entries_are_targets: bool) -> None:
        self._library = library
        self._address = library.ck_table_new(entries_are_targets)
        if not self._address:  # pragma: no cover - allocation failure
            raise MemoryError("native probe table could not be allocated")
        #: one past the highest slot ever written (what the outputs must hold)
        self._num_slots = 0
        self._release = weakref.finalize(self, library.ck_table_free, self._address)

    def close(self) -> None:
        """Free the kernel-side rows and their compiled forms (idempotent;
        also runs on collection)."""
        self._release()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, clear_slots: Sequence[int], rows: Iterable[tuple]) -> None:
        """One window flush of the table, in one kernel call: empty the
        rows of ``clear_slots`` (an empty slot is skipped), then write
        ``rows``, each ``(slot, entry_id, codes, form)`` — a live slot's
        row is replaced.  ``form`` is the entry's compiled form of the
        table's role (its size is the row's); the row takes its kernel
        block over (:meth:`~repro.isomorphism.compiled._LazyForm.hand_over`),
        or the kernel compiles it in the same call from the flattened graph
        when the form never was, and frees it with the row.  A failure
        leaves the table, and every form, as they were."""
        packed, codes, taken, flats = [], [], [], []
        top = self._num_slots - 1
        for slot, entry_id, row_codes, form in rows:
            codes.append(row_codes)
            head = (slot, entry_id, len(row_codes) >> 1, form.num_vertices, form.num_edges)
            source = form.kernel_source()
            if source.__class__ is int:
                packed.append(_ROW.pack(*head, source, 0, 0, 0, 0, 0))
                taken.append(form)
            else:
                flats.append(source)
                packed.append(_ROW.pack(*head, 0, *source.arguments()))
            if slot > top:
                top = slot
        clears = array("q", clear_slots)
        status = self._library.ck_table_apply(
            self._address,
            clears.buffer_info()[0],
            len(clears),
            b"".join(packed),
            len(packed),
            b"".join(codes),
        )
        if status == -2:
            raise ValueError("a row has a negative slot or pair count")
        if status < 0:  # pragma: no cover - allocation failure inside the kernel
            raise MemoryError("native probe table could not grow")
        for form in taken:
            form.hand_over()
        self._num_slots = top + 1

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def filter(self, codes: array, num_vertices: int, num_edges: int) -> tuple[array, int]:
        """Slots surviving the feature filter and the size pre-checks.

        Returns an ``array("q")`` and how many leading items of it are
        slots, ascending.  Every live slot is considered.
        """
        slots = array("q", bytes(8 * self._num_slots))
        count = self._library.ck_probe_filter(
            self._address,
            codes.buffer_info()[0],
            len(codes) // 2,
            num_vertices,
            num_edges,
            slots.buffer_info()[0],
        )
        return slots, count

    def verify(self, query_side: int, slots: array, count: int) -> list[int]:
        """Entry ids, ascending, of the first ``count`` ``slots`` whose row
        passes the containment test against the query's compiled side (the
        address of its ``ck_plan`` for a table of targets, of its
        ``ck_target`` for a table of patterns).  One counted test a slot."""
        hit_ids = array("q", bytes(8 * count))
        hits = self._library.ck_probe_verify(
            self._address, query_side, slots.buffer_info()[0], count, hit_ids.buffer_info()[0]
        )
        if hits < 0:  # pragma: no cover - allocation failure inside the kernel
            raise MemoryError("native kernel scratch allocation failed")
        return hit_ids[:hits].tolist()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Heap bytes the kernel holds for this table (Figure 18)."""
        return self._library.ck_table_bytes(self._address)

    def row(self, slot: int) -> tuple[int, int, int, array, int] | None:
        """``(entry_id, num_vertices, num_edges, codes, compiled_address)``
        read back from the kernel, ``None`` for an empty slot (tests,
        diagnostics)."""
        header = array("q", bytes(48))
        self._library.ck_table_row(self._address, slot, header.buffer_info()[0])
        num_features, num_vertices, num_edges, entry_id, pairs, compiled = header
        if num_features < 0:
            return None
        codes = array("Q")
        if num_features:
            codes.frombytes(ctypes.string_at(pairs, 16 * num_features))
        return entry_id, num_vertices, num_edges, codes, compiled


class PlanCall(ctypes.Structure):
    """ctypes mirror of ``ck_plan_call`` in ``_ckernel.c``: the arguments
    of one ``ck_block_plan`` call but the block and CS(g), which a
    :class:`ColumnBlock` keeps and rewrites per call (one pointer argument
    converts faster than a dozen scalars)."""

    _fields_ = [
        ("hit_ids", ctypes.c_void_p),
        ("num_hits", ctypes.c_int64),
        ("num_guaranteeing", ctypes.c_int64),
        ("costs", ctypes.c_void_p),
        ("num_positions", ctypes.c_int64),
        ("query_vertices", ctypes.c_int64),
        ("query_edges", ctypes.c_int64),
        ("out_masks", ctypes.c_void_p),
        ("out_rows", ctypes.c_void_p),
        ("out_removed", ctypes.c_void_p),
        ("out_costs", ctypes.c_void_p),
        ("out_flags", ctypes.c_void_p),
    ]


class ColumnBlock:
    """The kernel-side columns of a :class:`~repro.core.cache.QueryCache`.

    One row per live cache entry: its id, |V|, |E|, the query counter at
    its insertion, H(g), R(g), C(g) and its answer mask over the engine's
    id space (:meth:`set_width` bits).  Rows are found by entry id.
    :meth:`plan` combines one query's component hits and credits them in
    one call; :meth:`credit` replays a plan's credits.
    """

    __slots__ = (
        "_library", "_address", "_words", "_live", "_counts", "_cost", "_flags", "_masks",
        "_call", "_call_address", "_release", "__weakref__",
    )

    def __init__(self, library: ctypes.CDLL) -> None:
        self._library = library
        self._address = library.ck_block_new()
        if not self._address:  # pragma: no cover - allocation failure
            raise MemoryError("native column block could not be allocated")
        #: uint64 words of an answer row (0 until :meth:`set_width`)
        self._words = 0
        #: live rows
        self._live = 0
        # output buffers reused by every call (driver-thread only)
        self._counts = array("q", bytes(16))
        self._cost = array("d", bytes(8))
        self._flags = array("q", bytes(16))
        self._masks = array("Q")
        self._call = PlanCall(out_flags=self._flags.buffer_info()[0])
        self._call_address = ctypes.addressof(self._call)
        self._release = weakref.finalize(self, library.ck_block_free, self._address)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def add(self, rows: array, costs: array, answers: bytes | None = None) -> None:
        """Give entries their rows, in one kernel call: ``rows`` is an
        ``array("q")`` of six fields an entry — id, |V|, |E|, insertion
        counter, H, R — ``costs`` an ``array("d")`` of their C, and
        ``answers`` (once a width is set) their answer masks as
        :meth:`answer_bytes` lays them out (empty without it)."""
        count = len(costs)
        if len(rows) != 6 * count:
            raise ValueError(f"{len(rows)} row fields for {count} entries; expected six each")
        if answers is not None and len(answers) != 8 * self._words * count:
            raise ValueError(f"{len(answers)} answer bytes for {count} entries")
        status = self._library.ck_block_add(
            self._address, count, rows.buffer_info()[0], costs.buffer_info()[0], answers
        )
        if status == -2:
            raise ValueError(f"an entry of {rows[0::6].tolist()} already has a row (or repeats)")
        if status < 0:  # pragma: no cover - allocation failure inside the kernel
            raise MemoryError("native column block could not grow")
        self._live += count

    def answer_bytes(self, masks: Iterable[int]) -> bytes:
        """Answer masks as :meth:`add` takes them: one row of the width
        each, little-endian, back to back."""
        width = 8 * self._words
        return b"".join([mask.to_bytes(width, "little") for mask in masks])

    def remove(self, entry_ids: Sequence[int]) -> tuple[array, array, array]:
        """Free the rows of ``entry_ids``; returns their final ``(H, R, C)``
        columns.  One kernel call."""
        ids = array("q", entry_ids)
        hits, removed = array("q", bytes(8 * len(ids))), array("q", bytes(8 * len(ids)))
        costs = array("d", bytes(8 * len(ids)))
        if self._library.ck_block_remove(
            self._address,
            len(ids),
            ids.buffer_info()[0],
            hits.buffer_info()[0],
            removed.buffer_info()[0],
            costs.buffer_info()[0],
        ) < 0:
            raise KeyError(f"an entry of {ids.tolist()} has no column row (or repeats)")
        self._live -= len(ids)
        return hits, removed, costs

    def set_width(self, num_positions: int) -> None:
        """Size the answer rows for masks of ``num_positions`` bits; every
        row reads empty until :meth:`set_answers` writes it again."""
        words = max((num_positions + 63) // 64, 1)
        if self._library.ck_block_set_width(self._address, words) < 0:
            raise MemoryError("native column block could not grow")  # pragma: no cover
        self._words = words
        self._masks = array("Q", bytes(32 * words))
        self._call.out_masks = self._masks.buffer_info()[0]

    def set_answers(self, entry_ids: Sequence[int], masks: Iterable[int]) -> None:
        """Write the answer rows of ``entry_ids``, one mask each (one
        kernel call)."""
        ids = array("q", entry_ids)
        answers = self.answer_bytes(masks)
        if len(answers) != 8 * self._words * len(ids):
            raise ValueError(f"{len(answers)} answer bytes for {len(ids)} entries")
        if self._library.ck_block_set_answers(
            self._address, len(ids), ids.buffer_info()[0], answers
        ) < 0:
            raise KeyError(f"an entry of {ids.tolist()} has no column row (or no width is set)")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self, entry_id: int) -> tuple[int, int, float]:
        """``(H, R, C)`` of ``entry_id``."""
        counts, cost = self._counts, self._cost
        if self._library.ck_block_stats(
            self._address, entry_id, 0, counts.buffer_info()[0], cost.buffer_info()[0]
        ) < 0:
            raise KeyError(f"no column row for cache entry {entry_id!r}")
        return counts[0], counts[1], cost[0]

    def set_stats(self, entry_id: int, hits: int, removed: int, cost: float) -> None:
        """Overwrite the H, R and C of ``entry_id``."""
        counts, total = self._counts, self._cost
        counts[0], counts[1], total[0] = hits, removed, cost
        if self._library.ck_block_stats(
            self._address, entry_id, 1, counts.buffer_info()[0], total.buffer_info()[0]
        ) < 0:
            raise KeyError(f"no column row for cache entry {entry_id!r}")

    def read(self) -> tuple[array, array, array, array, array]:
        """``(ids, added_at, H, R, C)`` of every live row, by ascending
        entry id (one kernel call)."""
        size = 8 * self._live
        ids, added, hits, removed = (array("q", bytes(size)) for _ in range(4))
        costs = array("d", bytes(size))
        self._library.ck_block_columns(
            self._address,
            *(column.buffer_info()[0] for column in (ids, added, hits, removed, costs)),
        )
        return ids, added, hits, removed, costs

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        hit_ids: array,
        num_guaranteeing: int,
        candidate_mask: int,
        costs: array,
        num_vertices: int,
        num_edges: int,
    ) -> tuple[int, int, int, bool, int, int, tuple[array, array, array]]:
        """Formulae (3)–(5) (§4.4 mirrored) over one query's hits, with
        their §5.1 credits applied to the rows.

        ``hit_ids`` (``array("q")``) are the guaranteeing component's hits,
        then the restricting component's, each in ascending entry id;
        ``costs`` (``array("d")``) the cost of one test per id-space
        position; ``num_vertices`` / ``num_edges`` the query's size.
        Returns ``(guaranteed, pruned, remaining, empty_restriction,
        exact, exact_answer, credits)``: three masks; whether a
        restricting hit's answer is empty (§4.3 case 2); the position in
        ``hit_ids`` of the first hit of the query's size (§4.3 case 1, -1
        without one) and its answer mask; and the ``(rows, removed,
        costs)`` arrays :meth:`credit` replays.  Each hit's C(g) grows by
        its freed candidates' costs added from ``0.0`` in ascending
        position order, so it is the double the Python sum gives.
        """
        span = 8 * self._words
        count = len(hit_ids)
        if not 0 <= num_guaranteeing <= count:
            raise ValueError(f"num_guaranteeing={num_guaranteeing} is not within 0..{count}")
        rows, removed = array("q", bytes(8 * count)), array("q", bytes(8 * count))
        credited = array("d", bytes(8 * count))
        call = self._call
        call.hit_ids = hit_ids.buffer_info()[0]
        call.num_hits = count
        call.num_guaranteeing = num_guaranteeing
        call.costs, call.num_positions = costs.buffer_info()
        call.query_vertices = num_vertices
        call.query_edges = num_edges
        call.out_rows = rows.buffer_info()[0]
        call.out_removed = removed.buffer_info()[0]
        call.out_costs = credited.buffer_info()[0]
        status = self._library.ck_block_plan(
            self._address, self._call_address, candidate_mask.to_bytes(span, "little")
        )
        if status < 0:
            raise KeyError(f"a hit of {hit_ids.tolist()} has no column row (or no width)")
        raw = self._masks.tobytes()
        flags = self._flags
        exact = flags[1]
        return (
            int.from_bytes(raw[:span], "little"),
            int.from_bytes(raw[span : 2 * span], "little"),
            int.from_bytes(raw[2 * span : 3 * span], "little"),
            bool(flags[0]),
            exact,
            int.from_bytes(raw[3 * span :], "little") if exact >= 0 else 0,
            (rows, removed, credited),
        )

    def credit(self, credits: tuple[array, array, array]) -> None:
        """Apply ``(rows, removed, costs)`` as :meth:`plan` returned them
        again: one hit per row, in order (plan replay; the rows must be
        the ones the plan was made on)."""
        rows, removed, costs = credits
        if not len(rows) == len(removed) == len(costs):
            raise ValueError("credits need one row, removed count and cost each")
        if rows:
            self._library.ck_block_credit(
                self._address,
                rows.buffer_info()[0],
                removed.buffer_info()[0],
                costs.buffer_info()[0],
                len(rows),
            )

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Heap bytes the kernel holds for the block."""
        return self._library.ck_block_bytes(self._address)
