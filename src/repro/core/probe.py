"""ctypes binding of the kernel's cache-side probe (``_ckernel.c``, ABI 10).

:class:`ProbeTable` is the slot-aligned native table behind a
:class:`~repro.core.containment.ContainmentIndex`: per live slot the cached
query's feature codes, its size and the address of its compiled form,
reconciled on the write path (``set`` on ``add``, ``clear`` on ``remove``)
so that a probe — :meth:`ProbeTable.filter`, then :meth:`ProbeTable.verify`
on the survivors — is two kernel calls that never touch a Python entry
object.  :func:`mask_sums` is the §5.1 credit sum of one query's hits.

Ownership: the kernel owns the rows (malloc'd copies of the feature pairs,
freed on ``clear`` / ``close``); the compiled forms the rows point at belong
to Python, and the table pins each one from ``set`` until the row is
cleared, whatever the entry's own ``release_compiled_*`` does meanwhile.
The calls release the interpreter lock; the table keeps no scratch between
them (the output buffers are per call), and ``set`` / ``clear`` / probe of
one table are driver-thread operations, like the index they serve.
"""

from __future__ import annotations

import ctypes
import weakref
from array import array
from collections.abc import Sequence

from ..isomorphism import _ckernel_loader

__all__ = ["ProbeTable", "mask_sums"]


class ProbeTable:
    """The kernel-side rows of one containment index.

    ``entries_are_targets`` fixes the direction for the table's lifetime:
    ``True`` for ``Isub`` (rows hold ``ck_target`` addresses, the filter
    keeps rows that dominate the query), ``False`` for ``Isuper`` (rows
    hold ``ck_plan`` addresses, Algorithm 2's condition).
    """

    __slots__ = ("_library", "_address", "_pinned", "_num_slots", "_release", "__weakref__")

    def __init__(self, library: ctypes.CDLL, entries_are_targets: bool) -> None:
        self._library = library
        self._address = library.ck_table_new(entries_are_targets)
        if not self._address:  # pragma: no cover - allocation failure
            raise MemoryError("native probe table could not be allocated")
        #: slot -> the object owning the compiled form its row points at
        self._pinned: dict[int, object] = {}
        #: one past the highest slot ever written (what the outputs must hold)
        self._num_slots = 0
        self._release = weakref.finalize(self, library.ck_table_free, self._address)

    def close(self) -> None:
        """Free the kernel-side rows (idempotent; also runs on collection)."""
        self._release()
        self._pinned.clear()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def set(
        self,
        slot: int,
        entry_id: int,
        codes: array,
        num_vertices: int,
        num_edges: int,
        compiled_address: int,
        owner: object,
    ) -> None:
        """Write the row of ``slot``; ``owner`` keeps ``compiled_address``
        valid and is held until the row is cleared."""
        status = self._library.ck_table_set(
            self._address,
            slot,
            entry_id,
            codes.buffer_info()[0],
            len(codes) // 2,
            num_vertices,
            num_edges,
            compiled_address,
        )
        if status < 0:  # pragma: no cover - allocation failure inside the kernel
            raise MemoryError("native probe table could not grow")
        self._pinned[slot] = owner
        if slot >= self._num_slots:
            self._num_slots = slot + 1

    def clear(self, slot: int) -> None:
        """Empty the row of ``slot``, then let go of its compiled form."""
        self._library.ck_table_clear(self._address, slot)
        self._pinned.pop(slot, None)

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

    def row(self, slot: int) -> tuple[int, int, int, array] | None:
        """``(entry_id, num_vertices, num_edges, codes)`` read back from the
        kernel, ``None`` for an empty slot (tests, diagnostics)."""
        header = array("q", bytes(40))
        self._library.ck_table_row(self._address, slot, header.buffer_info()[0])
        num_features, num_vertices, num_edges, entry_id, pairs = header
        if num_features < 0:
            return None
        codes = array("Q")
        if num_features:
            codes.frombytes(ctypes.string_at(pairs, 16 * num_features))
        return entry_id, num_vertices, num_edges, codes


def mask_sums(costs: array, masks: Sequence[int]) -> list[float]:
    """Per mask of ``masks``, the sum of ``costs`` over its set bits.

    ``costs`` is an ``array("d")`` by bit position.  Each total is added up
    by ``ck_mask_sums`` from ``0.0`` in ascending position order, so a
    total does not depend on the word size it was computed at: the totals
    feed ``C(g)``, which the replacement policy and the WAL compare bit for
    bit.
    """
    if not masks:
        return []
    library = _ckernel_loader.kernel()
    row_bytes = 8 * ((len(costs) + 63) // 64)
    rows = b"".join([mask.to_bytes(row_bytes, "little") for mask in masks])
    totals = array("d", bytes(8 * len(masks)))
    library.ck_mask_sums(
        costs.buffer_info()[0], len(costs), rows, len(masks), row_bytes // 8,
        totals.buffer_info()[0],
    )
    return totals.tolist()
