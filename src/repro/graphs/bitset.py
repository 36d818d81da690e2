"""Integer-bitmask candidate sets over dataset-graph ids.

The filter-then-verify query path shuffles *candidate sets* between its
layers: the base method produces one, the two iGQ components prune it, the
verifier consumes what is left.  The seed implementation used plain ``set`` objects;
every pruning step therefore paid per-element hashing.  This module replaces
that bookkeeping with arbitrary-precision integer bitmasks: a
:class:`GraphIdSpace` fixes a bit position for every dataset-graph id, and a
:class:`CandidateBitmap` wraps one mask while still *behaving* like a set
(it implements :class:`collections.abc.Set`), so every existing consumer —
metric accounting, tests, reporting — keeps working unchanged while the hot
set algebra (union / intersection / difference between candidate sets and
cached answer sets) collapses to single CPython big-int operations.

``iter_bits`` is shared with the two component indexes, which use raw masks
keyed by cache-entry id for their own candidate bookkeeping.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable, Iterable, Iterator, Set

__all__ = [
    "DensePositions",
    "GraphIdSpace",
    "CandidateBitmap",
    "iter_bits",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DensePositions:
    """A growable key → dense-position allocator (the slots of a component
    index's probe table).

    Unlike the frozen :class:`GraphIdSpace`, keys arrive over time (the iGQ
    component indexes add cache entries whose monotonically assigned ids are
    never reused, so using the ids as positions directly would let the
    table grow without bound over a long query stream).  :meth:`remove`
    releases the key's position onto a free list and :meth:`add` reuses
    freed positions before growing, so a churny add/remove stream keeps the
    allocator's footprint proportional to the number of *live* keys.  The
    trade-off is that position order equals insertion order only until the
    first reuse, so callers that need a key order sort by key themselves
    (the containment indexes return hits in ascending entry id).
    """

    __slots__ = ("_positions", "_order", "_free")

    def __init__(self) -> None:
        self._positions: dict = {}
        self._order: list = []
        self._free: list[int] = []

    def add(self, key: Hashable) -> int:
        """Assign (and return) a free position for ``key``."""
        if self._free:
            position = self._free.pop()
            self._order[position] = key
        else:
            position = len(self._order)
            self._order.append(key)
        self._positions[key] = position
        return position

    def remove(self, key: Hashable) -> int:
        """Forget ``key`` and release (and return) its position for reuse."""
        position = self._positions.pop(key)
        self._order[position] = None
        self._free.append(position)
        return position

    def key_at(self, position: int) -> Hashable:
        """Key assigned to ``position``."""
        return self._order[position]

    def __len__(self) -> int:
        return len(self._positions)


class GraphIdSpace:
    """A frozen id ↔ bit-position mapping over a collection of graph ids."""

    __slots__ = ("_ids", "_positions", "_fingerprint")

    def __init__(self, ids: Iterable[Hashable]) -> None:
        self._ids = tuple(ids)
        self._positions = {graph_id: index for index, graph_id in enumerate(self._ids)}
        if len(self._positions) != len(self._ids):
            raise ValueError("graph ids must be unique")
        self._fingerprint: str | None = None

    def fingerprint(self) -> str:
        """A digest of the ids in position order: two spaces give every
        mask the same meaning exactly when their fingerprints are equal
        (stable across processes, so a journalled mask can be checked
        against the dataset it is read with)."""
        if self._fingerprint is None:
            data = repr(self._ids).encode("utf-8")
            self._fingerprint = hashlib.blake2b(data, digest_size=16).hexdigest()
        return self._fingerprint

    @property
    def ids(self) -> tuple:
        """The graph ids in bit-position order."""
        return self._ids

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, graph_id: Hashable) -> bool:
        return graph_id in self._positions

    def position(self, graph_id: Hashable) -> int:
        """Bit position assigned to ``graph_id``."""
        return self._positions[graph_id]

    def bit(self, graph_id: Hashable) -> int:
        """The single-bit mask of ``graph_id``."""
        return 1 << self._positions[graph_id]

    def id_at(self, position: int) -> Hashable:
        """Graph id stored at ``position``."""
        return self._ids[position]

    @property
    def full_mask(self) -> int:
        """Mask with one set bit per known graph id."""
        return (1 << len(self._ids)) - 1

    # ------------------------------------------------------------------
    def mask_of(self, ids: Iterable[Hashable]) -> int:
        """Mask covering ``ids`` (fast path for same-space bitmaps)."""
        if isinstance(ids, CandidateBitmap) and ids.space is self:
            return ids.mask
        positions = self._positions
        mask = 0
        for graph_id in ids:
            mask |= 1 << positions[graph_id]
        return mask

    def to_ids(self, mask: int) -> list:
        """Graph ids covered by ``mask``, in bit-position order."""
        ids = self._ids
        return [ids[position] for position in iter_bits(mask)]

    def bitmap(self, mask: int = 0) -> "CandidateBitmap":
        """Wrap ``mask`` in a set-like :class:`CandidateBitmap`."""
        return CandidateBitmap(self, mask)

    def __repr__(self) -> str:
        return f"<GraphIdSpace ids={len(self._ids)}>"


class CandidateBitmap(Set):
    """A set of graph ids backed by one integer mask over a shared id space.

    Interoperates with built-in ``set`` / ``frozenset`` in both operand
    orders through the :class:`collections.abc.Set` protocol; operations
    between two bitmaps of the *same* space short-circuit to integer
    bitwise ops.
    """

    __slots__ = ("space", "mask")

    def __init__(self, space: GraphIdSpace, mask: int = 0) -> None:
        self.space = space
        self.mask = mask

    @classmethod
    def from_ids(cls, space: GraphIdSpace, ids: Iterable[Hashable]) -> "CandidateBitmap":
        """Build a bitmap over ``space`` covering ``ids``."""
        return cls(space, space.mask_of(ids))

    # ``collections.abc.Set`` builds results of mixed-type operations via
    # this hook; binding it to the instance keeps the id space attached.
    def _from_iterable(self, iterable: Iterable[Hashable]) -> "CandidateBitmap":
        return CandidateBitmap.from_ids(self.space, iterable)

    # ------------------------------------------------------------------
    def __contains__(self, graph_id: Hashable) -> bool:
        position = self.space._positions.get(graph_id)
        return position is not None and bool((self.mask >> position) & 1)

    def __iter__(self) -> Iterator[Hashable]:
        ids = self.space._ids
        return (ids[position] for position in iter_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    # ------------------------------------------------------------------
    # Same-space fast paths (fall back to the Set protocol otherwise)
    # ------------------------------------------------------------------
    def _same_space_mask(self, other: object) -> int | None:
        if isinstance(other, CandidateBitmap) and other.space is self.space:
            return other.mask
        return None

    def __and__(self, other):
        mask = self._same_space_mask(other)
        if mask is None:
            return super().__and__(other)
        return CandidateBitmap(self.space, self.mask & mask)

    def __or__(self, other):
        mask = self._same_space_mask(other)
        if mask is None:
            return super().__or__(other)
        return CandidateBitmap(self.space, self.mask | mask)

    def __sub__(self, other):
        mask = self._same_space_mask(other)
        if mask is None:
            return super().__sub__(other)
        return CandidateBitmap(self.space, self.mask & ~mask)

    def __xor__(self, other):
        mask = self._same_space_mask(other)
        if mask is None:
            return super().__xor__(other)
        return CandidateBitmap(self.space, self.mask ^ mask)

    def __le__(self, other):
        mask = self._same_space_mask(other)
        if mask is None:
            return super().__le__(other)
        return self.mask & ~mask == 0

    def __eq__(self, other):
        mask = self._same_space_mask(other)
        if mask is None:
            return super().__eq__(other)
        return self.mask == mask

    __hash__ = None

    def isdisjoint(self, other) -> bool:
        mask = self._same_space_mask(other)
        if mask is None:
            return super().isdisjoint(other)
        return self.mask & mask == 0

    def __repr__(self) -> str:
        preview = ", ".join(repr(graph_id) for _, graph_id in zip(range(6), self))
        suffix = ", ..." if len(self) > 6 else ""
        return f"CandidateBitmap({{{preview}{suffix}}})"
