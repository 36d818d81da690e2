"""Threshold-bitmap feature index: occurrence-count filtering as big-int ANDs.

The dataset-side filters ask one of two questions about a collection of
feature tables ``{code: occurrences}``: *which members contain every feature
of the query at least as often* (subgraph filtering of GGSX/Grapes) or
*which members contain no feature more often than the query does*
(supergraph filtering).  Both are answered here from ``key -> [mask(count
>= 1), mask(count >= 2), ...]``: one Python integer per occurrence
threshold, over bit positions the caller owns (the frozen
:class:`~repro.graphs.bitset.GraphIdSpace` of the dataset graphs).  The
counts are reconciled into thresholds once, when a member is added, so a
read is one dictionary look-up and one bitwise operation per feature and
never touches a member.  The supergraph read also has to exclude the
holders of every key the query lacks; a sparse table of range-ORs over the
keys' first thresholds, built on the first such read, answers those as at
most one OR per gap between the query's keys.  (The iGQ cache side asks the
same questions of the kernel's probe table, :mod:`repro.core.probe`.)
"""

from __future__ import annotations

import sys
from collections.abc import Hashable, Mapping

__all__ = ["ThresholdBitmapIndex"]


class _RangeUnions:
    """The keys of an index in a fixed order, with the members holding any
    key of a position range ``start .. stop - 1`` in two look-ups:
    ``rows[j][start] | rows[j][stop - 2**j]`` for the largest ``2**j`` not
    above the range's length.

    ``rows[j][i]`` is the OR of ``levels[0]`` over the keys at positions
    ``i .. i + 2**j - 1`` (a sparse table: ``vocabulary · log vocabulary``
    integers, the first row shared with the index).
    """

    __slots__ = ("positions", "levels", "rows")

    def __init__(self, levels_of: Mapping[Hashable, list[int]]) -> None:
        #: key -> its position in the order
        self.positions = {key: position for position, key in enumerate(levels_of)}
        #: the keys' threshold lists, by position
        self.levels = list(levels_of.values())
        row = [levels[0] for levels in self.levels]
        self.rows = [row]
        span = 1
        while 2 * span <= len(self.levels):
            row = [row[i] | row[i + span] for i in range(len(row) - span)]
            self.rows.append(row)
            span *= 2


class ThresholdBitmapIndex:
    """``key -> levels`` with ``levels[i]`` = members holding ``key`` > ``i`` times."""

    __slots__ = ("_levels", "_unions")

    def __init__(self) -> None:
        self._levels: dict[Hashable, list[int]] = {}
        #: what :meth:`at_most` reads, built on its first call after an
        #: :meth:`add` (``None`` until then)
        self._unions: _RangeUnions | None = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, bit: int, counts: Mapping[Hashable, int]) -> None:
        """Record a member (the single-bit mask ``bit``) with feature ``counts``."""
        self._unions = None
        levels_of = self._levels
        for key, count in counts.items():
            levels = levels_of.get(key)
            if levels is None:
                levels_of[key] = [bit] * count
                continue
            known = len(levels)
            for level in range(min(known, count)):
                levels[level] |= bit
            if count > known:
                levels.extend([bit] * (count - known))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def at_least(self, counts: Mapping[Hashable, int], universe: int) -> int:
        """Members of ``universe`` holding every key of ``counts`` at least
        as often (``counts`` values are positive; no keys keeps ``universe``)."""
        levels_of = self._levels
        mask = universe
        for key, required in counts.items():
            levels = levels_of.get(key)
            if levels is None or required > len(levels):
                return 0
            mask &= levels[required - 1]
            if not mask:
                return 0
        return mask

    def at_most(self, counts: Mapping[Hashable, int], universe: int) -> int:
        """Members of ``universe`` holding no key more often than ``counts``.

        A member is excluded by a key of ``counts`` it holds more often (one
        threshold per such key) and by any indexed key ``counts`` lacks.
        The lacking keys fill the gaps between the positions of the query's
        indexed keys, at most ``len(counts) + 1`` position ranges, each one
        OR of two sparse-table rows: O(``len(counts)`` · log vocabulary)
        with the sort, against O(vocabulary) for visiting every key.  The
        table is built on the first call after an :meth:`add`.
        """
        unions = self._unions
        if unions is None:
            unions = self._unions = _RangeUnions(self._levels)
        position_of, levels_at = unions.positions.get, unions.levels
        excluded = 0
        held = []
        for key, have in counts.items():
            position = position_of(key)
            if position is not None:
                held.append(position)
                levels = levels_at[position]
                if have < len(levels):
                    excluded |= levels[have]
        held.sort()
        held.append(len(levels_at))
        rows = unions.rows
        start = 0
        for stop in held:
            if stop > start:  # the keys at start .. stop - 1 are lacking
                level = (stop - start).bit_length() - 1
                row = rows[level]
                excluded |= row[start] | row[stop - (1 << level)]
            start = stop + 1
        return universe & ~excluded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct feature keys held by at least one member."""
        return len(self._levels)

    def size_bytes(self) -> int:
        """In-memory footprint of the structure (the Figure 18 quantity).

        The dictionary, one key and one threshold list per feature,
        and every distinct mask object (a run of equal thresholds written
        by one ``add`` shares a single integer).  The label strings inside
        the keys belong to the graphs and are not counted, nor is the
        range table :meth:`at_most` derives from the thresholds.
        """
        getsizeof = sys.getsizeof
        total = getsizeof(self._levels)
        for key, levels in self._levels.items():
            total += getsizeof(key) + getsizeof(levels)
            previous = None
            for mask in levels:
                if mask is not previous:
                    total += getsizeof(mask)
                    previous = mask
        return total
