"""Threshold-bitmap feature index: occurrence-count filtering as big-int ANDs.

Every filter in the system asks one of two questions about a collection of
feature tables ``{key: occurrences}``: *which members contain every feature
of the query at least as often* (subgraph filtering of GGSX/Grapes, and the
iGQ ``Isub`` probe over cached queries) or *which members contain no feature
more often than the query does* (supergraph filtering).  Both are answered
here from ``key -> [mask(count >= 1), mask(count >= 2), ...]``: one Python
integer per occurrence threshold, over bit positions the caller owns (the
frozen :class:`~repro.graphs.bitset.GraphIdSpace` of the dataset graphs, or
the recycled :class:`~repro.graphs.bitset.DensePositions` slots of cache
entries).  The counts are reconciled into thresholds once, on the write path
(:meth:`add` / :meth:`remove`), so a read is one dictionary look-up and one
bitwise operation per feature and never touches a member.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping

__all__ = ["ThresholdBitmapIndex"]


class ThresholdBitmapIndex:
    """``key -> levels`` with ``levels[i]`` = members holding ``key`` > ``i`` times."""

    __slots__ = ("_levels",)

    def __init__(self) -> None:
        self._levels: dict[tuple, list[int]] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, bit: int, counts: Mapping[tuple, int]) -> None:
        """Record a member (the single-bit mask ``bit``) with feature ``counts``."""
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

    def remove(self, bit: int, counts: Mapping[tuple, int]) -> None:
        """Forget a member; ``counts`` must be what it was added with.

        Thresholds nobody reaches any more are trimmed and an emptied key is
        dropped, so the footprint follows the live members.
        """
        levels_of = self._levels
        clear = ~bit
        for key, count in counts.items():
            levels = levels_of[key]
            for level in range(count):
                levels[level] &= clear
            while levels and not levels[-1]:
                levels.pop()
            if not levels:
                del levels_of[key]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def at_least(self, counts: Mapping[tuple, int], universe: int) -> int:
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

    def at_most(self, counts: Mapping[tuple, int], universe: int) -> int:
        """Members of ``universe`` holding no key more often than ``counts``.

        A member is excluded by any of its keys that ``counts`` lacks or has
        fewer of, so every indexed key is visited: O(vocabulary), against
        O(query features) for :meth:`at_least`.
        """
        available = counts.get
        excluded = 0
        for key, levels in self._levels.items():
            have = available(key, 0)
            if have < len(levels):
                excluded |= levels[have]
        return universe & ~excluded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct feature keys held by at least one member."""
        return len(self._levels)

    def size_bytes(self) -> int:
        """In-memory footprint of the structure (the Figure 18 quantity).

        The dictionary, one key tuple and one threshold list per feature,
        and every distinct mask object (a run of equal thresholds written
        by one ``add`` shares a single integer).  The label strings inside
        the keys belong to the graphs and are not counted.
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
