"""Tests for the threshold-bitmap feature index.

One property carries the weight: after any stream of ``add``/``remove`` over
recycled slots, both reads agree with the brute-force
:meth:`GraphFeatures.covers_counts_of` test of every live member.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import GraphFeatures, ThresholdBitmapIndex
from repro.graphs.bitset import DensePositions

KEYS = [("A",), ("B",), ("A", "B"), ("A", "B", "A"), ("C", "C")]
#: never added to any member
UNKNOWN = ("Z",)

count_tables = st.dictionaries(st.sampled_from(KEYS), st.integers(1, 4), max_size=len(KEYS))
#: queries reach above every stored threshold and name a key nobody holds
query_tables = st.dictionaries(
    st.sampled_from(KEYS + [UNKNOWN]), st.integers(1, 6), max_size=len(KEYS) + 1
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), count_tables),
        st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
    ),
    max_size=24,
)


def brute_force(members, slots, query, dominated_by_query):
    wanted = GraphFeatures(counts=query)
    mask = 0
    for name, counts in members.items():
        mine = GraphFeatures(counts=counts)
        if dominated_by_query:
            covered = wanted.covers_counts_of(mine)
        else:
            covered = mine.covers_counts_of(wanted)
        if covered:
            mask |= slots.bit(name)
    return mask


class TestThresholdBitmapIndex:
    @settings(max_examples=200, deadline=None)
    @given(steps, st.lists(query_tables, min_size=1, max_size=4))
    def test_reads_match_brute_force_after_every_step(self, stream, queries):
        index, slots, members = ThresholdBitmapIndex(), DensePositions(), {}
        queries = queries + [{}]
        for serial, (op, argument) in enumerate(stream):
            if op == "add":
                members[serial] = argument
                index.add(1 << slots.add(serial), argument)
            elif members:
                name = sorted(members)[argument % len(members)]
                index.remove(slots.bit(name), members.pop(name))
                slots.remove(name)
            universe = 0
            for name in members:
                universe |= slots.bit(name)
            for query in queries:
                assert index.at_least(query, universe) == brute_force(members, slots, query, False)
                assert index.at_most(query, universe) == brute_force(members, slots, query, True)
            # An emptied key leaves no trace; a held key keeps no empty tail.
            held = {key for counts in members.values() for key in counts}
            assert set(index._levels) == held
            assert all(levels[-1] for levels in index._levels.values())

    def test_universe_restricts_both_reads(self):
        index = ThresholdBitmapIndex()
        index.add(0b01, {("A",): 2})
        index.add(0b10, {("A",): 1})
        assert index.at_least({("A",): 1}, 0b11) == 0b11
        assert index.at_least({("A",): 1}, 0b10) == 0b10
        assert index.at_least({("A",): 2}, 0b11) == 0b01
        assert index.at_most({("A",): 1}, 0b11) == 0b10
        assert index.at_most({("A",): 1}, 0b01) == 0
        assert index.at_most({}, 0b11) == 0

    def test_introspection(self):
        index = ThresholdBitmapIndex()
        empty = index.size_bytes()
        index.add(1, {("A", "B"): 3, ("C",): 1})
        assert len(index) == 2
        populated = index.size_bytes()
        assert populated > empty
        index.remove(1, {("A", "B"): 3, ("C",): 1})
        assert len(index) == 0
        assert index.size_bytes() < populated
