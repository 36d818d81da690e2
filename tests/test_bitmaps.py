"""Tests for the threshold-bitmap feature index.

One property carries the weight: after every ``add`` of a stream, both
reads agree with the brute-force :func:`~tests.conftest.covers_counts_of`
test of every member.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import GraphFeatures, ThresholdBitmapIndex

from . import kernel_oracle
from .conftest import covers_counts_of

KEYS = [("A",), ("B",), ("A", "B"), ("A", "B", "A"), ("C", "C")]
#: never added to any member
UNKNOWN = ("Z",)

count_tables = st.dictionaries(st.sampled_from(KEYS), st.integers(1, 4), max_size=len(KEYS))
#: queries reach above every stored threshold and name a key nobody holds
query_tables = st.dictionaries(
    st.sampled_from(KEYS + [UNKNOWN]), st.integers(1, 6), max_size=len(KEYS) + 1
)
steps = st.lists(count_tables, max_size=24)
#: feature codes over a vocabulary large enough for several range-table rows
CODES = st.integers(min_value=0, max_value=150)
coded_steps = st.lists(
    st.dictionaries(CODES, st.integers(1, 3), max_size=30), min_size=1, max_size=40
)
#: a few codes beyond the vocabulary: keys no member holds
coded_queries = st.dictionaries(st.integers(0, 160), st.integers(1, 4), max_size=40)


def brute_force(members, query, dominated_by_query):
    wanted = GraphFeatures(counts=query)
    mask = 0
    for name, counts in members.items():
        mine = GraphFeatures(counts=counts)
        if dominated_by_query:
            covered = covers_counts_of(wanted, mine)
        else:
            covered = covers_counts_of(mine, wanted)
        if covered:
            mask |= 1 << name
    return mask


class TestThresholdBitmapIndex:
    @settings(max_examples=200, deadline=None)
    @given(steps, st.lists(query_tables, min_size=1, max_size=4))
    def test_reads_match_brute_force_after_every_step(self, stream, queries):
        index, members = ThresholdBitmapIndex(), {}
        queries = queries + [{}]
        for position, counts in enumerate(stream):
            members[position] = counts
            index.add(1 << position, counts)
            universe = (1 << len(members)) - 1
            for query in queries:
                assert index.at_least(query, universe) == brute_force(members, query, False)
                assert index.at_most(query, universe) == brute_force(members, query, True)
            # Only held keys are indexed, and no key has an empty tail.
            held = {key for counts in members.values() for key in counts}
            assert set(index._levels) == held
            assert all(levels[-1] for levels in index._levels.values())

    @settings(max_examples=100, deadline=None)
    @given(coded_steps, st.lists(coded_queries, min_size=1, max_size=5), st.data())
    def test_at_most_equals_visiting_every_key(self, stream, queries, data):
        """The range-OR read against the key visit it replaced
        (``kernel_oracle.threshold_at_most``), after every ``add`` — the
        range table is rebuilt on the first read after one."""
        index = ThresholdBitmapIndex()
        for position, counts in enumerate(stream):
            index.add(1 << position, counts)
            for query in queries + [{}]:
                universe = data.draw(st.integers(0, (1 << (position + 1)) - 1))
                assert index.at_most(query, universe) == kernel_oracle.threshold_at_most(
                    index, query, universe
                )

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
        assert index.size_bytes() > empty
