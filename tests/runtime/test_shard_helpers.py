"""The shared fleet aggregates of :mod:`repro.runtime.shard`.

Every fleet front end -- the serial :class:`MonitorFleet`, the
:class:`ParallelFleet` and the :class:`IngestServer` -- derives its
report totals and its violation order from the same three helpers:
:func:`shard_totals`, :func:`merge_violations` and
:func:`violating_ids`, and its ratio histogram and watchlist from its
own ``all_ratios()`` through :class:`RatioQueries` (as does the
delta-stream :class:`DeltaView`).  These tests pin each helper's
contract on its own, then check that every front's answers are exactly
what the helpers make of its own rows.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.fleet import MonitorFleet
from repro.runtime import ParallelFleet
from repro.runtime.net import DeltaView, IngestServer, ProducerClient
from repro.runtime.shard import (
    FleetReport,
    RatioQueries,
    ShardStats,
    merge_violations,
    shard_totals,
    violating_ids,
)
from repro.scenarios.generators import concurrent_workload

SUMMED = (
    "records",
    "flushes",
    "oracle_calls",
    "tombstoned_events",
    "evictions",
    "summary_compactions",
    "summary_edges",
    "auto_retired",
    "auto_compactions",
)

XI = Fraction(2)  # several traces violate, spread over shards and fronts


def stats_row(shard=0, **counters):
    """A :class:`ShardStats` row with every counter zero unless given."""
    fields = {f.name: 0 for f in dataclasses.fields(ShardStats)}
    fields.update(shard=shard, **counters)
    return ShardStats(**fields)


# ----------------------------------------------------------------------
# merge_violations / violating_ids
# ----------------------------------------------------------------------


class TestMergeViolations:
    def test_ascending_tick(self):
        rows = [(7, "a"), (2, "b"), (5, "c")]
        assert merge_violations(rows) == ((2, "b"), (5, "c"), (7, "a"))

    def test_tie_broken_by_trace_id_string(self):
        # Mixed int/str ids never compare directly: the tie-break is
        # the id's string form, so 10 sorts before 9 and "x".
        rows = [(4, "x"), (4, 9), (4, 10)]
        assert merge_violations(rows) == ((4, 10), (4, 9), (4, "x"))

    def test_exact_duplicates_dropped(self):
        rows = [(3, "a"), (1, "b"), (3, "a"), (1, "b")]
        assert merge_violations(rows) == ((1, "b"), (3, "a"))

    def test_same_trace_at_distinct_ticks_kept(self):
        rows = [(6, "a"), (2, "a")]
        assert merge_violations(rows) == ((2, "a"), (6, "a"))

    def test_empty(self):
        assert merge_violations([]) == ()

    def test_one_shot_iterator(self):
        rows = iter([(2, "b"), (1, "a")])
        assert merge_violations(rows) == ((1, "a"), (2, "b"))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.one_of(st.integers(0, 12), st.sampled_from("abcde")),
            ),
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_feed_split_is_invisible(self, rows, rng):
        """Splitting the rows across two worker feeds, in any order,
        merges back to the same sequence -- and merging an
        already merged feed changes nothing."""
        merged = merge_violations(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        cut = rng.randint(0, len(shuffled))
        feeds = [shuffled[:cut], shuffled[cut:]]
        assert merge_violations(feeds[1] + feeds[0]) == merged
        assert merge_violations(merged) == merged
        assert len(set(merged)) == len(merged) == len(set(rows))


class TestViolatingIds:
    def test_first_occurrence_in_merge_order(self):
        rows = [(9, "late"), (1, "early"), (5, "late"), (5, 3)]
        assert violating_ids(rows) == ("early", 3, "late")

    def test_each_id_once(self):
        rows = [(1, "a"), (2, "a"), (3, "b"), (4, "a")]
        assert violating_ids(rows) == ("a", "b")

    def test_empty(self):
        assert violating_ids([]) == ()


# ----------------------------------------------------------------------
# shard_totals
# ----------------------------------------------------------------------


class TestShardTotals:
    @pytest.mark.parametrize("field", SUMMED)
    def test_each_counter_summed_on_its_own(self, field):
        rows = [stats_row(0, **{field: 3}), stats_row(1, **{field: 4})]
        totals = shard_totals(rows)
        assert totals[field] == 7
        assert all(v == 0 for k, v in totals.items() if k != field)

    def test_population_and_live_fields_not_summed(self):
        rows = [
            stats_row(s, open_traces=5, retired_traces=2, live_events=40)
            for s in range(3)
        ]
        assert set(shard_totals(rows)) == set(SUMMED)
        assert not any(shard_totals(rows).values())

    def test_empty_is_all_zero(self):
        assert shard_totals([]) == dict.fromkeys(SUMMED, 0)

    def test_keys_are_report_fields(self):
        report_fields = {f.name for f in dataclasses.fields(FleetReport)}
        assert set(shard_totals([stats_row()])) <= report_fields

    def test_one_shot_iterator(self):
        rows = (stats_row(s, records=s + 1, flushes=1) for s in range(4))
        totals = shard_totals(rows)
        assert totals["records"] == 10
        assert totals["flushes"] == 4


# ----------------------------------------------------------------------
# every front derives its report from the helpers
# ----------------------------------------------------------------------


def small_stream():
    return list(
        concurrent_workload(
            random.Random(13), n_traces=10, records_per_trace=(20, 40)
        )
    )


def serial_violating(stream):
    fleet = MonitorFleet(xi=XI, n_shards=4, batch_size=8)
    fleet.ingest_many(stream)
    return set(fleet.violating_traces())


def assert_report_from_helpers(report, stream):
    assert report.records == len(stream)
    assert set(report.violating_traces) == serial_violating(stream)
    for field, total in shard_totals(report.shards).items():
        assert getattr(report, field) == total, field


class TestFrontReports:
    def test_monitor_fleet(self):
        stream = small_stream()
        fleet = MonitorFleet(xi=XI, n_shards=4, batch_size=8)
        fleet.ingest_many(stream)
        report = fleet.report()
        assert_report_from_helpers(report, stream)
        assert report.violating_traces == fleet.violating_traces()

    def test_parallel_fleet(self):
        stream = small_stream()
        with ParallelFleet(
            xi=XI,
            n_shards=4,
            n_workers=2,
            batch_size=8,
            backend="thread",
            wire_batch=16,
        ) as fleet:
            fleet.ingest_many(stream)
            report = fleet.report()
            feed = fleet.violation_feed()
        assert_report_from_helpers(report, stream)
        assert feed == merge_violations(feed)
        assert report.violating_traces == violating_ids(feed)

    def test_ingest_server(self):
        stream = small_stream()
        with IngestServer(
            XI, n_fronts=2, n_shards=4, batch_size=8, backend="thread"
        ) as server:
            with ProducerClient(
                server.address, producer_id="p0", batch=7
            ) as client:
                for tid, rec in stream:
                    client.send(tid, rec)
            server.flush()
            report = server.report()
            feed = server.violation_feed()
        assert_report_from_helpers(report, stream)
        assert feed == merge_violations(feed)
        assert report.violating_traces == violating_ids(feed)


# ----------------------------------------------------------------------
# RatioQueries: histogram and watchlist from all_ratios()
# ----------------------------------------------------------------------


class FixedRatios(RatioQueries):
    def __init__(self, pairs):
        self.pairs = list(pairs)

    def all_ratios(self):
        return list(self.pairs)


PAIRS = [
    ("b", Fraction(3)),
    ("a", Fraction(3)),
    ("c", None),
    ("d", Fraction(5, 2)),
    (7, Fraction(3)),
    ("e", None),
]


class TestRatioQueries:
    def test_histogram_counts_each_exact_ratio(self):
        assert FixedRatios(PAIRS).worst_ratio_histogram() == {
            Fraction(3): 3,
            None: 2,
            Fraction(5, 2): 1,
        }

    def test_top_k_descending_ties_by_id_none_last(self):
        queries = FixedRatios(PAIRS)
        assert queries.top_k_riskiest(4) == [
            (7, Fraction(3)),
            ("a", Fraction(3)),
            ("b", Fraction(3)),
            ("d", Fraction(5, 2)),
        ]
        assert [tid for tid, _ in queries.top_k_riskiest(10)][-2:] == [
            "c",
            "e",
        ]
        assert queries.top_k_riskiest(0) == []
        with pytest.raises(ValueError, match="non-negative"):
            queries.top_k_riskiest(-1)

    @pytest.mark.parametrize(
        "front_end", [MonitorFleet, ParallelFleet, IngestServer, DeltaView]
    )
    def test_every_front_end_inherits_them(self, front_end):
        assert issubclass(front_end, RatioQueries)
        for name in ("worst_ratio_histogram", "top_k_riskiest"):
            assert name not in vars(front_end), name
        assert "all_ratios" in vars(front_end)

    def test_monitor_fleet_all_ratios_lists_every_trace_once(self):
        stream = small_stream()
        cut = len(stream) // 2
        fleet = MonitorFleet(xi=XI, n_shards=4, batch_size=8)
        fleet.ingest_many(stream[:cut])
        later = {tid for tid, _ in stream[cut:]}
        early = [tid for tid, _ in stream[:cut]]
        reopened = next(tid for tid in early if tid in later)
        retired = next(tid for tid in early if tid not in later)
        fleet.close(reopened)
        fleet.close(retired)
        fleet.ingest_many(stream[cut:])
        assert fleet.is_degraded(reopened) and fleet.retired_traces == 1
        pairs = fleet.all_ratios()
        ids = [tid for tid, _ in pairs]
        assert sorted(ids) == sorted({tid for tid, _ in stream})
        assert dict(pairs) == {tid: fleet.worst_ratio(tid) for tid in ids}
        assert fleet.worst_ratio_histogram() == FixedRatios(
            pairs
        ).worst_ratio_histogram()
        assert fleet.top_k_riskiest(3) == FixedRatios(pairs).top_k_riskiest(3)

    def test_parallel_fleet_matches_serial(self):
        stream = small_stream()
        serial = MonitorFleet(xi=XI, n_shards=4, batch_size=8)
        serial.ingest_many(stream)
        with ParallelFleet(
            xi=XI, n_shards=4, n_workers=2, batch_size=8, backend="thread"
        ) as fleet:
            fleet.ingest_many(stream)
            assert dict(fleet.all_ratios()) == dict(serial.all_ratios())
            assert (
                fleet.worst_ratio_histogram() == serial.worst_ratio_histogram()
            )
            assert fleet.top_k_riskiest(4) == serial.top_k_riskiest(4)
