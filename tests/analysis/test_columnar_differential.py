"""Columnar vs per-record ingestion: lockstep differential tests.

The columnar hot path (``decode_records_columnar`` ->
``observe_batch_columnar`` -> ``absorb_batch``) promises **bit
identity** with the per-record object path -- not just equal final
answers, but the same observable at every batch boundary: per-batch
worst ratios, oracle-call counts, ratio-change logs, forgotten-edge
counters, violation witnesses and callback order.  These tests drive
both paths in lockstep over every generator profile (the firehose
profile is the message-dense shape the columnar path was built for),
degraded metadata-free streams, adaptive compaction, and snapshot
round trips -- and compare after *every* batch, so a divergence
pinpoints the batch that introduced it.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis.online import OnlineAbcMonitor
from repro.core.events import Event
from repro.runtime import codec
from repro.scenarios.generators import (
    profiled_trace_records,
    strip_sends_metadata,
)
from repro.sim.trace import RecordColumns

PROFILES = ("storm", "burst", "idler", "relay", "firehose")


def batches_of(records, size):
    for i in range(0, len(records), size):
        yield records[i : i + size]


def assert_lockstep(obj_mon, col_mon, records, batch, *, via_wire=False):
    """Feed both monitors the same stream and compare every observable
    at every batch boundary.  ``via_wire`` routes the columnar side
    through the codec (encode -> ``decode_records_columnar``), the
    exact worker path; otherwise columns are built straight from the
    records."""
    for n_batch, chunk in enumerate(batches_of(records, batch)):
        if via_wire:
            wire = [
                (k, "t", codec.encode_record(r))
                for k, r in enumerate(chunk)
            ]
            _ticks, _ids, cols = codec.decode_records_columnar(wire)
        else:
            cols = RecordColumns.from_records(chunk)
        obj_ratio = obj_mon.observe_batch(chunk)
        col_ratio = col_mon.observe_batch_columnar(cols)
        at = f"batch {n_batch}"
        assert col_ratio == obj_ratio, at
        assert col_mon.n_events == obj_mon.n_events, at
        assert col_mon.n_messages == obj_mon.n_messages, at
        assert col_mon.oracle_calls == obj_mon.oracle_calls, at
        assert (
            col_mon.forgotten_message_edges
            == obj_mon.forgotten_message_edges
        ), at
        assert [c.worst for c in col_mon.changes] == [
            c.worst for c in obj_mon.changes
        ], at
        assert [c.n_events for c in col_mon.changes] == [
            c.n_events for c in obj_mon.changes
        ], at
        assert col_mon.auto_compactions == obj_mon.auto_compactions, at
        assert col_mon.pinned_events() == obj_mon.pinned_events(), at
        assert (col_mon.violation is None) == (obj_mon.violation is None), at
    if obj_mon.violation is not None:
        assert col_mon.violation.ratio == obj_mon.violation.ratio
        assert (
            col_mon.violation.cycle.steps == obj_mon.violation.cycle.steps
        )


class TestMonitorLockstep:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_profile(self, profile):
        records = profiled_trace_records(random.Random(5), profile, 90)
        assert_lockstep(
            OnlineAbcMonitor(),
            OnlineAbcMonitor(),
            records,
            batch=16,
        )

    @pytest.mark.parametrize("batch", (1, 7, 64, 1000))
    def test_batch_size_is_invisible(self, batch):
        """Batch boundaries are a transport artifact: any cut of the
        same stream must produce the same per-record observables."""
        records = profiled_trace_records(random.Random(9), "firehose", 80)
        assert_lockstep(
            OnlineAbcMonitor(),
            OnlineAbcMonitor(),
            records,
            batch=batch,
        )

    @pytest.mark.parametrize("profile", ("storm", "firehose"))
    def test_through_the_wire(self, profile):
        """The worker path proper: records encoded to wire rows and
        transposed by the codec, not built from live objects."""
        records = profiled_trace_records(random.Random(2), profile, 90)
        assert_lockstep(
            OnlineAbcMonitor(),
            OnlineAbcMonitor(),
            records,
            batch=16,
            via_wire=True,
        )

    @pytest.mark.parametrize("profile", ("storm", "burst", "firehose"))
    def test_degraded_metadata_free_streams(self, profile):
        """Stripped sends metadata: the forgotten-edge counters and
        ratios must degrade identically on both paths."""
        records = strip_sends_metadata(
            profiled_trace_records(random.Random(4), profile, 70)
        )
        assert_lockstep(
            OnlineAbcMonitor(),
            OnlineAbcMonitor(),
            records,
            batch=16,
        )

    def test_faulty_sender_filter(self):
        """The faulty-process message filter runs per row on the
        columnar path; dropped edges must match exactly."""
        records = profiled_trace_records(random.Random(6), "storm", 80)
        senders = {r.sender for r in records if r.sender is not None}
        assert senders & {0, 1}, "workload must exercise the filter"
        faulty = frozenset({0, 1})
        assert_lockstep(
            OnlineAbcMonitor(faulty=faulty),
            OnlineAbcMonitor(faulty=faulty),
            records,
            batch=16,
        )

    def test_violation_fires_once_at_the_same_batch(self):
        """xi violations: the callback must fire at the same batch
        index, once, with an equal-ratio witness."""
        records = profiled_trace_records(random.Random(1), "storm", 90)
        obj_hits, col_hits = [], []
        obj_mon = OnlineAbcMonitor(
            xi=Fraction(2), on_violation=lambda w: obj_hits.append(w)
        )
        col_mon = OnlineAbcMonitor(
            xi=Fraction(2), on_violation=lambda w: col_hits.append(w)
        )
        assert_lockstep(obj_mon, col_mon, records, batch=16)
        assert obj_hits and len(obj_hits) == len(col_hits) == 1
        assert col_hits[0].ratio == obj_hits[0].ratio

    @pytest.mark.parametrize("profile", ("relay", "firehose"))
    def test_under_adaptive_compaction(self, profile):
        """compact_threshold mode: in-flight tracking feeds off the
        sends column; compaction cadence and ratios must agree."""
        records = profiled_trace_records(random.Random(11), profile, 120)
        obj_mon = OnlineAbcMonitor(compact_threshold=2.0)
        col_mon = OnlineAbcMonitor(compact_threshold=2.0)
        assert_lockstep(obj_mon, col_mon, records, batch=16)
        assert obj_mon.auto_compactions > 0, (
            "workload too small to exercise compaction"
        )

    def test_snapshot_mid_stream_then_columnar(self):
        """A columnar-fed monitor snapshotted mid-stream must resume --
        on either path -- exactly where an unsnapshotted object-path
        twin is."""
        records = profiled_trace_records(random.Random(8), "firehose", 80)
        cut = len(records) // 2
        obj_mon = OnlineAbcMonitor()
        col_mon = OnlineAbcMonitor()
        assert_lockstep(obj_mon, col_mon, records[:cut], batch=16)
        col_mon = codec.decode_monitor(codec.encode_monitor(col_mon))
        assert_lockstep(obj_mon, col_mon, records[cut:], batch=16)

    def test_mixed_surface_interleave(self):
        """One monitor may see columnar and object batches alternately
        (degraded traces fall back mid-stream); the blend must stay in
        lockstep with a pure object-path twin."""
        records = profiled_trace_records(random.Random(3), "firehose", 96)
        obj_mon = OnlineAbcMonitor()
        mix_mon = OnlineAbcMonitor()
        for n_batch, chunk in enumerate(batches_of(records, 12)):
            obj_ratio = obj_mon.observe_batch(chunk)
            if n_batch % 2:
                mix_ratio = mix_mon.observe_batch(chunk)
            else:
                mix_ratio = mix_mon.observe_batch_columnar(
                    RecordColumns.from_records(chunk)
                )
            assert mix_ratio == obj_ratio, f"batch {n_batch}"
            assert mix_mon.oracle_calls == obj_mon.oracle_calls
        assert mix_mon.worst_ratio == obj_mon.worst_ratio
        assert mix_mon.n_messages == obj_mon.n_messages


def reference_pins(records):
    """(frontier events, in-flight send events), recomputed from
    scratch over every record seen so far."""
    frontier: dict = {}
    in_flight: Counter = Counter()
    for record in records:
        frontier[record.event.process] = record.event.index
        if record.sender is not None and record.send_event is not None:
            key = (record.send_event, record.event.process)
            if in_flight[key] > 0:
                in_flight[key] -= 1
        for send in record.sends:
            in_flight[(record.event, send.dest)] += 1
    return (
        [Event(p, i) for p, i in frontier.items()],
        [event for (event, _dest), n in in_flight.items() if n > 0],
    )


class TestPinnedEvents:
    """The monitor's in-flight ledger is the only one: it is kept on
    every entry with no compaction threshold, and its pins are exactly
    each process's frontier plus every send still in flight."""

    @pytest.mark.parametrize("entry", ("object", "columnar"))
    @pytest.mark.parametrize("profile", PROFILES)
    def test_frontier_plus_in_flight_without_threshold(self, entry, profile):
        records = profiled_trace_records(random.Random(5), profile, 90)
        monitor = OnlineAbcMonitor()
        assert monitor.compact_threshold is None
        seen = []
        opened = closed = 0
        previous: set = set()
        for chunk in batches_of(records, 9):
            if entry == "object":
                monitor.observe_batch(chunk)
            else:
                monitor.observe_batch_columnar(
                    RecordColumns.from_records(chunk)
                )
            seen.extend(chunk)
            frontier, sends = reference_pins(seen)
            assert Counter(monitor.pinned_events()) == Counter(
                frontier + sends
            )
            opened += bool(set(sends) - previous)
            closed += bool(previous - set(sends))
            previous = set(sends)
        assert opened and closed, "batches must both open and close messages"

    @pytest.mark.parametrize("profile", PROFILES)
    def test_record_entry_keeps_the_same_ledger(self, profile):
        """``observe`` (one record at a time) keeps the ledger too: its
        pins match the from-scratch reference after every record."""
        records = profiled_trace_records(random.Random(6), profile, 60)
        monitor = OnlineAbcMonitor()
        for n, record in enumerate(records, 1):
            monitor.observe(record)
            frontier, sends = reference_pins(records[:n])
            assert Counter(monitor.pinned_events()) == Counter(
                frontier + sends
            ), f"record {n}"

    @pytest.mark.parametrize("entry", ("object", "columnar"))
    def test_ledger_travels_in_the_monitor_blob(self, entry):
        """Snapshots carry no ledger of their own: a monitor restored
        mid-stream from its blob pins exactly what an uninterrupted
        twin pins, at the cut and after the rest of the stream."""
        records = profiled_trace_records(random.Random(2), "relay", 80)
        cut = 45

        def feed(monitor, chunk):
            if entry == "object":
                monitor.observe_batch(chunk)
            else:
                monitor.observe_batch_columnar(
                    RecordColumns.from_records(chunk)
                )

        straight = OnlineAbcMonitor()
        feed(straight, records[:cut])
        _frontier, sends = reference_pins(records[:cut])
        assert sends, "the cut must leave a message in flight"
        restored = codec.decode_monitor(codec.encode_monitor(straight))
        assert restored.pinned_events() == straight.pinned_events()
        for chunk in batches_of(records[cut:], 7):
            feed(straight, chunk)
            feed(restored, chunk)
            assert restored.pinned_events() == straight.pinned_events()
