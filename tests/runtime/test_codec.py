"""Round-trip tests for the wire codec.

The contract: every value the parallel runtime puts on the wire --
records (with and without sends metadata), exact rationals, trace
summaries, shard statistics, violation notices with their witness
cycles -- decodes back to an equal value, and the encoded form contains
only plain primitives (transportable by any backend, no library classes
on the wire).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import OnlineAbcMonitor
from repro.runtime.codec import (
    SNAPSHOT_VERSION,
    decode_fraction,
    decode_monitor,
    decode_notice,
    decode_record,
    decode_records,
    decode_records_columnar,
    decode_spec,
    decode_specs,
    decode_stats,
    decode_summary,
    decode_witness,
    encode_fraction,
    encode_monitor,
    encode_notice,
    encode_record,
    encode_records,
    encode_spec,
    encode_specs,
    encode_stats,
    encode_summary,
    encode_witness,
)
from repro.runtime.shard import MonitorSpec, ShardGroup, ShardStats, TraceSummary
from repro.scenarios.generators import (
    profiled_trace_records,
    strip_sends_metadata,
)

PROFILES = ("storm", "burst", "idler", "relay")


def assert_plain(value):
    """Encoded values must be primitives/tuples/lists all the way down."""
    if isinstance(value, (tuple, list)):
        for item in value:
            assert_plain(item)
    else:
        assert value is None or isinstance(value, (int, float, str, bool))


# ----------------------------------------------------------------------
# records over randomized workload streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", range(4))
def test_profiled_records_round_trip(profile, seed):
    records = profiled_trace_records(random.Random(seed), profile, 60)
    for record in records:
        wire = encode_record(record)
        assert_plain(wire)
        assert decode_record(wire) == record


@pytest.mark.parametrize("profile", PROFILES)
def test_metadata_free_records_round_trip(profile):
    """The degraded regime: stripped sends survive the trip as
    genuinely empty metadata (not as a lossy placeholder)."""
    records = strip_sends_metadata(
        profiled_trace_records(random.Random(7), profile, 40)
    )
    for record in records:
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.sends == ()


def test_batch_round_trip_preserves_ticks_and_ids():
    records = profiled_trace_records(random.Random(3), "burst", 30)
    batch = [(i + 1, f"trace-{i % 3}", r) for i, r in enumerate(records)]
    wire = encode_records(batch)
    assert_plain([row[2] for row in wire])
    assert decode_records(wire) == batch


# ----------------------------------------------------------------------
# fractions (hypothesis: exactness is the whole point)
# ----------------------------------------------------------------------


@given(
    num=st.integers(min_value=0, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200, deadline=None)
def test_fraction_round_trip_is_exact(num, den):
    value = Fraction(num, den)
    wire = encode_fraction(value)
    assert_plain(wire)
    assert decode_fraction(wire) == value


def test_none_fraction_passes():
    assert encode_fraction(None) is None
    assert decode_fraction(None) is None


# ----------------------------------------------------------------------
# witnesses: real violating cycles from monitored streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_witness_round_trip_from_real_violations(seed):
    records = profiled_trace_records(random.Random(seed), "storm", 80)
    monitor = OnlineAbcMonitor(xi=Fraction(2))
    for record in records:
        monitor.observe(record)
    witness = monitor.violation
    assert witness is not None, "storm workloads must violate Xi=2"
    wire = encode_witness(witness)
    assert_plain(wire)
    decoded = decode_witness(wire)
    assert decoded == witness
    assert decoded.ratio == witness.ratio
    assert decoded.cycle.steps == witness.cycle.steps


def test_witness_none_passes():
    assert encode_witness(None) is None
    assert decode_witness(None) is None


@pytest.mark.parametrize("seed", range(3))
def test_notice_round_trip(seed):
    records = profiled_trace_records(random.Random(seed), "storm", 80)
    monitor = OnlineAbcMonitor(xi=Fraction(2))
    for record in records:
        monitor.observe(record)
    wire = encode_notice(17, f"trace-{seed}", monitor.violation)
    assert_plain(wire)
    tick, trace_id, witness = decode_notice(wire)
    assert (tick, trace_id) == (17, f"trace-{seed}")
    assert witness == monitor.violation


# ----------------------------------------------------------------------
# summaries and statistics
# ----------------------------------------------------------------------


@given(
    trace_id=st.one_of(st.text(max_size=20), st.integers()),
    ratio=st.one_of(
        st.none(),
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
    ),
    n_records=st.integers(min_value=0, max_value=10**9),
    oracle_calls=st.integers(min_value=0, max_value=10**9),
    degraded=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_summary_round_trip(trace_id, ratio, n_records, oracle_calls, degraded):
    summary = TraceSummary(
        trace_id=trace_id,
        worst_ratio=ratio,
        n_records=n_records,
        oracle_calls=oracle_calls,
        violation=None,
        degraded=degraded,
    )
    wire = encode_summary(summary)
    assert_plain(wire)
    assert decode_summary(wire) == summary


def test_summary_with_witness_round_trips():
    records = profiled_trace_records(random.Random(2), "storm", 80)
    monitor = OnlineAbcMonitor(xi=Fraction(2))
    for record in records:
        monitor.observe(record)
    summary = TraceSummary(
        trace_id="hot",
        worst_ratio=monitor.worst_ratio,
        n_records=len(records),
        oracle_calls=monitor.oracle_calls,
        violation=monitor.violation,
        degraded=False,
    )
    assert decode_summary(encode_summary(summary)) == summary


@given(values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=13, max_size=13))
@settings(max_examples=100, deadline=None)
def test_stats_round_trip(values):
    stats = ShardStats(*values)
    wire = encode_stats(stats)
    assert_plain(wire)
    assert decode_stats(wire) == stats


# ----------------------------------------------------------------------
# monitor specs
# ----------------------------------------------------------------------


@given(
    xi=st.one_of(
        st.none(),
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=1, max_value=100),
        ),
    ),
    compact_threshold=st.one_of(
        st.none(), st.floats(min_value=1.01, max_value=64.0)
    ),
    faulty=st.one_of(
        st.none(), st.frozensets(st.integers(min_value=0, max_value=7))
    ),
    drop_faulty=st.one_of(st.none(), st.booleans()),
)
@settings(max_examples=100, deadline=None)
def test_spec_round_trip(xi, compact_threshold, faulty, drop_faulty):
    spec = MonitorSpec(
        xi=xi,
        compact_threshold=compact_threshold,
        faulty=faulty,
        drop_faulty=drop_faulty,
    )
    wire = encode_spec(spec)
    assert_plain(wire)
    assert decode_spec(wire) == spec


def test_specs_registry_round_trip():
    assert encode_specs(None) is None
    assert decode_specs(None) is None
    one = MonitorSpec(xi=Fraction(2))
    assert decode_specs(encode_specs(one)) == one
    mapping = {
        "hot": MonitorSpec(xi=Fraction(3, 2), compact_threshold=4.0),
        "cold": MonitorSpec(faulty=frozenset({1})),
    }
    wire = encode_specs(mapping)
    assert_plain(wire)
    assert decode_specs(wire) == mapping


# ----------------------------------------------------------------------
# snapshot frames: the durability plane's payload
# ----------------------------------------------------------------------


def drive(monitor, records):
    for record in records:
        monitor.observe(record)
    return monitor


class TestMonitorSnapshot:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", range(3))
    def test_live_monitor_round_trips_mid_stream(self, profile, seed):
        """Cut a live monitor anywhere; the decoded copy must finish the
        stream with exactly the same worst ratio and violation state."""
        records = profiled_trace_records(random.Random(seed), profile, 80)
        cut = len(records) // 2
        original = drive(OnlineAbcMonitor(xi=Fraction(2)), records[:cut])
        clone = decode_monitor(encode_monitor(original))
        assert clone.worst_ratio == original.worst_ratio
        assert clone.n_events == original.n_events
        for both in (original, clone):
            drive(both, records[cut:])
        assert clone.worst_ratio == original.worst_ratio
        assert clone.oracle_calls == original.oracle_calls
        assert (clone.violation is None) == (original.violation is None)

    def test_deep_summary_edge_chains_survive(self):
        """Adaptive compaction rewrites the digraph into SummaryEdge
        chains; repeated snapshot round trips through the deepest such
        state must stay bit-identical on the rest of the stream."""
        records = profiled_trace_records(random.Random(11), "relay", 160)
        reference = drive(
            OnlineAbcMonitor(xi=Fraction(2), compact_threshold=2.0), records
        )
        hopper = OnlineAbcMonitor(xi=Fraction(2), compact_threshold=2.0)
        for start in range(0, len(records), 20):
            drive(hopper, records[start : start + 20])
            hopper = decode_monitor(encode_monitor(hopper))  # hop every 20
        assert hopper.worst_ratio == reference.worst_ratio
        assert hopper.n_events == reference.n_events
        assert hopper.oracle_calls == reference.oracle_calls

    def test_violation_callbacks_are_stripped_not_pickled(self):
        hits = []
        monitor = OnlineAbcMonitor(
            xi=Fraction(2), on_violation=lambda w: hits.append(w)
        )
        records = profiled_trace_records(random.Random(0), "storm", 80)
        drive(monitor, records)
        assert hits, "storm workloads must violate Xi=2"
        clone = decode_monitor(encode_monitor(monitor))
        assert clone.on_violation is None
        assert monitor.on_violation is not None  # the live one is untouched


def assert_plain_or_bytes(value):
    """Snapshot frames are plain primitives plus pickled monitor blobs
    (``bytes``) -- still transportable by any backend."""
    if isinstance(value, (tuple, list)):
        for item in value:
            assert_plain_or_bytes(item)
    else:
        assert value is None or isinstance(
            value, (int, float, str, bool, bytes)
        )


class TestGroupSnapshot:
    @pytest.mark.parametrize(
        "budget,metadata_free", [(None, False), (260, False), (140, True)]
    )
    def test_group_snapshot_round_trip_mid_stream(self, budget, metadata_free):
        """Snapshot a live group mid-stream -- pending buffers, eviction
        state, degraded flags and all -- and the restored group must be
        indistinguishable on the rest of the stream.  Covers the exact
        regime, the budget-eviction regime, and the metadata-free
        degraded regime."""
        from repro.runtime.shard import shard_index_of

        rng = random.Random(17)
        streams = {
            f"t{i}": profiled_trace_records(
                rng, ("storm", "burst", "relay")[i % 3], 50
            )
            for i in range(6)
        }
        if metadata_free:
            streams = {
                tid: strip_sends_metadata(records)
                for tid, records in streams.items()
            }
        merged = [
            (tid, record)
            for tid, records in streams.items()
            for record in records
        ]
        rng.shuffle(merged)
        # Re-sort per trace: shuffling must not break per-trace order.
        order = {tid: iter(records) for tid, records in streams.items()}
        merged = [(tid, next(order[tid])) for tid, _ in merged]

        def make_group():
            return ShardGroup(
                range(4),
                xi=Fraction(2),
                batch_size=8,
                event_budget=budget,
                compact_threshold=3.0,
            )

        def feed(group, part):
            for tid, record in part:
                group.ingest(shard_index_of(tid, 4), tid, record)

        cut = len(merged) // 2
        original = make_group()
        feed(original, merged[:cut])
        frame = original.snapshot()
        assert_plain_or_bytes(frame)
        restored = make_group()
        restored.load_snapshot(frame)
        feed(original, merged[cut:])
        feed(restored, merged[cut:])
        for tid in streams:
            shard = shard_index_of(tid, 4)
            assert restored.worst_ratio(shard, tid) == original.worst_ratio(
                shard, tid
            ), tid
            assert restored.is_degraded(shard, tid) == original.is_degraded(
                shard, tid
            )
        assert restored.violating_ids() == original.violating_ids()
        assert restored.live_events == original.live_events
        original_stats = {s.shard: s for s in original.shard_stats()}
        for stats in restored.shard_stats():
            assert stats == original_stats[stats.shard]

    def test_version_gate(self):
        """Version 2 dropped the per-trace in-flight/frontier fields
        (the monitor's own ledger travels inside its blob), so a
        version-1 frame must be refused by the version check rather
        than misread; a version-2 frame restores the ledger intact."""
        # Cut mid-stream: two messages still in flight, six records
        # still pending in the trace's buffer.
        records = profiled_trace_records(random.Random(4), "relay", 40)[:30]

        def make_group():
            return ShardGroup(range(2), xi=Fraction(2), batch_size=8)

        original = make_group()
        for record in records:
            original.ingest(0, "t", record)
        frame = original.snapshot()
        assert frame[1] == SNAPSHOT_VERSION == 2
        restored = make_group()
        restored.load_snapshot(frame)
        pins = original.monitor_of(0, "t").pinned_events()
        frontier = {r.event.process for r in records}
        assert len(pins) > len(frontier), "a send must still be in flight"
        assert restored.monitor_of(0, "t").pinned_events() == pins
        assert restored.worst_ratio(0, "t") == original.worst_ratio(0, "t")
        old = (frame[0], 1, *frame[2:])
        with pytest.raises(ValueError, match="snapshot version 1 not supported"):
            make_group().load_snapshot(old)

    def test_future_version_refused(self):
        """The gate is an exact match, not a floor: a frame from a newer
        build is refused too, and the refused group stays empty."""
        group = ShardGroup(range(2), xi=Fraction(2), batch_size=8)
        for record in profiled_trace_records(random.Random(4), "relay", 12):
            group.ingest(0, "t", record)
        frame = group.snapshot()
        newer = (frame[0], SNAPSHOT_VERSION + 1, *frame[2:])
        target = ShardGroup(range(2), xi=Fraction(2), batch_size=8)
        with pytest.raises(
            ValueError, match=f"snapshot version {SNAPSHOT_VERSION + 1} not"
        ):
            target.load_snapshot(newer)
        assert target.open_traces == 0


# ----------------------------------------------------------------------
# columnar decode: the zero-object twin of decode_records
# ----------------------------------------------------------------------


def wire_batch(records):
    return encode_records(
        [(i + 1, f"trace-{i % 3}", r) for i, r in enumerate(records)]
    )


class TestColumnarDecode:
    @pytest.mark.parametrize("profile", PROFILES + ("firehose",))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_object_decode_record_for_record(self, profile, seed):
        """The columnar transpose must agree with the object decoder on
        every field of every row -- ticks, ids, and materialized
        records -- including sends metadata."""
        records = profiled_trace_records(random.Random(seed), profile, 60)
        wire = wire_batch(records)
        reference = decode_records(wire)
        ticks, trace_ids, cols = decode_records_columnar(wire)
        assert list(ticks) == [tick for tick, _, _ in reference]
        assert list(trace_ids) == [tid for _, tid, _ in reference]
        assert len(cols) == len(reference)
        for k, (_, _, record) in enumerate(reference):
            materialized = cols.record_at(k)
            assert materialized == record
            assert materialized.sends == record.sends
        # Iteration is the snapshot path: it must materialize the same
        # record objects in order.
        assert list(cols) == [record for _, _, record in reference]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_metadata_free_streams_stay_empty(self, profile):
        """Degraded streams (sends stripped at the producer) must come
        out of the columnar path as genuinely empty metadata."""
        records = strip_sends_metadata(
            profiled_trace_records(random.Random(7), profile, 40)
        )
        wire = wire_batch(records)
        _ticks, _ids, cols = decode_records_columnar(wire)
        assert all(row == () for row in cols.sends)
        assert [r for _, _, r in decode_records(wire)] == list(cols)

    @given(
        payload_num=st.integers(min_value=-(10**40), max_value=10**40),
        payload_den=st.integers(min_value=1, max_value=10**40),
        n_sends=st.integers(min_value=0, max_value=3),
        processed=st.booleans(),
        wakeup=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_payloads_survive_both_paths(
        self, payload_num, payload_den, n_sends, processed, wakeup
    ):
        """Big-int Fraction payloads (the exact-arithmetic plane's
        currency) pass through the columnar transpose untouched --
        the columns hold the very objects the wire row held."""
        from repro.core.events import Event
        from repro.sim.trace import ReceiveRecord, SendRecord

        payload = Fraction(payload_num, payload_den)
        record = ReceiveRecord(
            event=Event(process=2, index=5),
            time=1.5,
            sender=None if wakeup else 1,
            send_event=None if wakeup else Event(process=1, index=4),
            send_time=None if wakeup else 1.25,
            payload=payload,
            processed=processed,
            sends=tuple(
                SendRecord(
                    dest=d, payload=payload + d, delay=0.1, deliver_time=2.0
                )
                for d in range(n_sends)
            ),
        )
        wire = [(1, "t", encode_record(record))]
        [(_, _, via_object)] = decode_records(wire)
        _ticks, _ids, cols = decode_records_columnar(wire)
        via_columns = cols.record_at(0)
        assert via_columns == via_object == record
        assert via_columns.payload == payload
        assert [s.payload for s in via_columns.sends] == [
            s.payload for s in record.sends
        ]

    def test_empty_batch(self):
        ticks, trace_ids, cols = decode_records_columnar([])
        assert ticks == () and trace_ids == ()
        assert len(cols) == 0 and not cols

    def test_ragged_batch_rows_raise(self):
        """A truncated frame row must fail loudly in the decoder, not
        desynchronize columns downstream."""
        records = profiled_trace_records(random.Random(0), "burst", 6)
        wire = wire_batch(records)
        wire[3] = wire[3][:2]  # drop the record cell
        with pytest.raises(ValueError, match="ragged columnar batch"):
            decode_records_columnar(wire)

    def test_ragged_record_arity_raises(self):
        """A record tuple with the wrong field count (old producer,
        corrupted frame) must raise, not shift every later column."""
        records = profiled_trace_records(random.Random(0), "burst", 6)
        wire = wire_batch(records)
        tick, tid, rec = wire[2]
        wire[2] = (tick, tid, rec[:9])  # nine fields, not ten
        with pytest.raises(ValueError, match="ragged columnar batch"):
            decode_records_columnar(wire)

    def test_ragged_columns_raise_at_construction(self):
        from repro.sim.trace import RecordColumns

        with pytest.raises(ValueError, match="ragged columnar batch"):
            RecordColumns(
                processes=[1, 2],
                indexes=[0],  # short column
                times=[0.0, 1.0],
                senders=[None, None],
                send_processes=[None, None],
                send_indexes=[None, None],
                send_times=[None, None],
                payloads=[None, None],
                processed=[True, True],
                sends=[(), ()],
            )
