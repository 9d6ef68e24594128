"""Tests for the network ingestion plane.

Bottom up: the frame codec (CRC rejection, torn streams), the delta
store/view pair (atomic subscribe, gap detection, reconstruction), the
front plumbing on :class:`ParallelFleet` (shard subsets, interleaved
tick spaces, wire-row ingestion), and the full server: multi-producer
ingest over real sockets bit-identical to the serial fleet,
exactly-once resume across killed connections, credit-window
backpressure, and subscribers reconstructing the fleet's aggregates
from the delta stream alone.
"""

import random
import socket
import threading
from fractions import Fraction

import pytest

from repro.analysis.fleet import MonitorFleet
from repro.runtime import ParallelFleet
from repro.runtime.net import (
    DeltaStore,
    DeltaSubscriber,
    DeltaView,
    FrameSocket,
    IngestServer,
    ProducerClient,
    ProtocolError,
)
from repro.runtime.net.wire import PROTOCOL_VERSION, frame_bytes
from repro.runtime import codec
from repro.runtime.shard import shard_index_of
from repro.scenarios.generators import concurrent_workload

XI = Fraction(4)


def workload(seed=1, n_traces=24, **kw):
    kw.setdefault("records_per_trace", (30, 60))
    return list(
        concurrent_workload(random.Random(seed), n_traces=n_traces, **kw)
    )


def serial_answers(stream, n_shards=8, batch_size=16):
    fleet = MonitorFleet(xi=XI, n_shards=n_shards, batch_size=batch_size)
    fleet.ingest_many(stream)
    ids = sorted({tid for tid, _ in stream}, key=str)
    return (
        {tid: fleet.worst_ratio(tid) for tid in ids},
        {tid: fleet.is_degraded(tid) for tid in ids},
        set(fleet.violating_traces()),
    )


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------


class TestFrameSocket:
    def pair(self):
        a, b = socket.socketpair()
        return FrameSocket(a), FrameSocket(b)

    def test_round_trip_and_eof(self):
        left, right = self.pair()
        frames = [("hello", 1, "produce", "p"), ("produce", 1, ((1, 2),))]
        for frame in frames:
            left.send(frame)
        left.sock.close()
        assert [right.recv(), right.recv()] == frames
        assert right.recv() is None  # clean EOF between frames
        right.close()

    def test_split_delivery_reassembles(self):
        left, right = self.pair()
        payload = ("produce", 7, tuple((f"t{i}", ("x",) * 4) for i in range(50)))
        blob = frame_bytes(payload)
        for i in range(0, len(blob), 13):  # drip-feed odd-sized chunks
            left.sock.sendall(blob[i : i + 13])
        assert right.recv() == payload
        left.close(), right.close()

    def test_corrupt_crc_raises(self):
        left, right = self.pair()
        blob = bytearray(frame_bytes(("ack", 3)))
        blob[-1] ^= 0xFF
        left.sock.sendall(bytes(blob))
        with pytest.raises(ProtocolError, match="CRC"):
            right.recv()
        left.close(), right.close()

    def test_eof_mid_frame_raises(self):
        left, right = self.pair()
        left.sock.sendall(frame_bytes(("ack", 3))[:-2])
        left.sock.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            right.recv()
        right.close()


# ----------------------------------------------------------------------
# delta store / view
# ----------------------------------------------------------------------


class TestDeltas:
    def test_snapshot_plus_deltas_reconstruct(self):
        store = DeltaStore()
        store.update_ratios({"a": Fraction(1, 2), "b": None})
        store.publish()  # published before subscribing: snapshot covers it
        frames = []
        view = DeltaView()
        view.apply(store.subscribe(frames.append))
        store.update_ratios({"a": Fraction(3, 2), "c": Fraction(5)})
        store.extend_violations([(7, "c")])
        store.publish()
        store.extend_violations([(7, "c"), (9, "a")])  # dup row dropped
        store.close()
        for frame in frames:
            view.apply(frame)
        assert view.closed
        assert view.ratios == {
            "a": Fraction(3, 2),
            "b": None,
            "c": Fraction(5),
        }
        assert view.violation_feed() == ((7, "c"), (9, "a"))
        assert view.violating_traces() == ("c", "a")
        assert view.worst_ratio_histogram() == {
            Fraction(3, 2): 1,
            None: 1,
            Fraction(5): 1,
        }

    def test_gap_detection(self):
        view = DeltaView()
        view.apply(("snapshot", 3, (), ()))
        with pytest.raises(ValueError, match="gap"):
            view.apply(("delta", 5, (), ()))
        with pytest.raises(ValueError, match="before snapshot"):
            DeltaView().apply(("delta", 1, (), ()))

    def test_publish_without_changes_is_noop(self):
        store = DeltaStore()
        frames = []
        store.subscribe(frames.append)
        assert store.publish() is None
        assert frames == []

    def test_subscribe_after_close_gets_end(self):
        store = DeltaStore()
        store.update_ratios({"a": Fraction(2)})
        store.close()
        frames = []
        view = DeltaView()
        view.apply(store.subscribe(frames.append))
        for frame in frames:
            view.apply(frame)
        assert view.closed
        # The final publish ran inside close(), so the late snapshot
        # already carries the state.
        assert view.ratios == {"a": Fraction(2)}


# ----------------------------------------------------------------------
# the front plumbing on ParallelFleet
# ----------------------------------------------------------------------


class TestFrontPlumbing:
    def test_shard_subset_rejects_foreign_trace(self):
        with ParallelFleet(
            XI,
            n_workers=1,
            n_shards=8,
            backend="thread",
            shard_subset=(0, 2, 4, 6),
            tick_start=1,
            tick_step=2,
        ) as fleet:
            stream = workload(n_traces=12)
            mine = [
                (tid, rec)
                for tid, rec in stream
                if shard_index_of(tid, 8) % 2 == 0
            ]
            foreign = next(
                tid
                for tid, _ in stream
                if shard_index_of(tid, 8) % 2 == 1
            )
            fleet.ingest_many(mine)
            with pytest.raises(ValueError, match="does not own"):
                fleet.ingest(foreign, stream[0][1])
            # A rejected record burns neither a tick nor a count.
            assert fleet.ingested_records == len(mine)

    def test_subset_validation(self):
        with pytest.raises(ValueError, match="within"):
            ParallelFleet(XI, n_workers=1, n_shards=4, shard_subset=(5,))
        with pytest.raises(ValueError, match="tick_step"):
            ParallelFleet(XI, n_workers=1, tick_step=0)

    def test_interleaved_fronts_match_serial_and_merge_feeds(self):
        """Two fronts over disjoint shard subsets and interleaved tick
        ranges: per-trace ratios bit-identical to serial, and the two
        violation feeds merge on globally unique ticks."""
        stream = workload(seed=3, n_traces=30)
        ratios, degraded, violating = serial_answers(stream)
        fronts = [
            ParallelFleet(
                XI,
                n_workers=1,
                n_shards=8,
                batch_size=16,
                backend="thread",
                shard_subset=tuple(s for s in range(8) if s % 2 == f),
                tick_start=f + 1,
                tick_step=2,
            )
            for f in range(2)
        ]
        try:
            for tid, rec in stream:
                front = shard_index_of(tid, 8) % 2
                fronts[front].ingest(tid, rec)
            for front in fronts:
                front.flush()
            got_ratios = {}
            got_degraded = {}
            rows = []
            for front in fronts:
                got_ratios.update(dict(front.all_ratios()))
                rows.extend(front.violation_feed())
            for tid in got_ratios:
                got_degraded[tid] = fronts[
                    shard_index_of(tid, 8) % 2
                ].is_degraded(tid)
            assert got_ratios == ratios
            assert got_degraded == degraded
            ticks = [t for t, _ in rows]
            assert len(ticks) == len(set(ticks))  # globally unique
            merged = tuple(
                dict.fromkeys(
                    tid
                    for _t, tid in sorted(
                        rows, key=lambda n: (n[0], str(n[1]))
                    )
                )
            )
            assert set(merged) == violating
        finally:
            for front in fronts:
                front.shutdown()

    def test_ingest_wire_matches_ingest(self):
        stream = workload(seed=9, n_traces=10)
        with ParallelFleet(
            XI, n_workers=1, n_shards=8, backend="thread"
        ) as plain, ParallelFleet(
            XI, n_workers=1, n_shards=8, backend="thread"
        ) as wired:
            plain.ingest_many(stream)
            wired.ingest_wire_many(
                [(tid, codec.encode_record(rec)) for tid, rec in stream]
            )
            assert dict(plain.all_ratios()) == dict(wired.all_ratios())
            assert wired.ingested_records == len(stream)

    def test_durability_refuses_interleaved_ticks(self, tmp_path):
        with pytest.raises(ValueError, match="tick"):
            ParallelFleet(
                XI,
                n_workers=1,
                n_shards=8,
                backend="thread",
                durability=str(tmp_path),
                tick_step=2,
            )


# ----------------------------------------------------------------------
# the server, end to end
# ----------------------------------------------------------------------


def drive(server, stream, n_producers=2, batch=7, **client_kw):
    """Feed ``stream`` through ``n_producers`` clients, each owning a
    disjoint set of traces (the single-writer-per-trace discipline)."""
    ids = sorted({tid for tid, _ in stream}, key=str)
    owner = {tid: i % n_producers for i, tid in enumerate(ids)}
    clients = [
        ProducerClient(
            server.address, producer_id=f"p{i}", batch=batch, **client_kw
        )
        for i in range(n_producers)
    ]
    try:
        for tid, rec in stream:
            clients[owner[tid]].send(tid, rec)
    finally:
        for client in clients:
            client.close()


class TestIngestServer:
    def test_multi_producer_matches_serial(self):
        stream = workload(seed=1, n_traces=24)
        ratios, degraded, violating = serial_answers(stream)
        ids = sorted(ratios, key=str)
        with IngestServer(
            XI,
            n_fronts=2,
            workers_per_front=1,
            n_shards=8,
            batch_size=16,
            backend="thread",
        ) as server:
            drive(server, stream, n_producers=3)
            server.flush()
            assert {
                tid: server.worst_ratio(tid) for tid in ids
            } == ratios
            assert {
                tid: server.is_degraded(tid) for tid in ids
            } == degraded
            assert set(server.violating_traces()) == violating
            assert server.ingested_records == len(stream)
            assert server.front_errors() == ()
            report = server.report()
            assert report.records == len(stream)
            assert set(report.violating_traces) == violating
            assert len(report.shards) == 8

    def test_delta_subscriber_reconstructs_aggregates(self):
        stream = workload(seed=4, n_traces=20)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            sub = DeltaSubscriber(server.address, name="dash")
            drive(server, stream)
            server.flush()
            hist = server.worst_ratio_histogram()
            topk = server.top_k_riskiest(5)
            ratios = dict(server.all_ratios())
            feed = server.violation_feed()
            violating = server.violating_traces()
        # Server fully stopped: the view is built from the stream alone.
        view = sub.run_to_end()
        sub.close()
        assert view.ratios == ratios
        assert view.worst_ratio_histogram() == hist
        assert view.top_k_riskiest(5) == topk
        assert view.violation_feed() == feed
        assert view.violating_traces() == violating

    def test_reconnect_resumes_exactly_once(self):
        stream = workload(seed=7, n_traces=16)
        ratios, _degraded, _violating = serial_answers(stream)
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            client = ProducerClient(
                server.address, producer_id="flaky", batch=5
            )
            kills = {len(stream) // 4, len(stream) // 2}
            for i, (tid, rec) in enumerate(stream):
                client.send(tid, rec)
                if i in kills:
                    # The network dies under the producer; the next
                    # ship reconnects and replays the unacked tail.
                    client._fs.sock.shutdown(socket.SHUT_RDWR)
            client.close()
            server.flush()
            assert server.ingested_records == len(stream)  # exactly once
            got = {tid: server.worst_ratio(tid) for tid in ratios}
            assert got == ratios

    def test_unix_socket_listener(self, tmp_path):
        stream = workload(seed=2, n_traces=8)
        ratios, _d, _v = serial_answers(stream)
        path = str(tmp_path / "ingest.sock")
        with IngestServer(
            XI,
            n_fronts=2,
            n_shards=8,
            batch_size=16,
            backend="thread",
            host=None,
            unix_path=path,
        ) as server:
            assert server.address is None
            with ProducerClient(path, producer_id="p0", batch=9) as client:
                for tid, rec in stream:
                    client.send(tid, rec)
            assert {
                tid: server.worst_ratio(tid) for tid in ratios
            } == ratios

    def test_credit_window_bounds_unacked(self):
        stream = workload(seed=5, n_traces=12)
        with IngestServer(
            XI,
            n_fronts=1,
            n_shards=8,
            batch_size=16,
            backend="thread",
            credit_window=2,
        ) as server:
            client = ProducerClient(
                server.address, producer_id="p0", batch=3
            )
            peak = 0
            for tid, rec in stream:
                client.send(tid, rec)
                peak = max(peak, client.unacked_frames)
            client.flush()
            assert peak <= 2  # the server's window, honored client-side
            assert client.unacked_frames == 0
            assert client.acked_frames > 0
            client.close()

    def test_bad_hello_and_version_mismatch(self):
        with IngestServer(
            XI, n_fronts=1, n_shards=8, backend="thread"
        ) as server:
            sock = socket.create_connection(server.address, timeout=10)
            fs = FrameSocket(sock)
            fs.send(("nonsense",))
            assert fs.recv() == ("error", "expected hello")
            fs.close()
            sock = socket.create_connection(server.address, timeout=10)
            fs = FrameSocket(sock)
            fs.send(("hello", PROTOCOL_VERSION + 1, "produce", "p"))
            kind, message = fs.recv()
            assert kind == "error" and "protocol" in message
            fs.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="front"):
            IngestServer(XI, n_fronts=0)
        with pytest.raises(ValueError, match="cover"):
            IngestServer(XI, n_fronts=4, workers_per_front=2, n_shards=4)
        with pytest.raises(ValueError, match="listen"):
            IngestServer(XI, host=None)

    def test_concurrent_producers_threads(self):
        """Producers on real threads, interleaving arbitrarily: the
        per-trace single-writer discipline is all determinism needs."""
        stream = workload(seed=11, n_traces=20)
        ratios, _d, violating = serial_answers(stream)
        ids = sorted(ratios, key=str)
        owner = {tid: i % 3 for i, tid in enumerate(ids)}
        with IngestServer(
            XI, n_fronts=2, n_shards=8, batch_size=16, backend="thread"
        ) as server:
            def produce(i):
                with ProducerClient(
                    server.address, producer_id=f"p{i}", batch=6
                ) as client:
                    for tid, rec in stream:
                        if owner[tid] == i:
                            client.send(tid, rec)

            threads = [
                threading.Thread(target=produce, args=(i,))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert {
                tid: server.worst_ratio(tid) for tid in ids
            } == ratios
            assert set(server.violating_traces()) == violating


class TestProduceModes:
    """The server reads exactly one produce frame shape: rows."""

    @pytest.mark.parametrize("mode", ["zst", "cols"])
    def test_unknown_produce_mode_rejected(self, mode):
        """A mode marker other than ``"rows"`` draws an error frame,
        not a desynchronized front -- the columnar ``"cols"`` shape
        included."""
        wire = codec.encode_record(workload(seed=1, n_traces=1)[0][1])
        payload = (("t1",), (wire,)) if mode == "cols" else [("t1", wire)]
        with IngestServer(
            XI, n_fronts=1, n_shards=8, backend="thread"
        ) as server:
            sock = socket.create_connection(server.address, timeout=10)
            fs = FrameSocket(sock)
            fs.send(("hello", PROTOCOL_VERSION, "produce", "odd"))
            assert fs.recv()[0] == "welcome"
            fs.send(("produce", 1, payload, mode))
            kind, message = fs.recv()
            assert kind == "error"
            assert message == f"unknown produce mode {mode!r}"
            fs.close()
            assert server.ingested_records == 0
