"""The ingestion server: remote producers, sharded fronts, delta push.

:class:`IngestServer` is the network face of the parallel runtime.  It
listens on TCP and/or a Unix-domain socket for length-prefixed frames
(:mod:`repro.runtime.net.wire`) from two kinds of peers -- *producers*
streaming ``(trace_id, wire_record)`` rows and *subscribers* tailing
the delta feed -- and drives ``n_fronts`` independent ingestion fronts.

Architecture (three thread layers, no shared mutable fleet state):

- **asyncio loop thread**: owns the listeners, every connection, the
  producer bookkeeping (sequence numbers, acks) and the row router.
  Never touches a fleet.
- **front threads**, one per front: each owns one
  :class:`~repro.runtime.parallel.ParallelFleet` outright and consumes
  a FIFO queue of work items.  All fleet calls happen here.
- **worker threads/processes** under each fleet, as usual.

Sharded fronts
    Front ``f`` of ``n`` owns shard subset ``{s : s % n == f}`` of one
    global ``n_shards`` space and stamps global ingest ticks
    ``f+1, f+1+n, f+1+2n, ...`` (``tick_start``/``tick_step``), so the
    fronts partition both the trace space and the tick space.  Rows
    are routed by the same CRC32 ``shard_index_of`` the fleets
    themselves use; per-trace record order is preserved end to end
    (FIFO connection, FIFO front queue, FIFO worker inbox), so every
    per-trace ratio is bit-identical to a serial fleet over the same
    records, and violation rows carry globally unique ticks that merge
    into one deterministic ``(tick, trace id)`` order.

Exactly-once ingestion
    Producers number their ``produce`` frames.  The server tracks, per
    producer id, the highest sequence *enqueued* (``seen``; replays at
    or below it are dropped) and the highest sequence *fully absorbed
    in contiguous order* (``acked``; advertised in ``welcome`` and in
    ``ack`` frames).  A frame is acked only after every front holding
    one of its rows has returned from ``ingest_wire_many`` -- at which
    point the rows are inside fleet buffers (and, with durability on,
    the journal).  A reconnecting producer resumes from the server's
    ``acked`` and replays its unacked tail; ``seen`` deduplicates, so
    a frame is ingested exactly once no matter how often the
    connection dies around it.

Backpressure
    Producers hold at most ``credit_window`` unacked frames; the
    per-front queues are unbounded but their depth is bounded by
    ``credit_window x producers`` frames, and the fleets' bounded
    worker inboxes (``inbox_capacity``) gate the front threads
    themselves.  Slow workers therefore stall producers, not memory.

Producer protocol (client side in :mod:`repro.runtime.net.client`):

==========================================  ========================
frame                                        direction / meaning
==========================================  ========================
``("hello", ver, "produce", producer_id)``  first client frame
``("welcome", ver, n_fronts, n_shards,      server reply: resume
``  ``acked, credit_window)``               point + credit window
``("produce", seq, rows)``                  numbered row batch
``("ack", acked)``                          highest contiguous
                                            absorbed seq
``("bye",)``                                clean producer exit
``("error", message)``                      protocol failure
==========================================  ========================

Subscribers send ``("hello", ver, "subscribe", name)`` and then just
read: a ``snapshot`` frame, ``delta`` frames as ingestion progresses,
and ``end`` at shutdown (:mod:`repro.runtime.net.deltas`).

A third role, ``("hello", ver, "metrics", name)``, is a one-shot
telemetry scrape: the server answers ``("metrics", rows)`` -- the
latest staged instrument readings (see
:meth:`IngestServer.staged_metrics_rows`) -- and closes.  Answered
inline on the loop thread from the delta store's staged copy, so a
scrape never blocks on (or barriers) a front.  Delta frames also
carry the same readings as their fifth element, refreshed every
``metrics_interval`` seconds per front, so long-lived subscribers
get metrics pushed rather than polling.

The query surface (``worst_ratio``, ``violating_traces``,
``report()``, ...) marshals each call onto the owning front's thread,
so callers on any thread get the fleet's answers without data races.
"""

from __future__ import annotations

import asyncio
import logging
import queue
import threading
import time
import traceback
from fractions import Fraction
from typing import Any, Callable, Iterable

from repro.obs import metrics as _obs_metrics
from repro.runtime.net.deltas import DeltaStore
from repro.runtime.net.wire import (
    PROTOCOL_VERSION,
    ProtocolError,
    frame_bytes,
    read_frame,
)
from repro.runtime.parallel import ParallelFleet
from repro.runtime.shard import (
    FleetReport,
    TraceId,
    RatioQueries,
    merge_violations,
    shard_index_of,
    shard_totals,
    violating_ids,
)

__all__ = ["IngestServer"]

logger = logging.getLogger(__name__)


class _ProducerObs:
    """Per-producer ingest instruments (``producer`` label).

    All wall-clock shaped -- frame arrival, replay and dedup depend on
    the network -- so none are in the deterministic dump."""

    __slots__ = ("frames", "records", "credit")

    def __init__(
        self, registry: "_obs_metrics.MetricsRegistry", name: str
    ) -> None:
        labels = (("producer", name),)
        self.frames = registry.counter(
            "repro_net_produced_frames_total",
            labels,
            deterministic=False,
            help="produce frames accepted (replays excluded)",
        )
        self.records = registry.counter(
            "repro_net_produced_records_total",
            labels,
            deterministic=False,
            help="records accepted from this producer",
        )
        self.credit = registry.gauge(
            "repro_net_credit_inflight",
            labels,
            help="unacked produce frames (credit-window occupancy)",
        )


class _Producer:
    """Per-producer-id ingestion bookkeeping (survives reconnects)."""

    __slots__ = ("name", "seen", "acked", "completed", "writer", "obs")

    def __init__(
        self,
        name: str,
        registry: "_obs_metrics.MetricsRegistry | None" = None,
    ) -> None:
        self.name = name
        self.seen = 0  # highest seq ever enqueued (dedup floor)
        self.acked = 0  # highest contiguously absorbed seq
        self.completed: set[int] = set()  # absorbed above the ack line
        self.writer: asyncio.StreamWriter | None = None
        self.obs = (
            None if registry is None else _ProducerObs(registry, name)
        )


class _Front:
    """One ingestion front: a fleet plus the thread that owns it."""

    __slots__ = ("index", "fleet", "queue", "thread", "error", "metrics_at")

    def __init__(self, index: int, fleet: ParallelFleet) -> None:
        self.index = index
        self.fleet = fleet
        self.queue: queue.Queue[tuple] = queue.Queue()
        self.thread: threading.Thread | None = None
        self.error: str | None = None
        self.metrics_at = 0.0  # monotonic time of the last staging


def _label_rows(rows: Iterable[tuple], key: str, value: str) -> tuple:
    """Re-key serialized instrument rows with an extra label pair, so
    identically named instruments from different sources (fronts)
    stay distinct series instead of clobbering each other."""
    labeled = []
    for kind, name, labels, deterministic, payload, *rest in rows:
        new_labels = tuple(sorted((*labels, (key, value))))
        labeled.append(
            (kind, name, new_labels, deterministic, payload, *rest)
        )
    return tuple(labeled)


class IngestServer(RatioQueries):
    """Network ingestion plane over ``n_fronts`` sharded fleet fronts.

    Args mirror :class:`~repro.runtime.parallel.ParallelFleet` where
    they configure the per-front fleets; ``event_budget`` is a global
    cap split evenly across fronts.  ``host``/``port`` open a TCP
    listener (``port=0`` picks a free port; ``host=None`` disables
    TCP), ``unix_path`` additionally/instead serves a Unix-domain
    socket.  ``credit_window`` is the max unacked frames advertised to
    each producer.  ``metrics_interval`` throttles how often each
    front's telemetry is staged into the delta stream (only relevant
    with ``REPRO_OBS`` on).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        xi: Fraction | float | int | str | None = None,
        *,
        n_fronts: int = 2,
        workers_per_front: int = 1,
        n_shards: int | None = None,
        host: str | None = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        backend: str = "thread",
        start_method: str | None = None,
        batch_size: int = 32,
        event_budget: int | None = None,
        auto_retire_after: int | None = None,
        compact_threshold: float | None = None,
        wire_batch: int = 256,
        inbox_capacity: int = 16,
        credit_window: int = 32,
        monitor_specs: Any = None,
        metrics_interval: float = 0.5,
    ) -> None:
        if n_fronts < 1:
            raise ValueError("need at least one front")
        if workers_per_front < 1:
            raise ValueError("need at least one worker per front")
        if credit_window < 1:
            raise ValueError("credit_window must be positive")
        if host is None and unix_path is None:
            raise ValueError("need a TCP host or a unix_path to listen on")
        if n_shards is None:
            n_shards = max(8, n_fronts * workers_per_front)
        if n_shards < n_fronts * workers_per_front:
            raise ValueError(
                f"{n_shards} shards cannot cover {n_fronts} fronts x "
                f"{workers_per_front} workers"
            )
        self._n_shards = n_shards
        self._host, self._port = host, port
        self._unix_path = unix_path
        self._credit_window = credit_window
        self._fronts: list[_Front] = []
        for f in range(n_fronts):
            share = None
            if event_budget is not None:
                share = event_budget // n_fronts + (
                    1 if f < event_budget % n_fronts else 0
                )
            fleet = ParallelFleet(
                xi,
                n_workers=workers_per_front,
                n_shards=n_shards,
                batch_size=batch_size,
                event_budget=share,
                auto_retire_after=auto_retire_after,
                compact_threshold=compact_threshold,
                backend=backend,
                start_method=start_method,
                wire_batch=wire_batch,
                inbox_capacity=inbox_capacity,
                monitor_specs=monitor_specs,
                shard_subset=tuple(
                    s for s in range(n_shards) if s % n_fronts == f
                ),
                tick_start=f + 1,
                tick_step=n_fronts,
            )
            self._fronts.append(_Front(f, fleet))
        self.deltas = DeltaStore()
        # The server's own registry (per-producer counters, credit
        # occupancy, subscriber gauge, front_accept spans); None keeps
        # every hook one attribute test when telemetry is off.
        self._metrics = _obs_metrics.registry_if_enabled()
        self._metrics_interval = metrics_interval
        self._accept_ns = (
            None
            if self._metrics is None
            else self._metrics.histogram(
                "repro_stage_ns",
                (("stage", "front_accept"),),
                help="per-stage record-lifecycle latency",
            )
        )
        self._subscribers_gauge = (
            None
            if self._metrics is None
            else self._metrics.gauge(
                "repro_net_subscribers",
                help="connected delta-stream subscribers",
            )
        )
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._unix_server: asyncio.AbstractServer | None = None
        self._producers: dict[str, _Producer] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight = 0  # dispatched produce frames not yet acked
        self._n_subscribers = 0
        self._publish_lock = threading.Lock()
        self._publish_scheduled = False
        self._state_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "IngestServer":
        with self._state_lock:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(ready.set)
            self._loop.run_forever()

        self._loop_thread = threading.Thread(
            target=run, name="ingest-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait()
        for front in self._fronts:
            front.thread = threading.Thread(
                target=self._front_loop,
                args=(front,),
                name=f"ingest-front-{front.index}",
                daemon=True,
            )
            front.thread.start()
        try:
            self._run_on_loop(self._open_listeners())
        except BaseException:
            self.stop()
            raise
        return self

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run_on_loop(self, coro: Any, timeout: float = 60.0) -> Any:
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    async def _open_listeners(self) -> None:
        if self._host is not None:
            self._tcp_server = await asyncio.start_server(
                self._serve_conn, self._host, self._port
            )
            self.address = self._tcp_server.sockets[0].getsockname()[:2]
        if self._unix_path is not None:
            self._unix_server = await asyncio.start_unix_server(
                self._serve_conn, path=self._unix_path
            )

    def stop(self) -> None:
        """Drain and shut down: close listeners, absorb every dispatched
        frame, publish the final deltas, end the subscriber streams,
        stop the fronts, shut the fleets down."""
        with self._state_lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        self._stopping = True
        loop, alive = self._loop, self._loop_thread
        if loop is not None and alive is not None and alive.is_alive():
            # No new connections or frames, then wait out the in-flight.
            self._run_on_loop(self._close_network())
            self._wait(lambda: self._inflight == 0, timeout=120.0)
        # Final barrier per front so retirement/violations are final,
        # then final deltas (the call path stages them).
        for front in self._fronts:
            if front.thread is not None and front.thread.is_alive():
                try:
                    self._call(front, lambda fl: fl.flush())
                except Exception:  # pragma: no cover - crashed fleet
                    pass
        if loop is not None and alive is not None and alive.is_alive():
            self._run_on_loop(self._finish_stream())
            self._wait(lambda: self._n_subscribers == 0, timeout=10.0)
        else:
            self.deltas.close()
        for front in self._fronts:
            front.queue.put(("stop",))
        for front in self._fronts:
            if front.thread is not None:
                front.thread.join(timeout=60.0)
        for front in self._fronts:
            front.fleet.shutdown()
        if loop is not None and alive is not None and alive.is_alive():
            self._run_on_loop(self._drain_conn_tasks())
            loop.call_soon_threadsafe(loop.stop)
            alive.join(timeout=10.0)
        if loop is not None:
            loop.close()

    @staticmethod
    def _wait(done: Callable[[], bool], timeout: float) -> None:
        import time

        deadline = time.monotonic() + timeout
        while not done() and time.monotonic() < deadline:
            time.sleep(0.005)

    async def _close_network(self) -> None:
        for server in (self._tcp_server, self._unix_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        # Producer transports: closing them EOFs the read loops, so no
        # frame can be dispatched after this coroutine returns (both
        # run on the loop; the read loop sees the closing transport).
        for producer in self._producers.values():
            if producer.writer is not None:
                producer.writer.close()

    async def _finish_stream(self) -> None:
        # On the loop thread: a final publish of anything staged, then
        # end frames.  Subscriber pump tasks exit after sending "end".
        self.deltas.close()

    async def _drain_conn_tasks(self) -> None:
        # Let connection handlers run their finally blocks to the end
        # before the loop goes away; cancel any that linger.
        tasks = [t for t in self._conn_tasks if not t.done()]
        if not tasks:
            return
        _done, pending = await asyncio.wait(tasks, timeout=5.0)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending, timeout=1.0)

    # ------------------------------------------------------------------
    # front threads
    # ------------------------------------------------------------------

    def _front_loop(self, front: _Front) -> None:
        fleet = front.fleet
        while True:
            item = front.queue.get()
            kind = item[0]
            if kind == "rows":
                _kind, rows, done = item
                try:
                    fleet.ingest_wire_many(rows)
                except Exception:  # keep the front alive; surface it
                    front.error = traceback.format_exc()
                    logger.error(
                        "ingest batch failed on front %d:\n%s",
                        front.index,
                        front.error,
                    )
                finally:
                    done()
                self._stage_deltas(front)
            elif kind == "call":
                _kind, fn, box, event = item
                try:
                    box["value"] = fn(fleet)
                except BaseException as exc:
                    box["error"] = exc
                finally:
                    event.set()
                self._stage_deltas(front)
            elif kind == "stop":
                return

    def _stage_deltas(self, front: _Front) -> None:
        fleet = front.fleet
        updates = fleet.drain_ratio_updates()
        if updates:
            self.deltas.update_ratios(updates)
        self.deltas.extend_violations(fleet.violation_feed())
        if self._metrics is not None:
            # Periodic metrics staging (throttled per front): cumulative
            # readings ride the delta stream and answer "metrics"
            # request frames without touching any front thread.
            now = time.monotonic()
            if now - front.metrics_at >= self._metrics_interval:
                front.metrics_at = now
                self.deltas.update_metrics(
                    _label_rows(
                        fleet.metrics_rows(), "front", str(front.index)
                    )
                )
        if updates or self.deltas.dirty:
            self._schedule_publish()

    def _schedule_publish(self) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        with self._publish_lock:
            if self._publish_scheduled:
                return
            self._publish_scheduled = True
        try:
            loop.call_soon_threadsafe(self._publish_now)
        except RuntimeError:  # loop shut down under us
            with self._publish_lock:
                self._publish_scheduled = False

    def _publish_now(self) -> None:
        # Loop thread: sinks are subscriber queue puts, safe here.
        with self._publish_lock:
            self._publish_scheduled = False
        self.deltas.publish()

    # ------------------------------------------------------------------
    # connections (loop thread)
    # ------------------------------------------------------------------

    async def _send(
        self, writer: asyncio.StreamWriter, frame: tuple
    ) -> None:
        writer.write(frame_bytes(frame))
        await writer.drain()

    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            hello = await read_frame(reader)
            if hello is None:
                return
            if (
                not isinstance(hello, tuple)
                or len(hello) != 4
                or hello[0] != "hello"
            ):
                await self._send(writer, ("error", "expected hello"))
                return
            _kind, version, role, name = hello
            if version != PROTOCOL_VERSION:
                await self._send(
                    writer,
                    ("error", f"protocol {version} != {PROTOCOL_VERSION}"),
                )
                return
            if role == "produce":
                await self._serve_producer(str(name), reader, writer)
            elif role == "subscribe":
                await self._serve_subscriber(writer)
            elif role == "metrics":
                # One-shot: the latest staged readings (plus the
                # server's own registry), answered inline from the
                # loop thread -- no front round trip, no blocking.
                await self._send(
                    writer, ("metrics", self.staged_metrics_rows())
                )
            else:
                await self._send(writer, ("error", f"unknown role {role!r}"))
        except (ProtocolError, ConnectionError, OSError):
            pass  # dead or misbehaving peer; its state is resumable
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_producer(
        self,
        name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._stopping:
            await self._send(writer, ("error", "server is stopping"))
            return
        producer = self._producers.get(name)
        if producer is None:
            producer = self._producers[name] = _Producer(
                name, self._metrics
            )
        # Newest connection wins: preempt any stale one for this id.
        if producer.writer is not None:
            producer.writer.close()
        producer.writer = writer
        await self._send(
            writer,
            (
                "welcome",
                PROTOCOL_VERSION,
                len(self._fronts),
                self._n_shards,
                producer.acked,
                self._credit_window,
            ),
        )
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None or frame[0] == "bye":
                    return
                if frame[0] != "produce":
                    await self._send(
                        writer, ("error", f"unexpected {frame[0]!r}")
                    )
                    return
                # Forward-compatible decode, as for the spec frames: a
                # trailing mode marker names the payload shape, and rows
                # is the only one this server reads.
                _kind, seq, rows, *rest = frame
                mode = rest[0] if rest else "rows"
                if mode != "rows":
                    await self._send(
                        writer,
                        ("error", f"unknown produce mode {mode!r}"),
                    )
                    return
                if seq <= producer.seen:
                    continue  # replay of an already-enqueued frame
                if seq != producer.seen + 1:
                    await self._send(
                        writer,
                        (
                            "error",
                            f"sequence gap: expected {producer.seen + 1},"
                            f" got {seq}",
                        ),
                    )
                    return
                producer.seen = seq
                obs = producer.obs
                start = 0 if obs is None else time.perf_counter_ns()
                self._dispatch(producer, seq, rows)
                if obs is not None:
                    self._accept_ns.observe(
                        time.perf_counter_ns() - start
                    )
                    obs.frames.inc()
                    obs.records.inc(len(rows))
                    obs.credit.set(producer.seen - producer.acked)
        finally:
            if producer.writer is writer:
                producer.writer = None

    def _dispatch(
        self, producer: _Producer, seq: int, rows: Iterable[tuple]
    ) -> None:
        """Route a produce frame's rows to their fronts (loop thread).

        The ack for ``seq`` is released only once every front involved
        has absorbed its slice; per-front FIFO queues preserve the
        producer's per-trace row order."""
        n_fronts, n_shards = len(self._fronts), self._n_shards
        self._inflight += 1
        by_front: dict[int, list[tuple]] = {}
        for row in rows:
            front_index = shard_index_of(row[0], n_shards) % n_fronts
            by_front.setdefault(front_index, []).append(row)
        items = [
            (index, ("rows", front_rows))
            for index, front_rows in by_front.items()
        ]
        if not items:  # an empty frame still advances the seq line
            self._complete(producer, seq)
            return
        remaining = len(items)
        loop = self._loop
        assert loop is not None

        def absorbed() -> None:  # called from a front thread
            loop.call_soon_threadsafe(front_done)

        def front_done() -> None:  # back on the loop thread
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self._complete(producer, seq)

        for front_index, payload in items:
            self._fronts[front_index].queue.put((*payload, absorbed))

    def _complete(self, producer: _Producer, seq: int) -> None:
        self._inflight -= 1
        producer.completed.add(seq)
        advanced = False
        while producer.acked + 1 in producer.completed:
            producer.completed.remove(producer.acked + 1)
            producer.acked += 1
            advanced = True
        if advanced and producer.obs is not None:
            producer.obs.credit.set(producer.seen - producer.acked)
        writer = producer.writer
        if advanced and writer is not None and not writer.is_closing():
            # write() only buffers; ack frames are tiny and the
            # transport flushes them without an explicit drain.
            writer.write(frame_bytes(("ack", producer.acked)))

    async def _serve_subscriber(
        self, writer: asyncio.StreamWriter
    ) -> None:
        frames: asyncio.Queue[tuple] = asyncio.Queue()
        sink = frames.put_nowait  # publishes happen on this loop
        self._n_subscribers += 1
        if self._subscribers_gauge is not None:
            self._subscribers_gauge.inc()
        snapshot = self.deltas.subscribe(sink)
        try:
            await self._send(writer, snapshot)
            while True:
                frame = await frames.get()
                await self._send(writer, frame)
                if frame[0] == "end":
                    return
        finally:
            self.deltas.unsubscribe(sink)
            self._n_subscribers -= 1
            if self._subscribers_gauge is not None:
                self._subscribers_gauge.dec()

    # ------------------------------------------------------------------
    # the marshaled query surface
    # ------------------------------------------------------------------

    def _call(
        self,
        front: _Front,
        fn: Callable[[ParallelFleet], Any],
        timeout: float = 60.0,
    ) -> Any:
        """Run ``fn(fleet)`` on the front's own thread and return its
        result -- the only safe way to query a front's fleet."""
        box: dict[str, Any] = {}
        event = threading.Event()
        front.queue.put(("call", fn, box, event))
        if not event.wait(timeout):
            raise TimeoutError(
                f"front {front.index} did not answer within {timeout}s"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _front_of(self, trace_id: TraceId) -> _Front:
        index = shard_index_of(trace_id, self._n_shards)
        return self._fronts[index % len(self._fronts)]

    @property
    def n_fronts(self) -> int:
        return len(self._fronts)

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def ingested_records(self) -> int:
        return sum(
            self._call(front, lambda fl: fl.ingested_records)
            for front in self._fronts
        )

    def front_errors(self) -> tuple[str, ...]:
        """Tracebacks of ingest batches that failed inside a front
        (empty in healthy operation; the rows of a failed batch are
        acked but lost, exactly like a crashed worker's tail)."""
        return tuple(f.error for f in self._fronts if f.error is not None)

    def flush(self) -> None:
        """Sync barrier on every front (violations fire, deltas cut)."""
        for front in self._fronts:
            self._call(front, lambda fl: fl.flush())

    def worst_ratio(self, trace_id: TraceId) -> Fraction | None:
        front = self._front_of(trace_id)
        return self._call(front, lambda fl: fl.worst_ratio(trace_id))

    def is_degraded(self, trace_id: TraceId) -> bool:
        front = self._front_of(trace_id)
        return self._call(front, lambda fl: fl.is_degraded(trace_id))

    def all_ratios(self) -> list[tuple[TraceId, Fraction | None]]:
        out: list[tuple[TraceId, Fraction | None]] = []
        for front in self._fronts:
            out.extend(self._call(front, lambda fl: fl.all_ratios()))
        return out

    def violation_feed(self) -> tuple[tuple[int, TraceId], ...]:
        """All fronts' violation rows in one deterministic merged order."""
        rows: list[tuple[int, TraceId]] = []
        for front in self._fronts:
            rows.extend(self._call(front, lambda fl: fl.violation_feed()))
        return merge_violations(rows)

    def violating_traces(self) -> tuple[TraceId, ...]:
        self.flush()
        return violating_ids(self.violation_feed())

    def report(self) -> FleetReport:
        """One merged :class:`FleetReport` across every front (sync
        barrier).  Counters sum; ``peak_live_events`` sums the fronts'
        epoch watermarks (a sound upper bound on the global peak);
        violating traces merge in global tick order."""
        reports = [
            self._call(front, lambda fl: fl.report())
            for front in self._fronts
        ]
        shards = sorted(
            (s for r in reports for s in r.shards), key=lambda s: s.shard
        )
        first = reports[0]
        return FleetReport(
            xi=first.xi,
            n_shards=self._n_shards,
            batch_size=first.batch_size,
            event_budget=sum(
                (r.event_budget or 0) for r in reports
            )
            or None,
            open_traces=sum(r.open_traces for r in reports),
            retired_traces=sum(r.retired_traces for r in reports),
            live_events=sum(r.live_events for r in reports),
            peak_live_events=sum(r.peak_live_events for r in reports),
            budget_overruns=sum(r.budget_overruns for r in reports),
            degraded_traces=sum(r.degraded_traces for r in reports),
            violating_traces=violating_ids(self.violation_feed()),
            shards=tuple(shards),
            **shard_totals(shards),
            crashed_shards=tuple(
                s for r in reports for s in r.crashed_shards
            ),
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def staged_metrics_rows(self) -> tuple[tuple, ...]:
        """The latest *staged* readings -- what a ``metrics`` request
        frame is answered from: front rows last staged into the delta
        store (front-labeled) plus the server's own registry.  Never
        blocks on a front thread; may lag by ``metrics_interval``."""
        row_sets = [self.deltas.metrics_rows()]
        if self._metrics is not None:
            row_sets.append(self._metrics.to_rows())
        return _obs_metrics.merge_row_sets(row_sets)

    def metrics_rows(self) -> tuple[tuple, ...]:
        """Fresh merged readings: every front's fleet is polled on its
        own thread (each worker contributes its registry), rows are
        labeled ``front=<index>`` so identically named per-front
        instruments stay distinct series, and the server's own
        registry rides along.  Also refreshes the staged copy the
        delta stream and ``metrics`` frames serve."""
        for front in self._fronts:
            rows = self._call(front, lambda fl: fl.metrics_rows())
            self.deltas.update_metrics(
                _label_rows(rows, "front", str(front.index))
            )
        return self.staged_metrics_rows()

    def metrics_snapshot(self, *, deterministic_only: bool = False) -> dict:
        """Fresh merged readings as a JSON-able dict (the
        :meth:`repro.obs.metrics.MetricsRegistry.to_json` shape)."""
        return _obs_metrics.rows_to_json(
            self.metrics_rows(), deterministic_only=deterministic_only
        )

    def render_prometheus(self) -> str:
        """Fresh merged readings in Prometheus text exposition format
        (empty when telemetry is disabled)."""
        registry = _obs_metrics.MetricsRegistry()
        registry.merge_rows(self.metrics_rows())
        return registry.render_prometheus()
