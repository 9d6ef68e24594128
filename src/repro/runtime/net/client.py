"""Producer and subscriber clients for the ingestion server.

:class:`ProducerClient` streams records to an
:class:`~repro.runtime.net.server.IngestServer` with three guarantees:

- **Exactly-once**: every shipped batch carries a sequence number and
  is held in a replay buffer until the server acks it.  On reconnect
  the client resumes at the server's advertised ack point -- frames
  the server already absorbed are dropped client-side (and deduped
  server-side), unacked frames are resent in order.
- **Order**: one blocking socket, frames shipped in sequence order,
  replays in sequence order.  Per-trace record order -- the thing
  per-trace bit-identity rests on -- is therefore whatever order this
  producer emits, provided each trace has a single producer (the same
  single-writer discipline every append-only log asks of you).
- **Backpressure**: at most ``credit_window`` frames ride unacked
  (window from the server's ``welcome``, or the client's own if
  smaller).  A slow fleet stalls :meth:`send` instead of growing an
  unbounded queue.

:class:`DeltaSubscriber` is the read side: it tails the server's delta
stream into a local :class:`~repro.runtime.net.deltas.DeltaView`,
which then answers histogram/top-k/violation queries with no further
network traffic.

Addresses are ``(host, port)`` tuples for TCP or a path string for a
Unix-domain socket.
"""

from __future__ import annotations

import logging
import socket
import time
from typing import Any

from repro.obs import metrics as _obs_metrics
from repro.obs.trace import new_context
from repro.runtime import codec
from repro.runtime.net.deltas import DeltaView
from repro.runtime.net.wire import (
    PROTOCOL_VERSION,
    FrameSocket,
    ProtocolError,
)
from repro.runtime.shard import TraceId

__all__ = ["DeltaSubscriber", "ProducerClient", "fetch_metrics"]

logger = logging.getLogger(__name__)

Address = "tuple[str, int] | str"


def _open(address: Any, timeout: float) -> FrameSocket:
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        host, port = address
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(timeout)
    return FrameSocket(sock)


def _handshake(
    address: Any,
    role: str,
    name: str,
    timeout: float,
    retries: int,
    retry_delay: float,
) -> tuple[FrameSocket, tuple]:
    """Connect + hello with exponential-backoff retries; returns the
    open frame socket and the server's reply frame."""
    last_exc: Exception | None = None
    for attempt in range(retries + 1):
        if attempt:
            delay = retry_delay * (2 ** (attempt - 1))
            logger.warning(
                "retrying %s handshake with %r in %.3fs "
                "(attempt %d of %d): %s",
                role,
                address,
                delay,
                attempt + 1,
                retries + 1,
                last_exc,
            )
            time.sleep(delay)
        try:
            fs = _open(address, timeout)
        except OSError as exc:
            last_exc = exc
            continue
        try:
            fs.send(("hello", PROTOCOL_VERSION, role, name))
            reply = fs.recv()
            if reply is None:
                raise ProtocolError("server closed during handshake")
            if reply[0] == "error":
                raise ProtocolError(f"server refused: {reply[1]}")
            return fs, reply
        except (OSError, ProtocolError) as exc:
            fs.close()
            last_exc = exc
            continue
    raise ConnectionError(
        f"could not reach ingest server at {address!r} "
        f"after {retries + 1} attempts: {last_exc}"
    )


class ProducerClient:
    """Stream records into an ingest server, exactly once.

    Args:
        address: ``(host, port)`` or a Unix-socket path.
        producer_id: stable identity for resume across reconnects.
            Two live connections with the same id preempt each other
            (newest wins) -- give each producer its own.
        batch: rows buffered locally before a frame ships.
        window: optional client-side cap on unacked frames (the
            effective window is the smaller of this and the server's).
        timeout: per-socket-operation timeout; also how long a full
            window waits for an ack before ``TimeoutError``.
        retries / retry_delay: reconnect schedule (exponential).

    Use as a context manager; :meth:`close` flushes and waits for the
    final ack.
    """

    def __init__(
        self,
        address: Any,
        *,
        producer_id: str,
        batch: int = 64,
        window: int | None = None,
        timeout: float = 30.0,
        retries: int = 5,
        retry_delay: float = 0.05,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be positive")
        if window is not None and window < 1:
            raise ValueError("window must be positive")
        self.address = address
        self.producer_id = producer_id
        self._batch = batch
        self._window_cap = window
        self._timeout = timeout
        self._retries = retries
        self._retry_delay = retry_delay
        self._rows: list[tuple[TraceId, tuple]] = []
        self._unacked: dict[int, tuple] = {}  # seq -> produce frame
        self._seq = 0
        self._acked = 0
        self._fs: FrameSocket | None = None
        self.n_fronts = 0
        self.n_shards = 0
        self._window = 0
        # Record-lifecycle tracing: encode latency lands in the
        # client's process-global registry as the client_encode stage
        # (None when telemetry is off -- one attribute test per send).
        self._ctx = new_context(name=f"p.{producer_id}")
        self._connect()

    # -- connection management -----------------------------------------

    def _connect(self) -> None:
        fs, welcome = _handshake(
            self.address,
            "produce",
            self.producer_id,
            self._timeout,
            self._retries,
            self._retry_delay,
        )
        if welcome[0] != "welcome":
            fs.close()
            raise ProtocolError(f"expected welcome, got {welcome[0]!r}")
        _kind, _ver, n_fronts, n_shards, acked, window = welcome
        self._fs = fs
        self.n_fronts, self.n_shards = n_fronts, n_shards
        self._window = (
            window
            if self._window_cap is None
            else min(window, self._window_cap)
        )
        self._absorb_ack(acked)
        # Resume: replay everything the server has not acked, in order.
        for seq in sorted(self._unacked):
            fs.send(self._unacked[seq])

    def _reconnect(self) -> None:
        logger.info(
            "reconnecting producer %r to %r (%d frames unacked)",
            self.producer_id,
            self.address,
            len(self._unacked),
        )
        if self._fs is not None:
            self._fs.close()
            self._fs = None
        self._connect()

    def _absorb_ack(self, acked: int) -> None:
        if acked > self._acked:
            self._acked = acked
            for seq in [s for s in self._unacked if s <= acked]:
                del self._unacked[seq]

    def _handle(self, frame: tuple) -> None:
        if frame[0] == "ack":
            self._absorb_ack(frame[1])
        elif frame[0] == "error":
            raise ProtocolError(f"server error: {frame[1]}")
        else:
            raise ProtocolError(f"unexpected frame {frame[0]!r}")

    def _pump(self, wait: bool) -> None:
        """Absorb pending server frames; with ``wait`` block for at
        least one.  Non-blocking reads drain whatever already arrived
        so acks are processed promptly even mid-send loop."""
        fs = self._fs
        assert fs is not None
        need_one = wait
        while True:
            fs.sock.settimeout(self._timeout if need_one else 0.0)
            try:
                frame = fs.recv()
            except (BlockingIOError, InterruptedError):
                return
            except socket.timeout:
                raise TimeoutError(
                    f"no ack from ingest server in {self._timeout}s "
                    f"({len(self._unacked)} frames unacked)"
                ) from None
            finally:
                fs.sock.settimeout(self._timeout)
            if frame is None:
                raise ProtocolError("server closed the stream")
            self._handle(frame)
            need_one = False

    # -- producing ------------------------------------------------------

    def send(self, trace_id: TraceId, record: Any) -> None:
        """Buffer one record; ships a frame when the batch fills."""
        ctx = self._ctx
        if ctx is None:
            self.send_wire(trace_id, codec.encode_record(record))
            return
        with ctx.span("client_encode"):
            wire = codec.encode_record(record)
        self.send_wire(trace_id, wire)

    def send_wire(self, trace_id: TraceId, wire_record: tuple) -> None:
        """Buffer one already-encoded record (the re-publishing path:
        rows from ``fleet.drain``/journals are already wire tuples)."""
        if self._fs is None:
            raise RuntimeError("producer is closed")
        self._rows.append((trace_id, wire_record))
        if len(self._rows) >= self._batch:
            self._ship()

    def _ship(self) -> None:
        if not self._rows:
            return
        while len(self._unacked) >= self._window:
            try:
                self._pump(wait=True)
            except TimeoutError:
                raise  # a stalled server is the caller's problem
            except (OSError, ProtocolError):
                self._reconnect()
        self._seq += 1
        frame = ("produce", self._seq, tuple(self._rows))
        self._rows = []
        self._unacked[self._seq] = frame
        try:
            self._pump(wait=False)
            assert self._fs is not None
            self._fs.send(frame)
        except (OSError, ProtocolError):
            self._reconnect()  # replay includes the frame we just cut

    def flush(self) -> None:
        """Ship the partial batch and wait until everything is acked --
        after this returns, every record sent is inside the server's
        fleets (ack = absorbed, not just received)."""
        self._ship()
        while self._unacked:
            try:
                self._pump(wait=True)
            except TimeoutError:
                raise
            except (OSError, ProtocolError):
                self._reconnect()

    @property
    def acked_frames(self) -> int:
        return self._acked

    @property
    def unacked_frames(self) -> int:
        return len(self._unacked)

    def close(self) -> None:
        if self._fs is None:
            return
        try:
            self.flush()
            self._fs.send(("bye",))
        finally:
            self._fs.close()
            self._fs = None

    def __enter__(self) -> "ProducerClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class DeltaSubscriber:
    """Tail a server's delta stream into a local
    :class:`~repro.runtime.net.deltas.DeltaView`.

    :meth:`poll` applies one frame (``None`` once the stream ended);
    :meth:`run_to_end` drains until the server's ``end`` marker --
    after which ``view`` holds the final aggregates, reconstructed
    from the incremental stream alone.
    """

    def __init__(
        self,
        address: Any,
        *,
        name: str = "subscriber",
        timeout: float = 30.0,
        retries: int = 5,
        retry_delay: float = 0.05,
    ) -> None:
        self.view = DeltaView()
        self._fs, first = _handshake(
            address, "subscribe", name, timeout, retries, retry_delay
        )
        self.view.apply(first)  # the snapshot

    def poll(self) -> tuple | None:
        """Block for the next frame, apply it, return it; ``None`` once
        the stream has ended."""
        if self.view.closed:
            return None
        frame = self._fs.recv()
        if frame is None:
            raise ProtocolError("server closed without an end frame")
        self.view.apply(frame)
        return frame

    def run_to_end(self) -> DeltaView:
        while not self.view.closed:
            self.poll()
        return self.view

    def close(self) -> None:
        self._fs.close()

    def __enter__(self) -> "DeltaSubscriber":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def fetch_metrics(
    address: Any,
    *,
    name: str = "scrape",
    timeout: float = 30.0,
    retries: int = 0,
    retry_delay: float = 0.05,
) -> tuple[tuple, ...]:
    """One-shot telemetry scrape: the server's latest staged instrument
    rows (see :meth:`IngestServer.staged_metrics_rows`).  Decode with
    :func:`repro.obs.metrics.rows_to_json` or fold into a
    :class:`repro.obs.metrics.MetricsRegistry`.  Empty on a
    telemetry-disabled server."""
    fs, reply = _handshake(
        address, "metrics", name, timeout, retries, retry_delay
    )
    try:
        if reply[0] != "metrics":
            raise ProtocolError(f"expected metrics, got {reply[0]!r}")
        return tuple(reply[1])
    finally:
        fs.close()
