"""Delta-streaming observability: publish changes, not snapshots.

The pull-side fleet surface (``worst_ratio_histogram``,
``top_k_riskiest``, ``violating_traces``) answers a query by touching
every worker -- a sync barrier per dashboard refresh.  At network
scale that inverts the cost model: the *monitor* ends up doing more
work serving dashboards than monitoring.  This module flips the
direction.  Fronts push the two incremental feeds the fleet already
produces for free -- worst-ratio updates (workers piggyback them on
every outbound message) and the violation feed -- into a
:class:`DeltaStore`, which streams numbered delta frames to
subscribers.  A subscriber folds them into a :class:`DeltaView` and
answers every aggregate query *locally*, from the stream alone.

Frames (plain tuples, like everything on this wire):

``("snapshot", seq, ratio_rows, violation_rows, metrics_rows)``
    full state at subscribe time; ``ratio_rows`` are ``(trace_id,
    wire_fraction)`` pairs, ``violation_rows`` are ``(tick,
    trace_id)`` pairs, ``metrics_rows`` are serialized instrument
    rows (:meth:`repro.obs.metrics.MetricsRegistry.to_rows`).
``("delta", seq, ratio_rows, violation_rows, metrics_rows)``
    what changed since ``seq - 1``: ratio rows are last-wins per
    trace, violation rows are new, metrics rows are last-wins per
    instrument (each row is a *cumulative* reading, not an
    increment, so last-wins loses nothing).
``("end", seq)``
    the publisher shut down; nothing follows.

Both sides decode with ``*rest`` tolerance: a view reading an older
publisher's four-element frames sees no metrics rows, and an older
view reading these frames ignores the fifth element.

Sequence numbers are contiguous per store, and a snapshot at ``seq``
is followed by deltas ``seq+1, seq+2, ...`` -- a view can therefore
*prove* it missed nothing (:class:`DeltaView` raises on a gap).

Correctness rests on two properties of the feeds: ratio updates are
monotone per trace (so last-wins coalescing loses nothing a final
value needs), and violation rows are immutable facts (so set-union
across deltas reconstructs the full feed).  Violation rows carry their
global ingest tick, which is what lets a view merge rows from several
interleaved fronts into the same deterministic ``(tick, trace id)``
order the fleets themselves report.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Any, Callable, Iterable

from repro.obs import metrics as _obs_metrics
from repro.runtime import codec
from repro.runtime.shard import (
    RatioQueries,
    TraceId,
    merge_violations,
    violating_ids,
)

__all__ = ["DeltaStore", "DeltaView"]


def _metric_key(row: tuple) -> tuple:
    """Identity of a serialized instrument row: ``(kind, name, labels)``."""
    return (row[0], row[1], row[2])


class DeltaStore:
    """Thread-safe accumulator and publisher of delta frames.

    Writers (front threads) call :meth:`update_ratios` /
    :meth:`extend_violations`; the publisher thread calls
    :meth:`publish` to cut the staged changes into one numbered delta
    frame and fan it out to sinks.  :meth:`subscribe` registers a sink
    and returns its snapshot frame atomically -- no frame published
    after the snapshot can be missed, none before it can be duplicated.

    Sinks are called outside the lock but serially, from whichever
    thread publishes; a sink must be cheap and non-blocking (the server
    uses per-subscriber queue puts).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # full state (for snapshots); ratios kept in wire form so
        # frames need no re-encoding
        self._ratios: dict[TraceId, tuple[int, int] | None] = {}
        self._violations: list[tuple[int, TraceId]] = []
        self._seen_violations: set[tuple[int, TraceId]] = set()
        # metrics: cumulative instrument readings, last-wins per key
        self._metrics: dict[tuple, tuple] = {}
        # staged-but-unpublished changes
        self._pending_ratios: dict[TraceId, tuple[int, int] | None] = {}
        self._pending_violations: list[tuple[int, TraceId]] = []
        self._pending_metrics: dict[tuple, tuple] = {}
        self._seq = 0
        self._sinks: list[Callable[[tuple], None]] = []
        self._closed = False

    def update_ratios(
        self, updates: dict[TraceId, Fraction | None]
    ) -> None:
        """Stage worst-ratio changes (last-wins per trace)."""
        if not updates:
            return
        with self._lock:
            for trace_id, ratio in updates.items():
                wire = codec.encode_fraction(ratio)
                self._ratios[trace_id] = wire
                self._pending_ratios[trace_id] = wire

    def extend_violations(
        self, rows: Iterable[tuple[int, TraceId]]
    ) -> None:
        """Stage violation rows; duplicates (a feed is cumulative, so
        re-offering known rows is the normal case) are dropped."""
        with self._lock:
            for row in rows:
                if row not in self._seen_violations:
                    self._seen_violations.add(row)
                    self._violations.append(row)
                    self._pending_violations.append(row)

    def update_metrics(self, rows: Iterable[tuple]) -> None:
        """Stage instrument readings (last-wins per instrument).

        ``rows`` are serialized cumulative readings (the shape
        :meth:`repro.obs.metrics.MetricsRegistry.to_rows` emits), so a
        newer reading simply replaces the older one; rows from
        different sources (fronts, the server's own registry) coexist
        as long as their instrument names or labels differ."""
        with self._lock:
            for row in rows:
                key = _metric_key(row)
                if self._metrics.get(key) != row:
                    self._metrics[key] = row
                    self._pending_metrics[key] = row

    def metrics_rows(self) -> tuple[tuple, ...]:
        """The latest staged instrument readings, deterministically
        ordered (the rows a ``metrics`` request frame is answered
        from, without touching any front)."""
        with self._lock:
            rows = list(self._metrics.values())
        rows.sort(key=lambda row: (row[1], row[2], row[0]))
        return tuple(rows)

    @property
    def dirty(self) -> bool:
        """Whether staged changes are waiting for a :meth:`publish`."""
        with self._lock:
            return bool(
                self._pending_ratios
                or self._pending_violations
                or self._pending_metrics
            )

    def subscribe(self, sink: Callable[[tuple], None]) -> tuple:
        """Register ``sink`` and return its snapshot frame.  Atomic:
        the sink receives exactly the deltas after the snapshot."""
        with self._lock:
            if not self._closed:
                self._sinks.append(sink)
            snapshot = (
                "snapshot",
                self._seq,
                tuple(self._ratios.items()),
                tuple(self._violations),
                tuple(
                    sorted(
                        self._metrics.values(),
                        key=lambda row: (row[1], row[2], row[0]),
                    )
                ),
            )
            # On a closed store, hand the final state plus the end
            # marker the live stream would have delivered.
            end = ("end", self._seq) if self._closed else None
        if end is not None:
            sink(end)
        return snapshot

    def unsubscribe(self, sink: Callable[[tuple], None]) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def publish(self) -> tuple | None:
        """Cut staged changes into one delta frame and fan it out.
        Returns the frame, or ``None`` if nothing was staged."""
        with self._lock:
            if (
                not self._pending_ratios
                and not self._pending_violations
                and not self._pending_metrics
            ):
                return None
            self._seq += 1
            frame = (
                "delta",
                self._seq,
                tuple(self._pending_ratios.items()),
                tuple(self._pending_violations),
                tuple(
                    sorted(
                        self._pending_metrics.values(),
                        key=lambda row: (row[1], row[2], row[0]),
                    )
                ),
            )
            self._pending_ratios = {}
            self._pending_violations = []
            self._pending_metrics = {}
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink(frame)
        return frame

    def close(self) -> tuple | None:
        """Publish anything still staged, then fan out the ``end``
        frame.  Idempotent; returns the end frame on the first call."""
        self.publish()
        with self._lock:
            if self._closed:
                return None
            self._closed = True
            frame = ("end", self._seq)
            sinks = tuple(self._sinks)
            self._sinks = []
        for sink in sinks:
            sink(frame)
        return frame


class DeltaView(RatioQueries):
    """Fold a delta stream back into queryable fleet aggregates.

    Feed frames to :meth:`apply` (snapshot first, then each delta in
    order -- a gap in sequence numbers raises, so a view is either
    provably complete or loudly broken).  The aggregate methods then
    answer from local state through the *same*
    :class:`~repro.runtime.shard.RatioQueries` queries the fleets use,
    so a fully caught-up view reproduces the pull-side answers exactly.
    """

    def __init__(self) -> None:
        self.ratios: dict[TraceId, Fraction | None] = {}
        self._rows: list[tuple[int, TraceId]] = []
        self._seen: set[tuple[int, TraceId]] = set()
        self._metrics: dict[tuple, tuple] = {}
        self.seq = -1
        self.closed = False

    def apply(self, frame: Any) -> None:
        kind = frame[0]
        if kind == "snapshot":
            _kind, seq, ratio_rows, violation_rows, *rest = frame
            self.ratios = {
                trace_id: codec.decode_fraction(wire)
                for trace_id, wire in ratio_rows
            }
            self._rows = list(violation_rows)
            self._seen = set(violation_rows)
            self._metrics = (
                {_metric_key(row): row for row in rest[0]} if rest else {}
            )
            self.seq = seq
        elif kind == "delta":
            _kind, seq, ratio_rows, violation_rows, *rest = frame
            if self.seq < 0:
                raise ValueError("delta before snapshot")
            if seq != self.seq + 1:
                raise ValueError(
                    f"delta stream gap: have seq {self.seq}, got {seq}"
                )
            for trace_id, wire in ratio_rows:
                self.ratios[trace_id] = codec.decode_fraction(wire)
            for row in violation_rows:
                if row not in self._seen:
                    self._seen.add(row)
                    self._rows.append(row)
            if rest:
                for row in rest[0]:
                    self._metrics[_metric_key(row)] = row
            self.seq = seq
        elif kind == "end":
            self.seq = max(self.seq, frame[1])
            self.closed = True
        else:
            raise ValueError(f"unknown delta frame kind {kind!r}")

    # -- the reconstructed aggregate surface ---------------------------

    def worst_ratio(self, trace_id: TraceId) -> Fraction | None:
        return self.ratios[trace_id]

    def all_ratios(self) -> list[tuple[TraceId, Fraction | None]]:
        return list(self.ratios.items())

    def violation_feed(self) -> tuple[tuple[int, TraceId], ...]:
        """All known violation rows in the deterministic merged order."""
        return merge_violations(self._rows)

    def violating_traces(self) -> tuple[TraceId, ...]:
        return violating_ids(self._rows)

    def metrics_rows(self) -> tuple[tuple, ...]:
        """The latest instrument readings carried by the stream,
        deterministically ordered (empty from a pre-telemetry
        publisher or a telemetry-disabled server)."""
        rows = list(self._metrics.values())
        rows.sort(key=lambda row: (row[1], row[2], row[0]))
        return tuple(rows)

    def metrics_snapshot(self, *, deterministic_only: bool = False) -> dict:
        """The stream-carried metrics as a JSON-able dict (the
        :meth:`repro.obs.metrics.MetricsRegistry.to_json` shape)."""
        return _obs_metrics.rows_to_json(
            self.metrics_rows(), deterministic_only=deterministic_only
        )
