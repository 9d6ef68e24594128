"""`ParallelFleet`: the serial fleet's surface, executed on workers.

The monitoring plane as an asynchronous system of independent workers:
trace records are hash-routed (the serial fleet's CRC32 routing,
unchanged) to shards, shards are partitioned round-robin across
``n_workers`` worker backends, and each worker drives its shard subset
as one :class:`~repro.runtime.shard.ShardGroup` -- the exact engine the
serial :class:`~repro.analysis.fleet.MonitorFleet` runs in process.
The facade keeps the serial surface: ``ingest``, ``ingest_many``,
``flush``, ``close``, ``worst_ratio``, ``is_degraded``, the aggregate
queries, and ``report`` returning the same :class:`FleetReport`.

**Bit-identity contract.**  A trace's worst ratio is a function of its
record sequence alone; the dispatcher preserves per-trace record order
(single-threaded routing into FIFO per-worker queues) and workers run
the serial engine with the serial watermark, so every per-trace worst
ratio, degradation flag, and the *set* of violating traces are
bit-identical to a serial ``MonitorFleet`` fed the same stream (two
narrow carve-outs below) --
property-tested across backends in ``tests/runtime/test_parallel.py``
and gated at scale by ``benchmarks/bench_parallel.py``.  What may
differ is scheduling-shaped metadata: flush counts (wire batching
coalesces flush boundaries), eviction/compaction counters (each worker
enforces its budget share against its own LRU order), and the *order*
of violation reporting (see below).  Two documented carve-outs.  First, *budget eviction on metadata-free
streams*: without ``record.sends`` announcements, eviction under an
``event_budget`` can cut a prefix an unseen in-flight message still
crosses (the documented degraded regime), and serial and parallel make
those unsafe cuts at different points -- one global LRU versus each
worker's LRU over its share -- so *which* traces end up flagged
``degraded`` (with honestly-flagged lower-bound ratios) can differ
between the front ends.  Streams carrying sends metadata keep eviction
exact everywhere, so the bit-identity contract is unaffected.  Second,
``auto_retire_after``.  Idle ages are measured in the same global
stream ticks as the serial fleet (each record's touch time is its
stream position), but a worker's clock advances only when it receives
a batch or a barrier, and retirement probes run at batch granularity
-- so *when* an idle trace retires is backend-dependent.  A trace that
is retired and then receives more records reopens degraded (by
design), and because shifting one retirement shifts every later
retire/reopen decision on that trace, serial and parallel can disagree
on which borderline-idle traces end up flagged -- in either direction.
Each front end remains individually sound (degraded ratios are
honestly-flagged lower bounds, everything else exact) and individually
deterministic; workloads without auto-retirement carry the full
bit-identity contract.

**Batching and backpressure.**  Ingestion buffers per shard and ships
``wire_batch``-record batches; a worker absorbs a batch through the
engine's bulk path (buffer all, flush watermark-crossers once).
Per-worker inboxes are bounded (``inbox_capacity`` batches): a full
inbox blocks the dispatcher in liveness-probing slices, so a slow
worker throttles ingestion instead of accumulating unbounded backlog,
and a dead one raises instead of hanging.

**Deterministic violation merge.**  Workers stamp each violation with
the violating trace's last absorbed global ingest tick at the
detecting flush (deterministic for a fixed fleet configuration --
flush boundaries, and with them the tick, depend on ``wire_batch``)
and push it unsolicited.  The dispatcher fires
``on_violation`` callbacks only at *sync barriers* (``flush()``,
``report()``, ``violating_traces()``, ``shutdown()`` -- points where
every worker has acknowledged everything dispatched before the
barrier), sorted by ``(tick, str(trace_id))``: the firing order is a
function of the call sequence, not of worker scheduling, and
``violating_traces()`` returns that merged order.

**Budget apportionment and rebalancing.**  A global ``event_budget``
is split evenly across workers at start; at each barrier the
dispatcher re-apportions it proportionally to the workers' live-event
demand (a floor keeps every worker operable).  Budget epochs make the
reported watermark sound: each worker's post-enforcement peak is reset
when its share changes, and the fleet-level ``peak_live_events`` is
the maximum over epochs of the summed per-worker peaks -- within an
epoch the shares are static and sum to at most the budget, so the
reported watermark can only *over*-estimate the true global peak,
never hide an overrun.

**Crash containment.**  A worker that dies (its own traceback, or a
vanished process) is marked dead at the next interaction: its shards
are reported in ``FleetReport.crashed_shards`` with their last-synced
statistics, records routed to them are dropped and counted
(``dropped_records``), per-trace queries against them raise
:class:`~repro.runtime.backends.WorkerCrashed` naming the worker and
shards -- and every other worker keeps serving.  No code path waits
unboundedly on a dead peer.

**Durability and recovery.**  With ``durability=`` configured (see
:class:`~repro.runtime.durable.Durability`), crash containment becomes
crash *recovery*: every ingested record is journaled write-ahead (its
frame reaches disk no later than its wire batch leaves the
dispatcher), periodic checkpoints store each worker's full
:meth:`~repro.runtime.shard.ShardGroup.snapshot`, and a dead worker is
respawned, handed its last snapshot, and replayed its journal suffix
-- the fleet then reports zero ``crashed_shards`` and bit-identical
per-trace ratios, degraded flags, and violating sets.  A whole fleet
restarts the same way: :meth:`ParallelFleet.restore` rebuilds the
dispatcher from the checkpoint metadata, restores every worker, and
replays the journals' contiguous tick prefix; the producer resumes
feeding from ``fleet.ingested_records``.  Recovery is bounded by
``max_recoveries`` per worker -- a deterministic poison record
eventually degrades the shards exactly as without durability.

**Placement and migration.**  Shard-to-worker placement is an explicit
table (initially the round-robin split), not a hash: the dispatcher
can :meth:`migrate_shard` a live shard -- open traces, retired
summaries, counters -- between workers (ship, fence, export, import,
repoint), and :meth:`rebalance_placement` moves the heaviest shards
off any worker whose live-event share exceeds a threshold multiple of
the mean, unpinning hash-skewed trace populations that the
budget-share rebalancing alone cannot fix.  Trace-to-shard routing is
untouched (the serial CRC32 function), so migration is invisible to
reported ratios; under durability every migration commits a
checkpoint, keeping journals and snapshots placement-consistent.
"""

from __future__ import annotations

import logging
import os
import time
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.online import OnlineAbcMonitor
from repro.core.cycles import CycleClassification
from repro.core.events import ProcessId
from repro.core.kernel import resolve_kernel_name
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.runtime import codec
from repro.runtime.backends import (
    ProcessBackend,
    ThreadBackend,
    WorkerCrashed,
    WorkerHandle,
)
from repro.runtime.durable import (
    Durability,
    DurableStore,
    contiguous_prefix,
    write_frames,
)
from repro.runtime.shard import (
    FleetReport,
    MonitorSpec,
    ShardStats,
    TraceId,
    TraceSummary,
    RatioQueries,
    merge_violations,
    shard_index_of as _shard_index,
    shard_totals,
    violating_ids,
)
from repro.sim.trace import ReceiveRecord

__all__ = ["ParallelFleet"]

logger = logging.getLogger(__name__)


class _DispatcherObs:
    """The dispatcher's instrument bundle on its own registry.

    Shipped-record and dispatch counters are deterministic (functions
    of the ingested stream for a fixed configuration); backpressure
    stalls, queue depths, and recovery counters are scheduling-shaped
    wall-clock facts and are not.
    """

    __slots__ = (
        "shipped",
        "batches",
        "batch_records",
        "route_ns",
        "ship_stalls",
        "stall_ns",
        "queue_depth",
        "recoveries",
        "replayed",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.shipped = registry.counter(
            "repro_dispatcher_shipped_records_total",
            help="records shipped to workers (wire rows)",
        )
        self.batches = registry.counter(
            "repro_dispatcher_shipped_batches_total",
            help="shard batches shipped to workers",
        )
        self.batch_records = registry.histogram(
            "repro_dispatcher_batch_records",
            deterministic=True,
            bounds=COUNT_BUCKETS,
            help="records per shipped shard batch",
        )
        self.route_ns = registry.histogram(
            "repro_stage_ns",
            (("stage", "dispatch_route"),),
            help="per-stage record-lifecycle latency",
        )
        self.ship_stalls = registry.counter(
            "repro_dispatcher_ship_stalls_total",
            deterministic=False,
            help="ship attempts that blocked on a full worker inbox",
        )
        self.stall_ns = registry.counter(
            "repro_dispatcher_stall_ns_total",
            deterministic=False,
            help="total time spent blocked on full worker inboxes",
        )
        self.queue_depth = registry.gauge(
            "repro_dispatcher_queue_depth",
            help="sum of worker inbox depths at the last snapshot",
        )
        self.recoveries = registry.counter(
            "repro_dispatcher_recoveries_total",
            deterministic=False,
            help="successful worker recoveries from the durability plane",
        )
        self.replayed = registry.counter(
            "repro_durable_replayed_records_total",
            deterministic=False,
            help="journal records replayed during worker recovery",
        )


class ParallelFleet(RatioQueries):
    """The multi-worker fleet front end (see the module docstring).

    Args:
        xi: optional synchrony parameter, as in the serial fleet.
        n_workers: worker count (``>= 1``); shards are partitioned
            round-robin, so ``n_shards`` must be at least ``n_workers``.
        n_shards: global shard count (default 8, the serial default).
        batch_size: the serial per-trace flush watermark, applied
            unchanged inside each worker.
        event_budget: *global* live-event budget, apportioned across
            workers and rebalanced at barriers (``None`` disables).
        auto_retire_after: idle age in global ingest ticks (the
            dispatcher's record counter, so idleness means the same
            thing as in the serial fleet).  Retirement *timing* is
            batch-granular and therefore backend-dependent -- see the
            module docstring's carve-out.
        compact_threshold: adaptive compaction cadence, per monitor.
        faulty / drop_faulty: per-monitor message filtering.
        backend: ``"process"`` (default), ``"thread"``, or a backend
            instance (anything with ``spawn(...) -> WorkerHandle``).
        start_method: multiprocessing start method for the default
            process backend.
        wire_batch: records per shard batch shipped to workers;
            the batching lever of the dispatcher (latency vs. framing
            overhead), invisible to reported ratios.
        inbox_capacity: bounded-inbox depth per worker, in batches
            (the backpressure lever).
        rebalance: re-apportion the budget by live-event demand at
            barriers (``False`` freezes the initial even split).
        monitor_factory: per-trace monitor customization as an
            arbitrary callable; requires a backend whose workers share
            the dispatcher's address space (the thread backend).  For
            process backends use ``monitor_specs``.
        monitor_specs: declarative per-trace monitor configuration --
            one :class:`~repro.runtime.shard.MonitorSpec` for every
            trace, or a ``{trace_id: MonitorSpec}`` mapping.  Plain
            data, so it crosses the process boundary (the
            ``monitor_factory`` gap, closed).
        durability: a :class:`~repro.runtime.durable.Durability` (or a
            directory path, for the defaults) enabling the journal +
            snapshot recovery plane -- see the module docstring.
        on_violation: ``callback(trace_id, witness)``, fired at sync
            barriers in the deterministic merged order.
        shard_subset: restrict this fleet to a subset of the global
            ``n_shards`` shard space (the *ingestion front* shape of
            :mod:`repro.runtime.net`: N fronts, each a fleet over a
            disjoint subset, together covering the space).  Routing is
            untouched -- ``shard_of`` still hashes over the global
            ``n_shards`` -- so a record whose trace hashes outside the
            subset is rejected with ``ValueError``; the caller (the
            ingest server) routes each trace to the front owning its
            shard.  ``None`` (the default) means the full space.
        tick_start / tick_step: the arithmetic progression of global
            ingest ticks this fleet stamps (record ``k`` gets tick
            ``tick_start + k*tick_step``).  Fronts interleave --
            front ``f`` of ``N`` uses ``tick_start=f+1, tick_step=N``
            -- so their tick ranges are disjoint and the merged
            violation order across fronts is deterministic, while
            idle ages keep global-stream meaning.  Durability
            requires the default ``(1, 1)`` progression (journal
            recovery claims assume +1 ticks).
    """

    def __init__(
        self,
        xi: Fraction | float | int | str | None = None,
        *,
        n_workers: int = 2,
        n_shards: int | None = None,
        batch_size: int = 32,
        event_budget: int | None = None,
        auto_retire_after: int | None = None,
        compact_threshold: float | None = None,
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        drop_faulty: bool = True,
        backend: str | Any = "process",
        start_method: str | None = None,
        wire_batch: int = 256,
        inbox_capacity: int = 16,
        rebalance: bool = True,
        monitor_factory: Callable[[TraceId], OnlineAbcMonitor] | None = None,
        monitor_specs: MonitorSpec | dict[TraceId, MonitorSpec] | None = None,
        durability: Durability | str | os.PathLike | None = None,
        on_violation: Callable[[TraceId, CycleClassification], None] | None = None,
        shard_subset: Iterable[int] | None = None,
        tick_start: int = 1,
        tick_step: int = 1,
        _restore: tuple[dict, dict] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if n_shards is None:
            n_shards = max(8, n_workers)
        if shard_subset is not None:
            shard_subset = tuple(sorted(set(shard_subset)))
            if not all(0 <= s < n_shards for s in shard_subset):
                raise ValueError(
                    f"shard_subset {shard_subset} must lie within "
                    f"range({n_shards})"
                )
            if len(shard_subset) < n_workers:
                raise ValueError(
                    f"shard_subset holds {len(shard_subset)} shards; "
                    f"every one of the {n_workers} workers needs one"
                )
        elif n_shards < n_workers:
            raise ValueError(
                f"n_shards ({n_shards}) must be at least n_workers "
                f"({n_workers}): every worker needs a shard"
            )
        if tick_step < 1:
            raise ValueError("tick_step must be positive")
        if tick_start < 1:
            raise ValueError("tick_start must be positive")
        if durability is not None and (tick_start != 1 or tick_step != 1):
            raise ValueError(
                "durability requires the default tick progression "
                "(tick_start=1, tick_step=1): journal recovery claims "
                "assume +1 ticks"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if wire_batch < 1:
            raise ValueError("wire_batch must be positive")
        if inbox_capacity < 1:
            # Queue(maxsize=0) means *unbounded* -- the opposite of
            # what a caller asking for the tightest bound intends, and
            # it silently voids the backpressure guarantee.
            raise ValueError("inbox_capacity must be positive")
        if compact_threshold is not None and compact_threshold <= 1:
            raise ValueError(
                "compact_threshold must exceed 1, got "
                f"{compact_threshold}"
            )
        if event_budget is not None and event_budget < n_workers:
            raise ValueError(
                "event_budget must be at least n_workers (every worker "
                f"needs a positive share), got {event_budget}"
            )
        if auto_retire_after is not None and auto_retire_after < 1:
            raise ValueError("auto_retire_after must be positive (or None)")
        if backend == "process":
            backend = ProcessBackend(start_method)
        elif backend == "thread":
            backend = ThreadBackend()
        elif isinstance(backend, str):
            raise ValueError(
                f"unknown backend {backend!r}: choose 'process', 'thread', "
                "or pass a backend instance"
            )
        if monitor_factory is not None and not getattr(
            backend, "supports_callables", False
        ):
            raise ValueError(
                "monitor_factory requires a shared-address-space backend "
                "(backend='thread'); it cannot cross a process boundary "
                "-- use monitor_specs for picklable configuration"
            )
        if monitor_specs is not None and not isinstance(
            monitor_specs, (MonitorSpec, dict)
        ):
            raise TypeError(
                "monitor_specs must be a MonitorSpec or a "
                "{trace_id: MonitorSpec} mapping"
            )
        if isinstance(durability, (str, os.PathLike)):
            durability = Durability(root=durability)
        self._xi = xi
        self._n_shards = n_shards
        self._n_workers = n_workers
        self._batch_size = batch_size
        self._event_budget = event_budget
        self._auto_retire_after = auto_retire_after
        self._compact_threshold = compact_threshold
        self._faulty = frozenset(faulty)
        self._drop_faulty = drop_faulty
        # A stale REPRO_KERNEL fails in the caller, not in a worker.
        resolve_kernel_name()
        self._monitor_factory = monitor_factory
        self._monitor_specs = monitor_specs
        self._inbox_capacity = inbox_capacity
        self.wire_batch = wire_batch
        self.rebalance = rebalance
        self.on_violation = on_violation
        self._backend = backend
        if isinstance(backend, ProcessBackend):
            self._backend_kind = "process"
        elif isinstance(backend, ThreadBackend):
            self._backend_kind = "thread"
        else:
            self._backend_kind = "custom"
        self._tick_start = tick_start
        self._tick_step = tick_step
        self._tick = tick_start - tick_step
        # Records accepted (== the tick only for the default +1
        # progression; a front stamping every N-th tick still counts
        # every record it accepted).
        self._ingested = 0
        self._req = 0
        self._stopped = False
        self.dropped_records = 0
        # Telemetry: the dispatcher's own registry (None when disabled)
        # plus a per-worker cache of the last collected rows, so a
        # crashed worker's contribution survives in merged snapshots
        # (the _last_report pattern).
        self._metrics: MetricsRegistry | None = (
            _obs_metrics.MetricsRegistry() if _obs_metrics.enabled() else None
        )
        self._obs: _DispatcherObs | None = (
            _DispatcherObs(self._metrics) if self._metrics is not None else None
        )
        self._last_metrics: dict[int, tuple] = {}
        # Handle stall counters already folded into the registry (the
        # handles keep cumulative counts; folding takes deltas).
        self._stall_folded: dict[int, tuple[int, int]] = {}
        # Explicit shard -> worker placement (initially the round-robin
        # split over the owned shard space; migration repoints live).
        owned = (
            tuple(range(n_shards)) if shard_subset is None else shard_subset
        )
        self._placement: dict[int, int] = (
            {int(s): int(w) for s, w in _restore[0]["placement"].items()}
            if _restore is not None
            else {s: i % n_workers for i, s in enumerate(owned)}
        )
        # The durability plane (None = PR 5 crash containment only).
        self._durability = durability
        self._durable = (
            DurableStore(
                durability.root,
                fsync=durability.fsync,
                metrics=self._metrics,
            )
            if durability is not None
            else None
        )
        self._ckpt_epoch = 0
        self._ckpt_tick = 0
        self._records_since_ckpt = 0
        self._in_checkpoint = False
        self._recoveries: dict[int, int] = {}
        # Dropped-record estimates of crashed-but-recoverable workers:
        # folded into dropped_records only if recovery fails for good.
        self._pending_drop: dict[int, int] = {}
        # Last committed checkpoint's snapshot frames, by worker.
        self._snap_cache: dict[int, tuple] = {}
        if (
            self._durable is not None
            and _restore is None
            and (self._durable.root / "meta.bin").exists()
        ):
            raise ValueError(
                f"{self._durable.root} already holds a committed fleet "
                "checkpoint; use ParallelFleet.restore() to resume it, "
                "or point durability at a fresh directory"
            )
        # Violation notices: pending rows are (tick, trace_id, wire
        # witness); once fired only (tick, trace_id) is retained -- a
        # long-running fleet must not hold every witness walk forever.
        self._pending_notices: list[tuple] = []
        self._fired_notices: list[tuple[int, TraceId]] = []
        # Worst-ratio updates piggybacked on worker messages, coalesced
        # last-wins per trace (wire-encoded fractions); drained by the
        # delta plane via drain_ratio_updates().
        self._ratio_updates: dict[TraceId, tuple[int, int] | None] = {}
        # Per-shard outgoing buffers of (tick, trace_id, encoded record).
        self._buffers: dict[int, list[tuple]] = {}
        # trace id -> shard memo: routing hashes each id once, not once
        # per record (the ingest hot path).  Bounded: on unbounded
        # trace populations (the workloads auto-retirement and the
        # event budget exist to survive) the memo is cleared and
        # rebuilt rather than growing one entry per id forever --
        # routing is a cheap pure function, the memo is only a cache.
        self._route: dict[TraceId, int] = {}
        self._route_memo_max = 1 << 18
        # Worker bookkeeping.
        self._dead: dict[int, str] = {}
        # Records shipped per worker: reconciles in-flight loss when a
        # worker crashes (see _mark_dead).
        self._shipped: dict[int, int] = {}
        self._live_cache: dict[int, int] = {}
        self._epoch_peak: dict[int, int] = {}
        self._last_report: dict[int, tuple] = {}
        self._peak = 0
        if _restore is not None:
            self._shares: dict[int, int | None] = {
                int(w): share for w, share in _restore[0]["shares"].items()
            }
        else:
            share = None
            if event_budget is not None:
                share = event_budget // n_workers
            self._shares = {
                w: (share + 1 if share is not None
                    and w < event_budget - share * n_workers else share)
                for w in range(n_workers)
            }
        self._handles: list[WorkerHandle] = []
        for worker_id in range(n_workers):
            self._handles.append(
                backend.spawn(
                    worker_id,
                    self.shards_of_worker(worker_id),
                    self._worker_config(worker_id),
                    inbox_capacity,
                )
            )
        if _restore is not None:
            meta = _restore[0]
            self._tick = meta["tick"]
            self._ingested = meta["tick"]
            self._ckpt_epoch = meta["epoch"]
            self._ckpt_tick = meta["tick"]
            self._fired_notices = list(meta["fired_notices"])
            self.dropped_records = meta["dropped_records"]
            self._peak = meta["peak"]
            self._recoveries = {
                int(w): n for w, n in meta["recoveries"].items()
            }
            self._dead = {int(w): r for w, r in meta["dead"].items()}
        elif self._durable is not None:
            # Epoch-1 baseline: empty snapshots plus the full
            # configuration, so both worker recovery and a whole-fleet
            # restore work before the first periodic checkpoint.
            self._checkpoint()

    def _worker_config(self, worker_id: int) -> dict[str, Any]:
        """The spawn-time config dict (also used by recovery respawns)."""
        config = {
            "xi": codec.encode_fraction(
                None if self._xi is None else Fraction(self._xi)
            ),
            "batch_size": self._batch_size,
            "event_budget": self._shares.get(worker_id),
            "auto_retire_after": self._auto_retire_after,
            "compact_threshold": self._compact_threshold,
            "faulty": tuple(self._faulty),
            "drop_faulty": self._drop_faulty,
            "monitor_specs": codec.encode_specs(self._monitor_specs),
            # Pin the parent's telemetry setting in the child: fork
            # inherits it anyway, spawn would re-read only REPRO_OBS
            # and miss a programmatic set_enabled().
            "obs": _obs_metrics.enabled(),
        }
        if self._monitor_factory is not None:
            config["monitor_factory"] = self._monitor_factory
        return config

    # ------------------------------------------------------------------
    # spawn-time configuration (read-only: these were shipped to the
    # workers at spawn, and there is no re-propagation protocol --
    # unlike the serial fleet's in-process retunable properties, a
    # write here would change only what report() echoes while every
    # worker kept the old value.  Assignment therefore raises instead
    # of silently lying.)
    # ------------------------------------------------------------------

    @property
    def xi(self) -> Fraction | float | int | str | None:
        return self._xi

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def event_budget(self) -> int | None:
        return self._event_budget

    # ------------------------------------------------------------------
    # routing and low-level messaging
    # ------------------------------------------------------------------

    def shard_of(self, trace_id: TraceId) -> int:
        """The (serial-identical) shard index ``trace_id`` routes to."""
        return _shard_index(trace_id, self.n_shards)

    def worker_of(self, shard_index: int) -> int:
        """The worker currently owning a shard (placement-table read;
        initially the round-robin split, repointed by migration)."""
        return self._placement[shard_index]

    def shards_of_worker(self, worker_id: int) -> tuple[int, ...]:
        return tuple(
            sorted(
                shard
                for shard, owner in self._placement.items()
                if owner == worker_id
            )
        )

    @property
    def placement(self) -> dict[int, int]:
        """A copy of the shard -> worker placement table."""
        return dict(self._placement)

    def crashed_shards(self) -> tuple[int, ...]:
        """Shards owned by dead workers, ascending (empty = all healthy)."""
        return tuple(
            sorted(
                shard
                for worker_id in self._dead
                for shard in self.shards_of_worker(worker_id)
            )
        )

    def _require_alive(self, worker_id: int) -> WorkerHandle:
        if worker_id in self._dead and not self._try_recover(worker_id):
            raise self._crash_error(worker_id)
        return self._handles[worker_id]

    def _mark_dead(self, worker_id: int, reason: str) -> None:
        if worker_id in self._dead:
            return
        # Salvage whatever the worker managed to say (its crash message
        # carries the original traceback).
        handle = self._handles[worker_id]
        while True:
            message = handle.get_nowait()
            if message is None:
                break
            kind = message[0]
            if kind == "crash":
                reason = message[2]
            elif kind == "reply":
                # A reply that raced the crash past the grace read in
                # WorkerHandle.get (a process queue's feeder thread can
                # lag the exit): its request already failed, so drop
                # the payload but keep the piggybacked notices and
                # telemetry -- and never let it escape as a protocol
                # violation, which would crash the dispatcher inside
                # the crash-containment path itself.
                _k, _rid, _payload, notices, ratios, live, peak = message
                self._pending_notices.extend(notices)
                self._ratio_updates.update(ratios)
                self._live_cache[worker_id] = live
                self._epoch_peak[worker_id] = peak
            else:
                self._absorb(worker_id, message)
        self._dead[worker_id] = reason
        logger.error(
            "containing crash of worker %d (shards %s): %s",
            worker_id,
            ",".join(map(str, self.shards_of_worker(worker_id))),
            reason,
        )
        # Batches already handed to the queue but never absorbed are
        # gone with the worker; account them so records +
        # dropped_records reconciles against the ingest count.  The
        # worker's absorbed total comes from its last-synced report --
        # anything it absorbed after that sync is over-counted as
        # dropped (a conservative, never-silent estimate).
        last = self._last_report.get(worker_id)
        absorbed = (
            sum(codec.decode_stats(row).records for row in last[0])
            if last is not None
            else 0
        )
        estimate = max(0, self._shipped.get(worker_id, 0) - absorbed)
        if self._recoverable(worker_id):
            # Recovery will replay these records from the journal; the
            # estimate is only charged if recovery fails for good.
            self._pending_drop[worker_id] = estimate
        else:
            self.dropped_records += estimate + self._pending_drop.pop(
                worker_id, 0
            )

    def _recoverable(self, worker_id: int) -> bool:
        return (
            self._durable is not None
            and not self._stopped
            and self._recoveries.get(worker_id, 0)
            < self._durability.max_recoveries
        )

    def _try_recover(self, worker_id: int) -> bool:
        """Respawn a dead worker from its snapshot + journal suffix.

        Returns ``True`` when the worker is (back) alive.  One attempt
        per call, ``max_recoveries`` attempts per worker overall: a
        deterministic poison record crashes the respawn during replay,
        burns one attempt, and eventually leaves the worker dead -- the
        PR 5 degraded-shards behavior, now a fallback instead of the
        only answer.
        """
        if worker_id not in self._dead:
            return True
        if not self._recoverable(worker_id):
            self.dropped_records += self._pending_drop.pop(worker_id, 0)
            return False
        self._recoveries[worker_id] = (
            self._recoveries.get(worker_id, 0) + 1
        )
        logger.info(
            "recovering worker %d (attempt %d of %d)",
            worker_id,
            self._recoveries[worker_id],
            self._durability.max_recoveries,
        )
        shards = self.shards_of_worker(worker_id)
        handle = self._backend.spawn(
            worker_id,
            shards,
            self._worker_config(worker_id),
            self._inbox_capacity,
        )
        self._handles[worker_id] = handle
        del self._dead[worker_id]
        self._live_cache[worker_id] = 0
        self._epoch_peak[worker_id] = 0
        self._stall_folded[worker_id] = (0, 0)
        replayed = 0
        try:
            snap = self._snap_cache.get(worker_id)
            if snap is not None:
                self._request(worker_id, ("restore", snap))
            # Replay the journal suffix.  Records still sitting in the
            # dispatcher's per-shard buffers were journaled at ingest
            # time too, so the replay delivers them as well -- drop the
            # buffers to keep delivery exactly-once.
            frames = self._durable.wal_frames(worker_id, self._ckpt_tick)
            by_shard: dict[int, list[tuple]] = {}
            for tick, shard, trace_id, wire in frames:
                by_shard.setdefault(shard, []).append(
                    (tick, trace_id, wire)
                )
            for shard in sorted(by_shard):
                replayed += len(by_shard[shard])
                handle.put(("ingest", shard, by_shard[shard]))
            for shard in shards:
                self._buffers.pop(shard, None)
            self._request(worker_id, ("fence", self._tick))
        except WorkerCrashed:
            logger.warning(
                "recovery of worker %d crashed during replay", worker_id
            )
            return False
        # Replay re-detects violations whose first notice already fired
        # before the crash (the snapshot predates the detection); keep
        # callbacks once-per-detection by dropping those re-detections.
        fired = {trace_id for _tick, trace_id in self._fired_notices}
        owned = set(shards)
        self._pending_notices = [
            notice
            for notice in self._pending_notices
            if not (
                notice[1] in fired and self.shard_of(notice[1]) in owned
            )
        ]
        # Refresh the last-synced report so future crash accounting
        # starts from the recovered state, not the pre-crash one.
        try:
            reply = self._request(worker_id, ("report", self._tick))
        except WorkerCrashed:
            return False
        self._last_report[worker_id] = reply
        self._shipped[worker_id] = sum(
            codec.decode_stats(row).records for row in reply[0]
        )
        self._pending_drop.pop(worker_id, None)
        logger.info(
            "worker %d recovered: %d journal records replayed",
            worker_id,
            replayed,
        )
        if self._obs is not None:
            self._obs.recoveries.inc()
            self._obs.replayed.inc(replayed)
        return True

    def _absorb(self, worker_id: int, message: tuple) -> None:
        """Handle one unsolicited outbound message."""
        kind = message[0]
        if kind == "notices":
            _kind, notices, ratios, live, peak = message
            self._pending_notices.extend(notices)
            self._ratio_updates.update(ratios)
            self._live_cache[worker_id] = live
            self._epoch_peak[worker_id] = peak
        elif kind == "crash":
            self._mark_dead(worker_id, message[2])
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(
                f"unexpected message from worker {worker_id}: {message[0]!r}"
            )

    def _drain(self, worker_id: int) -> None:
        handle = self._handles[worker_id]
        while worker_id not in self._dead:
            message = handle.get_nowait()
            if message is None:
                return
            self._absorb(worker_id, message)

    def _post(self, worker_id: int, message: tuple) -> int:
        """Send a request (reply collected separately); returns req id."""
        self._req += 1
        handle = self._require_alive(worker_id)
        try:
            handle.put((message[0], self._req, *message[1:]))
        except WorkerCrashed as exc:
            self._mark_dead(worker_id, str(exc))
            raise self._crash_error(worker_id) from None
        return self._req

    def _collect(self, worker_id: int, req_id: int) -> Any:
        """Await one worker's reply, absorbing unsolicited messages."""
        handle = self._handles[worker_id]
        while True:
            try:
                message = handle.get()
            except WorkerCrashed as exc:
                self._mark_dead(worker_id, str(exc))
                raise self._crash_error(worker_id) from None
            if message[0] == "reply":
                _kind, rid, payload, notices, ratios, live, peak = message
                self._pending_notices.extend(notices)
                self._ratio_updates.update(ratios)
                self._live_cache[worker_id] = live
                self._epoch_peak[worker_id] = peak
                if rid != req_id:  # pragma: no cover - protocol violation
                    raise RuntimeError(
                        f"worker {worker_id} answered request {rid}, "
                        f"expected {req_id}"
                    )
                if payload[0] == "err":
                    _ok, kind, text = payload
                    if kind == "KeyError":
                        raise KeyError(text)
                    raise RuntimeError(text)  # pragma: no cover
                return payload[1]
            self._absorb(worker_id, message)

    def _crash_error(self, worker_id: int) -> WorkerCrashed:
        return WorkerCrashed(
            f"worker {worker_id} crashed; shards "
            f"{self.shards_of_worker(worker_id)} are degraded.\n"
            f"{self._dead.get(worker_id, '')}"
        )

    def _request(self, worker_id: int, message: tuple) -> Any:
        return self._collect(worker_id, self._post(worker_id, message))

    def _require_running(self) -> None:
        """Queries and barriers against stopped workers would otherwise
        misread the silence as a fleet-wide crash (review finding):
        after shutdown() the workers are *gone*, not dead."""
        if self._stopped:
            raise RuntimeError("the fleet has been shut down")

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest(self, trace_id: TraceId, record: ReceiveRecord) -> None:
        """Route one record towards its shard's worker.

        O(1) buffering: the record joins its shard's outgoing batch and
        ships when the batch reaches ``wire_batch`` records (or at the
        next barrier).  Records for a crashed worker's shards are
        dropped and counted in :attr:`dropped_records` -- ingestion
        never stalls on a dead peer.  When a worker crashes,
        ``dropped_records`` also absorbs a conservative estimate of the
        records it had been shipped but never reported absorbing (its
        last-synced counters), so ``report().records +
        dropped_records`` reconciles against the ingest count instead
        of silently under-reporting in-flight loss.
        """
        self.ingest_wire(trace_id, codec.encode_record(record))

    def ingest_wire(self, trace_id: TraceId, wire_record: tuple) -> None:
        """:meth:`ingest` for an already-encoded record: the zero-copy
        entry of the network ingestion plane, where producers ship
        codec wire tuples and the server hands them through without a
        decode/re-encode round trip."""
        if self._stopped:
            raise RuntimeError("the fleet has been shut down")
        shard = self._route.get(trace_id)
        if shard is None:
            # Routing first: a subset-rejected record must not burn a
            # tick (fronts share the global tick space).
            shard = self._route_miss(trace_id)
        self._tick += self._tick_step
        self._ingested += 1
        buffer = self._buffers.setdefault(shard, [])
        buffer.append((self._tick, trace_id, wire_record))
        if self._durable is not None:
            self._durable.append(
                self._placement[shard],
                self._tick,
                shard,
                trace_id,
                wire_record,
            )
            self._records_since_ckpt += 1
        if len(buffer) >= self.wire_batch:
            self._ship(shard)
            self._maybe_checkpoint()

    def _route_miss(self, trace_id: TraceId) -> int:
        """Fill the routing memo for one trace, validating subset
        ownership (a front must never silently buffer a record for a
        shard another front owns)."""
        if len(self._route) >= self._route_memo_max:
            self._route.clear()
        shard = self.shard_of(trace_id)
        if shard not in self._placement:
            raise ValueError(
                f"trace {trace_id!r} hashes to shard {shard}, which this "
                "fleet does not own -- route it to the front whose "
                "shard_subset holds that shard"
            )
        self._route[trace_id] = shard
        return shard

    def ingest_many(
        self, stream: Iterable[tuple[TraceId, ReceiveRecord]]
    ) -> None:
        """Consume an interleaved ``(trace_id, record)`` stream; the
        per-shard wire batching makes this the grouped bulk path by
        construction."""
        # The ingest hot loop, manually inlined: the per-record call
        # overhead of ingest() is measurable against a 2-worker speedup
        # floor on >10^4-record streams.
        if self._stopped:
            raise RuntimeError("the fleet has been shut down")
        route = self._route
        buffers = self._buffers
        encode = codec.encode_record
        wire_batch = self.wire_batch
        durable = self._durable
        placement = self._placement
        step = self._tick_step
        tick = self._tick
        accepted = 0
        try:
            for trace_id, record in stream:
                shard = route.get(trace_id)
                if shard is None:
                    shard = self._route_miss(trace_id)
                tick += step
                accepted += 1
                buffer = buffers.get(shard)
                if buffer is None:
                    buffer = buffers[shard] = []
                wire = encode(record)
                buffer.append((tick, trace_id, wire))
                if durable is not None:
                    durable.append(
                        placement[shard], tick, shard, trace_id, wire
                    )
                    self._records_since_ckpt += 1
                if len(buffer) >= wire_batch:
                    self._tick = tick
                    self._ship(shard)
                    if durable is not None:
                        self._maybe_checkpoint()
        finally:
            # Even when the *stream* raises mid-iteration, the ticks
            # already stamped onto buffered records must never be
            # reissued -- duplicate ticks would corrupt idle ages and
            # the deterministic violation-merge keys.
            self._tick = tick
            self._ingested += accepted

    def ingest_wire_many(
        self, rows: Iterable[tuple[TraceId, tuple]]
    ) -> None:
        """Bulk :meth:`ingest_wire`: consume ``(trace_id, wire_record)``
        rows.  The ingestion front's hot loop -- produce frames arrive
        as wire rows, and re-encoding (or even decoding) each record
        on the dispatch path would pay the codec twice per record.
        """
        if self._stopped:
            raise RuntimeError("the fleet has been shut down")
        route = self._route
        buffers = self._buffers
        wire_batch = self.wire_batch
        durable = self._durable
        placement = self._placement
        step = self._tick_step
        tick = self._tick
        accepted = 0
        try:
            for trace_id, wire in rows:
                shard = route.get(trace_id)
                if shard is None:
                    shard = self._route_miss(trace_id)
                tick += step
                accepted += 1
                buffer = buffers.get(shard)
                if buffer is None:
                    buffer = buffers[shard] = []
                buffer.append((tick, trace_id, wire))
                if durable is not None:
                    durable.append(
                        placement[shard], tick, shard, trace_id, wire
                    )
                    self._records_since_ckpt += 1
                if len(buffer) >= wire_batch:
                    self._tick = tick
                    self._ship(shard)
                    if durable is not None:
                        self._maybe_checkpoint()
        finally:
            self._tick = tick
            self._ingested += accepted

    def ingest_wire_columns(
        self,
        trace_ids: Sequence[TraceId],
        wire_records: Sequence[tuple],
    ) -> None:
        """Columnar :meth:`ingest_wire_many`: the same rows as two
        parallel columns, re-paired with one C-speed ``zip``.  A ragged
        frame (column lengths disagree) raises ``ValueError`` here,
        before any row is buffered.
        """
        if len(trace_ids) != len(wire_records):
            raise ValueError(
                f"ragged columnar frame: {len(trace_ids)} trace ids, "
                f"{len(wire_records)} records"
            )
        self.ingest_wire_many(zip(trace_ids, wire_records))

    def _ship(self, shard: int) -> None:
        batch = self._buffers.pop(shard, None)
        if not batch:
            return
        obs = self._obs
        route_start = 0 if obs is None else time.perf_counter_ns()
        worker_id = self.worker_of(shard)
        if worker_id in self._dead:
            if self._try_recover(worker_id):
                # The popped batch was journaled at ingest time, so the
                # recovery replay already delivered it.
                return
            self.dropped_records += len(batch)
            return
        handle = self._handles[worker_id]
        if self._durable is not None:
            # Write-ahead: the journal holds every record before its
            # wire batch leaves the dispatcher.
            self._durable.flush(worker_id)
        try:
            handle.put(("ingest", shard, batch))
        except WorkerCrashed as exc:
            self._mark_dead(worker_id, str(exc))
            if self._try_recover(worker_id):
                return  # journaled above; the replay delivered it
            self.dropped_records += len(batch)
            return
        self._shipped[worker_id] = self._shipped.get(worker_id, 0) + len(
            batch
        )
        if obs is not None:
            obs.route_ns.observe(time.perf_counter_ns() - route_start)
            obs.shipped.inc(len(batch))
            obs.batches.inc()
            obs.batch_records.observe(len(batch))
        # Opportunistic drain keeps violation notices (and live-event
        # telemetry) flowing during long pure-ingest phases.
        self._drain(worker_id)

    def _ship_all(self) -> None:
        for shard in sorted(self._buffers):
            self._ship(shard)

    # ------------------------------------------------------------------
    # barriers, rebalancing, violation firing
    # ------------------------------------------------------------------

    def _alive_workers(self) -> list[int]:
        return [w for w in range(self.n_workers) if w not in self._dead]

    def _barrier(self, command: str) -> dict[int, Any]:
        """Ship everything buffered, run one command on every live
        worker (pipelined: all posted, then all collected), note the
        epoch watermark, fire pending violations, maybe rebalance."""
        if self._durable is not None:
            for worker_id in list(self._dead):
                self._try_recover(worker_id)
        self._ship_all()
        posted: dict[int, int] = {}
        for worker_id in self._alive_workers():
            try:
                posted[worker_id] = self._post(
                    worker_id, (command, self._tick)
                )
            except WorkerCrashed:
                continue
        replies: dict[int, Any] = {}
        for worker_id, req_id in posted.items():
            try:
                replies[worker_id] = self._collect(worker_id, req_id)
            except WorkerCrashed:
                continue
        self._note_peak()
        self._fire_pending()
        if self.rebalance:
            self._rebalance()
        return replies

    def _note_peak(self) -> None:
        candidate = sum(self._epoch_peak.values())
        if candidate > self._peak:
            self._peak = candidate

    def _fire_pending(self) -> None:
        if not self._pending_notices:
            return
        batch = sorted(
            self._pending_notices, key=lambda n: (n[0], str(n[1]))
        )
        self._pending_notices.clear()
        self._fired_notices.extend(
            (tick, trace_id) for tick, trace_id, _w in batch
        )
        if self.on_violation is not None:
            for wire in batch:
                _tick, trace_id, witness = codec.decode_notice(wire)
                self.on_violation(trace_id, witness)

    def _rebalance(self) -> None:
        """Re-apportion the global budget by live-event demand.

        Demand-proportional with a per-worker floor (a quarter of the
        even split): a worker holding most of the fleet's live events
        gets most of the budget, so a skewed population does not
        overrun one worker's share while others idle under theirs.
        Each share change closes that worker's budget epoch (its peak
        watermark is collected pre-reset and folded into the fleet
        watermark) -- the accounting that keeps ``peak_live_events``
        sound across rebalances.
        """
        budget = self.event_budget
        alive = self._alive_workers()
        if budget is None or len(alive) < 1:
            return
        floor = max(1, budget // (4 * self.n_workers))
        demand = {w: self._live_cache.get(w, 0) + 1 for w in alive}
        total_demand = sum(demand.values())
        spendable = budget - floor * len(alive)
        if spendable < 0:
            shares = {w: budget // len(alive) for w in alive}
        else:
            shares = {
                w: floor + spendable * demand[w] // total_demand
                for w in alive
            }
        changed = {
            w: share
            for w, share in shares.items()
            if share != self._shares.get(w)
        }
        if not changed:
            return
        posted: dict[int, int] = {}
        for worker_id, share in changed.items():
            try:
                posted[worker_id] = self._post(
                    worker_id, ("budget", share)
                )
            except WorkerCrashed:
                continue
            self._shares[worker_id] = share
        for worker_id, req_id in posted.items():
            try:
                epoch_peak = self._collect(worker_id, req_id)
            except WorkerCrashed:
                continue
            # Fold the *closed* epoch into the fleet watermark together
            # with the other workers' current-epoch peaks.
            current = dict(self._epoch_peak)
            current[worker_id] = epoch_peak
            candidate = sum(current.values())
            if candidate > self._peak:
                self._peak = candidate

    # ------------------------------------------------------------------
    # durability: checkpoints and whole-fleet restore
    # ------------------------------------------------------------------

    @property
    def ingested_records(self) -> int:
        """Records accepted so far.  After :meth:`restore` this is the
        count the recovered state provably covers -- the producer
        resumes feeding from here.  (Equal to the last stamped tick
        only under the default +1 tick progression; an interleaved
        front counts its own records.)"""
        return self._ingested

    def _maybe_checkpoint(self) -> None:
        every = (
            None
            if self._durability is None
            else self._durability.checkpoint_every
        )
        if (
            every is not None
            and self._records_since_ckpt >= every
            and not self._in_checkpoint
        ):
            self._checkpoint()

    def checkpoint(self) -> None:
        """Commit a durable checkpoint now (snapshot barrier + journal
        reset).  Periodic checkpoints run automatically every
        ``Durability.checkpoint_every`` records; this forces one."""
        self._require_running()
        if self._durable is None:
            raise RuntimeError("this fleet has no durability configured")
        self._checkpoint()

    def _checkpoint(self) -> None:
        if self._in_checkpoint:
            return
        self._in_checkpoint = True
        try:
            # A worker whose death is first *detected* inside the
            # snapshot barrier contributes no snapshot to that round.
            # Committing anyway would delete the journal frames its
            # recovery still needs (and evict its cached snapshot) --
            # silent state loss.  So: while any dead worker is still
            # recoverable, recover it (the barrier preamble does) and
            # re-run the barrier.  Each failed attempt burns recovery
            # budget, so the loop terminates; a worker that exhausts
            # its budget is dropped from the checkpoint exactly like
            # any other permanently-degraded worker.
            while True:
                snapshots = self._barrier("snapshot")
                if not any(
                    self._recoverable(worker_id)
                    for worker_id in self._dead
                ):
                    break
            self._snap_cache = dict(snapshots)
            meta = {
                "epoch": self._ckpt_epoch + 1,
                "tick": self._tick,
                "placement": dict(self._placement),
                "shares": dict(self._shares),
                "fired_notices": list(self._fired_notices),
                "dropped_records": self.dropped_records,
                "peak": self._peak,
                "recoveries": dict(self._recoveries),
                "dead": dict(self._dead),
                "config": self._config_meta(),
            }
            self._durable.checkpoint(meta, snapshots)
            self._ckpt_epoch = meta["epoch"]
            self._ckpt_tick = self._tick
            self._records_since_ckpt = 0
        finally:
            self._in_checkpoint = False

    def _config_meta(self) -> dict[str, Any]:
        return {
            "xi": codec.encode_fraction(
                None if self._xi is None else Fraction(self._xi)
            ),
            "n_workers": self._n_workers,
            "n_shards": self._n_shards,
            "batch_size": self._batch_size,
            "event_budget": self._event_budget,
            "auto_retire_after": self._auto_retire_after,
            "compact_threshold": self._compact_threshold,
            "faulty": tuple(self._faulty),
            "drop_faulty": self._drop_faulty,
            "backend": self._backend_kind,
            "wire_batch": self.wire_batch,
            "inbox_capacity": self._inbox_capacity,
            "rebalance": self.rebalance,
            "monitor_specs": codec.encode_specs(self._monitor_specs),
            "checkpoint_every": self._durability.checkpoint_every,
            "fsync": self._durability.fsync,
            "max_recoveries": self._durability.max_recoveries,
        }

    @classmethod
    def restore(
        cls,
        path: str | os.PathLike,
        *,
        backend: str | Any | None = None,
        start_method: str | None = None,
        on_violation: Callable[[TraceId, CycleClassification], None]
        | None = None,
    ) -> "ParallelFleet":
        """Rebuild a fleet from its durability directory after a full
        process restart.

        Workers are respawned with the committed placement, handed
        their checkpoint snapshots, and replayed the journals'
        contiguous tick prefix; per-trace worst ratios, degraded flags
        and violating sets are bit-identical to the state the journals
        cover.  The producer resumes from ``fleet.ingested_records``
        (records past the contiguous journal frontier were never made
        durable and must be re-fed).

        ``monitor_factory`` fleets cannot restore (a callable is not in
        the metadata); everything declarative -- including
        ``monitor_specs`` -- round-trips.
        """
        store = DurableStore(path)
        loaded = store.load()
        if loaded is None:
            raise FileNotFoundError(
                f"no committed fleet checkpoint under {path}"
            )
        meta, snapshots = loaded
        cfg = meta["config"]
        if backend is None:
            backend = cfg["backend"]
            if backend == "custom":
                raise ValueError(
                    "this fleet ran on a custom backend instance; pass "
                    "backend=... to restore()"
                )
        durability = Durability(
            root=path,
            checkpoint_every=cfg["checkpoint_every"],
            fsync=cfg["fsync"],
            max_recoveries=cfg["max_recoveries"],
        )
        fleet = cls(
            codec.decode_fraction(cfg["xi"]),
            n_workers=cfg["n_workers"],
            n_shards=cfg["n_shards"],
            batch_size=cfg["batch_size"],
            event_budget=cfg["event_budget"],
            auto_retire_after=cfg["auto_retire_after"],
            compact_threshold=cfg["compact_threshold"],
            faulty=frozenset(cfg["faulty"]),
            drop_faulty=cfg["drop_faulty"],
            backend=backend,
            start_method=start_method,
            wire_batch=cfg["wire_batch"],
            inbox_capacity=cfg["inbox_capacity"],
            rebalance=cfg["rebalance"],
            monitor_specs=codec.decode_specs(cfg["monitor_specs"]),
            durability=durability,
            on_violation=on_violation,
            _restore=(meta, snapshots),
        )
        fleet._finish_restore(snapshots)
        return fleet

    def _finish_restore(self, snapshots: dict[int, tuple]) -> None:
        self._snap_cache = dict(snapshots)
        # Post every snapshot before collecting any ack: each worker
        # decodes its frame concurrently instead of one at a time, and
        # the replay batches below queue up behind the restore in the
        # same FIFO inbox, so ordering needs no round trip.
        acks: dict[int, int] = {}
        for worker_id, frame in snapshots.items():
            if worker_id in self._dead:
                continue
            acks[worker_id] = self._post(worker_id, ("restore", frame))
        # Per-worker journals flush at different moments, so only the
        # contiguous tick prefix of their union is a stream prefix the
        # restored fleet can honestly claim.
        frames: list[tuple] = []
        for worker_id in range(self.n_workers):
            frames.extend(
                self._durable.wal_frames(worker_id, self._ckpt_tick)
            )
        prefix, last_tick = contiguous_prefix(frames, self._ckpt_tick)
        by_shard: dict[int, list[tuple]] = {}
        for tick, shard, trace_id, wire in prefix:
            by_shard.setdefault(shard, []).append((tick, trace_id, wire))
        for shard in sorted(by_shard):
            worker_id = self._placement[shard]
            if worker_id in self._dead:
                continue
            self._handles[worker_id].put(("ingest", shard, by_shard[shard]))
        for worker_id, req_id in acks.items():
            self._collect(worker_id, req_id)
        self._tick = last_tick
        self._ingested = last_tick
        # Normalize the journals to the claimed prefix: frames beyond
        # the contiguous frontier carry ticks the resumed producer will
        # legitimately reissue, so they must not survive on disk.
        by_worker: dict[int, list[tuple]] = {}
        for frame in prefix:
            by_worker.setdefault(self._placement[frame[1]], []).append(
                frame
            )
        for worker_id in range(self.n_workers):
            write_frames(
                self._durable.wal_path(worker_id),
                by_worker.get(worker_id, []),
            )
        # One report barrier: syncs the replay (fence-by-FIFO), fires
        # re-detected post-checkpoint violations, and refreshes the
        # crash-accounting baselines.
        replies = self._barrier("report")
        self._last_report.update(replies)
        for worker_id, reply in replies.items():
            self._shipped[worker_id] = sum(
                codec.decode_stats(row).records for row in reply[0]
            )

    # ------------------------------------------------------------------
    # placement: live migration and skew rebalancing
    # ------------------------------------------------------------------

    def migrate_shard(self, shard_index: int, dest: int) -> None:
        """Move one live shard -- open traces, retired summaries,
        counters -- to worker ``dest``.

        Protocol: ship the shard's buffered records, export on the
        source (the request doubles as a fence behind the shipped
        batch), import on the destination, repoint the placement
        table.  Routing of *traces to shards* is untouched, so reported
        ratios cannot change; under durability the move commits a
        checkpoint, keeping journals and snapshots
        placement-consistent.
        """
        self._require_running()
        if shard_index not in self._placement:
            raise ValueError(f"unknown shard {shard_index}")
        if not 0 <= dest < self.n_workers:
            raise ValueError(f"unknown worker {dest}")
        src = self._placement[shard_index]
        if src == dest:
            return
        if len(self.shards_of_worker(src)) <= 1:
            raise ValueError(
                f"migrating shard {shard_index} would leave worker "
                f"{src} shardless"
            )
        for worker_id in (src, dest):
            if worker_id in self._dead and not self._try_recover(worker_id):
                raise self._crash_error(worker_id)
        self._ship(shard_index)
        frame = self._request(src, ("export_shard", shard_index))
        self._request(dest, ("import_shard", frame))
        self._placement[shard_index] = dest
        if self._durable is not None:
            self._checkpoint()

    def rebalance_placement(
        self, threshold: float = 2.0
    ) -> list[tuple[int, int, int]]:
        """Unpin hash-skewed placements: migrate the heaviest shards
        off every worker whose live-event share exceeds ``threshold``
        times the mean, onto the lightest workers.

        A skewed trace-id population can land most live events on one
        worker forever -- budget-share rebalancing only moves *budget*
        toward the hot worker, never load off it.  Returns the moves
        performed as ``(shard, source_worker, dest_worker)`` tuples
        (empty when nothing exceeded the threshold).
        """
        self._require_running()
        if threshold <= 1:
            raise ValueError("threshold must exceed 1")
        replies = self._barrier("report")
        self._last_report.update(replies)
        shard_live: dict[int, int] = {}
        for reply in replies.values():
            for row in reply[0]:
                stats = codec.decode_stats(row)
                shard_live[stats.shard] = stats.live_events
        alive = self._alive_workers()
        if len(alive) < 2:
            return []
        loads = {
            w: sum(
                shard_live.get(s, 0) for s in self.shards_of_worker(w)
            )
            for w in alive
        }
        mean = sum(loads.values()) / len(alive)
        if mean <= 0:
            return []
        moves: list[tuple[int, int, int]] = []
        for src in sorted(loads, key=lambda w: loads[w], reverse=True):
            while (
                loads[src] > threshold * mean
                and len(self.shards_of_worker(src)) > 1
            ):
                shard = max(
                    self.shards_of_worker(src),
                    key=lambda s: shard_live.get(s, 0),
                )
                dest = min(
                    (w for w in alive if w != src), key=lambda w: loads[w]
                )
                weight = shard_live.get(shard, 0)
                if loads[dest] + weight >= loads[src]:
                    break  # the move would only relocate the skew
                self.migrate_shard(shard, dest)
                loads[src] -= weight
                loads[dest] += weight
                moves.append((shard, src, dest))
        return moves

    # ------------------------------------------------------------------
    # the serial surface
    # ------------------------------------------------------------------

    def flush(self, trace_id: TraceId | None = None) -> None:
        """Absorb pending records (of one trace, or of every trace).

        A full flush is a sync barrier: violation callbacks fire here,
        in the deterministic merged order."""
        self._require_running()
        if trace_id is None:
            self._barrier("flush")
            return
        shard = self.shard_of(trace_id)
        self._ship(shard)
        self._request(
            self.worker_of(shard), ("flush_trace", shard, trace_id)
        )

    def close(self, trace_id: TraceId | None = None) -> TraceSummary | None:
        """Retire one finished trace -- or, with no argument, the whole
        fleet (an alias for :meth:`shutdown`, the context-manager exit
        path; idempotent, and ``ingest`` afterwards raises a clear
        ``RuntimeError`` instead of a backend-specific crash)."""
        if trace_id is None:
            self.shutdown()
            return None
        self._require_running()
        shard = self.shard_of(trace_id)
        self._ship(shard)
        wire = self._request(
            self.worker_of(shard), ("close", shard, trace_id)
        )
        # A closed trace usually never returns; drop its routing memo
        # entry (recomputed cheaply if it reopens).
        self._route.pop(trace_id, None)
        return codec.decode_summary(wire)

    def worst_ratio(self, trace_id: TraceId) -> Fraction | None:
        """The trace's exact running worst relevant ratio (its pending
        records shipped and flushed first)."""
        self._require_running()
        shard = self.shard_of(trace_id)
        self._ship(shard)
        wire = self._request(
            self.worker_of(shard), ("ratio", shard, trace_id)
        )
        return codec.decode_fraction(wire)

    def is_degraded(self, trace_id: TraceId) -> bool:
        self._require_running()
        shard = self.shard_of(trace_id)
        self._ship(shard)
        return self._request(
            self.worker_of(shard), ("degraded", shard, trace_id)
        )

    def all_ratios(self) -> list[tuple[TraceId, Fraction | None]]:
        """(trace id, worst ratio) for every known trace, merged across
        workers (a sync barrier; the serial fleet's ``all_ratios``)."""
        self._require_running()
        replies = self._barrier("ratios")
        out: list[tuple[TraceId, Fraction | None]] = []
        for worker_id in sorted(replies):
            out.extend(
                (trace_id, codec.decode_fraction(wire))
                for trace_id, wire in replies[worker_id]
            )
        return out

    def violating_traces(self) -> tuple[TraceId, ...]:
        """Ids of violating traces in the deterministic merged order
        (ascending trigger tick, trace id as tie-break)."""
        self._require_running()
        self._barrier("flush")
        return violating_ids(self._fired_notices)

    # ------------------------------------------------------------------
    # the push-based delta surface (see repro.runtime.net.deltas)
    # ------------------------------------------------------------------

    def drain_ratio_updates(self) -> dict[TraceId, Fraction | None]:
        """Worst-ratio changes accumulated since the last drain,
        coalesced last-wins per trace.

        Workers piggyback a row on every outbound message whenever a
        trace's merged worst ratio grows (or a trace opens), so this is
        a *push* feed: no barrier, no full scan -- the dispatcher only
        reports what already arrived.  Values are exact and monotone
        per trace; a consumer folding them into a map converges on
        :meth:`worst_ratio`'s answers for every trace after a final
        :meth:`flush`.  Draining transfers ownership: each update is
        returned once."""
        if not self._ratio_updates:
            return {}
        out = {
            trace_id: codec.decode_fraction(wire)
            for trace_id, wire in self._ratio_updates.items()
        }
        self._ratio_updates.clear()
        return out

    def violation_feed(self) -> tuple[tuple[int, TraceId], ...]:
        """Every violation known so far -- fired *and* still pending --
        as ``(tick, trace_id)`` rows in the deterministic merged order.

        Unlike :meth:`violating_traces` this is barrier-free (pending
        notices arrive unsolicited during ingest), so a delta publisher
        can diff it incrementally without collapsing wire batching."""
        rows = list(self._fired_notices)
        rows.extend((t, tid) for t, tid, _w in self._pending_notices)
        return merge_violations(rows)

    def report(self) -> FleetReport:
        """A merged :class:`FleetReport` (a sync barrier).

        Crashed workers contribute their last-synced statistics and
        their shards are listed in ``crashed_shards``.
        """
        self._require_running()
        replies = self._barrier("report")
        self._last_report.update(replies)
        stats: list[ShardStats] = []
        open_traces = retired = degraded = overruns = 0
        for worker_id in sorted(self._last_report):
            wire_stats, w_open, w_retired, w_degraded, w_overruns = (
                self._last_report[worker_id]
            )
            stats.extend(codec.decode_stats(row) for row in wire_stats)
            open_traces += w_open
            retired += w_retired
            degraded += w_degraded
            overruns += w_overruns
        stats.sort(key=lambda s: s.shard)
        return FleetReport(
            xi=None if self.xi is None else Fraction(self.xi),
            n_shards=self.n_shards,
            batch_size=self.batch_size,
            event_budget=self.event_budget,
            open_traces=open_traces,
            retired_traces=retired,
            live_events=sum(s.live_events for s in stats),
            peak_live_events=self._peak,
            budget_overruns=overruns,
            degraded_traces=degraded,
            violating_traces=violating_ids(self._fired_notices),
            shards=tuple(stats),
            **shard_totals(stats),
            crashed_shards=self.crashed_shards(),
        )

    def _counters(self) -> tuple[int, int, int]:
        """(live events, open traces, retired traces) across workers.

        A pure counter read -- no buffer shipping, no worker flushes,
        no callback firing, no rebalancing -- so polling these
        properties inside an ingest loop costs one round trip per
        worker and cannot collapse wire batching (the serial
        properties are pure reads too).  Counts therefore reflect
        *absorbed* records; batches still queued or buffered are not
        yet included.
        """
        self._require_running()
        posted: dict[int, int] = {}
        for worker_id in self._alive_workers():
            try:
                posted[worker_id] = self._post(worker_id, ("counters",))
            except WorkerCrashed:
                continue
        live = opened = retired = 0
        for worker_id, req_id in posted.items():
            try:
                w_live, w_open, w_retired = self._collect(worker_id, req_id)
            except WorkerCrashed:
                continue
            live += w_live
            opened += w_open
            retired += w_retired
        return live, opened, retired

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def _fold_stalls(self) -> None:
        """Fold per-handle backpressure deltas into dispatcher counters.

        Handles accumulate plain ints (always on, slow path only); the
        registry sees them as deltas since the last fold, so a handle
        replaced by recovery (counters reset to zero, ``_stall_folded``
        reset alongside) never under- or double-counts."""
        obs = self._obs
        if obs is None:
            return
        for worker_id, handle in enumerate(self._handles):
            seen_count, seen_ns = self._stall_folded.get(worker_id, (0, 0))
            d_count = handle.stall_count - seen_count
            d_ns = handle.stall_ns - seen_ns
            if d_count > 0 or d_ns > 0:
                self._stall_folded[worker_id] = (
                    handle.stall_count,
                    handle.stall_ns,
                )
                if d_count > 0:
                    obs.ship_stalls.inc(d_count)
                if d_ns > 0:
                    obs.stall_ns.inc(d_ns)
        obs.queue_depth.set(
            sum(
                handle.depth()
                for worker_id, handle in enumerate(self._handles)
                if worker_id not in self._dead
            )
        )

    def metrics_rows(self) -> tuple[tuple, ...]:
        """Merged metric rows: every worker's registry plus the
        dispatcher's own, as plain wire tuples.

        Crash-tolerant the same way :meth:`report` is: each alive
        worker is polled (a pure counter read, no flushes or barriers)
        and its rows cached; a crashed worker contributes its
        last-synced rows.  Empty when telemetry is disabled."""
        if self._metrics is None:
            return ()
        self._fold_stalls()
        if not self._stopped:
            posted: dict[int, int] = {}
            for worker_id in self._alive_workers():
                try:
                    posted[worker_id] = self._post(worker_id, ("metrics",))
                except WorkerCrashed:
                    continue
            for worker_id, req_id in posted.items():
                try:
                    wire = self._collect(worker_id, req_id)
                except WorkerCrashed:
                    continue
                self._last_metrics[worker_id] = codec.decode_metrics_rows(
                    wire
                )
        row_sets = [
            self._last_metrics[worker_id]
            for worker_id in sorted(self._last_metrics)
        ]
        row_sets.append(self._metrics.to_rows())
        return _obs_metrics.merge_row_sets(row_sets)

    def metrics_snapshot(self, *, deterministic_only: bool = False) -> dict:
        """The merged fleet metrics as a JSON-able dict (see
        :meth:`repro.obs.metrics.MetricsRegistry.to_json`); with
        ``deterministic_only`` restricted to the cross-backend
        bit-identical subset."""
        return _obs_metrics.rows_to_json(
            self.metrics_rows(), deterministic_only=deterministic_only
        )

    def render_prometheus(self) -> str:
        """The merged fleet metrics in Prometheus text exposition
        format (empty string when telemetry is disabled)."""
        registry = MetricsRegistry()
        registry.merge_rows(self.metrics_rows())
        return registry.render_prometheus()

    @property
    def live_events(self) -> int:
        """Total live digraph events across workers (absorbed records;
        see :meth:`_counters` for the read semantics)."""
        return self._counters()[0]

    @property
    def open_traces(self) -> int:
        return self._counters()[1]

    @property
    def retired_traces(self) -> int:
        return self._counters()[2]

    def __len__(self) -> int:
        _live, opened, retired = self._counters()
        return opened + retired

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Graceful drain: flush (a final barrier), stop workers, join.

        Idempotent.  The closing flush barrier runs *before* the fleet
        is marked stopped, so the last violation callbacks fire while
        re-entering the fleet is still legal (the reentrancy the serial
        fleet documents); the stop round after it cannot produce new
        violations (everything was just absorbed and nothing ingests in
        between).  Crashed workers are skipped -- their shards were
        already surfaced."""
        if self._stopped:
            return
        if self._durable is not None:
            # A final checkpoint: restore() after a clean shutdown
            # resumes from the complete state, with empty journals.
            self._checkpoint()
        self._barrier("flush")
        self._stopped = True
        posted: dict[int, int] = {}
        for worker_id in self._alive_workers():
            try:
                posted[worker_id] = self._post(worker_id, ("stop",))
            except WorkerCrashed:
                continue
        for worker_id, req_id in posted.items():
            try:
                self._collect(worker_id, req_id)
            except WorkerCrashed:
                continue
        self._note_peak()
        for worker_id in self._alive_workers():
            self._handles[worker_id].join()
        # Stragglers should not exist (see above); fired after the
        # joins so a misbehaving callback can never leave workers
        # unjoined.
        self._fire_pending()

    def __enter__(self) -> "ParallelFleet":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.shutdown()
