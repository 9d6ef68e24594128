"""The worker-side message loop: one :class:`ShardGroup` behind a queue.

A worker owns a fixed subset of the global shard space and drives it as
one :class:`~repro.runtime.shard.ShardGroup` -- the same engine the
serial fleet runs in process -- in response to protocol messages from
the dispatcher.  The loop is single-threaded and processes its inbox in
FIFO order, so per-trace record order (guaranteed by the dispatcher's
per-shard batching) translates directly into per-trace observation
order, which is what makes worker-side ratios bit-identical to the
serial fleet's.

Protocol (all messages are plain tuples; payloads go through
:mod:`repro.runtime.codec`):

=====================  ==============================================
inbound                meaning
=====================  ==============================================
``("ingest", s, b)``    absorb shard batch ``b`` into shard ``s``
                        (buffer, auto-retire probe, watermark flushes)
``("flush", r, t)``     advance the clock to tick ``t`` (with an
                        auto-retire probe -- a quiet worker must still
                        retire its idle traces), flush all
``("flush_trace", r, s, tid)``  flush one trace
``("close", r, s, tid)``        retire a trace -> encoded summary
``("ratio", r, s, tid)``        worst ratio -> encoded fraction
``("degraded", r, s, tid)``     degradation flag -> bool
``("ratios", r, t)``            all (trace id, encoded ratio) pairs
``("counters", r)``             (live, open, retired) -- pure read, no
                                flush (cheap telemetry polling)
``("report", r, t)``            encoded shard stats + group counters
``("budget", r, n)``            re-apportioned event budget; replies
                                with the closed epoch's peak watermark
``("fence", r, t)``             sync point: advance the clock, ack.
                                FIFO order makes the ack proof that
                                every earlier message was absorbed --
                                the ordering primitive of migration
                                and recovery (no flush: batching
                                boundaries stay undisturbed)
``("snapshot", r, t)``          codec-framed image of the whole group
                                (taken *without* flushing)
``("restore", r, f)``           replace the group's state with a
                                snapshot frame (worker recovery /
                                fleet restore)
``("metrics", r)``              the group's serialized telemetry rows
                                (``()`` when telemetry is disabled) --
                                pure read, no flush; the dispatcher
                                sum-merges rows across workers
``("export_trace", r, tid)``    detach one trace -> codec frame
``("import_trace", r, f)``      install an exported trace
``("export_shard", r, s)``      detach one whole shard -> codec frame
``("import_shard", r, f)``      install an exported shard
``("stop", r)``                 graceful drain: flush, ack, exit
=====================  ==============================================

Replies are ``("reply", req_id, payload, notices, ratio_rows, live,
peak)`` where ``payload`` is ``("ok", value)`` or ``("err", kind,
message)`` (the dispatcher re-raises ``KeyError`` locally, preserving
the serial surface), ``notices`` are the violation notices accumulated
since the last send, ``ratio_rows`` are the worst-ratio update rows
accumulated since the last send (coalesced last-wins per trace --
the push feed of the network delta plane, empty unless something's
ratio actually moved), and ``live``/``peak`` feed the dispatcher's
budget rebalancing and epoch watermark.  ``ingest`` sends no reply;
pending notices and ratio rows are pushed unsolicited as
``("notices", notices, ratio_rows, live, peak)`` so violations and
delta updates never wait for the next query.  Any exception escaping a
handler emits ``("crash", worker_id, traceback)`` and ends the worker:
the dispatcher then surfaces the worker's shards as crashed/degraded
instead of hanging on a silent peer.
"""

from __future__ import annotations

import logging
import traceback
from typing import Any

from repro.obs import metrics as _obs_metrics
from repro.obs.trace import TraceContext, new_context
from repro.runtime import codec
from repro.runtime.shard import ShardGroup, TraceId

__all__ = ["worker_main"]

logger = logging.getLogger(__name__)


def _build_group(
    shard_indices: tuple[int, ...],
    config: dict[str, Any],
    notices: list[tuple],
    ratio_updates: dict[TraceId, tuple[int, int] | None],
) -> ShardGroup:
    group = ShardGroup(
        shard_indices,
        xi=codec.decode_fraction(config["xi"]),
        batch_size=config["batch_size"],
        event_budget=config["event_budget"],
        auto_retire_after=config["auto_retire_after"],
        compact_threshold=config["compact_threshold"],
        faulty=frozenset(config["faulty"]),
        drop_faulty=config["drop_faulty"],
        monitor_factory=config.get("monitor_factory"),
        monitor_specs=codec.decode_specs(config.get("monitor_specs")),
    )

    def emit(trace_id: TraceId, witness) -> None:
        # The deterministic merge key is the violating trace's last
        # absorbed global ingest tick at the detecting flush.  Flush
        # boundaries -- and with them this tick -- depend on the wire
        # batching, so the key is deterministic for a fixed fleet
        # configuration and call sequence (what the merge contract
        # promises), not invariant across configurations.
        tick = group.tick
        for shard in group.shards.values():
            state = shard.traces.get(trace_id)
            if state is not None:
                tick = state.last_touch
                break
        notices.append(codec.encode_notice(tick, trace_id, witness))

    def emit_ratio(trace_id: TraceId, worst) -> None:
        # Last-wins per trace: ratios only grow, so only the newest
        # value matters to a delta consumer -- a burst of increases
        # between sends collapses to one row.
        ratio_updates[trace_id] = codec.encode_fraction(worst)

    group.emit_violation = emit
    group.emit_ratio = emit_ratio
    return group


def worker_main(
    worker_id: int,
    shard_indices: tuple[int, ...],
    config: dict[str, Any],
    inbox: Any,
    outbox: Any,
) -> None:
    """Run one worker until ``("stop", ...)`` or a crash.

    ``inbox``/``outbox`` are queue-likes (``multiprocessing.Queue`` or
    ``queue.Queue``); the loop never touches anything else, which is
    what makes the worker backend-agnostic.
    """
    if "obs" in config:
        # The dispatcher pins telemetry explicitly: a programmatic
        # set_enabled() in the parent must bind in children even under
        # a spawn start method (fork inherits it for free).
        _obs_metrics.set_enabled(bool(config["obs"]))
    notices: list[tuple] = []
    ratio_updates: dict[TraceId, tuple[int, int] | None] = {}
    group = _build_group(
        tuple(shard_indices), config, notices, ratio_updates
    )
    # Lifecycle tracing for the absorb stage; None when disabled (the
    # ingest hot path then pays one is-None test per *batch*).
    ctx: TraceContext | None = (
        new_context(group.metrics, name=f"w{worker_id}")
        if group.metrics is not None
        else None
    )

    def drain_notices() -> list[tuple]:
        out = notices[:]
        notices.clear()
        return out

    def drain_ratios() -> tuple[tuple, ...]:
        if not ratio_updates:
            return ()
        out = tuple(ratio_updates.items())
        ratio_updates.clear()
        return out

    def reply(req_id: int, payload: tuple) -> None:
        outbox.put(
            (
                "reply",
                req_id,
                payload,
                drain_notices(),
                drain_ratios(),
                group.live_events,
                group.peak_live_events,
            )
        )

    def advance(tick: int) -> None:
        # A barrier advances this worker's clock to the dispatcher's
        # global ingest count -- and must also probe retirement: the
        # serial fleet sweeps on every ingest anywhere, so by barrier
        # time it has already retired anything this age covers, while
        # a worker whose shards stopped receiving traffic would
        # otherwise hold its idle traces (and their budget share) open
        # forever.  Retirement *timing* still differs from serial by
        # design -- the documented carve-out -- but never by "never".
        group.tick = max(group.tick, tick)
        group.auto_retire()

    try:
        while True:
            message = inbox.get()
            cmd = message[0]
            if cmd == "ingest":
                _cmd, shard_index, wire_batch = message
                # Columnar decode: two C-speed transposes instead of a
                # per-record object build; the shard engine keeps the
                # batch columnar all the way into the checker (reopened
                # or degraded traces fall back to materialized records
                # at flush time).  Malformed (ragged) frames raise here
                # and surface through crash containment, like any other
                # poison message.
                span = None if ctx is None else ctx.span("worker_absorb")
                ticks, trace_ids, cols = codec.decode_records_columnar(
                    wire_batch
                )
                group.ingest_batch_columnar(
                    shard_index, ticks, trace_ids, cols
                )
                if span is not None:
                    span.end()
                if notices or ratio_updates:
                    outbox.put(
                        (
                            "notices",
                            drain_notices(),
                            drain_ratios(),
                            group.live_events,
                            group.peak_live_events,
                        )
                    )
            elif cmd == "flush":
                _cmd, req_id, tick = message
                advance(tick)
                group.flush_all()
                reply(req_id, ("ok", None))
            elif cmd == "flush_trace":
                _cmd, req_id, shard_index, trace_id = message
                group.flush_trace(shard_index, trace_id)
                reply(req_id, ("ok", None))
            elif cmd == "close":
                _cmd, req_id, shard_index, trace_id = message
                try:
                    summary = group.close(shard_index, trace_id)
                except KeyError as exc:
                    reply(req_id, ("err", "KeyError", str(exc)))
                else:
                    reply(req_id, ("ok", codec.encode_summary(summary)))
            elif cmd == "ratio":
                _cmd, req_id, shard_index, trace_id = message
                try:
                    ratio = group.worst_ratio(shard_index, trace_id)
                except KeyError as exc:
                    reply(req_id, ("err", "KeyError", str(exc)))
                else:
                    reply(req_id, ("ok", codec.encode_fraction(ratio)))
            elif cmd == "degraded":
                _cmd, req_id, shard_index, trace_id = message
                try:
                    flag = group.is_degraded(shard_index, trace_id)
                except KeyError as exc:
                    reply(req_id, ("err", "KeyError", str(exc)))
                else:
                    reply(req_id, ("ok", flag))
            elif cmd == "ratios":
                _cmd, req_id, tick = message
                advance(tick)
                pairs = [
                    (trace_id, codec.encode_fraction(ratio))
                    for trace_id, ratio in group.all_ratios()
                ]
                reply(req_id, ("ok", pairs))
            elif cmd == "counters":
                _cmd, req_id = message
                reply(
                    req_id,
                    (
                        "ok",
                        (
                            group.live_events,
                            group.open_traces,
                            group.retired_traces,
                        ),
                    ),
                )
            elif cmd == "metrics":
                _cmd, req_id = message
                reply(
                    req_id,
                    ("ok", codec.encode_metrics_rows(group.metrics_rows())),
                )
            elif cmd == "report":
                _cmd, req_id, tick = message
                advance(tick)
                group.flush_all()
                payload = (
                    [codec.encode_stats(s) for s in group.shard_stats()],
                    group.open_traces,
                    group.retired_traces,
                    group.degraded_traces(),
                    group.budget_overruns,
                )
                reply(req_id, ("ok", payload))
            elif cmd == "budget":
                _cmd, req_id, event_budget = message
                epoch_peak = group.reset_peak()
                group.set_budget(event_budget)
                reply(req_id, ("ok", epoch_peak))
            elif cmd == "fence":
                _cmd, req_id, tick = message
                advance(tick)
                reply(req_id, ("ok", None))
            elif cmd == "snapshot":
                _cmd, req_id, tick = message
                advance(tick)
                reply(req_id, ("ok", group.snapshot()))
            elif cmd == "restore":
                _cmd, req_id, frame = message
                group.load_snapshot(frame)
                reply(req_id, ("ok", None))
            elif cmd == "export_trace":
                _cmd, req_id, trace_id = message
                try:
                    frame = group.export_trace(trace_id)
                except KeyError as exc:
                    reply(req_id, ("err", "KeyError", str(exc)))
                else:
                    reply(req_id, ("ok", frame))
            elif cmd == "import_trace":
                _cmd, req_id, frame = message
                reply(req_id, ("ok", group.import_trace(frame)))
            elif cmd == "export_shard":
                _cmd, req_id, shard_index = message
                try:
                    frame = group.export_shard(shard_index)
                except KeyError as exc:
                    reply(req_id, ("err", "KeyError", str(exc)))
                else:
                    reply(req_id, ("ok", frame))
            elif cmd == "import_shard":
                _cmd, req_id, frame = message
                reply(req_id, ("ok", group.import_shard(frame)))
            elif cmd == "stop":
                _cmd, req_id = message
                # Graceful drain: absorb everything buffered so the
                # final notices and counters are complete.
                group.flush_all()
                reply(req_id, ("ok", None))
                return
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown worker command {cmd!r}")
    except BaseException:
        # Surface the failure instead of dying silently: the dispatcher
        # turns this into degraded shards, never a hung fleet.
        tb = traceback.format_exc()
        logger.error("worker %d crashed:\n%s", worker_id, tb)
        try:
            outbox.put(("crash", worker_id, tb))
        except Exception:  # pragma: no cover - outbox itself broken
            pass
        return
