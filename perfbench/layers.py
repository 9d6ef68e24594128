"""Per-layer metrics of a traced repetition, and the map from each to
the end-to-end metric it should move.

Times are self times in seconds from the span wrappers (``tracer.py``)
unless the source says telemetry: those are read from the telemetry
plane's ``metrics_snapshot()`` with ``REPRO_OBS`` on.  Totals cover one
whole traced repetition -- set-up, ingest, flush, answers, shutdown
and, on ``durable-budget``, the restore -- in every process that does
the work (forked workers write their own span totals).  A layer that
does not run on a workload reads 0.
"""

from __future__ import annotations

from tracer import CALLS, SELF

# name, unit, better, source, moves (end-to-end metric on workload),
# near zero on.  BENCHMARK.json's per_layer list mirrors the first three
# columns; later changes cite rows by name.
LAYER_METRICS: tuple[tuple[str, str, str, str, str, str], ...] = (
    ("kernel.oracle_s", "s", "lower", "Kernel.has_negative_cycle",
     "records_per_s on inproc-ratios and wire-mix", "little on durable-budget"),
    ("kernel.oracle_calls", "count", "lower", "Kernel.has_negative_cycle",
     "records_per_s on inproc-ratios and wire-mix", "little on durable-budget"),
    ("kernel.calls_per_refresh", "call/refresh", "lower",
     "oracle calls / AdmissibilityChecker.updated_worst_ratio calls",
     "records_per_s on inproc-ratios and wire-mix", "-"),
    ("checker.absorb_s", "s", "lower",
     "AdmissibilityChecker.absorb_batch, add_event, add_message",
     "records_per_s on inproc-ratios", "-"),
    ("checker.ratio_self_s", "s", "lower",
     "AdmissibilityChecker.updated_worst_ratio minus oracle",
     "records_per_s on inproc-ratios", "-"),
    ("checker.witness_s", "s", "lower", "AdmissibilityChecker.violating_cycle",
     "records_per_s and ingest_latency_p99_ms on wire-mix",
     "inproc-ratios, durable-budget"),
    ("checker.witness_calls", "count", "lower",
     "AdmissibilityChecker.violating_cycle",
     "records_per_s and ingest_latency_p99_ms on wire-mix",
     "inproc-ratios, durable-budget"),
    ("monitor.observe_self_s", "s", "lower",
     "OnlineAbcMonitor.observe_batch, observe_batch_columnar",
     "records_per_s on inproc-ratios", "-"),
    ("monitor.compact_s", "s", "lower",
     "OnlineAbcMonitor.maybe_compact, forget_prefix",
     "records_per_s on durable-budget", "inproc-ratios"),
    ("monitor.batches", "count", "lower",
     "OnlineAbcMonitor.observe_batch, observe_batch_columnar",
     "records_per_s on inproc-ratios", "-"),
    ("shard.ingest_self_s", "s", "lower",
     "ShardGroup.ingest_batch, ingest_batch_columnar",
     "records_per_s on all", "-"),
    ("shard.flush_self_s", "s", "lower", "ShardGroup.flush_state",
     "records_per_s on all", "-"),
    ("shard.flushes", "count", "lower", "FleetReport.flushes",
     "records_per_s on all", "-"),
    ("shard.budget_s", "s", "lower", "ShardGroup.enforce_budget",
     "records_per_s and peak_rss_mb on durable-budget",
     "wire-mix, inproc-ratios"),
    ("shard.peak_live_events", "count", "lower",
     "FleetReport.peak_live_events",
     "peak_rss_mb on durable-budget", "-"),
    ("shard.budget_overruns", "count", "lower",
     "FleetReport.budget_overruns",
     "peak_rss_mb on durable-budget", "wire-mix, inproc-ratios"),
    ("parallel.dispatch_s", "s", "lower",
     "ParallelFleet.ingest_many, ingest_wire_many, ingest_wire_columns",
     "ingest_latency_* on wire-mix and durable-budget", "inproc-ratios"),
    ("parallel.barrier_s", "s", "lower", "ParallelFleet.flush, checkpoint",
     "ingest_latency_* on wire-mix and durable-budget", "inproc-ratios"),
    ("parallel.stall_s", "s", "lower",
     "telemetry repro_dispatcher_stall_ns_total",
     "ingest_latency_* on wire-mix and durable-budget", "inproc-ratios"),
    ("codec.encode_s", "s", "lower", "codec.encode_record",
     "ingest_latency_p50_ms on wire-mix", "inproc-ratios"),
    ("codec.decode_s", "s", "lower",
     "codec.decode_records, decode_records_columnar",
     "ingest_latency_p50_ms on wire-mix", "inproc-ratios"),
    ("durable.append_s", "s", "lower", "DurableStore.append",
     "records_per_s and ingest_latency_p99_ms on durable-budget", "others"),
    ("durable.flush_s", "s", "lower", "DurableStore.flush",
     "records_per_s and ingest_latency_p99_ms on durable-budget", "others"),
    ("durable.checkpoint_s", "s", "lower", "DurableStore.checkpoint",
     "records_per_s, ingest_latency_p99_ms and durable.restore_s on "
     "durable-budget", "others"),
    ("durable.checkpoints", "count", "lower", "DurableStore.checkpoint",
     "ingest_latency_p99_ms on durable-budget", "others"),
    ("durable.bytes", "B", "lower", "durability directory after shutdown",
     "durable.restore_s on durable-budget", "others"),
    ("durable.restore_s", "s", "lower",
     "untraced ParallelFleet.restore until the first answer",
     "end-to-end restore time on durable-budget", "others"),
    ("net.client_send_s", "s", "lower", "ProducerClient.send, flush",
     "ingest_latency_p50_ms on wire-mix", "others"),
    ("net.frames", "count", "lower", "ProducerClient.acked_frames",
     "ingest_latency_p50_ms on wire-mix", "others"),
    ("stage.client_encode_s", "s", "lower", "telemetry stage client_encode",
     "localises wire-mix time to the producer", "others"),
    ("stage.front_accept_s", "s", "lower", "telemetry stage front_accept",
     "localises wire-mix time to the front", "others"),
    ("stage.dispatch_route_s", "s", "lower", "telemetry stage dispatch_route",
     "localises wire-mix/durable-budget time to dispatch", "inproc-ratios"),
    ("stage.worker_absorb_s", "s", "lower", "telemetry stage worker_absorb",
     "localises wire-mix/durable-budget time to workers", "inproc-ratios"),
    ("stage.kernel_sweep_s", "s", "lower", "telemetry stage kernel_sweep",
     "localises wire-mix/durable-budget time to the kernel sweep",
     "inproc-ratios (no public snapshot)"),
    ("stage.worker_idle_s", "s", "lower",
     "ingest wall minus the busiest worker process's span time",
     "localises wire-mix/durable-budget time to worker vs front",
     "inproc-ratios"),
    ("answers.read_s", "s", "lower",
     "untraced read of the full answer set (median repetition)",
     "time to answer on all workloads", "-"),
    ("trace.records_per_s", "1/s", "higher", "traced repetitions",
     "tracing overhead", "-"),
    ("trace.untraced_records_per_s", "1/s", "higher",
     "untraced repetitions of the traced run", "tracing overhead", "-"),
    ("trace.overhead_pct", "%", "lower",
     "untraced over traced records_per_s, minus one", "tracing overhead",
     "-"),
)

_STALL = "repro_dispatcher_stall_ns_total"
_STAGE = "repro_stage_ns"
_NO_ROW = (0, 0, 0, 0)


def telemetry_sum(snapshot: dict, name: str, stage: str | None = None) -> float:
    """Sum of a metric over every label set (histograms: their sum),
    optionally restricted to one ``stage`` label."""
    total = 0.0
    for key, entry in snapshot.items():
        if key.split("{", 1)[0] != name:
            continue
        if stage is not None and f'stage="{stage}"' not in key:
            continue
        total += entry["sum"] if entry["kind"] == "histogram" else entry["value"]
    return total


def rep_layers(rep) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (``trace.*``,
    ``answers.read_s`` and ``durable.restore_s`` are filled in by the
    caller from the run)."""
    spans = rep.spans

    def self_s(span: str) -> float:
        return spans.get(span, _NO_ROW)[SELF] / 1e9

    def calls(span: str) -> int:
        return spans.get(span, _NO_ROW)[CALLS]

    tel = rep.telemetry

    def stage_s(stage: str) -> float:
        return telemetry_sum(tel, _STAGE, stage) / 1e9

    refreshes = calls("checker.ratio")
    busiest = max(rep.worker_busy_ns, default=None)
    return {
        "kernel.oracle_s": self_s("kernel.oracle"),
        "kernel.oracle_calls": calls("kernel.oracle"),
        "kernel.calls_per_refresh": (
            calls("kernel.oracle") / refreshes if refreshes else 0.0
        ),
        "checker.absorb_s": self_s("checker.absorb"),
        "checker.ratio_self_s": self_s("checker.ratio"),
        "checker.witness_s": self_s("checker.witness"),
        "checker.witness_calls": calls("checker.witness"),
        "monitor.observe_self_s": self_s("monitor.observe"),
        "monitor.compact_s": self_s("monitor.compact"),
        "monitor.batches": calls("monitor.observe"),
        "shard.ingest_self_s": self_s("shard.ingest"),
        "shard.flush_self_s": self_s("shard.flush"),
        "shard.flushes": rep.counts["flushes"],
        "shard.budget_s": self_s("shard.budget"),
        "shard.peak_live_events": rep.counts["peak_live_events"],
        "shard.budget_overruns": rep.counts["budget_overruns"],
        "parallel.dispatch_s": self_s("parallel.dispatch"),
        "parallel.barrier_s": self_s("parallel.barrier"),
        "parallel.stall_s": telemetry_sum(tel, _STALL) / 1e9,
        "codec.encode_s": self_s("codec.encode"),
        "codec.decode_s": self_s("codec.decode"),
        "durable.append_s": self_s("durable.append"),
        "durable.flush_s": self_s("durable.flush"),
        "durable.checkpoint_s": self_s("durable.checkpoint"),
        "durable.checkpoints": calls("durable.checkpoint"),
        "durable.bytes": rep.durable_bytes,
        "net.client_send_s": self_s("net.client_send"),
        "net.frames": rep.frames,
        "stage.client_encode_s": stage_s("client_encode"),
        "stage.front_accept_s": stage_s("front_accept"),
        "stage.dispatch_route_s": stage_s("dispatch_route"),
        "stage.worker_absorb_s": stage_s("worker_absorb"),
        "stage.kernel_sweep_s": stage_s("kernel_sweep"),
        "stage.worker_idle_s": (
            0.0 if busiest is None else max(rep.ingest_s - busiest / 1e9, 0.0)
        ),
    }
