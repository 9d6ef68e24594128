"""The three workloads: inputs, one timed repetition each, answers.

Every workload draws its input from
:func:`repro.scenarios.generators.concurrent_workload` with the run's
seed, before any timer starts, and hands the program only the
generated records.  A repetition builds the system, feeds it, flushes,
reads the full answer set and tears the system down; :mod:`run` repeats
repetitions for the measured seconds.

Why these three (see also ``BENCHMARK.json``):

* ``wire-mix`` -- the deployment path: two producer connections over
  loopback TCP into an ingest server in its own process (one front,
  two process workers) at Xi = 3, so about half the traces violate.
  The only workload where sockets, codec, front threads, dispatch and
  witness extraction all work.
* ``inproc-ratios`` -- the same mix through one in-process
  ``MonitorFleet`` with Xi unset: no sockets, codec, processes or
  witnesses, so every microsecond is kernel, checker, monitor or shard
  work.  A kernel gain shows here undiluted; a net change must not.
* ``durable-budget`` -- a relay-heavy mix through a two-worker
  ``ParallelFleet`` with journals, periodic checkpoints and an event
  budget well below the live size, ending in a clean shutdown and a
  restore.  The only workload with bounded, persisted state.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from repro.analysis.fleet import MonitorFleet
from repro.obs import metrics as obs_metrics
from repro.runtime import Durability, ParallelFleet, ProducerClient
from repro.scenarios.generators import concurrent_workload

import tracer as tracing

# Records per ingest call (in process) and per produce frame (wire):
# the unit one latency sample times.
BATCH = 64
TOP_K = 10
N_PRODUCERS = 2
N_WORKERS = 2
SERVER = Path(__file__).resolve().parent / "server.py"
# Seconds a server reply may take before the run is declared hung.
REPLY_TIMEOUT = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_traces: int
    records_per_trace: tuple[int, int]
    xi: int | None = None
    profile_weights: dict[str, float] | None = None
    event_budget: int | None = None
    checkpoint_every: int | None = None


WORKLOADS = {
    "wire-mix": Workload("wire-mix", 560, (30, 90), xi=3),
    "inproc-ratios": Workload("inproc-ratios", 420, (30, 90)),
    "durable-budget": Workload(
        "durable-budget",
        360,
        (50, 110),
        profile_weights={"relay": 0.4, "storm": 0.2, "burst": 0.25, "idler": 0.15},
        event_budget=6000,
        checkpoint_every=20_000,
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at smoke-test size."""
    budget = None if workload.event_budget is None else 300
    every = None if workload.checkpoint_every is None else 200
    return Workload(
        workload.name,
        12,
        (20, 60),
        workload.xi,
        workload.profile_weights,
        budget,
        every,
    )


def generate(workload: Workload, seed: int) -> list[tuple[str, Any]]:
    """The seeded interleaved ``(trace_id, record)`` stream."""
    return list(
        concurrent_workload(
            random.Random(seed),
            n_traces=workload.n_traces,
            records_per_trace=workload.records_per_trace,
            profile_weights=workload.profile_weights,
        )
    )


def batches(stream: list) -> list[list]:
    return [stream[k : k + BATCH] for k in range(0, len(stream), BATCH)]


def trace_ids(stream: list) -> list[str]:
    return sorted({trace_id for trace_id, _record in stream})


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def _ratio(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def read_answers(fleet: Any, ids: list[str]) -> tuple[dict, dict]:
    """The full answer set through the public query surface, plus the
    report's counts.  Works on ``MonitorFleet``, ``ParallelFleet`` and
    ``IngestServer`` alike.  Answers are JSON-able and compare with
    ``==``; counts are the fingerprint's raw material.

    Ratios come from the front end's bulk ``all_ratios`` where it has
    one (one barrier instead of a round trip per trace); degraded flags
    are asked per trace only when the report counts any."""
    bulk = getattr(fleet, "all_ratios", None)
    pairs = bulk() if bulk else [(tid, fleet.worst_ratio(tid)) for tid in ids]
    ratios = {tid: _ratio(r) for tid, r in sorted(pairs, key=lambda p: p[0])}
    report = fleet.report()
    degraded = (
        [tid for tid in ids if fleet.is_degraded(tid)]
        if report.degraded_traces
        else []
    )
    violating = sorted(fleet.violating_traces())
    histogram = sorted(
        ([_ratio(r), n] for r, n in fleet.worst_ratio_histogram().items()),
        key=lambda item: str(item[0]),
    )
    top = [[tid, _ratio(r)] for tid, r in fleet.top_k_riskiest(TOP_K)]
    answers = {
        "ratios": ratios,
        "degraded": degraded,
        "violating": violating,
        "histogram": histogram,
        "top_k": top,
        "report_violating": sorted(report.violating_traces),
        "report_degraded": report.degraded_traces,
    }
    counts = {
        "records": report.records,
        "oracle_calls": report.oracle_calls,
        "flushes": report.flushes,
        "violating": len(violating),
        "peak_live_events": report.peak_live_events,
        "budget_overruns": report.budget_overruns,
        "crashed_shards": len(report.crashed_shards),
    }
    return answers, counts


def reference(workload: Workload, stream: list, ids: list[str]) -> tuple[dict, dict]:
    """Answers of a serial ``MonitorFleet`` (no budget, no processes)
    over the same records, fed in the same ``BATCH``-record calls, and
    the exact-count fingerprint of that run."""
    counter = tracing.Tracer()
    counter.install()
    try:
        fleet = MonitorFleet(workload.xi)
        for batch in batches(stream):
            fleet.ingest_many(batch)
        fleet.flush()
        answers, counts = read_answers(fleet, ids)
    finally:
        counter.uninstall()
    spans = counter.totals()
    fingerprint = {
        "oracle_calls": counts["oracle_calls"],
        "kernel_calls": spans.get("kernel.oracle", [0])[0],
        "witness_calls": spans.get("checker.witness", [0])[0],
        "flushes": counts["flushes"],
        "violating": counts["violating"],
        "peak_live_events": counts["peak_live_events"],
    }
    return answers, fingerprint


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """What one repetition measured."""

    records: int
    setup_s: float
    ingest_s: float
    answers_s: float
    latencies_s: list[float]
    answers: dict
    counts: dict
    restore_s: float | None = None
    restored_answers: dict | None = None
    # Traced repetitions only: span totals, per-worker busy time, the
    # telemetry snapshot, and layer facts the program reports itself.
    spans: dict = field(default_factory=dict)
    worker_busy_ns: list[int] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    frames: int = 0
    durable_bytes: int = 0
    # Untraced repetitions only: CPU seconds of this process and of the
    # children it reaped during the repetition.
    cpu_s: float = 0.0


def timed_ingest(fleet: Any, feed: list[list]) -> list[float]:
    clock = time.perf_counter
    latencies = []
    for batch in feed:
        start = clock()
        fleet.ingest_many(batch)
        latencies.append(clock() - start)
    return latencies


def rep_inproc(workload: Workload, feed: list[list], ids: list[str], **_: Any) -> Rep:
    clock = time.perf_counter
    start = clock()
    fleet = MonitorFleet(workload.xi)
    setup_s = clock() - start
    start = clock()
    latencies = timed_ingest(fleet, feed)
    fleet.flush()
    ingest_s = clock() - start
    start = clock()
    answers, counts = read_answers(fleet, ids)
    answers_s = clock() - start
    fleet.close()
    return Rep(
        records=sum(map(len, feed)),
        setup_s=setup_s,
        ingest_s=ingest_s,
        answers_s=answers_s,
        latencies_s=latencies,
        answers=answers,
        counts=counts,
    )


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def rep_durable(
    workload: Workload,
    feed: list[list],
    ids: list[str],
    work_dir: Path,
    traced: bool = False,
    **_: Any,
) -> Rep:
    clock = time.perf_counter
    root = work_dir / "durable"
    shutil.rmtree(root, ignore_errors=True)
    start = clock()
    fleet = ParallelFleet(
        None,
        n_workers=N_WORKERS,
        event_budget=workload.event_budget,
        durability=Durability(root=root, checkpoint_every=workload.checkpoint_every),
    )
    try:
        setup_s = clock() - start
        start = clock()
        latencies = timed_ingest(fleet, feed)
        fleet.flush()
        ingest_s = clock() - start
        start = clock()
        answers, counts = read_answers(fleet, ids)
        answers_s = clock() - start
        telemetry = fleet.metrics_snapshot() if traced else {}
    finally:
        fleet.shutdown()
    durable_bytes = _dir_bytes(root)
    start = clock()
    restored = ParallelFleet.restore(root)
    try:
        restored.worst_ratio(ids[0])
        restore_s = clock() - start
        restored_answers, _counts = read_answers(restored, ids)
    finally:
        restored.shutdown()
    shutil.rmtree(root, ignore_errors=True)
    return Rep(
        records=sum(map(len, feed)),
        setup_s=setup_s,
        ingest_s=ingest_s,
        answers_s=answers_s,
        latencies_s=latencies,
        answers=answers,
        counts=counts,
        restore_s=restore_s,
        restored_answers=restored_answers,
        telemetry=telemetry,
        durable_bytes=durable_bytes,
    )


class ServerProcess:
    """The ingest server in its own interpreter (see ``server.py``),
    driven over its stdin/stdout one JSON line per request."""

    def __init__(self, workload: Workload, trace_dir: Path | None) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        command = [sys.executable, str(SERVER), "--workers", str(N_WORKERS)]
        if workload.xi is not None:
            command += ["--xi", str(workload.xi)]
        if trace_dir is not None:
            env["REPRO_OBS"] = "1"
            command += ["--trace-dir", str(trace_dir)]
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.address = tuple(self._read()["address"])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"ingest server exited early (code {self.proc.wait()})"
            )
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"ingest server failed:\n{reply['error']}")
        return reply

    def request(self, command: str, **args: Any) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": command, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Stop the server (if still running) and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=REPLY_TIMEOUT)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _produce(
    client: ProducerClient,
    rows: list[tuple[str, Any]],
    ready: threading.Barrier,
    latencies: list[float],
    errors: list[BaseException],
) -> None:
    """One producer: send every row, timing each frame from its send
    until the client has seen it acked."""
    clock = time.perf_counter
    sent_at: list[float] = []
    seen = 0
    try:
        ready.wait()
        for trace_id, record in rows:
            client.send(trace_id, record)
            now = clock()
            shipped = client.acked_frames + client.unacked_frames
            while len(sent_at) < shipped:
                sent_at.append(now)
            acked = client.acked_frames
            while seen < acked:
                latencies.append(now - sent_at[seen])
                seen += 1
        client.flush()
        now = clock()
        shipped = client.acked_frames
        while len(sent_at) < shipped:
            sent_at.append(now)
        while seen < shipped:
            latencies.append(now - sent_at[seen])
            seen += 1
    except BaseException as exc:  # re-raised by the driving thread
        errors.append(exc)


def split_producers(stream: list) -> list[list]:
    """Each trace goes to one producer (single writer per trace), in
    stream order."""
    ids = trace_ids(stream)
    owner = {tid: k % N_PRODUCERS for k, tid in enumerate(ids)}
    parts: list[list] = [[] for _ in range(N_PRODUCERS)]
    for row in stream:
        parts[owner[row[0]]].append(row)
    return parts


def rep_wire(
    workload: Workload,
    parts: list[list],
    ids: list[str],
    work_dir: Path,
    traced: bool = False,
    **_: Any,
) -> Rep:
    clock = time.perf_counter
    trace_dir = work_dir / "spans" if traced else None
    start = clock()
    server = ServerProcess(workload, trace_dir)
    clients: list[ProducerClient] = []
    try:
        for k in range(N_PRODUCERS):
            clients.append(
                ProducerClient(server.address, producer_id=f"p{k}", batch=BATCH)
            )
        setup_s = clock() - start
        ready = threading.Barrier(N_PRODUCERS + 1)
        latencies: list[float] = []
        errors: list[BaseException] = []
        threads = [
            threading.Thread(
                target=_produce,
                args=(client, part, ready, latencies, errors),
                name=f"producer-{k}",
            )
            for k, (client, part) in enumerate(zip(clients, parts))
        ]
        for thread in threads:
            thread.start()
        ready.wait()
        start = clock()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        server.request("flush")
        ingest_s = clock() - start
        frames = sum(client.acked_frames for client in clients)
        for client in clients:
            client.close()
        clients.clear()
        reply = server.request("answers", ids=ids)
        stopped = server.request("stop")
    finally:
        for client in clients:
            client.close()
        server.close()
    counts = reply["counts"]
    counts["front_errors"] = reply["front_errors"]
    return Rep(
        records=sum(map(len, parts)),
        setup_s=setup_s,
        ingest_s=ingest_s,
        answers_s=reply["answers_s"],
        latencies_s=latencies,
        answers=reply["answers"],
        counts=counts,
        telemetry=stopped.get("telemetry", {}),
        frames=frames,
    )


RUNNERS = {
    "wire-mix": rep_wire,
    "inproc-ratios": rep_inproc,
    "durable-budget": rep_durable,
}


def prepare(workload: Workload, stream: list) -> list[list]:
    """The program's input, shaped for the workload's entry point."""
    if workload.name == "wire-mix":
        return split_producers(stream)
    return batches(stream)


def set_telemetry(on: bool) -> bool:
    """Telemetry for objects built from here on (this process), with a
    fresh process-global registry; returns the previous setting."""
    previous = obs_metrics.set_enabled(on)
    obs_metrics.reset_global_registry()
    return previous
