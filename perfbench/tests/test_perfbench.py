"""Tests of the benchmark harness itself: its arithmetic, its span
bookkeeping, and a tiny run of every workload with the gate on."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import harness
import layers
import run
import tracer as tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# -- percentiles and their sample-count rule --------------------------------


def test_quantile_is_nearest_rank():
    samples = [float(v) for v in range(100, 0, -1)]
    assert harness.quantile(samples, 0.5) == 50.0
    assert harness.quantile(samples, 0.99) == 99.0
    assert harness.quantile(samples, 1.0) == 100.0
    with pytest.raises(ValueError):
        harness.quantile([], 0.5)


def test_tail_quantile_keeps_ten_samples_beyond():
    many = [float(v) for v in range(1, 2001)]
    assert harness.tail_quantile(many) == (1980.0, 0.99)
    # 500 samples leave only 5 beyond p99: fall back to p98.
    few = [float(v) for v in range(1, 501)]
    assert harness.tail_quantile(few) == (490.0, 0.98)
    # Too few for any tail: the median.
    value, used = harness.tail_quantile([float(v) for v in range(1, 16)])
    assert (value, used) == (8.0, 8 / 15)
    with pytest.raises(ValueError):
        harness.tail_quantile([])


def test_failed_frac_arithmetic():
    assert harness.failed_frac(100, 100) == 0.0
    assert harness.failed_frac(100, 90) == 0.1
    assert harness.failed_frac(100, 120) == 0.0
    with pytest.raises(ValueError):
        harness.failed_frac(0, 0)
    with pytest.raises(ValueError):
        harness.failed_frac(10, -1)


# -- nested spans report self time ------------------------------------------


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _boxes(clock: _Clock):
    class Box:
        def inner(self) -> None:
            clock.now += 30

        def outer(self) -> None:
            clock.now += 10
            self.inner()
            clock.now += 5

        def outer_threaded(self) -> None:
            clock.now += 10
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            clock.now += 5

    return Box


def test_nested_span_self_time():
    clock = _Clock()
    Box = _boxes(clock)
    original = Box.inner
    tracer = tracing.Tracer(clock=clock)
    tracer.install([(Box, "inner", "box.inner"), (Box, "outer", "box.outer")])
    try:
        Box().outer()
        Box().inner()
    finally:
        tracer.uninstall()
    assert Box.inner is original
    totals = tracer.totals()
    # calls, inclusive, self, root
    assert totals["box.outer"] == [1, 45, 15, 45]
    assert totals["box.inner"] == [2, 60, 60, 30]


def test_spans_nest_per_thread():
    clock = _Clock()
    Box = _boxes(clock)
    tracer = tracing.Tracer(clock=clock)
    tracer.install(
        [(Box, "inner", "box.inner"), (Box, "outer_threaded", "box.outer")]
    )
    try:
        Box().outer_threaded()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    # The other thread's span is no child of this thread's.
    assert totals["box.outer"] == [1, 45, 45, 45]
    assert totals["box.inner"] == [1, 30, 30, 30]


def test_telemetry_sum_filters_name_and_stage():
    snapshot = {
        'repro_stage_ns{front="0",stage="kernel_sweep"}': {
            "kind": "histogram", "sum": 7, "count": 1,
        },
        'repro_stage_ns{stage="kernel_sweep"}': {"kind": "histogram", "sum": 5},
        'repro_stage_ns{stage="worker_absorb"}': {"kind": "histogram", "sum": 100},
        "repro_dispatcher_stall_ns_total": {"kind": "counter", "value": 3},
    }
    assert layers.telemetry_sum(snapshot, "repro_stage_ns", "kernel_sweep") == 12
    assert layers.telemetry_sum(snapshot, "repro_dispatcher_stall_ns_total") == 3
    assert layers.telemetry_sum(snapshot, "repro_stage_ns", "client_encode") == 0


# -- the metric lists agree with BENCHMARK.json ------------------------------


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": entry["bound"]}
        for (name, unit, better), entry in zip(run.END_TO_END, spec["end_to_end"])
    ]
    assert len(spec["end_to_end"]) == len(run.END_TO_END)
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_map in layers.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


# -- tiny runs of every workload, gate on -----------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    detail, result = run.measure(wl.tiny(wl.WORKLOADS[name]), 3, 0, False, tmp_path)
    assert detail["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _u, _b in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["wire-mix", "durable-budget"])
def test_smoke_traced(name, tmp_path):
    detail, result = run.measure(wl.tiny(wl.WORKLOADS[name]), 3, 0, True, tmp_path)
    assert result["correct"] is True, detail["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {row[0] for row in layers.LAYER_METRICS}
    # Worker-side spans and telemetry made it back from the processes.
    assert metrics["kernel.oracle_calls"] > 0
    assert metrics["stage.worker_absorb_s"] > 0
    assert metrics["codec.decode_s"] > 0
    if name == "wire-mix":
        assert metrics["net.frames"] > 0 and metrics["stage.front_accept_s"] > 0
    else:
        assert metrics["durable.checkpoints"] >= 1 and metrics["durable.bytes"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inproc-ratios",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_restores_the_ambient_telemetry_switch(tmp_path):
    from repro.obs import metrics as obs_metrics

    previous = obs_metrics.set_enabled(True)
    try:
        run.measure(wl.tiny(wl.WORKLOADS["inproc-ratios"]), 3, 0, True, tmp_path)
        assert obs_metrics.enabled() is True
    finally:
        obs_metrics.set_enabled(previous)
