"""State written while the detection kernel was selectable still restores.

Until ``flat_int`` was removed, three frame kinds carried a kernel slot:
``MonitorFleet`` snapshot configs (a tenth field), ``MonitorSpec`` rows
(a fifth field) and ``ParallelFleet`` restore and worker configs (a
``"kernel"`` key); pickled monitors carried a ``kernel`` attribute and
their checkers a ``_kernel_spec``.  Every kernel gave identical
answers, so decoders ignore all of it -- even when it names the removed
kernel -- and ``SNAPSHOT_VERSION`` did not move.

Each test writes state the way the selectable-kernel code did (its
writers are reproduced by patching the current ones), restores it with
the current code, finishes the stream, and compares every answer with
an uninterrupted run.
"""

import contextlib
import random
from fractions import Fraction

import pytest

from repro.analysis.fleet import MonitorFleet
from repro.analysis.online import OnlineAbcMonitor
from repro.core.synchrony import AdmissibilityChecker
from repro.runtime import Durability, ParallelFleet, codec
from repro.runtime.durable import DurableStore
from repro.runtime.shard import MonitorSpec
from repro.scenarios.generators import (
    concurrent_workload,
    profiled_trace_records,
)

XI = Fraction(3, 2)
OLD_KERNEL = "flat_int"


@pytest.fixture
def legacy_writer(monkeypatch):
    """Make the current writers emit the selectable-kernel frame shapes
    (inside ``with legacy_writer():``)."""
    checker_state = AdmissibilityChecker.__getstate__
    monitor_state = OnlineAbcMonitor.__getstate__
    encode_spec = codec.encode_spec
    config_meta = ParallelFleet._config_meta
    worker_config = ParallelFleet._worker_config

    @contextlib.contextmanager
    def writing():
        with monkeypatch.context() as m:
            m.setattr(
                AdmissibilityChecker,
                "__getstate__",
                lambda self: {
                    **checker_state(self),
                    "_kernel_spec": OLD_KERNEL,
                    "_kernel_obj": None,
                },
            )
            m.setattr(
                OnlineAbcMonitor,
                "__getstate__",
                lambda self: {**monitor_state(self), "kernel": OLD_KERNEL},
            )
            m.setattr(
                codec,
                "encode_spec",
                lambda spec: (*encode_spec(spec), OLD_KERNEL),
            )
            m.setattr(
                ParallelFleet,
                "_config_meta",
                lambda self: {**config_meta(self), "kernel": OLD_KERNEL},
            )
            m.setattr(
                ParallelFleet,
                "_worker_config",
                lambda self, wid: {
                    **worker_config(self, wid),
                    "kernel": OLD_KERNEL,
                },
            )
            yield

    return writing


def stream_of(seed, n_traces=16):
    return list(
        concurrent_workload(
            random.Random(seed), n_traces=n_traces, records_per_trace=(25, 50)
        )
    )


def answers(fleet, stream):
    ids = sorted({tid for tid, _ in stream})
    return (
        {tid: (fleet.worst_ratio(tid), fleet.is_degraded(tid)) for tid in ids},
        sorted(fleet.violating_traces()),
        fleet.top_k_riskiest(5),
        fleet.worst_ratio_histogram(),
    )


def test_pickled_monitor_with_kernel_choice_restores(legacy_writer):
    records = list(profiled_trace_records(random.Random(4), "storm", 90))
    cut = len(records) // 2
    uninterrupted = OnlineAbcMonitor(xi=XI)
    expected = [uninterrupted.observe(r) for r in records]

    monitor = OnlineAbcMonitor(xi=XI)
    for record in records[:cut]:
        monitor.observe(record)
    with legacy_writer():
        blob = codec.encode_monitor(monitor)
    assert b"_kernel_spec" in blob and OLD_KERNEL.encode() in blob

    restored = codec.decode_monitor(blob)
    assert not hasattr(restored, "kernel")
    assert "_kernel_spec" not in vars(restored._checker)
    got = expected[:cut] + [restored.observe(r) for r in records[cut:]]
    assert got == expected
    assert restored.changes == uninterrupted.changes
    assert restored.violation == uninterrupted.violation
    assert restored.oracle_calls == uninterrupted.oracle_calls


def test_spec_row_with_kernel_slot_decodes():
    spec = MonitorSpec(
        xi=2, compact_threshold=3.0, faulty={1}, drop_faulty=False
    )
    row = (*codec.encode_spec(spec), OLD_KERNEL)
    assert codec.decode_spec(row) == spec
    assert codec.decode_specs(("map", (("t", row),))) == {"t": spec}


def test_monitor_fleet_snapshot_with_kernel_slots_restores(legacy_writer):
    stream = stream_of(seed=13)
    specs = {tid: MonitorSpec(compact_threshold=2.0) for tid, _ in stream[::7]}
    cut = len(stream) // 2

    # Fed in the same two calls: ingest_many chunking shapes the flush
    # cadence, and with it the oracle-call count compared below.
    uninterrupted = MonitorFleet(XI, monitor_specs=specs)
    uninterrupted.ingest_many(stream[:cut])
    uninterrupted.ingest_many(stream[cut:])

    fleet = MonitorFleet(XI, monitor_specs=specs)
    fleet.ingest_many(stream[:cut])
    with legacy_writer():
        magic, version, config, group = fleet.snapshot()
    frame = (magic, version, (*config, OLD_KERNEL), group)
    assert len(config) == 9 and all(
        len(row) == 5 for _tid, row in config[-1][1]
    )

    restored = MonitorFleet.restore(frame)
    restored.ingest_many(stream[cut:])
    assert answers(restored, stream) == answers(uninterrupted, stream)
    assert (
        restored.report().oracle_calls == uninterrupted.report().oracle_calls
    )


def test_parallel_fleet_checkpoint_with_kernel_key_restores(
    legacy_writer, tmp_path
):
    stream = stream_of(seed=12)
    specs = {tid: MonitorSpec(compact_threshold=2.0) for tid, _ in stream[::5]}
    serial = MonitorFleet(XI, n_shards=8, batch_size=8, monitor_specs=specs)
    serial.ingest_many(stream)

    with legacy_writer():
        with ParallelFleet(
            XI,
            n_workers=2,
            n_shards=8,
            batch_size=8,
            backend="thread",
            wire_batch=16,
            monitor_specs=specs,
            durability=Durability(root=tmp_path, checkpoint_every=150),
        ) as fleet:
            fleet.ingest_many(stream[: (len(stream) * 2) // 3])
    meta, _snapshots = DurableStore(tmp_path).load()
    assert meta["config"]["kernel"] == OLD_KERNEL
    restored = ParallelFleet.restore(tmp_path)
    with restored:
        restored.ingest_many(stream[restored.ingested_records :])
        assert answers(restored, stream) == answers(serial, stream)
        assert restored.crashed_shards() == ()
