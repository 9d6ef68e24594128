"""Differential tests: ParallelFleet vs the serial MonitorFleet.

The acceptance property of the parallel runtime: for every workload in
the sweep, every per-trace worst ratio and degradation flag -- and the
*set* of violating traces -- is bit-identical between the serial fleet
and the parallel fleet on both backends.  Around it: deterministic
violation ordering, budget apportionment/rebalancing, crash
containment, and the lifecycle/validation surface.
"""

import random
from collections import defaultdict
from fractions import Fraction

import pytest

from repro.analysis.fleet import MonitorFleet
from repro.analysis.online import OnlineAbcMonitor
from repro.runtime import MonitorSpec, ParallelFleet, TraceSummary, WorkerCrashed
from repro.scenarios.generators import (
    concurrent_workload,
    profiled_trace_records,
    relay_chain_workload,
    strip_sends_metadata,
)
from repro.sim.trace import ReceiveRecord

BACKENDS = ("thread", "process")


def by_trace(stream):
    per = defaultdict(list)
    for trace_id, record in stream:
        per[trace_id].append(record)
    return per


def standalone_ratio(records):
    monitor = OnlineAbcMonitor()
    for record in records:
        monitor.observe(record)
    return monitor.worst_ratio


class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "seed,batch_size,n_shards,n_workers,budget,wire_batch",
        [
            (0, 1, 2, 2, None, 1),
            (1, 8, 8, 2, None, 32),
            (2, 16, 8, 3, 400, 64),
            (3, 4, 6, 2, 150, 16),
        ],
    )
    def test_ratios_bit_identical_to_serial(
        self, backend, seed, batch_size, n_shards, n_workers, budget, wire_batch
    ):
        stream = list(
            concurrent_workload(
                random.Random(seed), n_traces=12, records_per_trace=(15, 45)
            )
        )
        serial = MonitorFleet(
            n_shards=n_shards, batch_size=batch_size, event_budget=budget
        )
        serial.ingest_many(stream)
        with ParallelFleet(
            n_shards=n_shards,
            n_workers=n_workers,
            batch_size=batch_size,
            event_budget=budget,
            backend=backend,
            wire_batch=wire_batch,
        ) as fleet:
            fleet.ingest_many(stream)
            for trace_id, records in by_trace(stream).items():
                assert fleet.worst_ratio(trace_id) == serial.worst_ratio(
                    trace_id
                ), trace_id
                assert fleet.is_degraded(trace_id) == serial.is_degraded(
                    trace_id
                )
            report = fleet.report()
            assert report.records == len(stream)
            assert report.degraded_traces == 0
            assert report.crashed_shards == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_violation_sets_match_serial(self, backend):
        stream = list(
            concurrent_workload(
                random.Random(6),
                n_traces=10,
                records_per_trace=(30, 60),
                profile_weights={"storm": 0.5, "burst": 0.3, "idler": 0.2},
            )
        )
        xi = Fraction(2)
        serial = MonitorFleet(xi=xi, n_shards=4, batch_size=8)
        serial.ingest_many(stream)
        serial_violating = set(serial.violating_traces())
        assert serial_violating, "the sweep needs actual violations"
        hits = []
        with ParallelFleet(
            xi=xi,
            n_shards=4,
            n_workers=2,
            batch_size=8,
            backend=backend,
            wire_batch=16,
            on_violation=lambda tid, w: hits.append((tid, w)),
        ) as fleet:
            fleet.ingest_many(stream)
            assert set(fleet.violating_traces()) == serial_violating
            # Callbacks carried genuine witnesses for exactly that set.
            assert {tid for tid, _w in hits} == serial_violating
            for _tid, witness in hits:
                assert witness.relevant and witness.ratio >= xi
            # And the merged report agrees.
            assert (
                set(fleet.report().violating_traces) == serial_violating
            )

    def test_violation_order_is_deterministic_across_runs(self):
        stream = list(
            concurrent_workload(
                random.Random(8),
                n_traces=8,
                records_per_trace=(30, 60),
                profile_weights={"storm": 0.7, "burst": 0.3},
            )
        )

        def run():
            order = []
            with ParallelFleet(
                xi=Fraction(2),
                n_shards=4,
                n_workers=2,
                batch_size=8,
                backend="thread",
                wire_batch=16,
                on_violation=lambda tid, _w: order.append(tid),
            ) as fleet:
                fleet.ingest_many(stream)
                listed = fleet.violating_traces()
            return order, listed

        first_order, first_listed = run()
        second_order, second_listed = run()
        assert first_listed
        assert first_order == second_order
        assert first_listed == second_listed
        # The merged order is the (tick, trace id) sort, which the
        # callback firing respects batch by batch.
        assert tuple(dict.fromkeys(first_order)) == first_listed


class TestBudget:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "weights",
        [{"burst": 0.6, "idler": 0.4}, {"relay": 1.0}],
        ids=["burst-idler", "relay"],
    )
    def test_budget_respected_with_exact_ratios(self, backend, weights):
        """Eviction pins come from each monitor's own in-flight ledger
        (no compaction threshold anywhere): the relay input keeps long
        causal chains with sends in flight across every cut, and must
        still match an unbudgeted serial fleet exactly."""
        stream = list(
            concurrent_workload(
                random.Random(9),
                n_traces=12,
                records_per_trace=(30, 60),
                profile_weights=weights,
            )
        )
        serial = MonitorFleet(n_shards=8, batch_size=8)
        serial.ingest_many(stream)
        budget = 240
        with ParallelFleet(
            n_shards=8,
            n_workers=2,
            batch_size=8,
            event_budget=budget,
            backend=backend,
            wire_batch=32,
        ) as fleet:
            fleet.ingest_many(stream)
            report = fleet.report()
            assert report.budget_overruns == 0
            assert report.peak_live_events <= budget
            assert report.live_events <= budget
            assert report.tombstoned_events > 0
            for trace_id, records in by_trace(stream).items():
                assert fleet.worst_ratio(trace_id) == standalone_ratio(
                    records
                )
                assert fleet.worst_ratio(trace_id) == serial.worst_ratio(
                    trace_id
                )
                assert not fleet.is_degraded(trace_id)

    def test_rebalancing_tracks_skewed_demand(self):
        """All traffic lands on one worker's shards: the even initial
        split is too small for it, so only demand-proportional
        rebalancing keeps the overloaded worker's share viable.  The
        frozen split must end with a visibly skewed share; the
        rebalanced run must shift budget towards the loaded worker."""
        n_shards, n_workers = 4, 2
        # Craft ids that all route to worker 0 (shards 0 and 2).
        import zlib

        rng = random.Random(3)
        ids = []
        probe = 0
        while len(ids) < 6:
            tid = f"skew-{probe}"
            probe += 1
            if zlib.crc32(tid.encode()) % n_shards % n_workers == 0:
                ids.append(tid)
        streams = {
            tid: relay_chain_workload(rng, 120) for tid in ids
        }
        budget = 200

        def run(rebalance):
            with ParallelFleet(
                n_shards=n_shards,
                n_workers=n_workers,
                batch_size=16,
                event_budget=budget,
                backend="thread",
                wire_batch=32,
                rebalance=rebalance,
            ) as fleet:
                iters = {tid: iter(records) for tid, records in streams.items()}
                alive = dict(iters)
                step = 0
                while alive:
                    for tid in list(alive):
                        record = next(alive[tid], None)
                        if record is None:
                            del alive[tid]
                        else:
                            fleet.ingest(tid, record)
                    step += 1
                    if step % 20 == 0:
                        fleet.flush()  # barrier: rebalance opportunity
                report = fleet.report()
                shares = dict(fleet._shares)
                return report, shares

        report, shares = run(rebalance=True)
        # The loaded worker's share must have grown past the even split.
        assert shares[0] > budget // n_workers
        assert shares[0] + shares[1] <= budget
        assert report.peak_live_events <= budget
        for tid, records in streams.items():
            ratio = standalone_ratio(records)
            assert ratio is not None
        frozen_report, frozen_shares = run(rebalance=False)
        assert frozen_shares[0] == budget // n_workers
        # Ratios stay exact either way (budget pressure never trades
        # exactness); rebalancing is about honoring the budget, not
        # about correctness.
        assert frozen_report.degraded_traces == 0


class TestLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_returns_serial_identical_summary(self, backend):
        records = profiled_trace_records(random.Random(4), "burst", 40)
        serial = MonitorFleet(batch_size=8)
        for record in records:
            serial.ingest("t", record)
        serial_summary = serial.close("t")
        with ParallelFleet(
            batch_size=8, n_workers=2, backend=backend, wire_batch=16
        ) as fleet:
            for record in records:
                fleet.ingest("t", record)
            summary = fleet.close("t")
            assert isinstance(summary, TraceSummary)
            assert summary.trace_id == "t"
            assert summary.worst_ratio == serial_summary.worst_ratio
            assert summary.n_records == serial_summary.n_records
            assert summary.degraded == serial_summary.degraded
            # Closing again returns the summary unchanged; the retired
            # trace still answers ratio queries.
            assert fleet.close("t").worst_ratio == summary.worst_ratio
            assert fleet.worst_ratio("t") == summary.worst_ratio
            report = fleet.report()
            assert report.retired_traces == 1 and report.open_traces == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_trace_raises_keyerror(self, backend):
        with ParallelFleet(
            n_workers=2, backend=backend
        ) as fleet:
            fleet.ingest("known", profiled_trace_records(
                random.Random(0), "idler", 2
            )[0])
            with pytest.raises(KeyError):
                fleet.worst_ratio("never-seen")
            with pytest.raises(KeyError):
                fleet.close("never-seen")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aggregates_match_serial(self, backend):
        stream = list(
            concurrent_workload(
                random.Random(13), n_traces=15, records_per_trace=(15, 40)
            )
        )
        serial = MonitorFleet(n_shards=4, batch_size=16)
        serial.ingest_many(stream)
        with ParallelFleet(
            n_shards=4,
            n_workers=2,
            batch_size=16,
            backend=backend,
            wire_batch=64,
        ) as fleet:
            fleet.ingest_many(stream)
            assert (
                fleet.worst_ratio_histogram()
                == serial.worst_ratio_histogram()
            )
            assert fleet.top_k_riskiest(5) == serial.top_k_riskiest(5)
            assert len(fleet) == len(serial)
            assert fleet.open_traces == serial.open_traces

    def test_shutdown_is_idempotent_and_blocks_every_entry_point(self):
        """A cleanly stopped fleet must refuse further use loudly --
        not misread the workers' silence as a fleet-wide crash (review
        finding: report() after shutdown() listed every shard as
        crashed, and queries raised WorkerCrashed after a probe
        delay)."""
        fleet = ParallelFleet(n_workers=2, backend="thread")
        records = profiled_trace_records(random.Random(0), "idler", 2)
        fleet.ingest("t", records[0])
        fleet.shutdown()
        fleet.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            fleet.ingest("t", records[1])
        for call in (
            lambda: fleet.report(),
            lambda: fleet.flush(),
            lambda: fleet.worst_ratio("t"),
            lambda: fleet.is_degraded("t"),
            lambda: fleet.close("t"),
            lambda: fleet.violating_traces(),
            lambda: fleet.worst_ratio_histogram(),
        ):
            with pytest.raises(RuntimeError, match="shut down"):
                call()

    def test_quiet_worker_still_auto_retires_at_barriers(self):
        """A worker whose shards stop receiving traffic must still
        retire its idle traces when a barrier advances its clock
        (review finding: otherwise its traces -- and their budget
        share -- are held open forever)."""
        import zlib

        n_shards, n_workers = 4, 2

        def worker_of(tid):
            return zlib.crc32(tid.encode()) % n_shards % n_workers

        quiet = next(f"q{i}" for i in range(100) if worker_of(f"q{i}") == 0)
        busy = next(f"b{i}" for i in range(100) if worker_of(f"b{i}") == 1)
        quiet_records = profiled_trace_records(random.Random(1), "idler", 5)
        busy_records = profiled_trace_records(random.Random(2), "burst", 60)
        with ParallelFleet(
            n_shards=n_shards,
            n_workers=n_workers,
            batch_size=4,
            wire_batch=4,
            backend="thread",
            auto_retire_after=20,
        ) as fleet:
            for record in quiet_records:
                fleet.ingest(quiet, record)
            # Only worker 1 sees traffic from here on; the dispatcher
            # tick keeps advancing past the quiet trace's idle age.
            for record in busy_records:
                fleet.ingest(busy, record)
            fleet.flush()  # barrier advances worker 0's clock
            report = fleet.report()
            assert report.auto_retired >= 1
            assert report.retired_traces >= 1
            assert fleet.worst_ratio(quiet) == standalone_ratio(
                quiet_records
            )
            assert not fleet.is_degraded(quiet)

    def test_monitor_factory_requires_thread_backend(self):
        with pytest.raises(ValueError):
            ParallelFleet(
                backend="process", monitor_factory=lambda tid: OnlineAbcMonitor()
            )
        seen = []

        def factory(trace_id):
            seen.append(trace_id)
            return OnlineAbcMonitor()

        records = profiled_trace_records(random.Random(1), "burst", 10)
        with ParallelFleet(
            backend="thread", n_workers=2, monitor_factory=factory
        ) as fleet:
            for record in records:
                fleet.ingest("custom", record)
            assert fleet.worst_ratio("custom") == standalone_ratio(records)
        assert seen == ["custom"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=0)
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=4, n_shards=2)
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=2, batch_size=0)
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=2, wire_batch=0)
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=4, event_budget=2)
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelFleet(backend="processes")
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=2, inbox_capacity=0)
        with pytest.raises(ValueError):
            ParallelFleet(n_workers=2, compact_threshold=1.0)

    def test_spawn_time_config_is_read_only(self):
        """The workers received their configuration at spawn; a write
        to the facade would change only what report() echoes, so it
        must raise instead of silently lying (unlike the serial
        fleet's genuinely retunable properties)."""
        with ParallelFleet(n_workers=2, backend="thread") as fleet:
            for attribute, value in (
                ("xi", Fraction(2)),
                ("batch_size", 4),
                ("event_budget", 100),
                ("n_shards", 4),
                ("n_workers", 1),
            ):
                with pytest.raises(AttributeError):
                    setattr(fleet, attribute, value)


class TestDegradation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metadata_free_streams_flag_not_crash(self, backend):
        """Without sends metadata a tight budget can evict past an
        in-flight send; the parallel fleet must skip/flag exactly as
        the serial engine does -- never raise, never hang."""
        streams = {
            f"t{i}": strip_sends_metadata(
                profiled_trace_records(random.Random(40 + i), "storm", 40)
            )
            for i in range(4)
        }
        with ParallelFleet(
            n_shards=4,
            n_workers=2,
            batch_size=4,
            event_budget=40,
            backend=backend,
            wire_batch=8,
        ) as fleet:
            iters = {tid: iter(recs) for tid, recs in streams.items()}
            alive = dict(iters)
            while alive:
                for tid in list(alive):
                    record = next(alive[tid], None)
                    if record is None:
                        del alive[tid]
                    else:
                        fleet.ingest(tid, record)
            degraded = 0
            for tid, records in streams.items():
                exact = standalone_ratio(records)
                got = fleet.worst_ratio(tid)
                if fleet.is_degraded(tid):
                    degraded += 1
                    assert got is None or exact is None or got <= exact
                else:
                    assert got == exact
            assert fleet.report().degraded_traces == degraded


class TestCrashContainment:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_crash_degrades_shards_without_hanging(self, backend):
        """A poison record (out-of-order event index) kills its worker
        mid-absorption.  The fleet must keep serving every other
        worker, surface the dead worker's shards as crashed, raise
        WorkerCrashed (not hang) for queries against them, and count
        records dropped after the crash."""
        from repro.core.events import Event

        n_shards, n_workers = 4, 2
        import zlib

        def shard(tid):
            return zlib.crc32(tid.encode()) % n_shards

        doomed = next(
            f"d{i}" for i in range(100) if shard(f"d{i}") % n_workers == 0
        )
        healthy = next(
            f"h{i}" for i in range(100) if shard(f"h{i}") % n_workers == 1
        )
        healthy_records = profiled_trace_records(random.Random(2), "burst", 30)
        poison = ReceiveRecord(
            event=Event(0, 7),  # index 7 with no predecessors: ValueError
            time=1.0,
            sender=None,
            send_event=None,
            send_time=None,
            payload=None,
            processed=True,
            sends=(),
        )
        with ParallelFleet(
            n_shards=n_shards,
            n_workers=n_workers,
            batch_size=1,
            backend=backend,
            wire_batch=1,
        ) as fleet:
            for record in healthy_records[:10]:
                fleet.ingest(healthy, record)
            fleet.ingest(doomed, poison)
            fleet.flush()  # the barrier that discovers the crash
            report = fleet.report()
            assert report.crashed_shards == tuple(
                range(0, n_shards, n_workers)
            )
            # The healthy worker keeps answering, exactly.
            for record in healthy_records[10:]:
                fleet.ingest(healthy, record)
            assert fleet.worst_ratio(healthy) == standalone_ratio(
                healthy_records
            )
            # Queries against the dead worker's shards surface the crash.
            with pytest.raises(WorkerCrashed):
                fleet.worst_ratio(doomed)
            # Records routed to dead shards are dropped and counted.
            before = fleet.dropped_records
            fleet.ingest(doomed, poison)
            fleet.flush()
            assert fleet.dropped_records > before


class TestMonitorSpecs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_specs_cross_the_process_boundary(self, backend):
        """The monitor_factory gap, closed: declarative per-trace
        configuration must reach process workers (where callables
        cannot) and produce per-trace xi behavior identical to the
        serial fleet given the same registry."""
        from repro.runtime import MonitorSpec

        stream = list(
            concurrent_workload(
                random.Random(21),
                n_traces=10,
                records_per_trace=(30, 60),
                profile_weights={"storm": 0.6, "burst": 0.4},
            )
        )
        ids = sorted({tid for tid, _ in stream})
        # Half the traces watch a tight xi, the rest the loose default.
        specs = {tid: MonitorSpec(xi=Fraction(3, 2)) for tid in ids[::2]}
        serial = MonitorFleet(
            xi=Fraction(4), n_shards=4, batch_size=8, monitor_specs=specs
        )
        serial.ingest_many(stream)
        expected_violating = set(serial.violating_traces())
        with ParallelFleet(
            xi=Fraction(4),
            n_shards=4,
            n_workers=2,
            batch_size=8,
            backend=backend,
            wire_batch=16,
            monitor_specs=specs,
        ) as fleet:
            fleet.ingest_many(stream)
            assert set(fleet.violating_traces()) == expected_violating
            for tid in ids:
                assert fleet.worst_ratio(tid) == serial.worst_ratio(tid)
        # The tight spec must actually have bitten somewhere the loose
        # default would not (otherwise this test proves nothing).
        loose = MonitorFleet(xi=Fraction(4), n_shards=4, batch_size=8)
        loose.ingest_many(stream)
        assert expected_violating != set(loose.violating_traces())

    def test_specs_validation(self):
        with pytest.raises(TypeError):
            ParallelFleet(n_workers=2, monitor_specs="not-a-spec")


class TestMigration:
    def reference(self, stream):
        serial = MonitorFleet(xi=Fraction(3, 2), n_shards=9, batch_size=8)
        serial.ingest_many(stream)
        return serial

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_live_migration_preserves_bit_identity(self, backend):
        """Move shards between workers mid-stream; every later record
        routes to the new owner and nothing about the per-trace results
        changes."""
        stream = list(
            concurrent_workload(
                random.Random(7), n_traces=18, records_per_trace=(20, 50)
            )
        )
        serial = self.reference(stream)
        cut = len(stream) // 2
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=3,
            n_shards=9,
            batch_size=8,
            backend=backend,
            wire_batch=16,
        ) as fleet:
            fleet.ingest_many(stream[:cut])
            assert fleet.worker_of(1) == 1
            fleet.migrate_shard(1, 2)
            fleet.migrate_shard(4, 0)
            assert fleet.worker_of(1) == 2
            assert fleet.worker_of(4) == 0
            assert fleet.placement[1] == 2
            fleet.ingest_many(stream[cut:])
            for tid in sorted({t for t, _ in stream}):
                assert fleet.worst_ratio(tid) == serial.worst_ratio(tid)
                assert fleet.is_degraded(tid) == serial.is_degraded(tid)
            assert set(fleet.violating_traces()) == set(
                serial.violating_traces()
            )
            assert fleet.report().crashed_shards == ()

    def test_migration_validation(self):
        with ParallelFleet(
            n_workers=2, n_shards=4, backend="thread"
        ) as fleet:
            with pytest.raises(ValueError):
                fleet.migrate_shard(99, 0)
            with pytest.raises(ValueError):
                fleet.migrate_shard(0, 99)
            fleet.migrate_shard(0, 0)  # no-op: already there
            # Refuses to leave a worker shardless: worker 1 owns only
            # shards 1 and 3; stripping both must fail on the last one.
            fleet.migrate_shard(1, 0)
            with pytest.raises(ValueError, match="shardless"):
                fleet.migrate_shard(3, 0)

    def test_rebalance_placement_unpins_skew(self):
        """A mined-id workload lands (almost) everything on worker 0;
        rebalance_placement must move shards off it and the results must
        stay bit-identical to serial."""
        from repro.scenarios.generators import skewed_workload

        n_shards, n_workers = 9, 3
        stream = list(
            skewed_workload(
                random.Random(13),
                n_traces=18,
                records_per_trace=(20, 50),
                n_shards=n_shards,
                hot_shards=(0, 3),  # both on worker 0
                hot_fraction=0.9,
            )
        )
        serial = MonitorFleet(
            xi=Fraction(3, 2), n_shards=n_shards, batch_size=8
        )
        serial.ingest_many(stream)
        cut = len(stream) // 2
        with ParallelFleet(
            Fraction(3, 2),
            n_workers=n_workers,
            n_shards=n_shards,
            batch_size=8,
            backend="thread",
            wire_batch=16,
        ) as fleet:
            fleet.ingest_many(stream[:cut])
            moves = fleet.rebalance_placement(threshold=2.0)
            assert moves, "a 90%-hot workload must trigger moves"
            for shard, src, dest in moves:
                assert src == 0
                assert fleet.worker_of(shard) == dest
            fleet.ingest_many(stream[cut:])
            for tid in sorted({t for t, _ in stream}):
                assert fleet.worst_ratio(tid) == serial.worst_ratio(tid)
            assert set(fleet.violating_traces()) == set(
                serial.violating_traces()
            )

    def test_rebalance_placement_noop_when_even(self):
        stream = list(
            concurrent_workload(
                random.Random(2), n_traces=12, records_per_trace=(15, 30)
            )
        )
        with ParallelFleet(
            n_workers=2, n_shards=8, backend="thread"
        ) as fleet:
            fleet.ingest_many(stream)
            # A roughly even population should not thrash placement.
            moves = fleet.rebalance_placement(threshold=4.0)
            assert moves == []
        with ParallelFleet(n_workers=2, backend="thread") as fleet:
            with pytest.raises(ValueError):
                fleet.rebalance_placement(threshold=1.0)


class TestCloseSurface:
    def test_close_without_argument_shuts_down(self):
        records = profiled_trace_records(random.Random(0), "idler", 4)
        fleet = ParallelFleet(n_workers=2, backend="thread")
        fleet.ingest("t", records[0])
        assert fleet.close() is None
        fleet.close()  # idempotent, like shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            fleet.ingest("t", records[1])


class TestCountersPurity:
    """The counters telemetry (``live_events`` / ``open_traces`` /
    ``retired_traces``) is documented as a pure read: polling it
    mid-stream must not ship buffers, force worker flushes, or change
    the flush cadence.  Regression guard for the columnar wire path,
    whose batching would silently collapse if a poll started flushing."""

    @staticmethod
    def drive(poll_every, stream, **fleet_kw):
        polls = []
        with ParallelFleet(
            n_shards=8,
            n_workers=2,
            batch_size=8,
            backend="thread",
            wire_batch=32,
            **fleet_kw,
        ) as fleet:
            for i, (trace_id, record) in enumerate(stream):
                fleet.ingest(trace_id, record)
                if poll_every and i % poll_every == 0:
                    polls.append(
                        (
                            fleet.live_events,
                            fleet.open_traces,
                            fleet.retired_traces,
                        )
                    )
            fleet.flush()
            report = fleet.report()
            ratios = {
                tid: fleet.worst_ratio(tid)
                for tid in sorted({t for t, _ in stream}, key=str)
            }
        return polls, report, ratios

    def test_polling_does_not_change_flush_cadence(self):
        stream = list(
            concurrent_workload(
                random.Random(19), n_traces=10, records_per_trace=(20, 40)
            )
        )
        _no_polls, quiet_report, quiet_ratios = self.drive(0, stream)
        polls, polled_report, polled_ratios = self.drive(7, stream)
        assert polls, "the polled twin must actually poll"
        assert polled_ratios == quiet_ratios
        assert polled_report.records == quiet_report.records
        assert polled_report.violating_traces == quiet_report.violating_traces
        # The load-bearing assertion: identical per-shard flush counts
        # and record counts -- a poll that shipped buffers or forced a
        # flush would break the cadence.
        assert [
            (s.shard, s.flushes, s.records) for s in polled_report.shards
        ] == [(s.shard, s.flushes, s.records) for s in quiet_report.shards]
        assert polled_report.live_events == quiet_report.live_events

    def test_counts_reflect_absorbed_not_buffered(self):
        """Mid-stream counter reads are bounded by what was absorbed:
        they never exceed the records ingested so far, and the final
        read (after flush) accounts for every open trace."""
        stream = list(
            concurrent_workload(
                random.Random(23), n_traces=6, records_per_trace=(10, 20)
            )
        )
        polls, report, _ratios = self.drive(5, stream)
        n_traces = len({tid for tid, _ in stream})
        for live, opened, retired in polls:
            assert 0 <= opened <= n_traces
            assert retired == 0
            assert live <= len(stream)
        assert report.open_traces == n_traces
