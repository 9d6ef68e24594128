"""Targeted adversarial conformance cases for the detection kernel.

Where :mod:`tests.core.test_kernel_differential` sweeps whole streams,
this suite aims at the specific shapes that can break an exact
negative-cycle kernel while leaving random sweeps green, each checked
against brute-force cycle enumeration or a from-scratch checker:

* cross-multiplication size -- probes at deep Stern-Brocot ratios with
  huge numerators/denominators, including ones far past int64 (exact
  big-int arithmetic, never a wrapped comparison);
* exact tie resolution at the worst ratio (the probe at the worst
  ratio itself answers True, its Farey successor False -- a boundary
  float arithmetic cannot hold);
* summary re-weighting above the compaction floor;
* the seeded Bellman-Ford counterexample (seeded detection must climb
  through forward edges);
* the removed kernels: naming one anywhere fails loudly, in the
  caller, and state written while a kernel could be chosen restores.
"""

import random
from fractions import Fraction

import pytest

from repro.core.events import Event
from repro.core.execution_graph import ExecutionGraph, MessageEdge
from repro.core.kernel import resolve_kernel_name
from repro.core.synchrony import (
    AdmissibilityChecker,
    farey_successor,
    worst_relevant_ratio_exhaustive,
)
from repro.scenarios.generators import (
    profiled_trace_records,
    random_execution_graph,
    streaming_trace,
)
from repro.sim.trace import build_execution_graph


def random_graph(seed, n_processes=3, n_messages=14):
    return random_execution_graph(
        random.Random(seed), n_processes, n_messages
    )


def at_least(worst, ratio) -> bool:
    """Brute-force answer of ``has_ratio_at_least(ratio)``."""
    return worst is not None and worst >= ratio


def stern_brocot_path(depth: int) -> list[Fraction]:
    """Mediant descent toward sqrt(2): numerators and denominators grow
    exponentially, exactly the deep-refinement ratios the worst-ratio
    search can probe on adversarial executions."""
    lo, hi = Fraction(1), Fraction(2)
    path = []
    for _ in range(depth):
        mid = Fraction(
            lo.numerator + hi.numerator, lo.denominator + hi.denominator
        )
        path.append(mid)
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return path


class TestOverflowShapes:
    def test_deep_stern_brocot_probes(self):
        graph = random_graph(seed=2)
        checker = AdmissibilityChecker(graph)
        worst = worst_relevant_ratio_exhaustive(graph)
        for ratio in stern_brocot_path(120)[::7]:
            assert checker.has_ratio_at_least(ratio) == at_least(
                worst, ratio
            ), f"wrong at {ratio.numerator}/{ratio.denominator}"

    def test_past_int64_guard(self):
        # Numerator/denominator far beyond 2**63: comparisons must stay
        # exact big-int arithmetic rather than wrap.
        huge = Fraction(2**70 + 1, 2**70 - 1)
        astronomically = Fraction(10**40 + 7, 10**40 - 9)
        for seed in (3, 4, 5):
            graph = random_graph(seed=seed)
            checker = AdmissibilityChecker(graph)
            worst = worst_relevant_ratio_exhaustive(graph)
            for ratio in (huge, astronomically):
                assert checker.has_ratio_at_least(ratio) == at_least(
                    worst, ratio
                ), (seed, ratio)

    def test_worst_ratio_search_on_dense_graph(self):
        # End-to-end Stern-Brocot search (the deepest p/q consumer),
        # as dense as brute-force enumeration stays affordable.
        for seed in range(6):
            graph = random_graph(seed=seed, n_messages=15)
            assert AdmissibilityChecker(
                graph
            ).worst_relevant_ratio() == worst_relevant_ratio_exhaustive(graph)


class TestDomainBoundaries:
    def test_exact_tie_at_worst_ratio(self):
        # has_ratio_at_least(worst) is True and has_ratio_at_least just
        # above worst is False: a zero-weight cycle tie that exact
        # arithmetic must resolve.
        hits = 0
        for seed in range(12):
            graph = random_graph(seed=seed)
            checker = AdmissibilityChecker(graph)
            worst = checker.worst_relevant_ratio()
            if worst is None:
                continue
            hits += 1
            assert worst == worst_relevant_ratio_exhaustive(graph)
            assert checker.has_ratio_at_least(worst)
            assert not checker.has_ratio_at_least(
                farey_successor(worst, checker.ratio_bound)
            )
        assert hits >= 3, "workload produced too few relevant cycles"


class TestSummaryReweighting:
    def test_probes_above_floor_match_full_graph(self):
        trace = streaming_trace(
            random.Random(13), n_processes=4, n_records=70
        )
        graph = build_execution_graph(trace)
        full = AdmissibilityChecker(graph)
        compacted = AdmissibilityChecker(graph)
        cut = [
            event
            for process in range(trace.n)
            for event in graph.events_of(process)[
                : len(graph.events_of(process)) // 2
            ]
        ]
        floor = compacted.worst_relevant_ratio()
        compacted.compact_prefix(cut, mode="summary", floor=floor)
        assert compacted.n_summary_edges > 0
        probe = floor if floor is not None else Fraction(1)
        for _ in range(6):
            probe = farey_successor(probe, full.ratio_bound)
            assert compacted.has_ratio_at_least(
                probe
            ) == full.has_ratio_at_least(probe), probe


class TestSeededCounterexample:
    def test_seeded_search_climbs_through_forward_edges(self):
        """PR 2's five-process counterexample: the violating cycle's
        prefix weight turns nonnegative at a forward edge, so anything
        short of true Bellman-Ford from the source set misses it."""
        xi = Fraction(3, 2)
        a0, b0 = Event(0, 0), Event(1, 0)
        c0, c1 = Event(2, 0), Event(2, 1)
        d0, d1 = Event(3, 0), Event(3, 1)
        e0, e1 = Event(4, 0), Event(4, 1)
        base = ExecutionGraph(
            {0: [a0], 1: [b0], 2: [c0, c1], 3: [d0, d1], 4: [e0]},
            [
                MessageEdge(b0, e0),
                MessageEdge(b0, c1),
                MessageEdge(d1, c0),
                MessageEdge(a0, d0),
            ],
        )
        checker = AdmissibilityChecker(base)
        assert not checker.has_ratio_at_least(xi)
        checker.add_event(e1)
        checker.add_message(a0, e1)
        assert checker.has_ratio_at_least(xi)
        assert checker.has_ratio_at_least(xi, sources=(e1,))

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_matches_full_on_frontier_extensions(self, seed):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(4, 10))
        checker = AdmissibilityChecker(graph)
        worst = checker.worst_relevant_ratio()
        src = rng.choice(sorted(graph.events()))
        process = rng.randrange(3)
        dst = Event(process, checker.n_events_of(process))
        checker.add_event(dst)
        if src != dst:
            checker.add_message(src, dst)
        probe = Fraction(1) if worst is None else worst
        for _ in range(4):
            assert checker.has_ratio_at_least(
                probe, sources=(dst,)
            ) == checker.has_ratio_at_least(probe), (seed, probe)
            probe = farey_successor(probe, checker.ratio_bound)




class TestRemovedKernel:
    """``py_object`` is the only kernel (the numpy ``vector`` and the
    flat-array ``flat_int`` kernels lost end to end with identical
    answers).  Naming a removed kernel must fail loudly -- in the
    caller, never inside a worker -- and never fall back unannounced."""

    @pytest.mark.parametrize("name", ["flat_int", "vector"])
    def test_env_var_fails_at_checker_construction(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", name)
        with pytest.raises(ValueError, match=f"unknown kernel '{name}'") as err:
            AdmissibilityChecker(random_graph(seed=7))
        assert "['py_object']" in str(err.value)

    def test_resolver_accepts_only_py_object(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel_name() == "py_object"
        assert resolve_kernel_name("py_object") == "py_object"
        monkeypatch.setenv("REPRO_KERNEL", "py_object")
        assert resolve_kernel_name() == "py_object"
        with pytest.raises(ValueError, match="unknown kernel 'flat_int'"):
            resolve_kernel_name("flat_int")

    def test_monitor_fleet_fails_at_first_ingest(self, monkeypatch):
        # The serial fleet has no worker: its first monitor is built in
        # the caller's ingest call, which raises and keeps no trace.
        from repro.analysis.fleet import MonitorFleet

        record = next(
            iter(profiled_trace_records(random.Random(1), "storm", 4))
        )
        monkeypatch.setenv("REPRO_KERNEL", "flat_int")
        fleet = MonitorFleet(Fraction(3, 2))
        with pytest.raises(ValueError, match="unknown kernel 'flat_int'"):
            fleet.ingest("t", record)
            fleet.flush()
        assert len(fleet) == 0

    @pytest.mark.parametrize("front_end", ["ParallelFleet", "IngestServer"])
    def test_worker_front_ends_fail_in_the_caller(
        self, front_end, monkeypatch
    ):
        # Process workers: the error must surface at construction,
        # before any worker is spawned, not as a crashed shard later.
        from repro.runtime import ParallelFleet
        from repro.runtime.net import IngestServer

        build = {
            "ParallelFleet": lambda: ParallelFleet(
                n_workers=1, backend="process"
            ),
            "IngestServer": lambda: IngestServer(
                n_fronts=1, backend="process"
            ),
        }[front_end]
        monkeypatch.setenv("REPRO_KERNEL", "flat_int")
        with pytest.raises(ValueError, match="unknown kernel 'flat_int'"):
            build()
