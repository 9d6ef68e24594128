"""Differential conformance: the incremental monitor vs a from-scratch check.

The online monitor answers from one digraph grown in place, refreshed
by a Farey-successor probe per batch, compacted, checkpointed and
rolled back.  Its contract is that none of that machinery shows: at
**every prefix** of the stream its worst ratio equals that of a fresh
:class:`~repro.core.synchrony.AdmissibilityChecker` built from scratch
on the prefix's execution graph, and any violation witness it reports
is a genuine relevant cycle of that graph at ratio ``>= xi``.

This suite checks that contract through each of the monitor's three
entries (``observe``, ``observe_batch``, ``observe_batch_columnar``)
over all the generator profiles (storm, burst, idler, relay), the
simulator scenarios (ping-pong storm, zero-delay burst, long-silence),
adaptively compacting monitors, metadata-free streams, and randomized
hypothesis streams.  The checker's checkpoint / rollback / speculate
surface is held to the same from-scratch reference.

A failing assertion names the first prefix that diverged.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.online import OnlineAbcMonitor
from repro.core.cycles import classify
from repro.core.synchrony import AdmissibilityChecker
from repro.scenarios.generators import (
    long_silence,
    ping_pong_storm,
    profiled_trace_records,
    streaming_trace,
    strip_sends_metadata,
    zero_delay_burst,
)
from repro.sim import SimulationLimits, Simulator
from repro.sim.trace import RecordColumns, Trace, build_execution_graph

RECORD_PROFILES = ("storm", "burst", "idler", "relay")
SIM_SCENARIOS = {
    "ping_pong": ping_pong_storm,
    "zero_delay": zero_delay_burst,
    "long_silence": long_silence,
}
PROBE_RATIOS = (
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(4),
)
# Records per call on the batch entries: small and prime, so batch
# boundaries fall everywhere in the streams.
BATCH = 5


def _observe(monitor, chunk):
    for record in chunk:
        monitor.observe(record)


def _observe_batch(monitor, chunk):
    monitor.observe_batch(chunk)


def _observe_batch_columnar(monitor, chunk):
    monitor.observe_batch_columnar(RecordColumns.from_records(chunk))


# entry name -> (records per call, feed function)
ENTRIES = {
    "observe": (1, _observe),
    "observe_batch": (BATCH, _observe_batch),
    "observe_batch_columnar": (BATCH, _observe_batch_columnar),
}


@functools.cache
def profile_records(profile: str, n: int = 120, seed: int = 9):
    return tuple(profiled_trace_records(random.Random(seed), profile, n))


@functools.cache
def sim_records(scenario: str, max_events: int = 300):
    processes, network = SIM_SCENARIOS[scenario]()
    trace = Simulator(processes, network, seed=0).run(
        SimulationLimits(max_events=max_events)
    )
    return tuple(trace.records)


def n_processes(records) -> int:
    return 1 + max(
        max(r.event.process for r in records),
        max((r.sender for r in records if r.sender is not None), default=0),
    )


def prefix_graph(records, k):
    return build_execution_graph(
        Trace(n_processes(records), frozenset(), list(records[:k]))
    )


@functools.cache
def reference_ratios(records) -> tuple:
    """Worst ratio of every prefix, each from a fresh checker."""
    return tuple(
        AdmissibilityChecker(prefix_graph(records, k)).worst_relevant_ratio()
        for k in range(len(records) + 1)
    )


def at_most(low, high) -> bool:
    """``low <= high`` on worst ratios (``None``: no relevant cycle)."""
    return low is None or (high is not None and low <= high)


def assert_genuine_witness(witness, graph, xi) -> None:
    """``witness`` is a relevant cycle of ``graph`` at ratio >= ``xi``."""
    edges = set(graph.edges())
    missing = [e for e in witness.cycle.edges if e not in edges]
    assert not missing, f"witness edges not in the graph: {missing}"
    assert classify(witness.cycle) == witness, "witness misclassified"
    assert witness.relevant
    assert witness.ratio is not None and witness.ratio >= xi


def check_against_reference(
    records, entry, *, xi=None, compact_threshold=None, exact=True
):
    """Feed ``records`` through ``entry`` and compare the monitor with
    the from-scratch reference after every call; returns the monitor.

    ``exact=False`` is for metadata-free compacting monitors, which
    may forget message edges: their ratio is then only a lower bound,
    and stays exact while no edge has been forgotten."""
    size, feed = ENTRIES[entry]
    reference = reference_ratios(tuple(records))
    monitor = OnlineAbcMonitor(xi=xi, compact_threshold=compact_threshold)
    witness = None
    for start in range(0, len(records), size):
        chunk = list(records[start : start + size])
        feed(monitor, chunk)
        k = start + len(chunk)
        got, want = monitor.worst_ratio, reference[k]
        at = f"prefix {k} ({entry})"
        if exact or monitor.forgotten_message_edges == 0:
            assert got == want, f"{at}: monitor {got}, fresh checker {want}"
        else:
            assert at_most(got, want), f"{at}: {got} above {want}"
        if xi is None:
            continue
        if exact:
            assert (monitor.violation is not None) == at_most(xi, want), at
        if monitor.violation is not witness:
            # The witness was reported on this call: it must be a cycle
            # of exactly this prefix's graph.
            assert witness is None, f"{at}: a second witness replaced the first"
            witness = monitor.violation
            assert_genuine_witness(witness, prefix_graph(records, k), xi)
            assert at_most(witness.ratio, want), at
    return monitor


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("profile", RECORD_PROFILES)
class TestGeneratorProfiles:
    def test_every_prefix_matches_fresh_checker(self, profile, entry):
        monitor = check_against_reference(profile_records(profile), entry)
        graph = prefix_graph(profile_records(profile), None)
        fresh = AdmissibilityChecker(graph)
        for xi in PROBE_RATIOS[1:]:
            assert monitor.check(xi).admissible == fresh.check(xi).admissible

    def test_with_xi_and_witness(self, profile, entry):
        # A xi low enough that storm/burst profiles actually violate.
        monitor = check_against_reference(
            profile_records(profile), entry, xi=Fraction(3, 2)
        )
        if profile in ("storm", "burst"):
            assert monitor.violation is not None

    def test_compacting_monitor(self, profile, entry):
        # Adaptive summary compaction: summary re-weighting must keep
        # every prefix's ratio exact.
        monitor = check_against_reference(
            profile_records(profile), entry, compact_threshold=2.0
        )
        assert monitor.auto_compactions > 0 or profile == "idler"


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("scenario", sorted(SIM_SCENARIOS))
class TestSimulatorScenarios:
    def test_every_prefix_matches_fresh_checker(self, scenario, entry):
        records = sim_records(scenario)
        assert records, "scenario produced no records"
        check_against_reference(records, entry, xi=Fraction(2))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
class TestMetadataFree:
    def test_stripped_sends_exact_without_compaction(self, entry):
        records = strip_sends_metadata(list(profile_records("burst")))
        check_against_reference(records, entry, xi=Fraction(3, 2))

    def test_compacting_degrades_to_a_lower_bound(self, entry):
        # Without sends metadata a compacting monitor cannot pin
        # in-flight sends; once it forgets a message edge its ratio is
        # a counted lower bound of the fresh checker's.
        records = strip_sends_metadata(list(profile_records("burst")))
        monitor = check_against_reference(
            records, entry, compact_threshold=2.0, exact=False
        )
        assert monitor.forgotten_message_edges > 0


class TestCheckpointRollbackSpeculate:
    def _trace(self, n_records=80, seed=23):
        return streaming_trace(
            random.Random(seed), n_processes=4, n_records=n_records
        )

    def _graph(self, trace, k):
        return build_execution_graph(
            Trace(trace.n, trace.faulty, trace.records[:k])
        )

    def test_rollback_restores_the_prefix_answers(self):
        trace = self._trace()
        cut = len(trace.records) // 2
        half, full = self._graph(trace, cut), build_execution_graph(trace)
        checker = AdmissibilityChecker(half)
        token = checker.checkpoint()
        checker.absorb(full)
        assert (
            checker.worst_relevant_ratio()
            == AdmissibilityChecker(full).worst_relevant_ratio()
        )
        checker.rollback(token)
        fresh = AdmissibilityChecker(half)
        for ratio in PROBE_RATIOS:
            assert checker.has_ratio_at_least(
                ratio
            ) == fresh.has_ratio_at_least(ratio), ratio
        assert checker.worst_relevant_ratio() == fresh.worst_relevant_ratio()

    def test_speculation_answers_and_retracts(self):
        trace = self._trace()
        cut = len(trace.records) // 2
        half, full = self._graph(trace, cut), build_execution_graph(trace)
        checker = AdmissibilityChecker(half)
        before = checker.worst_relevant_ratio()
        with checker.speculate() as spec:
            spec.absorb(full)
            assert (
                spec.worst_relevant_ratio()
                == AdmissibilityChecker(full).worst_relevant_ratio()
            )
        assert checker.worst_relevant_ratio() == before
        assert before == AdmissibilityChecker(half).worst_relevant_ratio()

    def test_interleaved_probe_stream(self):
        # Alternate absorption and probes so the checker's incremental
        # state is exercised mid-growth.
        trace = self._trace(n_records=60, seed=31)
        xi = Fraction(3, 2)
        checker = AdmissibilityChecker()
        for k in range(10, len(trace.records) + 1, 10):
            graph = self._graph(trace, k)
            checker.absorb(graph)
            fresh = AdmissibilityChecker(graph)
            for ratio in PROBE_RATIOS:
                assert checker.has_ratio_at_least(
                    ratio
                ) == fresh.has_ratio_at_least(ratio), (k, ratio)
            witness = checker.violating_cycle(xi)
            assert (witness is None) == (fresh.violating_cycle(xi) is None)
            if witness is not None:
                assert_genuine_witness(witness, graph, xi)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
class TestRandomizedStreams:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_stream_matches_fresh_checker(self, entry, seed):
        trace = streaming_trace(
            random.Random(seed), n_processes=3, n_records=40
        )
        check_against_reference(tuple(trace.records), entry, xi=Fraction(2))
