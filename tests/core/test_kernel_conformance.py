"""Targeted adversarial conformance cases for the integer kernels.

Where :mod:`tests.core.test_kernel_differential` sweeps whole random
workloads, this suite aims at the specific shapes that can break an
integer kernel while leaving random sweeps green:

* cross-multiplication overflow -- probes at deep Stern-Brocot ratios
  with huge numerators/denominators, including ones far past int64
  (exact big-int arithmetic, never a wrapped comparison);
* the ``p < q`` domain boundary of the safe-slack certificate class;
* exact tie resolution at the worst ratio (the probe at the worst
  ratio itself answers True, its Farey successor False -- a boundary
  float arithmetic cannot hold);
* summary re-weighting above and below the compaction floor;
* the PR 2 seeded Bellman-Ford counterexample (seeded detection must
  climb through forward edges on every kernel);
* the certificate-window soundness invariant: whenever the O(1) window
  pre-check passes, the exact sweep must also pass -- with a direct
  regression for the ``(df=0, db=0, dl>0)`` always-negative slack
  class that once slipped through the window;
* witness-memo interaction with checkpoint/rollback.
"""

import random
from fractions import Fraction

import pytest

from repro.core.events import Event
from repro.core.execution_graph import ExecutionGraph, MessageEdge
from repro.core.kernel import (
    FlatIntKernel,
    available_kernels,
    make_kernel,
    spfa_has_negative_cycle,
)
from repro.core.synchrony import (
    AdmissibilityChecker,
    farey_successor,
)
from repro.scenarios.generators import (
    random_execution_graph,
    streaming_trace,
)
from repro.sim.trace import Trace, build_execution_graph

REFERENCE = "py_object"
KERNELS = [name for name in available_kernels() if name != REFERENCE]


def random_checker_pair(kernel, seed, n_processes=3, n_messages=14):
    graph = random_execution_graph(
        random.Random(seed), n_processes, n_messages
    )
    return (
        AdmissibilityChecker(graph, kernel=REFERENCE),
        AdmissibilityChecker(graph, kernel=kernel),
    )


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


@pytest.mark.parametrize("kernel", KERNELS)
class TestOverflowShapes:
    def test_deep_stern_brocot_probes(self, kernel):
        ref, alt = random_checker_pair(kernel, seed=2)
        for ratio in stern_brocot_path(120)[::7]:
            assert ref.has_ratio_at_least(ratio) == alt.has_ratio_at_least(
                ratio
            ), f"diverged at {ratio.numerator}/{ratio.denominator}"

    def test_past_int64_guard(self, kernel):
        # Numerator/denominator far beyond 2**63: comparisons must stay
        # exact big-int arithmetic rather than wrap.
        huge = Fraction(2**70 + 1, 2**70 - 1)
        astronomically = Fraction(10**40 + 7, 10**40 - 9)
        for seed in (3, 4, 5):
            ref, alt = random_checker_pair(kernel, seed=seed)
            for ratio in (huge, astronomically):
                assert ref.has_ratio_at_least(
                    ratio
                ) == alt.has_ratio_at_least(ratio)

    def test_worst_ratio_search_on_dense_graph(self, kernel):
        # End-to-end Stern-Brocot search (the deepest p/q consumer).
        for seed in range(6):
            ref, alt = random_checker_pair(
                kernel, seed=seed, n_messages=20
            )
            assert ref.worst_relevant_ratio() == alt.worst_relevant_ratio()


@pytest.mark.parametrize("kernel", KERNELS)
class TestDomainBoundaries:
    def test_p_below_q_probes(self, kernel):
        # Ratios below 1 are out of the safe-slack certificate's domain
        # (its nonnegativity argument needs p >= q); the kernel must
        # answer them exactly anyway, matching the raw reference loop.
        for seed in range(5):
            graph = random_execution_graph(random.Random(seed), 3, 12)
            checker = AdmissibilityChecker(graph, kernel=kernel)
            k = checker._kernel
            for p, q in ((1, 2), (2, 3), (1, 5), (3, 4)):
                assert k.has_negative_cycle(p, q, None) == (
                    spfa_has_negative_cycle(checker, p, q, None)
                ), (seed, p, q)

    def test_exact_tie_at_worst_ratio(self, kernel):
        # has_ratio_at_least(worst) is True and has_ratio_at_least just
        # above worst is False: a zero-weight cycle tie that exact
        # arithmetic must resolve identically on every kernel.
        hits = 0
        for seed in range(12):
            ref, alt = random_checker_pair(kernel, seed=seed)
            worst = ref.worst_relevant_ratio()
            if worst is None:
                continue
            hits += 1
            above = farey_successor(worst, ref.ratio_bound)
            for checker in (ref, alt):
                assert checker.has_ratio_at_least(worst)
                assert not checker.has_ratio_at_least(above)
        assert hits >= 3, "workload produced too few relevant cycles"


@pytest.mark.parametrize("kernel", KERNELS)
class TestSummaryReweighting:
    def _trace(self, seed=13, n=70):
        return streaming_trace(
            random.Random(seed), n_processes=4, n_records=n
        )

    def test_probes_above_floor_match_full_graph(self, kernel):
        trace = self._trace()
        graph = build_execution_graph(trace)
        full = AdmissibilityChecker(graph, kernel=REFERENCE)
        compacted = AdmissibilityChecker(graph, kernel=kernel)
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

    def test_below_floor_kernels_agree_with_each_other(self, kernel):
        # Below the floor the compacted graph legitimately differs from
        # the full graph -- but the kernels must still agree on *it*.
        trace = self._trace(seed=14)
        graph = build_execution_graph(trace)
        cut = [
            event
            for process in range(trace.n)
            for event in graph.events_of(process)[
                : len(graph.events_of(process)) // 2
            ]
        ]
        pair = []
        for name in (REFERENCE, kernel):
            checker = AdmissibilityChecker(graph, kernel=name)
            floor = checker.worst_relevant_ratio()
            checker.compact_prefix(cut, mode="summary", floor=floor)
            pair.append(checker)
        ref, alt = pair
        for num in range(1, 9):
            for den in range(1, 5):
                ratio = Fraction(num, den)
                assert ref.has_ratio_at_least(
                    ratio
                ) == alt.has_ratio_at_least(ratio), ratio
        assert ref.worst_relevant_ratio() == alt.worst_relevant_ratio()


@pytest.mark.parametrize("kernel", KERNELS)
class TestSeededCounterexample:
    def test_seeded_search_climbs_through_forward_edges(self, kernel):
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
        checker = AdmissibilityChecker(base, kernel=kernel)
        assert not checker.has_ratio_at_least(xi)
        checker.add_event(e1)
        checker.add_message(a0, e1)
        assert checker.has_ratio_at_least(xi)
        assert checker.has_ratio_at_least(xi, sources=(e1,))

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_matches_full_on_frontier_extensions(self, kernel, seed):
        rng = random.Random(seed)
        graph = random_execution_graph(rng, 3, rng.randint(4, 10))
        checker = AdmissibilityChecker(graph, kernel=kernel)
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


class TestWindowSoundness:
    """The flat kernel's O(1) certificate window must never claim a pass
    the exact sweep would refute -- the invariant whose violation once
    produced a wrong ``False`` (missed violation) after compaction."""

    def test_always_bad_df_zero_db_positive(self):
        checker = AdmissibilityChecker(kernel="flat_int")
        k = FlatIntKernel(checker)
        k._reset()
        k._bucket_add((0, 1, 0))
        assert k._n_always_bad == 1
        assert not k._window_passes(5, 1, 10)
        k._bucket_remove((0, 1, 0))
        assert k._n_always_bad == 0

    def test_always_bad_df_zero_db_zero_dl_positive(self):
        # Regression: (df=0, db=0, dl>0) evaluates to exactly -dl at
        # *every* ratio -- its ratio term is identically zero, so the
        # max_dl >= s guard never applies and only the always-bad count
        # can catch it.  Settled clock fixpoints cannot produce the
        # triple, but capped cascades / capped re-pin passes can.
        checker = AdmissibilityChecker(kernel="flat_int")
        k = FlatIntKernel(checker)
        k._reset()
        k._bucket_add((0, 0, 3))
        assert k._n_always_bad == 1
        for p, q, s in ((5, 1, 100), (2, 1, 4), (7, 3, 10**6)):
            assert not k._window_passes(p, q, s)
        k._bucket_remove((0, 0, 3))
        assert k._n_always_bad == 0
        # The harmless df == 0 profiles do not trip the counter.
        k._bucket_add((0, 0, 0))
        k._bucket_add((0, 0, -2))
        k._bucket_add((0, -1, 5))
        assert k._n_always_bad == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_window_pass_implies_sweep_clean(self, kernel, monkeypatch):
        # Property: on live workloads, every window pass must be backed
        # by a clean exact sweep (the window is an optimization of the
        # sweep, never a relaxation of it).
        window = FlatIntKernel._window_passes
        sweep = FlatIntKernel._sweep_clean
        checked = {"passes": 0}

        def checked_window(self, p, q, s):
            ok = window(self, p, q, s)
            if ok:
                checked["passes"] += 1
                assert sweep(self, p, q, s), (
                    f"window certified ({p},{q},{s}) but the exact "
                    "sweep refutes it"
                )
            return ok

        monkeypatch.setattr(FlatIntKernel, "_window_passes", checked_window)
        for seed in range(6):
            trace = streaming_trace(
                random.Random(seed), n_processes=3, n_records=50
            )
            checker = AdmissibilityChecker(kernel=kernel)
            for k in range(10, len(trace.records) + 1, 10):
                checker.absorb(
                    build_execution_graph(
                        Trace(trace.n, trace.faulty, trace.records[:k])
                    )
                )
                checker.worst_relevant_ratio()
        assert checked["passes"] > 0, "window certificate never engaged"


@pytest.mark.parametrize("kernel", KERNELS)
class TestWitnessMemoRollback:
    def test_rollback_invalidates_memo(self, kernel):
        # A True probe seeds the witness memo; rolling the stream back
        # past the witness must invalidate it, and post-rollback answers
        # must match the reference exactly.
        for seed in range(8):
            trace = streaming_trace(
                random.Random(seed), n_processes=3, n_records=50
            )
            cut = 25
            half = build_execution_graph(
                Trace(trace.n, trace.faulty, trace.records[:cut])
            )
            full = build_execution_graph(trace)
            ref = AdmissibilityChecker(half, kernel=REFERENCE)
            alt = AdmissibilityChecker(half, kernel=kernel)
            half_worst = ref.worst_relevant_ratio()
            assert alt.worst_relevant_ratio() == half_worst
            tokens = (ref.checkpoint(), alt.checkpoint())
            ref.absorb(full)
            alt.absorb(full)
            full_worst = ref.worst_relevant_ratio()
            assert alt.worst_relevant_ratio() == full_worst
            if full_worst is not None:
                # Repeat-probe the worst ratio: the second answer rides
                # the witness memo on the flat kernel and must agree.
                assert alt.has_ratio_at_least(full_worst)
                assert alt.has_ratio_at_least(full_worst)
            ref.rollback(tokens[0])
            alt.rollback(tokens[1])
            assert alt.worst_relevant_ratio() == half_worst
            probe = Fraction(1) if full_worst is None else full_worst
            for _ in range(3):
                assert ref.has_ratio_at_least(
                    probe
                ) == alt.has_ratio_at_least(probe), (seed, probe)
                probe = farey_successor(probe, ref.ratio_bound)


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelSelection:
    def test_env_var_selection(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        assert AdmissibilityChecker().kernel_name == kernel
        monkeypatch.delenv("REPRO_KERNEL")
        assert AdmissibilityChecker().kernel_name == REFERENCE

    def test_ctor_overrides_env(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", REFERENCE)
        assert AdmissibilityChecker(kernel=kernel).kernel_name == kernel

    def test_pickle_is_kernel_portable(self, kernel):
        import pickle

        graph = random_execution_graph(random.Random(7), 3, 10)
        checker = AdmissibilityChecker(graph, kernel=kernel)
        worst = checker.worst_relevant_ratio()
        clone = pickle.loads(pickle.dumps(checker))
        assert clone.kernel_name == kernel
        assert clone.worst_relevant_ratio() == worst
        clone.set_kernel(REFERENCE)
        assert clone.worst_relevant_ratio() == worst


class TestRemovedKernel:
    """The numpy ``vector`` kernel is gone (it lost to ``flat_int`` with
    identical answers): selecting it by name must fail loudly, never
    fall back to some other kernel unannounced."""

    def test_env_var_names_the_choices(self, monkeypatch):
        # The environment is read when the kernel is created, so the
        # error surfaces at first use, naming the kernels that remain.
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        checker = AdmissibilityChecker(
            random_execution_graph(random.Random(7), 3, 10)
        )
        with pytest.raises(ValueError, match="unknown kernel 'vector'") as err:
            checker.worst_relevant_ratio()
        assert str(sorted(available_kernels())) in str(err.value)

    def test_ctor_and_set_kernel_reject_it(self):
        assert "vector" not in available_kernels()
        with pytest.raises(ValueError, match="unknown kernel 'vector'"):
            AdmissibilityChecker(kernel="vector")
        checker = AdmissibilityChecker(kernel=REFERENCE)
        with pytest.raises(ValueError, match="unknown kernel 'vector'"):
            checker.set_kernel("vector")
        assert checker.kernel_name == REFERENCE
