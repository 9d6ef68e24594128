"""The ABC synchrony condition (Definition 4) and its decision procedures.

An execution is admissible in the ABC model with parameter ``Xi > 1`` iff
every *relevant* cycle ``Z`` of its execution graph satisfies

    |Z-| / |Z+|  <  Xi.                                            (2)

"For every relevant cycle" quantifies over exponentially many subgraphs,
but the condition can be decided in polynomial time.  Build the *traversal
digraph* ``H`` over the events of ``G``:

* a message ``u -> v`` may be traversed forward (H-edge ``u -> v``) or
  backward (H-edge ``v -> u``);
* a local edge ``u -> v`` may only be traversed backward (H-edge
  ``v -> u``) -- relevant cycles have all local edges backward.

Walking a relevant cycle along its orientation is then exactly a simple
cycle in ``H``, and conversely every simple cycle of ``H`` is a relevant
cycle of ``G`` except for two degenerate shapes:

* the 2-cycle using both traversal directions of one message (not a
  shadow-graph cycle), and
* cycles whose forward messages outnumber the backward ones (Definition 3
  then forces the opposite orientation, making the local edges forward).

Both degeneracies are eliminated by weighting.  For a violation test
against ``Xi = p/q`` (``ratio >= p/q``), give each H-edge the weight

* message forward:  ``+p * M``
* message backward: ``-q * M``
* local backward:   ``-1``

with ``M = (number of local edges) + 1``.  A simple H-cycle has weight
``(p*|Z+| - q*|Z-|) * M - #locals``; since every genuine cycle contains at
least one and at most ``M - 1`` local edges, the weight is negative iff
``q*|Z-| - p*|Z+| >= 0``, i.e. iff the cycle witnesses ``ratio >= p/q``.
The degenerate 2-cycle weighs ``(p - q) * M >= 0`` and cycles with more
forward than backward messages weigh at least ``M - #locals > 0``, so
neither can be reported.  Violation detection is therefore exactly
negative-cycle detection.

:class:`AdmissibilityChecker` is the workhorse behind every public
function here: it builds the *topology* of ``H`` exactly once per
execution graph (nodes, adjacency, traversal steps) and re-derives only
the edge weights per ``(p, q)`` query, so the many oracle calls issued by
a Stern-Brocot search -- or by the online monitor of
:mod:`repro.analysis.online` -- share all of the construction work.
Negative cycles are found with an early-terminating queue-based detector
(SPFA): nodes are relaxed from a work queue seeded with every node (the
classical virtual source), the queue draining proves the absence of a
negative cycle, and a relaxation chain growing to ``n`` edges proves its
presence.  The checker is also *extendable in place* (``add_event`` /
``add_message``), which is what makes incremental monitoring cheap.

Two further mutation modes make the checker the substrate of the
ABC-*enforcing* scheduler and of the <>ABC stabilization search:

* **Speculative extension** -- :meth:`AdmissibilityChecker.checkpoint`
  records the current extent of ``H``; growing the checker past it and
  calling :meth:`AdmissibilityChecker.rollback` pops the added events
  and edges off again (all edge storage is append-only, so a rollback
  is O(delta)).  The :meth:`AdmissibilityChecker.speculate` context
  manager wraps the pair, letting a scheduler push a hypothetical
  delivery onto the live digraph, ask the oracle, and retract it
  without ever rebuilding ``H``.
* **Prefix compaction** -- :meth:`AdmissibilityChecker.compact_prefix`
  is a two-mode compaction engine over left-closed per-process prefixes
  of the observed events.  *Exact* mode (the original
  :meth:`AdmissibilityChecker.remove_prefix`) deletes the prefix
  together with every incident edge; the remaining checker answers
  queries about the *suffix* graph (the live-induced subgraph, exactly
  :func:`repro.core.variants.suffix_graph` up to event renaming).
  :meth:`AdmissibilityChecker.removable_prefix` computes the largest
  prefix whose exact removal also preserves *full-graph* queries: when
  no message (and no summary edge) crosses the prefix boundary, no
  relevant cycle spans both sides, so a prefix already known admissible
  can be dropped without changing any future oracle answer.  *Summary*
  mode removes **any** cut -- including ones messages cross -- by
  replacing the region with per-boundary-pair shortest-path
  :class:`SummaryEdge` objects.  Each summary edge stores the
  ``(forward, backward, local)`` hop profile of a realizing traversal
  walk through the region, so it re-weights exactly per ``(p, q)``
  query; per boundary pair the whole Pareto frontier of profiles is
  kept (fewer forward hops, more backward hops and more local hops are
  incomparably "better" as the query ratio varies), so the minimum walk
  weight through the region is preserved for *every* future query.
  The resulting contract is **ratio equivalence**: for every ratio
  strictly above the worst relevant ratio at compaction time, every
  oracle answer and worst-ratio refinement on the compacted digraph is
  bit-identical to the full graph's, under any extension that attaches
  only to live events.  (Cycles confined to the removed region are the
  one thing lost; they are bounded by the compaction-time worst ratio,
  which the layers above carry as a running maximum.)

On top of the oracle, :func:`worst_relevant_ratio` finds the exact maximum
``|Z-|/|Z+|`` over all relevant cycles by Stern-Brocot search: the ratio
is a fraction with numerator and denominator bounded by the message count,
so the search terminates with the exact rational.  The search clamps its
galloping probes to that denominator bound (a mediant below the current
bracket whose denominator exceeds the bound can never be the answer, so
probing it would waste a full negative-cycle run) and short-circuits
re-queries through a monotone result cache, optionally warm-started from
a ratio already known to be reached (``at_least``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.cycles import (
    AGAINST,
    ALONG,
    Cycle,
    CycleClassification,
    Step,
    classify,
    enumerate_cycles,
)
from repro.core.events import Event, ProcessId
from repro.core.execution_graph import (
    ExecutionGraph,
    LocalEdge,
    MessageEdge,
)
from repro.core.kernel import (
    PyObjectKernel,
    find_negative_cycle_edges,
    resolve_kernel_name,
)
from repro.core import kernel as _kernel_mod

__all__ = [
    "AdmissibilityChecker",
    "AdmissibilityResult",
    "CheckerCheckpoint",
    "SummaryEdge",
    "as_xi",
    "check_abc",
    "check_abc_exhaustive",
    "farey_predecessor",
    "farey_successor",
    "has_relevant_cycle_with_ratio_at_least",
    "find_violating_cycle",
    "worst_relevant_ratio",
    "worst_relevant_ratio_exhaustive",
]


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of an ABC admissibility check.

    Attributes:
        admissible: whether every relevant cycle satisfies (2).
        xi: the synchrony parameter the graph was checked against.
        witness: a violating relevant cycle when one exists.
    """

    admissible: bool
    xi: Fraction
    witness: CycleClassification | None = None

    def __bool__(self) -> bool:
        return self.admissible


def as_xi(xi: Fraction | float | int | str) -> Fraction:
    """Validate a synchrony parameter: the ABC model requires ``Xi > 1``.

    The single place where ``Xi`` arguments are normalized; every checker
    that accepts a ``Xi`` goes through it so that the accepted types and
    the error message stay consistent.
    """
    xi_frac = Fraction(xi)
    if xi_frac <= 1:
        raise ValueError(f"the ABC model requires Xi > 1, got {xi_frac}")
    return xi_frac


def _as_ratio(xi: Fraction | float | int | str) -> Fraction:
    # The hot callers (Stern-Brocot probes) always pass a Fraction
    # already; skip the re-normalizing constructor for those.
    ratio = xi if type(xi) is Fraction else Fraction(xi)
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return ratio


def farey_successor(value: Fraction, max_den: int) -> Fraction:
    """The smallest fraction above ``value`` with denominator ``<= max_den``.

    This is ``value``'s right neighbor in the Farey sequence of order
    ``max_den``: for ``value = a/b`` it is the ``c/d`` with
    ``b*c - a*d == 1`` and the largest ``d <= max_den``, found from one
    extended-gcd solution shifted by multiples of ``(a, b)``.  Any
    fraction strictly between the two has denominator ``> max_den`` --
    the arithmetic backbone of the incremental worst-ratio refresh
    (:meth:`AdmissibilityChecker.updated_worst_ratio`): a worst ratio
    that moved at all under graph extension must have reached at least
    this value.
    """
    a, b = value.numerator, value.denominator
    if b > max_den:
        raise ValueError(
            f"denominator of {value} already exceeds the bound {max_den}"
        )
    if a == 0:
        return Fraction(1, max_den)
    # Extended gcd: find (c0, d0) with b*c0 - a*d0 == 1.
    old_r, r = b, a
    old_x, x = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
    assert old_r == 1, f"{value} not in lowest terms"
    c0 = old_x
    d0 = (b * c0 - 1) // a
    assert b * c0 - a * d0 == 1
    shift = (max_den - d0) // b
    return Fraction(c0 + shift * a, d0 + shift * b)


def farey_predecessor(value: Fraction, max_den: int) -> Fraction:
    """The largest fraction strictly below ``value`` with denominator
    ``<= max_den``.

    The mirror of :func:`farey_successor`, without its requirement that
    ``value`` itself lie within the denominator bound (``0/1`` always
    qualifies, so the predecessor exists for every positive ``value``).
    Found by a galloping Stern-Brocot descent; used by the ABC-enforcing
    scheduler to derive a summary-compaction floor strictly below its
    ``Xi`` that still dominates every realizable relevant-cycle ratio.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be positive, got {max_den}")
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    a, b = value.numerator, value.denominator
    ln, ld = 0, 1  # lo: strictly below value
    hn, hd = 1, 0  # hi: at or above value (starts at +infinity)
    while ld + hd <= max_den:
        s = a * ld - b * ln  # > 0: how far lo sits below value
        t = b * hn - a * hd  # >= 0: how far hi sits above value
        if t == 0:
            # hi equals value exactly: every further mediant stays
            # below, so only the denominator bound limits the walk.
            k = (max_den - ld) // hd
            ln, ld = ln + k * hn, ld + k * hd
            break
        # Gallop lo towards hi while the mediant stays strictly below
        # value and within the denominator bound.
        k = (s - 1) // t
        if hd:
            k = min(k, (max_den - ld) // hd)
        if k >= 1:
            ln, ld = ln + k * hn, ld + k * hd
            continue
        # Mediant at or above value: gallop hi towards lo.
        k = t // s
        assert k >= 1
        hn, hd = hn + k * ln, hd + k * ld
    return Fraction(ln, ld)


# Edge kinds of the traversal digraph; weights per (p, q) query are
# derived from the kind, so only these tags are stored per edge.  The
# canonical definitions live in :mod:`repro.core.kernel` (the kernel
# reads them without importing this module); these aliases keep the
# checker's internals spelled the way they always were.
_FWD_MESSAGE = _kernel_mod.FWD_MESSAGE
_BWD_MESSAGE = _kernel_mod.BWD_MESSAGE
_BWD_LOCAL = _kernel_mod.BWD_LOCAL
# Kinds at or above _SUMMARY are summary edges: ``kind - _SUMMARY``
# indexes the checker's deduplicated (forward, backward, local) profile
# table, so resolving any edge's per-query weight stays one table lookup
# in the detection hot loop.
_SUMMARY = _kernel_mod.SUMMARY


@dataclass(frozen=True)
class SummaryEdge:
    """A boundary-to-boundary shortest-path summary of a compacted region.

    Produced by :meth:`AdmissibilityChecker.compact_prefix` in summary
    mode: one H-edge from ``tail`` to ``head`` standing in for the
    traversal walks that used to run through the removed region.  The
    profile counts the hops of one realizing walk -- ``forward`` message
    edges traversed along their direction, ``backward`` message edges
    traversed against it, ``local`` local edges -- so the edge
    re-weights exactly for every ``(p, q)`` query as
    ``scale * (p * forward - q * backward) - local``.  ``parts`` is the
    realizing walk with *structural sharing*: a part is either a genuine
    execution-graph :class:`~repro.core.cycles.Step` or an older
    :class:`SummaryEdge` folded in whole by a later compaction.  Sharing
    keeps repeated compaction linear -- eagerly flattening the walk
    would copy O(summarized history) steps per compaction -- while
    :attr:`steps` still expands, on demand (witness extraction only),
    into the full step walk of the original execution graph.

    Pickling flattens: the structurally shared ``parts`` chain can nest
    one :class:`SummaryEdge` per compaction round, so default
    dataclass pickling would recurse once per round and overflow the
    interpreter's recursion limit on long-compacted monitors (the
    parallel runtime ships checkpoint/summary state between processes,
    where that is fatal rather than theoretical).  ``__reduce__``
    therefore serializes the *iteratively* flattened :attr:`steps`
    walk: the unpickled edge is semantically identical (same endpoints,
    profile, and realizing steps) but owns its walk flat, trading the
    structural sharing -- which only ever mattered for in-process
    compaction cost -- for bounded pickle depth.
    """

    tail: Event
    head: Event
    forward: int
    backward: int
    local: int
    parts: tuple["Step | SummaryEdge", ...]

    def __reduce__(self) -> tuple:
        return (
            SummaryEdge,
            (
                self.tail,
                self.head,
                self.forward,
                self.backward,
                self.local,
                self.steps,
            ),
        )

    @property
    def profile(self) -> tuple[int, int, int]:
        return (self.forward, self.backward, self.local)

    @property
    def steps(self) -> tuple[Step, ...]:
        """The realizing walk, flattened to genuine steps (iterative --
        compaction chains can nest summaries arbitrarily deep)."""
        out: list[Step] = []
        stack: list[Step | SummaryEdge] = list(reversed(self.parts))
        while stack:
            part = stack.pop()
            if isinstance(part, SummaryEdge):
                stack.extend(reversed(part.parts))
            else:
                out.append(part)
        return tuple(out)


@dataclass(frozen=True)
class CheckerCheckpoint:
    """An opaque marker of an :class:`AdmissibilityChecker`'s extent.

    Produced by :meth:`AdmissibilityChecker.checkpoint`, consumed by
    :meth:`AdmissibilityChecker.rollback`.  A checkpoint is invalidated
    by :meth:`AdmissibilityChecker.remove_prefix` (which renumbers the
    digraph); ``epoch`` detects that.
    """

    n_nodes: int
    n_edges: int
    n_locals: int
    epoch: int


class AdmissibilityChecker:
    """Reusable, extendable decision procedure for one execution graph.

    The traversal digraph ``H`` (see the module docstring) is built once:
    nodes, adjacency lists and the :class:`~repro.core.cycles.Step` each
    H-edge corresponds to are all independent of the ratio being tested.
    Each query then only materializes the weight of every edge from its
    kind, so a Stern-Brocot search issuing dozens of oracle calls pays the
    graph construction exactly once instead of once per call.

    The checker can also be *grown in place* -- :meth:`add_event` appends
    a receive event (creating the implied local edge), :meth:`add_message`
    a message edge -- which is the substrate of the online ?ABC/<>ABC
    monitor in :mod:`repro.analysis.online`.  Structural validity (one
    incoming message per event, digraph acyclicity) is the caller's
    responsibility when growing incrementally; events fed from a recorded
    trace or an :class:`~repro.core.execution_graph.ExecutionGraph`
    satisfy it by construction.

    Negative-cycle detection itself is delegated to the SPFA kernel of
    :mod:`repro.core.kernel`.  The kernel object is transient state: it
    is dropped on pickling and re-created on load, so snapshots carry
    only the digraph.

    Attributes:
        oracle_calls: number of negative-cycle runs issued so far (for
            benchmarks and incrementality tests).
    """

    def __init__(self, graph: ExecutionGraph | None = None) -> None:
        resolve_kernel_name()  # a stale REPRO_KERNEL fails here, loudly
        self._kernel = PyObjectKernel(self)
        self._nodes: list[Event] = []
        self._index: dict[Event, int] = {}
        self._events_per_process: dict[ProcessId, int] = {}
        # H-edges, struct-of-arrays: topology and steps are immutable per
        # edge, weights are derived per query from ``kind``.
        self._tails: list[int] = []
        self._heads: list[int] = []
        self._kinds: list[int] = []
        self._steps: list[Step] = []
        # node index -> [(head, kind), ...]; the detection hot loop reads
        # only this, with weights resolved through a 3-entry table.
        self._adj: list[list[tuple[int, int]]] = []
        self._messages: set[MessageEdge] = set()
        self._n_locals = 0
        # Tombstoning state: first still-live event index per process and
        # the compaction epoch (checkpoints from older epochs are dead).
        self._first_live: dict[ProcessId, int] = {}
        self._n_tombstoned = 0
        self._epoch = 0
        # Summary-compaction state: the deduplicated (forward, backward,
        # local) profile table indexed by ``kind - _SUMMARY``, plus the
        # running totals that keep the weighting scale and the
        # Stern-Brocot ratio bound valid with summaries in the digraph.
        self._summary_profiles: list[tuple[int, int, int]] = []
        self._profile_ids: dict[tuple[int, int, int], int] = {}
        self._n_summaries = 0
        self._summary_locals = 0  # sum of `local` over live summary edges
        self._summary_hops = 0  # sum of max(fwd, bwd) over live summaries
        self._speculating = 0
        self.oracle_calls = 0
        if graph is not None:
            for process in graph.processes:
                for event in graph.events_of(process):
                    self.add_event(event)
            for message in graph.messages:
                self.add_message(message.src, message.dst)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_kernel"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Blobs written while the kernel was selectable also carry the
        # selection and an emptied kernel slot; every kernel answered
        # identically, so both are dropped.
        state.pop("_kernel_spec", None)
        state.pop("_kernel_obj", None)
        self.__dict__.update(state)
        self._kernel = PyObjectKernel(self)

    # ------------------------------------------------------------------
    # incremental construction
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Number of *live* (non-tombstoned) events in the digraph."""
        return len(self._nodes)

    @property
    def n_messages(self) -> int:
        """Number of live message edges."""
        return len(self._messages)

    @property
    def n_local_edges(self) -> int:
        return self._n_locals

    @property
    def n_tombstoned(self) -> int:
        """Number of events removed by :meth:`compact_prefix` (either
        mode) so far."""
        return self._n_tombstoned

    @property
    def n_summary_edges(self) -> int:
        """Number of live summary edges (see :class:`SummaryEdge`)."""
        return self._n_summaries

    @property
    def ratio_bound(self) -> int:
        """Bound on the numerator and denominator of every realizable
        relevant-cycle ratio.

        A simple cycle traverses each live message edge at most once and
        each summary edge at most once, so its forward and backward hop
        counts are bounded by the live message count plus the hops
        folded into summaries.  This is the denominator bound of the
        Stern-Brocot search and of the Farey-successor refresh; without
        summaries it reduces to the classical message-count bound.
        """
        return max(1, len(self._messages) + self._summary_hops)

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        """Processes with at least one observed event (live or not)."""
        return tuple(self._events_per_process)

    def n_events_of(self, process: ProcessId) -> int:
        """Total events ever observed at ``process`` (tombstoned ones
        included -- this is the index the next :meth:`add_event` must
        carry, and the basis of :meth:`extends`)."""
        return self._events_per_process.get(process, 0)

    def first_live_index(self, process: ProcessId) -> int:
        """Index of the earliest non-tombstoned event at ``process``."""
        return self._first_live.get(process, 0)

    @property
    def messages(self) -> frozenset[MessageEdge]:
        """The message edges added so far (snapshot)."""
        return frozenset(self._messages)

    def has_message(self, message: MessageEdge) -> bool:
        return message in self._messages

    def add_event(self, event: Event) -> None:
        """Append the next receive event of its process.

        Events of one process must arrive in local order (index 0, 1, ...);
        the local edge from the previous event is created implicitly, as a
        backward-only H-edge.
        """
        expected = self._events_per_process.get(event.process, 0)
        if event.index != expected:
            raise ValueError(
                f"events of process {event.process} must arrive in local "
                f"order: expected index {expected}, got {event!r}"
            )
        self._events_per_process[event.process] = expected + 1
        self._index[event] = len(self._nodes)
        self._nodes.append(event)
        self._adj.append([])
        if event.index > 0:
            prev = Event(event.process, event.index - 1)
            prev_id = self._index.get(prev)
            # A tombstoned predecessor leaves the new event without a
            # local edge, exactly as in the suffix graph.
            if prev_id is not None:
                self._add_h_edge(
                    self._index[event],
                    prev_id,
                    _BWD_LOCAL,
                    Step(LocalEdge(prev, event), AGAINST),
                )
                self._n_locals += 1

    def add_message(self, src: Event, dst: Event) -> bool:
        """Add a message edge; returns ``False`` for an exact duplicate.

        Duplicates are dropped to match
        :class:`~repro.core.execution_graph.ExecutionGraph`, which stores
        messages as a set.
        """
        message = MessageEdge(src, dst)
        if message in self._messages:
            return False
        for endpoint in (src, dst):
            if endpoint not in self._index:
                raise KeyError(
                    f"event {endpoint!r} not in the checker (never added, "
                    "or tombstoned)"
                )
        if src == dst:
            raise ValueError(f"message {message!r} may not be a self loop")
        self._messages.add(message)
        u, v = self._index[src], self._index[dst]
        self._add_h_edge(u, v, _FWD_MESSAGE, Step(message, ALONG))
        self._add_h_edge(v, u, _BWD_MESSAGE, Step(message, AGAINST))
        return True

    def absorb_batch(
        self,
        events: tuple[Sequence[ProcessId], Sequence[int]],
        messages: Sequence[tuple[ProcessId, int] | None] | None = None,
    ) -> int:
        """Bulk-append a batch of events (and their triggering messages).

        The columnar twin of a per-record :meth:`add_event` /
        :meth:`add_message` loop, for the zero-object ingest path:

        * ``events`` is a pair of parallel columns ``(processes,
          indexes)`` -- row ``k`` is the next receive event of
          ``processes[k]``, in arrival order.
        * ``messages``, when given, is a column *aligned with the
          events*: entry ``k`` is ``None`` (wake-up / filtered message)
          or ``(src_process, src_index)``, the send event whose message
          triggered event ``k``.  The destination is always event ``k``
          itself -- exactly the shape of a receive-record stream.

        Semantics are bit-identical to the per-record loop, including
        H-edge insertion order (event ``k``'s local edge, then event
        ``k``'s message edges) -- the negative-cycle witness the checker
        reports depends on edge order, so the interleaving is part of the
        contract.  Local-order violations are detected in a validation
        pre-pass over the whole batch *before any mutation*, so a bad
        event column leaves the checker untouched; message errors
        (unknown endpoint, self loop) surface mid-apply exactly as they
        would mid-stream.  Exact duplicate messages are dropped, as in
        :meth:`add_message`.

        Appends happen on the flat digraph arrays once per batch.
        Returns the number of message edges added.
        """
        processes, indexes = events
        n = len(processes)
        if len(indexes) != n or (messages is not None and len(messages) != n):
            raise ValueError(
                "absorb_batch columns must have equal lengths: "
                f"{n} processes, {len(indexes)} indexes"
                + (
                    f", {len(messages)} messages"
                    if messages is not None
                    else ""
                )
            )
        # Validation pre-pass: local order per process across the batch,
        # seeded from the observed prefix.  Nothing is mutated before
        # the whole event column is known good.
        epp = self._events_per_process
        expected: dict[ProcessId, int] = {}
        for k in range(n):
            p = processes[k]
            want = expected.get(p)
            if want is None:
                want = epp.get(p, 0)
            if indexes[k] != want:
                bad = Event.__new__(Event)
                bad.__dict__["process"] = p
                bad.__dict__["index"] = indexes[k]
                raise ValueError(
                    f"events of process {p} must arrive in local "
                    f"order: expected index {want}, got {bad!r}"
                )
            expected[p] = want + 1
        # Fused apply pass, locals bound once.  Every object on this
        # path -- events, edges, traversal steps -- is built from
        # values the validation pre-pass (or the digraph itself)
        # already vouched for, so the frozen dataclasses are
        # fast-constructed via ``__new__`` + direct ``__dict__``
        # stores, skipping checked ``__init__``/``__post_init__``
        # exactly as the wire decoder does.  Equality and hash derive
        # from the fields, so the instances are indistinguishable from
        # per-record ones.
        #
        # Two batch-local shortcuts the per-record loop cannot take:
        #
        # * ``batch_ids`` maps the batch's own ``(process, index)``
        #   pairs to node ids with C-speed tuple hashing, so local
        #   predecessors and (in dense streams, nearly all) message
        #   sources resolve without constructing a probe ``Event`` or
        #   paying its Python-level ``__hash__``.
        # * The duplicate-message check of :meth:`add_message` is
        #   skipped outright: row ``k``'s destination is row ``k``'s
        #   *own just-appended event* -- validation guarantees it is
        #   new -- so no message to it can already exist.  Self loops
        #   reduce to ``src_id == node_id`` for the same reason.
        epp.update(expected)
        nodes = self._nodes
        index = self._index
        adj = self._adj
        tails = self._tails
        heads = self._heads
        kinds = self._kinds
        steps = self._steps
        msgs = self._messages
        new_event = Event.__new__
        new_step = Step.__new__
        new_local = LocalEdge.__new__
        new_message = MessageEdge.__new__
        batch_ids: dict[tuple[ProcessId, int], int] = {}
        batch_hit = batch_ids.get
        added = 0
        for k in range(n):
            p = processes[k]
            i = indexes[k]
            event = new_event(Event)
            event.__dict__["process"] = p
            event.__dict__["index"] = i
            node_id = len(nodes)
            index[event] = node_id
            batch_ids[(p, i)] = node_id
            nodes.append(event)
            adj.append([])
            if i > 0:
                prev_id = batch_hit((p, i - 1))
                if prev_id is not None:
                    prev = nodes[prev_id]
                else:
                    prev = new_event(Event)
                    prev.__dict__["process"] = p
                    prev.__dict__["index"] = i - 1
                    prev_id = index.get(prev)
                # A tombstoned predecessor leaves the new event without
                # a local edge, exactly as in add_event.
                if prev_id is not None:
                    edge = new_local(LocalEdge)
                    edge.__dict__["src"] = prev
                    edge.__dict__["dst"] = event
                    step = new_step(Step)
                    step.__dict__["edge"] = edge
                    step.__dict__["direction"] = AGAINST
                    tails.append(node_id)
                    heads.append(prev_id)
                    kinds.append(_BWD_LOCAL)
                    steps.append(step)
                    adj[node_id].append((prev_id, _BWD_LOCAL))
                    self._n_locals += 1
            if messages is None:
                continue
            origin = messages[k]
            if origin is None:
                continue
            src_id = batch_hit(origin)
            if src_id is not None:
                src = nodes[src_id]
            else:
                src = new_event(Event)
                src.__dict__["process"] = origin[0]
                src.__dict__["index"] = origin[1]
                src_id = index.get(src)
                if src_id is None:
                    raise KeyError(
                        f"event {src!r} not in the checker (never "
                        "added, or tombstoned)"
                    )
            message = new_message(MessageEdge)
            message.__dict__["src"] = src
            message.__dict__["dst"] = event
            if src_id == node_id:
                raise ValueError(
                    f"message {message!r} may not be a self loop"
                )
            msgs.add(message)
            fwd = new_step(Step)
            fwd.__dict__["edge"] = message
            fwd.__dict__["direction"] = ALONG
            bwd = new_step(Step)
            bwd.__dict__["edge"] = message
            bwd.__dict__["direction"] = AGAINST
            tails.append(src_id)
            heads.append(node_id)
            kinds.append(_FWD_MESSAGE)
            steps.append(fwd)
            adj[src_id].append((node_id, _FWD_MESSAGE))
            tails.append(node_id)
            heads.append(src_id)
            kinds.append(_BWD_MESSAGE)
            steps.append(bwd)
            adj[node_id].append((src_id, _BWD_MESSAGE))
            added += 1
        return added

    def extends(self, graph: ExecutionGraph) -> bool:
        """Whether ``graph`` extends the prefix this checker has seen
        (at least as many events per process, a superset of messages)."""
        for process in self.processes:
            if len(graph.events_of(process)) < self.n_events_of(process):
                return False
        if self._messages:
            if not self._messages <= set(graph.messages):
                return False
        return True

    def absorb(self, graph: ExecutionGraph) -> bool:
        """Add everything ``graph`` has beyond the observed prefix.

        ``graph`` must satisfy :meth:`extends`.  Returns whether any
        message edge was added -- only then can new relevant cycles have
        appeared, so only then is a worst-ratio refresh needed.
        """
        for process in graph.processes:
            known = self.n_events_of(process)
            for event in graph.events_of(process)[known:]:
                self.add_event(event)
        added = False
        for message in graph.messages:
            if message in self._messages:
                continue
            # Messages whose endpoint lies in a tombstoned prefix were
            # forgotten deliberately -- not new edges to absorb.
            if (
                message.src.index < self.first_live_index(message.src.process)
                or message.dst.index < self.first_live_index(message.dst.process)
            ):
                continue
            self.add_message(message.src, message.dst)
            added = True
        return added

    def updated_worst_ratio(
        self, previous: Fraction | None
    ) -> Fraction | None:
        """The exact worst relevant ratio, given the exact worst
        ``previous`` of a subgraph of the current graph.

        Fast path of the incremental monitor: under extension the worst
        ratio either stayed at ``previous`` or reached at least its
        Farey successor under the current denominator bound, so one
        oracle call usually settles it; only an actual increase -- at
        most ``O(max_den^2)`` times ever, in practice a handful -- pays
        a warm-started Stern-Brocot search.
        """
        if previous is None:
            if not self.has_ratio_at_least(1):
                return None
            return self.worst_relevant_ratio(at_least=Fraction(1))
        max_den = self.ratio_bound
        if previous.denominator > max_den:
            # Only after tombstoning: the live suffix has fewer messages
            # than the prefix that realized ``previous``.  No Farey warm
            # start exists within the new bound; the suffix search is
            # cheap (few messages) and the running maximum keeps
            # ``previous``.
            current = self.worst_relevant_ratio()
            return current if current is not None and current > previous else previous
        successor = farey_successor(previous, max_den)
        # Inline the has_ratio_at_least probe: ``successor > previous >=
        # 1`` already, so the clamp and re-normalization there are pure
        # overhead on what is by far the most frequent oracle call of
        # the online monitor (one probe per batch that changed nothing).
        self.oracle_calls += 1
        if not self._has_negative_cycle(
            successor.numerator, successor.denominator
        ):
            return previous
        return self.worst_relevant_ratio(at_least=successor)

    def _add_h_edge(self, tail: int, head: int, kind: int, step: Step) -> None:
        self._tails.append(tail)
        self._heads.append(head)
        self._kinds.append(kind)
        self._steps.append(step)
        self._adj[tail].append((head, kind))

    # ------------------------------------------------------------------
    # speculative extension (checkpoint / rollback)
    # ------------------------------------------------------------------

    def checkpoint(self) -> CheckerCheckpoint:
        """Record the current extent of ``H`` for a later :meth:`rollback`.

        Checkpoints nest (roll back in reverse order of creation) and are
        O(1): all edge storage is append-only, so the extent is four
        integers.  A checkpoint does not survive :meth:`remove_prefix`,
        which renumbers the digraph.
        """
        return CheckerCheckpoint(
            len(self._nodes), len(self._tails), self._n_locals, self._epoch
        )

    def rollback(self, token: CheckerCheckpoint) -> None:
        """Pop every event and edge added since ``token`` off the digraph.

        Restores the checker to the checkpointed state exactly (same
        nodes, adjacency, message set, local-edge count -- and therefore
        the same answer to every query); only ``oracle_calls`` keeps
        counting across rollbacks.  O(number of popped events + edges).
        """
        if token.epoch != self._epoch:
            raise ValueError(
                "checkpoint predates a remove_prefix; the digraph was "
                "renumbered and cannot be rolled back to it"
            )
        if token.n_nodes > len(self._nodes) or token.n_edges > len(self._tails):
            raise ValueError("cannot roll back to a future checkpoint")
        for eidx in range(len(self._tails) - 1, token.n_edges - 1, -1):
            tail = self._tails[eidx]
            kind = self._kinds[eidx]
            popped = self._adj[tail].pop()
            # Structural invariant checked eagerly (not via assert, which
            # ``python -O`` strips): a mismatch means the digraph is
            # corrupt and must not be used further.
            if popped != (self._heads[eidx], kind):
                raise RuntimeError(
                    f"rollback found adjacency tail {popped} where edge "
                    f"{eidx} -> {(self._heads[eidx], kind)} was expected; "
                    "the digraph is corrupt"
                )
            if kind == _FWD_MESSAGE:
                self._messages.remove(self._steps[eidx].edge)
        del self._tails[token.n_edges :]
        del self._heads[token.n_edges :]
        del self._kinds[token.n_edges :]
        del self._steps[token.n_edges :]
        self._n_locals = token.n_locals
        for _ in range(len(self._nodes) - token.n_nodes):
            event = self._nodes.pop()
            del self._index[event]
            leftover = self._adj.pop()
            if leftover:
                raise RuntimeError(
                    f"rollback popped node {event!r} with {len(leftover)} "
                    "outgoing edges still attached; the digraph is corrupt"
                )
            remaining = self._events_per_process[event.process] - 1
            if remaining:
                self._events_per_process[event.process] = remaining
            else:
                del self._events_per_process[event.process]

    @contextmanager
    def speculate(self) -> Iterator["AdmissibilityChecker"]:
        """Context manager bracketing a speculative extension.

        Within the block the checker may be grown freely (``add_event``,
        ``add_message``) and queried; on exit everything added is popped
        off again.  This is what lets the ABC-enforcing scheduler push a
        hypothetical delivery onto the live digraph, ask the oracle, and
        retract it without a rebuild.  :meth:`remove_prefix` is rejected
        inside a speculation.
        """
        token = self.checkpoint()
        self._speculating += 1
        try:
            yield self
        finally:
            self._speculating -= 1
            self.rollback(token)

    # ------------------------------------------------------------------
    # prefix compaction (the two-mode engine)
    # ------------------------------------------------------------------

    def remove_prefix(self, events: Iterable[Event]) -> int:
        """Exact-mode prefix removal (the original tombstoning API).

        Equivalent to ``compact_prefix(events, mode="exact")``; see
        there for the shared prefix discipline and for the summary mode
        that makes message-crossing cuts removable.
        """
        return self.compact_prefix(events, mode="exact")

    def compact_prefix(
        self,
        events: Iterable[Event],
        mode: str = "summary",
        floor: Fraction | None = None,
    ) -> int:
        """Compact a left-closed per-process prefix out of the digraph.

        ``events`` must, per process, extend the already-compacted
        prefix contiguously (events already compacted are ignored, so
        passing a cumulatively grown cut is fine).  Arrays are compacted
        eagerly, so memory is bounded by the live graph plus the summary
        edges; returns the number of events removed.  Two modes:

        * ``mode="exact"`` removes the events together with *every*
          incident edge -- the remaining digraph is the live-induced
          subgraph, i.e. queries now answer for the suffix graph beyond
          the prefix (the semantics of
          :func:`repro.core.variants.suffix_graph`, without
          re-indexing).  To remove a prefix *without* changing
          full-graph answers, pick one with :meth:`removable_prefix`
          (no message and no summary edge may cross it).
        * ``mode="summary"`` removes any cut -- messages may cross it --
          and replaces the region with boundary-to-boundary
          :class:`SummaryEdge` objects (the Pareto frontier of
          ``(forward, backward, local)`` walk profiles per boundary
          pair), preserving the weight of every traversal walk through
          the region for every future ``(p, q)`` query.  Afterwards
          every query at a ratio strictly above the compaction-time
          worst relevant ratio is bit-identical to the full graph's,
          under any extension attaching only to live events; cycles
          confined to the region are the one loss, and they are bounded
          by that compaction-time worst (carry it as a running
          maximum, as :class:`repro.analysis.online.OnlineAbcMonitor`
          does).  Each process's frontier (last live) event is
          implicitly pinned so future local edges still attach to live
          events; use :meth:`summarizable_prefix` to enumerate the
          compactable cut, pinning the send events of in-flight
          messages for extension exactness.

        ``floor`` tunes how much summary mode must preserve.  ``None``
        (the default) keeps every query at every ratio ``>= 1`` exact
        for cycles touching live events.  A ``Fraction`` promises the
        caller will never need exactness at ratios ``<= floor`` (it
        answers those from a running maximum, or never asks): the
        Pareto frontiers are then pruned for ratios strictly above
        ``floor`` only, which provably cuts off walks looping region
        cycles of ratio ``<= floor`` -- the difference between
        region-bounded and unbounded compaction cost on workloads whose
        settled past contains relevant cycles.  Callers with a running
        worst ratio should pass it; the enforcing scheduler passes
        ``farey_predecessor(xi, ratio_bound)``.

        Both modes renumber the digraph: checkpoints are invalidated
        (epoch-guarded) and the call is rejected inside
        :meth:`speculate`.
        """
        if mode not in ("exact", "summary"):
            raise ValueError(f"unknown compaction mode {mode!r}")
        if self._speculating:
            raise RuntimeError("cannot compact a prefix inside speculate()")
        new_first: dict[ProcessId, list[int]] = {}
        for event in events:
            new_first.setdefault(event.process, []).append(event.index)
        stops: dict[ProcessId, int] = {}
        for process, indices in new_first.items():
            total = self._events_per_process.get(process, 0)
            first = self._first_live.get(process, 0)
            fresh = sorted(i for i in set(indices) if i >= first)
            if not fresh:
                continue
            if fresh[-1] >= total:
                raise KeyError(
                    f"event p{process}:{fresh[-1]} was never added to the "
                    "checker"
                )
            if fresh != list(range(first, first + len(fresh))):
                raise ValueError(
                    f"tombstoned events of process {process} must extend "
                    f"the removed prefix contiguously from index {first}"
                )
            stop = first + len(fresh)
            if mode == "summary":
                # Keep the frontier event live: the next add_event at
                # this process attaches its local edge there, which the
                # ratio-equivalence contract under extension needs.
                stop = min(stop, total - 1)
            if stop > first:
                stops[process] = stop
        if not stops:
            return 0
        dead: set[int] = set()
        for process, stop in stops.items():
            for index in range(self._first_live.get(process, 0), stop):
                dead.add(self._index[Event(process, index)])
            self._first_live[process] = stop
        summaries = (
            self._summarize_region(dead, floor) if mode == "summary" else ()
        )
        self._compact(dead)
        for edge in summaries:
            self._attach_summary(edge)
        self._n_tombstoned += len(dead)
        return len(dead)

    def _edge_hops(self, kind: int) -> tuple[int, int, int]:
        """The (forward, backward, local) hop profile of one H-edge."""
        if kind == _FWD_MESSAGE:
            return (1, 0, 0)
        if kind == _BWD_MESSAGE:
            return (0, 1, 0)
        if kind == _BWD_LOCAL:
            return (0, 0, 1)
        return self._summary_profiles[kind - _SUMMARY]

    def _edge_part(self, eidx: int) -> "Step | SummaryEdge":
        """One H-edge as a walk part: its step, or the whole summary
        (shared, not flattened -- see :attr:`SummaryEdge.parts`)."""
        return self._steps[eidx]

    def _attach_summary(self, edge: SummaryEdge) -> None:
        key = edge.profile
        pid = self._profile_ids.get(key)
        if pid is None:
            pid = len(self._summary_profiles)
            self._summary_profiles.append(key)
            self._profile_ids[key] = pid
        self._add_h_edge(
            self._index[edge.tail], self._index[edge.head], _SUMMARY + pid, edge
        )
        self._n_summaries += 1
        self._summary_locals += edge.local
        self._summary_hops += max(edge.forward, edge.backward)

    def _live_summaries(self) -> Iterator[SummaryEdge]:
        for eidx, kind in enumerate(self._kinds):
            if kind >= _SUMMARY:
                yield self._steps[eidx]

    def _summarize_region(
        self, dead: set[int], floor: Fraction | None
    ) -> list[SummaryEdge]:
        """Pareto shortest-path summaries of the region about to die.

        For every live *boundary* node ``x`` with an H-edge into the
        region, a label-correcting search (the SPFA discipline of the
        oracle, run on hop profiles instead of one scalar weight)
        explores traversal walks through region nodes only, recording at
        every live exit node ``y`` the Pareto frontier of reachable
        ``(forward, backward, local)`` profiles.  The per-query weight
        is ``scale * (p * f - q * b) - l`` with ``(p, q)`` unknown at
        compaction time; over the query range the caller needs
        (``p/q >= 1`` for ``floor=None``, ``p/q > floor = a/c``
        otherwise) a profile ``x`` dominates ``y`` iff

            ``f_x <= f_y``  and  ``a * (f_x - f_y) <= c * (b_x - b_y)``

        with a local-hop tie-break (``l_x >= l_y``) required exactly
        where the weight difference can vanish: at equal ``f`` and
        ``b`` for a strict floor, additionally at
        ``a * df == c * db`` for the inclusive default.  The floored
        order prunes every walk that loops a region cycle of ratio
        ``<= floor`` -- such loops only improve queries at or below the
        floor -- keeping the label space region-bounded even when the
        settled past is full of relevant cycles.

        Caps bound the search without touching exactness, derived from
        the fact that only *simple* walks through the region need
        covering (genuine relevant cycles are simple; a walk label may
        loop, but every label some simple path needs must survive).  A
        label is always cut off when its forward hops exceed the sum of
        the ``|region| + 1`` largest per-edge forward capacities.  In
        the *inclusive* mode only -- where the weight order cannot
        prune loop staircases around region cycles -- a label is
        additionally cut off when its *hop count* (edges traversed, an
        old summary counting as one) exceeds ``|region| + 1``: a simple
        walk uses each edge at most once and at most that many overall.
        The hop count then joins the dominance order (a label only
        dominates labels with at least as many hops), which is what
        lets the coverage induction survive the cap: a covering label
        never has more hops than the simple walk it covers, so its
        extensions are never the ones discarded.  The floored mode
        leaves hops out entirely: its weight order already prunes every
        loop of ratio ``<= floor``, and the extra coordinate would only
        fracture the frontier into hop-distinct duplicates.  Finished
        entry-to-exit walks are re-pruned by weight alone either way --
        a walk's hop count is invisible to every future query.  Older
        summary edges with an endpoint in the region participate with
        their stored profiles and are folded into the new walks, so
        repeated compaction never loses structure.
        """
        entries: dict[int, list[int]] = {}  # live tail -> edges into region
        internal: dict[int, list[int]] = {}  # region tail -> region edges
        exits: dict[int, list[int]] = {}  # region tail -> edges out to live
        forward_caps: list[int] = []
        for eidx in range(len(self._tails)):
            tail_dead = self._tails[eidx] in dead
            head_dead = self._heads[eidx] in dead
            if not tail_dead and not head_dead:
                continue
            forward_caps.append(self._edge_hops(self._kinds[eidx])[0])
            if tail_dead and head_dead:
                internal.setdefault(self._tails[eidx], []).append(eidx)
            elif head_dead:
                entries.setdefault(self._tails[eidx], []).append(eidx)
            else:
                exits.setdefault(self._tails[eidx], []).append(eidx)
        # A simple walk through the region uses each edge at most once
        # and at most |region| + 1 edges in total.
        forward_caps.sort(reverse=True)
        f_cap = sum(forward_caps[: len(dead) + 1])
        if floor is None:
            fa, fc, strict = 1, 1, False
        else:
            fa, fc, strict = floor.numerator, floor.denominator, True
        # The hop cap exists for the inclusive mode's termination; the
        # floored order prunes loops by weight and must not fracture
        # its frontier into hop-distinct duplicates (see docstring).
        use_hops = not strict
        h_cap = len(dead) + 1
        out: list[SummaryEdge] = []
        for x, seed_edges in entries.items():
            # Labels are (f, b, l, h, parent label | None, eidx); the
            # parent chain reconstructs the realizing walk.
            frontier: dict[int, list[tuple]] = {}
            results: dict[int, list[tuple]] = {}
            work: list[tuple[int, tuple]] = []

            def dominates(x_lab: tuple, y_lab: tuple, hops: bool = use_hops) -> bool:
                if hops and x_lab[3] > y_lab[3]:
                    return False  # more hops: the coverage induction
                df = x_lab[0] - y_lab[0]  # needs extensions of y too
                db = x_lab[1] - y_lab[1]
                if df > 0 or fa * df > fc * db:
                    return False
                if strict:
                    tie = df == 0 and db == 0
                else:
                    tie = fa * df == fc * db
                return not tie or x_lab[2] >= y_lab[2]

            def offer(
                store: dict[int, list[tuple]], node: int, label: tuple
            ) -> bool:
                labels = store.setdefault(node, [])
                for o in labels:
                    if dominates(o, label):
                        return False  # dominated (or duplicate)
                labels[:] = [o for o in labels if not dominates(label, o)]
                labels.append(label)
                return True

            def relax(node_label: tuple, eidx: int) -> tuple | None:
                nh = node_label[3] + 1
                if use_hops and nh > h_cap:
                    return None
                df, db, dl = self._edge_hops(self._kinds[eidx])
                nf = node_label[0] + df
                if nf > f_cap:
                    return None
                return (
                    nf,
                    node_label[1] + db,
                    node_label[2] + dl,
                    nh,
                    node_label,
                    eidx,
                )

            for eidx in seed_edges:
                label = relax((0, 0, 0, 0, None, -1), eidx)
                if label is not None and offer(
                    frontier, self._heads[eidx], label
                ):
                    work.append((self._heads[eidx], label))
            while work:
                node, label = work.pop()
                for eidx in internal.get(node, ()):
                    nxt = relax(label, eidx)
                    if nxt is not None and offer(
                        frontier, self._heads[eidx], nxt
                    ):
                        work.append((self._heads[eidx], nxt))
                for eidx in exits.get(node, ()):
                    nxt = relax(label, eidx)
                    if nxt is not None:
                        offer(results, self._heads[eidx], nxt)
            x_event = self._nodes[x]
            for y, labels in results.items():
                y_event = self._nodes[y]
                # The hop coordinate protected the in-region coverage
                # induction; a *finished* walk's hop count is invisible
                # to every future query, so re-prune the terminal set by
                # weight alone -- otherwise hop-distinct but
                # weight-dominated siblings survive as pure-overhead
                # parallel summary edges.
                pruned: list[tuple] = []
                for label in labels:
                    if any(dominates(o, label, hops=False) for o in pruned):
                        continue
                    pruned[:] = [
                        o for o in pruned if not dominates(label, o, hops=False)
                    ]
                    pruned.append(label)
                for label in pruned:
                    chain: list[int] = []
                    cursor: tuple | None = label
                    while cursor is not None and cursor[5] >= 0:
                        chain.append(cursor[5])
                        cursor = cursor[4]
                    chain.reverse()
                    out.append(
                        SummaryEdge(
                            tail=x_event,
                            head=y_event,
                            forward=label[0],
                            backward=label[1],
                            local=label[2],
                            parts=tuple(
                                self._edge_part(eidx) for eidx in chain
                            ),
                        )
                    )
        return out

    def summarizable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> tuple[Event, ...]:
        """The largest cut summary compaction may absorb.

        Every live event strictly below the pinned ones, with each
        process's frontier (last live) event implicitly pinned --
        future local edges must attach to live events for the
        ratio-equivalence contract to cover extensions.  Callers whose
        stream carries in-flight-send knowledge should pin those send
        events too (their message edges are still to come); unpinned
        crossing sends degrade the contract exactly as exact-mode
        eviction does (the late edge is skipped and counted by the
        layers above).  Returns the removable live events, oldest first
        per process; feed them to :meth:`compact_prefix`.
        """
        keep: dict[ProcessId, int] = {
            process: total - 1
            for process, total in self._events_per_process.items()
        }
        for event in pinned:
            if event.process in keep and event.index < keep[event.process]:
                keep[event.process] = event.index
        return tuple(
            Event(process, index)
            for process, stop in sorted(keep.items())
            for index in range(self._first_live.get(process, 0), stop)
        )

    def _compact(self, dead: set[int]) -> None:
        """Physically drop ``dead`` nodes and incident edges, renumbering
        the survivors (stable order, so the compacted digraph is
        edge-for-edge the one a fresh build of the suffix would make).

        The summary-profile table is rebuilt from the surviving summary
        edges alone (their kinds remapped): profiles only referenced by
        dropped edges would otherwise accumulate forever, and every
        oracle call pays one weight-table entry per profile -- the
        table must stay bounded by the *live* digraph, like everything
        else here.
        """
        remap = [-1] * len(self._nodes)
        survivors: list[Event] = []
        for old_id, event in enumerate(self._nodes):
            if old_id in dead:
                del self._index[event]
                continue
            remap[old_id] = len(survivors)
            survivors.append(event)
        tails: list[int] = []
        heads: list[int] = []
        kinds: list[int] = []
        steps: list[Step] = []
        n_locals = 0
        profiles: list[tuple[int, int, int]] = []
        profile_ids: dict[tuple[int, int, int], int] = {}
        for eidx in range(len(self._tails)):
            tail, head = remap[self._tails[eidx]], remap[self._heads[eidx]]
            kind = self._kinds[eidx]
            if tail < 0 or head < 0:
                if kind == _FWD_MESSAGE:
                    self._messages.remove(self._steps[eidx].edge)
                elif kind >= _SUMMARY:
                    summary = self._steps[eidx]
                    self._n_summaries -= 1
                    self._summary_locals -= summary.local
                    self._summary_hops -= max(
                        summary.forward, summary.backward
                    )
                continue
            if kind == _BWD_LOCAL:
                n_locals += 1
            elif kind >= _SUMMARY:
                key = self._steps[eidx].profile
                pid = profile_ids.get(key)
                if pid is None:
                    pid = len(profiles)
                    profiles.append(key)
                    profile_ids[key] = pid
                kind = _SUMMARY + pid
            tails.append(tail)
            heads.append(head)
            kinds.append(kind)
            steps.append(self._steps[eidx])
        self._nodes = survivors
        for new_id, event in enumerate(survivors):
            self._index[event] = new_id
        self._tails, self._heads = tails, heads
        self._kinds, self._steps = kinds, steps
        self._n_locals = n_locals
        self._summary_profiles = profiles
        self._profile_ids = profile_ids
        adj: list[list[tuple[int, int]]] = [[] for _ in survivors]
        for eidx in range(len(tails)):
            adj[tails[eidx]].append((heads[eidx], kinds[eidx]))
        self._adj = adj
        self._epoch += 1

    def removable_prefix(
        self, pinned: Iterable[Event] = ()
    ) -> tuple[Event, ...]:
        """The largest tombstonable prefix no message or summary crosses.

        Every relevant cycle that enters the region behind such a prefix
        can never leave it again (the only region-escaping traversals
        would be message or summary edges crossing the boundary), so
        once the prefix itself is known admissible, removing it exactly
        changes no future full-graph oracle answer.  This is the
        settledness criterion exact-mode eviction uses; when it yields
        nothing (a causal chain links history to the frontier), summary
        mode (:meth:`summarizable_prefix` + :meth:`compact_prefix`) is
        the fallback that still bounds memory.

        Args:
            pinned: events that must stay live (e.g. the send events of
                in-flight messages, whose future message edges would
                otherwise cross the boundary, and each process's frontier
                event so upcoming local edges stay intact).

        Returns the removable live events, oldest first per process;
        feed them to :meth:`remove_prefix` (possibly after checking the
        prefix is worth the compaction cost).
        """
        # keep[p] = first index that must stay live; start fully removable.
        keep = dict(self._events_per_process)
        for event in pinned:
            if event.process in keep and event.index < keep[event.process]:
                keep[event.process] = event.index
        # No message -- and no summary edge, which stands for a bundle of
        # crossing walks -- may span the boundary, in either direction:
        # shrink until closed (each pass only lowers keep[], so this
        # terminates).
        spans = [(m.src, m.dst) for m in self._messages]
        spans.extend((s.tail, s.head) for s in self._live_summaries())
        changed = True
        while changed:
            changed = False
            for src, dst in spans:
                src_live = src.index >= keep[src.process]
                dst_live = dst.index >= keep[dst.process]
                if src_live and not dst_live:
                    keep[dst.process] = dst.index
                    changed = True
                elif dst_live and not src_live:
                    keep[src.process] = src.index
                    changed = True
        return tuple(
            Event(process, index)
            for process, stop in sorted(keep.items())
            for index in range(self._first_live.get(process, 0), stop)
        )

    # ------------------------------------------------------------------
    # the negative-cycle oracle
    # ------------------------------------------------------------------

    def _weight_table(self, p: int, q: int) -> list[int]:
        """Per-kind H-edge weights for a ratio ``p/q`` query: the three
        regular kinds (``_FWD_MESSAGE`` / ``_BWD_MESSAGE`` /
        ``_BWD_LOCAL``) followed by one entry per summary profile.

        The scale counts the local edges folded into summaries alongside
        the live ones, preserving the degeneracy argument of the module
        docstring: every simple cycle of the compacted digraph carries a
        local-edge tie-break of at least 1 and at most ``scale - 1``.
        """
        scale = self._n_locals + self._summary_locals + 1
        table = [p * scale, -q * scale, -1]
        for f, b, loc in self._summary_profiles:
            table.append(scale * (p * f - q * b) - loc)
        return table

    def _has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> bool:
        """Queue-based negative-cycle detection on ``H`` weighted for p/q.

        SPFA with round batching: every node starts at distance 0 on the
        work queue (the classical virtual source connected to all nodes),
        and each round relaxes the out-edges of exactly the nodes improved
        in the previous round -- coalescing the relaxation waves that make
        plain FIFO SPFA revisit nodes redundantly.  The queue draining
        proves there is no negative cycle; a relaxation chain growing to
        ``n`` edges proves there is one (the chain walk then revisits a
        node, and the enclosed loop was traversed by strictly improving
        relaxations, so its weight is negative).  Early termination cuts
        both ways: admissible graphs converge once the frontier dies out,
        without ever touching settled regions again, and grossly violating
        ones trip the chain bound long before the ``n * m`` worst case.

        With ``sources``, detection becomes Bellman-Ford from a source
        set: the sources start at distance 0 on the queue, every other
        node at ``+inf``, which detects exactly the negative cycles
        *reachable* from the sources (still with no false positives --
        the chain-length argument is seeding independent).  The ``+inf``
        initialization is essential: zero-initializing non-sources would
        stall the relaxation wave at the first positive-weight
        (forward-message) edge whose running prefix sum is nonnegative,
        missing cycles that genuinely pass through a source.  Callers
        must guarantee every possible negative cycle is reachable from
        the sources, e.g. because the graph without the speculative
        additions is known negative-cycle-free.

        The loop itself is
        :func:`repro.core.kernel.spfa_has_negative_cycle`, run through
        the checker's bound kernel.
        """
        return self._kernel.has_negative_cycle(p, q, sources)

    def _negative_cycle_steps(self, p: int, q: int) -> list[Step] | None:
        """Extract one simple negative cycle, as execution-graph steps.

        Used only on the witness path (at most once per violation
        query).  The detection-and-extraction run is
        :func:`repro.core.kernel.find_negative_cycle_edges` -- one
        round-based Bellman-Ford that records predecessor edge indices
        while detecting and pops the cycle out of the same run (the old
        shape re-ran ``n`` full rounds after detection just to rebuild
        the predecessors).
        """
        cycle_edges = find_negative_cycle_edges(self, p, q)
        if cycle_edges is None:
            return None
        # Summary edges expand into their realizing walks, so the
        # returned steps are always genuine execution-graph steps (the
        # expansion may revisit events; classification handles walks).
        steps: list[Step] = []
        for eidx in cycle_edges:
            step = self._steps[eidx]
            if isinstance(step, SummaryEdge):
                steps.extend(step.steps)
            else:
                steps.append(step)
        return steps

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def has_ratio_at_least(
        self,
        ratio: Fraction | float | int | str,
        sources: Iterable[Event] | None = None,
    ) -> bool:
        """Polynomial oracle: does some relevant cycle have
        ``|Z-|/|Z+| >= ratio``?

        Only ratios ``>= 1`` are meaningful (every relevant cycle has
        ratio at least 1 by Definition 3); smaller ratios reduce to
        testing whether any relevant cycle exists at all.

        Args:
            sources: restrict detection to violating cycles *reachable*
                from these events in the traversal digraph (Bellman-Ford
                from a source set).  Only sound when every possible
                violation passes through their reachable region -- the
                speculative scheduler qualifies because its realized
                prefix is violation-free by construction, so any
                violating cycle must involve a speculatively added
                H-edge; every such edge is incident to a new receive
                event, so the cycle passes through -- and is reachable
                from -- that event, and listing the new receive events
                alone suffices.
        """
        r = max(_as_ratio(ratio), Fraction(1))
        self.oracle_calls += 1
        source_ids: list[int] | None = None
        if sources is not None:
            source_ids = [self._index[ev] for ev in sources]
        return self._has_negative_cycle(
            r.numerator, r.denominator, source_ids
        )

    def violating_cycle(
        self, xi: Fraction | float | int | str
    ) -> CycleClassification | None:
        """A relevant cycle violating (2) for ``xi``, or ``None``.

        Violation means ``|Z-|/|Z+| >= xi``; the returned classification
        is guaranteed relevant with ``ratio >= xi``.
        """
        xi_frac = as_xi(xi)
        self.oracle_calls += 1
        steps = self._negative_cycle_steps(
            xi_frac.numerator, xi_frac.denominator
        )
        if steps is None:
            return None
        info = classify(Cycle(tuple(steps)))
        if not info.relevant or info.ratio is None or info.ratio < xi_frac:
            raise AssertionError(
                f"internal error: extracted cycle {info} is not a violation "
                f"witness for Xi={xi_frac}"
            )
        return info

    def check(self, xi: Fraction | float | int | str) -> AdmissibilityResult:
        """Decide ABC admissibility (Definition 4) in polynomial time."""
        xi_frac = as_xi(xi)
        witness = self.violating_cycle(xi_frac)
        return AdmissibilityResult(witness is None, xi_frac, witness)

    def worst_relevant_ratio(
        self, at_least: Fraction | None = None
    ) -> Fraction | None:
        """The exact maximum ``|Z-|/|Z+|`` over all relevant cycles.

        Returns ``None`` when the graph has no relevant cycle.  The result
        is the infimum of admissible ``Xi`` values: the graph is
        ABC-admissible for ``Xi`` iff ``Xi > worst_relevant_ratio()``.

        Implemented as a Stern-Brocot (mediant) search with run-length
        acceleration around the monotone oracle
        :meth:`has_ratio_at_least`.  The maximum is a fraction with
        numerator and denominator bounded by :attr:`ratio_bound` (the
        message count, plus the hops folded into summary edges), so
        once the two bracketing tree nodes have denominator sum exceeding
        that bound, the lower bracket is exact.  Probes are clamped to the
        denominator bound: once a bracket ``(lo, hi)`` is established, a
        mediant descendant with denominator beyond the bound can only test
        true if the maximum itself lay strictly between the brackets with
        a small denominator -- impossible by Stern-Brocot adjacency -- so
        such probes are resolved to ``False`` without running the oracle.

        Args:
            at_least: a ratio already known to be reached by some relevant
                cycle (e.g. the worst ratio of a subgraph).  Oracle calls
                at or below it are answered from the bound, which is what
                warm-starts the incremental monitor.
        """
        max_den = self.ratio_bound
        max_num = self.ratio_bound
        memo: dict[Fraction, bool] = {}

        def oracle(num: int, den: int) -> bool:
            value = Fraction(num, den)
            if at_least is not None and value <= at_least:
                return True
            cached = memo.get(value)
            if cached is None:
                cached = self.has_ratio_at_least(value)
                memo[value] = cached
            return cached

        if at_least is None or at_least < 1:
            if not oracle(1, 1):
                return None

        lo_num, lo_den = 1, 1  # oracle true: some relevant cycle exists
        hi_num, hi_den = 1, 0  # +infinity; oracle false beyond the max
        while lo_den + hi_den <= max_den:
            if oracle(lo_num + hi_num, lo_den + hi_den):
                # Walk lo towards hi while the oracle stays true, clamped
                # to the denominator bound (numerator bound when hi is
                # still +infinity: no relevant ratio exceeds the message
                # count).
                if hi_den:
                    cap = (max_den - lo_den) // hi_den
                else:
                    cap = max_num * lo_den - lo_num
                k = _max_k(
                    lambda k: oracle(
                        lo_num + k * hi_num, lo_den + k * hi_den
                    ),
                    cap,
                )
                lo_num += k * hi_num
                lo_den += k * hi_den
            else:
                # Walk hi towards lo while the oracle stays false.  If it
                # never turns true again before the denominator bound, lo
                # is exact.
                def still_false(k: int) -> bool:
                    return not oracle(k * lo_num + hi_num, k * lo_den + hi_den)

                if not still_false(1):
                    hi_num += lo_num
                    hi_den += lo_den
                    continue
                cap = (max_den - hi_den) // lo_den
                k = _max_k(still_false, cap)
                hi_num += k * lo_num
                hi_den += k * lo_den
        # Any fraction strictly between lo and hi has denominator greater
        # than max_den, so the maximum ratio is exactly the lower bracket.
        return Fraction(lo_num, lo_den)


def _max_k(probe: Callable[[int], bool], cap: int) -> int:
    """Largest ``k`` in ``[1, cap]`` with ``probe(k)`` true.

    ``probe(1)`` must be known true and ``probe`` monotone (a true prefix
    followed by a false suffix).  Probes the cap first -- in a converged
    Stern-Brocot search the whole clamped range is usually still true, so
    this resolves the walk in one oracle call -- then gallops by doubling
    and bisects.  Never evaluates beyond ``cap``.
    """
    if cap <= 1 or probe(cap):
        return cap
    k = 1
    while 2 * k < cap and probe(2 * k):
        k *= 2
    lo, hi = k, min(2 * k, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# one-shot convenience functions (build a checker, query once)
# ----------------------------------------------------------------------


def has_relevant_cycle_with_ratio_at_least(
    graph: ExecutionGraph, ratio: Fraction | float | int | str
) -> bool:
    """Polynomial oracle: does some relevant cycle have ``|Z-|/|Z+| >= ratio``?

    One-shot form of :meth:`AdmissibilityChecker.has_ratio_at_least`;
    build the checker once when issuing several queries.
    """
    return AdmissibilityChecker(graph).has_ratio_at_least(ratio)


def find_violating_cycle(
    graph: ExecutionGraph, xi: Fraction | float | int | str
) -> CycleClassification | None:
    """A relevant cycle violating (2) for ``xi``, or ``None``.

    Violation means ``|Z-|/|Z+| >= xi``; the returned classification is
    guaranteed relevant with ``ratio >= xi``.
    """
    return AdmissibilityChecker(graph).violating_cycle(xi)


def check_abc(
    graph: ExecutionGraph, xi: Fraction | float | int | str
) -> AdmissibilityResult:
    """Decide ABC admissibility (Definition 4) in polynomial time."""
    return AdmissibilityChecker(graph).check(xi)


def check_abc_exhaustive(
    graph: ExecutionGraph,
    xi: Fraction | float | int | str,
    max_length: int | None = None,
) -> AdmissibilityResult:
    """Decide admissibility by enumerating all cycles (small graphs only).

    Used to cross-validate :func:`check_abc` in the test suite, and to
    implement the length-restricted ABC variants of Section 6 (via
    ``max_length``).
    """
    xi_frac = as_xi(xi)
    for cycle in enumerate_cycles(graph, max_length=max_length):
        info = classify(cycle)
        if info.violates(xi_frac):
            return AdmissibilityResult(False, xi_frac, info)
    return AdmissibilityResult(True, xi_frac, None)


def worst_relevant_ratio(graph: ExecutionGraph) -> Fraction | None:
    """The exact maximum ``|Z-|/|Z+|`` over all relevant cycles.

    One-shot form of :meth:`AdmissibilityChecker.worst_relevant_ratio`
    (see there for the algorithm); ``None`` means the graph has no
    relevant cycle.
    """
    return AdmissibilityChecker(graph).worst_relevant_ratio()


def worst_relevant_ratio_exhaustive(
    graph: ExecutionGraph, max_length: int | None = None
) -> Fraction | None:
    """Exhaustive counterpart of :func:`worst_relevant_ratio` (tests)."""
    worst: Fraction | None = None
    for cycle in enumerate_cycles(graph, max_length=max_length):
        info = classify(cycle)
        if info.relevant and info.ratio is not None:
            if worst is None or info.ratio > worst:
                worst = info.ratio
    return worst
