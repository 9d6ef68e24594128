"""Weaker variants of the ABC model (Section 6).

The paper defines, analogously to Dwork et al. and Widder & Schmid:

* **ABC**    - ``Xi`` known, holds perpetually (Definition 4);
* **?ABC**   - ``Xi`` unknown, holds perpetually;
* **<>ABC**  - ``Xi`` known, holds eventually: only relevant cycles
  starting at or after some (unknown) consistent cut ``C_GST`` satisfy
  condition (2);
* **?<>ABC** - ``Xi`` unknown and holds eventually.

It also sketches an orthogonal weakening: dropping all cycles that exceed
a certain length from the space-time diagram -- e.g. Algorithm 1 remains
correct when only cycles with at most two forward messages are
constrained.  :func:`check_abc_forward_bounded` implements that variant
exactly (in polynomial time via a layered DAG), and
:func:`check_abc_length_restricted` the total-length restriction.

Implementation note: the eventual-variant searches here run on the
*shared tombstoned digraph* of one
:class:`~repro.core.synchrony.AdmissibilityChecker`.
:func:`earliest_stabilization_cut` grows its ``C_GST`` candidate by
absorbing the cut into the live digraph through the checker's two-mode
compaction engine
(:meth:`~repro.core.synchrony.AdmissibilityChecker.compact_prefix`),
so the iteration never rebuilds a suffix graph or re-indexes witnesses
-- the same substrate the online monitor and the enforcing scheduler
use (see ``docs/architecture.md`` for the contracts).  The mode choice
is load-bearing: *exact* mode's compacted survivor is edge-for-edge
the suffix graph, which is precisely the <>ABC exemption semantics --
a cycle crossing ``C_GST`` is exempt by Definition, so the *summary*
mode the monitoring layers use (which deliberately keeps crossing
cycles detectable) would absorb strictly larger cuts than the
definition allows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.core.cuts import Cut
from repro.core.events import Event, ProcessId
from repro.core.execution_graph import ExecutionGraph, MessageEdge
from repro.core.synchrony import (
    AdmissibilityChecker,
    AdmissibilityResult,
    as_xi,
    check_abc,
    check_abc_exhaustive,
)

__all__ = [
    "suffix_graph",
    "check_eventual_abc",
    "earliest_stabilization_cut",
    "unknown_xi_infimum",
    "running_worst_ratio",
    "check_abc_forward_bounded",
    "check_abc_length_restricted",
]


def suffix_graph(graph: ExecutionGraph, cut: Cut) -> ExecutionGraph:
    """The execution graph restricted to events *after* the cut.

    Events inside ``cut`` are removed together with their incident
    messages; the surviving events of each process are re-indexed so the
    result is again a well-formed execution graph.  A relevant cycle of
    the suffix graph is exactly a relevant cycle of ``graph`` that starts
    at or after the cut.
    """
    keep: dict[ProcessId, list[Event]] = {}
    rename: dict[Event, Event] = {}
    for p in graph.processes:
        survivors = [ev for ev in graph.events_of(p) if ev not in cut]
        keep[p] = []
        for new_index, ev in enumerate(survivors):
            renamed = Event(p, new_index)
            rename[ev] = renamed
            keep[p].append(renamed)
    messages = [
        MessageEdge(rename[m.src], rename[m.dst])
        for m in graph.messages
        if m.src in rename and m.dst in rename
    ]
    return ExecutionGraph(keep, messages)


def check_eventual_abc(
    graph: ExecutionGraph,
    xi: Fraction | int | float,
    stabilization: Cut,
) -> AdmissibilityResult:
    """<>ABC admissibility: condition (2) beyond the stabilization cut.

    The cut plays the role of ``C_GST``; cycles touching it are exempt.
    """
    return check_abc(suffix_graph(graph, stabilization), xi)


def earliest_stabilization_cut(
    graph: ExecutionGraph, xi: Fraction | int | float
) -> Cut:
    """A (greedy, left-closed) stabilization cut for <>ABC.

    Repeatedly finds a violating relevant cycle in the current suffix and
    absorbs the causal past of the cycle's earliest event into the cut.
    The result is a valid ``C_GST`` witness: the suffix beyond it is
    ABC-admissible.  It is minimal in the weak sense that every absorbed
    event was the earliest event of some violating cycle.

    One :class:`~repro.core.synchrony.AdmissibilityChecker` is shared
    across all absorbed cuts: instead of rebuilding the suffix graph (and
    a fresh traversal digraph) per iteration, the grown cut is absorbed
    into the live digraph by *exact-mode* compaction
    (:meth:`~repro.core.synchrony.AdmissibilityChecker.compact_prefix`),
    whose queries then answer for the suffix exactly -- with original
    event identities, so no survivor re-indexing round trip is needed to
    map witnesses back.  Summary mode would be wrong here: it keeps
    cycles crossing the absorbed cut detectable, but <>ABC exempts
    exactly those cycles, so the search must forget them.
    """
    absorbed: set[Event] = set()
    checker = AdmissibilityChecker(graph)
    while True:
        witness = checker.violating_cycle(xi)
        if witness is None:
            if not absorbed:
                return Cut(frozenset())
            return Cut(frozenset(absorbed)).left_closure(graph)
        earliest = min(witness.cycle.events)
        absorbed |= graph.causal_past([earliest])
        # Already-compacted events in the cumulative cut are ignored.
        checker.compact_prefix(absorbed, mode="exact")


def unknown_xi_infimum(graph: ExecutionGraph) -> Fraction | None:
    """?ABC: the unknown parameter must exceed this bound.

    For a finite prefix, the execution is ?ABC-admissible for precisely
    those (unknown) ``Xi`` strictly above the worst relevant-cycle ratio;
    ``None`` means every ``Xi > 1`` works (no relevant cycle at all).
    """
    return AdmissibilityChecker(graph).worst_relevant_ratio()


def running_worst_ratio(
    prefixes: Iterable[ExecutionGraph],
) -> list[Fraction | None]:
    """The worst relevant ratio of each prefix of a growing execution.

    Useful for studying the ?ABC model: an adaptive algorithm's estimate
    ``Xihat`` must eventually dominate this non-decreasing sequence.

    Implemented on the incremental machinery of
    :class:`~repro.core.synchrony.AdmissibilityChecker`: each prefix
    that extends its predecessor is absorbed as a graph diff and settled
    by :meth:`~repro.core.synchrony.AdmissibilityChecker.updated_worst_ratio`
    (typically one oracle call), instead of paying a full Stern-Brocot
    search per prefix; non-extending entries fall back to a batch
    search.  To monitor a recorded trace record-by-record -- with
    violation callbacks -- use
    :class:`repro.analysis.online.OnlineAbcMonitor` or
    :func:`repro.analysis.online.running_worst_ratio_of_trace`.
    """
    checker: AdmissibilityChecker | None = None
    worst: Fraction | None = None
    out: list[Fraction | None] = []
    for graph in prefixes:
        if checker is not None and checker.extends(graph):
            if checker.absorb(graph):
                worst = checker.updated_worst_ratio(worst)
        else:
            checker = AdmissibilityChecker(graph)
            worst = checker.updated_worst_ratio(None)
        out.append(worst)
    return out


def check_abc_forward_bounded(
    graph: ExecutionGraph,
    xi: Fraction | int | float,
    max_forward: int,
) -> bool:
    """ABC restricted to relevant cycles with at most ``max_forward``
    forward messages (Section 6's "at most 2 forward messages" variant).

    Polynomial: layer the traversal digraph by the number of forward
    messages used.  Within a layer only backward traversals remain, which
    cannot cycle (they would form a directed cycle of the execution
    graph), so the layered graph is a DAG and longest paths are exact.
    A violating cycle with ``f <= max_forward`` forward messages exists
    iff some event reaches itself in a higher layer with scaled weight
    ``> 0`` (same weighting as :mod:`repro.core.synchrony`).
    """
    xi_frac = as_xi(xi)
    if max_forward < 1:
        raise ValueError("a relevant cycle needs at least one forward message")
    p, q = xi_frac.numerator, xi_frac.denominator
    events = list(graph.events())
    index = {ev: i for i, ev in enumerate(events)}
    n = len(events)
    scale = len(graph.local_edges) + 1

    # Within-layer edges (backward traversals) and layer-up edges (forward).
    backward: list[tuple[int, int, int]] = []
    forward: list[tuple[int, int, int]] = []
    for m in graph.messages:
        u, v = index[m.src], index[m.dst]
        forward.append((u, v, -p * scale))
        backward.append((v, u, q * scale))
    for loc in graph.local_edges:
        u, v = index[loc.src], index[loc.dst]
        backward.append((v, u, 1))

    order = _backward_topological_order(n, backward)

    for start in range(n):
        # best[f][v]: max weight of a walk from (start, layer 0) to
        # (v, layer f).  Layers advance only on forward edges.
        neg_inf = None
        best = [[neg_inf] * n for _ in range(max_forward + 1)]
        best[0][start] = 0
        for layer in range(max_forward + 1):
            _relax_within_layer(best[layer], order, backward)
            if layer < max_forward:
                for u, v, w in forward:
                    if best[layer][u] is not None:
                        cand = best[layer][u] + w
                        if best[layer + 1][v] is None or cand > best[layer + 1][v]:
                            best[layer + 1][v] = cand
        for layer in range(1, max_forward + 1):
            value = best[layer][start]
            if value is not None and value > 0:
                return False
    return True


def _backward_topological_order(
    n: int, backward: list[tuple[int, int, int]]
) -> list[int]:
    """Topological order of the within-layer (backward-traversal) DAG."""
    from collections import deque

    out: dict[int, list[int]] = {}
    indeg = [0] * n
    for u, v, _w in backward:
        out.setdefault(u, []).append(v)
        indeg[v] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in out.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise AssertionError(
            "backward-traversal subgraph is cyclic; execution graph invalid"
        )
    return order


def _relax_within_layer(
    best: list[int | None],
    order: list[int],
    backward: list[tuple[int, int, int]],
) -> None:
    """Longest-path relaxation along the within-layer DAG, in place."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, w in backward:
        adj.setdefault(u, []).append((v, w))
    for u in order:
        if best[u] is None:
            continue
        for v, w in adj.get(u, ()):
            cand = best[u] + w
            if best[v] is None or cand > best[v]:
                best[v] = cand


def check_abc_length_restricted(
    graph: ExecutionGraph,
    xi: Fraction | int | float,
    max_length: int,
) -> AdmissibilityResult:
    """ABC restricted to cycles of total step count at most ``max_length``
    (exhaustive; the "drop all long cycles" weakening of Section 6)."""
    return check_abc_exhaustive(graph, xi, max_length=max_length)
