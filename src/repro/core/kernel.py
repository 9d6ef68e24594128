"""The negative-cycle kernel under the admissibility oracle.

Every oracle query of :class:`~repro.core.synchrony.AdmissibilityChecker`
bottoms out in one primitive: negative-cycle detection on the traversal
digraph ``H`` re-weighted for a ratio ``p/q``.  :class:`PyObjectKernel`
answers it with a round-batched SPFA over the checker's adjacency lists
(:func:`spfa_has_negative_cycle`); it holds no state of its own, so a
checker may drop and re-create it at will (it does so on pickling).

Witness extraction is separate: :func:`find_negative_cycle_edges` runs
one round-based Bellman-Ford that records predecessor edge indices
*during* detection and extracts the cycle from them the moment a
relaxation chain trips the ``n``-edge bound -- the detection run is
reused instead of re-running full rounds afterwards.

This module deliberately imports nothing from
:mod:`repro.core.synchrony` (which imports *it*): the kernel reads the
checker's struct-of-arrays digraph (``_tails`` / ``_heads`` / ``_kinds``
/ ``_adj`` / ``_weight_table``) through the instance passed at bind
time.  The edge-kind tags live here as the canonical definition.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.synchrony import AdmissibilityChecker

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "Kernel",
    "PyObjectKernel",
    "find_negative_cycle_edges",
    "resolve_kernel_name",
    "spfa_has_negative_cycle",
]

# Edge kinds of the traversal digraph; weights per (p, q) query are
# derived from the kind, so only these tags are stored per edge.  Kinds
# at or above SUMMARY index the checker's deduplicated
# (forward, backward, local) summary-profile table.
FWD_MESSAGE = 0
BWD_MESSAGE = 1
BWD_LOCAL = 2
SUMMARY = 3

KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_KERNEL = "py_object"


def spfa_has_negative_cycle(
    checker: "AdmissibilityChecker",
    p: int,
    q: int,
    sources: list[int] | None = None,
) -> bool:
    """The reference detection loop (see
    :meth:`~repro.core.synchrony.AdmissibilityChecker._has_negative_cycle`
    for the full semantics): round-batched SPFA from a virtual source,
    or genuine Bellman-Ford from ``sources`` with non-sources at
    ``+inf``."""
    n = len(checker._nodes)
    if n == 0 or (not checker._messages and not checker._n_summaries):
        return False
    wtab = checker._weight_table(p, q)
    adj = checker._adj
    chain = [0] * n  # edges in the walk realizing the current dist
    queued = [False] * n
    if sources is None:
        dist: list[int | float] = [0] * n
        active = [u for u in range(n) if adj[u]]
    else:
        dist = [float("inf")] * n
        for u in sources:
            dist[u] = 0
        active = sorted({u for u in sources if adj[u]})
    while active:
        next_active: list[int] = []
        push = next_active.append
        for u in active:
            du = dist[u]
            cu = chain[u] + 1
            for v, kind in adj[u]:
                nd = du + wtab[kind]
                if nd < dist[v]:
                    if cu >= n:
                        return True
                    dist[v] = nd
                    chain[v] = cu
                    if not queued[v]:
                        queued[v] = True
                        push(v)
        # Process the next frontier newest-first: every negative H-edge
        # (message backward, local backward) points towards older
        # events, and node ids follow arrival order, so a descending
        # sweep cascades whole backward chains within one round instead
        # of one hop per round.
        next_active.sort(reverse=True)
        active = next_active
        for v in active:
            queued[v] = False
    return False


def find_negative_cycle_edges(
    checker: "AdmissibilityChecker", p: int, q: int
) -> list[int] | None:
    """One simple negative H-cycle as edge indices, or ``None``.

    Round-based Bellman-Ford that records the predecessor edge index of
    every improvement *while detecting*: the moment some relaxation
    chain reaches ``n`` edges a negative cycle is certain, and the
    predecessor graph -- whose every cycle is negative, because each
    link was a strict improvement when recorded -- is walked with
    visited marks to pop the cycle out of the very run that found it.
    (A predecessor walk can dead-end on a node that was never improved;
    then the rounds simply continue -- after ``n`` full rounds with
    updates the classical extraction from the last-updated node is
    guaranteed.)  This replaces the old two-pass shape where detection
    ran its rounds and witness extraction re-ran ``n`` full rounds from
    scratch.
    """
    n = len(checker._nodes)
    if n == 0 or (not checker._messages and not checker._n_summaries):
        return None
    wtab = checker._weight_table(p, q)
    kinds = checker._kinds
    tails, heads = checker._tails, checker._heads
    m = len(tails)
    dist = [0] * n
    pred = [-1] * n  # H-edge index that last improved each node
    chain = [0] * n
    updated_node = -1
    for _ in range(n):
        updated_node = -1
        for eidx in range(m):
            tail = tails[eidx]
            nd = dist[tail] + wtab[kinds[eidx]]
            head = heads[eidx]
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = eidx
                updated_node = head
                cu = chain[tail] + 1
                chain[head] = cu
                if cu >= n:
                    cycle = _cycle_from_predecessors(pred, tails, head, n)
                    if cycle is not None:
                        return cycle
        if updated_node < 0:
            return None
    # n rounds elapsed, each with an update: walk n predecessor links to
    # land on a cycle, then collect it (the classical extraction).
    node = updated_node
    for _ in range(n):
        eidx = pred[node]
        assert eidx >= 0
        node = tails[eidx]
    cycle = _cycle_from_predecessors(pred, tails, node, n)
    assert cycle is not None
    return cycle


def _cycle_from_predecessors(
    pred: list[int], tails: list[int], start: int, n: int
) -> list[int] | None:
    """Walk predecessor links from ``start`` until a node repeats, then
    collect the enclosed cycle; ``None`` if the walk dead-ends on a
    never-improved node first (at most ``n + 1`` links are followed --
    over ``n`` nodes a longer defined walk must repeat)."""
    seen = {start}
    node = start
    for _ in range(n + 1):
        eidx = pred[node]
        if eidx < 0:
            return None
        node = tails[eidx]
        if node in seen:
            break
        seen.add(node)
    else:  # pragma: no cover - pigeonhole makes this unreachable
        return None
    cycle_edges: list[int] = []
    cycle_start = node
    while True:
        eidx = pred[node]
        cycle_edges.append(eidx)
        node = tails[eidx]
        if node == cycle_start:
            break
    cycle_edges.reverse()
    return cycle_edges


class Kernel:
    """One checker's negative-cycle detection strategy, bound to exactly
    one :class:`~repro.core.synchrony.AdmissibilityChecker`.  Kernels
    are never pickled: the checker drops its kernel on serialization and
    re-creates it on load.  The repository benchmark's tracer
    (``perfbench/tracer.py``) times the oracle by wrapping
    ``has_negative_cycle`` on every subclass of this class."""

    def __init__(self, checker: "AdmissibilityChecker") -> None:
        self._checker = checker

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> bool:
        raise NotImplementedError


class PyObjectKernel(Kernel):
    """The SPFA over the checker's adjacency lists, no cached state."""

    def has_negative_cycle(
        self, p: int, q: int, sources: list[int] | None = None
    ) -> bool:
        return spfa_has_negative_cycle(self._checker, p, q, sources)


def resolve_kernel_name(spec: str | None = None) -> str:
    """The kernel name ``spec`` -- or, when ``None``, the ``REPRO_KERNEL``
    environment variable -- selects.  ``py_object`` is the only kernel;
    any other name raises ``ValueError``, so a stale setting naming a
    removed kernel fails loudly instead of being ignored."""
    name = spec
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    if name != DEFAULT_KERNEL:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {[DEFAULT_KERNEL]}"
        )
    return name
