"""Layer spans from outside the program: wrappers around public calls.

A :class:`Tracer` replaces chosen functions and methods of the library
with timing wrappers.  Each thread keeps a span stack, so a layer's
*self* time is its span's duration minus the time its wrapped children
took, and nested layers never count the same microsecond twice.

Worker processes are forked from a process that holds an installed
tracer, so they inherit the wrappers; a fork hook clears the inherited
totals and, when the worker's ``run()`` returns, writes the worker's
own totals as one JSON file into the tracer's dump directory.
:func:`merge_dumps` folds those files back together.

Nothing is patched at import: call :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` to restore the original functions.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Callable

# One row per span name: [calls, inclusive ns, self ns, root ns].  Root
# time is the inclusive time of spans with no wrapped parent, so the
# root sum of one process is how long that process was busy in layers.
CALLS, INCL, SELF, ROOT = range(4)


def span_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span)`` for every wrapped library entry.

    Imported lazily: the list names library objects, and the tracer
    module itself must stay importable without the library on the path.
    """
    from repro.analysis.online import OnlineAbcMonitor
    from repro.core import kernel
    from repro.core.synchrony import AdmissibilityChecker
    from repro.runtime import codec
    from repro.runtime.durable import DurableStore
    from repro.runtime.net.client import ProducerClient
    from repro.runtime.parallel import ParallelFleet
    from repro.runtime.shard import ShardGroup

    points: list[tuple[object, str, str]] = []
    pending = [kernel.Kernel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not kernel.Kernel and "has_negative_cycle" in vars(cls):
            points.append((cls, "has_negative_cycle", "kernel.oracle"))
    points += [
        (AdmissibilityChecker, "absorb_batch", "checker.absorb"),
        (AdmissibilityChecker, "add_event", "checker.absorb"),
        (AdmissibilityChecker, "add_message", "checker.absorb"),
        (AdmissibilityChecker, "updated_worst_ratio", "checker.ratio"),
        (AdmissibilityChecker, "violating_cycle", "checker.witness"),
        (OnlineAbcMonitor, "observe_batch", "monitor.observe"),
        (OnlineAbcMonitor, "observe_batch_columnar", "monitor.observe"),
        (OnlineAbcMonitor, "maybe_compact", "monitor.compact"),
        (OnlineAbcMonitor, "forget_prefix", "monitor.compact"),
        (ShardGroup, "ingest_batch", "shard.ingest"),
        (ShardGroup, "ingest_batch_columnar", "shard.ingest"),
        (ShardGroup, "flush_state", "shard.flush"),
        (ShardGroup, "enforce_budget", "shard.budget"),
        (ParallelFleet, "ingest_many", "parallel.dispatch"),
        (ParallelFleet, "ingest_wire_many", "parallel.dispatch"),
        (ParallelFleet, "ingest_wire_columns", "parallel.dispatch"),
        (ParallelFleet, "flush", "parallel.barrier"),
        (ParallelFleet, "checkpoint", "parallel.barrier"),
        (codec, "encode_record", "codec.encode"),
        (codec, "decode_records", "codec.decode"),
        (codec, "decode_records_columnar", "codec.decode"),
        (DurableStore, "append", "durable.append"),
        (DurableStore, "flush", "durable.flush"),
        (DurableStore, "checkpoint", "durable.checkpoint"),
        (ProducerClient, "send", "net.client_send"),
        (ProducerClient, "flush", "net.client_send"),
    ]
    return points


class Tracer:
    """Per-thread span stacks over wrapped functions (see module doc).

    Args:
        dump_dir: where forked worker processes write their totals
            (``None``: forked children record nothing).
        clock: nanosecond clock; tests pass a fake one.
    """

    def __init__(
        self,
        dump_dir: str | os.PathLike | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.dump_dir = None if dump_dir is None else Path(dump_dir)
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables: list[dict[str, list[int]]] = []

    # -- patching -----------------------------------------------------

    def wrap(self, owner: object, attr: str, span: str) -> None:
        """Replace ``owner.attr`` by a timing wrapper recording ``span``."""
        original = vars(owner)[attr]
        clock = self._clock
        local = self._local_state

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack, table = local()
            stack.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                row = table.get(span)
                if row is None:
                    row = table[span] = [0, 0, 0, 0]
                row[CALLS] += 1
                row[INCL] += duration
                row[SELF] += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    row[ROOT] += duration

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, points: list[tuple[object, str, str]] | None = None) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, span in span_points() if points is None else points:
            self.wrap(owner, attr, span)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _local_state(self) -> tuple[list[int], dict[str, list[int]]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    # -- totals -------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """Rows summed over every thread (read once the threads idle)."""
        with self._lock:
            tables = list(self._tables)
        return merge_tables(tables)

    def clear(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    # -- forked workers -----------------------------------------------

    def _after_fork(self) -> None:
        self._reset()
        if self._patches and self.dump_dir is not None:
            multiprocessing.util.Finalize(
                None, self._dump_child, exitpriority=100
            )

    def _dump_child(self) -> None:
        self.dump(f"worker-{os.getpid()}", role="worker")

    def dump(self, name: str, role: str) -> None:
        """Write this process's totals to ``dump_dir/<name>.json``."""
        assert self.dump_dir is not None
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"{name}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"role": role, "spans": self.totals()}))
        os.replace(tmp, path)


def merge_tables(tables: list[dict[str, list[int]]]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for table in tables:
        for span, row in list(table.items()):
            acc = out.setdefault(span, [0, 0, 0, 0])
            for k in range(4):
                acc[k] += row[k]
    return out


def merge_dumps(dump_dir: str | os.PathLike) -> tuple[dict[str, list[int]], list[int]]:
    """Totals from every dump in ``dump_dir``, plus each worker
    process's busy time (its root span sum) in nanoseconds."""
    tables: list[dict[str, list[int]]] = []
    worker_busy: list[int] = []
    for path in sorted(Path(dump_dir).glob("*.json")):
        data = json.loads(path.read_text())
        tables.append(data["spans"])
        if data["role"] == "worker":
            worker_busy.append(sum(row[ROOT] for row in data["spans"].values()))
    return merge_tables(tables), worker_busy
