"""The wire-mix ingest server, run in its own interpreter.

Started by ``workloads.ServerProcess``: builds an ``IngestServer`` (one
front, process workers) on a free loopback port, prints
``{"address": [host, port]}`` and then answers one JSON request per
stdin line with one JSON line on stdout:

* ``flush`` -- a sync barrier on every front;
* ``answers`` -- the full answer set for the given trace ids, timed;
* ``stop`` -- the telemetry snapshot (when traced), then a clean stop.

End of stdin stops the server too, so a vanished benchmark process
never leaves it running.  With ``--trace-dir`` the layer tracer is
installed before the workers fork and every process writes its span
totals there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runtime import IngestServer  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import read_answers  # noqa: E402


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def serve(args: argparse.Namespace) -> None:
    tracer = None
    if args.trace_dir is not None:
        tracer = tracing.Tracer(args.trace_dir)
        tracer.install()
    server = IngestServer(
        args.xi,
        n_fronts=1,
        workers_per_front=args.workers,
        backend="process",
    ).start()
    try:
        reply({"address": list(server.address)})
        for line in sys.stdin:
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd == "flush":
                server.flush()
                reply({"ok": True})
            elif cmd == "answers":
                start = time.perf_counter()
                answers, counts = read_answers(server, request["ids"])
                answers_s = time.perf_counter() - start
                reply(
                    {
                        "answers": answers,
                        "counts": counts,
                        "answers_s": answers_s,
                        "front_errors": len(server.front_errors()),
                    }
                )
            elif cmd == "stop":
                telemetry = server.metrics_snapshot() if tracer else {}
                server.stop()
                reply({"telemetry": telemetry})
                break
            else:
                raise ValueError(f"unknown request {cmd!r}")
    finally:
        server.stop()
        if tracer is not None:
            tracer.dump("server", role="server")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi", type=int, default=None)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace-dir", default=None)
    try:
        serve(parser.parse_args())
    except Exception:
        reply({"error": traceback.format_exc()})
        sys.exit(1)


if __name__ == "__main__":
    main()
