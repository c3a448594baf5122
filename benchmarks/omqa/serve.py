"""``repro serve`` with the benchmark's instruments inside the server.

Usage: ``python serve.py --probe-out PROBES.json [--trace-out SPANS.json]
serve [serve args...]`` with ``PYTHONPATH`` pointing at the repository's
``src``.

A thread of its own times :func:`hostspeed.probe` every
:data:`hostspeed.PROBE_EVERY` seconds, so the server's speed can be
told from the host's.  With ``--trace-out`` the :mod:`trace` wrappers
are installed too, and the service's thread pool runs each job in the
submitting request's context (so worker-thread spans are children of
``ServiceApp.dispatch``).  The remaining arguments go to
``repro.cli.main``, which turns SIGTERM into a graceful shutdown; when
it returns, ``[[time, seconds], ...]`` of the probes are written to
``--probe-out`` and the spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import hostspeed
import trace


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe-out", required=True)
    parser.add_argument("--trace-out")
    args, rest = parser.parse_known_args(argv)

    import repro.cli
    import repro.service.server

    tracer = None
    if args.trace_out:
        tracer = trace.Tracer(record_all=True).install()
        repro.service.server.ThreadPoolExecutor = trace.PropagatingExecutor
    probes: list[tuple[float, float]] = []
    stop = threading.Event()

    def probe_loop() -> None:
        while not stop.wait(hostspeed.PROBE_EVERY):
            probes.append((time.perf_counter(), hostspeed.probe()))

    prober = threading.Thread(target=probe_loop, name="host-probe", daemon=True)
    prober.start()
    try:
        return repro.cli.main(rest)
    finally:
        stop.set()
        prober.join()
        with open(args.probe_out, "w", encoding="utf8") as handle:
            json.dump(probes, handle)
        if tracer is not None:
            trace.dump_spans(tracer.spans, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
