"""CLI for the campaign service: ``python -m repro.serve``.

Starts the HTTP front end over a long-running
:class:`repro.sweep.jobs.JobService`:

* ``--workers N`` — persistent worker-pool size (0 = inline execution
  in the dispatcher thread; designs stay cached either way).
* ``--store PATH`` — persist the result store as append-only JSONL at
  PATH, so dedup survives restarts.  ``--memory-store`` keeps
  memoization in RAM only; the default is no dedup at all.
* ``--engine E`` — settle-engine override applied to every job.
* ``--host/--port`` — bind address (``--port 0`` picks a free port;
  the chosen one is printed on stdout).
* ``--retries N`` / ``--timeout-s S`` — default retry budget for
  retryable scenario failures and the deadline of last resort (see
  ``docs/service.md`` "Reliability").
* ``--max-queued-jobs N`` / ``--max-scenarios-per-job N`` — admission
  quotas; over-limit submissions get HTTP 429.

The process runs until SIGINT/SIGTERM and **drains gracefully**: new
submissions are rejected, accepted jobs finish (established event
streams keep delivering until their terminal line), the store is
flushed, then the workers shut down.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.kernel.engine import ENGINES
from repro.serve.http import make_server
from repro.sweep.jobs import JobService


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running campaign service over repro.sweep.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8035,
                        help="bind port; 0 picks a free one (default: 8035)")
    parser.add_argument("--workers", type=int, default=2,
                        help="persistent worker processes; 0 = inline "
                             "(default: 2)")
    parser.add_argument("--engine", default=None, choices=ENGINES,
                        help="settle engine override for every job")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persist the dedup result store as JSONL "
                             "at PATH")
    parser.add_argument("--memory-store", action="store_true",
                        help="in-memory dedup store (no persistence)")
    parser.add_argument("--retries", type=int, default=1,
                        help="default retry budget for retryable scenario "
                             "failures (worker death, deadline); "
                             "spec/submit values override (default: 1)")
    parser.add_argument("--timeout-s", type=float, default=None,
                        metavar="S",
                        help="fallback per-scenario deadline in seconds "
                             "when neither the spec nor duration history "
                             "provides one (default: none)")
    parser.add_argument("--max-queued-jobs", type=int, default=None,
                        metavar="N",
                        help="reject submissions (HTTP 429) once N jobs "
                             "are queued (default: unlimited)")
    parser.add_argument("--max-scenarios-per-job", type=int, default=None,
                        metavar="N",
                        help="reject campaigns expanding past N scenarios "
                             "(HTTP 429; default: unlimited)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    args = parser.parse_args(argv)

    store = args.store if args.store else (True if args.memory_store else None)
    service = JobService(
        workers=args.workers, engine=args.engine, store=store,
        retries=args.retries, default_timeout_s=args.timeout_s,
        max_queued_jobs=args.max_queued_jobs,
        max_scenarios_per_job=args.max_scenarios_per_job,
    )
    server = make_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    mode = f"{args.workers} worker(s)" if args.workers else "inline"
    dedup = (
        f"store={args.store}" if args.store
        else ("store=memory" if args.memory_store else "store=off")
    )
    print(
        f"repro.serve listening on http://{host}:{port} "
        f"({mode}, {dedup})",
        flush=True,
    )

    # SIGTERM/SIGINT start the drain.  server.shutdown() must not run
    # on the thread executing serve_forever() (it would deadlock), and
    # a signal handler runs exactly there — so hand it to a thread.
    def request_stop(_signum, _frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, request_stop)
        except ValueError:  # not the main thread (embedded/tests)
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        server.shutdown()
        # Accepting is stopped but established connections (event
        # streams) still run on their daemon threads: drain the
        # service — finish accepted jobs, flush the store, let streams
        # deliver terminal lines — before tearing the sockets down.
        drained = service.shutdown(drain=True)
        server.server_close()
        if drained is not None:
            print(
                f"repro.serve stopped (drained in {drained:.2f}s)",
                flush=True,
            )
        else:
            print("repro.serve stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
