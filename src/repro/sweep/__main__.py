"""CLI for simulation campaigns: ``python -m repro.sweep <command>``.

A thin client of the jobs API (:mod:`repro.sweep.jobs`) — the same
entry point the HTTP service exposes, so CLI and service behaviour
cannot drift.  Commands:

* ``run <spec> [--workers N] [--engine E] [--out DIR] [--name BASE]
  [--store PATH] [--profile] [--follow]`` — submit a campaign spec
  (TOML on Python 3.11+, JSON everywhere) to an ephemeral service,
  wait, and write ``<BASE>.json`` + ``<BASE>.md`` reports.
  ``--store`` memoizes results across invocations (dedup by canonical
  scenario key); ``--profile`` attaches the kernel profiler and folds
  a hot-component summary into the markdown report; ``--follow``
  streams live per-scenario progress to stderr.
* ``validate <spec>`` — expand the spec, check every family is
  registered, and print the scenario list without running anything.
* ``families [--json]`` — list the registered design families; with
  ``--json``, emit the machine-readable registry payload (the same
  structure the service serves at ``/families``).

Exit codes are normalized across commands: **0** success, **1**
scenario failures (the campaign ran but at least one scenario did
not succeed), **2** spec or usage errors (nothing ran).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.kernel.engine import ENGINES
from repro.sweep.jobs import JobService
from repro.sweep.registry import get_family, registry_payload
from repro.sweep.report import write_report
from repro.sweep.spec import SpecError, load_spec

#: The normalized exit codes (documented above and in docs/service.md).
EXIT_OK = 0
EXIT_SCENARIO_FAILURES = 1
EXIT_SPEC_ERROR = 2


def _follow(service: JobService, job_id: str) -> None:
    """Print a live one-line progress display from the job's events.

    Consumes the same event stream ``GET /campaigns/<id>/events``
    serves; writes carriage-return progress to stderr so stdout stays
    machine-readable.
    """
    last_len = 0
    for event in service.events(job_id, timeout=300.0):
        if event.get("event") == "scenario":
            line = (
                f"[{event['completed']}/{event['total']}] "
                f"{event.get('status', '?'):8s} "
                f"{'(cached) ' if event.get('cached') else ''}"
                f"{event.get('key', '')}"
            )
        elif event.get("event") == "job":
            if event.get("state") == "running":
                continue
            line = f"job {job_id}: {event['state']}"
        elif event.get("event") == "watchdog":
            line = (
                f"watchdog: {event.get('reason', '?')} "
                f"(attempt {event.get('attempt', '?')}, "
                f"{'retrying' if event.get('retrying') else 'giving up'})"
            )
        elif event.get("event") == "retry":
            line = (
                f"retry: attempt {event.get('attempt', '?')} after "
                f"{event.get('reason', '?')}"
            )
        else:  # pragma: no cover - future event kinds
            continue
        pad = " " * max(0, last_len - len(line))
        print(f"\r{line}{pad}", end="", file=sys.stderr, flush=True)
        last_len = len(line)
    print(file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    workers = args.workers if args.workers is not None else spec.workers
    with JobService(
        workers=workers, engine=args.engine, store=args.store,
        ensemble=args.ensemble, profile=args.profile,
    ) as service:
        job_id = service.submit(
            spec, workers=workers, engine=args.engine,
            timeout_s=args.timeout_s, retries=args.retries,
        )
        if args.follow:
            _follow(service, job_id)
        report = service.result(job_id)
    json_path, md_path = write_report(report, args.out, args.name)
    summary = report["summary"]
    dedup = summary.get("dedup_hits", 0)
    cached = f", {dedup} from cache" if dedup else ""
    print(
        f"campaign {spec.name!r}: {summary['ok']}/{summary['scenarios']} "
        f"scenarios ok in {summary['elapsed_s']}s "
        f"({report['campaign']['workers']} worker(s){cached})"
    )
    print(f"wrote {json_path} and {md_path}")
    if summary["failed"]:
        for row in report["scenarios"]:
            if row.get("status") != "ok":
                print(
                    f"FAILED {row['key']}: {row['status']}",
                    file=sys.stderr,
                )
        return EXIT_SCENARIO_FAILURES
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    problems = 0
    for scenario in spec.scenarios:
        try:
            get_family(scenario.family)
            status = "ok"
        except KeyError as exc:
            status = f"ERROR: {exc}"
            problems += 1
        print(f"{scenario.key:50s} seed={scenario.seed} {status}")
    print(
        f"{len(spec.scenarios)} scenarios, "
        f"{len({s.design_key() for s in spec.scenarios})} distinct designs"
    )
    # Unresolvable families are a spec problem, not a scenario failure.
    return EXIT_SPEC_ERROR if problems else EXIT_OK


def _cmd_families(args: argparse.Namespace) -> int:
    payload = registry_payload()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    for name, info in payload["families"].items():
        reuse = "reusable" if info["reusable"] else "rebuilt per scenario"
        print(f"{name:12s} [{reuse}] {info['description']}")
        if info["params"]:
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(info["params"].items())
            )
            print(f"{'':12s} params: {defaults}")
        if info["stimulus_kinds"]:
            print(f"{'':12s} stimulus: {', '.join(info['stimulus_kinds'])}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Batch simulation campaigns over the elastic designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a campaign spec")
    p_run.add_argument("spec", help="path to a .toml or .json campaign spec")
    p_run.add_argument("--workers", type=int, default=None,
                       help="process count (default: spec's campaign.workers)")
    p_run.add_argument("--engine", default=None, choices=ENGINES,
                       help="settle engine override")
    p_run.add_argument("--out", default="sweep-results",
                       help="output directory (default: sweep-results)")
    p_run.add_argument("--name", default="campaign",
                       help="report basename (default: campaign)")
    p_run.add_argument("--store", default=None, metavar="PATH",
                       help="JSONL result store for cross-run dedup "
                            "(default: off)")
    p_run.add_argument("--ensemble", default="auto", metavar="K",
                       help="lockstep batching of control-identical "
                            "scenarios: auto, off, or a lane cap "
                            "(default: auto; reports are identical "
                            "either way)")
    p_run.add_argument("--profile", action="store_true",
                       help="attach the kernel profiler per scenario and "
                            "fold a hot-component/phase summary into the "
                            "markdown report (metrics are bit-identical "
                            "with or without)")
    p_run.add_argument("--follow", action="store_true",
                       help="stream per-scenario progress to stderr while "
                            "the campaign runs")
    p_run.add_argument("--timeout-s", type=float, default=None, metavar="S",
                       help="per-scenario deadline in seconds for this run "
                            "(overrides spec timeout_s values); a unit "
                            "past its deadline is killed and its rows "
                            "marked status=timeout (default: spec/derived)")
    p_run.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry budget for retryable scenario failures "
                            "(timeout, worker death); retried-then-ok "
                            "rows are bit-identical to first-try rows "
                            "(default: spec's campaign.retries, else 1)")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="expand and check a spec")
    p_val.add_argument("spec")
    p_val.set_defaults(fn=_cmd_validate)

    p_fam = sub.add_parser("families", help="list registered families")
    p_fam.add_argument("--json", action="store_true",
                       help="emit the registry as JSON (the /families "
                            "payload)")
    p_fam.set_defaults(fn=_cmd_families)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        # One rendering source: the CLI prints the same structured
        # {path, field, reason} diagnosis the HTTP 400 body carries.
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
