"""Campaign aggregation: one JSON structure, one markdown table.

:func:`aggregate` folds the runner's per-scenario rows together with
the campaign metadata into a single JSON-serializable report — the
artifact CI uploads and the regression-diffable record of a campaign.
:func:`render_markdown` turns the same structure into a human-readable
summary: campaign header, per-family tables of throughput/cost numbers,
and a failure section quoting each error.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import Any, Mapping, Sequence

from repro.sweep.spec import CampaignSpec


def aggregate(
    spec: CampaignSpec,
    rows: Sequence[Mapping[str, Any]],
    engine: str | None,
    workers: int,
    elapsed_s: float,
) -> dict[str, Any]:
    """Fold scenario rows into the campaign report structure."""
    ok = [r for r in rows if r.get("status") == "ok"]
    failed = [r for r in rows if r.get("status") != "ok"]
    families: dict[str, dict[str, Any]] = {}
    for row in rows:
        fam = families.setdefault(
            row["family"], {"scenarios": 0, "ok": 0, "failed": 0}
        )
        fam["scenarios"] += 1
        fam["ok" if row.get("status") == "ok" else "failed"] += 1
    summary: dict[str, Any] = {
        "scenarios": len(rows),
        "ok": len(ok),
        "failed": len(failed),
        "families": families,
        "elapsed_s": round(elapsed_s, 3),
    }
    cycles = [
        r["metrics"]["cycles"]
        for r in ok
        if isinstance(r.get("metrics", {}).get("cycles"), int)
    ]
    if cycles:
        summary["total_cycles"] = sum(cycles)
    # Coverage-bearing rows (the fuzz family) fold into campaign-level
    # coverage; fault-oracle rows fold into a pass rate.  Both are
    # deterministic functions of the rows, so they survive the
    # canonical-report comparison and gate in CI like throughput.
    covered = [
        r["metrics"]
        for r in ok
        if isinstance(r.get("metrics", {}).get("coverage_pct"), (int, float))
    ]
    if covered:
        summary["coverage_pct"] = round(
            sum(m["coverage_pct"] for m in covered) / len(covered), 4
        )
        summary["new_states"] = sum(
            int(m.get("new_states", 0)) for m in covered
        )
    oracles = [
        r["metrics"] for r in ok if "oracle_ok" in r.get("metrics", {})
    ]
    if oracles:
        passed = sum(1 for m in oracles if m["oracle_ok"])
        summary["faults_survived"] = sum(
            int(m.get("faults_survived", 0)) for m in oracles
        )
        summary["fault_oracles"] = {
            "scenarios": len(oracles),
            "passed": passed,
            "pass_rate": round(passed / len(oracles), 4),
        }
    return {
        "campaign": {
            "name": spec.name,
            "seed": spec.seed,
            "engine": engine,
            "workers": workers,
        },
        "summary": summary,
        "scenarios": list(rows),
    }


#: Report fields that legitimately differ between two runs of the same
#: campaign: wall-clock timings, worker placement, cache provenance,
#: retry counts and profiler attachments (all timing, no metrics).
_VOLATILE_SUMMARY = ("elapsed_s", "dedup_hits")
_VOLATILE_ROW = (
    "shard", "duration_s", "design_cache", "cached", "ensemble", "profile",
    "attempts",
)


def canonical_report(report: Mapping[str, Any]) -> dict[str, Any]:
    """Strip a campaign report down to its run-invariant content.

    Two runs of the same spec — CLI vs HTTP, serial vs sharded, cold
    vs memoized — must produce *equal* canonical reports; this is the
    single definition of "identical modulo timestamps/placement" that
    the parity tests and the CI smoke job compare.
    """
    campaign = {
        k: v for k, v in report["campaign"].items() if k != "workers"
    }
    summary = {
        k: v
        for k, v in report["summary"].items()
        if k not in _VOLATILE_SUMMARY
    }
    scenarios = [
        {k: v for k, v in row.items() if k not in _VOLATILE_ROW}
        for row in report["scenarios"]
    ]
    return {"campaign": campaign, "summary": summary, "scenarios": scenarios}


_THROUGHPUT_COLS = (
    ("cycles", "cycles"),
    ("transfers", "transfers"),
    ("utilization", "util"),
    ("fairness", "fairness"),
    ("cycles_per_digest", "cyc/digest"),
    ("ipc", "ipc"),
    ("retired", "retired"),
    ("coverage_pct", "cov %"),
    ("baseline_coverage_pct", "grid cov %"),
    ("new_states", "states"),
    ("mutants_kept", "kept"),
    ("outcome", "outcome"),
    ("oracle_ok", "oracle"),
    ("faults_survived", "survived"),
    ("area_le", "area LE"),
    ("fmax_mhz", "fmax MHz"),
)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render an aggregated campaign report as GitHub-flavored markdown."""
    campaign = report["campaign"]
    summary = report["summary"]
    out = io.StringIO()
    out.write(f"# Campaign `{campaign['name']}`\n\n")
    out.write(
        f"seed {campaign['seed']} · engine "
        f"`{campaign['engine'] or 'default'}` · {campaign['workers']} "
        f"worker(s) · {summary['scenarios']} scenarios "
        f"({summary['ok']} ok, {summary['failed']} failed) · "
        f"{summary['elapsed_s']}s\n\n"
    )
    by_family: dict[str, list[Mapping[str, Any]]] = {}
    for row in report["scenarios"]:
        by_family.setdefault(row["family"], []).append(row)
    for family, rows in by_family.items():
        ok_rows = [r for r in rows if r.get("status") == "ok"]
        out.write(f"## {family}\n\n")
        if not ok_rows:
            out.write("(no successful scenarios)\n\n")
            continue
        cols = [
            (key, label)
            for key, label in _THROUGHPUT_COLS
            if any(key in r["metrics"] for r in ok_rows)
        ]
        out.write(
            "| scenario | " + " | ".join(label for _k, label in cols)
            + " |\n"
        )
        out.write("|---" * (len(cols) + 1) + "|\n")
        for row in ok_rows:
            metrics = row["metrics"]
            cells = [
                _fmt(metrics[key]) if key in metrics else ""
                for key, _label in cols
            ]
            out.write(f"| `{row['key']}` | " + " | ".join(cells) + " |\n")
        out.write("\n")
    if summary["failed"]:
        out.write("## Failures\n\n")
        for row in report["scenarios"]:
            if row.get("status") != "ok":
                out.write(
                    f"* `{row['key']}` — {row['status']}\n\n```\n"
                    f"{row.get('error', '').strip()}\n```\n\n"
                )
    profile = _render_profile(report["scenarios"])
    if profile:
        out.write(profile)
    return out.getvalue()


#: Rows in the aggregated markdown hot list (per-scenario reports carry
#: up to :data:`repro.sweep.runner.PROFILE_TOP` components each).
_PROFILE_TOP = 10


def _render_profile(rows: Sequence[Mapping[str, Any]]) -> str:
    """Markdown profile section folded across every profiled row.

    Returns "" when no row carries a ``"profile"`` dict (the campaign
    ran without ``--profile``).  Component times are summed across
    scenarios — the question the hot list answers is "where did this
    campaign's wall time go", not "which scenario was slow" (that is
    the per-row ``duration_s``).
    """
    profiled = [r for r in rows if isinstance(r.get("profile"), Mapping)]
    if not profiled:
        return ""
    comp: dict[str, list] = {}
    cycles_total = 0
    phase_s: dict[str, float] = {}
    for row in profiled:
        prof = row["profile"]
        cycles_total += int(prof.get("cycles", {}).get("total", 0))
        for name, cell in prof.get("phases", {}).items():
            phase_s[name] = phase_s.get(name, 0.0) + float(
                cell.get("time_s", 0.0)
            )
        for entry in prof.get("components", ()):
            cell = comp.setdefault(entry["path"], [0.0, 0.0, 0])
            cell[0] += float(entry.get("settle_s", 0.0))
            cell[1] += float(entry.get("tick_s", 0.0))
            cell[2] += int(entry.get("settle_calls", 0))
    out = io.StringIO()
    out.write("## Profile\n\n")
    phases = " · ".join(
        f"{name} {seconds:.3f}s" for name, seconds in sorted(phase_s.items())
    )
    out.write(
        f"{len(profiled)} profiled scenario(s) · {cycles_total} cycles · "
        f"{phases}\n\n"
    )
    out.write("| component | settle s | tick s | total s | settle calls |\n")
    out.write("|---|---|---|---|---|\n")
    hot = sorted(
        comp.items(), key=lambda kv: -(kv[1][0] + kv[1][1])
    )[:_PROFILE_TOP]
    for path, (settle_s, tick_s, calls) in hot:
        out.write(
            f"| `{path}` | {settle_s:.4f} | {tick_s:.4f} | "
            f"{settle_s + tick_s:.4f} | {calls} |\n"
        )
    out.write("\n")
    return out.getvalue()


def write_report(
    report: Mapping[str, Any],
    out_dir: str | pathlib.Path,
    basename: str = "campaign",
) -> tuple[pathlib.Path, pathlib.Path]:
    """Write ``<basename>.json`` and ``<basename>.md`` under *out_dir*."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{basename}.json"
    md_path = out_dir / f"{basename}.md"
    json_path.write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8"
    )
    md_path.write_text(render_markdown(report), encoding="utf-8")
    return json_path, md_path
