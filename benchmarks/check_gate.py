"""Regression gates: diff a fresh report against its committed baseline.

One table, :data:`GATES`, drives the three CI gates:

* ``kernel`` — the engine comparison (``bench_kernel_perf.py``) against
  ``BENCH_kernel.json``.  Raw cycles/sec are machine-dependent, so only
  the machine-portable speedup ratios are gated; raw cps, the ``_iqr``
  noise fields and the top-level ``rewind_us`` are context.
* ``sweep`` — ``examples/campaigns/paper_sweep.toml`` against
  ``BENCH_sweep.json``: per-scenario cycles, utilization and IPC.
* ``coverage`` — ``examples/campaigns/fuzz_campaign.toml`` against
  ``BENCH_coverage.json``: per-scenario coverage, new states, kept
  mutants and the 0/1 fault ``oracle_ok``, plus the summary coverage and
  fault-oracle pass rate (re-baseline recipe in docs/fuzzing.md).

Campaign metrics are deterministic, so there the tolerance only
separates deliberate re-baselining from accidental drift.  Every gate
applies the same rules: a metric regresses when it moves the wrong way
by more than ``BENCH_TOLERANCE`` (default 0.25) of its baseline value; a
baseline row missing or failed in the current report regresses, and so
does a gated metric that vanished from a current row; new rows are
listed but not gated; a baseline value of zero is skipped.

Usage::

    python benchmarks/check_gate.py {kernel,sweep,coverage} [baseline.json] [current.json]

Writes a markdown delta table to stdout, to the gate's delta file next
to the current report (a CI artifact even when the gate passes) and,
when ``GITHUB_STEP_SUMMARY`` is set, to the job summary.  Exits 0 when
nothing regressed, 1 when something did, 2 on a missing input or an
unknown gate.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import NamedTuple

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent


class Gate(NamedTuple):
    title: str
    baseline: pathlib.Path
    current: pathlib.Path
    #: Delta table file name, written next to the current report.
    delta: str
    #: Report key holding the rows: a ``name -> row`` mapping, or a list
    #: of scenarios of which the ``ok`` ones are keyed by ``key``.
    rows: str
    #: (dotted JSON path within a row, label, True when higher is better).
    metrics: tuple[tuple[str, str, bool], ...]
    #: The same, with paths from the report root; shown as row ``summary``.
    summary: tuple[tuple[str, str, bool], ...] = ()


GATES = {
    "kernel": Gate(
        "Benchmark regression gate",
        REPO_ROOT / "BENCH_kernel.json",
        HERE / "results" / "BENCH_kernel.json",
        "regression_delta.md",
        "workloads",
        (
            ("compiled_speedup", "compiled/naive", True),
            ("ensemble_speedup", "ensemble/serial", True),
            ("profile_overhead", "profile-off/plain", True),
        ),
    ),
    "sweep": Gate(
        "Campaign regression gate",
        REPO_ROOT / "BENCH_sweep.json",
        REPO_ROOT / "sweep-results" / "paper_sweep.json",
        "sweep_regression_delta.md",
        "scenarios",
        (
            ("metrics.cycles", "cycles", False),
            ("metrics.cycles_per_digest", "cyc/digest", False),
            ("metrics.utilization", "util", True),
            ("metrics.ipc", "ipc", True),
        ),
    ),
    "coverage": Gate(
        "Coverage regression gate",
        REPO_ROOT / "BENCH_coverage.json",
        REPO_ROOT / "fuzz-results" / "fuzz_campaign.json",
        "coverage_regression_delta.md",
        "scenarios",
        (
            ("metrics.coverage_pct", "cov %", True),
            ("metrics.new_states", "states", True),
            ("metrics.mutants_kept", "kept", True),
            ("metrics.oracle_ok", "oracle", True),
        ),
        (
            ("summary.coverage_pct", "summary cov %", True),
            ("summary.fault_oracles.pass_rate", "fault-oracle pass rate",
             True),
        ),
    ),
}


def tolerance() -> float:
    raw = os.environ.get("BENCH_TOLERANCE", "0.25")
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"invalid BENCH_TOLERANCE {raw!r} (want a float)")
    if not 0 <= value < 1:
        raise SystemExit(f"BENCH_TOLERANCE {value} out of range [0, 1)")
    return value


def _lookup(node, path: str):
    for part in path.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def _rows(report: dict, key: str) -> dict:
    rows = report.get(key) or {}
    if isinstance(rows, dict):
        return rows
    return {row["key"]: row for row in rows if row.get("status") == "ok"}


def _describe(report: dict) -> str:
    campaign = report.get("campaign", {}).get("name")
    if campaign is not None:
        return f"campaign `{campaign}`"
    return f"mode `{report.get('mode', '?')}` (py {report.get('python', '?')})"


def compare(gate: str, baseline: dict, current: dict, tol: float):
    """Return (markdown lines, regression messages) for gate *gate*."""
    spec = GATES[gate]
    noun = spec.rows.removesuffix("s")
    lines = [
        f"### {spec.title}",
        "",
        f"baseline {_describe(baseline)} vs current {_describe(current)}; "
        f"tolerance {tol:.0%}",
        "",
        f"| {noun} | metric | baseline | current | delta | status |",
        "|---|---|---|---|---|---|",
    ]
    regressions: list[str] = []

    def check(name: str, base_row: dict, cur_row: dict, metrics) -> None:
        for path, label, higher_better in metrics:
            base_val = _lookup(base_row, path)
            cur_val = _lookup(cur_row, path)
            if not isinstance(base_val, (int, float)):
                continue
            if not isinstance(cur_val, (int, float)):
                # A gated metric vanished (or changed shape): that is a
                # report regression, not a reason to skip the row.
                regressions.append(
                    f"{name}: gated metric {label!r} missing from the "
                    f"current report"
                )
                lines.append(
                    f"| `{name}` | {label} | {base_val:g} | — | — | "
                    f"❌ missing metric |"
                )
                continue
            if base_val == 0:
                continue  # a ratio over zero is meaningless; skip
            delta = (cur_val - base_val) / base_val
            if higher_better:
                ok = cur_val >= base_val * (1 - tol)
            else:
                ok = cur_val <= base_val * (1 + tol)
            status = "✅ ok" if ok else "❌ regressed"
            lines.append(
                f"| `{name}` | {label} | {base_val:g} | {cur_val:g} | "
                f"{delta:+.1%} | {status} |"
            )
            if not ok:
                direction = "dropped" if higher_better else "rose"
                regressions.append(
                    f"{name}: {label} {direction} {base_val:g} -> "
                    f"{cur_val:g} ({delta:+.1%}, tolerance {tol:.0%})"
                )

    check("summary", baseline, current, spec.summary)
    base_rows = _rows(baseline, spec.rows)
    cur_rows = _rows(current, spec.rows)
    for name, base_row in base_rows.items():
        cur_row = cur_rows.get(name)
        if cur_row is None:
            regressions.append(f"{name}: missing or failed in current report")
            lines.append(f"| `{name}` | — | — | — | — | ❌ missing |")
            continue
        check(name, base_row, cur_row, spec.metrics)
    for name in cur_rows:
        if name not in base_rows:
            lines.append(f"| `{name}` | — | new | — | — | ℹ not gated |")
    return lines, regressions


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in GATES:
        print(f"usage: check_gate.py {{{','.join(GATES)}}} "
              f"[baseline.json] [current.json]")
        return 2
    gate = argv[1]
    spec = GATES[gate]
    baseline_path = pathlib.Path(argv[2]) if len(argv) > 2 else spec.baseline
    current_path = pathlib.Path(argv[3]) if len(argv) > 3 else spec.current
    for path, what in ((baseline_path, "baseline"), (current_path, "current")):
        if not path.is_file():
            print(f"error: {what} report not found at {path}")
            return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = json.loads(current_path.read_text(encoding="utf-8"))
    lines, regressions = compare(gate, baseline, current, tolerance())
    if regressions:
        lines += ["", "**Regressions:**", ""]
        lines += [f"- {msg}" for msg in regressions]
    report = "\n".join(lines) + "\n"
    print(report)
    delta_path = current_path.parent / spec.delta
    try:
        delta_path.write_text(report, encoding="utf-8")
    except OSError as exc:  # the table is advisory; never fail on it
        print(f"warning: could not write {delta_path}: {exc}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(report)
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
