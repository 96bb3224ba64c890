"""Benchmark regression gate: compare a fresh run against the baseline.

CI reruns the engine comparison (``bench_kernel_perf.py``) and then
calls this script to diff the fresh ``benchmarks/results/BENCH_kernel.json``
against the committed repo-root ``BENCH_kernel.json`` baseline.  Raw
cycles-per-second numbers are machine-dependent, so the gate compares
the machine-portable *speedup ratios* — ``compiled_speedup`` (compiled
vs naive) first among them — per workload: a
workload regresses when a ratio drops more than ``BENCH_TOLERANCE``
(default 0.25, i.e. >25%) below the baseline.

Usage::

    python benchmarks/check_regression.py [baseline.json] [current.json]

Writes a markdown delta table to stdout, to
``benchmarks/results/regression_delta.md`` (uploaded as a CI artifact
even when the gate passes) and, when the ``GITHUB_STEP_SUMMARY``
environment variable is set (as in GitHub Actions), appends the same
table to the job summary.  Exits non-zero if any workload regressed.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_CURRENT = (
    pathlib.Path(__file__).resolve().parent / "results" / "BENCH_kernel.json"
)

#: The speedup ratios the gate guards, and their display names.
#: `ensemble_speedup` (batched vs serial scenarios/sec) only exists on
#: the ensemble-capable mt_* workloads; `profile_overhead` (cps after a
#: profiler attach/detach round trip vs plain, nominally 1.0) only on
#: mt_pipeline; others show "no data".
RATIOS = (
    ("compiled_speedup", "compiled/naive"),
    ("ensemble_speedup", "ensemble/serial"),
    ("profile_overhead", "profile-off/plain"),
)


def tolerance() -> float:
    raw = os.environ.get("BENCH_TOLERANCE", "0.25")
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"invalid BENCH_TOLERANCE {raw!r} (want a float)")
    if not 0 <= value < 1:
        raise SystemExit(f"BENCH_TOLERANCE {value} out of range [0, 1)")
    return value


def compare(baseline: dict, current: dict, tol: float):
    """Return (markdown lines, regression messages)."""
    lines = [
        "### Benchmark regression gate",
        "",
        f"baseline mode `{baseline.get('mode', '?')}` "
        f"(py {baseline.get('python', '?')}) vs current mode "
        f"`{current.get('mode', '?')}` (py {current.get('python', '?')}); "
        f"tolerance {tol:.0%}",
        "",
        "| workload | ratio | baseline | current | delta | status |",
        "|---|---|---|---|---|---|",
    ]
    regressions: list[str] = []
    base_workloads = baseline.get("workloads", {})
    cur_workloads = current.get("workloads", {})
    for name, base_row in base_workloads.items():
        cur_row = cur_workloads.get(name)
        if cur_row is None:
            regressions.append(f"{name}: missing from current results")
            lines.append(f"| {name} | — | — | — | — | ❌ missing |")
            continue
        for key, label in RATIOS:
            base_ratio = base_row.get(key)
            cur_ratio = cur_row.get(key)
            if base_ratio is None or cur_ratio is None:
                lines.append(
                    f"| {name} | {label} | — | — | — | ⏭ no data |"
                )
                continue
            delta = (cur_ratio - base_ratio) / base_ratio
            ok = cur_ratio >= base_ratio * (1 - tol)
            status = "✅ ok" if ok else "❌ regressed"
            lines.append(
                f"| {name} | {label} | {base_ratio:.2f}x | "
                f"{cur_ratio:.2f}x | {delta:+.0%} | {status} |"
            )
            if not ok:
                regressions.append(
                    f"{name}: {label} {base_ratio:.2f}x -> "
                    f"{cur_ratio:.2f}x ({delta:+.0%}, tolerance -{tol:.0%})"
                )
    for name in cur_workloads:
        if name not in base_workloads:
            lines.append(f"| {name} | — | new | — | — | ℹ not gated |")
    return lines, regressions


def main(argv: list[str]) -> int:
    baseline_path = pathlib.Path(argv[1]) if len(argv) > 1 else DEFAULT_BASELINE
    current_path = pathlib.Path(argv[2]) if len(argv) > 2 else DEFAULT_CURRENT
    for path, what in ((baseline_path, "baseline"), (current_path, "current")):
        if not path.is_file():
            print(f"error: {what} results not found at {path}")
            return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = json.loads(current_path.read_text(encoding="utf-8"))
    lines, regressions = compare(baseline, current, tolerance())
    if regressions:
        lines += ["", "**Regressions:**", ""]
        lines += [f"- {msg}" for msg in regressions]
    report = "\n".join(lines) + "\n"
    print(report)
    delta_path = current_path.parent / "regression_delta.md"
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
