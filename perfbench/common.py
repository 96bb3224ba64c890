"""Shared helpers: percentiles, digests, memory, and the output-check tally."""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import pathlib
import resource
import statistics
import time
from typing import Any, Iterable

#: Root of the checkout this benchmark runs from (``perfbench/..``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where traced runs write their span files and ledgers (git-ignored).
RESULTS_DIR = ROOT / "perfbench" / "results"


def percentile(values: Iterable[float], q: int) -> float:
    """The *q*-th percentile (1..99), interpolated between order statistics."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form of *value*."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def digest48(hexdigest: str) -> int:
    """The first 48 bits of a hex digest: exact as a JSON number."""
    return int(hexdigest[:12], 16)


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest child process reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclasses.dataclass
class Checks:
    """Tally of output checks; the first failure messages are kept for the log.

    ``record`` counts one checked item (a simulation, a scenario, a
    request) toward ``ok_ratio``.  ``fail_run`` marks a whole-run check
    that failed (a non-deterministic repeat, a broken ledger) without
    being one of the counted items.
    """

    attempted: int = 0
    ok: int = 0
    run_failed: bool = False
    failures: list[str] = dataclasses.field(default_factory=list)

    def record(self, passed: bool, what: str) -> bool:
        self.attempted += 1
        if passed:
            self.ok += 1
        else:
            self._note(what)
        return passed

    def fail_run(self, what: str) -> None:
        self.run_failed = True
        self._note(what)

    def _note(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.run_failed

    @property
    def ok_ratio(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0


#: Iterations of the calibration loop: about 15 ms of interpreter work.
CALIBRATION_ITERATIONS = 60_000
#: Longest gap between two calibration samples in the timed region.
CALIBRATION_INTERVAL_S = 0.5
#: The calibration loop's time on the reference host, a 2-vCPU VM running
#: CPython 3.11.  Normalized timings read as if the host ran at that speed.
CALIBRATION_REFERENCE_S = 0.015


def calibration_loop() -> int:
    """A fixed piece of pure-Python work that calls nothing in the program.

    Integer arithmetic and list indexing only: it allocates no objects
    the garbage collector tracks, so the program's heap does not change
    its cost.
    """
    table = list(range(256))
    x = 1
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 1103515245 + i) & 0xFFFF
        table[i & 255] = x
        if x & 3 == 0:
            x ^= table[(i * 7) & 255]
    return x


class HostClock:
    """Host speed, sampled by the calibration loop between measured passes.

    The host this benchmark was written on changes speed by tens of
    percent within a minute (CPU time moves with wall time, so the cause
    is the host, not scheduling), far more than the changes the
    benchmark should resolve.  Timing a fixed
    calibration loop between passes and dividing each pass's timings by
    the host's *slowdown* around it — the calibration time just before
    and just after the pass, over the loop's reference time — cancels
    that drift: on a host running at half speed a pass takes twice as
    long, and so does the loop.  The loop never calls the program, so a
    faster program still reads faster.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.samples: list[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - t0)

    def tick(self) -> None:
        """Calibrate if the last sample is older than the interval."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    @property
    def mean_slowdown(self) -> float:
        return statistics.fmean(self.samples) / CALIBRATION_REFERENCE_S

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown around ``[start, end]``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        near = [self.samples[i] for i in (before, after) if 0 <= i < len(self.samples)]
        return statistics.fmean(near) / CALIBRATION_REFERENCE_S
