"""Per-process cache of the kernel's compiled generated code.

The simulator generates one Python source per design it builds: the
per-cycle function that inlines the compiled settle program (see
:mod:`repro.kernel.engine`) and the tick plans' sweeps (see
:mod:`repro.kernel.slots`).  That source *names* every per-design
value — slot ranges, component indices, plan objects, step callables —
instead of printing it, and each design binds those names in the
namespace the code runs with.  The text therefore depends only on the
design's shape, so designs that differ only in thread count, depth or
slot layout share one code object: a sweep compiles each shape once per
process instead of once per build.

Only the code object is shared.  Every design still generates its
source (the cache key) and runs the code in its own namespace, so the
functions it gets back are its own.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from types import CodeType
from typing import Any

#: Distinct generated sources kept compiled per process (LRU-evicted).
CACHE_SIZE = 256

# Per-thread tallies, so a build span on one worker thread counts only
# its own compiles even when several threads build at once.
_tally = threading.local()


@functools.lru_cache(maxsize=CACHE_SIZE)
def compile_source(source: str) -> CodeType:
    """The code object for generated *source* (compiled on first use)."""
    _tally.compiled = getattr(_tally, "compiled", 0) + 1
    return compile(source, "<repro-codegen>", "exec")


def exec_generated(source: str, namespace: dict[str, Any]) -> dict[str, Any]:
    """Run generated *source* in *namespace* (through the cache); return it."""
    start = perf_counter()
    _tally.runs = getattr(_tally, "runs", 0) + 1
    exec(compile_source(source), namespace)  # noqa: S102 - trusted codegen
    _tally.seconds = getattr(_tally, "seconds", 0.0) + perf_counter() - start
    return namespace


def codegen_counts() -> tuple[int, int]:
    """``(compiled, reused)`` code objects run by the calling thread so far.

    Callers take the difference of two readings to count one region of
    work (e.g. one design build).
    """
    compiled = getattr(_tally, "compiled", 0)
    return compiled, getattr(_tally, "runs", 0) - compiled


def codegen_seconds() -> float:
    """Wall seconds the calling thread has spent in :func:`exec_generated`
    (compile on a cache miss, plus exec) so far; difference two readings."""
    return getattr(_tally, "seconds", 0.0)
