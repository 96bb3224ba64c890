"""Per-process cache of the kernel's compiled generated code.

The compiled settle engine (fused straight-line regions, see
:mod:`repro.kernel.engine`) and the seq store (the fused tick driver,
see :mod:`repro.kernel.slots`) generate Python source for every design
they build.  That source *names* every per-design value — slot ranges,
component indices, plan objects, step callables — instead of printing
it, and each design binds those names in the namespace (or factory
arguments) the code runs with.  The text therefore depends only on the
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
    _tally.runs = getattr(_tally, "runs", 0) + 1
    exec(compile_source(source), namespace)  # noqa: S102 - trusted codegen
    return namespace


def codegen_counts() -> tuple[int, int]:
    """``(compiled, reused)`` code objects run by the calling thread so far.

    Callers take the difference of two readings to count one region of
    work (e.g. one design build).
    """
    compiled = getattr(_tally, "compiled", 0)
    return compiled, getattr(_tally, "runs", 0) - compiled
