"""The persisted result store: scenario-level memoization.

Campaign metrics are pure functions of the scenario (seeded stimulus,
cycle-identical engines, shard-invariant placement — the properties the
differential suites pin), so a finished scenario's row can be replayed
for any later identical submission instead of re-simulating it.  The
store maps :meth:`repro.sweep.spec.ScenarioSpec.result_key` — a SHA-256
over family, params, the full stimulus and metrics blocks, and the
derived seed — to the stored report row.

Only ``status == "ok"`` rows are stored: errors stay re-runnable.
Stored rows are stripped of placement metadata (shard, duration,
design-cache marker), so a dedup hit returns exactly the fields a fresh
run would have produced for the metrics comparison.

Persistence is an append-only JSONL file (one ``{"key": ..., "row":
...}`` object per line): crash-safe to append, trivially inspectable,
and loadable by streaming.  Crash-safety is taken seriously on the read
side too — a process killed mid-append leaves a truncated (or
garbage) trailing line, and :meth:`_load` skips such lines instead of
refusing the whole store (they are counted in ``corrupt_lines`` and
logged).  For long-lived deployments the store additionally supports:

* :meth:`compact` — rewrite the file from the in-memory view and
  atomically rename it into place, dropping corrupt lines and any
  duplicate keys the append-only history accumulated;
* ``max_entries`` — LRU eviction of the in-memory view (the JSONL
  history keeps evicted lines until the next :meth:`compact`);
* :meth:`flush` — an fsync barrier, used by the service's graceful
  drain so a SIGTERM never races the last append.

An in-memory store (``path=None``) gives a warm server memoization
without any filesystem footprint.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import threading
from typing import Any, Mapping

log = logging.getLogger(__name__)

#: Per-run placement/timing fields that must not survive into the store.
_VOLATILE_FIELDS = (
    "shard", "duration_s", "design_cache", "cached", "ensemble", "index",
    "profile", "attempts",
)


def strip_volatile(row: Mapping[str, Any]) -> dict[str, Any]:
    """Copy *row* without its per-run placement fields."""
    return {k: v for k, v in row.items() if k not in _VOLATILE_FIELDS}


class ResultStore:
    """Dedup store: canonical scenario key -> finished report row.

    Thread-safe; the service's dispatcher writes while HTTP threads
    read the hit/miss statistics.  With *max_entries*, the in-memory
    view is bounded LRU-style: lookups refresh an entry's recency and
    inserts evict the least recently used entry past the cap.
    """

    def __init__(
        self,
        path: str | pathlib.Path | None = None,
        max_entries: int | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._path = pathlib.Path(path) if path is not None else None
        self._rows: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Unparseable lines skipped by the last load (crash-truncated
        #: appends, partial writes); cleared by :meth:`compact`.
        self.corrupt_lines = 0
        #: Physical line count of the JSONL file (including corrupt and
        #: superseded-duplicate lines) — what :meth:`compact` shrinks.
        self._file_lines = 0
        #: True when the file ends mid-line (crash-truncated append).
        #: The next :meth:`put` must terminate that line first, or the
        #: new entry would be glued onto the partial one and lost.
        self._dangling_line = False
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        """Stream the JSONL file, tolerating corrupt/truncated lines.

        A crash mid-append leaves a final line that is truncated JSON
        (or garbage bytes); refusing to load would hold every earlier
        result hostage to the newest one.  Bad lines are skipped,
        counted and logged; duplicate keys keep the *last* occurrence
        (append order is chronological).
        """
        lines = corrupt = 0
        with self._path.open(encoding="utf-8", errors="replace") as fh:
            for line in fh:
                lines += 1
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                    row = entry["row"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    corrupt += 1
                    continue
                if not isinstance(key, str) or not isinstance(row, dict):
                    corrupt += 1
                    continue
                self._rows.pop(key, None)  # keep last-write recency order
                self._rows[key] = row
        self.corrupt_lines = corrupt
        self._file_lines = lines
        with self._path.open("rb") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                self._dangling_line = fh.read(1) != b"\n"
        if corrupt:
            log.warning(
                "result store %s: skipped %d corrupt line(s) "
                "(crash-truncated append?); compact() to drop them",
                self._path, corrupt,
            )
        self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        """Drop least-recently-used in-memory entries past the cap."""
        if self.max_entries is None:
            return
        while len(self._rows) > self.max_entries:
            oldest = next(iter(self._rows))
            del self._rows[oldest]
            self.evictions += 1

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up *key*, counting the hit or miss."""
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
            if self.max_entries is not None:  # refresh LRU recency
                self._rows[key] = self._rows.pop(key)
            return dict(row)

    def put(self, key: str, row: Mapping[str, Any]) -> bool:
        """Store a finished row under *key*; returns True when stored.

        Rows that are not ``status == "ok"`` (or keys already present)
        are ignored, so failures stay re-runnable and the append-only
        file never carries duplicates.
        """
        if row.get("status") != "ok":
            return False
        clean = strip_volatile(row)
        with self._lock:
            if key in self._rows:
                return False
            self._rows[key] = clean
            self._evict_over_cap()
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                with self._path.open("a", encoding="utf-8") as fh:
                    if self._dangling_line:
                        fh.write("\n")
                        self._dangling_line = False
                    fh.write(
                        json.dumps({"key": key, "row": clean}, default=str)
                        + "\n"
                    )
                self._file_lines += 1
        return True

    def flush(self) -> None:
        """fsync the JSONL file — a durability barrier for drains.

        Appends already go through close-on-write file handles, so this
        only forces the OS to push them to disk; a no-op for in-memory
        stores or when nothing was ever written.
        """
        with self._lock:
            if self._path is None or not self._path.exists():
                return
            with self._path.open("a", encoding="utf-8") as fh:
                fh.flush()
                os.fsync(fh.fileno())

    def compact(self) -> dict[str, Any]:
        """Rewrite the JSONL file from the in-memory view, atomically.

        Writes every live entry to a temp file next to the store, fsyncs
        it and ``os.replace``s it over the original — so a crash during
        compaction leaves either the old file or the new one, never a
        mix.  Dropped along the way: corrupt lines, duplicate keys, and
        lines for entries since evicted by ``max_entries``.  Returns a
        summary dict (``entries``, ``dropped_lines``, ``path``).
        """
        with self._lock:
            if self._path is None or not self._path.exists():
                return {
                    "entries": len(self._rows),
                    "dropped_lines": 0,
                    "path": str(self._path) if self._path else None,
                }
            tmp = self._path.with_name(self._path.name + ".compact.tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                for key, row in self._rows.items():
                    fh.write(
                        json.dumps({"key": key, "row": row}, default=str)
                        + "\n"
                    )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path)
            dropped = self._file_lines - len(self._rows)
            self._file_lines = len(self._rows)
            self.corrupt_lines = 0
            self._dangling_line = False
            return {
                "entries": len(self._rows),
                "dropped_lines": dropped,
                "path": str(self._path),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def stats(self) -> dict[str, Any]:
        """Hit/miss counters plus the current entry count."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._rows),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else None,
                "path": str(self._path) if self._path else None,
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "corrupt_lines": self.corrupt_lines,
                "file_lines": self._file_lines if self._path else None,
            }
