"""TraceRecorder: VCD round-trip fidelity and observer detach.

The round-trip test parses the emitted Value Change Dump back with a
minimal reader and reconstructs per-cycle values under VCD semantics
(a signal's value carries forward until the next change record), then
compares against the recorder's own samples — so the writer's
change-only encoding, identifier codes and width handling are all
checked against ground truth, not just against "the file has headers".
"""

from __future__ import annotations

import pytest

from repro.core import FullMEB
from repro.kernel import Component, Simulator, X, is_x
from repro.kernel.trace import TraceRecorder, trace_signals
from repro.sweep.families import make_mt_bursty


class Toggler(Component):
    """1-bit toggle plus an 8-bit counter plus an occasionally-X lane."""

    def __init__(self, name):
        super().__init__(name)
        self.bit = self.output("bit", width=1, init=False)
        self.count = self.output("count", width=8, init=0)
        self.weird = self.output("weird", width=4, init=X)
        self._n = 0
        self._next = None

    def combinational(self):
        self.bit.set(bool(self._n % 2))
        self.count.set(self._n)
        # X on every third cycle: exercises the x-encoding path.
        self.weird.set(X if self._n % 3 == 0 else self._n % 16)

    def capture(self):
        self._next = self._n + 1

    def commit(self):
        self._n = self._next

    def reset(self):
        self._n = 0
        self._next = None


def parse_vcd(text: str):
    """Minimal VCD reader: returns (vars, changes).

    ``vars`` maps identifier code -> (name, width); ``changes`` is a
    list of (cycle, {code: raw_value}) in file order where raw_value is
    ``True``/``False`` for scalars, an int for vectors, the string for
    string literals and ``"x"`` for unknowns.
    """
    vars: dict[str, tuple[str, int]] = {}
    changes: list[tuple[int, dict]] = []
    current: dict | None = None
    cycle = None
    in_defs = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if in_defs:
            if line.startswith("$var"):
                parts = line.split()
                # $var wire <width> <code> <name> $end
                vars[parts[3]] = (parts[4], int(parts[2]))
            if line.startswith("$enddefinitions"):
                in_defs = False
            continue
        if line.startswith("#"):
            if current is not None:
                changes.append((cycle, current))
            cycle = int(line[1:])
            current = {}
            continue
        assert current is not None, "value change before first timestamp"
        if line[0] in "01":
            value, code = line[0] == "1", line[1:]
        elif line[0] in "xX":
            value, code = "x", line[1:]
        elif line[0] == "b":
            bits, code = line[1:].split()
            value = "x" if set(bits) <= {"x"} else int(bits, 2)
        elif line[0] == "s":
            value, code = line[1:].split()
        else:  # pragma: no cover - unknown record
            raise AssertionError(f"unhandled VCD record {line!r}")
        current[code] = value
    if current is not None:
        changes.append((cycle, current))
    return vars, changes


def reconstruct(vars, changes):
    """Apply carry-forward semantics: per-cycle {name: value} rows."""
    state: dict[str, object] = {}
    rows = []
    cycles = []
    for cycle, delta in changes:
        for code, value in delta.items():
            state[vars[code][0]] = value
        rows.append(dict(state))
        cycles.append(cycle)
    return cycles, rows


def _normalize(value, width):
    """A recorder sample in the representation parse_vcd returns."""
    if is_x(value):
        return "x"
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if width == 1:
            return bool(value)
        return value & ((1 << width) - 1) if value < 0 else value
    return str(value).replace(" ", "_")


class TestVcdRoundTrip:
    def test_round_trip_matches_samples(self, tmp_path):
        sim = Simulator()
        tog = Toggler("tog")
        sim.add(tog)
        sim.reset()
        rec = trace_signals(
            sim, [tog.bit, tog.count, tog.weird],
            labels=["bit", "count", "weird"],
        )
        sim.run(cycles=10)
        path = tmp_path / "dump.vcd"
        rec.write_vcd(str(path))

        vars, changes = parse_vcd(path.read_text(encoding="utf-8"))
        assert {name for name, _w in vars.values()} == {
            "bit", "count", "weird",
        }
        widths = {name: w for name, w in vars.values()}
        assert widths["bit"] == 1 and widths["count"] == 8

        cycles, rows = reconstruct(vars, changes)
        assert cycles == rec.cycles
        assert len(rows) == len(rec.samples)
        for row, sample in zip(rows, rec.samples):
            for label in ("bit", "count", "weird"):
                expect = _normalize(sample[label], widths[label])
                assert row[label] == expect, (
                    f"{label}: VCD replays {row[label]!r}, "
                    f"recorder sampled {sample[label]!r}"
                )

    def test_change_only_encoding(self, tmp_path):
        """A constant signal appears once, not once per cycle."""
        sim = Simulator()
        tog = Toggler("tog")
        sim.add(tog)
        sim.reset()
        rec = trace_signals(sim, [tog.bit], labels=["bit"])
        sim.run(cycles=8)
        path = tmp_path / "dump.vcd"
        rec.write_vcd(str(path))
        vars, changes = parse_vcd(path.read_text(encoding="utf-8"))
        # bit toggles every cycle here, so every timestamp has a change;
        # now a constant:
        sim2 = Simulator()
        tog2 = Toggler("t2")
        sim2.add(tog2)
        sim2.reset()
        rec2 = trace_signals(sim2, [tog2.count], labels=["count"])
        # count is 0 on every settled cycle 0; run a single cycle window
        sim2.run(cycles=1)
        rec2.write_vcd(str(path))
        _vars2, changes2 = parse_vcd(path.read_text(encoding="utf-8"))
        total_changes = sum(len(delta) for _c, delta in changes2)
        assert total_changes == 1

    def test_label_spaces_sanitized(self, tmp_path):
        sim = Simulator()
        tog = Toggler("tog")
        sim.add(tog)
        sim.reset()
        rec = TraceRecorder([tog.count], labels=["my count"]).attach(sim)
        sim.run(cycles=2)
        path = tmp_path / "dump.vcd"
        rec.write_vcd(str(path))
        vars, _changes = parse_vcd(path.read_text(encoding="utf-8"))
        assert [name for name, _w in vars.values()] == ["my_count"]


class TestDetach:
    def test_detach_stops_sampling(self):
        sim = Simulator()
        tog = Toggler("tog")
        sim.add(tog)
        sim.reset()
        rec = trace_signals(sim, [tog.count], labels=["count"])
        sim.run(cycles=3)
        assert len(rec) == 3
        rec.detach(sim)
        sim.run(cycles=4)
        assert len(rec) == 3, "recorder kept sampling after detach"

    def test_detach_removes_observer(self):
        """Detaching removes the recorder's observer; the run completes."""
        sim, src, sink, _mebs, _mons = make_mt_bursty(
            FullMEB, threads=2, n_stages=2, engine="compiled",
        )
        rec = TraceRecorder([sim.signals[0]]).attach(sim)
        assert sim._observers, "attach should register an observer"
        rec.detach(sim)
        assert not sim._observers, "observer still registered after detach"
        for t in range(2):
            for i in range(3):
                src.push(t, (t << 8) | i)
        sim.run(cycles=300)
        assert sink.count == 6

    def test_detach_unattached_is_noop(self):
        sim = Simulator()
        tog = Toggler("tog")
        sim.add(tog)
        sim.reset()
        rec = TraceRecorder([tog.count])
        rec.detach(sim)  # never attached: must not raise
        sim.run(cycles=1)
        assert len(rec) == 0

    def test_reattach_after_detach(self):
        sim = Simulator()
        tog = Toggler("tog")
        sim.add(tog)
        sim.reset()
        rec = trace_signals(sim, [tog.count], labels=["count"])
        sim.run(cycles=2)
        rec.detach(sim)
        sim.run(cycles=2)
        rec.attach(sim)
        sim.run(cycles=2)
        assert len(rec) == 4
        assert rec.cycles == [0, 1, 4, 5]
