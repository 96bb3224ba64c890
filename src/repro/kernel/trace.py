"""Waveform capture and rendering.

:class:`TraceRecorder` samples a chosen set of signals after the settle
phase of every cycle and keeps the samples in memory.  Two renderers are
provided:

* :meth:`TraceRecorder.ascii_waveform` — compact per-signal timelines in
  the style of the paper's Fig. 2(b) and Fig. 5 channel tables, suitable
  for terminal output from the benchmark harness.
* :meth:`TraceRecorder.write_vcd` — a minimal Value Change Dump writer so
  captured runs can be inspected in any waveform viewer.
"""

from __future__ import annotations

import io
from typing import Any, Sequence

from repro.kernel.signal import Signal
from repro.kernel.simulator import Simulator
from repro.kernel.values import is_x, same_value


class TraceRecorder:
    """Records the value of selected signals every cycle.

    Attach to a simulator with :meth:`attach`; samples land in
    :attr:`samples` as ``{signal_name: value}`` dicts, one per cycle.
    """

    def __init__(self, signals: Sequence[Signal], labels: Sequence[str] | None = None):
        self.signals = list(signals)
        if labels is None:
            self.labels = [sig.name for sig in self.signals]
        else:
            if len(labels) != len(signals):
                raise ValueError("labels and signals must have equal length")
            self.labels = list(labels)
        self.samples: list[dict[str, Any]] = []
        self.cycles: list[int] = []

    def attach(self, sim: Simulator) -> "TraceRecorder":
        sim.add_observer(self._observe)
        return self

    def detach(self, sim: Simulator) -> "TraceRecorder":
        """Stop sampling: deregister this recorder's observer from *sim*.

        The inverse of :meth:`attach`.  Captured samples are kept.  A
        registered observer runs every cycle, so a bounded capture
        window should always end with a ``detach``.  Detaching a
        recorder that is not attached is a no-op.
        """
        sim.remove_observer(self._observe)
        return self

    def _observe(self, sim: Simulator) -> None:
        row = {
            label: sig.value for label, sig in zip(self.labels, self.signals)
        }
        self.samples.append(row)
        self.cycles.append(sim.cycle)

    def clear(self) -> None:
        self.samples.clear()
        self.cycles.clear()

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------
    def column(self, label: str) -> list[Any]:
        """All samples of one signal, in cycle order."""
        return [row[label] for row in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    @staticmethod
    def _cell(value: Any, width: int) -> str:
        if is_x(value):
            text = "."
        elif value is True:
            text = "1"
        elif value is False:
            text = "0"
        elif value is None:
            text = "-"
        else:
            text = str(value)
        if len(text) > width:
            text = text[: width - 1] + "~"
        return text.rjust(width)

    def ascii_waveform(self, cell_width: int = 4, max_cycles: int | None = None) -> str:
        """Render the trace as an ASCII table: one row per signal.

        ``X`` renders as ``.``, ``None`` as ``-``, booleans as 0/1; other
        values are stringified and clipped to the cell width.
        """
        n = len(self.samples) if max_cycles is None else min(max_cycles, len(self.samples))
        label_width = max((len(lbl) for lbl in self.labels), default=5)
        label_width = max(label_width, len("cycle"))
        out = io.StringIO()
        header = "cycle".ljust(label_width) + " |"
        for c in self.cycles[:n]:
            header += self._cell(c, cell_width)
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for label in self.labels:
            line = label.ljust(label_width) + " |"
            for row in self.samples[:n]:
                line += self._cell(row[label], cell_width)
            out.write(line + "\n")
        return out.getvalue()

    # ------------------------------------------------------------------
    # VCD export
    # ------------------------------------------------------------------
    @staticmethod
    def _vcd_ident(index: int) -> str:
        # Printable VCD identifier codes: ! through ~
        chars = []
        index += 1
        while index:
            index, rem = divmod(index - 1, 94)
            chars.append(chr(33 + rem))
        return "".join(reversed(chars))

    @staticmethod
    def _vcd_value(value: Any, width: int) -> str:
        if is_x(value):
            return "b" + "x" * width + " " if width > 1 else "x"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, int) and width > 1:
            if value < 0:
                value &= (1 << width) - 1
            return "b" + format(value, f"0{width}b") + " "
        if isinstance(value, int):
            return "1" if value else "0"
        # Non-integer payloads are dumped as a string literal signal.
        return "s" + str(value).replace(" ", "_") + " "

    def write_vcd(self, path: str, timescale: str = "1ns") -> None:
        """Write the captured samples as a minimal VCD file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("$date today $end\n")
            fh.write("$version repro TraceRecorder $end\n")
            fh.write(f"$timescale {timescale} $end\n")
            fh.write("$scope module trace $end\n")
            idents: list[str] = []
            for i, (sig, label) in enumerate(zip(self.signals, self.labels)):
                ident = self._vcd_ident(i)
                idents.append(ident)
                safe = label.replace(" ", "_")
                fh.write(f"$var wire {sig.width} {ident} {safe} $end\n")
            fh.write("$upscope $end\n$enddefinitions $end\n")
            previous: list[Any] = [object()] * len(self.signals)
            for cycle, row in zip(self.cycles, self.samples):
                fh.write(f"#{cycle}\n")
                for i, (sig, label) in enumerate(zip(self.signals, self.labels)):
                    value = row[label]
                    if not same_value(previous[i], value):
                        encoded = self._vcd_value(value, sig.width)
                        if encoded.startswith(("b", "s")):
                            fh.write(f"{encoded}{idents[i]}\n")
                        else:
                            fh.write(f"{encoded}{idents[i]}\n")
                        previous[i] = value


def trace_signals(
    sim: Simulator,
    signals: Sequence[Signal | str],
    labels: Sequence[str] | None = None,
) -> TraceRecorder:
    """Create a :class:`TraceRecorder` and attach it to *sim*.

    Entries in *signals* may be :class:`Signal` objects or full
    hierarchical names, which are resolved through the simulator's
    constant-time :meth:`~repro.kernel.simulator.Simulator.signal_by_name`
    index.
    """
    resolved = [
        sim.signal_by_name(sig) if isinstance(sig, str) else sig
        for sig in signals
    ]
    return TraceRecorder(resolved, labels=labels).attach(sim)
