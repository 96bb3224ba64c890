"""Protocol monitors and activity recorders for MT channels.

:class:`MTMonitor` enforces the structural invariant of the multithreaded
elastic protocol — at most one ``valid(i)`` per cycle — and records every
transfer with its thread, which the analysis layer turns into per-thread
throughput, channel utilization and the Fig.-5-style activity tables.

Unlike the single-thread monitor, *valid withdrawal* is legal here: the
MEB arbiter may present a different thread each cycle, so a stalled
``valid(i)`` may drop when the arbiter moves on.  What must still hold is
per-thread token conservation, which the recorded transfer streams let
tests assert end-to-end.

Rows are stored **columnar** — parallel per-field lists — so the
statistics helpers run as C-speed ``count``/``zip`` scans and the
compiled tick plan can bulk-replay idle stretches; the public
``activity``/``transfers`` attributes remain row-major views.
"""

from __future__ import annotations

from typing import Any

from repro.core.mtchannel import MTChannel, one_hot_thread
from repro.kernel.component import Component
from repro.kernel.slots import SeqPlan


class MTMonitor(Component):
    """Passive checker/recorder for one multithreaded channel."""

    #: Observes handshakes; data is only compared for stability (rows
    #: compare lane-wise through ``same_value``), never transformed.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        channel: MTChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.channel = channel
        self.threads = channel.threads
        # Registered observation state, columnar.
        self._cycle = 0
        self._next_cycle: int | None = None
        self._act_thread: list[int | None] = []
        self._act_data: list[Any] = []
        self._act_moved: list[bool] = []
        self._tr_cycle: list[int] = []
        self._tr_thread: list[int] = []
        self._tr_data: list[Any] = []

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def activity(self) -> list[tuple[int | None, Any, bool]]:
        """Per-cycle activity rows: (thread or None, data, transferred)."""
        return list(zip(self._act_thread, self._act_data, self._act_moved))

    @property
    def transfers(self) -> list[tuple[int, int, Any]]:
        """Transfer rows: (cycle, thread, data)."""
        return list(zip(self._tr_cycle, self._tr_thread, self._tr_data))

    def transfer_columns(self) -> tuple[list[int], list[int]]:
        """The raw (cycle, thread) transfer columns, ascending by cycle.

        Zero-copy views of the live recording for columnar consumers
        (:func:`repro.analysis.throughput.channel_stats` does one pass
        over these instead of re-materializing row tuples per thread);
        callers must not mutate them.
        """
        return self._tr_cycle, self._tr_thread

    @property
    def cycles_observed(self) -> int:
        return self._cycle

    def transfer_count(self, thread: int | None = None) -> int:
        if thread is None:
            return len(self._tr_cycle)
        return self._tr_thread.count(thread)

    def values_for(self, thread: int) -> list[Any]:
        return [
            d for t, d in zip(self._tr_thread, self._tr_data) if t == thread
        ]

    def transfer_cycles(self, thread: int) -> list[int]:
        return [
            c for c, t in zip(self._tr_cycle, self._tr_thread) if t == thread
        ]

    def throughput(self, thread: int | None = None) -> float:
        """Transfers per cycle, overall or for one thread."""
        if not self._cycle:
            return 0.0
        return self.transfer_count(thread) / self._cycle

    def throughput_window(
        self, start: int, end: int, thread: int | None = None
    ) -> float:
        """Transfers per cycle within ``[start, end)``."""
        if end <= start:
            return 0.0
        n = sum(
            1
            for c, t in zip(self._tr_cycle, self._tr_thread)
            if start <= c < end and (thread is None or t == thread)
        )
        return n / (end - start)

    def utilization(self) -> float:
        """Fraction of observed cycles in which any transfer happened."""
        if not self._cycle:
            return 0.0
        return len(self._tr_cycle) / self._cycle

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def capture(self) -> None:
        # active_thread() raises ProtocolError on a non-one-hot valid
        # vector, making this monitor the protocol assertion point.
        # One vector read serves both the assertion and the transfer
        # check (channel.valids() is a packed slot-slice once finalized).
        channel = self.channel
        active = channel.active_thread()
        if active is None:
            self._act_thread.append(None)
            self._act_data.append(None)
            self._act_moved.append(False)
        else:
            data = channel.data.value
            transferred = channel.ready[active].value
            self._act_thread.append(active)
            self._act_data.append(data)
            self._act_moved.append(transferred)
            if transferred:
                self._tr_cycle.append(self._cycle)
                self._tr_thread.append(active)
                self._tr_data.append(data)
        self._next_cycle = self._cycle + 1

    def compile_seq(self, seq):
        """Columnar tick plan: slice-read observation, bulk idle replay.

        The observation is a pure function of the watched channel slots,
        so an unchanged watch set means the previous row repeats — the
        ``repeat`` hook appends it once more (stamped with the current
        cycle for transfer rows).
        """
        cls = type(self)
        if (cls.capture is not MTMonitor.capture
                or cls.commit is not MTMonitor.commit):
            return None
        store = seq.store
        valid = store.range_of(self.channel.valid)
        ready = store.range_of(self.channel.ready)
        data_slot = store.slot_or_none(self.channel.data)
        if None in (valid, ready, data_slot):
            return None
        values = store.values
        vb, ve = valid
        rb = ready[0]
        ch_path = self.channel.path
        act_thread = self._act_thread
        act_data = self._act_data
        act_moved = self._act_moved
        tr_cycle = self._tr_cycle
        tr_thread = self._tr_thread
        tr_data = self._tr_data
        last: list[Any] = [None, None, False]

        def capture(cycle) -> None:
            active = one_hot_thread(values[vb:ve], ch_path)
            if active is None:
                act_thread.append(None)
                act_data.append(None)
                act_moved.append(False)
                last[0] = last[1] = None
                last[2] = False
            else:
                data = values[data_slot]
                moved = values[rb + active]
                act_thread.append(active)
                act_data.append(data)
                act_moved.append(moved)
                if moved:
                    tr_cycle.append(cycle)
                    tr_thread.append(active)
                    tr_data.append(data)
                last[0], last[1], last[2] = active, data, moved
            self._next_cycle = cycle + 1

        def repeat(cycle) -> None:
            active, data, moved = last
            act_thread.append(active)
            act_data.append(data)
            act_moved.append(moved)
            if moved:
                tr_cycle.append(cycle)
                tr_thread.append(active)
                tr_data.append(data)
            self._cycle += 1

        watch = (valid, ready, (data_slot, data_slot + 1))
        return SeqPlan(self, capture, self.commit, watch, repeat=repeat)

    def commit(self) -> bool:
        if self._next_cycle is not None:
            self._cycle = self._next_cycle
            self._next_cycle = None
        # Pure observer: nothing combinational depends on this state.
        return False

    def reset(self) -> None:
        self._cycle = 0
        self._next_cycle = None
        # In-place clears: the compiled tick plan's closures bind these
        # column lists at compile time, so the identities must persist.
        self._act_thread.clear()
        self._act_data.clear()
        self._act_moved.clear()
        self._tr_cycle.clear()
        self._tr_thread.clear()
        self._tr_data.clear()
