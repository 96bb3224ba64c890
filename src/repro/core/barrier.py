"""Thread synchronization barrier (paper §IV-C, Fig. 8).

The barrier sits on a multithreaded elastic channel and blocks the data
flow until every participating thread has *arrived* (presented valid
data).  Implementation mirrors the paper's Fig. 8:

* a per-thread FSM with states IDLE → WAIT → FREE,
* a counter of arrived threads, compared against the participant count,
* a global ``go`` flag that flips when the last thread arrives; threads
  whose local ``lgo`` snapshot differs from ``go`` move to FREE.

While a thread is IDLE or WAIT the barrier keeps its ``ready`` low, so the
waiting data items stay parked in the upstream MEB; arrival is detected
from ``valid`` alone, which is why the upstream MEB must keep presenting
waiting threads (the fallback grant policy with rotate-on-stall, see
:mod:`repro.core.arbiter`).  Once FREE, a thread's handshake passes
through transparently until its transfer completes, returning it to IDLE
"waiting for the barrier to re-open".
"""

from __future__ import annotations

import math
from operator import and_
from typing import Callable, Sequence

from repro.core.mtchannel import MTChannel
from repro.kernel.component import Component
from repro.kernel.errors import SimulationError
from repro.kernel.slots import SeqPlan
from repro.kernel.values import same_value

IDLE = "IDLE"
WAIT = "WAIT"
FREE = "FREE"


class Barrier(Component):
    """MT-elastic barrier: releases all participants together.

    Parameters
    ----------
    participants:
        Thread indices that take part in the synchronization.  Defaults to
        all threads of the channel.  Non-participating threads pass
        through unsynchronized.
    on_release:
        Optional callback invoked (during commit) every time the barrier
        opens — the MD5 circuit uses it to advance its global round
        counter, the paper's "allowing the round counter to be
        incremented".
    """

    def __init__(
        self,
        name: str,
        up: MTChannel,
        down: MTChannel,
        participants: Sequence[int] | None = None,
        on_release: Callable[[int], None] | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if up.threads != down.threads:
            raise SimulationError(
                f"{name}: thread-count mismatch {up.threads} vs {down.threads}"
            )
        self.threads = up.threads
        self.up = up
        self.down = down
        if participants is None:
            participants = list(range(self.threads))
        self.participants = sorted(set(participants))
        if not self.participants:
            raise ValueError("barrier needs at least one participant")
        for t in self.participants:
            if not 0 <= t < self.threads:
                raise ValueError(f"participant {t} out of range")
        self.limit = len(self.participants)
        self._on_release = on_release
        up.connect_consumer(self)
        down.connect_producer(self)
        self.declare_reads(up.valid, up.data, down.ready)
        # Registered state, slot-backed: [fsm×S][count][go] (private
        # until compile_seq re-homes the block into the SeqStore); the
        # release counter is a pure statistic and stays a plain attribute.
        self._sstore: list = [IDLE] * self.threads + [0, False]
        self._sq = 0
        self._releases = 0
        self._next: tuple[list[str], int, bool] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def _fsm(self) -> list[str]:
        b = self._sq
        return self._sstore[b:b + self.threads]

    @_fsm.setter
    def _fsm(self, fsm: list[str]) -> None:
        b = self._sq
        self._sstore[b:b + self.threads] = fsm

    @property
    def _count(self) -> int:
        return self._sstore[self._sq + self.threads]

    @_count.setter
    def _count(self, count: int) -> None:
        self._sstore[self._sq + self.threads] = count

    @property
    def _go(self) -> bool:
        return self._sstore[self._sq + self.threads + 1]

    @_go.setter
    def _go(self, go: bool) -> None:
        self._sstore[self._sq + self.threads + 1] = go

    def thread_state(self, thread: int) -> str:
        return self._sstore[self._sq + thread]

    @property
    def count(self) -> int:
        """Number of participants currently waiting at the barrier."""
        return self._count

    @property
    def go(self) -> bool:
        """The global go flag (flips on every release, paper Fig. 8)."""
        return self._go

    @property
    def releases(self) -> int:
        """How many times the barrier has opened since reset."""
        return self._releases

    def is_open_for(self, thread: int) -> bool:
        return (
            thread not in self.participants
            or self._sstore[self._sq + thread] == FREE
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def combinational(self) -> None:
        for t in range(self.threads):
            passing = self.is_open_for(t)
            vin = self.up.valid[t].value
            rin = self.down.ready[t].value
            self.down.valid[t].set(vin and passing)
            self.up.ready[t].set(rin and passing)
        self.down.data.set(self.up.data.value)

    def compile_comb(self, store):
        """Slot-compiled gating: per-thread pass masks ANDed as slices."""
        if type(self).combinational is not Barrier.combinational:
            return None
        up_valid = store.range_of(self.up.valid)
        up_ready = store.range_of(self.up.ready)
        down_valid = store.range_of(self.down.valid)
        down_ready = store.range_of(self.down.ready)
        up_data = store.slot_or_none(self.up.data)
        down_data = store.slot_or_none(self.down.data)
        if None in (up_valid, up_ready, down_valid, down_ready,
                    up_data, down_data):
            return None
        values = store.values
        dirty = store.dirty
        valid_readers = store.readers_of(self.down.valid)
        ready_readers = store.readers_of(self.up.ready)
        data_readers = store.readers_of((self.down.data,))
        uvb, uve = up_valid
        urb, ure = up_ready
        dvb, dve = down_valid
        drb, dre = down_ready
        participants = frozenset(self.participants)
        everyone = len(participants) == self.threads
        rng = range(self.threads)
        falses = [False] * self.threads
        sstore = self._sstore
        fb = self._sq
        fe = fb + self.threads

        def step() -> bool:
            fsm = sstore[fb:fe]
            in_valid = values[uvb:uve]
            in_ready = values[drb:dre]
            if everyone and FREE not in fsm:
                # Closed for every thread: nothing passes either way.
                new_valid = new_ready = falses
            else:
                if everyone:
                    passing = [state == FREE for state in fsm]
                else:
                    passing = [
                        t not in participants or fsm[t] == FREE for t in rng
                    ]
                new_valid = list(map(and_, in_valid, passing))
                new_ready = list(map(and_, in_ready, passing))
            changed = False
            if values[dvb:dve] != new_valid:
                values[dvb:dve] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            if values[urb:ure] != new_ready:
                values[urb:ure] = new_ready
                if ready_readers:
                    dirty.update(ready_readers)
                changed = True
            new_data = values[up_data]
            old = values[down_data]
            if old is not new_data and not same_value(old, new_data):
                values[down_data] = new_data
                if data_readers:
                    dirty.update(data_readers)
                changed = True
            return changed

        return step

    def compile_seq(self, seq):
        """Columnar tick plan: arrival masks in re-homed slots, slice
        reads of the handshake vectors, delta-gated on up-valid /
        up-ready / down-ready plus the state block."""
        cls = type(self)
        if cls.capture is not Barrier.capture or cls.commit is not Barrier.commit:
            return None
        store = seq.store
        up_valid = store.range_of(self.up.valid)
        up_ready = store.range_of(self.up.ready)
        down_ready = store.range_of(self.down.ready)
        if None in (up_valid, up_ready, down_ready):
            return None
        threads = self.threads
        fb = seq.alloc(self._sstore[self._sq:self._sq + threads + 2])
        self._sstore = seq.values
        self._sq = fb
        svalues = seq.values
        fe = fb + threads
        cb = fe
        gb = fe + 1
        values = store.values
        uvb, uve = up_valid
        urb, ure = up_ready
        participants = self.participants
        limit = self.limit
        on_release = self._on_release

        def capture(cycle) -> None:
            old_fsm = svalues[fb:fe]
            fsm = svalues[fb:fe]
            count = svalues[cb]
            released = False
            valids = values[uvb:uve]
            readies = values[urb:ure]
            # Transfers first: FREE threads whose item passed -> IDLE.
            for t in participants:
                if fsm[t] == FREE and valids[t] and readies[t]:
                    fsm[t] = IDLE
            # Arrivals gate on the pre-transition state (old_fsm) so the
            # item that just passed is not double counted.
            for t in participants:
                if old_fsm[t] == IDLE and valids[t]:
                    fsm[t] = WAIT
                    count += 1
            if count >= limit:
                count = 0
                released = True
                for t in participants:
                    if fsm[t] == WAIT:
                        fsm[t] = FREE
            self._next = (fsm, count, released)

        def commit() -> bool:
            nxt = self._next
            if nxt is None:
                return False
            fsm, count, released = nxt
            self._next = None
            changed = released or fsm != svalues[fb:fe]
            svalues[fb:fe] = fsm
            svalues[cb] = count
            if released:
                svalues[gb] = not svalues[gb]
                self._releases += 1
                if on_release is not None:
                    on_release(self._releases)
            return changed

        watch = (up_valid, up_ready, down_ready)
        return SeqPlan(self, capture, commit, watch,
                       state=((fb, gb + 1),))

    def capture(self) -> None:
        fsm = list(self._fsm)
        count = self._count
        released = False
        valids = self.up.valids()
        readies = self.up.readies()  # our own registered-state outputs
        # Transfers first: FREE threads whose item passed return to IDLE.
        for t in self.participants:
            if fsm[t] == FREE and valids[t] and readies[t]:
                fsm[t] = IDLE
        # Arrivals: an IDLE participant presenting valid data moves to
        # WAIT and bumps the counter (paper: load lgo(i), cntEn(i)).
        # Note `self._fsm` (pre-transition state) gates arrival detection
        # so the item that just passed is not double counted.
        for t in self.participants:
            if self._fsm[t] == IDLE and valids[t]:
                fsm[t] = WAIT
                count += 1
        if count >= self.limit:
            # Last thread arrived: counter resets, go flips, every WAIT
            # thread is released.
            count = 0
            released = True
            for t in self.participants:
                if fsm[t] == WAIT:
                    fsm[t] = FREE
        self._next = (fsm, count, released)

    def commit(self) -> bool:
        if self._next is None:
            return False
        fsm, count, released = self._next
        self._next = None
        changed = released or fsm != self._fsm
        self._fsm = fsm
        self._count = count
        if released:
            self._go = not self._go
            self._releases += 1
            if self._on_release is not None:
                self._on_release(self._releases)
        return changed

    def reset(self) -> None:
        self._fsm = [IDLE] * self.threads
        self._count = 0
        self._go = False
        self._releases = 0
        self._next = None

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def area_items(self) -> list[tuple[str, int, int]]:
        s = len(self.participants)
        counter_bits = max(1, math.ceil(math.log2(s + 1)))
        return [
            ("ff", s, 2),                  # per-thread FSM
            ("ff", s, 1),                  # lgo snapshots
            ("ff", 1, counter_bits),       # arrival counter
            ("ff", 1, 1),                  # go flag
            ("lut", 3 * s + counter_bits, 1),
        ]
