"""Single-thread elastic buffers (paper §II).

Two implementations with the same external contract (capacity 2, forward
and backward handshake latency of one cycle — the minimum storage for
full-throughput elastic pipelining [Carloni et al. 2001]):

* :class:`ElasticBuffer` — the flip-flop based 2-slot FIFO with the
  EMPTY/HALF/FULL occupancy states described in the paper.
* :class:`LatchElasticBuffer` — the latch-style decomposition into two
  chained capacity-1 half-buffers with a combinational ready bypass,
  mirroring the paper's remark that EBs "can be designed ... either with
  regular edge-triggered flip flops or level sensitive latches".

Both present an upstream channel (``up``) whose ``ready`` they drive and a
downstream channel (``down``) whose ``valid``/``data`` they drive.
"""

from __future__ import annotations

from typing import Any

from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.errors import SimulationError
from repro.kernel.slots import SeqPlan
from repro.kernel.values import X, same_value, state_changed


class _SlotWriter:
    """Scalar compare-and-assign with Signal.set's change semantics.

    One writer per driven signal: on a real value change it stores the
    new value and marks the signal's declared readers in the engine's
    dirty set (the slot-level analogue of ``Signal.set`` ->
    ``note_change``).
    """

    __slots__ = ("values", "slot", "dirty", "readers")

    def __init__(self, store, sig):
        self.values = store.values
        self.slot = store.slot(sig)
        self.dirty = store.dirty
        self.readers = store.readers_of((sig,))

    def write(self, new) -> bool:
        values = self.values
        old = values[self.slot]
        if old is new or same_value(old, new):
            return False
        values[self.slot] = new
        if self.readers:
            self.dirty.update(self.readers)
        return True


def _handshake_writers(store, buffer) -> tuple | None:
    """(up-ready, down-valid, down-data) slot writers, or None."""
    sigs = (buffer.up.ready, buffer.down.valid, buffer.down.data)
    if any(store.slot_or_none(sig) is None for sig in sigs):
        return None
    return tuple(_SlotWriter(store, sig) for sig in sigs)


def _seq_handshake_layout(seq, buffer) -> tuple | None:
    """Capture-side slot layout shared by the single-thread buffers.

    Returns ``(values, uv, ur, ud, dv, dr, watch)`` — the slot store's
    value list, the five handshake/data slots a buffer capture may read,
    and the matching watch ranges — or ``None`` when any signal did not
    land in the store.
    """
    store = seq.store
    sigs = (buffer.up.valid, buffer.up.ready, buffer.up.data,
            buffer.down.valid, buffer.down.ready)
    slots = [store.slot_or_none(sig) for sig in sigs]
    if None in slots:
        return None
    watch = tuple((s, s + 1) for s in slots)
    return (store.values, *slots, watch)

#: Symbolic occupancy states used throughout tests and traces.
EMPTY = "EMPTY"
HALF = "HALF"
FULL = "FULL"


class ElasticBuffer(Component):
    """Flip-flop based 2-slot elastic buffer.

    State is a two-entry circular FIFO.  ``ready`` upstream is a function
    of the registered occupancy only (high unless FULL) and ``valid``
    downstream is high unless EMPTY, so the buffer cuts every combinational
    path between its two channels — the property that lets long chains of
    EBs settle in O(1) iterations.
    """

    CAPACITY = 2

    def __init__(
        self,
        name: str,
        up: ElasticChannel,
        down: ElasticChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.up = up
        self.down = down
        up.connect_consumer(self)
        down.connect_producer(self)
        # Both handshake outputs are functions of registered occupancy
        # only: the EB reads no signal combinationally.
        self.declare_reads()
        # Registered state: the stored items, oldest first, in one
        # slot-backed cell (private until compile_seq re-homes it into
        # the design-wide SeqStore).
        self._sstore: list[Any] = [[]]
        self._sq = 0
        self._next_items: list[Any] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def _items(self) -> list[Any]:
        return self._sstore[self._sq]

    @_items.setter
    def _items(self, items: list[Any]) -> None:
        self._sstore[self._sq] = items

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def state(self) -> str:
        """Occupancy as the paper's EMPTY/HALF/FULL naming."""
        return (EMPTY, HALF, FULL)[len(self._items)]

    def contents(self) -> list[Any]:
        return list(self._items)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def combinational(self) -> None:
        count = len(self._items)
        self.up.ready.set(count < self.CAPACITY)
        self.down.valid.set(count > 0)
        self.down.data.set(self._items[0] if count else X)

    def compile_comb(self, store):
        if type(self).combinational is not ElasticBuffer.combinational:
            return None
        writers = _handshake_writers(store, self)
        if writers is None:
            return None
        ready_w, valid_w, data_w = (w.write for w in writers)
        capacity = self.CAPACITY
        sstore = self._sstore
        cell = self._sq

        def step() -> bool:
            items = sstore[cell]
            count = len(items)
            changed = ready_w(count < capacity)
            if valid_w(count > 0):
                changed = True
            if data_w(items[0] if count else X):
                changed = True
            return changed

        return step

    def compile_seq(self, seq):
        """Columnar tick plan: slot-level transfer detection, COW item
        list in one re-homed cell, delta-gated on the five handshake
        slots plus the cell itself."""
        cls = type(self)
        if (cls.capture is not ElasticBuffer.capture
                or cls.commit is not ElasticBuffer.commit):
            return None
        layout = _seq_handshake_layout(seq, self)
        if layout is None:
            return None
        values, uv, ur, ud, dv, dr, watch = layout
        cell = seq.alloc([self._sstore[self._sq]])
        self._sstore = seq.values
        self._sq = cell
        svalues = seq.values
        capacity = self.CAPACITY
        path = self.path

        def capture(cycle) -> None:
            deq = values[dv] and values[dr]
            enq = values[uv] and values[ur]
            if not deq and not enq:
                self._next_items = None
                return
            items = list(svalues[cell])
            if deq:
                items.pop(0)
            if enq:
                if len(items) >= capacity:
                    raise SimulationError(f"{path}: enqueue into full EB")
                items.append(values[ud])
            self._next_items = items

        def commit() -> bool:
            nxt = self._next_items
            if nxt is None:
                return False
            old = svalues[cell]
            changed = state_changed(old, nxt)
            svalues[cell] = nxt
            self._next_items = None
            return changed

        return SeqPlan(self, capture, commit, watch,
                       state=((cell, cell + 1),))

    def capture(self) -> None:
        items = list(self._items)
        if self.down.transfer:
            items.pop(0)
        if self.up.transfer:
            if len(items) >= self.CAPACITY:
                raise SimulationError(f"{self.path}: enqueue into full EB")
            items.append(self.up.data.value)
        self._next_items = items

    def commit(self) -> bool:
        if self._next_items is None:
            return False
        changed = state_changed(self._items, self._next_items)
        self._items = self._next_items
        self._next_items = None
        return changed

    def reset(self) -> None:
        self._items = []
        self._next_items = None

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        return [
            ("ff", 2, width),      # two data slots
            ("mux2", 1, width),    # output/head selection
            ("ff", 1, 2),          # occupancy counter / state FSM
            ("lut", 3, 1),         # handshake control
        ]


class HalfBuffer(Component):
    """Capacity-1 elastic stage with combinational ready bypass.

    ``ready`` upstream is high when the slot is empty *or* the downstream
    side is draining it this very cycle, so a chain of half-buffers
    sustains full throughput with only one slot per stage — at the price of
    a combinational backward ``ready`` path (one extra settle iteration per
    chained stage) and one cycle of forward latency per stage.
    """

    def __init__(
        self,
        name: str,
        up: ElasticChannel,
        down: ElasticChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.up = up
        self.down = down
        up.connect_consumer(self)
        down.connect_producer(self)
        # The ready bypass reads downstream ready while the slot is full.
        self.declare_reads(down.ready)
        # Slot-backed sequential state: [full, item].
        self._sstore: list[Any] = [False, X]
        self._sq = 0
        self._next: tuple[bool, Any] | None = None

    @property
    def _full(self) -> bool:
        return self._sstore[self._sq]

    @_full.setter
    def _full(self, full: bool) -> None:
        self._sstore[self._sq] = full

    @property
    def _item(self) -> Any:
        return self._sstore[self._sq + 1]

    @_item.setter
    def _item(self, item: Any) -> None:
        self._sstore[self._sq + 1] = item

    @property
    def occupancy(self) -> int:
        return 1 if self._full else 0

    def combinational(self) -> None:
        self.down.valid.set(self._full)
        self.down.data.set(self._item if self._full else X)
        draining = self._full and self.down.ready.value
        self.up.ready.set((not self._full) or draining)

    def compile_comb(self, store):
        if type(self).combinational is not HalfBuffer.combinational:
            return None
        writers = _handshake_writers(store, self)
        down_ready = store.slot_or_none(self.down.ready)
        if writers is None or down_ready is None:
            return None
        ready_w, valid_w, data_w = (w.write for w in writers)
        values = store.values
        sstore = self._sstore
        fb = self._sq

        def step() -> bool:
            full = sstore[fb]
            changed = valid_w(full)
            if data_w(sstore[fb + 1] if full else X):
                changed = True
            draining = full and values[down_ready]
            if ready_w((not full) or draining):
                changed = True
            return changed

        return step

    def compile_seq(self, seq):
        """Columnar tick plan: slot-level transfers into the [full, item]
        cells, delta-gated on the handshake slots plus the cells."""
        cls = type(self)
        if (cls.capture is not HalfBuffer.capture
                or cls.commit is not HalfBuffer.commit):
            return None
        layout = _seq_handshake_layout(seq, self)
        if layout is None:
            return None
        values, uv, ur, ud, dv, dr, watch = layout
        fb = seq.alloc(self._sstore[self._sq:self._sq + 2])
        self._sstore = seq.values
        self._sq = fb
        svalues = seq.values

        def capture(cycle) -> None:
            full, item = svalues[fb], svalues[fb + 1]
            if values[dv] and values[dr]:
                full, item = False, X
            if values[uv] and values[ur]:
                full, item = True, values[ud]
            self._next = (full, item)

        def commit() -> bool:
            nxt = self._next
            if nxt is None:
                return False
            changed = state_changed((svalues[fb], svalues[fb + 1]), nxt)
            svalues[fb], svalues[fb + 1] = nxt
            self._next = None
            return changed

        return SeqPlan(self, capture, commit, watch,
                       state=((fb, fb + 2),))

    def capture(self) -> None:
        full, item = self._full, self._item
        if self.down.transfer:
            full, item = False, X
        if self.up.transfer:
            full, item = True, self.up.data.value
        self._next = (full, item)

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = state_changed((self._full, self._item), self._next)
        self._full, self._item = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._full = False
        self._item = X
        self._next = None

    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        return [("latch", 1, width), ("lut", 2, 1)]


class LatchElasticBuffer(Component):
    """Latch-style EB: a main (slave) slot plus a shadow (master) slot.

    This is the master/slave latch decomposition at cycle granularity: the
    slave latch feeds the output every cycle; the master latch only
    captures ("skids") when the output is stalled.  Externally it is
    cycle-for-cycle equivalent to :class:`ElasticBuffer` — forward latency
    1, capacity 2, registered handshakes — which the property test in
    ``tests/test_elastic_buffer.py`` verifies under random traffic.  Only
    the area accounting differs (latches instead of flip-flops).
    """

    CAPACITY = 2

    def __init__(
        self,
        name: str,
        up: ElasticChannel,
        down: ElasticChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.up = up
        self.down = down
        up.connect_consumer(self)
        down.connect_producer(self)
        self.declare_reads()
        # Registered state: (full, item) for the slave/output slot and the
        # master/shadow slot, in two slot-backed cells.
        self._sstore: list[Any] = [(False, X), (False, X)]
        self._sq = 0
        self._next: tuple[tuple[bool, Any], tuple[bool, Any]] | None = None

    @property
    def _out(self) -> tuple[bool, Any]:
        return self._sstore[self._sq]

    @_out.setter
    def _out(self, out: tuple[bool, Any]) -> None:
        self._sstore[self._sq] = out

    @property
    def _skid(self) -> tuple[bool, Any]:
        return self._sstore[self._sq + 1]

    @_skid.setter
    def _skid(self, skid: tuple[bool, Any]) -> None:
        self._sstore[self._sq + 1] = skid

    @property
    def occupancy(self) -> int:
        return int(self._out[0]) + int(self._skid[0])

    @property
    def state(self) -> str:
        return (EMPTY, HALF, FULL)[self.occupancy]

    def contents(self) -> list[Any]:
        out: list[Any] = []
        if self._out[0]:
            out.append(self._out[1])
        if self._skid[0]:
            out.append(self._skid[1])
        return out

    def combinational(self) -> None:
        out_full, out_item = self._out
        self.down.valid.set(out_full)
        self.down.data.set(out_item if out_full else X)
        self.up.ready.set(not self._skid[0])

    def compile_comb(self, store):
        if type(self).combinational is not LatchElasticBuffer.combinational:
            return None
        writers = _handshake_writers(store, self)
        if writers is None:
            return None
        ready_w, valid_w, data_w = (w.write for w in writers)
        sstore = self._sstore
        ob = self._sq

        def step() -> bool:
            out_full, out_item = sstore[ob]
            changed = valid_w(out_full)
            if data_w(out_item if out_full else X):
                changed = True
            if ready_w(not sstore[ob + 1][0]):
                changed = True
            return changed

        return step

    def compile_seq(self, seq):
        """Columnar tick plan for the master/slave latch pair."""
        cls = type(self)
        if (cls.capture is not LatchElasticBuffer.capture
                or cls.commit is not LatchElasticBuffer.commit):
            return None
        layout = _seq_handshake_layout(seq, self)
        if layout is None:
            return None
        values, uv, ur, ud, dv, dr, watch = layout
        ob = seq.alloc(self._sstore[self._sq:self._sq + 2])
        self._sstore = seq.values
        self._sq = ob
        svalues = seq.values
        path = self.path

        def capture(cycle) -> None:
            out_full, out_item = svalues[ob]
            skid_full, skid_item = svalues[ob + 1]
            deq = values[dv] and values[dr]
            enq = values[uv] and values[ur]
            if enq and skid_full:
                raise SimulationError(f"{path}: enqueue while shadow full")
            incoming = values[ud]
            if deq:
                if skid_full:
                    # Shadow refills the output slot; no enqueue possible.
                    out_full, out_item = True, skid_item
                    skid_full, skid_item = False, X
                else:
                    out_full, out_item = (True, incoming) if enq else (False, X)
            else:
                if enq:
                    if out_full:
                        skid_full, skid_item = True, incoming
                    else:
                        out_full, out_item = True, incoming
            self._next = ((out_full, out_item), (skid_full, skid_item))

        def commit() -> bool:
            nxt = self._next
            if nxt is None:
                return False
            changed = state_changed((svalues[ob], svalues[ob + 1]), nxt)
            svalues[ob], svalues[ob + 1] = nxt
            self._next = None
            return changed

        return SeqPlan(self, capture, commit, watch,
                       state=((ob, ob + 2),))

    def capture(self) -> None:
        out_full, out_item = self._out
        skid_full, skid_item = self._skid
        deq = self.down.transfer
        enq = self.up.transfer
        if enq and skid_full:
            raise SimulationError(f"{self.path}: enqueue while shadow full")
        incoming = self.up.data.value
        if deq:
            if skid_full:
                # Shadow refills the output slot; no enqueue was possible.
                out_full, out_item = True, skid_item
                skid_full, skid_item = False, X
            else:
                out_full, out_item = (True, incoming) if enq else (False, X)
        else:
            if enq:
                if out_full:
                    skid_full, skid_item = True, incoming
                else:
                    out_full, out_item = True, incoming
        self._next = ((out_full, out_item), (skid_full, skid_item))

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = state_changed((self._out, self._skid), self._next)
        self._out, self._skid = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._out = (False, X)
        self._skid = (False, X)
        self._next = None

    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        return [
            ("latch", 2, width),   # master + slave latch arrays
            ("mux2", 1, width),    # refill path into the slave slot
            ("latch", 1, 2),       # control state
            ("lut", 3, 1),
        ]
