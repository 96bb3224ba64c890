"""Structural full MEB: the literal micro-architecture of Fig. 4.

:class:`StructuralFullMEB` instantiates one real single-thread
:class:`~repro.elastic.buffer.ElasticBuffer` per thread, an input
demultiplexer, and an output arbiter + data mux — wire for wire the
figure's "replicating one EB per thread and adding an arbiter and a
multiplexer".  It exists to *validate* the flat behavioural
:class:`~repro.core.meb.FullMEB`: the property test in
``tests/test_core_structural.py`` drives both with identical random
traffic and asserts cycle-identical transfers.

(The flat model is what the rest of the library uses — it is ~5x faster
to simulate — but the structural build is the ground truth tying the
implementation back to the paper's figure.)
"""

from __future__ import annotations

from typing import Any

from repro.core.arbiter import GrantPolicy, RoundRobinArbiter
from repro.core.mtchannel import MTChannel
from repro.elastic.buffer import ElasticBuffer
from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.errors import ProtocolError, SimulationError
from repro.kernel.values import X


class _InputDemux(Component):
    """Steers the shared MT input onto the per-thread EB channels."""

    def __init__(self, name: str, up: MTChannel,
                 eb_ins: list[ElasticChannel], parent: Component):
        super().__init__(name, parent=parent)
        self.up = up
        self.eb_ins = eb_ins
        up.connect_consumer(self)
        self.declare_reads(up.valid, up.data)
        for ch in eb_ins:
            ch.connect_producer(self)
            self.declare_reads(ch.ready)

    def combinational(self) -> None:
        actives = [i for i in range(self.up.threads) if self.up.valid[i].value]
        if len(actives) > 1:
            raise ProtocolError(
                f"{self.path}: {len(actives)} threads valid on {self.up.path}"
            )
        for i, ch in enumerate(self.eb_ins):
            take = bool(actives) and actives[0] == i
            ch.valid.set(take)
            ch.data.set(self.up.data.value if take else X)
            self.up.ready[i].set(ch.ready.value)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", self.up.threads, 1)]


class _OutputArbiterMux(Component):
    """Grants one per-thread EB output onto the shared MT channel."""

    def __init__(self, name: str, eb_outs: list[ElasticChannel],
                 down: MTChannel, policy: GrantPolicy,
                 parent: Component):
        super().__init__(name, parent=parent)
        self.eb_outs = eb_outs
        self.down = down
        self.policy = policy
        self.arbiter = RoundRobinArbiter(down.threads, rotate_on_stall=True)
        for ch in eb_outs:
            ch.connect_consumer(self)
            self.declare_reads(ch.valid, ch.data)
        down.connect_producer(self)
        self.declare_reads(down.ready)
        self._grant: int | None = None

    def combinational(self) -> None:
        valids = [ch.valid.value for ch in self.eb_outs]
        readies = [sig.value for sig in self.down.ready]
        requests = self.policy.requests(valids, readies)
        grant = self.arbiter.grant(requests)
        self._grant = grant
        for i, ch in enumerate(self.eb_outs):
            take = grant == i
            self.down.valid[i].set(take)
            ch.ready.set(take and readies[i])
        self.down.data.set(
            self.eb_outs[grant].data.value if grant is not None else X
        )

    def capture(self) -> None:
        transferred = self._grant is not None and self.down.ready[self._grant].value
        self.arbiter.note(self._grant, transferred)

    def commit(self) -> bool:
        return self.arbiter.commit()

    def reset(self) -> None:
        self.arbiter.reset()
        self._grant = None

    def area_items(self) -> list[tuple[str, int, int]]:
        s = self.down.threads
        items: list[tuple[str, int, int]] = [
            ("mux2", s - 1, self.down.width),
            ("lut", 2 * s, 1),
        ]
        items.extend(self.arbiter.area_items())
        return items


class StructuralFullMEB(Component):
    """Fig. 4 exactly: S elastic buffers + demux + arbiter + mux."""

    def __init__(
        self,
        name: str,
        up: MTChannel,
        down: MTChannel,
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
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
        width = down.width
        self._eb_ins = [
            ElasticChannel(f"in{i}", width=width, parent=self)
            for i in range(self.threads)
        ]
        self._eb_outs = [
            ElasticChannel(f"out{i}", width=width, parent=self)
            for i in range(self.threads)
        ]
        self.ebs = [
            ElasticBuffer(f"eb{i}", self._eb_ins[i], self._eb_outs[i],
                          parent=self)
            for i in range(self.threads)
        ]
        self.demux = _InputDemux("demux", up, self._eb_ins, parent=self)
        self.arb_mux = _OutputArbiterMux("arbmux", self._eb_outs, down,
                                         policy, parent=self)

    # Interface parity with the flat MEBs -------------------------------
    def occupancy(self, thread: int) -> int:
        return self.ebs[thread].occupancy

    def thread_state(self, thread: int) -> str:
        return self.ebs[thread].state

    def contents(self, thread: int) -> list[Any]:
        return self.ebs[thread].contents()

    def total_occupancy(self) -> int:
        return sum(eb.occupancy for eb in self.ebs)

    @property
    def total_slots(self) -> int:
        return 2 * self.threads

    def meb_components(self) -> list[Component]:
        return [self]
