"""Multithreaded elastic channels (paper §III).

An MT elastic channel carries the data of **one** thread per cycle plus as
many ``valid(i)/ready(i)`` handshake pairs as the number of threads the
system supports.  The structural invariant — at most one ``valid(i)``
asserted per cycle — is enforced by :meth:`MTChannel.active_thread` and by
the protocol monitors.

The per-thread ``valid``/``ready`` signal lists are created back to back,
so once the simulator finalizes they occupy **packed consecutive slots**
of the flat :class:`~repro.kernel.slots.SlotStore`.  The channel caches
those slot blocks lazily (:meth:`_blocks`) and serves its S-wide vector
reads — :meth:`valids`, :meth:`readies`, :meth:`active_thread` — as one
list slice plus C-speed ``count``/``index`` scans instead of S attribute
chases, which speeds up every engine's capture phase as well as the
compiled engine's settle steps.  The handshake wires are
:class:`~repro.kernel.signal.ControlSignal` s, which reject ``X`` and
coerce truthy values at the write, so those slices hold only bools and
are returned as read.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.kernel.component import Component
from repro.kernel.errors import ProtocolError


def one_hot_thread(valids: list, path: str) -> int | None:
    """Index of the single asserted bit in a valid slice, or None if idle.

    Takes the raw packed slice straight from the slot store: handshake
    wires are :class:`~repro.kernel.signal.ControlSignal` s, so every
    entry is ``True`` or ``False`` and one C-speed ``count`` plus one
    ``index`` answer it.  The MT protocol's one-valid-per-cycle invariant
    raises :class:`ProtocolError` naming *path* when more than one bit is
    set.  Shared by :meth:`MTChannel.active_thread` and the slot-compiled
    steps and tick plans of the MT components.
    """
    count = valids.count(True)
    if count == 0:
        return None
    first = valids.index(True)
    if count == 1:
        return first
    second = valids.index(True, first + 1)
    raise ProtocolError(
        f"{path}: expected one-hot vector, bits {first} and "
        f"{second} both set"
    )


@functools.lru_cache(maxsize=None)
def one_hot_vectors(threads: int, bit: bool = True) -> list[list[bool]]:
    """``vectors[t]``: the S-wide vector whose only *bit*-valued entry is *t*.

    ``bit=True`` gives the one-hot valid vectors, ``bit=False`` the ready
    vectors refusing one thread.  Cached per argument pair and shared by
    every component: the slot-compiled steps publish them through slice
    assignment (a copy) and never mutate them.
    """
    vectors = []
    for t in range(threads):
        vec = [not bit] * threads
        vec[t] = bit
        vectors.append(vec)
    return vectors


class MTChannel(Component):
    """A time-multiplexed elastic channel for ``threads`` concurrent threads.

    Signals:

    * ``valid[i]`` / ``ready[i]`` — one handshake pair per thread.
    * ``data`` — shared data bus, meaningful for the single active thread.
    """

    #: The data bus carries payloads by reference, never inspected.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        threads: int,
        width: int = 32,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if threads < 1:
            raise ValueError("an MT channel needs at least one thread")
        self.threads = int(threads)
        self.width = int(width)
        self.valid = [self.control(f"valid{i}") for i in range(self.threads)]
        self.ready = [self.control(f"ready{i}") for i in range(self.threads)]
        self.data = self.signal("data", width=self.width)
        # Packed-slot cache for the vector helpers, keyed on the store
        # list the signals are currently homed in (it changes exactly
        # once, when the simulator finalizes and re-homes every signal
        # into the design-wide SlotStore).
        self._blk_store: list[Any] | None = None
        self._blk_valid: tuple[int, int] | None = None
        self._blk_ready: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # packed slot blocks
    # ------------------------------------------------------------------
    def _blocks(self) -> None:
        """Refresh the cached (store, valid-range, ready-range) triple."""
        store = self.valid[0]._store
        self._blk_store = store
        self._blk_valid = self._contiguous(self.valid, store)
        self._blk_ready = self._contiguous(self.ready, store)

    @staticmethod
    def _contiguous(sigs, store) -> tuple[int, int] | None:
        base = sigs[0]._slot
        for off, sig in enumerate(sigs):
            if sig._store is not store or sig._slot != base + off:
                return None
        return base, base + len(sigs)

    # ------------------------------------------------------------------
    # connection bookkeeping
    # ------------------------------------------------------------------
    def connect_producer(self, component: Component) -> "MTChannel":
        for sig in self.valid:
            sig.set_driver(component)
        self.data.set_driver(component)
        return self

    def connect_consumer(self, component: Component) -> "MTChannel":
        for sig in self.ready:
            sig.set_driver(component)
        return self

    # ------------------------------------------------------------------
    # settled-value helpers
    # ------------------------------------------------------------------
    def valids(self) -> list[bool]:
        if self.valid[0]._store is not self._blk_store:
            self._blocks()
        blk = self._blk_valid
        if blk is not None:
            return self._blk_store[blk[0]:blk[1]]
        return [sig.value for sig in self.valid]

    def readies(self) -> list[bool]:
        if self.valid[0]._store is not self._blk_store:
            self._blocks()
        blk = self._blk_ready
        if blk is not None:
            return self._blk_store[blk[0]:blk[1]]
        return [sig.value for sig in self.ready]

    def active_thread(self) -> int | None:
        """Index of the thread presenting data this cycle (None if idle).

        Raises :class:`ProtocolError` when the one-valid-per-cycle
        invariant of the MT protocol is violated.
        """
        return one_hot_thread(self.valids(), self.path)

    def transfer_thread(self) -> int | None:
        """Thread completing a transfer this cycle, or None."""
        active = self.active_thread()
        if active is not None and self.ready[active].value:
            return active
        return None

    def transfers(self, thread: int) -> bool:
        """True when *thread* moves a data item across this cycle."""
        return self.valid[thread].value and self.ready[thread].value

    def payload(self) -> Any:
        return self.data.value

    def __repr__(self) -> str:
        return (
            f"<MTChannel {self.path} threads={self.threads} "
            f"width={self.width}>"
        )


def mt_channels(
    prefix: str, count: int, threads: int, width: int = 32
) -> list[MTChannel]:
    """Create *count* MT channels named ``{prefix}0 .. {prefix}{count-1}``."""
    return [
        MTChannel(f"{prefix}{i}", threads=threads, width=width)
        for i in range(count)
    ]


def trace_mt_channel(sim, channel: MTChannel, prefix: str | None = None):
    """Attach a :class:`~repro.kernel.trace.TraceRecorder` to *channel*.

    Records every per-thread valid/ready pair plus the shared data bus,
    so an MT channel's handshake activity can be rendered as an ASCII
    waveform or dumped to VCD like any single-thread channel.
    """
    from repro.kernel.trace import TraceRecorder

    if prefix is None:
        prefix = channel.name
    signals = []
    labels = []
    for i in range(channel.threads):
        signals.append(channel.valid[i])
        labels.append(f"{prefix}.v{i}")
        signals.append(channel.ready[i])
        labels.append(f"{prefix}.r{i}")
    signals.append(channel.data)
    labels.append(f"{prefix}.data")
    return TraceRecorder(signals, labels=labels).attach(sim)
