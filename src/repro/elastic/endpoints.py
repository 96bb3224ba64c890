"""Traffic endpoints: elastic sources and sinks.

These are the test benches' boundary components.  A :class:`Source` feeds
a finite or infinite stream of items into a channel, optionally gated by an
injection pattern; a :class:`Sink` consumes from a channel under a
configurable readiness (stall) pattern and records everything it received.

Both honour the elastic-protocol persistence rule: once ``valid`` has been
asserted it stays asserted (with stable data) until the transfer happens,
even if the injection pattern has moved on — matching the behaviour the
protocol monitors enforce.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.values import X

#: A pattern is a per-cycle boolean gate: a callable of the local cycle
#: number, a sequence treated as cyclic, or None meaning "always on".
Pattern = Callable[[int], bool] | Sequence[bool] | None


def _pattern_fn(pattern: Pattern) -> Callable[[int], bool]:
    if pattern is None:
        return lambda _cycle: True
    if callable(pattern):
        return pattern
    seq = [bool(b) for b in pattern]
    if not seq:
        raise ValueError("pattern sequence must not be empty")
    return lambda cycle: seq[cycle % len(seq)]


class Source(Component):
    """Drives items into an elastic channel.

    Parameters
    ----------
    items:
        The data items to inject, in order.  Pass ``generate`` instead for
        programmatic or infinite streams.
    pattern:
        Injection gate, consulted only when starting a new offer; an offer
        in flight persists until accepted.
    generate:
        Optional ``fn(k) -> item`` producing the k-th item; combined with
        ``count`` (None means infinite).
    """

    def __init__(
        self,
        name: str,
        channel: ElasticChannel,
        items: Iterable[Any] | None = None,
        pattern: Pattern = None,
        generate: Callable[[int], Any] | None = None,
        count: int | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if (items is None) == (generate is None):
            raise ValueError("specify exactly one of 'items' or 'generate'")
        if items is not None:
            self._items: list[Any] | None = list(items)
            self._count: int | None = len(self._items)
        else:
            self._items = None
            self._count = count
        self._generate = generate
        self._gate = _pattern_fn(pattern)
        self.channel = channel
        channel.connect_producer(self)
        # The offer depends on registered state and the pattern only.
        self.declare_reads()
        if pattern is not None:
            # The injection gate is a function of the cycle number, which
            # advances outside the signal graph.
            self.declare_volatile()
        # Registered state.
        self._index = 0
        self._offering = False
        self._cycle = 0
        self._next: tuple[int, bool, int] | None = None
        self.sent: list[tuple[int, Any]] = []

    def _item_at(self, k: int) -> Any:
        if self._items is not None:
            return self._items[k]
        assert self._generate is not None
        return self._generate(k)

    def push(self, item: Any) -> None:
        """Append an item to the stream (usable mid-simulation).

        Only valid for list-backed sources; generator-backed sources
        define their stream up front.
        """
        if self._items is None:
            raise ValueError("cannot push into a generator-backed source")
        self._items.append(item)
        self._count = len(self._items)
        self.invalidate()

    @property
    def exhausted(self) -> bool:
        """True when every item has been transferred."""
        return self._count is not None and self._index >= self._count

    @property
    def remaining(self) -> int | None:
        if self._count is None:
            return None
        return self._count - self._index

    def combinational(self) -> None:
        has_item = self._count is None or self._index < self._count
        offer = has_item and (self._offering or self._gate(self._cycle))
        self.channel.valid.set(offer)
        self.channel.data.set(self._item_at(self._index) if offer else X)

    def capture(self) -> None:
        index, offering = self._index, self._offering
        if self.channel.valid.value:
            if self.channel.transfer:
                self.sent.append((self._cycle, self.channel.data.value))
                index += 1
                offering = False
            else:
                offering = True  # persist the stalled offer
        self._next = (index, offering, self._cycle + 1)

    def commit(self) -> bool:
        if self._next is None:
            return False
        # The cycle counter feeds only the (volatile-flagged) pattern, so
        # the offer changes only with the stream position.
        changed = (self._index, self._offering) != self._next[:2]
        self._index, self._offering, self._cycle = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._index = 0
        self._offering = False
        self._cycle = 0
        self._next = None
        self.sent = []


class Sink(Component):
    """Consumes items from an elastic channel under a stall pattern."""

    def __init__(
        self,
        name: str,
        channel: ElasticChannel,
        pattern: Pattern = None,
        limit: int | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self._gate = _pattern_fn(pattern)
        self._limit = limit
        self.channel = channel
        channel.connect_consumer(self)
        self.declare_reads()
        if pattern is not None:
            self.declare_volatile()
        self._cycle = 0
        self._next_cycle: int | None = None
        self._accepted_now = False
        self.received: list[tuple[int, Any]] = []

    @property
    def count(self) -> int:
        return len(self.received)

    def values(self) -> list[Any]:
        """Just the data items, in arrival order."""
        return [data for _cycle, data in self.received]

    def arrival_cycles(self) -> list[int]:
        return [cycle for cycle, _data in self.received]

    def combinational(self) -> None:
        open_for_more = self._limit is None or self.count < self._limit
        self.channel.ready.set(open_for_more and self._gate(self._cycle))

    def capture(self) -> None:
        self._accepted_now = self.channel.transfer
        if self._accepted_now:
            self.received.append((self._cycle, self.channel.data.value))
        self._next_cycle = self._cycle + 1

    def commit(self) -> bool:
        if self._next_cycle is None:
            return False
        self._cycle = self._next_cycle
        self._next_cycle = None
        # ready only moves with the received count when a limit is set
        # (the cycle counter matters solely through the volatile pattern).
        return self._limit is not None and self._accepted_now

    def reset(self) -> None:
        self._cycle = 0
        self._next_cycle = None
        self._accepted_now = False
        self.received = []


def stall_window(start: int, end: int) -> Callable[[int], bool]:
    """Pattern that is ready except during cycles ``[start, end)``.

    This is the traffic shape of the paper's Fig. 5 experiment ("Thread B
    stalls" for a window, then is released).
    """
    return lambda cycle: not (start <= cycle < end)


def duty_cycle(numerator: int, denominator: int, phase: int = 0) -> Callable[[int], bool]:
    """Pattern asserting ``numerator`` out of every ``denominator`` cycles."""
    if not 0 <= numerator <= denominator or denominator <= 0:
        raise ValueError("need 0 <= numerator <= denominator, denominator > 0")
    return lambda cycle: ((cycle + phase) % denominator) < numerator
