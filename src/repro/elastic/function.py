"""Elastic function units: the computation nodes between buffers.

* :class:`FunctionUnit` — zero-latency combinational mapping on a channel
  (valid/ready pass straight through, data is transformed).
* :class:`VariableLatencyUnit` — a unit that accepts one item, holds it for
  a data- or schedule-dependent number of cycles, then presents the result
  until taken.  This is the paper's "variable latency computation" the
  elastic control exists to tolerate (§I, §V-B: "instruction and data
  memory as well as the execution units are considered variable latency
  units").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.errors import SimulationError
from repro.kernel.values import X, state_changed

#: Latency policy: a fixed int, a callable ``fn(data, k) -> int`` where k
#: counts accepted items, or an iterable of per-item latencies.
LatencyPolicy = int | Callable[[Any, int], int] | Iterable[int]


class FunctionUnit(Component):
    """Combinational (zero-cycle) elastic function on a channel pair."""

    def __init__(
        self,
        name: str,
        inp: ElasticChannel,
        out: ElasticChannel,
        fn: Callable[[Any], Any],
        area_luts: int = 0,
        pure: bool = False,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.inp = inp
        self.out = out
        self.fn = fn
        self._area_luts = int(area_luts)
        inp.connect_consumer(self)
        out.connect_producer(self)
        self.declare_reads(inp.valid, inp.data, out.ready)
        if not pure:
            # fn is an arbitrary callable that may close over mutable
            # context; re-evaluate every settle unless the author asserts
            # purity (see MTFunction for the contract).
            self.declare_volatile()

    def combinational(self) -> None:
        in_valid = self.inp.valid.value
        self.out.valid.set(in_valid)
        self.out.data.set(self.fn(self.inp.data.value) if in_valid else X)
        self.inp.ready.set(self.out.ready.value)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", self._area_luts, 1)] if self._area_luts else []


class VariableLatencyUnit(Component):
    """Single-occupancy unit with per-item latency.

    Timing contract: an item accepted in cycle *t* with latency *L* (≥ 1)
    presents its result from cycle *t+L* until the downstream takes it.
    While occupied the unit is not ready upstream, so the surrounding
    elastic network absorbs the bubbles — exactly the situation Fig. 1(b)
    of the paper illustrates.
    """

    def __init__(
        self,
        name: str,
        inp: ElasticChannel,
        out: ElasticChannel,
        fn: Callable[[Any], Any],
        latency: LatencyPolicy = 1,
        area_luts: int = 0,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.inp = inp
        self.out = out
        self.fn = fn
        self._area_luts = int(area_luts)
        self._latency_policy = latency
        self._latency_iter: Iterator[int] | None = None
        inp.connect_consumer(self)
        out.connect_producer(self)
        # Handshake outputs depend on registered occupancy only.
        self.declare_reads()
        # Registered state.
        self._busy = False
        self._remaining = 0
        self._result: Any = X
        self._accepted = 0
        self._next: tuple[bool, int, Any, int] | None = None

    def _latency_for(self, data: Any) -> int:
        policy = self._latency_policy
        if isinstance(policy, int):
            lat = policy
        elif callable(policy):
            lat = policy(data, self._accepted)
        else:
            if self._latency_iter is None:
                self._latency_iter = iter(policy)
            try:
                lat = next(self._latency_iter)
            except StopIteration as exc:
                raise SimulationError(
                    f"{self.path}: latency iterable exhausted"
                ) from exc
        if lat < 1:
            raise SimulationError(f"{self.path}: latency must be >= 1, got {lat}")
        return int(lat)

    @property
    def done(self) -> bool:
        return self._busy and self._remaining == 0

    def combinational(self) -> None:
        self.inp.ready.set(not self._busy)
        self.out.valid.set(self.done)
        self.out.data.set(self._result if self.done else X)

    def capture(self) -> None:
        busy, remaining, result = self._busy, self._remaining, self._result
        accepted = self._accepted
        if self.done and self.out.transfer:
            busy, result = False, X
        if not self._busy and self.inp.transfer:
            data = self.inp.data.value
            # Result is presented L cycles after acceptance; the register
            # update itself consumes one of those cycles.
            remaining = self._latency_for(data) - 1
            result = self.fn(data)
            busy = True
            accepted += 1
        elif busy and remaining > 0:
            remaining -= 1
        self._next = (busy, remaining, result, accepted)

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = state_changed(
            (self._busy, self._remaining, self._result), self._next[:3]
        )
        self._busy, self._remaining, self._result, self._accepted = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._busy = False
        self._remaining = 0
        self._result = X
        self._accepted = 0
        self._next = None
        self._latency_iter = None

    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.out.width
        items: list[tuple[str, int, int]] = [
            ("ff", 1, width),  # result register
            ("ff", 1, 4),      # countdown / occupancy
            ("lut", 4, 1),     # control
        ]
        if self._area_luts:
            items.append(("lut", self._area_luts, 1))
        return items
