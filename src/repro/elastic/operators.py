"""Single-thread elastic control operators (paper §II, Fig. 3).

* :class:`Join` — synchronizes N input channels into one output (data
  convergence, e.g. the two operands of an adder).
* :class:`LazyFork` / :class:`EagerFork` — replicates one channel to N
  consumers.  The lazy fork transfers only when *all* consumers are ready;
  the eager fork delivers to each consumer as soon as it is ready,
  remembering who has been served.
* :class:`Branch` — routes each input item to one of N outputs according
  to a condition extracted from the data ("if-then-else" split).
* :class:`Merge` — funnels mutually exclusive branches back into one
  channel.

These operators are purely combinational except for the eager fork's
served-flags register; all of them are later replicated per thread by the
multithreaded variants in :mod:`repro.core.operators`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.errors import ProtocolError
from repro.kernel.values import X


class Join(Component):
    """Synchronize N input channels; output carries the combined data.

    ``out.valid`` is the AND of all input valids; input *i* sees ready only
    when the output is ready and every *other* input is valid, so all
    inputs transfer in the same cycle (token alignment).
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[ElasticChannel],
        out: ElasticChannel,
        combine: Callable[..., Any] | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(inputs) < 2:
            raise ValueError("Join needs at least two inputs")
        self.inputs = list(inputs)
        self.out = out
        self._combine = combine if combine is not None else lambda *xs: tuple(xs)
        for ch in self.inputs:
            ch.connect_consumer(self)
            self.declare_reads(ch.valid, ch.data)
        out.connect_producer(self)
        self.declare_reads(out.ready)

    def combinational(self) -> None:
        valids = [ch.valid.value for ch in self.inputs]
        all_valid = all(valids)
        out_ready = self.out.ready.value
        self.out.valid.set(all_valid)
        if all_valid:
            self.out.data.set(self._combine(*[ch.data.value for ch in self.inputs]))
        else:
            self.out.data.set(X)
        for i, ch in enumerate(self.inputs):
            others = all(v for j, v in enumerate(valids) if j != i)
            ch.ready.set(out_ready and others)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", 2 * len(self.inputs), 1)]


class LazyFork(Component):
    """Replicate a channel to N outputs; transfer only when all are ready."""

    def __init__(
        self,
        name: str,
        inp: ElasticChannel,
        outputs: Sequence[ElasticChannel],
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(outputs) < 2:
            raise ValueError("Fork needs at least two outputs")
        self.inp = inp
        self.outputs = list(outputs)
        inp.connect_consumer(self)
        self.declare_reads(inp.valid, inp.data)
        for ch in self.outputs:
            ch.connect_producer(self)
            self.declare_reads(ch.ready)

    def combinational(self) -> None:
        in_valid = self.inp.valid.value
        readies = [ch.ready.value for ch in self.outputs]
        self.inp.ready.set(all(readies))
        for i, ch in enumerate(self.outputs):
            others = all(r for j, r in enumerate(readies) if j != i)
            ch.valid.set(in_valid and others)
            ch.data.set(self.inp.data.value if in_valid else X)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", 2 * len(self.outputs), 1)]


class EagerFork(Component):
    """Replicate a channel to N outputs, serving each as soon as possible.

    A registered ``served`` flag per output remembers which consumers have
    already taken the current item; the input token retires when every
    consumer has been served.
    """

    def __init__(
        self,
        name: str,
        inp: ElasticChannel,
        outputs: Sequence[ElasticChannel],
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(outputs) < 2:
            raise ValueError("Fork needs at least two outputs")
        self.inp = inp
        self.outputs = list(outputs)
        inp.connect_consumer(self)
        self.declare_reads(inp.valid, inp.data)
        for ch in self.outputs:
            ch.connect_producer(self)
            self.declare_reads(ch.ready)
        self._served = [False] * len(outputs)
        self._next: list[bool] | None = None

    def combinational(self) -> None:
        in_valid = self.inp.valid.value
        # The token retires when, for every branch, it was served earlier
        # or is being served right now.
        done = [self._served[i] or ch.ready.value for i, ch in enumerate(self.outputs)]
        self.inp.ready.set(in_valid and all(done))
        for i, ch in enumerate(self.outputs):
            ch.valid.set(in_valid and not self._served[i])
            ch.data.set(self.inp.data.value if in_valid else X)

    def capture(self) -> None:
        served = list(self._served)
        for i, ch in enumerate(self.outputs):
            if ch.transfer:
                served[i] = True
        if self.inp.transfer:
            served = [False] * len(self.outputs)
        self._next = served

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = self._served != self._next
        self._served = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._served = [False] * len(self.outputs)
        self._next = None

    def area_items(self) -> list[tuple[str, int, int]]:
        n = len(self.outputs)
        return [("ff", n, 1), ("lut", 3 * n, 1)]


class Branch(Component):
    """Route each item to one of N outputs based on a data-derived condition.

    ``selector(data)`` must return the output index (a bool works for the
    common two-way case: ``False`` routes to output 0, ``True`` to 1).
    An optional ``route`` function transforms the payload on the way out
    (e.g. stripping the condition field).
    """

    def __init__(
        self,
        name: str,
        inp: ElasticChannel,
        outputs: Sequence[ElasticChannel],
        selector: Callable[[Any], int | bool],
        route: Callable[[Any], Any] | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(outputs) < 2:
            raise ValueError("Branch needs at least two outputs")
        self.inp = inp
        self.outputs = list(outputs)
        self._selector = selector
        self._route = route if route is not None else lambda d: d
        inp.connect_consumer(self)
        self.declare_reads(inp.valid, inp.data)
        for ch in self.outputs:
            ch.connect_producer(self)
            self.declare_reads(ch.ready)

    def _select(self, data: Any) -> int:
        sel = self._selector(data)
        index = int(sel)
        if not 0 <= index < len(self.outputs):
            raise ProtocolError(
                f"{self.path}: selector returned {sel!r} for {len(self.outputs)}"
                " outputs"
            )
        return index

    def combinational(self) -> None:
        in_valid = self.inp.valid.value
        if not in_valid:
            self.inp.ready.set(False)
            for ch in self.outputs:
                ch.valid.set(False)
                ch.data.set(X)
            return
        index = self._select(self.inp.data.value)
        for i, ch in enumerate(self.outputs):
            take = i == index
            ch.valid.set(take)
            ch.data.set(self._route(self.inp.data.value) if take else X)
        self.inp.ready.set(self.outputs[index].ready.value)

    def area_items(self) -> list[tuple[str, int, int]]:
        n = len(self.outputs)
        return [("lut", 2 * n, 1)]


class Merge(Component):
    """Funnel mutually exclusive inputs into one output.

    By construction (items arrive from the two sides of a :class:`Branch`)
    at most one input is valid per cycle.  With ``strict=True`` (default) a
    simultaneous-valid cycle raises :class:`ProtocolError`; with
    ``strict=False`` the lowest-index input wins and the other waits.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[ElasticChannel],
        out: ElasticChannel,
        strict: bool = True,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(inputs) < 2:
            raise ValueError("Merge needs at least two inputs")
        self.inputs = list(inputs)
        self.out = out
        self.strict = strict
        for ch in self.inputs:
            ch.connect_consumer(self)
            self.declare_reads(ch.valid, ch.data)
        out.connect_producer(self)
        self.declare_reads(out.ready)

    def combinational(self) -> None:
        valids = [ch.valid.value for ch in self.inputs]
        chosen: int | None = None
        for i, v in enumerate(valids):
            if v:
                if chosen is None:
                    chosen = i
                elif self.strict:
                    raise ProtocolError(
                        f"{self.path}: inputs {chosen} and {i} valid in the "
                        "same cycle (merge inputs must be mutually exclusive)"
                    )
        out_ready = self.out.ready.value
        self.out.valid.set(chosen is not None)
        self.out.data.set(self.inputs[chosen].data.value if chosen is not None else X)
        for i, ch in enumerate(self.inputs):
            ch.ready.set(out_ready and chosen == i)

    def area_items(self) -> list[tuple[str, int, int]]:
        n = len(self.inputs)
        width = self.out.width
        return [("mux2", n - 1, width), ("lut", 2 * n, 1)]
