"""Single-thread elastic channels (paper §II, Fig. 2(a)).

An elastic channel replaces a plain data connection with three wires:
``data``, a forward ``valid`` and a backward ``ready``.  A transfer happens
in every cycle where both handshake wires are high.

The channel is modelled as a (behaviour-free) :class:`Component` so its
signals participate in the simulator's settle loop and appear in traces
under a readable name.  The producer side drives ``valid``/``data``; the
consumer side drives ``ready``.  ``valid`` and ``ready`` are
:class:`~repro.kernel.signal.ControlSignal` s, so they hold only bools.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.component import Component


class ElasticChannel(Component):
    """A valid/ready/data bundle connecting one producer to one consumer."""

    def __init__(self, name: str, width: int = 32, parent: Component | None = None):
        super().__init__(name, parent=parent)
        self.width = int(width)
        self.valid = self.control("valid")
        self.ready = self.control("ready")
        self.data = self.signal("data", width=self.width)

    # ------------------------------------------------------------------
    # connection bookkeeping (single producer / single consumer)
    # ------------------------------------------------------------------
    def connect_producer(self, component: Component) -> "ElasticChannel":
        """Declare *component* as the driver of ``valid`` and ``data``."""
        self.valid.set_driver(component)
        self.data.set_driver(component)
        return self

    def connect_consumer(self, component: Component) -> "ElasticChannel":
        """Declare *component* as the driver of ``ready``."""
        self.ready.set_driver(component)
        return self

    # ------------------------------------------------------------------
    # settled-value helpers
    # ------------------------------------------------------------------
    @property
    def transfer(self) -> bool:
        """True when a data item moves across the channel this cycle."""
        return self.valid.value and self.ready.value

    @property
    def stalled(self) -> bool:
        """True when the producer offers data but the consumer refuses it."""
        return self.valid.value and not self.ready.value

    @property
    def idle(self) -> bool:
        """True when no data is offered this cycle."""
        return not self.valid.value

    def payload(self) -> Any:
        """The data value currently on the channel."""
        return self.data.value

    def __repr__(self) -> str:
        return f"<ElasticChannel {self.path} width={self.width}>"


def channels(prefix: str, count: int, width: int = 32) -> list[ElasticChannel]:
    """Create *count* channels named ``{prefix}0 .. {prefix}{count-1}``."""
    return [ElasticChannel(f"{prefix}{i}", width=width) for i in range(count)]
