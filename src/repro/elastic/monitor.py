"""Elastic-protocol monitors (assertion checkers).

A :class:`ChannelMonitor` watches one elastic channel and enforces the
protocol rules of the SELF-style handshake the paper builds on:

* **Persistence** — once ``valid`` is asserted it must stay asserted until
  the transfer completes (a producer may not withdraw an offer).
* **Data stability** — while an offer is stalled (``valid & !ready``) the
  data must not change.

It also records every transfer, which downstream analysis code uses for
token-conservation and ordering checks ("behaviourally equivalent ... with
respect to the trace of valid data", paper §I).
"""

from __future__ import annotations

from typing import Any

from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.errors import ProtocolError
from repro.kernel.slots import SeqPlan
from repro.kernel.values import same_value


class ChannelMonitor(Component):
    """Passive protocol checker and transfer recorder for one channel."""

    def __init__(
        self,
        name: str,
        channel: ElasticChannel,
        check_persistence: bool = True,
        check_stability: bool = True,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.channel = channel
        self.check_persistence = check_persistence
        self.check_stability = check_stability
        # Registered observation state.
        self._cycle = 0
        self._stalled_prev = False
        self._stalled_data: Any = None
        self._pending: tuple[int, bool, Any] | None = None
        self.transfers: list[tuple[int, Any]] = []
        self.stall_cycles = 0
        self.idle_cycles = 0

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    @property
    def transfer_count(self) -> int:
        return len(self.transfers)

    def values(self) -> list[Any]:
        return [data for _cycle, data in self.transfers]

    def transfer_cycles(self) -> list[int]:
        return [cycle for cycle, _data in self.transfers]

    def throughput(self) -> float:
        """Transfers per observed cycle (0.0 when nothing observed)."""
        return self.transfer_count / self._cycle if self._cycle else 0.0

    # ------------------------------------------------------------------
    # evaluation: observe in capture (settled values), commit bookkeeping
    # ------------------------------------------------------------------
    def capture(self) -> None:
        valid = self.channel.valid.value
        ready = self.channel.ready.value
        data = self.channel.data.value

        if self._stalled_prev:
            if self.check_persistence and not valid:
                raise ProtocolError(
                    f"{self.path}: valid withdrawn on {self.channel.path} "
                    f"at cycle {self._cycle} before transfer completed"
                )
            if (
                self.check_stability
                and valid
                and not same_value(data, self._stalled_data)
            ):
                raise ProtocolError(
                    f"{self.path}: data changed on {self.channel.path} while "
                    f"stalled at cycle {self._cycle}: "
                    f"{self._stalled_data!r} -> {data!r}"
                )

        if valid and ready:
            self.transfers.append((self._cycle, data))
            stalled_now = False
        elif valid:
            self.stall_cycles += 1
            stalled_now = True
        else:
            self.idle_cycles += 1
            stalled_now = False
        self._pending = (self._cycle + 1, stalled_now, data if stalled_now else None)

    def compile_seq(self, seq):
        """Delta-gated tick plan that replays idle/stall cycles.

        The observation (including both protocol checks) is a pure
        function of the watched valid/ready/data slots and the stall
        bookkeeping, so an unchanged watch set replays the previous
        classification: ``repeat`` bumps the stall/idle counter — or
        appends a transfer stamped with the current cycle.
        """
        cls = type(self)
        if (cls.capture is not ChannelMonitor.capture
                or cls.commit is not ChannelMonitor.commit):
            return None
        store = seq.store
        vs = store.slot_or_none(self.channel.valid)
        rs = store.slot_or_none(self.channel.ready)
        ds = store.slot_or_none(self.channel.data)
        if None in (vs, rs, ds):
            return None
        values = store.values
        capture_fn = self.capture
        #: last classification: "transfer" | "stall" | "idle"
        last = ["idle", None]

        def capture(cycle) -> None:
            capture_fn()
            valid = values[vs]
            if valid and values[rs]:
                last[0], last[1] = "transfer", values[ds]
            elif valid:
                last[0] = "stall"
            else:
                last[0] = "idle"

        def repeat(cycle) -> None:
            kind = last[0]
            if kind == "transfer":
                self.transfers.append((cycle, last[1]))
            elif kind == "stall":
                self.stall_cycles += 1
            else:
                self.idle_cycles += 1
            self._cycle += 1

        watch = ((vs, vs + 1), (rs, rs + 1), (ds, ds + 1))
        return SeqPlan(self, capture, self.commit, watch, repeat=repeat)

    def commit(self) -> bool:
        if self._pending is not None:
            self._cycle, self._stalled_prev, self._stalled_data = self._pending
            self._pending = None
        # Pure observer: nothing combinational depends on this state.
        return False

    def reset(self) -> None:
        self._cycle = 0
        self._stalled_prev = False
        self._stalled_data = None
        self._pending = None
        # In-place clear: the compiled tick plan binds this list.
        self.transfers.clear()
        self.stall_cycles = 0
        self.idle_cycles = 0
