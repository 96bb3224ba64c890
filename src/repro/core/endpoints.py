"""Multithreaded traffic endpoints: sources and sinks for MT channels.

An :class:`MTSource` holds an independent item stream per thread and
injects at most one thread per cycle (the MT channel carries one), picking
among pending threads with the same round-robin + downstream-ready masking
an MEB uses.  An :class:`MTSink` applies an independent readiness (stall)
pattern per thread — the mechanism behind the paper's Fig. 5 experiment
where "thread B stalls" for a window while thread A keeps draining.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.arbiter import GrantPolicy, RoundRobinArbiter
from repro.core.mtchannel import MTChannel, one_hot_thread, one_hot_vectors
from repro.elastic.endpoints import Pattern, _pattern_fn
from repro.kernel.component import Component
from repro.kernel.slots import SeqPlan
from repro.kernel.values import X, same_value


class MTSource(Component):
    """Injects per-thread item streams into an MT channel.

    Parameters
    ----------
    items:
        One iterable of items per thread (length must equal the channel's
        thread count).  A thread with an empty list simply never injects.
    patterns:
        Optional per-thread injection gates; a thread only competes for
        the channel in cycles where its gate is open.
    policy:
        Grant policy for choosing among pending threads (default: masked
        by downstream ready with fallback, like the MEBs).
    """

    #: Items (rows, for an ensemble) are presented on the data bus by
    #: reference; injection decisions read only gates and handshakes.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        channel: MTChannel,
        items: Sequence[Iterable[Any]],
        patterns: Sequence[Pattern] | Mapping[int, Pattern] | None = None,
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.channel = channel
        self.threads = channel.threads
        if len(items) != self.threads:
            raise ValueError(
                f"{name}: need one item stream per thread "
                f"({self.threads}), got {len(items)}"
            )
        self._items: list[list[Any]] = [list(seq) for seq in items]
        self._gates: list[Callable[[int], bool]] = []
        self._gates_trivial = patterns is None
        for t in range(self.threads):
            if patterns is None:
                pat: Pattern = None
            elif isinstance(patterns, Mapping):
                pat = patterns.get(t)
            else:
                pat = patterns[t]
            self._gates.append(_pattern_fn(pat))
        self.policy = policy
        self.arbiter = RoundRobinArbiter(self.threads, rotate_on_stall=True)
        channel.connect_producer(self)
        # Downstream readies mask the injection arbiter's requests.
        self.declare_reads(channel.ready)
        if patterns is not None:
            # Injection gates consult the cycle counter, which advances
            # outside the signal graph.
            self.declare_volatile()
        # Registered state; the per-thread stream positions are
        # slot-backed ([index×S], private until compile_seq re-homes
        # them into the SeqStore).
        self._sstore: list[Any] = [0] * self.threads
        self._sq = 0
        self._cycle = 0
        self._blocked: set[int] = set()
        self._chosen: int | None = None
        self._next: tuple[list[int], int] | None = None
        self.sent: list[tuple[int, int, Any]] = []

    @property
    def _index(self) -> list[int]:
        sq = self._sq
        return self._sstore[sq:sq + self.threads]

    @_index.setter
    def _index(self, index: list[int]) -> None:
        sq = self._sq
        self._sstore[sq:sq + self.threads] = index

    # ------------------------------------------------------------------
    # external control
    # ------------------------------------------------------------------
    def push(self, thread: int, item: Any) -> None:
        """Append an item to a thread's stream (usable mid-simulation)."""
        self._items[thread].append(item)
        self.invalidate()

    def block(self, thread: int) -> None:
        """Stop injecting for *thread* until :meth:`unblock` (flow gating)."""
        self._blocked.add(thread)
        self.invalidate()

    def unblock(self, thread: int) -> None:
        self._blocked.discard(thread)
        self.invalidate()

    def pending(self, thread: int) -> int:
        return len(self._items[thread]) - self._sstore[self._sq + thread]

    @property
    def exhausted(self) -> bool:
        return all(self.pending(t) == 0 for t in range(self.threads))

    def sent_by_thread(self, thread: int) -> list[Any]:
        return [d for _c, t, d in self.sent if t == thread]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _eligible(self) -> list[bool]:
        return [
            self.pending(t) > 0
            and t not in self._blocked
            and self._gates[t](self._cycle)
            for t in range(self.threads)
        ]

    def combinational(self) -> None:
        eligible = self._eligible()
        readies = [sig.value for sig in self.channel.ready]
        requests = self.policy.requests(eligible, readies)
        chosen = self.arbiter.grant(requests)
        self._chosen = chosen
        for t in range(self.threads):
            self.channel.valid[t].set(chosen == t)
        if chosen is not None:
            self.channel.data.set(self._items[chosen][self._index[chosen]])
        else:
            self.channel.data.set(X)

    def compile_comb(self, store):
        """Slot-compiled injection: slice-read readies, slice-write valids."""
        if type(self).combinational is not MTSource.combinational:
            return None
        if type(self.arbiter).grant is not RoundRobinArbiter.grant:
            return None
        valid_blk = store.range_of(self.channel.valid)
        ready_blk = store.range_of(self.channel.ready)
        data_slot = store.slot_or_none(self.channel.data)
        if None in (valid_blk, ready_blk, data_slot):
            return None
        values = store.values
        dirty = store.dirty
        valid_readers = store.readers_of(self.channel.valid)
        data_readers = store.readers_of((self.channel.data,))
        vb, ve = valid_blk
        rb, re_ = ready_blk
        requests_of = self.policy.requests_fast
        grant_fast = self.arbiter.grant_fast
        falses = [False] * self.threads
        one_hot = one_hot_vectors(self.threads)
        trivial = self._gates_trivial
        sstore = self._sstore
        sq = self._sq
        sqe = sq + self.threads

        def step() -> bool:
            index = sstore[sq:sqe]
            items = self._items
            if trivial and not self._blocked:
                eligible = [i < len(q) for i, q in zip(index, items)]
            else:
                # General gates may return truthy non-bools; normalize so
                # the arbiter's index scan stays exact.
                eligible = list(map(bool, self._eligible()))
            chosen = grant_fast(requests_of(eligible, values[rb:re_]))
            self._chosen = chosen
            if chosen is None:
                new_valid = falses
                new_data = X
            else:
                new_valid = one_hot[chosen]
                new_data = items[chosen][index[chosen]]
            changed = False
            if values[vb:ve] != new_valid:
                values[vb:ve] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            old = values[data_slot]
            if old is not new_data and not same_value(old, new_data):
                values[data_slot] = new_data
                if data_readers:
                    dirty.update(data_readers)
                changed = True
            return changed

        return step

    def compile_seq(self, seq):
        """Columnar tick plan: slot-level transfer check on re-homed
        stream positions; skipped idle cycles advance the pattern clock
        through ``repeat``.

        Valid for patterned sources too: the injection gates only act
        through the combinational offer, which the watched valid/data
        slots reflect, and the pattern clock advances identically on the
        replay path.
        """
        cls = type(self)
        if (cls.capture is not MTSource.capture
                or cls.commit is not MTSource.commit):
            return None
        store = seq.store
        valid = store.range_of(self.channel.valid)
        ready = store.range_of(self.channel.ready)
        data_slot = store.slot_or_none(self.channel.data)
        if None in (valid, ready, data_slot):
            return None
        # Re-home the per-thread stream positions.
        threads = self.threads
        sq = seq.alloc(self._sstore[self._sq:self._sq + threads])
        self._sstore = seq.values
        self._sq = sq
        svalues = seq.values
        sqe = sq + threads
        values = store.values
        rb = ready[0]
        arb = self.arbiter
        sent = self.sent

        def capture(cycle) -> None:
            chosen = self._chosen
            if chosen is not None and values[rb + chosen]:
                sent.append((cycle, chosen, values[data_slot]))
                index = svalues[sq:sqe]
                index[chosen] += 1
                arb.note(chosen, True)
                self._next = (index, cycle + 1)
            else:
                # Nothing injected: the stream positions stay as they are.
                arb.note(chosen, False)
                self._next = (None, cycle + 1)

        def commit() -> bool:
            changed = arb.commit()
            nxt = self._next
            if nxt is not None:
                index = nxt[0]
                if index is not None:
                    changed = changed or svalues[sq:sqe] != index
                    svalues[sq:sqe] = index
                self._cycle = nxt[1]
                self._next = None
            return changed

        def repeat(cycle) -> None:
            self._cycle += 1

        watch = (ready, valid, (data_slot, data_slot + 1))
        return SeqPlan(self, capture, commit, watch, repeat=repeat,
                       state=((sq, sqe),))

    def capture(self) -> None:
        index = list(self._index)
        transferred = False
        if self._chosen is not None and self.channel.ready[self._chosen].value:
            transferred = True
            self.sent.append(
                (self._cycle, self._chosen, self.channel.data.value)
            )
            index[self._chosen] += 1
        self.arbiter.note(self._chosen, transferred)
        self._next = (index, self._cycle + 1)

    def commit(self) -> bool:
        changed = self.arbiter.commit()
        if self._next is not None:
            changed = changed or self._index != self._next[0]
            self._index, self._cycle = self._next
            self._next = None
        return changed

    def reset(self) -> None:
        self.arbiter.reset()
        self._index = [0] * self.threads
        self._cycle = 0
        self._chosen = None
        self._next = None
        # In-place clear: the compiled tick plan binds this list.
        self.sent.clear()


class MTSink(Component):
    """Consumes an MT channel under independent per-thread stall patterns."""

    #: Received payloads (rows, for an ensemble) are logged by reference;
    #: stall decisions read only patterns and handshakes.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        channel: MTChannel,
        patterns: Sequence[Pattern] | Mapping[int, Pattern] | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.channel = channel
        self.threads = channel.threads
        self._gates: list[Callable[[int], bool]] = []
        self._gates_trivial = patterns is None
        for t in range(self.threads):
            if patterns is None:
                pat: Pattern = None
            elif isinstance(patterns, Mapping):
                pat = patterns.get(t)
            else:
                pat = patterns[t]
            self._gates.append(_pattern_fn(pat))
        channel.connect_consumer(self)
        self.declare_reads()
        if patterns is not None:
            self.declare_volatile()
        self._cycle = 0
        self._next_cycle: int | None = None
        self.received: list[tuple[int, int, Any]] = []

    @property
    def count(self) -> int:
        return len(self.received)

    def count_for(self, thread: int) -> int:
        return sum(1 for _c, t, _d in self.received if t == thread)

    def values_for(self, thread: int) -> list[Any]:
        return [d for _c, t, d in self.received if t == thread]

    def cycles_for(self, thread: int) -> list[int]:
        return [c for c, t, _d in self.received if t == thread]

    def combinational(self) -> None:
        for t in range(self.threads):
            self.channel.ready[t].set(self._gates[t](self._cycle))

    def compile_comb(self, store):
        """Slot-compiled stall gating: one slice write for all S readies."""
        if type(self).combinational is not MTSink.combinational:
            return None
        ready_blk = store.range_of(self.channel.ready)
        if ready_blk is None:
            return None
        values = store.values
        dirty = store.dirty
        ready_readers = store.readers_of(self.channel.ready)
        rb, re_ = ready_blk
        gates = self._gates
        trues = [True] * self.threads
        trivial = self._gates_trivial

        def step() -> bool:
            if trivial:
                new_ready = trues
            else:
                cycle = self._cycle
                # Raw slot writes must be bools, like ControlSignal.set.
                new_ready = [bool(gate(cycle)) for gate in gates]
            if values[rb:re_] != new_ready:
                values[rb:re_] = new_ready
                if ready_readers:
                    dirty.update(ready_readers)
                return True
            return False

        return step

    def capture(self) -> None:
        t = self.channel.transfer_thread()
        if t is not None:
            self.received.append((self._cycle, t, self.channel.data.value))
        self._next_cycle = self._cycle + 1

    def compile_seq(self, seq):
        """Delta-gated tick plan with bulk replay (see MTSource's)."""
        cls = type(self)
        if (cls.capture is not MTSink.capture
                or cls.commit is not MTSink.commit):
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
        received = self.received
        #: last observation: (thread, data) of a repeating transfer, or None
        last: list[Any] = [None]

        def capture(cycle) -> None:
            active = one_hot_thread(values[vb:ve], ch_path)
            if active is not None and values[rb + active]:
                data = values[data_slot]
                received.append((cycle, active, data))
                last[0] = (active, data)
            else:
                last[0] = None
            self._next_cycle = cycle + 1

        def repeat(cycle) -> None:
            transfer = last[0]
            if transfer is not None:
                received.append((cycle, *transfer))
            self._cycle += 1

        watch = (valid, ready, (data_slot, data_slot + 1))
        return SeqPlan(self, capture, self.commit, watch, repeat=repeat)

    def commit(self) -> bool:
        if self._next_cycle is not None:
            self._cycle = self._next_cycle
            self._next_cycle = None
        # ready is a pure function of the (volatile-covered) gates.
        return False

    def reset(self) -> None:
        self._cycle = 0
        self._next_cycle = None
        # In-place clear: the compiled tick plan binds this list.
        self.received.clear()
