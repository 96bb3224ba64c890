"""Multithreaded elastic buffers: the paper's central primitives (§III, §IV-A).

* :class:`FullMEB` — the baseline of Fig. 4: one 2-slot elastic buffer per
  thread plus an output arbiter and mux.  ``2·S`` data slots for ``S``
  threads; every thread can always overlap a stall with a refill, so a
  lone active thread keeps 100% throughput no matter what the other
  threads do.

* :class:`ReducedMEB` — the proposed buffer of Fig. 6: one main register
  per thread plus a **single auxiliary register dynamically shared by all
  threads** (``S + 1`` slots).  Each thread runs the 3-state
  EMPTY/HALF/FULL elastic control FSM; a 2-state FSM on the shared slot
  guarantees that only one thread is in FULL at a time.  Under uniform
  utilization each active thread still gets ``1/M`` throughput; the only
  degradation (paper §III-A, Fig. 5(b)) is the 50% case when every other
  thread is blocked and the shared slots up to the source are all held by
  a blocked thread.

Both expose the same interface: an upstream :class:`MTChannel` whose
``ready[i]`` they drive and a downstream :class:`MTChannel` whose
``valid[i]``/``data`` they drive.  ``ready[i]`` and the per-thread
occupancies are functions of registered state only, so MEB-to-MEB links
have no backward combinational paths.

Each buffer has a reference step (``combinational``/``capture``/
``commit``, what the ``naive`` oracle runs) and one compiled step: an
inlined settle step (``compile_comb``) and a columnar tick plan
(``compile_seq``).  The compiled steps read the storage directly, so
they return ``None`` — the engine then runs the reference step — when a
subclass overrides what they inline: ``combinational``, ``occupancy``,
``can_accept`` or ``head`` for the settle step, ``capture`` or
``commit`` for the tick plan.
"""

from __future__ import annotations

from typing import Any

from repro.core.arbiter import GrantPolicy, RoundRobinArbiter
from repro.core.mtchannel import MTChannel, one_hot_vectors
from repro.kernel.component import Component
from repro.kernel.errors import ProtocolError, SimulationError
from repro.kernel.slots import SeqPlan
from repro.kernel.values import X, same_value, state_changed

#: Per-thread elastic control states (paper Fig. 6).
EMPTY = "EMPTY"
HALF = "HALF"
FULL = "FULL"

#: Items held by a ReducedMEB thread in each control state.
_OCCUPANCY = {EMPTY: 0, HALF: 1, FULL: 2}

#: Methods the inlined settle step reads through instead of calling.
_SETTLE_HOOKS = ("combinational", "occupancy", "can_accept", "head")
#: Methods the columnar tick plan replaces.
_TICK_HOOKS = ("capture", "commit")


def _seq_input_thread(values, uvb, uve, urb, path, up_path):
    """Slot-level ``_input_thread``: the enqueueing thread, or ``None``.

    Shared by the Full/Reduced compiled tick captures; keeps the exact
    scalar-path semantics and ordering — the one-valid-per-cycle
    invariant first, then the ready gate.  The raw valid slice holds only
    bools (handshake wires are ``ControlSignal`` s), so one C-speed
    ``count`` and one ``index`` answer it.
    """
    valids = values[uvb:uve]
    count = valids.count(True)
    if count == 0:
        return None
    if count > 1:
        raise ProtocolError(
            f"{path}: {count} threads valid on "
            f"{up_path} in one cycle (MT channels carry one)"
        )
    thread = valids.index(True)
    if values[urb + thread]:
        return thread
    return None


class _MEBBase(Component):
    """Shared scaffolding: channels, arbiter, output stage, input checks."""

    #: Queues/slots store payloads by reference; grants look only at
    #: handshakes, never inside the data.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        up: MTChannel,
        down: MTChannel,
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        rotate_on_stall: bool = True,
        latch_style: bool = False,
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
        self.policy = policy
        # Paper §III: MEBs "can be designed in a modular manner either
        # with regular edge-triggered flip flops or level sensitive
        # latches".  The cycle behaviour is identical; only the storage
        # primitive reported to the cost model changes.
        self.latch_style = latch_style
        self.arbiter = RoundRobinArbiter(self.threads, rotate_on_stall)
        up.connect_consumer(self)
        down.connect_producer(self)
        # Occupancy and per-thread ready are registered; the only
        # combinational inputs are the downstream readies masking the
        # arbiter's request vector.
        self.declare_reads(down.ready)
        # Hot-path caches: the per-thread signal lists are scanned every
        # evaluation, so avoid re-resolving them through the channels.
        self._down_ready_sigs = list(down.ready)
        self._down_valid_sigs = list(down.valid)
        self._up_ready_sigs = list(up.ready)
        self._up_valid_sigs = list(up.valid)
        self._grant: int | None = None

    @property
    def _storage_kind(self) -> str:
        return "latch" if self.latch_style else "ff"

    # -- subclass contract -------------------------------------------------
    def occupancy(self, thread: int) -> int:
        raise NotImplementedError

    def head(self, thread: int) -> Any:
        raise NotImplementedError

    def can_accept(self, thread: int) -> bool:
        raise NotImplementedError

    # -- common occupancy helpers ------------------------------------------
    def total_occupancy(self) -> int:
        return sum(self.occupancy(i) for i in range(self.threads))

    # -- evaluation ----------------------------------------------------------
    def combinational(self) -> None:
        valids = [self.occupancy(i) > 0 for i in range(self.threads)]
        readies = [sig.value for sig in self._down_ready_sigs]
        requests = self.policy.requests(valids, readies)
        grant = self.arbiter.grant(requests)
        self._grant = grant
        for i, sig in enumerate(self._down_valid_sigs):
            sig.set(grant == i)
        for i, sig in enumerate(self._up_ready_sigs):
            sig.set(self.can_accept(i))
        self.down.data.set(self.head(grant) if grant is not None else X)

    def _overrides(self, stock: type, names: tuple[str, ...]) -> bool:
        """Whether this object's class replaces any of *stock*'s *names*."""
        cls = type(self)
        return any(getattr(cls, n) is not getattr(stock, n) for n in names)

    def _compile_layout(self, store) -> tuple | None:
        """Resolve the slot/reader plumbing shared by every MEB step."""
        down_valid = store.range_of(self._down_valid_sigs)
        down_ready = store.range_of(self._down_ready_sigs)
        up_ready = store.range_of(self._up_ready_sigs)
        data_slot = store.slot_or_none(self.down.data)
        if None in (down_valid, down_ready, up_ready, data_slot):
            return None
        return (
            store.values,
            store.dirty,
            down_valid[0], down_valid[1],
            down_ready[0], down_ready[1],
            up_ready[0], up_ready[1],
            data_slot,
            store.readers_of(self._down_valid_sigs),
            store.readers_of(self._up_ready_sigs),
            store.readers_of((self.down.data,)),
        )

    def _seq_layout(self, seq):
        """Resolve the capture-side slot layout shared by the MEB plans.

        Returns ``(down_ready, up_valid, up_ready, up_data, watch)`` or
        ``None`` when any handshake signal did not land on store slots.
        """
        store = seq.store
        down_ready = store.range_of(self._down_ready_sigs)
        up_valid = store.range_of(self._up_valid_sigs)
        up_ready = store.range_of(self._up_ready_sigs)
        up_data = store.slot_or_none(self.up.data)
        if None in (down_ready, up_valid, up_ready, up_data):
            return None
        watch = (down_ready, up_valid, up_ready, (up_data, up_data + 1))
        return down_ready, up_valid, up_ready, up_data, watch

    def _input_thread(self) -> int | None:
        """The (single) thread transferring in this cycle, with checks."""
        valids = self.up.valids()
        count = valids.count(True)
        if count > 1:
            raise ProtocolError(
                f"{self.path}: {count} threads valid on "
                f"{self.up.path} in one cycle (MT channels carry one)"
            )
        if count:
            thread = valids.index(True)
            if self.up.ready[thread].value:
                return thread
        return None

    def _output_transferred(self) -> bool:
        grant = self._grant
        return grant is not None and self.down.ready[grant].value

    def commit(self) -> bool:
        return self.arbiter.commit()

    def reset(self) -> None:
        self.arbiter.reset()
        self._grant = None


class FullMEB(_MEBBase):
    """Baseline MEB: a private 2-slot FIFO per thread (paper Fig. 4)."""

    SLOTS_PER_THREAD = 2

    def __init__(
        self,
        name: str,
        up: MTChannel,
        down: MTChannel,
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        rotate_on_stall: bool = True,
        latch_style: bool = False,
        parent: Component | None = None,
    ):
        super().__init__(name, up, down, policy, rotate_on_stall,
                         latch_style=latch_style, parent=parent)
        # Slot-backed sequential state: the S per-thread queues live in
        # `_sstore[_sq + t]` — a private list until compile_seq re-homes
        # them into the design-wide SeqStore (exactly like Signal's
        # private one-element store before SlotStore re-homing).  The
        # `_queues` property views/updates the same cells.
        self._sstore: list[Any] = [[] for _ in range(self.threads)]
        self._sq = 0
        self._next_queues: list[list[Any]] | None = None

    # -- storage interface ---------------------------------------------------
    @property
    def _queues(self) -> list[list[Any]]:
        sq = self._sq
        return self._sstore[sq:sq + self.threads]

    @_queues.setter
    def _queues(self, queues: list[list[Any]]) -> None:
        sq = self._sq
        self._sstore[sq:sq + self.threads] = queues

    def occupancy(self, thread: int) -> int:
        return len(self._sstore[self._sq + thread])

    def head(self, thread: int) -> Any:
        return self._sstore[self._sq + thread][0]

    def can_accept(self, thread: int) -> bool:
        return len(self._sstore[self._sq + thread]) < self.SLOTS_PER_THREAD

    def compile_comb(self, store):
        """Inlined :meth:`combinational`: batched handshake IO.

        Reads the queue block and the S downstream readies as slices and
        writes the S ``valid`` and S ``ready`` outputs with one slice
        compare-and-assign each, marking a block's declared readers only
        when it changed.  One count of the empty queues picks the path:
        with every queue empty the step publishes constants, with one
        occupant that thread is the grant under every policy, and only
        two or more occupants build a request vector for the arbiter.

        ``None`` when a subclass overrides a settle hook the step inlines
        or the arbiter's grant rule, or when the handshake signals did
        not land on packed slots.
        """
        if self._overrides(FullMEB, _SETTLE_HOOKS):
            return None
        if type(self.arbiter).grant is not RoundRobinArbiter.grant:
            return None
        layout = self._compile_layout(store)
        if layout is None:
            return None
        (values, dirty, vb, ve, rb, re_, ub, ue, data_slot,
         valid_readers, accept_readers, data_readers) = layout
        masked_only = self.policy is GrantPolicy.MASKED
        requests_of = self.policy.requests_fast
        grant_fast = self.arbiter.grant_fast
        threads = self.threads
        last = threads - 1
        falses = [False] * threads
        trues = [True] * threads
        one_hot = one_hot_vectors(threads)
        refusing = one_hot_vectors(threads, False)
        no_items: list[Any] = []
        unknown = X
        capacity = self.SLOTS_PER_THREAD
        # Compile-time binding of the (possibly re-homed) queue block;
        # rebuild()/reset() recompiles, so the binding stays fresh.
        sstore = self._sstore
        sq = self._sq
        sqe = sq + threads

        def step() -> bool:
            queues = sstore[sq:sqe]
            readies = values[rb:re_]
            idle = queues.count(no_items)
            if idle == threads:
                # Every queue empty: no grant, every thread accepts.
                grant = None
                accepts = trues
            else:
                valids = list(map(bool, queues))
                if idle == last:
                    # One occupied thread: the only request under every
                    # policy, and the only thread that may refuse.
                    only = valids.index(True)
                    grant = None if masked_only and not readies[only] else only
                    accepts = trues if len(queues[only]) < capacity else refusing[only]
                else:
                    grant = grant_fast(requests_of(valids, readies))
                    accepts = [len(q) < capacity for q in queues]
            self._grant = grant
            if grant is None:
                new_valid = falses
                new_data = unknown
            else:
                new_valid = one_hot[grant]
                new_data = queues[grant][0]
            changed = False
            if values[vb:ve] != new_valid:
                values[vb:ve] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            if values[ub:ue] != accepts:
                values[ub:ue] = accepts
                if accept_readers:
                    dirty.update(accept_readers)
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
        """Columnar tick plan: re-homed queues, slot-level transfer
        detection, delta-gated by the watch set.

        ``None`` (legacy per-cycle dispatch) when a subclass overrides
        ``capture`` or ``commit``, or when the layout does not resolve.
        """
        if self._overrides(FullMEB, _TICK_HOOKS):
            return None
        layout = self._seq_layout(seq)
        if layout is None:
            return None
        down_ready, up_valid, up_ready, up_data, watch = layout
        # Re-home the per-thread queues into the columnar store,
        # carrying the live values across (state-preserving rebuild).
        threads = self.threads
        sq = seq.alloc(self._sstore[self._sq:self._sq + threads])
        self._sstore = seq.values
        self._sq = sq
        svalues = seq.values
        sqe = sq + threads
        values = seq.store.values
        drb = down_ready[0]
        uvb, uve = up_valid
        urb = up_ready[0]
        arb = self.arbiter
        capacity = self.SLOTS_PER_THREAD
        path = self.path
        up_path = self.up.path
        input_thread = _seq_input_thread

        def capture(cycle) -> None:
            grant = self._grant
            transferred = grant is not None and values[drb + grant]
            enq = input_thread(values, uvb, uve, urb, path, up_path)
            if not transferred and enq is None:
                # Idle cycle: nothing moves, keep the queues as they are
                # (an arbiter with no grant keeps its pointer unnoted).
                self._next_queues = None
                if grant is not None:
                    arb.note(grant, False)
                return
            queues = svalues[sq:sqe]
            if transferred:
                queues[grant] = queues[grant][1:]
            if enq is not None:
                if len(queues[enq]) >= capacity:
                    raise SimulationError(
                        f"{path}: enqueue into full per-thread EB {enq}"
                    )
                queues[enq] = queues[enq] + [values[up_data]]
            self._next_queues = queues
            arb.note(grant, transferred)

        def commit() -> bool:
            changed = arb.commit()
            nxt = self._next_queues
            if nxt is not None:
                changed = changed or state_changed(svalues[sq:sqe], nxt)
                svalues[sq:sqe] = nxt
                self._next_queues = None
            return changed

        return SeqPlan(self, capture, commit, watch, state=((sq, sqe),))

    def thread_state(self, thread: int) -> str:
        return (EMPTY, HALF, FULL)[len(self._queues[thread])]

    def contents(self, thread: int) -> list[Any]:
        return list(self._queues[thread])

    @property
    def total_slots(self) -> int:
        return self.SLOTS_PER_THREAD * self.threads

    # -- evaluation ------------------------------------------------------------
    def capture(self) -> None:
        transferred = self._output_transferred()
        enq = self._input_thread()
        if not transferred and enq is None:
            # Idle cycle: nothing moves, keep the queues as they are.
            self._next_queues = None
            self.arbiter.note(self._grant, False)
            return
        # Copy-on-write: only the touched per-thread queues get fresh
        # list objects; untouched ones share state with the current
        # cycle (capture/commit never mutate a queue in place).
        queues = list(self._queues)
        if transferred:
            assert self._grant is not None
            queues[self._grant] = queues[self._grant][1:]
        if enq is not None:
            if len(queues[enq]) >= self.SLOTS_PER_THREAD:
                raise SimulationError(
                    f"{self.path}: enqueue into full per-thread EB {enq}"
                )
            queues[enq] = queues[enq] + [self.up.data.value]
        self._next_queues = queues
        self.arbiter.note(self._grant, transferred)

    def commit(self) -> bool:
        changed = super().commit()
        if self._next_queues is not None:
            changed = changed or state_changed(self._queues, self._next_queues)
            self._queues = self._next_queues
            self._next_queues = None
        return changed

    def reset(self) -> None:
        super().reset()
        self._queues = [[] for _ in range(self.threads)]
        self._next_queues = None

    # -- cost model --------------------------------------------------------------
    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        s = self.threads
        items: list[tuple[str, int, int]] = [
            (self._storage_kind, 2 * s, width),  # two data slots per thread
            ("mux2", s, width),          # head select inside each EB
            ("mux2", s - 1, width),      # output thread mux tree
            ("ff", s, 2),                # per-thread occupancy FSM
            ("lut", 3 * s, 1),           # per-thread handshake control
        ]
        items.extend(self.arbiter.area_items())
        return items


class ReducedMEB(_MEBBase):
    """The proposed MEB: one slot per thread + one shared slot (Fig. 6).

    State per thread: ``main[i]`` register and the EMPTY/HALF/FULL FSM.
    State for the shared slot: item + owning thread (the FSM's
    ``Empty``/``Full``).  The invariant tying them together — thread *i*
    is FULL iff it owns the occupied shared slot — is asserted after every
    commit.
    """

    def __init__(
        self,
        name: str,
        up: MTChannel,
        down: MTChannel,
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        rotate_on_stall: bool = True,
        latch_style: bool = False,
        parent: Component | None = None,
    ):
        super().__init__(name, up, down, policy, rotate_on_stall,
                         latch_style=latch_style, parent=parent)
        # Slot-backed sequential state, laid out columnar as
        # [main×S][state×S][shared_item][shared_owner] in `_sstore`
        # starting at `_sq` — private until compile_seq re-homes the
        # block into the design-wide SeqStore.  The `_main`/`_state`/
        # `_shared_*` properties view/update the same cells.
        self._sstore: list[Any] = (
            [X] * self.threads + [EMPTY] * self.threads + [X, None]
        )
        self._sq = 0
        self._next: (
            tuple[list[Any], list[str], Any, int | None] | None
        ) = None

    # -- storage interface ---------------------------------------------------
    @property
    def _main(self) -> list[Any]:
        b = self._sq
        return self._sstore[b:b + self.threads]

    @_main.setter
    def _main(self, main: list[Any]) -> None:
        b = self._sq
        self._sstore[b:b + self.threads] = main

    @property
    def _state(self) -> list[str]:
        b = self._sq + self.threads
        return self._sstore[b:b + self.threads]

    @_state.setter
    def _state(self, state: list[str]) -> None:
        b = self._sq + self.threads
        self._sstore[b:b + self.threads] = state

    @property
    def _shared_item(self) -> Any:
        return self._sstore[self._sq + 2 * self.threads]

    @_shared_item.setter
    def _shared_item(self, item: Any) -> None:
        self._sstore[self._sq + 2 * self.threads] = item

    @property
    def _shared_owner(self) -> int | None:
        return self._sstore[self._sq + 2 * self.threads + 1]

    @_shared_owner.setter
    def _shared_owner(self, owner: int | None) -> None:
        self._sstore[self._sq + 2 * self.threads + 1] = owner

    @property
    def shared_full(self) -> bool:
        return self._shared_owner is not None

    @property
    def shared_owner(self) -> int | None:
        return self._shared_owner

    def thread_state(self, thread: int) -> str:
        return self._sstore[self._sq + self.threads + thread]

    def occupancy(self, thread: int) -> int:
        return _OCCUPANCY[self._sstore[self._sq + self.threads + thread]]

    def head(self, thread: int) -> Any:
        return self._sstore[self._sq + thread]

    def can_accept(self, thread: int) -> bool:
        # Paper §IV-A: EMPTY threads always accept (into their main
        # register); HALF threads accept only while the shared slot is
        # free (they would claim it and go FULL).
        state = self._sstore[self._sq + self.threads + thread]
        if state == EMPTY:
            return True
        if state == HALF:
            return not self.shared_full
        return False

    def compile_comb(self, store):
        """Inlined :meth:`combinational` (see FullMEB's; the
        single-occupant path covers a lone HALF thread)."""
        if self._overrides(ReducedMEB, _SETTLE_HOOKS):
            return None
        if type(self.arbiter).grant is not RoundRobinArbiter.grant:
            return None
        layout = self._compile_layout(store)
        if layout is None:
            return None
        (values, dirty, vb, ve, rb, re_, ub, ue, data_slot,
         valid_readers, accept_readers, data_readers) = layout
        masked_only = self.policy is GrantPolicy.MASKED
        requests_of = self.policy.requests_fast
        grant_fast = self.arbiter.grant_fast
        threads = self.threads
        last = threads - 1
        falses = [False] * threads
        trues = [True] * threads
        one_hot = one_hot_vectors(threads)
        refusing = one_hot_vectors(threads, False)
        unknown = X
        empty = EMPTY
        half = HALF
        # Compile-time binding of the (possibly re-homed) state block;
        # rebuild()/reset() recompiles, so the binding stays fresh.
        sstore = self._sstore
        mb = self._sq
        sb = mb + threads
        se = sb + threads
        ob = se + 1

        def step() -> bool:
            state = sstore[sb:se]
            readies = values[rb:re_]
            shared_free = sstore[ob] is None
            idle = state.count(empty)
            if idle == threads:
                # Every thread EMPTY: no grant, every thread accepts.
                grant = None
                accepts = trues
            elif idle == last and half in state:
                # One HALF thread: the only request under every policy,
                # and the only thread that may refuse.
                only = state.index(half)
                grant = None if masked_only and not readies[only] else only
                accepts = trues if shared_free else refusing[only]
            else:
                valids = [s != empty for s in state]
                grant = grant_fast(requests_of(valids, readies))
                accepts = [
                    s == empty or (s == half and shared_free) for s in state
                ]
            self._grant = grant
            if grant is None:
                new_valid = falses
                new_data = unknown
            else:
                new_valid = one_hot[grant]
                new_data = sstore[mb + grant]
            changed = False
            if values[vb:ve] != new_valid:
                values[vb:ve] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            if values[ub:ue] != accepts:
                values[ub:ue] = accepts
                if accept_readers:
                    dirty.update(accept_readers)
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
        """Columnar tick plan (see FullMEB's)."""
        if self._overrides(ReducedMEB, _TICK_HOOKS):
            return None
        layout = self._seq_layout(seq)
        if layout is None:
            return None
        down_ready, up_valid, up_ready, up_data, watch = layout
        # Re-home [main×S][state×S][shared_item][shared_owner].
        threads = self.threads
        block = self._sstore[self._sq:self._sq + 2 * threads + 2]
        mb = seq.alloc(block)
        self._sstore = seq.values
        self._sq = mb
        svalues = seq.values
        sb = mb + threads
        se = sb + threads
        ib = se
        ob = se + 1
        values = seq.store.values
        drb = down_ready[0]
        uvb, uve = up_valid
        urb = up_ready[0]
        arb = self.arbiter
        path = self.path
        up_path = self.up.path
        input_thread = _seq_input_thread

        def capture(cycle) -> None:
            grant = self._grant
            transferred = grant is not None and values[drb + grant]
            enq = input_thread(values, uvb, uve, urb, path, up_path)
            if not transferred and enq is None:
                # Idle cycle: no dequeue, no enqueue, state is untouched
                # (an arbiter with no grant keeps its pointer unnoted).
                self._next = None
                if grant is not None:
                    arb.note(grant, False)
                return
            main = svalues[mb:sb]
            state = svalues[sb:se]
            shared_item = svalues[ib]
            shared_owner = svalues[ob]

            if transferred:
                g = grant
                if state[g] == FULL:
                    # Refill the main register from the shared slot (see
                    # the legacy capture for the paper argument).
                    if shared_owner != g:
                        raise SimulationError(
                            f"{path}: FULL thread {g} does not own the "
                            f"shared slot (owner={shared_owner})"
                        )
                    main[g] = shared_item
                    shared_item, shared_owner = X, None
                    state[g] = HALF
                elif state[g] == HALF:
                    if enq == g:
                        # Simultaneous dequeue+enqueue refills directly.
                        main[g] = values[up_data]
                        enq = None
                    else:
                        main[g] = X
                        state[g] = EMPTY
                else:  # pragma: no cover - grant implies occupancy
                    raise SimulationError(f"{path}: granted EMPTY thread {g}")

            if enq is not None:
                if state[enq] == EMPTY:
                    main[enq] = values[up_data]
                    state[enq] = HALF
                elif state[enq] == HALF:
                    if shared_owner is not None:
                        raise SimulationError(
                            f"{path}: thread {enq} claimed an occupied "
                            f"shared slot"
                        )
                    shared_item = values[up_data]
                    shared_owner = enq
                    state[enq] = FULL
                else:
                    raise SimulationError(
                        f"{path}: enqueue into FULL thread {enq}"
                    )

            self._next = (main, state, shared_item, shared_owner)
            arb.note(grant, transferred)

        check_invariants = self._check_invariants

        def commit() -> bool:
            changed = arb.commit()
            nxt = self._next
            if nxt is None:
                state = svalues[sb:se]
            else:
                main, state, shared_item, shared_owner = nxt
                # Every FSM move shows in the state vector; only a
                # same-state cycle (a HALF thread's dequeue+refill) needs
                # the registers compared.
                changed = (
                    changed
                    or svalues[sb:se] != state
                    or state_changed(
                        (svalues[mb:sb], svalues[ib], svalues[ob]),
                        (main, shared_item, shared_owner),
                    )
                )
                svalues[mb:sb] = main
                svalues[sb:se] = state
                svalues[ib] = shared_item
                svalues[ob] = shared_owner
                self._next = None
            # _check_invariants' condition as C-speed scans (no FULL
            # thread and a free shared slot, or one FULL thread owning
            # it); the method itself runs only to raise its diagnostics.
            fulls = state.count(FULL)
            owner = svalues[ob]
            if not (
                (fulls == 0 and owner is None)
                or (fulls == 1 and state.index(FULL) == owner)
            ):
                check_invariants()
            return changed

        return SeqPlan(self, capture, commit, watch, state=((mb, ob + 1),))

    def contents(self, thread: int) -> list[Any]:
        state = self._state[thread]
        if state == EMPTY:
            return []
        if state == HALF:
            return [self._main[thread]]
        return [self._main[thread], self._shared_item]

    @property
    def total_slots(self) -> int:
        return self.threads + 1

    # -- evaluation ------------------------------------------------------------
    def capture(self) -> None:
        transferred = self._output_transferred()
        enq = self._input_thread()
        if not transferred and enq is None:
            # Idle cycle: no dequeue, no enqueue, state is untouched.
            self._next = None
            self.arbiter.note(self._grant, False)
            return
        main = list(self._main)
        state = list(self._state)
        shared_item = self._shared_item
        shared_owner = self._shared_owner

        if transferred:
            g = self._grant
            assert g is not None
            if state[g] == FULL:
                # Refill the main register from the shared slot; the slot
                # itself frees up.  No thread can write the shared slot in
                # this same cycle because ready-for-HALF required it free
                # at the (registered) start of the cycle — exactly the
                # paper's "the shared buffer cannot receive a new word in
                # the same cycle".
                if shared_owner != g:
                    raise SimulationError(
                        f"{self.path}: FULL thread {g} does not own the "
                        f"shared slot (owner={shared_owner})"
                    )
                main[g] = shared_item
                shared_item, shared_owner = X, None
                state[g] = HALF
            elif state[g] == HALF:
                if enq == g:
                    # Simultaneous dequeue+enqueue: the freed main register
                    # takes the new word directly; state stays HALF.
                    main[g] = self.up.data.value
                    enq = None
                else:
                    main[g] = X
                    state[g] = EMPTY
            else:  # pragma: no cover - grant implies occupancy
                raise SimulationError(f"{self.path}: granted EMPTY thread {g}")

        if enq is not None:
            if state[enq] == EMPTY:
                main[enq] = self.up.data.value
                state[enq] = HALF
            elif state[enq] == HALF:
                if shared_owner is not None:
                    raise SimulationError(
                        f"{self.path}: thread {enq} claimed an occupied "
                        f"shared slot"
                    )
                shared_item = self.up.data.value
                shared_owner = enq
                state[enq] = FULL
            else:
                raise SimulationError(
                    f"{self.path}: enqueue into FULL thread {enq}"
                )

        self._next = (main, state, shared_item, shared_owner)
        self.arbiter.note(self._grant, transferred)

    def commit(self) -> bool:
        changed = super().commit()
        if self._next is not None:
            changed = changed or state_changed(
                (self._main, self._state, self._shared_item,
                 self._shared_owner),
                self._next,
            )
            self._main, self._state, self._shared_item, self._shared_owner = (
                self._next
            )
            self._next = None
        self._check_invariants()
        return changed

    def _check_invariants(self) -> None:
        # Hot path: C-speed count/index scans; diagnostics are built
        # only on the failing paths.
        state = self._state
        fulls = state.count(FULL)
        if fulls == 0:
            if self._shared_owner is not None:
                raise SimulationError(
                    f"{self.path}: shared slot owned by "
                    f"{self._shared_owner} but no thread is FULL"
                )
            return
        if fulls > 1:
            full_threads = [
                i for i in range(self.threads) if state[i] == FULL
            ]
            raise SimulationError(
                f"{self.path}: threads {full_threads} simultaneously FULL"
            )
        full_thread = state.index(FULL)
        if self._shared_owner != full_thread:
            raise SimulationError(
                f"{self.path}: FULL thread {full_thread} but shared "
                f"owner is {self._shared_owner}"
            )

    def reset(self) -> None:
        super().reset()
        self._main = [X] * self.threads
        self._state = [EMPTY] * self.threads
        self._shared_item = X
        self._shared_owner = None
        self._next = None

    # -- cost model --------------------------------------------------------------
    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        s = self.threads
        items: list[tuple[str, int, int]] = [
            (self._storage_kind, s + 1, width),  # S mains + shared slot
            ("mux2", s, width),          # refill path main[i] <- shared
            ("mux2", s - 1, width),      # output thread mux tree
            ("ff", s, 2),                # per-thread EMPTY/HALF/FULL FSM
            ("ff", 1, 1),                # shared-slot FSM
            ("lut", 4 * s + 2, 1),       # goFull/goHalf aggregation + control
        ]
        items.extend(self.arbiter.area_items())
        return items
