"""Shared multithreaded function units.

The whole point of multithreaded elasticity (paper §I) is that one copy of
the datapath logic serves all threads in a time-multiplexed way.  These
units implement that sharing on MT channels:

* :class:`MTFunction` — combinational logic shared by all threads
  (handshakes pass through per thread, data is transformed in place).
* :class:`MTVariableLatencyUnit` — a single-occupancy variable-latency
  unit (the processor's memories and execution units): it accepts the
  active thread's item, remembers the owning thread, and presents the
  result on that thread's valid wire when done.
* :class:`MTContextFunction` — like :class:`MTFunction` but the function
  also receives the thread index, for per-thread context such as the
  processor's per-thread register files.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core.mtchannel import MTChannel, one_hot_thread, one_hot_vectors
from repro.elastic.function import LatencyPolicy
from repro.kernel.component import Component
from repro.kernel.errors import EnsembleUnsupported, SimulationError
from repro.kernel.slots import SeqPlan
from repro.kernel.values import X, same_value, state_changed


class MTFunction(Component):
    """Combinational datapath logic shared by all threads.

    ``pure=True`` asserts that ``fn`` is a pure function of the payload
    (and thread index), letting the compiled settle engine skip evaluations
    whose inputs did not change.  Leave it False (the default) when the
    function closes over mutable context — register files, the MD5
    message store and round counter — or take responsibility for calling
    :meth:`~repro.kernel.component.Component.invalidate` whenever that
    context changes, as :class:`repro.apps.md5.circuit.MD5Circuit` does.
    """

    #: Data is inspected only through ``fn``, which ensemble execution
    #: rebinds to a lane-wise map (pure functions only — a volatile fn
    #: may close over context mutated once per item, which a K-wide map
    #: would advance K times).
    ENSEMBLE_DATA = "lift"

    def __init__(
        self,
        name: str,
        inp: MTChannel,
        out: MTChannel,
        fn: Callable[[Any], Any],
        area_luts: int = 0,
        pure: bool = False,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if inp.threads != out.threads:
            raise SimulationError(f"{name}: thread-count mismatch")
        self.threads = inp.threads
        self.inp = inp
        self.out = out
        self.fn = fn
        self._area_luts = int(area_luts)
        inp.connect_consumer(self)
        out.connect_producer(self)
        self.declare_reads(inp.valid, inp.data, out.ready)
        if not pure:
            self.declare_volatile()

    def combinational(self) -> None:
        active = self.inp.active_thread()
        for t in range(self.threads):
            self.out.valid[t].set(active == t)
            self.inp.ready[t].set(self.out.ready[t].value)
        self.out.data.set(
            self.fn(self.inp.data.value) if active is not None else X
        )

    def compile_comb(self, store):
        if type(self).combinational is not MTFunction.combinational:
            return None
        return self._compile_step(store, with_thread=False)

    def _compile_step(self, store, with_thread: bool):
        """Shared slot-compiled step for the MT function-unit family.

        One slice read resolves the active thread (with the channel's
        one-hot protocol check), one slice copy passes the S downstream
        readies through to the upstream, and one slice compare-and-assign
        publishes the S valids — only the payload transform remains a per
        evaluation Python call.
        """
        in_valid = store.range_of(self.inp.valid)
        in_ready = store.range_of(self.inp.ready)
        out_valid = store.range_of(self.out.valid)
        out_ready = store.range_of(self.out.ready)
        in_data = store.slot_or_none(self.inp.data)
        out_data = store.slot_or_none(self.out.data)
        if None in (in_valid, in_ready, out_valid, out_ready,
                    in_data, out_data):
            return None
        values = store.values
        dirty = store.dirty
        valid_readers = store.readers_of(self.out.valid)
        ready_readers = store.readers_of(self.inp.ready)
        data_readers = store.readers_of((self.out.data,))
        ivb, ive = in_valid
        irb, ire = in_ready
        ovb, ove = out_valid
        orb, ore = out_ready
        fn = self.fn
        falses = [False] * self.threads
        one_hot = one_hot_vectors(self.threads)
        inp_path = self.inp.path

        def step() -> bool:
            active = one_hot_thread(values[ivb:ive], inp_path)
            if active is None:
                new_valid = falses
                new_data = X
            else:
                new_valid = one_hot[active]
                data = values[in_data]
                new_data = fn(data, active) if with_thread else fn(data)
            changed = False
            if values[ovb:ove] != new_valid:
                values[ovb:ove] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            new_ready = values[orb:ore]
            if values[irb:ire] != new_ready:
                values[irb:ire] = new_ready
                if ready_readers:
                    dirty.update(ready_readers)
                changed = True
            old = values[out_data]
            if old is not new_data and not same_value(old, new_data):
                values[out_data] = new_data
                if data_readers:
                    dirty.update(data_readers)
                changed = True
            return changed

        return step

    def ensemble_lift(self, ctx) -> None:
        if getattr(self.fn, "__ensemble_lifted__", False):
            return
        if self.volatile:
            raise EnsembleUnsupported(
                f"{self.path}: fn is not declared pure; a lane-wise map "
                "would re-run its side effects once per lane"
            )
        self.fn = ctx.lift_fn(self.fn)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", self._area_luts, 1)] if self._area_luts else []


class MTContextFunction(MTFunction):
    """Combinational logic that also sees the active thread index.

    Used for per-thread architectural context (register files, PCs): the
    datapath is shared, the context is selected by the thread id carried
    on the active valid wire — paper §V-B, "each thread sees a different
    copy of the register file".
    """

    #: The fn reads per-thread context selected by the live thread index
    #: (register files); lane independence cannot be proven, so designs
    #: containing one fall back to serial execution.
    ENSEMBLE_DATA = "unsafe"

    def combinational(self) -> None:
        active = self.inp.active_thread()
        for t in range(self.threads):
            self.out.valid[t].set(active == t)
            self.inp.ready[t].set(self.out.ready[t].value)
        self.out.data.set(
            self.fn(self.inp.data.value, active) if active is not None else X
        )

    def compile_comb(self, store):
        if type(self).combinational is not MTContextFunction.combinational:
            return None
        return self._compile_step(store, with_thread=True)


class MTVariableLatencyUnit(Component):
    """Single-occupancy variable-latency unit shared by all threads.

    Timing: an item of thread *t* accepted in cycle *c* with latency *L*
    (≥ 1) presents its result on ``valid[t]`` from cycle *c+L* until the
    downstream takes it.  While occupied, no thread is ready upstream —
    other threads' items wait in the surrounding MEBs, which is exactly
    how multithreading "hides the latency of each operation" (paper §I):
    the *channel* keeps moving other threads while this unit is busy.

    With ``bypass=True`` (the default) the unit accepts a new item in the
    same cycle its result drains downstream, sustaining one item per L
    cycles; with ``bypass=False`` an idle handoff cycle separates items
    (and ``ready`` has no combinational dependence on downstream
    ``ready``).

    The registered state — ``[busy, owner, remaining, result, accepted]``
    — is slot-backed: a private five-cell list until :meth:`compile_seq`
    re-homes the block into the design-wide
    :class:`~repro.kernel.slots.SeqStore` (exactly like the MEB queues),
    so the compiled engine's settle step and tick plan read the same
    cells every other engine does.
    """

    #: Whether ``fn`` receives the accepting thread index as a second
    #: argument (the :class:`~repro.apps.processor.stages.MTSequencedUnit`
    #: variant for side-effecting per-thread stage functions).
    _fn_takes_thread = False

    #: The latency policy may read the payload (data-dependent latency
    #: would diverge control flow across lanes), so the unit is not
    #: ensemble-safe even though ``fn`` itself could be lifted.
    ENSEMBLE_DATA = "unsafe"

    def __init__(
        self,
        name: str,
        inp: MTChannel,
        out: MTChannel,
        fn: Callable[[Any], Any],
        latency: LatencyPolicy = 1,
        area_luts: int = 0,
        bypass: bool = True,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if inp.threads != out.threads:
            raise SimulationError(f"{name}: thread-count mismatch")
        self.threads = inp.threads
        self.inp = inp
        self.out = out
        self.fn = fn
        self.bypass = bypass
        self._latency_policy = latency
        self._latency_iter = None
        self._area_luts = int(area_luts)
        inp.connect_consumer(self)
        out.connect_producer(self)
        # Without bypass the handshakes are functions of registered state
        # only; with bypass, accepting depends on the owner's downstream
        # ready draining the result this very cycle.
        if bypass:
            self.declare_reads(out.ready)
        else:
            self.declare_reads()
        # Slot-backed registered state [busy, owner, remaining, result,
        # accepted]; see the class docstring.
        self._sstore: list[Any] = [False, None, 0, X, 0]
        self._sq = 0
        self._next: tuple[bool, int | None, int, Any, int] | None = None

    # -- slot-backed state views -------------------------------------------
    @property
    def _busy(self) -> bool:
        return self._sstore[self._sq]

    @_busy.setter
    def _busy(self, value: bool) -> None:
        self._sstore[self._sq] = value

    @property
    def _owner(self) -> int | None:
        return self._sstore[self._sq + 1]

    @_owner.setter
    def _owner(self, value: int | None) -> None:
        self._sstore[self._sq + 1] = value

    @property
    def _remaining(self) -> int:
        return self._sstore[self._sq + 2]

    @_remaining.setter
    def _remaining(self, value: int) -> None:
        self._sstore[self._sq + 2] = value

    @property
    def _result(self) -> Any:
        return self._sstore[self._sq + 3]

    @_result.setter
    def _result(self, value: Any) -> None:
        self._sstore[self._sq + 3] = value

    @property
    def _accepted(self) -> int:
        return self._sstore[self._sq + 4]

    @_accepted.setter
    def _accepted(self, value: int) -> None:
        self._sstore[self._sq + 4] = value

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

    @property
    def owner(self) -> int | None:
        return self._owner

    def combinational(self) -> None:
        draining = self.bypass and self.done and self.out.ready[self._owner].value
        accepting = (not self._busy) or draining
        for t in range(self.threads):
            self.inp.ready[t].set(accepting)
            self.out.valid[t].set(self.done and self._owner == t)
        self.out.data.set(self._result if self.done else X)

    def compile_comb(self, store):
        """Slot-compiled :meth:`combinational`: the whole handshake is
        two constant slice writes (all-S ``ready``, one-hot ``valid``)
        plus a data compare-and-assign, with the busy/owner/remaining
        cells read straight out of the (possibly re-homed) state block.
        """
        if type(self).combinational is not MTVariableLatencyUnit.combinational:
            return None
        in_ready = store.range_of(self.inp.ready)
        out_valid = store.range_of(self.out.valid)
        out_ready = store.range_of(self.out.ready)
        out_data = store.slot_or_none(self.out.data)
        if None in (in_ready, out_valid, out_ready, out_data):
            return None
        values = store.values
        dirty = store.dirty
        ready_readers = store.readers_of(self.inp.ready)
        valid_readers = store.readers_of(self.out.valid)
        data_readers = store.readers_of((self.out.data,))
        irb, ire = in_ready
        ovb, ove = out_valid
        orb = out_ready[0]
        bypass = self.bypass
        falses = [False] * self.threads
        trues = [True] * self.threads
        unknown = X
        # Compile-time binding of the (possibly re-homed) state block;
        # rebuild()/reset() recompiles, so the binding stays fresh.
        sstore = self._sstore
        sq = self._sq

        def step() -> bool:
            busy = sstore[sq]
            if busy and sstore[sq + 2] == 0:
                owner = sstore[sq + 1]
                new_valid = falses[:]
                new_valid[owner] = True
                new_data = sstore[sq + 3]
                accepting = bypass and values[orb + owner]
            else:
                new_valid = falses
                new_data = unknown
                accepting = not busy
            changed = False
            new_ready = trues if accepting else falses
            if values[irb:ire] != new_ready:
                values[irb:ire] = new_ready
                if ready_readers:
                    dirty.update(ready_readers)
                changed = True
            if values[ovb:ove] != new_valid:
                values[ovb:ove] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            old = values[out_data]
            if old is not new_data and not same_value(old, new_data):
                values[out_data] = new_data
                if data_readers:
                    dirty.update(data_readers)
                changed = True
            return changed

        return step

    def capture(self) -> None:
        busy, owner = self._busy, self._owner
        remaining, result = self._remaining, self._result
        accepted = self._accepted
        if self.done and self.out.ready[self._owner].value:
            busy, owner, result = False, None, X
        if not busy:
            t = self.inp.transfer_thread()
            if t is not None:
                data = self.inp.data.value
                remaining = self._latency_for(data) - 1
                result = (
                    self.fn(data, t) if self._fn_takes_thread
                    else self.fn(data)
                )
                busy, owner = True, t
                accepted += 1
        elif remaining > 0:
            remaining -= 1
        self._next = (busy, owner, remaining, result, accepted)

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = state_changed(
            (self._busy, self._owner, self._remaining, self._result),
            self._next[:4],
        )
        (
            self._busy,
            self._owner,
            self._remaining,
            self._result,
            self._accepted,
        ) = self._next
        self._next = None
        return changed

    def compile_seq(self, seq):
        """Columnar tick plan: busy/owner/remaining/result re-homed into
        a :class:`~repro.kernel.slots.SeqStore` block, the acceptance
        handshake resolved with slot-level one-hot probes, and the whole
        capture/commit delta-gated by the declared watch set (a parked
        result or an idle unit costs nothing per cycle).

        Subclasses that override capture/commit fall back to legacy
        dispatch (``None``); the latency policy and ``fn`` are bound
        through ``self``, so overrides of those still apply.
        """
        cls = type(self)
        if (cls.capture is not MTVariableLatencyUnit.capture
                or cls.commit is not MTVariableLatencyUnit.commit):
            return None
        store = seq.store
        in_valid = store.range_of(self.inp.valid)
        in_ready = store.range_of(self.inp.ready)
        out_ready = store.range_of(self.out.ready)
        in_data = store.slot_or_none(self.inp.data)
        if None in (in_valid, in_ready, out_ready, in_data):
            return None
        # Re-home [busy, owner, remaining, result, accepted], carrying
        # the live values across (state-preserving rebuild).
        sq = seq.alloc(self._sstore[self._sq:self._sq + 5])
        self._sstore = seq.values
        self._sq = sq
        svalues = seq.values
        sqe = sq + 5
        values = store.values
        ivb, ive = in_valid
        irb = in_ready[0]
        orb = out_ready[0]
        fn = self.fn
        with_thread = self._fn_takes_thread
        inp_path = self.inp.path
        unknown = X

        def capture(cycle) -> None:
            busy = svalues[sq]
            if busy:
                remaining = svalues[sq + 2]
                if remaining > 0:
                    self._next = (
                        True, svalues[sq + 1], remaining - 1,
                        svalues[sq + 3], svalues[sq + 4],
                    )
                    return
                if not values[orb + svalues[sq + 1]]:
                    # Parked: result presented, downstream not ready.
                    self._next = None
                    return
                # Drained this cycle; may accept a new item right away.
            t = one_hot_thread(values[ivb:ive], inp_path)
            if t is not None and values[irb + t]:
                data = values[in_data]
                remaining = self._latency_for(data) - 1
                result = fn(data, t) if with_thread else fn(data)
                self._next = (True, t, remaining, result,
                              svalues[sq + 4] + 1)
            elif busy:
                # Drain with no refill: back to idle.
                self._next = (False, None, 0, unknown, svalues[sq + 4])
            else:
                # Idle cycle: nothing accepted, state untouched.
                self._next = None

        def commit() -> bool:
            nxt = self._next
            if nxt is None:
                return False
            changed = state_changed(tuple(svalues[sq:sqe - 1]), nxt[:4])
            svalues[sq:sqe] = nxt
            self._next = None
            return changed

        watch = (out_ready, in_valid, in_ready, (in_data, in_data + 1))
        return SeqPlan(self, capture, commit, watch, state=((sq, sqe),))

    def reset(self) -> None:
        sq = self._sq
        self._sstore[sq:sq + 5] = [False, None, 0, X, 0]
        self._next = None
        self._latency_iter = None

    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.out.width
        owner_bits = max(1, math.ceil(math.log2(self.threads)))
        items: list[tuple[str, int, int]] = [
            ("ff", 1, width),
            ("ff", 1, 4 + owner_bits),
            ("lut", 4 + self.threads, 1),
        ]
        if self._area_luts:
            items.append(("lut", self._area_luts, 1))
        return items
