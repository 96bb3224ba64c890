"""Multithreaded elastic control operators (paper §IV-B, Fig. 7).

Each operator replicates the handshake logic of its single-thread
counterpart once per thread, exactly as the paper describes ("the
handshake signals of both inputs are first gathered per thread and then
connected to the baseline single-thread join and fork operators"), while
the data path stays shared.

The M-Merge additionally arbitrates *between paths* when two paths present
different threads in the same cycle — a situation that arises as soon as
more than one thread is in flight and that the output channel's
one-valid-per-cycle invariant forbids from passing through unfiltered.
The paper's figure elides this; DESIGN.md §5 records the decision.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.arbiter import RoundRobinArbiter
from repro.core.mtchannel import MTChannel, one_hot_thread, one_hot_vectors
from repro.kernel.component import Component
from repro.kernel.errors import ProtocolError, SimulationError
from repro.kernel.values import X, same_value


def _check_same_threads(channels: Sequence[MTChannel], who: str) -> int:
    threads = {ch.threads for ch in channels}
    if len(threads) != 1:
        raise SimulationError(f"{who}: thread-count mismatch {sorted(threads)}")
    return threads.pop()


class MJoin(Component):
    """Per-thread join of N multithreaded channels (Fig. 7(a)).

    Thread *t* transfers only in cycles where **every** input presents
    thread *t*; upstream MEBs running the fallback grant policy converge
    on a common thread during the settle phase (see
    :mod:`repro.core.arbiter`).
    """

    #: ``combine`` builds a new payload out of N input payloads (tuples
    #: by default) — rows would nest, so ensembles fall back to serial.
    ENSEMBLE_DATA = "unsafe"

    def __init__(
        self,
        name: str,
        inputs: Sequence[MTChannel],
        out: MTChannel,
        combine: Callable[..., Any] | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(inputs) < 2:
            raise ValueError("MJoin needs at least two inputs")
        self.threads = _check_same_threads([*inputs, out], name)
        self.inputs = list(inputs)
        self.out = out
        self._combine = combine if combine is not None else lambda *xs: tuple(xs)
        for ch in self.inputs:
            ch.connect_consumer(self)
            self.declare_reads(ch.valid, ch.data)
        out.connect_producer(self)
        self.declare_reads(out.ready)

    def combinational(self) -> None:
        valids = [
            [ch.valid[t].value for t in range(self.threads)]
            for ch in self.inputs
        ]
        joined_thread: int | None = None
        for t in range(self.threads):
            joined = all(v[t] for v in valids)
            self.out.valid[t].set(joined)
            if joined:
                joined_thread = t
        if joined_thread is not None:
            self.out.data.set(
                self._combine(*[ch.data.value for ch in self.inputs])
            )
        else:
            self.out.data.set(X)
        for k, ch in enumerate(self.inputs):
            for t in range(self.threads):
                others = all(
                    v[t] for j, v in enumerate(valids) if j != k
                )
                ch.ready[t].set(self.out.ready[t].value and others)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", 2 * len(self.inputs) * self.threads, 1)]


class MFork(Component):
    """Per-thread lazy fork of one MT channel to N consumers (Fig. 7(b))."""

    #: Data is copied to the outputs by reference, never inspected.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        inp: MTChannel,
        outputs: Sequence[MTChannel],
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(outputs) < 2:
            raise ValueError("MFork needs at least two outputs")
        self.threads = _check_same_threads([inp, *outputs], name)
        self.inp = inp
        self.outputs = list(outputs)
        inp.connect_consumer(self)
        self.declare_reads(inp.valid, inp.data)
        for ch in self.outputs:
            ch.connect_producer(self)
            self.declare_reads(ch.ready)

    def combinational(self) -> None:
        readies = [
            [ch.ready[t].value for t in range(self.threads)]
            for ch in self.outputs
        ]
        data = self.inp.data.value
        active = self.inp.active_thread()
        for t in range(self.threads):
            in_valid = self.inp.valid[t].value
            self.inp.ready[t].set(all(r[t] for r in readies))
            for k, ch in enumerate(self.outputs):
                others = all(
                    r[t] for j, r in enumerate(readies) if j != k
                )
                ch.valid[t].set(in_valid and others)
        for ch in self.outputs:
            ch.data.set(data if active is not None else X)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", 2 * len(self.outputs) * self.threads, 1)]


class MBranch(Component):
    """Condition-directed routing of an MT channel (Fig. 7(c)).

    The active ``valid(i)`` bit of the input channel identifies which
    thread the condition belongs to; the selected output's thread-*i*
    handshake is wired through, all other outputs stay silent.
    """

    #: Data is inspected through ``selector``/``route``, which ensemble
    #: execution rebinds: the selector becomes an all-lanes-must-agree
    #: vote (control stays shared), the route a lane-wise map.
    ENSEMBLE_DATA = "lift"

    def __init__(
        self,
        name: str,
        inp: MTChannel,
        outputs: Sequence[MTChannel],
        selector: Callable[[Any], int | bool],
        route: Callable[[Any], Any] | None = None,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(outputs) < 2:
            raise ValueError("MBranch needs at least two outputs")
        self.threads = _check_same_threads([inp, *outputs], name)
        self.inp = inp
        self.outputs = list(outputs)
        self._selector = selector
        self._route = route if route is not None else lambda d: d
        inp.connect_consumer(self)
        self.declare_reads(inp.valid, inp.data)
        for ch in self.outputs:
            ch.connect_producer(self)
            self.declare_reads(ch.ready)

    def combinational(self) -> None:
        # Single assignment per signal per evaluation: compute the routing
        # decision first, then drive every output exactly once, so the
        # settle engine sees only net transitions.
        active = self.inp.active_thread()
        sel: int | None = None
        if active is not None:
            data = self.inp.data.value
            sel = int(self._selector(data))
            if not 0 <= sel < len(self.outputs):
                raise ProtocolError(
                    f"{self.path}: selector returned {sel!r} for "
                    f"{len(self.outputs)} outputs"
                )
        for k, ch in enumerate(self.outputs):
            take = k == sel
            for t in range(self.threads):
                ch.valid[t].set(take and t == active)
            ch.data.set(self._route(data) if take else X)
        for t in range(self.threads):
            if t == active:
                assert sel is not None
                target = self.outputs[sel]
                self.inp.ready[t].set(target.ready[t].value)
            else:
                self.inp.ready[t].set(False)

    def compile_comb(self, store):
        """Slot-compiled routing: whole valid/ready vectors per slice."""
        if type(self).combinational is not MBranch.combinational:
            return None
        in_valid = store.range_of(self.inp.valid)
        in_ready = store.range_of(self.inp.ready)
        in_data = store.slot_or_none(self.inp.data)
        out_valid = [store.range_of(ch.valid) for ch in self.outputs]
        out_ready = [store.range_of(ch.ready) for ch in self.outputs]
        out_data = [store.slot_or_none(ch.data) for ch in self.outputs]
        if (
            None in (in_valid, in_ready, in_data)
            or None in out_valid
            or None in out_ready
            or None in out_data
        ):
            return None
        values = store.values
        dirty = store.dirty
        out_valid_readers = [
            store.readers_of(ch.valid) for ch in self.outputs
        ]
        out_data_readers = [
            store.readers_of((ch.data,)) for ch in self.outputs
        ]
        in_ready_readers = store.readers_of(self.inp.ready)
        ivb, ive = in_valid
        irb, ire = in_ready
        selector = self._selector
        route = self._route
        n_out = len(self.outputs)
        falses = [False] * self.threads
        one_hot = one_hot_vectors(self.threads)
        inp_path = self.inp.path

        def step() -> bool:
            active = one_hot_thread(values[ivb:ive], inp_path)
            if active is None:
                sel = None
            else:
                data = values[in_data]
                sel = int(selector(data))
                if not 0 <= sel < n_out:
                    raise ProtocolError(
                        f"{self.path}: selector returned {sel!r} for "
                        f"{n_out} outputs"
                    )
            changed = False
            for k in range(n_out):
                if k == sel:
                    new_valid = one_hot[active]
                    new_data = route(data)
                else:
                    new_valid = falses
                    new_data = X
                vb, ve = out_valid[k]
                if values[vb:ve] != new_valid:
                    values[vb:ve] = new_valid
                    readers = out_valid_readers[k]
                    if readers:
                        dirty.update(readers)
                    changed = True
                data_slot = out_data[k]
                old = values[data_slot]
                if old is not new_data and not same_value(old, new_data):
                    values[data_slot] = new_data
                    readers = out_data_readers[k]
                    if readers:
                        dirty.update(readers)
                    changed = True
            if sel is not None and values[out_ready[sel][0] + active]:
                new_ready = one_hot[active]
            else:
                new_ready = falses
            if values[irb:ire] != new_ready:
                values[irb:ire] = new_ready
                if in_ready_readers:
                    dirty.update(in_ready_readers)
                changed = True
            return changed

        return step

    def ensemble_lift(self, ctx) -> None:
        if getattr(self._selector, "__ensemble_lifted__", False):
            return
        self._selector = ctx.lift_selector(self._selector, self.path)
        self._route = ctx.lift_route(self._route)

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", 2 * len(self.outputs) * self.threads, 1)]


class MMerge(Component):
    """Merge mutually exclusive per-thread paths into one MT channel
    (Fig. 7(d)).

    Per thread, at most one path carries data (guaranteed by the paired
    M-Branch).  Across threads, several paths may be active in the same
    cycle with *different* threads; a path arbiter picks one so the output
    stays one-valid-per-cycle, and the losing path simply keeps its data
    (its ready stays low).
    """

    #: Data moves from the winning path by reference, never inspected.
    ENSEMBLE_DATA = "opaque"

    def __init__(
        self,
        name: str,
        inputs: Sequence[MTChannel],
        out: MTChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        if len(inputs) < 2:
            raise ValueError("MMerge needs at least two inputs")
        self.threads = _check_same_threads([*inputs, out], name)
        self.inputs = list(inputs)
        self.out = out
        self.path_arbiter = RoundRobinArbiter(len(inputs), rotate_on_stall=True)
        for ch in self.inputs:
            ch.connect_consumer(self)
            self.declare_reads(ch.valid, ch.data)
        out.connect_producer(self)
        self.declare_reads(out.ready)
        self._winner: int | None = None

    def combinational(self) -> None:
        actives = [ch.active_thread() for ch in self.inputs]
        # Same thread on two paths would mean the branch duplicated a token.
        seen: dict[int, int] = {}
        for k, t in enumerate(actives):
            if t is None:
                continue
            if t in seen:
                raise ProtocolError(
                    f"{self.path}: thread {t} active on paths {seen[t]} and "
                    f"{k} simultaneously"
                )
            seen[t] = k
        requests = [t is not None for t in actives]
        winner = self.path_arbiter.grant(requests)
        self._winner = winner
        for t in range(self.threads):
            self.out.valid[t].set(
                winner is not None and actives[winner] == t
            )
        self.out.data.set(
            self.inputs[winner].data.value if winner is not None else X
        )
        for k, ch in enumerate(self.inputs):
            for t in range(self.threads):
                take = winner == k and actives[k] == t and self.out.ready[t].value
                ch.ready[t].set(take)

    def compile_comb(self, store):
        """Slot-compiled path merge: per-path vectors via slices."""
        if type(self).combinational is not MMerge.combinational:
            return None
        if type(self.path_arbiter).grant is not RoundRobinArbiter.grant:
            return None
        in_valid = [store.range_of(ch.valid) for ch in self.inputs]
        in_ready = [store.range_of(ch.ready) for ch in self.inputs]
        in_data = [store.slot_or_none(ch.data) for ch in self.inputs]
        out_valid = store.range_of(self.out.valid)
        out_ready = store.range_of(self.out.ready)
        out_data = store.slot_or_none(self.out.data)
        if (
            None in (out_valid, out_ready, out_data)
            or None in in_valid
            or None in in_ready
            or None in in_data
        ):
            return None
        values = store.values
        dirty = store.dirty
        out_valid_readers = store.readers_of(self.out.valid)
        out_data_readers = store.readers_of((self.out.data,))
        in_ready_readers = [
            store.readers_of(ch.ready) for ch in self.inputs
        ]
        ovb, ove = out_valid
        orb, ore = out_ready
        grant_fast = self.path_arbiter.grant_fast
        n_in = len(self.inputs)
        in_paths = [ch.path for ch in self.inputs]
        falses = [False] * self.threads
        one_hot = one_hot_vectors(self.threads)

        def step() -> bool:
            actives = [
                one_hot_thread(values[vb:ve], in_path)
                for (vb, ve), in_path in zip(in_valid, in_paths)
            ]
            seen: dict[int, int] = {}
            for k, thread in enumerate(actives):
                if thread is None:
                    continue
                if thread in seen:
                    raise ProtocolError(
                        f"{self.path}: thread {thread} active on paths "
                        f"{seen[thread]} and {k} simultaneously"
                    )
                seen[thread] = k
            winner = grant_fast([t is not None for t in actives])
            self._winner = winner
            if winner is None:
                new_valid = falses
                new_data = X
            else:
                new_valid = one_hot[actives[winner]]
                new_data = values[in_data[winner]]
            changed = False
            if values[ovb:ove] != new_valid:
                values[ovb:ove] = new_valid
                if out_valid_readers:
                    dirty.update(out_valid_readers)
                changed = True
            old = values[out_data]
            if old is not new_data and not same_value(old, new_data):
                values[out_data] = new_data
                if out_data_readers:
                    dirty.update(out_data_readers)
                changed = True
            # Like the interpreted path, consult out.ready only for the
            # winning thread.
            take_thread = None
            if winner is not None:
                thread = actives[winner]
                if values[orb + thread]:
                    take_thread = thread
            for k in range(n_in):
                if winner == k and take_thread is not None:
                    new_ready = one_hot[take_thread]
                else:
                    new_ready = falses
                rb, re_ = in_ready[k]
                if values[rb:re_] != new_ready:
                    values[rb:re_] = new_ready
                    readers = in_ready_readers[k]
                    if readers:
                        dirty.update(readers)
                    changed = True
            return changed

        return step

    def capture(self) -> None:
        transferred = False
        if self._winner is not None:
            t = self.inputs[self._winner].active_thread()
            if t is not None and self.out.ready[t].value:
                transferred = True
        self.path_arbiter.note(self._winner, transferred)

    def commit(self) -> bool:
        return self.path_arbiter.commit()

    def reset(self) -> None:
        self.path_arbiter.reset()
        self._winner = None

    def area_items(self) -> list[tuple[str, int, int]]:
        n = len(self.inputs)
        width = self.out.width
        items: list[tuple[str, int, int]] = [
            ("mux2", n - 1, width),
            ("lut", 2 * n * self.threads, 1),
        ]
        items.extend(self.path_arbiter.area_items())
        return items
