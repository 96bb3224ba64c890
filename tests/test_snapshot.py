"""Snapshot/restore/fork semantics of the simulation kernel.

The contract under test (see ``repro/kernel/snapshot.py``):

* a fork taken mid-run and resumed is indistinguishable from never
  having forked, under every engine;
* one snapshot supports any number of restores — running after a
  restore never corrupts the snapshot (monitor columns and endpoint
  logs are deep-copied, not aliased);
* restore is identity-preserving: the lists and helper objects bound
  into compiled closures keep their identities;
* restore composes with ``rebuild()`` (collaborator swaps) and rewinds
  out-of-band inputs (``push``) applied after the snapshot;
* callbacks are structure: bound methods in component state keep their
  live ``__self__`` through any number of snapshots and restores.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import FullMEB, ReducedMEB
from repro.kernel import SnapshotError
from repro.kernel.errors import SimulationError

from tests.conftest import make_mt_pipeline

ENGINES = ("naive", "compiled")


def _fingerprint(sim, sink, monitor):
    sim.settle()
    return (
        sim.cycle,
        list(sink.received),
        monitor.transfers,
        monitor.cycles_observed,
        tuple(sig.value for sig in sim.signals),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
def test_restore_resumes_identically(engine, meb_cls):
    items = [list(range(15)) for _ in range(4)]

    def make():
        return make_mt_pipeline(
            meb_cls, threads=4, items=items, n_stages=3, engine=engine
        )

    sim, _src, sink, _mebs, mons = make()
    sim.run(cycles=9)
    snap = sim.snapshot()
    sim.run(cycles=40)
    interrupted = _fingerprint(sim, sink, mons[-1])

    sim.restore(snap)
    assert sim.cycle == 9
    sim.run(cycles=40)
    assert _fingerprint(sim, sink, mons[-1]) == interrupted

    # ... and both equal a run that never snapshotted at all.
    ref_sim, _s, ref_sink, _m, ref_mons = make()
    ref_sim.run(cycles=49)
    assert _fingerprint(ref_sim, ref_sink, ref_mons[-1]) == interrupted


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_not_aliased_by_later_run(engine):
    items = [list(range(10)) for _ in range(2)]
    sim, _src, sink, _mebs, mons = make_mt_pipeline(
        FullMEB, threads=2, items=items, n_stages=2, engine=engine
    )
    sim.run(cycles=6)
    snap = sim.snapshot()
    reference = _fingerprint(sim, sink, mons[-1])
    # Grow every monitor column and endpoint log well past the
    # snapshot point, restore, and check the state is bit-identical to
    # the moment of the snapshot — twice, to prove restoring itself
    # does not consume or alias the snapshot.
    for _ in range(2):
        sim.run(cycles=30)
        sim.restore(snap)
        assert _fingerprint(sim, sink, mons[-1]) == reference


def test_restore_preserves_closure_bindings():
    items = [list(range(8)) for _ in range(2)]
    sim, src, sink, mebs, mons = make_mt_pipeline(
        FullMEB, threads=2, items=items, n_stages=2, engine="compiled"
    )
    sim.run(cycles=5)
    snap = sim.snapshot()
    monitor = mons[-1]
    col_id = id(monitor._tr_cycle)
    received_id = id(sink.received)
    arbiter = mebs[0].arbiter
    sim.run(cycles=10)
    sim.restore(snap)
    # The compiled tick plans captured these objects at compile time;
    # restore must write through them, never rebind.
    assert id(monitor._tr_cycle) == col_id
    assert id(sink.received) == received_id
    assert mebs[0].arbiter is arbiter
    # And the design still runs correctly through the same closures.
    sim.run(cycles=30)
    assert sink.count == 16


def test_restore_rewinds_pushes():
    sim, src, sink, _mebs, _mons = make_mt_pipeline(
        FullMEB, threads=2, items=[[], []], n_stages=2, engine="compiled"
    )
    src.push(0, 1)
    sim.run(cycles=6)
    snap = sim.snapshot()
    src.push(1, 2)
    sim.run(cycles=20)
    assert sink.count == 2
    sim.restore(snap)
    sim.run(cycles=20)
    # The post-snapshot push is gone; only the first item ever arrives.
    assert [d for _c, _t, d in sink.received] == [1]


def test_fork_context_restores_on_exception():
    sim, src, sink, _mebs, _mons = make_mt_pipeline(
        FullMEB, threads=2, items=[[], []], n_stages=2, engine="compiled"
    )
    src.push(0, 7)
    sim.run(cycles=4)
    with pytest.raises(SimulationError):
        with sim.fork():
            src.push(1, 8)
            sim.run(cycles=10)
            raise SimulationError("variant failed")
    assert sim.cycle == 4
    sim.run(cycles=20)
    assert [d for _c, _t, d in sink.received] == [7]


def test_fork_variants_share_warmup():
    sim, src, sink, _mebs, mons = make_mt_pipeline(
        FullMEB, threads=2, items=[[], []], n_stages=2, engine="compiled"
    )
    src.push(0, 100)
    sim.run(cycles=8)  # warm-up paid once
    outcomes = []
    for value in (201, 202, 203):
        with sim.fork():
            src.push(1, value)
            sim.run(cycles=25)
            outcomes.append([d for _c, _t, d in sink.received])
    assert outcomes == [[100, 201], [100, 202], [100, 203]]
    # After the last fork the branch point state is back.
    assert sim.cycle == 8


def test_restore_after_rebuild():
    items = [list(range(12)) for _ in range(2)]
    sim, _src, sink, mebs, _mons = make_mt_pipeline(
        FullMEB, threads=2, items=items, n_stages=2, engine="compiled"
    )
    sim.run(cycles=5)
    snap = sim.snapshot()
    sim.run(cycles=7)
    sim.rebuild()  # recompile slot/seq bindings mid-run
    sim.run(cycles=3)
    sim.restore(snap)
    assert sim.cycle == 5
    sim.run(cycles=60)
    ref_sim, _s, ref_sink, _m, _mm = make_mt_pipeline(
        FullMEB, threads=2, items=items, n_stages=2, engine="compiled"
    )
    ref_sim.run(cycles=65)
    assert list(sink.received) == list(ref_sink.received)


def test_restore_foreign_snapshot_rejected():
    sim_a, *_rest = make_mt_pipeline(
        FullMEB, threads=2, items=[[], []], n_stages=2, engine="compiled"
    )
    sim_b, *_rest = make_mt_pipeline(
        FullMEB, threads=2, items=[[], []], n_stages=2, engine="compiled"
    )
    snap = sim_a.snapshot()
    with pytest.raises(SnapshotError):
        sim_b.restore(snap)


def test_snapshot_hook_round_trip():
    from repro.kernel import Component, Simulator

    class Counter(Component):
        def __init__(self):
            super().__init__("counter")
            self.out = self.output("out", init=0)
            self.value = 0

        def combinational(self):
            self.out.set(self.value)

        def capture(self):
            self._next = self.value + 1

        def commit(self):
            self.value = self._next
            return True

        def reset(self):
            self.value = 0

    external = {"ticks": 0}
    comp = Counter()
    sim = Simulator(engine="compiled")
    sim.add(comp)
    sim.add_snapshot_hook(
        lambda: external["ticks"],
        lambda v: external.update(ticks=v),
    )
    sim.add_observer(lambda s: external.update(ticks=external["ticks"] + 1))
    sim.reset()
    sim.run(cycles=5)
    snap = sim.snapshot()
    sim.run(cycles=5)
    assert external["ticks"] == 10
    sim.restore(snap)
    assert external["ticks"] == 5
    assert comp.value == 5


def test_md5_fork_mid_wave_matches_uninterrupted():
    """Fork inside the MD5 loop: barrier, arbiter pointers, message
    store and the circuit-level round counter all rewind together."""
    from repro.apps.md5 import MD5Hasher
    from repro.apps.md5 import reference as ref
    from repro.apps.md5.datapath import MD5Token

    def start_wave(hasher, msgs):
        circ = hasher.circuit
        blocks = [ref.message_blocks(m)[0] for m in msgs]
        for t, block in enumerate(blocks):
            circ.store.write(t, 0, block)
            circ.source.push(t, MD5Token(ref.IV, 0, 0))
        for stage in circ.stages:
            stage.invalidate()
        return circ

    msgs = [f"snap-{i}".encode() for i in range(4)]
    circ = start_wave(MD5Hasher(threads=4, engine="compiled"), msgs)
    circ.sim.run(cycles=11)
    snap = circ.sim.snapshot()
    counter_at_snap = circ.round_counter
    circ.sim.run(until=lambda _s: circ.sink.count == 4, max_cycles=2000)
    first = sorted((t, tok.state) for _c, t, tok in circ.sink.received)
    cycles_first = circ.sim.cycle
    assert circ.round_counter != counter_at_snap  # rounds advanced

    circ.sim.restore(snap)
    assert circ.round_counter == counter_at_snap  # hook rewound it
    circ.sim.run(until=lambda _s: circ.sink.count == 4, max_cycles=2000)
    second = sorted((t, tok.state) for _c, t, tok in circ.sink.received)
    assert first == second
    assert circ.sim.cycle == cycles_first

    digests = [
        ref.digest_bytes(
            tuple((a + b) & ref.MASK32 for a, b in zip(ref.IV, state))
        ).hex()
        for _t, state in second
    ]
    assert digests == [hashlib.md5(m).hexdigest() for m in msgs]


class _CallbackOwner:
    """A non-component callback owner that must never be copied."""

    def __init__(self):
        self.calls = 0

    def hit(self, *_args):
        self.calls += 1

    def __deepcopy__(self, _memo):
        raise AssertionError("a snapshot copied a callback owner")


def test_bound_methods_in_state_are_kept_by_reference():
    from repro.kernel import Component, Simulator

    owner = _CallbackOwner()

    class Holder(Component):
        def __init__(self):
            super().__init__("holder")
            self.out = self.output("out", init=0)
            self.callback = owner.hit
            self.callbacks = [owner.hit, (owner.hit, 1)]
            self.by_name = {"hit": owner.hit}
            self.value = 0

        def combinational(self):
            self.out.set(self.value)

        def capture(self):
            self._next = self.value + 1

        def commit(self):
            self.value = self._next
            self.callback()
            return True

        def reset(self):
            self.value = 0

    holder = Holder()
    sim = Simulator(engine="compiled")
    sim.add(holder)
    sim.reset()
    wired = (holder.callback, holder.callbacks[0], holder.by_name["hit"])
    snap = sim.snapshot()
    sim.run(cycles=3)
    sim.restore(snap)
    sim.run(cycles=2)
    assert holder.value == 2
    assert owner.calls == 5  # every call reached the live owner
    for method in (holder.callback, holder.callbacks[0],
                   holder.callbacks[1][0], holder.by_name["hit"]):
        assert method.__self__ is owner
    assert (holder.callback, holder.callbacks[0],
            holder.by_name["hit"]) == wired


@pytest.mark.parametrize("engine", ENGINES)
def test_restore_keeps_callbacks_bound_to_live_design(engine):
    """Hash, rewind to pristine, hash again: the barrier's release
    callback (bound to the circuit) and the processor's decode function
    (bound to the processor) must still reach the live objects, or the
    round counter desynchronizes under the interpretive engines."""
    from repro.apps.md5 import MD5Hasher
    from repro.apps.processor import Processor, programs

    hasher = MD5Hasher(threads=4, engine=engine)
    circuit = hasher.circuit
    pristine = hasher.sim.snapshot()
    msgs = [b"", b"abc", bytes(range(70)), b"rewind me"]
    expected = [hashlib.md5(m).hexdigest() for m in msgs]
    assert hasher.hash_messages(msgs) == expected
    cycles = hasher.sim.cycle
    hasher.sim.restore(pristine)
    assert hasher._wave_ref == 0  # rewound through its snapshot hook
    assert hasher.hash_messages(msgs) == expected
    assert hasher.sim.cycle == cycles
    assert circuit.barrier._on_release.__self__ is circuit

    cpu = Processor(threads=2, engine=engine)
    pristine = cpu.sim.snapshot()
    program = programs.sum_to_n(6)
    for _ in range(2):
        cpu.sim.restore(pristine)
        for t in range(cpu.threads):
            cpu.load_program(t, program.source)
        cpu.run()
        assert all(
            cpu.mem_word(t, program.check[1]) == program.expected
            for t in range(cpu.threads)
        )
    assert cpu.decode.fn.__self__ is cpu
