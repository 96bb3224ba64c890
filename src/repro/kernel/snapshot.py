"""Simulator state snapshots: columnar copy, identity-preserving restore.

A :class:`SimSnapshot` captures everything a finalized design needs to
resume from an earlier point in simulated time:

* the flat :class:`~repro.kernel.slots.SlotStore` value list (every
  signal, one columnar copy),
* the :class:`~repro.kernel.slots.SeqStore` cells (re-homed sequential
  state, one columnar copy) when the compiled tick phase is active,
* each component's registered Python state (queues, monitor columns,
  endpoint streams, FSMs) captured generically from its ``__dict__``,
* any extra non-component state registered through
  :meth:`~repro.kernel.simulator.Simulator.add_snapshot_hook` (e.g. the
  MD5 circuit's global round counter).

The copy is *structure-sharing*: every :class:`Component` and
:class:`Signal` is treated as infrastructure and kept by reference (a
``deepcopy`` memo pre-seeded with the design's objects), so only data
values are duplicated.  Aliasing between the live design and the
snapshot is broken for all mutable state — restoring and running never
mutates the snapshot, so one snapshot supports any number of restores
(the basis of rewind-style :meth:`~repro.kernel.simulator.Simulator.fork`).

**Callbacks are structure.**  A bound method held in component state
(a barrier's ``on_release``, a stage's ``fn`` bound to the design
object that built it) is wiring, not data: snapshots keep it by
reference wherever it sits — a top-level attribute or inside a
list/tuple/dict/set — so its ``__self__`` is never copied and restore
never rebinds it.  A plain ``copy.deepcopy`` would copy the owner (and
with it the owner's simulator, stores and engine), and after a restore
the component would call a *copy* of its owner.  State that lives on a
callback owner must therefore be registered through
:meth:`~repro.kernel.simulator.Simulator.add_snapshot_hook`.

Restore is **identity-preserving**: compiled settle/tick closures bind
lists (monitor columns, endpoint logs, the seq-store value list) and
helper objects (arbiters) at compile time, so restore writes *through*
those objects — list/dict/set attributes are updated in place and plain
helper objects have their ``__dict__`` rewritten — instead of rebinding
attributes to fresh objects.  After the state is back, everything is
marked stale (engine ``invalidate_all`` plus every tick plan), exactly
as after any out-of-band mutation, and the next settle re-derives the
combinational net from the restored registers.

Contract for components (see ``docs/engines.md``): registered state must
live in ``__dict__`` attributes that ``copy.deepcopy`` can handle —
plain data, or containers of it (bound methods excepted, see above;
one nested inside some other object is deep-copied as usual).
Attributes holding live iterators (an in-flight latency *iterable*)
are the one known exception and raise
:class:`~repro.kernel.errors.SnapshotError` naming the attribute.
Simulator-level observers are not snapshotted; a trace recorder keeps
accumulating across a restore.
"""

from __future__ import annotations

import copy
import types
from typing import TYPE_CHECKING, Any

from repro.kernel.component import Component
from repro.kernel.errors import SnapshotError
from repro.kernel.signal import Signal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.simulator import Simulator

#: Component attributes that describe *structure*, not state: identical
#: across the snapshot's lifetime by construction, so never copied.
_STRUCTURAL_KEYS = frozenset(
    {
        "name",
        "parent",
        "children",
        "_signals",
        "_comb_reads",
        "_comb_volatile",
        "_engine_hook",
        "_seq_hook",
    }
)

_MISSING = object()

#: Types ``copy.deepcopy`` returns as-is; :func:`_copy_state` answers
#: them without a call into the copy module.
_ATOMIC = frozenset(
    {type(None), bool, int, float, complex, str, bytes, range, type, types.FunctionType}
)


def _copy_state(value: Any, memo: dict[int, Any]) -> Any:
    """``copy.deepcopy(value, memo)`` under the callbacks-are-structure rule.

    Bound methods — at the top level or inside list/tuple/dict/set
    containers — are returned by reference, so their ``__self__`` is
    never copied.  Everything else is copied exactly as ``deepcopy``
    would, sharing *memo* (aliasing and the infra seeding included).
    The rule lives here, per call, rather than in the copy module's
    process-wide dispatch table.
    """
    cls = type(value)
    if cls in _ATOMIC or cls is types.MethodType:
        return value
    if cls not in (list, tuple, dict, set, frozenset):
        return copy.deepcopy(value, memo)
    found = memo.get(id(value), _MISSING)
    if found is not _MISSING:
        return found
    if cls is list:
        out: Any = []
        _memoize(value, out, memo)
        out.extend([_copy_state(item, memo) for item in value])
        return out
    if cls is dict:
        out = {}
        _memoize(value, out, memo)
        for key, item in value.items():
            out[_copy_state(key, memo)] = _copy_state(item, memo)
        return out
    items = [_copy_state(item, memo) for item in value]
    found = memo.get(id(value), _MISSING)
    if found is not _MISSING:
        # Copied while copying its own items (a cycle through a list).
        return found
    if cls is set:
        out = set(items)
    elif all(new is old for new, old in zip(items, value)):
        # An immutable container of shared items is itself shared.
        return value
    else:
        out = cls(items)
    _memoize(value, out, memo)
    return out


def _memoize(value: Any, out: Any, memo: dict[int, Any]) -> None:
    """Record *out* as the copy of *value* and keep *value* alive.

    The memo is keyed by ``id``: as in ``deepcopy``, the original must
    outlive the memo so a later temporary (a hook's fresh save blob)
    can never reuse its id and alias the wrong copy.
    """
    memo[id(value)] = out
    keep = memo.get(id(memo))
    if keep is None:
        memo[id(memo)] = [value]
    else:
        keep.append(value)


def _infra_memo(sim: "Simulator") -> tuple[dict[int, Any], frozenset[int]]:
    """A deepcopy memo pre-seeded with the design's shared objects.

    Components and signals are identity — copying them would duplicate
    the design, and every reference a state attribute holds to them
    (``self.channel``, cached signal lists) must stay a reference.
    """
    memo: dict[int, Any] = {}
    for comp in sim._components:
        memo[id(comp)] = comp
    for sig in sim._signals:
        memo[id(sig)] = sig
    return memo, frozenset(memo)


def _is_infra_sequence(value: Any) -> bool:
    """Non-empty list/tuple holding only components/signals (a cache)."""
    if type(value) not in (list, tuple) or not value:
        return False
    return all(isinstance(item, (Component, Signal)) for item in value)


def _snapshot_component(
    comp: Component, memo: dict[int, Any], infra_ids: frozenset[int]
) -> dict[str, Any]:
    blob: dict[str, Any] = {}
    for key, value in comp.__dict__.items():
        if key in _STRUCTURAL_KEYS:
            continue
        if id(value) in infra_ids or _is_infra_sequence(value):
            # A direct reference to a component/signal (or a cached
            # list of them) is structure: shared, never restored.
            continue
        try:
            blob[key] = _copy_state(value, memo)
        except Exception as exc:
            raise SnapshotError(
                f"{comp.path}: attribute {key!r} cannot be snapshotted "
                f"({type(exc).__name__}: {exc}); hold registered state "
                f"in plain data attributes"
            ) from exc
    return blob


def _restore_component(
    comp: Component, blob: dict[str, Any], memo: dict[int, Any]
) -> None:
    ns = comp.__dict__
    for key, snap_val in blob.items():
        cur = ns.get(key, _MISSING)
        if cur is snap_val:
            # Identical object: an infra reference or bound method
            # kept by identity, or an unchanged interned immutable.
            continue
        val = _copy_state(snap_val, memo)
        # Identity-preserving paths first: compiled closures bind these
        # containers/objects, so the state must flow *through* them.
        if type(cur) is list and type(val) is list:
            cur[:] = val
        elif type(cur) is dict and type(val) is dict:
            cur.clear()
            cur.update(val)
        elif type(cur) is set and type(val) is set:
            cur.clear()
            cur.update(val)
        elif (
            cur is not _MISSING
            and type(cur) is type(val)
            and not isinstance(cur, (Component, Signal))
            and getattr(cur, "__dict__", None) is not None
            and type(cur).__module__ != "builtins"
        ):
            # Plain helper object (e.g. a RoundRobinArbiter): rewrite
            # its state in place so compile-time bindings stay valid.
            cur.__dict__.clear()
            cur.__dict__.update(val.__dict__)
        else:
            ns[key] = val


class SimSnapshot:
    """One point of a simulation's state; see the module docstring.

    Produced by :meth:`Simulator.snapshot`; opaque to callers apart from
    the read-only :attr:`cycle` it was taken at.
    """

    __slots__ = ("cycle", "_values", "_seq_values", "_blobs", "_extras",
                 "_owner")

    def __init__(self, cycle, values, seq_values, blobs, extras, owner):
        self.cycle = cycle
        self._values = values
        self._seq_values = seq_values
        self._blobs = blobs
        self._extras = extras
        self._owner = owner

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"<SimSnapshot cycle={self.cycle} signals={len(self._values)} "
            f"components={len(self._blobs)}>"
        )


def take_snapshot(sim: "Simulator") -> SimSnapshot:
    """Capture *sim*'s complete state (simulator must be finalized)."""
    memo, infra_ids = _infra_memo(sim)
    blobs = [
        _snapshot_component(comp, memo, infra_ids)
        for comp in sim._components
    ]
    values = _copy_state(sim._store.values, memo)
    seq = sim._seq
    seq_values = _copy_state(seq.values, memo) if seq is not None else None
    extras = [_copy_state(save(), memo) for save, _load in sim._snapshot_hooks]
    return SimSnapshot(sim.cycle, values, seq_values, blobs, extras, sim)


def restore_snapshot(sim: "Simulator", snap: SimSnapshot) -> None:
    """Rewind *sim* to *snap*; see :meth:`Simulator.restore`."""
    if snap._owner is not sim:
        raise SnapshotError(
            "snapshot belongs to a different simulator instance"
        )
    if len(snap._blobs) != len(sim._components):
        raise SnapshotError(
            f"snapshot covers {len(snap._blobs)} components but the "
            f"simulator now has {len(sim._components)}"
        )
    if len(snap._extras) != len(sim._snapshot_hooks):
        raise SnapshotError(
            "snapshot hooks changed since the snapshot was taken"
        )
    memo, _infra_ids = _infra_memo(sim)
    store_values = sim._store.values
    if len(snap._values) != len(store_values):
        raise SnapshotError(
            "signal count changed since the snapshot was taken"
        )
    store_values[:] = _copy_state(snap._values, memo)
    seq = sim._seq
    if snap._seq_values is not None and seq is not None:
        if len(snap._seq_values) != len(seq.values):
            raise SnapshotError(
                "sequential-state layout changed since the snapshot "
                "was taken (rebuild with different collaborators?)"
            )
        seq.values[:] = _copy_state(snap._seq_values, memo)
    for comp, blob in zip(sim._components, snap._blobs):
        _restore_component(comp, blob, memo)
    for (_save, load), blob in zip(sim._snapshot_hooks, snap._extras):
        load(_copy_state(blob, memo))
    sim.cycle = snap.cycle
    # Everything is stale after an out-of-band rewrite: force the next
    # settle to re-derive the full combinational net and re-arm every
    # delta-gated tick plan.
    invalidate_all = getattr(sim._engine, "invalidate_all", None)
    if invalidate_all is not None:
        invalidate_all()
    if seq is not None:
        for plan in seq.plans:
            plan.invalidate()


class ForkContext:
    """``with sim.fork():`` — snapshot on entry, rewind on exit.

    The rewind-style fork: warm a design up once, then explore any
    number of stimulus variants from the same branch point::

        sim.run(cycles=warmup)
        with sim.fork():
            src.push(0, item_a)
            sim.run(cycles=100)          # trajectory A
        with sim.fork():                 # state is back at the branch
            src.push(0, item_b)
            sim.run(cycles=100)          # trajectory B

    The snapshot is taken eagerly at construction (so ``fork()`` itself
    marks the branch point) and the rewind happens on ``__exit__`` even
    when the body raises.  Entering yields the snapshot, which remains
    valid for further explicit :meth:`Simulator.restore` calls.
    """

    __slots__ = ("_sim", "snapshot")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self.snapshot = take_snapshot(sim)

    def __enter__(self) -> SimSnapshot:
        return self.snapshot

    def __exit__(self, exc_type, exc, tb) -> None:
        restore_snapshot(self._sim, self.snapshot)
