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
values are duplicated.  So are the slot-store and seq-store value lists
themselves: the snapshot copies each store once, and a component
attribute aliasing one (a buffer's ``_sstore``, a channel's
``_blk_store``) is structure — neither copied nor rebound.  Aliasing
between the live design and the snapshot is broken for all mutable
state — restoring and running never mutates the snapshot, so one
snapshot supports any number of restores (the basis of rewind-style
:meth:`~repro.kernel.simulator.Simulator.fork`).

**Copy by kind.**  One routine, :func:`_copy_state`, decides per value
before it falls back to ``copy.deepcopy``:

* atomic values (numbers, strings, ``None``, :data:`X`, classes, plain
  functions) and enum members are kept by reference;
* a list, dict or set whose items are all shareable is copied with one
  C-speed type check plus a slice (``v[:]``, ``d.copy()``); a tuple of
  shareable items is itself shared;
* a plain helper object (no copy or pickle hook, no ``__slots__``, e.g. a
  :class:`~repro.core.arbiter.RoundRobinArbiter`) whose ``__dict__``
  holds only atomics is copied as ``cls.__new__(cls)`` plus that dict;
* everything else — a helper holding more than atomics, or anything
  with ``__deepcopy__``, a ``__reduce__`` / ``__reduce_ex__`` override,
  ``__getstate__`` / ``__setstate__`` or ``__slots__`` — goes through
  ``copy.deepcopy`` with the shared memo (containers of mixed items
  are walked item by item first).

Each component's state is recorded by kind, so restore loads atomics
with one ``dict.update``, writes a flat container back with a single
``cur[:] = snap`` (or ``clear``/``update``) and no second copy, and
rewrites a flat helper's ``__dict__`` from the snapshot's; only the
remaining values are copied again.

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
import copyreg
import enum
import types
from itertools import repeat
from operator import is_
from typing import TYPE_CHECKING, Any

from repro.kernel.component import Component
from repro.kernel.errors import SnapshotError
from repro.kernel.signal import Signal
from repro.kernel.values import X

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

#: Infrastructure: shared by every snapshot, never copied.
_INFRA = (Component, Signal)

#: Immutable kinds a copy shares with its original: what ``deepcopy``
#: returns as-is, plus :data:`X` (its ``__reduce__`` rebuilds the
#: singleton).  Enum classes and metaclasses join on first sight.
_ATOMIC: set[type] = {
    type(None), bool, int, float, complex, str, bytes, range, type,
    types.FunctionType, types.BuiltinFunctionType, type(X),
}
#: What a copied container shares with its original: the atomic kinds
#: plus bound methods (callbacks are structure).
_SHARED: set[type] = _ATOMIC | {types.MethodType}

#: type -> True when its instances are plain helper objects; see
#: _classify.  Like the two sets above, it only ever records what a
#: type is, so one process-wide cache serves every simulator.
_PLAIN: dict[type, bool] = {}


def _classify(cls: type) -> bool:
    """Sort a type not seen before; True when it is a plain helper class.

    Classes (instances of metaclasses) and enum members copy as
    themselves: their type joins :data:`_ATOMIC`.  A plain helper class
    is one ``deepcopy`` copies as ``cls.__new__(cls)`` plus its
    ``__dict__``: no copy or pickle hook and no ``__slots__`` anywhere in
    its MRO.  Components, signals and builtins are never plain.
    """
    if issubclass(cls, type) or isinstance(cls, enum.EnumMeta):
        _ATOMIC.add(cls)
        _SHARED.add(cls)
        plain = False
    else:
        plain = not (
            issubclass(cls, _INFRA)
            or cls.__module__ == "builtins"
            or cls in copyreg.dispatch_table
            or hasattr(cls, "__deepcopy__")
            or hasattr(cls, "__setstate__")
            or hasattr(cls, "__getnewargs__")
            or hasattr(cls, "__getnewargs_ex__")
            or cls.__reduce_ex__ is not object.__reduce_ex__
            or cls.__reduce__ is not object.__reduce__
            # Python 3.10 has no object.__getstate__: both sides are
            # then None unless the class defines its own.
            or getattr(cls, "__getstate__", None)
            is not getattr(object, "__getstate__", None)
            or any("__slots__" in vars(k) for k in cls.__mro__)
        )
    _PLAIN[cls] = plain
    return plain


def _copy_state(value: Any, memo: dict[int, Any]) -> Any:
    """``copy.deepcopy(value, memo)``, dispatched by kind (module docs).

    Bound methods — at the top level or inside list/tuple/dict/set
    containers — are returned by reference, so their ``__self__`` is
    never copied.  Everything else is copied exactly as ``deepcopy``
    would, sharing *memo* (aliasing and the infra seeding included).
    The rule lives here, per call, rather than in the copy module's
    process-wide dispatch table.
    """
    cls = type(value)
    if cls in _SHARED:
        return value
    found = memo.get(id(value), _MISSING)
    if found is not _MISSING:
        return found
    if cls is list:
        if _SHARED.issuperset(map(type, value)):
            out: Any = value[:]
            _memoize(value, out, memo)
            return out
        out = []
        _memoize(value, out, memo)
        out.extend([_copy_state(item, memo) for item in value])
        return out
    if cls is dict:
        if _SHARED.issuperset(map(type, value)) and _SHARED.issuperset(
            map(type, value.values())
        ):
            out = value.copy()
            _memoize(value, out, memo)
            return out
        out = {}
        _memoize(value, out, memo)
        for key, item in value.items():
            out[_copy_state(key, memo)] = _copy_state(item, memo)
        return out
    if cls is tuple or cls is set or cls is frozenset:
        if _SHARED.issuperset(map(type, value)):
            if cls is not set:
                return value
            out = value.copy()
            _memoize(value, out, memo)
            return out
        items = [_copy_state(item, memo) for item in value]
        found = memo.get(id(value), _MISSING)
        if found is not _MISSING:
            # Copied while copying its own items (a cycle through a list).
            return found
        if cls is set:
            out = set(items)
        elif all(map(is_, items, value)):
            # An immutable container of shared items is itself shared.
            return value
        else:
            out = cls(items)
        _memoize(value, out, memo)
        return out
    plain = _PLAIN.get(cls)
    if plain is None:
        plain = _classify(cls)
        if cls in _SHARED:
            return value
    state = getattr(value, "__dict__", None) if plain else None
    if type(state) is dict and _ATOMIC.issuperset(map(type, state.values())):
        out = cls.__new__(cls)
        out.__dict__.update(state)
        _memoize(value, out, memo)
        return out
    return copy.deepcopy(value, memo)


def _infra(sim: "Simulator") -> dict[int, Any]:
    """The design's shared objects, each mapped to itself: a memo seed.

    Components and signals are identity — copying them would duplicate
    the design, and every reference a state attribute holds to them
    (``self.channel``, cached signal lists) must stay a reference.  The
    slot-store and seq-store value lists are mapped to themselves too:
    the snapshot copies each store once, so an attribute aliasing one
    is structure.  ``memo.get(id(v)) is v`` holds exactly for these.
    """
    infra: dict[int, Any] = dict(zip(map(id, sim._components), sim._components))
    infra.update(zip(map(id, sim._signals), sim._signals))
    infra[id(sim._store.values)] = sim._store.values
    if sim._seq is not None:
        infra[id(sim._seq.values)] = sim._seq.values
    return infra


def _new_memo(infra: dict[int, Any]) -> dict[int, Any]:
    """A fresh copy memo seeded with *infra* and a keep-alive list.

    The memo is keyed by ``id``: as in ``deepcopy`` (which shares the
    ``memo[id(memo)]`` list), every original must outlive the memo so
    a later temporary (a hook's fresh save blob) can never reuse its id
    and alias the wrong copy.
    """
    memo = dict(infra)
    memo[id(memo)] = []
    return memo


def _memoize(value: Any, out: Any, memo: dict[int, Any]) -> None:
    """Record *out* as the copy of *value* and keep *value* alive."""
    memo[id(value)] = out
    memo[id(memo)].append(value)


def _flat(out: Any, value: Any) -> bool:
    """Whether the container copy *out* shares every item with *value*.

    A flat copy can be written back on restore as it is: its items are
    immutable or structure, never state of their own.
    """
    if type(out) is list:
        return all(map(is_, out, value))
    if type(out) is dict:
        return _SHARED.issuperset(map(type, out)) and _SHARED.issuperset(
            map(type, out.values())
        )
    return _SHARED.issuperset(map(type, out))



def _is_infra_sequence(value: Any) -> bool:
    """Non-empty list/tuple holding only components/signals (a cache)."""
    return bool(value) and all(map(isinstance, value, repeat(_INFRA)))


def _snapshot_component(
    comp: Component, memo: dict[int, Any]
) -> tuple[dict[str, Any], Any, Any, Any]:
    """(atoms, flat containers, flat helpers, the rest) of *comp*'s state."""
    atoms: dict[str, Any] = {}
    flats: list[tuple[str, Any]] = []
    helpers: list[tuple[str, Any]] = []
    rest: list[tuple[str, Any]] = []
    key = None
    try:
        for key, value in comp.__dict__.items():
            if key in _STRUCTURAL_KEYS:
                continue
            cls = type(value)
            if cls in _SHARED:
                atoms[key] = value
                continue
            if memo.get(id(value)) is value or (
                (cls is list or cls is tuple) and _is_infra_sequence(value)
            ):
                # A component, signal or store list, or a cached list of
                # components/signals, is structure: never restored.
                continue
            out = _copy_state(value, memo)
            if out is value:
                atoms[key] = value
            elif cls is list or cls is dict or cls is set:
                (flats if _flat(out, value) else rest).append((key, out))
            elif (
                type(out) is cls
                and _PLAIN.get(cls)
                and _ATOMIC.issuperset(map(type, out.__dict__.values()))
            ):
                helpers.append((key, out))
            else:
                rest.append((key, out))
    except Exception as exc:
        raise SnapshotError(
            f"{comp.path}: attribute {key!r} cannot be snapshotted "
            f"({type(exc).__name__}: {exc}); hold registered state "
            f"in plain data attributes"
        ) from exc
    # Most components hold no flat helpers or deep values: keep the
    # long-lived blob small.
    return atoms, flats or (), helpers or (), rest or ()


def _restore_component(
    comp: Component, blob: tuple[dict[str, Any], Any, Any, Any],
    memo: dict[int, Any],
) -> None:
    atoms, flats, helpers, rest = blob
    ns = comp.__dict__
    ns.update(atoms)
    # Identity-preserving paths first: compiled closures bind these
    # containers/objects, so the state must flow *through* them.
    for key, snap_val in flats:
        cur = ns.get(key)
        if type(cur) is not type(snap_val):
            ns[key] = _copy_state(snap_val, memo)
        elif type(cur) is list:
            cur[:] = snap_val
        else:
            cur.clear()
            cur.update(snap_val)
    for key, snap_val in helpers:
        cur = ns.get(key)
        if type(cur) is type(snap_val):
            state = cur.__dict__
            state.clear()
            state.update(snap_val.__dict__)
        else:
            ns[key] = _copy_state(snap_val, memo)
    for key, snap_val in rest:
        cur = ns.get(key, _MISSING)
        if cur is snap_val:
            # A copy hook that hands out a shared object (a singleton).
            continue
        val = _copy_state(snap_val, memo)
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
            and not isinstance(cur, _INFRA)
            and getattr(cur, "__dict__", None) is not None
            and type(cur).__module__ != "builtins"
        ):
            # Plain helper object (e.g. a RoundRobinArbiter): rewrite
            # its state in place so compile-time bindings stay valid.
            cur.__dict__.clear()
            cur.__dict__.update(val.__dict__)
        else:
            ns[key] = val


def _copy_store(values: list, memo: dict[int, Any]) -> tuple[list, bool]:
    """One columnar copy of a store's value list, and whether it is flat."""
    if _SHARED.issuperset(map(type, values)):
        return values[:], True
    out = [
        item if type(item) in _SHARED else _copy_state(item, memo)
        for item in values
    ]
    return out, all(map(is_, out, values))


def _load_store(
    live: list, snap: tuple[list, bool], memo: dict[int, Any]
) -> None:
    values, flat = snap
    live[:] = values if flat else [
        item if type(item) in _SHARED else _copy_state(item, memo)
        for item in values
    ]


class SimSnapshot:
    """One point of a simulation's state; see the module docstring.

    Produced by :meth:`Simulator.snapshot`; opaque to callers apart from
    the read-only :attr:`cycle` it was taken at.
    """

    __slots__ = ("cycle", "_values", "_seq_values", "_blobs", "_extras",
                 "_owner", "_infra")

    def __init__(self, cycle, values, seq_values, blobs, extras, owner,
                 infra):
        self.cycle = cycle
        self._values = values
        self._seq_values = seq_values
        self._blobs = blobs
        self._extras = extras
        self._owner = owner
        #: The memo seed (components, signals, stores) every restore
        #: of this snapshot starts from.
        self._infra = infra

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"<SimSnapshot cycle={self.cycle} signals={len(self._values[0])} "
            f"components={len(self._blobs)}>"
        )


def take_snapshot(sim: "Simulator") -> SimSnapshot:
    """Capture *sim*'s complete state (simulator must be finalized)."""
    infra = _infra(sim)
    memo = _new_memo(infra)
    blobs = [_snapshot_component(comp, memo) for comp in sim._components]
    values = _copy_store(sim._store.values, memo)
    seq = sim._seq
    seq_values = _copy_store(seq.values, memo) if seq is not None else None
    extras = [_copy_state(save(), memo) for save, _load in sim._snapshot_hooks]
    return SimSnapshot(
        sim.cycle, values, seq_values, blobs, extras, sim, infra
    )


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
    memo = _new_memo(snap._infra)
    store_values = sim._store.values
    if len(snap._values[0]) != len(store_values):
        raise SnapshotError(
            "signal count changed since the snapshot was taken"
        )
    _load_store(store_values, snap._values, memo)
    seq = sim._seq
    if snap._seq_values is not None and seq is not None:
        if len(snap._seq_values[0]) != len(seq.values):
            raise SnapshotError(
                "sequential-state layout changed since the snapshot "
                "was taken (rebuild with different collaborators?)"
            )
        _load_store(seq.values, snap._seq_values, memo)
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
