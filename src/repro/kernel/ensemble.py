"""Ensemble lockstep execution: one compiled schedule advances K scenarios.

Scenarios inside a campaign grid cell share the exact compiled
settle/tick schedule and differ only in stimulus payloads and seeds, so
every Python-level dispatch — settle sweeps, plan capture/commit,
handshake updates — is paid K times for work that is identical K ways.
This module lets ONE simulator advance K such scenarios per step.

Row-valued data
---------------

Rather than widening every slot by an ensemble axis (which would tax the
scalar control path that dominates these designs), the ensemble axis
lives **only in the data payloads**: every payload becomes a *row* — a
tuple of K per-lane values.  Control slots (``valid``/``ready``,
occupancy counters, arbiter state) stay scalar and shared, which is
exactly the lockstep contract: all lanes make identical handshake
decisions every cycle, so one settle sweep serves all K.

Components interact with rows in one of three ways, declared through
:attr:`repro.kernel.component.Component.ENSEMBLE_DATA`:

``"opaque"``
    The component moves payloads by reference and never looks inside
    (channels, sources, sinks, elastic buffers, merges, forks,
    monitors).  A row flows through untouched at the cost of moving one
    reference — the marginal cost per extra lane is near zero, which is
    where the ensemble speedup comes from.

``"lift"``
    The component inspects payloads through callables (an
    :class:`~repro.core.function.MTFunction` body, an
    :class:`~repro.core.operators.MBranch` selector/route).
    :func:`lift_simulator` rebinds those callables to lane-wise lifted
    forms via :meth:`Component.ensemble_lift` and rebuilds the
    simulator so compiled closures capture the lifted versions.

``"unsafe"``
    Everything else (the default).  Data-dependent latency, per-thread
    context, tuple-building joins: lane independence cannot be proven,
    so :func:`lift_simulator` raises
    :class:`~repro.kernel.errors.EnsembleUnsupported` and the caller
    runs the scenarios serially instead.

Lane divergence
---------------

A lane whose payload transform raises drops out without stalling the
batch: the lifted callable records the failure on the
:class:`EnsembleContext` and emits the :data:`POISON` sentinel, which
propagates through later transforms.  Control flow keeps advancing for
the surviving lanes; the failed lane's scenario is reported as an error
from the recorded traceback.  If lanes stop agreeing on *control* (an
``MBranch`` selector votes differently per lane), the whole batch raises
:class:`~repro.kernel.errors.EnsembleDivergence` and the caller falls
back to serial execution — correctness never depends on batching.

Because control never reads payloads, every lane observes exactly the
cycles, stalls and transfer times it would have observed running alone
(only batches whose scenarios are provably control-identical are formed
— see :mod:`repro.sweep.runner`), so per-lane results are bit-identical
to serial runs.  An optional numpy backing for rows of fixed-width
integers would slot in behind the same tuple API; it is deliberately not
required — the pure-Python row layout already amortizes the interpreter
dispatch that dominates.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Iterable, Sequence

from repro.kernel.component import Component
from repro.kernel.errors import EnsembleDivergence, EnsembleUnsupported


class _Poison:
    """Sentinel payload of a failed lane (singleton, identity-compared)."""

    __slots__ = ()
    _instance: "_Poison | None" = None

    def __new__(cls) -> "_Poison":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<poison>"

    def __copy__(self) -> "_Poison":
        return self

    def __deepcopy__(self, memo: dict) -> "_Poison":
        return self

    def __reduce__(self):
        return (_Poison, ())


POISON = _Poison()


class EnsembleContext:
    """Shared lane bookkeeping for one lifted design.

    One context is created per lifted design and lives as long as the
    design does (it is captured by the lifted callables, which are in
    turn captured by compiled closures).  Per-batch state — the lane
    width and the failure map — is re-armed with :meth:`reset` before
    every batch, so one lifted design serves batches of any width.
    """

    def __init__(self, width: int = 0):
        self.width = width
        #: lane index -> formatted traceback of the first failure
        self.failures: dict[int, str] = {}
        #: components whose callables were rebound by lifting
        self.lifted: list[Component] = []

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def reset(self, width: int | None = None) -> None:
        """Re-arm for a new batch: clear failures, optionally set width."""
        self.failures.clear()
        if width is not None:
            self.width = width

    def fail(self, lane: int, exc: BaseException) -> None:
        """Record the first failure of *lane* (later ones are ignored)."""
        if lane not in self.failures:
            self.failures[lane] = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )

    # ------------------------------------------------------------------
    # row helpers
    # ------------------------------------------------------------------
    def row(self, values: Iterable[Any]) -> tuple:
        """Build a row (tuple of per-lane payloads) checking the width."""
        row = tuple(values)
        if len(row) != self.width:
            raise EnsembleUnsupported(
                f"row of width {len(row)} in an ensemble of width {self.width}"
            )
        return row

    @staticmethod
    def lane(row: Sequence[Any], index: int) -> Any:
        """Extract one lane's payload from a row."""
        return row[index]

    # ------------------------------------------------------------------
    # callable lifting
    # ------------------------------------------------------------------
    def lift_fn(self, fn: Callable[[Any], Any]) -> Callable[[tuple], tuple]:
        """Lift a payload transform to a lane-wise map over rows.

        A lane that raises is failed (first traceback recorded) and
        emits :data:`POISON`; poisoned or already-failed lanes propagate
        :data:`POISON` without calling *fn*.
        """
        ctx = self

        def lifted(row: tuple) -> tuple:
            failures = ctx.failures
            out = []
            for j, value in enumerate(row):
                if value is POISON or (failures and j in failures):
                    out.append(POISON)
                    continue
                try:
                    out.append(fn(value))
                except Exception as exc:  # noqa: BLE001 - contained per lane
                    ctx.fail(j, exc)
                    out.append(POISON)
            return tuple(out)

        lifted.__ensemble_lifted__ = True  # type: ignore[attr-defined]
        lifted.__wrapped__ = fn  # type: ignore[attr-defined]
        return lifted

    def lift_selector(
        self, selector: Callable[[Any], int], path: str
    ) -> Callable[[tuple], int]:
        """Lift a branch selector: all live lanes must agree on the port.

        A lane whose selector raises is failed and excluded from the
        vote.  Disagreement among live lanes — or no live lane at all —
        raises :class:`~repro.kernel.errors.EnsembleDivergence`; the
        caller falls back to serial execution.
        """
        ctx = self

        def lifted(row: tuple) -> int:
            failures = ctx.failures
            chosen: int | None = None
            for j, value in enumerate(row):
                if value is POISON or (failures and j in failures):
                    continue
                try:
                    sel = selector(value)
                except Exception as exc:  # noqa: BLE001 - contained per lane
                    ctx.fail(j, exc)
                    continue
                if chosen is None:
                    chosen = sel
                elif sel != chosen:
                    raise EnsembleDivergence(
                        f"{path}: lanes disagree on branch selection "
                        f"({chosen!r} vs {sel!r} at lane {j})"
                    )
            if chosen is None:
                raise EnsembleDivergence(
                    f"{path}: no live lane left to select a branch port"
                )
            return chosen

        lifted.__ensemble_lifted__ = True  # type: ignore[attr-defined]
        lifted.__wrapped__ = selector  # type: ignore[attr-defined]
        return lifted

    def lift_route(self, route: Callable[[Any], Any]) -> Callable[[tuple], tuple]:
        """Lift a branch route transform (same containment as lift_fn)."""
        return self.lift_fn(route)


def lift_simulator(sim: Any, width: int = 0) -> EnsembleContext:
    """Lift every component of *sim* for ensemble execution and rebuild.

    Walks all components, checking the :attr:`Component.ENSEMBLE_DATA`
    contract: ``"opaque"`` components pass through, ``"lift"`` components
    get :meth:`Component.ensemble_lift` called with a fresh
    :class:`EnsembleContext`, anything else raises
    :class:`~repro.kernel.errors.EnsembleUnsupported`.  The simulator is
    rebuilt afterwards so compiled closures capture the lifted
    callables.  Returns the context (width re-armed per batch via
    :meth:`EnsembleContext.reset`).
    """
    ctx = EnsembleContext(width)
    for node in sim.components:  # already the flattened tree
        mode = node.ENSEMBLE_DATA
        if mode == "opaque":
            continue
        if mode == "lift":
            node.ensemble_lift(ctx)
            ctx.lifted.append(node)
        else:
            raise EnsembleUnsupported(
                f"{node.path} ({type(node).__name__}) is not ensemble-safe "
                f"(ENSEMBLE_DATA={mode!r})"
            )
    if ctx.lifted:
        sim.rebuild()
    return ctx
