"""The design-family registry: name → builder/runner pair.

A *family* is one buildable design shape (an MT pipeline, the elastic
ring, the MD5 circuit, ...) exposed to the campaign layer through two
callables:

``build(params, engine) -> handle``
    Construct and reset the design.  The handle carries the simulator
    plus whatever the runner needs (sources, sinks, monitors, area
    components).  Structural knobs (thread count, stage count, MEB
    kind) are *params*; traffic is not — stimulus is applied by ``run``
    so one built design serves many scenarios.

``run(handle, scenario) -> metrics dict``
    Apply the scenario's stimulus, drive the simulation, and return
    JSON-serializable metrics.

``reusable=True`` families keep no driver state outside the simulator
(driver state either lives in components or is registered through
:meth:`~repro.kernel.simulator.Simulator.add_snapshot_hook`, as the MD5
hasher's round counter and wave reference are), so the campaign runner
builds them once per worker and rewinds ``handle.sim`` between
scenarios with the kernel's columnar snapshot/restore instead of a full
recompile.  Families whose drivers hold other state outside the
simulator set ``reusable=False`` and are rebuilt per scenario.

Built-in families live in :mod:`repro.sweep.families` and register
themselves on import; external code can add more with
:func:`register_family`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping


@dataclasses.dataclass(frozen=True)
class EnsembleSupport:
    """How a family batches control-identical scenarios into one run.

    ``group_key(scenario)`` returns a hashable batching key for
    scenarios that may share one lockstep simulator — scenarios are
    batchable together iff their keys are equal — or ``None`` when the
    scenario must run serially (the default for anything whose control
    flow depends on the seed or payload).  ``lift(handle)`` lifts a
    freshly built design for row-valued data (see
    :mod:`repro.kernel.ensemble`) and returns the
    :class:`~repro.kernel.ensemble.EnsembleContext`.  ``run(handle, ctx,
    scenarios)`` applies the shared stimulus once, drives the lockstep
    simulation and returns one ``("ok", metrics)`` or ``("error",
    traceback)`` outcome per scenario, in order.  Raising
    :class:`~repro.kernel.errors.EnsembleUnsupported` or
    :class:`~repro.kernel.errors.EnsembleDivergence` from ``lift``/``run``
    makes the caller fall back to serial execution — batching is an
    optimization, never a correctness dependency.
    """

    group_key: Callable[[Any], Any]
    lift: Callable[[Any], Any]
    run: Callable[[Any, Any, Any], list]


@dataclasses.dataclass(frozen=True)
class Family:
    """One registered design family (see module docstring).

    ``params`` maps each structural parameter to its default value and
    ``stimulus_kinds`` names the stimulus shapes ``run`` understands —
    machine-readable metadata the registry serves to clients (the
    ``families --json`` CLI command and the service's ``/families``
    endpoint emit it verbatim).  ``ensemble`` (optional) declares how
    control-identical scenarios batch into one lockstep simulation.
    """

    name: str
    build: Callable[[Mapping[str, Any], str | None], Any]
    run: Callable[[Any, Any], dict]
    reusable: bool = True
    description: str = ""
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    stimulus_kinds: tuple[str, ...] = ()
    ensemble: EnsembleSupport | None = None


_REGISTRY: dict[str, Family] = {}


def register_family(family: Family) -> Family:
    """Register *family*; raises on duplicate names."""
    if family.name in _REGISTRY:
        raise ValueError(f"design family {family.name!r} already registered")
    _REGISTRY[family.name] = family
    return family


def _ensure_builtins() -> None:
    # Built-ins register on first lookup, not at package import, so the
    # spec layer stays importable without pulling the whole component
    # library in.
    if "mt_pipeline" not in _REGISTRY:
        import repro.sweep.families  # noqa: F401  (registers on import)
    if "fuzz" not in _REGISTRY:
        import repro.sweep.fuzz  # noqa: F401  (registers on import)


def get_family(name: str) -> Family:
    """Look up a family by name (built-ins load lazily)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown design family {name!r}; registered: {known}"
        ) from None


def family_names() -> list[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


def registry_payload() -> dict[str, Any]:
    """The registry as one JSON-serializable structure.

    This is the single source for every machine-readable listing of the
    design space: ``python -m repro.sweep families --json`` prints it
    and ``GET /families`` on the campaign service returns it, so the two
    can never drift apart.
    """
    _ensure_builtins()
    return {
        "families": {
            name: {
                "reusable": family.reusable,
                "description": family.description,
                "params": dict(family.params),
                "stimulus_kinds": list(family.stimulus_kinds),
                "ensemble": family.ensemble is not None,
            }
            for name, family in sorted(_REGISTRY.items())
        }
    }
