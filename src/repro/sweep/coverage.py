"""Structural-state coverage maps over the columnar kernel stores.

The grids of a classic campaign sample the handshake-state space at
fixed points; the fuzzer (:mod:`repro.sweep.fuzz`) instead *steers*
stimulus toward states the grids never reach.  Steering needs a cheap,
deterministic notion of "state": this module defines it as a tuple of
per-component **structural signatures** read straight off the slot
blocks every sequential component already keeps columnar —

========================  ==============================================
component                 signature (and enumerable state space)
========================  ==============================================
``FullMEB``               per-thread queue occupancies, each 0..SLOTS —
                          ``(SLOTS+1)^S`` patterns
``ReducedMEB``            per-thread EMPTY/HALF/FULL states with the
                          ≤ 1 FULL invariant — ``2^S + S·2^(S-1)`` legal
                          vectors
``Barrier``               per-thread IDLE/WAIT/FREE FSM states plus the
                          global ``go`` bit — bounded by ``2·3^S``
``MTVariableLatencyUnit`` ``(busy, owner)`` — idle or owned by one of S
                          threads, ``S + 1`` states
========================  ==============================================

Because every one of these blocks is slot-backed (re-homed into the
:class:`~repro.kernel.slots.SeqStore` under the compiled engine, a
private list otherwise — read through the same ``(_sstore, _sq)``
indirection either way), observation is a handful of list reads per
cycle, not per-component introspection.  A :class:`CoverageMap`
registers as a simulator observer (fired after every settle phase) and
accumulates:

* **local coverage** — per component, the set of signatures seen, with
  the enumerable space above as denominator (:attr:`coverage_pct`);
* **joint coverage** — the set of whole-design signature tuples
  (:attr:`new_states`), the fuzzer's novelty signal;
* a canonical :meth:`digest` over the joint set, so two runs can be
  compared bit-for-bit across worker counts and engines.

Everything here is deterministic given the stimulus: sets are hashed
into sorted canonical forms before export and no wall-clock or id()
values leak into the summaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

from repro.core.barrier import Barrier
from repro.core.function import MTVariableLatencyUnit
from repro.core.meb import FullMEB, ReducedMEB
from repro.kernel.simulator import Simulator


@dataclasses.dataclass(frozen=True)
class Probe:
    """One observed component: a signature reader plus its state space."""

    path: str
    kind: str
    extract: Callable[[], tuple]
    space: int


def _probe_full_meb(comp: FullMEB) -> Probe:
    threads = comp.threads
    rng = range(threads)

    def extract() -> tuple:
        sstore, base = comp._sstore, comp._sq
        return tuple(len(sstore[base + t]) for t in rng)

    return Probe(
        path=comp.path,
        kind="full_meb",
        extract=extract,
        space=(comp.SLOTS_PER_THREAD + 1) ** threads,
    )


def _probe_reduced_meb(comp: ReducedMEB) -> Probe:
    threads = comp.threads
    rng = range(threads)

    def extract() -> tuple:
        sstore, base = comp._sstore, comp._sq + threads
        return tuple(sstore[base + t] for t in rng)

    # EMPTY/HALF per thread freely, at most one thread FULL (the MEB's
    # own post-commit invariant): 2^S no-FULL vectors plus S·2^(S-1)
    # one-FULL vectors.
    space = 2**threads + threads * 2 ** (threads - 1)
    return Probe(
        path=comp.path, kind="reduced_meb", extract=extract, space=space
    )


def _probe_barrier(comp: Barrier) -> Probe:
    threads = comp.threads
    rng = range(threads)

    def extract() -> tuple:
        sstore, base = comp._sstore, comp._sq
        fsm = tuple(sstore[base + t] for t in rng)
        return fsm + (sstore[base + threads + 1],)

    # Upper bound: IDLE/WAIT/FREE per thread × the go bit (the arrival
    # counter is a function of the FSM vector).
    return Probe(
        path=comp.path,
        kind="barrier",
        extract=extract,
        space=2 * 3**threads,
    )


def _probe_vl_unit(comp: MTVariableLatencyUnit) -> Probe:
    def extract() -> tuple:
        sstore, base = comp._sstore, comp._sq
        return (sstore[base], sstore[base + 1])

    # Idle, or busy on behalf of exactly one of S threads.
    return Probe(
        path=comp.path,
        kind="vl_unit",
        extract=extract,
        space=comp.threads + 1,
    )


#: Component classes with a structural-signature probe.  Subclasses
#: inherit their base's probe (fault injectors keep the same storage
#: layout), most-derived match first.
_PROBE_FACTORIES: tuple[tuple[type, Callable[[Any], Probe]], ...] = (
    (FullMEB, _probe_full_meb),
    (ReducedMEB, _probe_reduced_meb),
    (Barrier, _probe_barrier),
    (MTVariableLatencyUnit, _probe_vl_unit),
)


def structural_probes(sim: Simulator) -> list[Probe]:
    """Build signature probes for every probeable component of *sim*.

    Deterministically ordered by component path, so the joint-signature
    tuples (and their digest) are reproducible across processes.
    """
    probes: list[Probe] = []
    for comp in sim.components:
        for cls, factory in _PROBE_FACTORIES:
            if isinstance(comp, cls):
                probes.append(factory(comp))
                break
    probes.sort(key=lambda p: p.path)
    return probes


class CoverageMap:
    """Accumulates structural-state coverage for one simulator.

    Use as a context-managed observer around a measurement window::

        cov = CoverageMap(sim)
        cov.attach()          # registers the per-cycle observer
        ... drive stimulus (forks included — observers survive rewind)
        cov.detach()          # ALWAYS detach: reusable designs keep
                              # their simulator across scenarios

    The map never mutates the simulation; it only reads the slot-backed
    state blocks after each settle.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.probes = structural_probes(sim)
        self.local: list[set] = [set() for _ in self.probes]
        self.joint: set[tuple] = set()
        self._extractors = [p.extract for p in self.probes]
        self._attached = False

    # -- observation ----------------------------------------------------

    def observe(self, _sim: Simulator | None = None) -> None:
        """Record the current joint structural signature (one pass)."""
        sig = tuple(extract() for extract in self._extractors)
        for local, part in zip(self.local, sig):
            local.add(part)
        self.joint.add(sig)

    def attach(self) -> "CoverageMap":
        """Start observing every settled cycle (records the now-state too)."""
        if not self._attached:
            self._sim.add_observer(self.observe)
            self._attached = True
            self.observe()
        return self

    def detach(self) -> None:
        """Stop observing: deregister this map's observer from the sim."""
        if self._attached:
            self._sim.remove_observer(self.observe)
            self._attached = False

    # -- accounting -----------------------------------------------------

    @property
    def space(self) -> int:
        """Total enumerable signature space across all probes."""
        return sum(p.space for p in self.probes)

    @property
    def covered(self) -> int:
        """Distinct local signatures seen, summed across probes."""
        return sum(len(s) for s in self.local)

    @property
    def coverage_pct(self) -> float:
        """Local coverage as a percentage of the enumerable space."""
        space = self.space
        if not space:
            return 0.0
        return round(100.0 * self.covered / space, 4)

    @property
    def new_states(self) -> int:
        """Distinct *joint* (whole-design) signatures seen."""
        return len(self.joint)

    def local_counts(self) -> dict[str, int]:
        """Per-component signature counts, keyed by component path."""
        return {
            probe.path: len(local)
            for probe, local in zip(self.probes, self.local)
        }

    def digest(self) -> str:
        """Canonical SHA-256 over the sorted joint signature set.

        Signatures contain only ints, bools, strings and ``None``, so
        ``repr`` is a stable canonical form; sorting removes any
        visit-order dependence.  Two runs with equal digests saw exactly
        the same set of structural states.
        """
        payload = "\n".join(sorted(repr(sig) for sig in self.joint))
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> dict[str, Any]:
        """JSON-safe coverage summary (the metrics-row building block)."""
        return {
            "coverage_pct": self.coverage_pct,
            "new_states": self.new_states,
            "signatures_covered": self.covered,
            "signature_space": self.space,
            "coverage_digest": self.digest(),
            "per_component": self.local_counts(),
        }
