"""Lowering a dataflow graph to a simulatable elastic circuit.

One validated :class:`~repro.netlist.graph.DataflowGraph` elaborates to:

* a **single-thread** elastic circuit (``threads=1``): channels, 2-slot
  EBs, the Fig. 3 operators; or
* a **multithreaded** elastic circuit (``threads=S``): MT channels and a
  full or reduced MEB per BUFFER node — the paper's "replace every
  pipeline register with an MEB" recipe applied mechanically.

The returned :class:`Elaboration` keeps name-indexed handles to sources,
sinks, buffers and per-edge monitors, plus the live
:class:`~repro.kernel.simulator.Simulator`.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core import (
    Barrier,
    FullMEB,
    GrantPolicy,
    MBranch,
    MFork,
    MJoin,
    MMerge,
    MTChannel,
    MTFunction,
    MTMonitor,
    MTSink,
    MTSource,
    MTVariableLatencyUnit,
    ReducedMEB,
)
from repro.elastic import (
    Branch,
    ChannelMonitor,
    ElasticBuffer,
    ElasticChannel,
    FunctionUnit,
    Join,
    LazyFork,
    Merge,
    Sink,
    Source,
    VariableLatencyUnit,
)
from repro.kernel import Component, Simulator
from repro.kernel.errors import WiringError
from repro.netlist.graph import DataflowGraph, NodeKind
from repro.netlist.validate import validate

MEB_KINDS = {"full": FullMEB, "reduced": ReducedMEB}


@dataclasses.dataclass
class Elaboration:
    """A lowered, ready-to-run circuit with name-indexed handles."""

    graph_name: str
    threads: int
    sim: Simulator
    components: dict[str, Component]
    channels: dict[str, Component]
    monitors: dict[str, Any]

    def source(self, name: str):
        return self.components[name]

    def sink(self, name: str):
        return self.components[name]

    def buffer(self, name: str):
        return self.components[name]

    def monitor(self, edge_name: str):
        return self.monitors[edge_name]

    def run(self, **kwargs: Any) -> int:
        return self.sim.run(**kwargs)


def _normalize_items(items: Any, threads: int) -> list[list[Any]]:
    """Accept flat lists for single-thread graphs, per-thread otherwise."""
    if threads == 1:
        if items and isinstance(items[0], (list, tuple)):
            return [list(items[0])]
        return [list(items)]
    if len(items) != threads:
        raise WiringError(
            f"multithreaded source needs {threads} item streams, got "
            f"{len(items)}"
        )
    return [list(stream) for stream in items]


def elaborate(
    graph: DataflowGraph,
    threads: int = 1,
    meb: str = "reduced",
    policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
    monitors: bool = True,
    max_settle_iterations: int = 128,
    engine: str | None = None,
) -> Elaboration:
    """Validate and lower *graph*; returns a reset, runnable circuit.

    ``engine`` selects the simulator's settle engine (``"compiled"`` /
    ``"naive"``); None uses the process default.
    """
    if meb not in MEB_KINDS:
        raise ValueError(f"meb must be one of {sorted(MEB_KINDS)}")
    validate(graph)
    mt = threads > 1
    sim = Simulator(
        max_settle_iterations=max_settle_iterations, engine=engine
    )
    channels: dict[str, Component] = {}
    mon_map: dict[str, Any] = {}

    # Edges -> channels (+ optional monitors).
    in_ch: dict[tuple[str, int], Component] = {}
    out_ch: dict[tuple[str, int], Component] = {}
    for i, edge in enumerate(graph.edges):
        cname = f"e{i}"
        ch: Component
        if mt:
            ch = MTChannel(cname, threads=threads, width=edge.width)
        else:
            ch = ElasticChannel(cname, width=edge.width)
        channels[edge.name] = ch
        out_ch[(edge.src, edge.src_port)] = ch
        in_ch[(edge.dst, edge.dst_port)] = ch
        sim.add(ch)
        if monitors:
            mon = (
                MTMonitor(f"mon_{cname}", ch)
                if mt
                else ChannelMonitor(f"mon_{cname}", ch)
            )
            mon_map[edge.name] = mon
            sim.add(mon)

    components: dict[str, Component] = {}

    def inputs_of(name: str, node) -> list[Component]:
        return [in_ch[(name, p)] for p in range(node.n_inputs)]

    def outputs_of(name: str, node) -> list[Component]:
        return [out_ch[(name, p)] for p in range(node.n_outputs)]

    for name, node in graph.nodes.items():
        params = dict(node.params)
        ins = inputs_of(name, node)
        outs = outputs_of(name, node)
        comp: Component
        if node.kind == NodeKind.SOURCE:
            items = _normalize_items(params.pop("items"), threads)
            if mt:
                comp = MTSource(name, outs[0], items=items,
                                patterns=params.pop("patterns", None),
                                policy=policy)
            else:
                comp = Source(name, outs[0], items=items[0],
                              pattern=params.pop("patterns", None))
        elif node.kind == NodeKind.SINK:
            if mt:
                comp = MTSink(name, ins[0],
                              patterns=params.pop("patterns", None))
            else:
                comp = Sink(name, ins[0],
                            pattern=params.pop("patterns", None))
        elif node.kind == NodeKind.BUFFER:
            if mt:
                comp = MEB_KINDS[meb](name, ins[0], outs[0], policy=policy)
            else:
                comp = ElasticBuffer(name, ins[0], outs[0])
        elif node.kind == NodeKind.OP:
            fn = params.pop("fn")
            luts = params.pop("area_luts", 0)
            if mt:
                comp = MTFunction(name, ins[0], outs[0], fn=fn,
                                  area_luts=luts)
            else:
                comp = FunctionUnit(name, ins[0], outs[0], fn=fn,
                                    area_luts=luts)
        elif node.kind == NodeKind.VLU:
            fn = params.pop("fn")
            latency = params.pop("latency", 1)
            luts = params.pop("area_luts", 0)
            if mt:
                comp = MTVariableLatencyUnit(name, ins[0], outs[0], fn=fn,
                                             latency=latency, area_luts=luts)
            else:
                comp = VariableLatencyUnit(name, ins[0], outs[0], fn=fn,
                                           latency=latency, area_luts=luts)
        elif node.kind == NodeKind.FORK:
            comp = (MFork if mt else LazyFork)(name, ins[0], outs)
        elif node.kind == NodeKind.JOIN:
            combine = params.pop("combine", None)
            if mt:
                comp = MJoin(name, ins, outs[0], combine=combine)
            else:
                comp = Join(name, ins, outs[0], combine=combine)
        elif node.kind == NodeKind.BRANCH:
            selector = params.pop("selector")
            route = params.pop("route", None)
            if mt:
                comp = MBranch(name, ins[0], outs, selector=selector,
                               route=route)
            else:
                comp = Branch(name, ins[0], outs, selector=selector,
                              route=route)
        elif node.kind == NodeKind.MERGE:
            if mt:
                comp = MMerge(name, ins, outs[0])
            else:
                comp = Merge(name, ins, outs[0],
                             strict=params.pop("strict", False))
        elif node.kind == NodeKind.BARRIER:
            if not mt:
                raise WiringError(
                    f"{name}: barrier is a multithreaded primitive; "
                    "elaborate with threads > 1"
                )
            comp = Barrier(name, ins[0], outs[0],
                           participants=params.pop("participants", None),
                           on_release=params.pop("on_release", None))
        else:  # pragma: no cover - exhaustive over NodeKind
            raise WiringError(f"unhandled node kind {node.kind}")
        components[name] = comp
        sim.add(comp)

    sim.reset()
    return Elaboration(
        graph_name=graph.name,
        threads=threads,
        sim=sim,
        components=components,
        channels=channels,
        monitors=mon_map,
    )
