"""Structural validation of dataflow graphs before elaboration.

Checks (each yields a :class:`ValidationIssue`):

* every declared port is connected exactly once,
* every directed cycle contains at least one BUFFER node (an elastic loop
  without storage deadlocks — the token has nowhere to sit),
* combinational cycles: a cycle containing only zero-latency operators
  would never settle,
* BRANCH nodes have a selector, SOURCE nodes have items.
"""

from __future__ import annotations

import dataclasses

from repro.graphs import cyclic_nodes
from repro.netlist.graph import DataflowGraph, NodeKind


@dataclasses.dataclass(frozen=True)
class ValidationIssue:
    severity: str          # "error" | "warning"
    node: str | None
    message: str

    def __str__(self) -> str:
        where = f" [{self.node}]" if self.node else ""
        return f"{self.severity}{where}: {self.message}"


class GraphValidationError(Exception):
    """Raised by :func:`validate` when errors are present."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__(
            "; ".join(str(i) for i in issues if i.severity == "error")
        )


def _port_issues(graph: DataflowGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for name, node in graph.nodes.items():
        in_used: dict[int, int] = {}
        out_used: dict[int, int] = {}
        for edge in graph.in_edges(name):
            in_used[edge.dst_port] = in_used.get(edge.dst_port, 0) + 1
        for edge in graph.out_edges(name):
            out_used[edge.src_port] = out_used.get(edge.src_port, 0) + 1
        for port in range(node.n_inputs):
            count = in_used.get(port, 0)
            if count == 0:
                issues.append(ValidationIssue(
                    "error", name, f"input port {port} unconnected"))
            elif count > 1:
                issues.append(ValidationIssue(
                    "error", name, f"input port {port} has {count} drivers"))
        for port in range(node.n_outputs):
            count = out_used.get(port, 0)
            if count == 0:
                issues.append(ValidationIssue(
                    "error", name, f"output port {port} unconnected"))
            elif count > 1:
                issues.append(ValidationIssue(
                    "error", name,
                    f"output port {port} fans out {count} ways; insert an "
                    "explicit fork"))
        for port in in_used:
            if port >= node.n_inputs:
                issues.append(ValidationIssue(
                    "error", name, f"input port {port} out of range"))
        for port in out_used:
            if port >= node.n_outputs:
                issues.append(ValidationIssue(
                    "error", name, f"output port {port} out of range"))
    return issues


def _cycle_issues(graph: DataflowGraph) -> list[ValidationIssue]:
    """Every directed cycle must pass through a BUFFER (or VLU) node.

    Strips the storage nodes, then asks the shared SCC machinery
    (:func:`repro.graphs.cyclic_nodes` — the same algorithms the compiled
    settle engine schedules with) whether any cycle survives.
    """
    # Remove storage nodes, then any remaining cycle is bufferless.
    storage = {
        name
        for name, node in graph.nodes.items()
        if node.kind in (NodeKind.BUFFER, NodeKind.VLU)
    }
    names = [name for name in graph.nodes if name not in storage]
    index = {name: i for i, name in enumerate(names)}
    succ: list[list[int]] = [[] for _ in names]
    for edge in graph.edges:
        if edge.src in storage or edge.dst in storage:
            continue
        succ[index[edge.src]].append(index[edge.dst])

    on_cycle = cyclic_nodes(succ)
    if not on_cycle:
        return []
    witness = names[on_cycle[0]]
    return [ValidationIssue(
        "error", witness,
        "bufferless cycle through this node (elastic loops need at "
        "least one buffer to hold the circulating token and cut the "
        "combinational path)")]


def _param_issues(graph: DataflowGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for name, node in graph.nodes.items():
        if node.kind == NodeKind.SOURCE and "items" not in node.params:
            issues.append(ValidationIssue(
                "error", name, "source node needs 'items'"))
        if node.kind == NodeKind.BRANCH and "selector" not in node.params:
            issues.append(ValidationIssue(
                "error", name, "branch node needs 'selector'"))
        if node.kind in (NodeKind.OP, NodeKind.VLU) and "fn" not in node.params:
            issues.append(ValidationIssue(
                "error", name, f"{node.kind.value} node needs 'fn'"))
    return issues


def validate(graph: DataflowGraph, raise_on_error: bool = True) -> list[ValidationIssue]:
    """Run all structural checks; raise on errors unless told not to."""
    issues = _param_issues(graph) + _port_issues(graph)
    # Cycle analysis is only meaningful on a port-complete graph.
    if not any(i.severity == "error" for i in issues):
        issues += _cycle_issues(graph)
    if raise_on_error and any(i.severity == "error" for i in issues):
        raise GraphValidationError(issues)
    return issues
