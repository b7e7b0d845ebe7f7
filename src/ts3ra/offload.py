"""Flow-to-switch offloading as weighted bipartite assignment.

Each feasible (flow, switch) pair carries a weight built from the switch's
spare capacity, transmission rate and loss rate; the solver picks a
capacity-respecting assignment of maximum total weight.  The weight does not
depend on the flow, so uniform-rate instances (the common case: every flow
demands the same bandwidth) are solved exactly by filling the switches in
descending weight order.  Mixed-rate instances are solved exactly by branch
and bound up to a size budget, beyond which a greedy pass labeled
non-optimal takes over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .domain import Flow, SwitchProfile

DEFAULT_EXACT_FLOW_BUDGET = 12
DEFAULT_GREEDY_EDGE_BUDGET = 1000


@dataclass(frozen=True)
class WeightCoefficients:
    """Mixing coefficients of the edge-weight formula."""

    alpha: float = 1.0  # spare-capacity share
    beta: float = 1.0  # transmission-rate share
    gamma: float = 1.0  # loss-rate penalty


def edge_weight(flow: Flow, switch: SwitchProfile, coeffs: WeightCoefficients) -> float:
    """alpha*(remaining/capacity) + beta*(tx_rate/capacity) - gamma*loss_rate.

    The weight depends on the switch alone, never on ``flow``; the
    uniform-rate solver relies on that.  ``flow`` stays in the public
    signature, which the tests and ``perfbench/child.py`` call.
    """
    cap = switch.service_capacity
    return (
        coeffs.alpha * (switch.remaining_capacity / cap)
        + coeffs.beta * (switch.transmission_rate / cap)
        - coeffs.gamma * switch.loss_rate
    )


@dataclass
class OffloadGraph:
    """Feasible (flow, switch) edges with their weights and budgets.

    ``budgets[j]`` is how much demand switch j may still take on; an edge
    exists only when the flow's rate fits the budget.
    """

    flows: list[Flow]
    switches: list[SwitchProfile]
    budgets: list[float]
    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def n_edges(self) -> int:
        return len(self.weights)


def build_offload_graph(
    flows: Sequence[Flow],
    switches: Sequence[SwitchProfile],
    coeffs: WeightCoefficients = WeightCoefficients(),
    budgets: Optional[Sequence[float]] = None,
) -> OffloadGraph:
    """Connect every flow to every switch that can still carry it."""
    flows = list(flows)
    switches = list(switches)
    if budgets is None:
        budgets = [sw.remaining_capacity for sw in switches]
    budgets = [float(b) for b in budgets]
    if len(budgets) != len(switches):
        raise ValueError("one budget per switch required")
    graph = OffloadGraph(flows=flows, switches=switches, budgets=budgets)
    for fi, flow in enumerate(flows):
        for sj, sw in enumerate(switches):
            if flow.rate <= budgets[sj]:
                graph.weights[(fi, sj)] = edge_weight(flow, sw, coeffs)
    return graph


@dataclass(frozen=True)
class FlowAssignment:
    assignment: dict[str, str]
    unassigned: list[str]
    total_weight: float
    optimal: bool


def _solve_uniform_rate(graph: OffloadGraph, rate: float) -> tuple[dict[int, int], float]:
    """Exact solve when every flow demands the same rate, by a sorted fill.

    Every edge into a switch has the same weight (see :func:`edge_weight`)
    and every flow takes one slot of ``rate``, so filling the switches of
    positive weight in descending weight order is optimal.  Ties between
    switches go to the lower switch index, and each switch takes the next
    ``int(budget / rate + 1e-9)`` flows in flow-index order: of the flows
    that fit, the lowest indices are placed, on the heaviest switches.
    Switches of zero or negative weight take no flow.
    """
    n_flows = len(graph.flows)
    weight_of = {sj: w for (_, sj), w in graph.weights.items() if w > 0}
    chosen: dict[int, int] = {}
    total = 0.0
    for sj in sorted(weight_of, key=lambda j: (-weight_of[j], j)):
        first = len(chosen)
        n_slots = min(int(graph.budgets[sj] / rate + 1e-9), n_flows - first)
        for fi in range(first, first + n_slots):
            chosen[fi] = sj
            total += weight_of[sj]
    return chosen, total


def _solve_branch_and_bound(graph: OffloadGraph) -> tuple[dict[int, int], float]:
    """Exact solve for mixed-rate instances by depth-first search with pruning."""
    n_flows = len(graph.flows)
    per_flow_edges: list[list[tuple[float, int]]] = []
    for fi in range(n_flows):
        edges = [
            (w, sj)
            for (f, sj), w in graph.weights.items()
            if f == fi
        ]
        edges.sort(key=lambda e: (-e[0], e[1]))
        per_flow_edges.append(edges)
    # Optimistic remaining value: best positive edge of each later flow.
    tail_bound = [0.0] * (n_flows + 1)
    for fi in range(n_flows - 1, -1, -1):
        best = max((w for w, _ in per_flow_edges[fi] if w > 0), default=0.0)
        tail_bound[fi] = tail_bound[fi + 1] + best

    best_total = -np.inf
    best_choice: dict[int, int] = {}
    budgets = list(graph.budgets)
    choice: dict[int, int] = {}

    def dfs(fi: int, total: float) -> None:
        nonlocal best_total, best_choice
        if total + tail_bound[fi] <= best_total + 1e-15:
            return
        if fi == n_flows:
            if total > best_total:
                best_total = total
                best_choice = dict(choice)
            return
        rate = graph.flows[fi].rate
        for w, sj in per_flow_edges[fi]:
            if rate <= budgets[sj] + 1e-12:
                budgets[sj] -= rate
                choice[fi] = sj
                dfs(fi + 1, total + w)
                del choice[fi]
                budgets[sj] += rate
        dfs(fi + 1, total)  # leave this flow unassigned

    dfs(0, 0.0)
    return best_choice, float(best_total)


def _solve_greedy(graph: OffloadGraph) -> tuple[dict[int, int], float]:
    """Fast non-optimal fallback: heaviest feasible edges first."""
    edges = sorted(
        graph.weights.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
    )
    budgets = list(graph.budgets)
    chosen: dict[int, int] = {}
    total = 0.0
    for (fi, sj), w in edges:
        if w < 0 or fi in chosen:
            continue
        if graph.flows[fi].rate <= budgets[sj] + 1e-12:
            budgets[sj] -= graph.flows[fi].rate
            chosen[fi] = sj
            total += w
    return chosen, total


def max_weight_assignment(
    graph: OffloadGraph,
    *,
    exact_flow_budget: int = DEFAULT_EXACT_FLOW_BUDGET,
    greedy_edge_budget: int = DEFAULT_GREEDY_EDGE_BUDGET,
) -> FlowAssignment:
    """Maximize total edge weight subject to per-switch demand budgets.

    Flows may stay unassigned (contributing zero), so negative-weight edges
    are never forced.  The result's ``optimal`` flag is False only on the
    greedy path.
    """
    n_flows = len(graph.flows)
    if n_flows == 0 or not graph.switches:
        return FlowAssignment(
            assignment={},
            unassigned=[f.flow_id for f in graph.flows],
            total_weight=0.0,
            optimal=True,
        )

    rates = {f.rate for f in graph.flows}
    optimal = True
    if len(rates) == 1:
        chosen, total = _solve_uniform_rate(graph, next(iter(rates)))
    elif n_flows <= exact_flow_budget and graph.n_edges <= greedy_edge_budget:
        chosen, total = _solve_branch_and_bound(graph)
    else:
        chosen, total = _solve_greedy(graph)
        optimal = False

    assignment = {
        graph.flows[fi].flow_id: graph.switches[sj].switch_id
        for fi, sj in sorted(chosen.items())
    }
    unassigned = [
        f.flow_id for fi, f in enumerate(graph.flows) if fi not in chosen
    ]
    return FlowAssignment(
        assignment=assignment,
        unassigned=unassigned,
        total_weight=total,
        optimal=optimal,
    )


def brute_force_assignment(graph: OffloadGraph) -> float:
    """Exhaustive optimum over all capacity-feasible partial assignments.

    Reference oracle for small instances; exponential in the flow count.
    """
    n_flows = len(graph.flows)
    n_switches = len(graph.switches)
    best = 0.0
    for combo in itertools.product(range(n_switches + 1), repeat=n_flows):
        budgets = list(graph.budgets)
        total = 0.0
        feasible = True
        for fi, sj in enumerate(combo):
            if sj == n_switches:
                continue
            w = graph.weights.get((fi, sj))
            if w is None or graph.flows[fi].rate > budgets[sj] + 1e-12:
                feasible = False
                break
            budgets[sj] -= graph.flows[fi].rate
            total += w
        if feasible and total > best:
            best = total
    return best


@dataclass(frozen=True)
class Migration:
    flow_id: str
    from_switch: str
    to_switch: str


@dataclass(frozen=True)
class RebalancePlan:
    migrations: list[Migration]
    resolved: bool
    residual_load: float  # demand left on the trigger after the plan


def rebalance(
    switches: Sequence[SwitchProfile],
    active_flows: Sequence[Flow],
    current_assignment: dict[str, str],
    trigger_id: str,
    coeffs: WeightCoefficients = WeightCoefficients(),
) -> RebalancePlan:
    """Spread an overloaded switch's flows across under-loaded peers.

    The trigger's flows are re-assigned over the trigger itself (budget:
    its full service capacity) plus every switch with spare capacity; the
    plan never overloads a target.  When capacity is short the plan is
    partial and ``resolved`` is False.
    """
    by_id = {sw.switch_id: sw for sw in switches}
    trigger = by_id[trigger_id]
    if trigger.current_load <= trigger.service_capacity:
        return RebalancePlan(migrations=[], resolved=True, residual_load=trigger.current_load)

    moving = [f for f in active_flows if current_assignment.get(f.flow_id) == trigger_id]
    targets = [trigger] + [
        sw
        for sw in switches
        if sw.switch_id != trigger_id and sw.remaining_capacity > 0
    ]
    budgets = [
        sw.service_capacity if sw.switch_id == trigger_id else sw.remaining_capacity
        for sw in targets
    ]
    graph = build_offload_graph(moving, targets, coeffs, budgets=budgets)
    result = max_weight_assignment(graph)

    migrations = []
    residual = 0.0
    for flow in moving:
        dest = result.assignment.get(flow.flow_id)
        if dest is None or dest == trigger_id:
            residual += flow.rate
        else:
            migrations.append(Migration(flow.flow_id, trigger_id, dest))
    return RebalancePlan(
        migrations=migrations,
        resolved=residual <= trigger.service_capacity,
        residual_load=residual,
    )
