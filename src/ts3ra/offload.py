"""Flow-to-switch offloading as weighted bipartite assignment.

Each switch carries one weight built from its spare capacity, transmission
rate and loss rate, and placing any flow on it earns that weight; the
solver picks a capacity-respecting assignment of maximum total weight.
Uniform-rate instances (the common case: every flow demands the same
bandwidth) are solved exactly by filling the switches in descending weight
order.  Mixed-rate instances are solved exactly by branch and bound up to a
size budget, beyond which a greedy pass labeled non-optimal takes over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import Flow, SwitchProfile

# Mixed-rate instances go to branch and bound only up to this many flows
# and feasible (flow, switch) pairs; larger ones take the greedy pass.
EXACT_FLOW_BUDGET = 12
GREEDY_EDGE_BUDGET = 1000


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
    """Flows and switches with one budget and one weight per switch.

    ``budgets[j]`` is how much demand switch j may still take on and
    ``weights[j]`` is what placing any flow there earns (empty when there
    are no flows).  Flow i may use switch j only when its rate fits
    ``budgets[j]`` (:meth:`fits`).
    """

    flows: list[Flow]
    switches: list[SwitchProfile]
    budgets: list[float]
    weights: list[float]

    def fits(self, fi: int, sj: int) -> bool:
        return self.flows[fi].rate <= self.budgets[sj]


def build_offload_graph(
    flows: Sequence[Flow],
    switches: Sequence[SwitchProfile],
    coeffs: WeightCoefficients = WeightCoefficients(),
    budgets: Optional[Sequence[float]] = None,
) -> OffloadGraph:
    """Price every switch once; any flow stands for all, as the weight
    reads the switch alone."""
    flows = list(flows)
    switches = list(switches)
    if budgets is None:
        budgets = [sw.remaining_capacity for sw in switches]
    budgets = [float(b) for b in budgets]
    if len(budgets) != len(switches):
        raise ValueError("one budget per switch required")
    weights = [edge_weight(flows[0], sw, coeffs) for sw in switches] if flows else []
    return OffloadGraph(flows=flows, switches=switches, budgets=budgets, weights=weights)


@dataclass(frozen=True)
class FlowAssignment:
    assignment: dict[str, str]
    unassigned: list[str]
    total_weight: float
    optimal: bool


def _solve_uniform_rate(graph: OffloadGraph, rate: float) -> tuple[dict[int, int], float]:
    """Exact solve when every flow demands the same rate, by a sorted fill.

    Every flow earns its switch's weight and takes one slot of ``rate``, so
    filling the switches of positive weight in descending weight order is
    optimal.  Ties between switches go to the lower switch index, and each
    switch that fits one flow takes the next ``int(budget / rate + 1e-9)``
    flows in flow-index order: of the flows that fit, the lowest indices
    are placed, on the heaviest switches.  Switches of zero or negative
    weight take no flow.
    """
    n_flows = len(graph.flows)
    weights = graph.weights
    usable = [sj for sj, w in enumerate(weights) if w > 0 and graph.fits(0, sj)]
    chosen: dict[int, int] = {}
    total = 0.0
    for sj in sorted(usable, key=lambda j: (-weights[j], j)):
        first = len(chosen)
        n_slots = min(int(graph.budgets[sj] / rate + 1e-9), n_flows - first)
        for fi in range(first, first + n_slots):
            chosen[fi] = sj
            total += weights[sj]
    return chosen, total


def _solve_branch_and_bound(graph: OffloadGraph) -> tuple[dict[int, int], float]:
    """Exact solve for mixed-rate instances by depth-first search with pruning."""
    n_flows = len(graph.flows)
    weights = graph.weights
    order = sorted(range(len(weights)), key=lambda j: (-weights[j], j))
    per_flow_switches = [[sj for sj in order if graph.fits(fi, sj)] for fi in range(n_flows)]
    # Optimistic remaining value: best positive weight open to each later flow.
    tail_bound = [0.0] * (n_flows + 1)
    for fi in range(n_flows - 1, -1, -1):
        best = max((weights[sj] for sj in per_flow_switches[fi] if weights[sj] > 0), default=0.0)
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
        for sj in per_flow_switches[fi]:
            if rate <= budgets[sj] + 1e-12:
                budgets[sj] -= rate
                choice[fi] = sj
                dfs(fi + 1, total + weights[sj])
                del choice[fi]
                budgets[sj] += rate
        dfs(fi + 1, total)  # leave this flow unassigned

    dfs(0, 0.0)
    return best_choice, float(best_total)


def _solve_greedy(graph: OffloadGraph) -> tuple[dict[int, int], float]:
    """Fast non-optimal fallback: heaviest feasible (flow, switch) pairs
    first, ties by flow index, then switch index."""
    weights = graph.weights
    pairs = sorted(
        (
            (fi, sj)
            for fi in range(len(graph.flows))
            for sj in range(len(graph.switches))
            if weights[sj] >= 0 and graph.fits(fi, sj)
        ),
        key=lambda p: (-weights[p[1]], p[0], p[1]),
    )
    budgets = list(graph.budgets)
    chosen: dict[int, int] = {}
    total = 0.0
    for fi, sj in pairs:
        if fi in chosen:
            continue
        if graph.flows[fi].rate <= budgets[sj] + 1e-12:
            budgets[sj] -= graph.flows[fi].rate
            chosen[fi] = sj
            total += weights[sj]
    return chosen, total


def max_weight_assignment(graph: OffloadGraph) -> FlowAssignment:
    """Maximize total weight subject to per-switch demand budgets.

    Flows may stay unassigned (contributing zero), so negative-weight
    switches are never forced.  The result's ``optimal`` flag is False only
    on the greedy path.
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
    elif n_flows <= EXACT_FLOW_BUDGET and sum(
        f.rate <= b for f in graph.flows for b in graph.budgets
    ) <= GREEDY_EDGE_BUDGET:
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
            if not graph.fits(fi, sj) or graph.flows[fi].rate > budgets[sj] + 1e-12:
                feasible = False
                break
            budgets[sj] -= graph.flows[fi].rate
            total += graph.weights[sj]
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
