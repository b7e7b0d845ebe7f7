"""Flow-to-switch offloading as weighted bipartite assignment.

Each switch carries one weight built from its spare capacity, transmission
rate and loss rate, and placing any flow on it earns that weight; the
solver picks a capacity-respecting assignment of maximum total weight.
One depth-first search solves every instance within a fixed node budget:
its first descent is a first-fit-decreasing packing, multiple-knapsack
bounds prune the rest, and a solve that runs out of nodes returns its best
plan labeled non-optimal.
"""

from __future__ import annotations

__all__ = [
    "FlowAssignment", "Migration", "OffloadGraph", "RebalancePlan", "WeightCoefficients",
    "build_offload_graph", "edge_weight", "max_weight_assignment", "rebalance",
]

import bisect
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .domain import Flow, SwitchProfile

# A solve stops after this many search nodes, though never before its
# first descent is complete, so that no rebalance can stall a run.  It
# counts nodes, not time, so that runs stay reproducible.
NODE_BUDGET = 20_000


@dataclass(frozen=True)
class WeightCoefficients:
    """Mixing coefficients of the edge-weight formula."""

    alpha: float = 1.0  # spare-capacity share
    beta: float = 1.0  # transmission-rate share
    gamma: float = 1.0  # loss-rate penalty


def edge_weight(flow: Flow, switch: SwitchProfile, coeffs: WeightCoefficients) -> float:
    """alpha*(remaining/capacity) + beta*(tx_rate/capacity) - gamma*loss_rate.

    The weight depends on the switch alone, never on ``flow``; the search
    and its bounds rely on that.  ``flow`` stays in the public
    signature, which the tests call and ``perfbench/child.py`` wraps by name.
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
    """A solved instance: flow to switch, the flows left out, the plan's
    total weight, and whether the search proved it optimal."""

    assignment: dict[str, str]
    unassigned: list[str]
    total_weight: float
    optimal: bool


def max_weight_assignment(graph: OffloadGraph) -> FlowAssignment:
    """Maximize total weight subject to per-switch demand budgets.

    Flows may stay unassigned (contributing zero), and switches of zero or
    negative weight take no flow.  A depth-first search takes the flows by
    descending rate, each trying the switches of positive weight it fits,
    heaviest first (ties by index), then staying unassigned: its first
    descent is a first-fit-decreasing packing, and the first plan with a
    strictly larger total is kept.  Two multiple-knapsack bounds (Martello
    & Toth, *Knapsack Problems*, 1990, ch. 6) prune it, each handing the
    smallest flows left to the switches, heaviest first: the count bound,
    where each switch takes as many as its budget holds but all together no
    more than are left, and the fractional bound, where the switches share
    them in turn and split the last that does not fit whole.  A switch whose
    weight and remaining budget equal those of one already tried at the node
    is skipped, and a flow as fast as the one before it takes no earlier
    switch ("unassigned" counting as the last).  ``optimal`` is False only
    when the search ran out of ``NODE_BUDGET``.
    """
    n = len(graph.flows)
    flow_at = sorted(range(n), key=lambda i: (-graph.flows[i].rate, i))
    switch_at = sorted(
        (j for j, w in enumerate(graph.weights) if w > 0),
        key=lambda j: (-graph.weights[j], j),
    )
    rate = [graph.flows[i].rate for i in flow_at]
    weight = [graph.weights[j] for j in switch_at]
    full = [graph.budgets[j] for j in switch_at]
    m = len(switch_at)  # the position of "unassigned"
    # smallest[i]: the total rate of the i smallest flows, which are the i
    # smallest of the flows left at any depth up to n - i.
    smallest = [0.0, *itertools.accumulate(reversed(rate))]
    # Totals closer than this are a tie, whatever the order of summation.
    tie = 1e-9 * weight[0] if m else 0.0

    remaining = list(full)
    plan = [m] * n
    total = [0.0] * (n + 1)  # the weight of the plan above each depth
    kept = [0.0] * n  # the chosen switch's remaining budget before each choice

    def bound(k: int) -> float:
        left = n - k
        by_count = by_share = 0.0
        counted = shared = 0
        line = 0.0  # budget handed out so far along the smallest flows
        for p in range(m):
            # The slack covers prefix sums rounding unlike a budget that
            # flows are subtracted from one by one.
            cap = max(remaining[p] + 1e-12, 0.0) * (1 + 1e-9)
            fit = bisect.bisect_right(smallest, cap, 0, left + 1) - 1
            take = min(fit, left - counted)
            counted += take
            by_count += weight[p] * take
            line += cap
            whole = bisect.bisect_right(smallest, line, 0, left + 1) - 1
            share = whole
            if whole < left:
                share += (line - smallest[whole]) / rate[n - 1 - whole]
            by_share += weight[p] * (share - shared)
            shared = share
            if counted == left and shared == left:
                break
        return min(by_count, by_share)

    def choices(k: int) -> list[int]:
        r = rate[k]
        tried = set()
        out = []
        for p in range(plan[k - 1] if k and r == rate[k - 1] else 0, m):
            key = (weight[p], remaining[p])
            if r <= full[p] and r <= remaining[p] + 1e-12 and key not in tried:
                tried.add(key)
                out.append(p)
        return out + [m]

    # No plan beats the root's bound, so reaching it ends the search.
    ceiling = bound(0) - tie
    best, best_plan = 0.0, list(plan)
    nodes = 1
    finished = True
    stack = [iter(choices(0))] if ceiling > 0 else []
    while stack:
        k = len(stack) - 1
        if plan[k] < m:
            remaining[plan[k]] = kept[k]
        p = plan[k] = next(stack[k], None)
        if p is None:
            plan[k] = m
            stack.pop()
            continue
        total[k + 1] = total[k]
        if p < m:
            kept[k] = remaining[p]
            remaining[p] -= rate[k]
            total[k + 1] += weight[p]
        nodes += 1
        if k + 1 == n:
            if total[n] > best + tie:
                best, best_plan = total[n], list(plan)
                if best >= ceiling:
                    break
        elif total[k + 1] + bound(k + 1) > best + tie:
            if nodes > max(NODE_BUDGET, n + 1):
                finished = False
                break
            stack.append(iter(choices(k + 1)))

    chosen = {flow_at[k]: switch_at[p] for k, p in enumerate(best_plan) if p < m}
    return FlowAssignment(
        assignment={
            graph.flows[fi].flow_id: graph.switches[sj].switch_id
            for fi, sj in sorted(chosen.items())
        },
        unassigned=[f.flow_id for fi, f in enumerate(graph.flows) if fi not in chosen],
        total_weight=best,
        optimal=finished,
    )


@dataclass(frozen=True)
class Migration:
    """One flow moved from one switch to another."""

    flow_id: str
    from_switch: str
    to_switch: str


@dataclass(frozen=True)
class RebalancePlan:
    """The migrations that relieve one overloaded switch."""

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
