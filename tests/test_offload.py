import itertools
import time

import numpy as np
import pytest

from ts3ra import offload
from ts3ra.domain import Flow, ServiceType, SwitchProfile
from ts3ra.offload import (
    OffloadGraph,
    WeightCoefficients,
    build_offload_graph,
    edge_weight,
    max_weight_assignment,
    rebalance,
)


def make_switch(i, capacity=10.0, tx=None, loss=0.1, load=0.0):
    return SwitchProfile(
        switch_id=f"SW{i}",
        service_capacity=capacity,
        transmission_rate=tx if tx is not None else capacity,
        loss_rate=loss,
        current_load=load,
    )


def make_flow(i, rate=1.0):
    return Flow(f"f{i}", ServiceType.EMBB, rate=rate, packet_delay=0.1)


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


def random_instance(rng, uniform_rates=False, repeated=False):
    """A small instance: equal rates, continuous rates, or (``repeated``)
    rates and switch profiles drawn from small sets, so that rates repeat
    and switches share their weight and budget."""
    n_flows = int(rng.integers(1, 7))
    n_switches = int(rng.integers(1, 5))
    if repeated:
        flows = [make_flow(i, float(rng.choice([0.5, 1.0, 1.5]))) for i in range(n_flows)]
        switches = []
        for j in range(n_switches):
            capacity = float(rng.choice([2.0, 3.0]))
            switches.append(
                make_switch(
                    j,
                    capacity=capacity,
                    tx=capacity * float(rng.choice([0.5, 1.0])),
                    loss=float(rng.choice([0.0, 0.5, 1.0])),
                    load=float(rng.choice([0.0, 1.0])),
                )
            )
        return build_offload_graph(flows, switches)
    if uniform_rates:
        rate = float(rng.uniform(0.5, 3.0))
        flows = [make_flow(i, rate) for i in range(n_flows)]
    else:
        flows = [make_flow(i, float(rng.uniform(0.5, 3.0))) for i in range(n_flows)]
    switches = [
        make_switch(
            j,
            capacity=float(rng.uniform(1.0, 8.0)),
            loss=float(rng.uniform(0.0, 1.0)),
        )
        for j in range(n_switches)
    ]
    for j, sw in enumerate(switches):
        switches[j] = SwitchProfile(
            sw.switch_id,
            sw.service_capacity,
            sw.service_capacity * float(rng.uniform(0.3, 1.0)),
            sw.loss_rate,
            sw.service_capacity * float(rng.uniform(0.0, 0.6)),
        )
    return build_offload_graph(flows, switches)


def large_instance(rng, n_flows=40, n_switches=16):
    """Mixed rates over switches of distinct weights and budgets."""
    flows = [make_flow(i, float(rng.uniform(0.5, 2.0))) for i in range(n_flows)]
    switches = [
        make_switch(j, capacity=float(rng.uniform(2.0, 8.0)), loss=float(rng.uniform(0.0, 0.3)))
        for j in range(n_switches)
    ]
    return build_offload_graph(flows, switches)


def first_fit_decreasing(graph):
    """Total weight of a first-fit-decreasing packing: flows by descending
    rate, each on the heaviest switch of positive weight that it fits."""
    remaining = list(graph.budgets)
    by_weight = sorted(range(len(graph.switches)), key=lambda j: (-graph.weights[j], j))
    total = 0.0
    for fi in sorted(range(len(graph.flows)), key=lambda i: (-graph.flows[i].rate, i)):
        rate = graph.flows[fi].rate
        for sj in by_weight:
            if graph.weights[sj] > 0 and graph.fits(fi, sj) and rate <= remaining[sj] + 1e-12:
                remaining[sj] -= rate
                total += graph.weights[sj]
                break
    return total


def assert_within_budgets(graph, result):
    used = [0.0] * len(graph.switches)
    index = {sw.switch_id: j for j, sw in enumerate(graph.switches)}
    for flow in graph.flows:
        dest = result.assignment.get(flow.flow_id)
        if dest is not None:
            used[index[dest]] += flow.rate
    for total, budget in zip(used, graph.budgets):
        assert total <= budget + 1e-9


class TestEdgeWeight:
    def test_loss_penalty_strict(self):
        lossless = make_switch(0, loss=0.0)
        lossy = make_switch(1, loss=1.0)
        coeffs = WeightCoefficients()
        assert edge_weight(lossy, coeffs) < edge_weight(lossless, coeffs)

    def test_fully_loaded_unit_weight(self):
        # remaining 0, tx = capacity, loss 0 -> 0 + 1 - 0
        sw = make_switch(0, capacity=5.0, tx=5.0, loss=0.0, load=5.0)
        assert edge_weight(sw, WeightCoefficients()) == pytest.approx(1.0)

    def test_monotone_in_remaining_capacity(self):
        coeffs = WeightCoefficients()
        weights = [
            edge_weight(make_switch(0, capacity=10.0, load=load), coeffs)
            for load in (8.0, 4.0, 0.0)
        ]
        assert weights[0] < weights[1] < weights[2]


class TestAssignment:
    def test_forced_single_choice(self):
        graph = build_offload_graph([make_flow(0)], [make_switch(0)])
        result = max_weight_assignment(graph)
        assert result.assignment == {"f0": "SW0"}
        assert result.unassigned == []
        assert result.optimal

    def test_infeasible_flow_unassigned(self):
        graph = build_offload_graph([make_flow(0, rate=100.0)], [make_switch(0, capacity=1.0)])
        result = max_weight_assignment(graph)
        assert result.assignment == {}
        assert result.unassigned == ["f0"]

    def test_no_switches_all_unassigned(self):
        graph = build_offload_graph([make_flow(0), make_flow(1)], [])
        result = max_weight_assignment(graph)
        assert result.unassigned == ["f0", "f1"]
        assert result.total_weight == 0.0

    @pytest.mark.parametrize(
        "uniform, repeated, seed",
        [(True, False, 100), (False, False, 200), (False, True, 600)],
        ids=["True", "False", "repeated"],
    )
    def test_matches_brute_force(self, uniform, repeated, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            graph = random_instance(rng, uniform_rates=uniform, repeated=repeated)
            result = max_weight_assignment(graph)
            assert result.optimal
            assert result.total_weight == pytest.approx(
                brute_force_assignment(graph), abs=1e-9
            )

    def test_capacity_feasible_always(self):
        rng = np.random.default_rng(300)
        for _ in range(60):
            graph = random_instance(rng)
            assert_within_budgets(graph, max_weight_assignment(graph))

    def test_adding_switch_never_hurts(self):
        rng = np.random.default_rng(400)
        for _ in range(25):
            graph = random_instance(rng)
            base = max_weight_assignment(graph).total_weight
            extra = make_switch(99, capacity=5.0, loss=0.05)
            bigger = build_offload_graph(graph.flows, graph.switches + [extra])
            assert max_weight_assignment(bigger).total_weight >= base - 1e-9

    def test_negative_weight_edges_left_unassigned(self):
        # loss-dominated switch makes every edge weight negative
        sw = make_switch(0, capacity=10.0, tx=3.0, loss=1.0, load=9.5)
        graph = build_offload_graph([make_flow(0, rate=0.25)], [sw], WeightCoefficients(gamma=10.0))
        result = max_weight_assignment(graph)
        assert result.assignment == {}
        assert result.total_weight == 0.0

    @pytest.mark.parametrize(
        "rates", [[1.0, 1.0, 1.0, 1.0], [1.0, 0.5, 2.5, 1.5]], ids=["uniform", "mixed"]
    )
    def test_non_positive_weight_switches_get_nothing(self, rates):
        # weight = 0 + tx/cap - gamma*loss: SW0 is 0.5 - 0.5 = 0, SW1 is 0.5 - 1 < 0.
        zero = make_switch(0, capacity=10.0, tx=5.0, loss=0.5, load=10.0)
        negative = make_switch(1, capacity=10.0, tx=5.0, loss=1.0, load=10.0)
        positive = make_switch(2, capacity=10.0, tx=10.0, loss=0.0, load=10.0)
        flows = [make_flow(i, rate) for i, rate in enumerate(rates)]
        graph = build_offload_graph(flows, [zero, negative, positive], budgets=[5.0, 5.0, 1.0])
        result = max_weight_assignment(graph)
        assert result.assignment == {"f0": "SW2"}
        assert result.unassigned == ["f1", "f2", "f3"]
        assert result.total_weight == pytest.approx(1.0)

    def test_budget_exhausted_labeled_non_optimal(self):
        graph = large_instance(np.random.default_rng(500))
        assert len(set(graph.weights)) == len(set(graph.budgets)) == 16
        t0 = time.perf_counter()
        result = max_weight_assignment(graph)
        assert time.perf_counter() - t0 < 2.0
        assert not result.optimal
        assert_within_budgets(graph, result)
        assert result.total_weight >= first_fit_decreasing(graph) - 1e-9

    def test_never_below_first_fit_decreasing(self):
        rng = np.random.default_rng(700)
        for _ in range(8):
            n_flows = int(rng.integers(5, 25))
            graph = large_instance(rng, n_flows=n_flows, n_switches=int(rng.integers(1, 12)))
            result = max_weight_assignment(graph)
            assert_within_budgets(graph, result)
            assert result.total_weight >= first_fit_decreasing(graph) - 1e-9

    def test_first_descent_completes_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(offload, "NODE_BUDGET", 5)
        graph = large_instance(np.random.default_rng(800), n_flows=30, n_switches=6)
        result = max_weight_assignment(graph)
        assert not result.optimal
        assert result.total_weight >= first_fit_decreasing(graph) - 1e-9

    def test_stalled_rebalance_solved_exactly(self):
        # One rebalance of a flood run (64 devices on 16 switches, half of
        # them flooding from 30 s, 1 s detection windows, seed 1): twelve
        # flows in b/s over the trigger (first) and 13 peers.  The pinned
        # total took a branch and bound with a capacity-blind bound seconds.
        rates = [
            57344.0, 1024000.0, 36864.0, 59392.0, 43008.0, 47104.0,
            1024000.0, 43008.0, 45056.0, 55296.0, 43008.0, 45056.0,
        ]
        budgets = [
            2200000.0, 152000.0, 70080.0, 57792.0, 68032.0, 152000.0, 100800.0,
            84416.0, 106944.0, 102848.0, 117184.0, 57792.0, 63936.0, 92608.0,
        ]
        weights = [
            0.8090909090909091, 0.8781818181818182, 0.8409454545454546, 0.83536,
            0.8400145454545455, 0.8781818181818182, 0.854909090909091,
            0.8474618181818182, 0.8577018181818182, 0.85584, 0.8623563636363636,
            0.83536, 0.8381527272727273, 0.8511854545454546,
        ]
        graph = OffloadGraph(
            flows=[make_flow(i, rate) for i, rate in enumerate(rates)],
            switches=[make_switch(j) for j in range(len(budgets))],
            budgets=budgets,
            weights=weights,
        )
        result = max_weight_assignment(graph)
        assert result.optimal
        assert result.total_weight == pytest.approx(10.327389090909092, abs=1e-9)
        assert_within_budgets(graph, result)


class TestUniformRateFill:
    """Uniform rates: switches fill in descending weight order."""

    def solve(self, switches, n_flows, budgets):
        flows = [make_flow(i, rate=1.0) for i in range(n_flows)]
        return max_weight_assignment(build_offload_graph(flows, switches, budgets=budgets))

    def test_fills_heaviest_switch_first(self):
        # Lower load, higher weight: SW2 > SW0 > SW1, each with room for 2 flows.
        switches = [
            make_switch(0, capacity=10.0, load=8.0),
            make_switch(1, capacity=10.0, load=9.0),
            make_switch(2, capacity=10.0, load=0.0),
        ]
        result = self.solve(switches, 5, budgets=[2.0, 2.0, 2.0])
        assert result.assignment == {
            "f0": "SW2", "f1": "SW2", "f2": "SW0", "f3": "SW0", "f4": "SW1",
        }
        assert result.optimal

    def test_equal_weights_fill_lower_index_first(self):
        switches = [make_switch(j, capacity=10.0) for j in range(3)]
        result = self.solve(switches, 3, budgets=[1.0, 1.0, 1.0])
        assert result.assignment == {"f0": "SW0", "f1": "SW1", "f2": "SW2"}
        result = self.solve(switches, 2, budgets=[1.0, 1.0, 1.0])
        assert result.assignment == {"f0": "SW0", "f1": "SW1"}

    def test_budget_just_under_whole_slots_loses_one(self):
        # Each flow must fit the budget left, to within 1e-12: the third
        # flow finds 1 - 3e-12 of room and stays off.
        switches = [make_switch(0, capacity=10.0)]
        result = self.solve(switches, 4, budgets=[3 * 1.0 * (1 - 1e-12)])
        assert result.assignment == {"f0": "SW0", "f1": "SW0"}
        assert result.unassigned == ["f2", "f3"]

    def test_budget_just_under_one_slot_gets_none(self):
        # A flow may use a switch only when rate <= budget, with no tolerance.
        switches = [make_switch(0, capacity=10.0), make_switch(1, capacity=10.0, load=5.0)]
        result = self.solve(switches, 2, budgets=[1.0 * (1 - 1e-12), 1.0])
        assert result.assignment == {"f0": "SW1"}
        assert result.unassigned == ["f1"]


class TestRebalance:
    def test_overload_resolved_by_migration(self):
        overloaded = make_switch(0, capacity=4.0, load=6.0)
        empty = make_switch(1, capacity=8.0, load=0.0)
        flows = [make_flow(i, rate=1.5) for i in range(4)]
        current = {f.flow_id: "SW0" for f in flows}
        plan = rebalance([overloaded, empty], flows, current, "SW0")
        assert plan.resolved
        assert plan.migrations
        stay = sum(f.rate for f in flows if f.flow_id not in {m.flow_id for m in plan.migrations})
        assert stay <= overloaded.service_capacity + 1e-9
        moved = {}
        for m in plan.migrations:
            assert m.from_switch == "SW0"
            moved.setdefault(m.to_switch, 0.0)
            moved[m.to_switch] += 1.5
        for sid, extra in moved.items():
            assert extra <= 8.0 + 1e-9

    def test_no_overload_is_noop(self):
        sw = make_switch(0, capacity=10.0, load=2.0)
        plan = rebalance([sw], [make_flow(0)], {"f0": "SW0"}, "SW0")
        assert plan.migrations == []
        assert plan.resolved

    def test_all_switches_overloaded_partial_plan(self):
        a = make_switch(0, capacity=2.0, load=4.0)
        b = make_switch(1, capacity=2.0, load=3.0)
        flows = [make_flow(i, rate=1.0) for i in range(4)]
        current = {f.flow_id: "SW0" for f in flows}
        plan = rebalance([a, b], flows, current, "SW0")
        assert plan.residual_load <= 2.0 + 1e-9 or not plan.resolved

    def test_idempotent_after_full_resolution(self):
        overloaded = make_switch(0, capacity=4.0, load=6.0)
        empty = make_switch(1, capacity=8.0, load=0.0)
        flows = [make_flow(i, rate=1.5) for i in range(4)]
        current = {f.flow_id: "SW0" for f in flows}
        plan = rebalance([overloaded, empty], flows, current, "SW0")
        assert plan.resolved
        for m in plan.migrations:
            current[m.flow_id] = m.to_switch
        load_after = sum(f.rate for f in flows if current[f.flow_id] == "SW0")
        moved_load = sum(f.rate for f in flows if current[f.flow_id] == "SW1")
        updated = [
            make_switch(0, capacity=4.0, load=load_after),
            make_switch(1, capacity=8.0, load=moved_load),
        ]
        second = rebalance(updated, flows, current, "SW0")
        assert second.migrations == []
