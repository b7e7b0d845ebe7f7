import numpy as np
import pytest

from ts3ra.domain import Flow, ServiceType, SliceRequest
from ts3ra.sched import (
    Decision,
    DualQueueState,
    GAMMA_VACANT,
    QueueClass,
    SchedulerConfig,
    SchedulerConfigError,
    classify_flow,
    enqueue,
    next_service_decision,
    step_slot,
    validate_config,
)


def make_request(i: int, demand: int = 1) -> SliceRequest:
    return SliceRequest(origin=f"d{i}", demand_slots=demand)


def make_flow(service: ServiceType, delay: float) -> Flow:
    return Flow("f", service, rate=1e5, packet_delay=delay)


class TestValidateConfig:
    def test_valid_default(self):
        validate_config(SchedulerConfig())

    def test_exact_rate_sum_ok(self):
        validate_config(SchedulerConfig(mu1=0.6, mu2=0.4))

    def test_rate_sum_violation(self):
        with pytest.raises(SchedulerConfigError, match="mu1 \\+ mu2"):
            validate_config(SchedulerConfig(mu1=0.6, mu2=0.5))

    def test_zero_delta_rejected(self):
        with pytest.raises(SchedulerConfigError, match="delta"):
            validate_config(SchedulerConfig(delta=0.0))

    def test_bad_steps(self):
        with pytest.raises(SchedulerConfigError, match="steps_per_service"):
            validate_config(SchedulerConfig(steps_per_service=0))


class TestClassifyFlow:
    def test_urllc_always_high_priority(self):
        assert classify_flow(make_flow(ServiceType.URLLC, 1.0)) is QueueClass.HP

    def test_elastic_telemetry_low_priority(self):
        assert classify_flow(make_flow(ServiceType.MMTC, 1.0)) is QueueClass.LP

    def test_tight_bound_high_priority(self):
        assert classify_flow(make_flow(ServiceType.EMBB, 0.005)) is QueueClass.HP

    def test_classification_is_steady(self):
        flow = make_flow(ServiceType.EMBB, 0.05)
        assert len({classify_flow(flow) for _ in range(32)}) == 1


class TestEnqueue:
    def test_idle_to_busy_transition(self):
        state, cfg = DualQueueState(), SchedulerConfig()
        assert state.gamma_code == 0
        assert enqueue(state, make_request(0), QueueClass.HP, cfg)
        assert len(state.hp) == 1
        assert state.gamma_code == 1  # busy with one request

    def test_overflow_drop_recorded(self):
        state = DualQueueState()
        cfg = SchedulerConfig(hp_capacity=1, lp_capacity=1)
        assert enqueue(state, make_request(0), QueueClass.HP, cfg)
        assert not enqueue(state, make_request(1), QueueClass.HP, cfg)
        assert state.counters[QueueClass.HP].dropped == 1

    def test_fifo_order_within_class(self):
        state, cfg = DualQueueState(), SchedulerConfig()
        rng = np.random.default_rng(0)
        enqueue(state, make_request(0), QueueClass.LP, cfg)
        enqueue(state, make_request(1), QueueClass.LP, cfg)
        served = []
        for _ in range(10):
            served.extend(r.origin for r in step_slot(state, cfg, rng).completions)
        assert served == ["d0", "d1"]


class TestServiceDecision:
    def test_occupancy_at_delta_serves_hp(self):
        state = DualQueueState()
        cfg = SchedulerConfig(delta=0.75, hp_capacity=10, lp_capacity=10)
        for i in range(8):  # occupancy 0.8 >= 0.75
            enqueue(state, make_request(i), QueueClass.HP, cfg)
        enqueue(state, make_request(99), QueueClass.LP, cfg)
        rng = np.random.default_rng(1)
        assert next_service_decision(state, cfg, rng) is Decision.SERVE_HP

    def test_only_lp_nonempty(self):
        state, cfg = DualQueueState(), SchedulerConfig()
        enqueue(state, make_request(0), QueueClass.LP, cfg)
        assert next_service_decision(state, cfg, np.random.default_rng(0)) is Decision.SERVE_LP

    def test_both_empty_idles(self):
        state = DualQueueState()
        assert next_service_decision(state, SchedulerConfig(), np.random.default_rng(0)) is Decision.IDLE
        assert state.gamma_code == 0

    def test_exclusivity_persists_until_hp_empty(self):
        state = DualQueueState()
        cfg = SchedulerConfig(delta=0.5, hp_capacity=4, lp_capacity=100)
        rng = np.random.default_rng(7)
        for i in range(3):
            enqueue(state, make_request(i), QueueClass.HP, cfg)
        for i in range(50):
            enqueue(state, make_request(100 + i), QueueClass.LP, cfg)
        decisions = []
        while state.hp:
            decisions.append(step_slot(state, cfg, rng).decision)
        assert set(decisions) == {Decision.SERVE_HP}


class TestServiceStep:
    def test_single_demand_completes_in_one_slot(self):
        state, cfg = DualQueueState(), SchedulerConfig()
        enqueue(state, make_request(0, demand=1), QueueClass.HP, cfg)
        result = step_slot(state, cfg, np.random.default_rng(0))
        assert [r.origin for r in result.completions] == ["d0"]

    def test_three_steps_complete_exactly_on_third_served_slot(self):
        state = DualQueueState()
        cfg = SchedulerConfig(steps_per_service=3)
        enqueue(state, make_request(0, demand=3), QueueClass.HP, cfg)
        rng = np.random.default_rng(0)
        served = 0
        for _ in range(10):
            result = step_slot(state, cfg, rng)
            if result.decision is Decision.SERVE_HP:
                served += 1
            if result.completions:
                assert served == 3
                return
        pytest.fail("request never completed")

    def test_continue_prob_one_never_vacant(self):
        state = DualQueueState()
        cfg = SchedulerConfig(continue_prob=1.0)
        rng = np.random.default_rng(3)
        phases = set()
        for i in range(50):
            enqueue(state, make_request(i), QueueClass.LP, cfg)
            for _ in range(3):
                step_slot(state, cfg, rng)
                phases.add(state.phase)
        assert GAMMA_VACANT not in phases

    def test_vacancy_entered_when_continue_prob_zero(self):
        state = DualQueueState()
        cfg = SchedulerConfig(continue_prob=0.0)
        rng = np.random.default_rng(3)
        enqueue(state, make_request(0), QueueClass.LP, cfg)
        step_slot(state, cfg, rng)  # completes the lone request
        assert state.phase == GAMMA_VACANT
        assert state.gamma_code == 2  # one completed request, vacancy code n+1
        step_slot(state, cfg, rng)
        assert state.phase != GAMMA_VACANT


class TestInvariants:
    def test_conservation_every_slot(self):
        state, cfg = DualQueueState(), SchedulerConfig(hp_capacity=20, lp_capacity=20)
        rng = np.random.default_rng(123)
        arrivals = np.random.default_rng(5)
        for slot in range(5000):
            if arrivals.random() < 0.3:
                cls = QueueClass.HP if arrivals.random() < 0.4 else QueueClass.LP
                enqueue(state, make_request(slot, demand=int(arrivals.integers(1, 4))), cls, cfg)
            step_slot(state, cfg, rng)
            assert state.conservation_holds()

    def test_decision_trace_reproducible(self):
        def trace(seed):
            state, cfg = DualQueueState(), SchedulerConfig()
            rng = np.random.default_rng(seed)
            arrivals = np.random.default_rng(42)
            out = []
            for slot in range(500):
                if arrivals.random() < 0.5:
                    cls = QueueClass.HP if arrivals.random() < 0.5 else QueueClass.LP
                    enqueue(state, make_request(slot), cls, cfg)
                out.append(step_slot(state, cfg, rng).decision)
            return out

        assert trace(9) == trace(9)

    def test_lp_service_delay_within_expected_bound(self):
        # bound: hp_backlog*l + lp_position*l/mu2 expected slots, here 3 + 2/0.4 = 8
        cfg = SchedulerConfig(mu1=0.6, mu2=0.4, hp_capacity=100, lp_capacity=100)
        bound = 3 * 1 + 2 * 1 / cfg.mu2

        def completion_slot(seed: int) -> int:
            state = DualQueueState()
            rng = np.random.default_rng(seed)
            for i in range(3):
                enqueue(state, make_request(i), QueueClass.HP, cfg)
            enqueue(state, make_request(98), QueueClass.LP, cfg)
            enqueue(state, make_request(99), QueueClass.LP, cfg)
            for slot in range(1, 100):
                if any(r.origin == "d99" for r in step_slot(state, cfg, rng).completions):
                    return slot
            raise AssertionError("starved")

        mean = np.mean([completion_slot(s) for s in range(10_000)])
        assert mean <= bound * 1.2
