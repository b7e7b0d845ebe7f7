import pytest
from hypothesis import given, strategies as st

from ts3ra.domain import (
    Flow,
    QoSMeasurement,
    QoSProfile,
    ServiceType,
    SlaRatios,
    SwitchProfile,
    compute_sla_ratios,
    fairness_weight,
    qos_profile_of,
    stable_imsi,
)


class TestQosProfiles:
    def test_embb_profile(self):
        p = qos_profile_of(ServiceType.EMBB)
        assert p.min_bandwidth == 100e3

    def test_urllc_profile(self):
        p = qos_profile_of(ServiceType.URLLC)
        assert p.latency_bound == 1e-3
        assert p.reliability == 1.0 - 1e-9
        assert p.min_bandwidth == 100e3

    def test_mmtc_profile(self):
        p = qos_profile_of(ServiceType.MMTC)
        assert p.min_bandwidth == 25e3

    def test_total_and_pure(self):
        for service in ServiceType:
            assert qos_profile_of(service) == qos_profile_of(service)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            QoSProfile(min_bandwidth=0.0)
        with pytest.raises(ValueError):
            QoSProfile(min_bandwidth=1.0, latency_bound=-1.0)
        with pytest.raises(ValueError):
            QoSProfile(min_bandwidth=1.0, reliability=1.5)


class TestServiceType:
    def test_indicator_table(self):
        assert ServiceType.EMBB.indicator == (0, 0, 1)
        assert ServiceType.URLLC.indicator == (0, 1, 0)
        assert ServiceType.MMTC.indicator == (1, 1, 1)

    def test_indicator_round_trip(self):
        for service in ServiceType:
            assert ServiceType.from_indicator(service.indicator) is service

    def test_slice_ids(self):
        assert [s.slice_id for s in ServiceType] == ["S1", "S2", "S3"]

    def test_unknown_indicator(self):
        with pytest.raises(ValueError):
            ServiceType.from_indicator((1, 0, 0))


class TestSlaRatios:
    def test_identity_case(self):
        agreed = qos_profile_of(ServiceType.URLLC)
        achieved = QoSMeasurement(
            availability=1.0,
            response_time=agreed.latency_bound,
            throughput=agreed.min_bandwidth,
            reliability=agreed.reliability,
        )
        ratios = compute_sla_ratios(achieved, agreed)
        assert ratios == SlaRatios(1.0, 1.0, 1.0, 1.0)

    def test_zero_throughput(self):
        agreed = qos_profile_of(ServiceType.EMBB)
        achieved = QoSMeasurement(1.0, 0.5, 0.0, 1.0)
        assert compute_sla_ratios(achieved, agreed).tr == 0.0

    def test_pass_through_clip_idempotent(self):
        ratios = SlaRatios(sar=0.99, rtr=0.5, tr=0.75, srr=1.0)
        again = SlaRatios(ratios.sar, ratios.rtr, ratios.tr, ratios.srr)
        assert again == ratios

    def test_zero_latency_is_perfect(self):
        agreed = qos_profile_of(ServiceType.URLLC)
        achieved = QoSMeasurement(1.0, 0.0, agreed.min_bandwidth, 1.0)
        assert compute_sla_ratios(achieved, agreed).rtr == 1.0

    def test_construction_clips(self):
        r = SlaRatios(sar=1.7, rtr=-0.2, tr=0.5, srr=2.0)
        assert (r.sar, r.rtr, r.tr, r.srr) == (1.0, 0.0, 0.5, 1.0)


class TestFairnessWeight:
    def test_all_ones(self):
        assert fairness_weight(SlaRatios(1, 1, 1, 1)) == 1.0

    def test_all_zeros(self):
        assert fairness_weight(SlaRatios(0, 0, 0, 0)) == 0.0

    def test_mean_oracle(self):
        # arithmetic mean: (0.99 + 0.5 + 0.75 + 1.0) / 4
        assert fairness_weight(SlaRatios(0.99, 0.5, 0.75, 1.0)) == pytest.approx(0.81)

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_each_ratio(self, values, idx, bump):
        base = fairness_weight(SlaRatios(*values))
        improved = list(values)
        improved[idx] = min(1.0, improved[idx] + bump)
        assert fairness_weight(SlaRatios(*improved)) >= base - 1e-12

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4))
    def test_output_in_unit_interval(self, values):
        w = fairness_weight(SlaRatios(*values))
        assert 0.0 <= w <= 1.0


class TestValueObjects:
    def test_switch_rate_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError):
            SwitchProfile("s", 1e6, 2e6, 0.1)

    def test_flow_invariants(self):
        with pytest.raises(ValueError):
            Flow("f", ServiceType.EMBB, rate=0.0, packet_delay=0.1)

    def test_stable_imsi_is_reproducible(self):
        assert stable_imsi("sub-001") == stable_imsi("sub-001")
        assert stable_imsi("sub-001") != stable_imsi("sub-002")
