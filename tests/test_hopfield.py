import itertools

import numpy as np
import pytest

from ts3ra.domain import ServiceType
from ts3ra.hopfield import (
    AllocationRequest,
    HopfieldAllocator,
    PoolExhaustedError,
    ResourcePool,
    decode_pattern,
    encode_pattern,
    grant_modifier,
    recall,
    storkey_update,
    train_patterns,
    update_state,
    zero_weights,
)

INDICATORS = [(0, 0, 1), (0, 1, 0), (1, 1, 1)]


def brute_force_storkey(we_prev: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Direct element-wise transcription of the incremental learning rule."""
    n = we_prev.shape[0]

    def h(i, j):
        return sum(we_prev[i][k] * xi[k] for k in range(n) if k not in (i, j))

    we = np.array(we_prev, copy=True)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            we[i][j] = we_prev[i][j] + (
                xi[i] * xi[j] - xi[i] * h(j, i) - h(i, j) * xi[j]
            ) / n
    return we


class TestStorkeyUpdate:
    def test_first_pattern_two_nodes(self):
        we = storkey_update(zero_weights(2), np.array([1.0, 1.0]))
        assert we[0, 1] == pytest.approx(0.5)
        assert we[1, 0] == pytest.approx(0.5)
        assert we[0, 0] == 0.0 and we[1, 1] == 0.0

    def test_sign_flip_gives_identical_weights(self):
        rng = np.random.default_rng(2)
        xi = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        assert np.allclose(
            storkey_update(zero_weights(6), xi),
            storkey_update(zero_weights(6), -xi),
            atol=1e-15,
        )

    def test_diagonal_and_symmetry_exact_after_sequences(self):
        rng = np.random.default_rng(3)
        we = zero_weights(7)
        for _ in range(5):
            xi = np.where(rng.random(7) < 0.5, 1.0, -1.0)
            we = storkey_update(we, xi)
            assert np.all(np.diag(we) == 0.0)
            assert np.array_equal(we, we.T)

    def test_matches_brute_force_evaluator(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            we = zero_weights(n)
            ref = zero_weights(n)
            for _ in range(int(rng.integers(1, 5))):
                xi = np.where(rng.random(n) < 0.5, 1.0, -1.0)
                we = storkey_update(we, xi)
                ref = brute_force_storkey(ref, xi)
                # the reference updates without re-symmetrizing
                assert np.max(np.abs(we - ref)) < 1e-12

    def test_non_bipolar_rejected(self):
        with pytest.raises(ValueError):
            storkey_update(zero_weights(3), np.array([1.0, 0.5, -1.0]))


class TestUpdateState:
    def test_field_equal_threshold_is_plus_one(self):
        we = zero_weights(3)
        st = update_state(we, np.zeros(3), np.array([-1.0, -1.0, -1.0]))
        assert np.array_equal(st, np.ones(3))

    def test_just_below_threshold_is_minus_one(self):
        we = zero_weights(3)
        st = update_state(we, np.full(3, 1e-9), np.ones(3))
        assert np.array_equal(st, -np.ones(3))


class TestRecall:
    def test_fixed_point_returns_in_one_iteration(self):
        patterns = [encode_pattern(ind) for ind in INDICATORS]
        we = train_patterns(patterns)
        res = recall(we, np.zeros(12), patterns[0], max_iters=10)
        assert res.status == "fixed_point"
        assert res.iterations == 1
        assert np.array_equal(res.state, patterns[0])

    def test_zero_max_iters_rejected(self):
        with pytest.raises(ValueError):
            recall(zero_weights(2), np.zeros(2), np.array([1.0, 1.0]), max_iters=0)

    def test_two_cycle_detected(self):
        we = np.array([[0.0, -1.0], [-1.0, 0.0]])
        res = recall(we, np.zeros(2), np.array([1.0, 1.0]), max_iters=10)
        assert res.status == "cycle"

    def test_all_single_bit_flips_recall(self):
        patterns = [encode_pattern(ind) for ind in INDICATORS]
        we = train_patterns(patterns)
        thetas = np.zeros(12)
        for pattern in patterns:
            for bit in range(12):
                probe = pattern.copy()
                probe[bit] *= -1
                res = recall(we, thetas, probe, max_iters=10)
                assert np.array_equal(res.state, pattern)

    def test_spin_symmetry(self):
        patterns = [encode_pattern(ind) for ind in INDICATORS]
        we = train_patterns(patterns)
        thetas = np.zeros(12)
        rng = np.random.default_rng(8)
        for _ in range(20):
            probe = np.where(rng.random(12) < 0.5, 1.0, -1.0)
            plus = recall(we, thetas, probe, 10).state
            minus = recall(we, thetas, -probe, 10).state
            assert np.array_equal(minus, -plus)

    def test_every_probe_converges(self):
        patterns = [encode_pattern(ind) for ind in INDICATORS]
        we = train_patterns(patterns)
        thetas = np.zeros(12)
        for bits in itertools.product((1.0, -1.0), repeat=12):
            res = recall(we, thetas, np.array(bits), max_iters=10)
            assert res.status in ("fixed_point", "cycle")


class TestEncoding:
    def test_urllc_code_unrolled(self):
        expected = np.array([-1.0] * 4 + [1.0] * 4 + [-1.0] * 4)
        assert np.array_equal(encode_pattern((0, 1, 0)), expected)

    def test_round_trip_all_triples(self):
        for bits in itertools.product((0, 1), repeat=3):
            assert decode_pattern(encode_pattern(bits)) == bits

    def test_stored_patterns_mutually_distant(self):
        encoded = [encode_pattern(ind) for ind in INDICATORS]
        for a, b in itertools.combinations(encoded, 2):
            assert int(np.sum(a != b)) >= 4


class TestAllocator:
    def make_pool(self):
        return ResourcePool(communication=1e6, computation=100.0, caching=100.0)

    def make_request(self, indicator, demand=1):
        return AllocationRequest(
            slice_indicator=indicator,
            sinr=20.0,
            throughput=5e4,
            fair_sla=1.0,
            slice_capacity=1e5,
            arrival_rate=2.0,
            slice_value=0.8,
            demand_slots=demand,
        )

    def test_urllc_indicator_gets_s2_bundle(self):
        allocator = HopfieldAllocator()
        alloc = allocator.allocate_resources(self.make_request((0, 1, 0)), self.make_pool())
        assert alloc.slice_id == "S2"

    def test_mmtc_indicator_gets_s3_bundle(self):
        allocator = HopfieldAllocator()
        alloc = allocator.allocate_resources(self.make_request((1, 1, 1)), self.make_pool())
        assert alloc.slice_id == "S3"

    def test_corrupted_probe_snaps_to_stored_slice(self):
        allocator = HopfieldAllocator()
        probe = encode_pattern(ServiceType.EMBB.indicator)
        probe[5] *= -1
        service, result = allocator.recall_slice(probe)
        assert service is ServiceType.EMBB
        assert result.status == "fixed_point"

    def test_pool_exhaustion_rejects(self):
        allocator = HopfieldAllocator()
        pool = ResourcePool(communication=1.0, computation=100.0, caching=100.0)
        with pytest.raises(PoolExhaustedError):
            allocator.allocate_resources(self.make_request((0, 1, 0)), pool)

    def test_modifier_bounds(self):
        low = AllocationRequest((0, 1, 0), -10.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        high = AllocationRequest((0, 1, 0), 100.0, 1e9, 1.0, 1.0, 100.0, 1.0)
        assert grant_modifier(low) == pytest.approx(0.5)
        assert grant_modifier(high) == pytest.approx(1.5)

    def test_grant_consumes_pool(self):
        allocator = HopfieldAllocator()
        pool = self.make_pool()
        before = pool.communication
        alloc = allocator.allocate_resources(self.make_request((0, 0, 1)), pool)
        assert pool.communication == pytest.approx(before - alloc.communication)

    def test_stored_patterns_are_fixed_points(self):
        allocator = HopfieldAllocator()
        for pattern in allocator.patterns.values():
            out = update_state(allocator.we, allocator.thresholds, pattern)
            assert np.array_equal(out, pattern)
