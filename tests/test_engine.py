import ast
import functools
import heapq
import importlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ts3ra import engine as engine_mod
from ts3ra.domain import ServiceType
from ts3ra.engine import (
    ALLOCATE,
    ARRIVAL,
    AUTH,
    DELIVER,
    DROP,
    MOBILITY_TICK,
    WINDOW_CLOSE,
    Engine,
    InvariantViolation,
    TRANSMIT,
    packet_size,
    run_scenario,
    uniforms,
)
from ts3ra.metrics import SliceCounters, derive_slice_metrics
from ts3ra.scenario import Scenario, ScenarioError


def small_scenario(**overrides) -> Scenario:
    base = dict(
        devices=36,
        duration=34.0,
        seed=11,
        train_samples=240,
        epochs=3,
        switches=4,
        arrival_window=0.15,
        flood_start=18.0,
        baseline_windows=10,
    )
    base.update(overrides)
    return Scenario(**base)


def queue_delivery(engine: Engine, time_us: int, di: int) -> None:
    """Queue a 4096-bit delivery of device ``di`` on its switch's lane, as
    the data plane does."""
    engine.seq += 1
    engine.dev[di].sw.deliveries.append((time_us, DELIVER, engine.seq, (di, 4096, 1500)))
    engine.queued += 1


@pytest.fixture(scope="module")
def small_run():
    trace: list[str] = []
    detection: list[str] = []
    engine = Engine(
        small_scenario(), trace_sink=trace.append, detection_sink=detection.append
    )
    report = engine.run()
    return engine, report, trace, detection


class TestScenarioValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ScenarioError, match="duration"):
            Scenario(duration=0).validate()

    def test_bad_mix_rejected(self):
        with pytest.raises(ScenarioError, match="mix"):
            Scenario(mix_embb=0.5, mix_urllc=0.5, mix_mmtc=0.5).validate()

    def test_error_raised_before_any_event(self):
        with pytest.raises(ScenarioError):
            run_scenario(Scenario(duration=-1.0))


class TestPacketSizeDraw:
    def test_matches_weighted_choice_value_for_value(self):
        length = 512
        mine, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        for _ in range(200_000):
            expected = int(
                ref.choice([length // 2, length, length * 2], p=[0.25, 0.5, 0.25])
            )
            assert packet_size(mine.random(), length) == expected
        assert mine.bit_generator.state == ref.bit_generator.state

    def test_block_draws_equal_scalar_draws(self):
        blocks, ref = np.random.default_rng(7), np.random.default_rng(7)
        draws = uniforms(blocks)
        for _ in range(10_000):  # spans three blocks
            assert next(draws) == ref.random()


class TestEmptyWorld:
    def test_zero_devices_zero_counters(self):
        report = run_scenario(
            Scenario(devices=0, duration=5.0, train_samples=60, epochs=1)
        )
        assert report.total.sent == 0
        assert report.total.delivered == 0
        assert report.total.degenerate
        for m in report.slices.values():
            assert m.ptr == 0.0 and m.plr == 0.0


class TestDeterminism:
    def test_identical_seed_identical_artifacts(self):
        def capture():
            trace: list[str] = []
            report = run_scenario(
                small_scenario(devices=20, duration=12.0), trace_sink=trace.append
            )
            return report.to_csv_rows(), trace

        rows_a, trace_a = capture()
        rows_b, trace_b = capture()
        assert rows_a == rows_b
        assert trace_a == trace_b


class TestPipelineSteps:
    def make_engine(self):
        return Engine(small_scenario(devices=4, duration=5.0, train_samples=60, epochs=1))

    def test_arrival_emits_auth_not_transmit(self):
        engine = self.make_engine()
        engine.heap.clear()
        engine._on_arrival(0)
        kinds = [item[1] for item in engine.heap]
        assert AUTH in kinds
        assert TRANSMIT not in kinds

    def test_deliver_increments_exactly_one_slice(self):
        engine = self.make_engine()
        rt = engine.dev[0]
        rt.decided = ServiceType.URLLC
        rt.place(engine.sw_by_id["SW0"])
        before = {st: engine.counters[st].delivered for st in ServiceType}
        engine.counters[ServiceType.URLLC].in_flight += 1
        queue_delivery(engine, 0, 0)
        engine._apply_outcomes(math.inf)
        after = {st: engine.counters[st].delivered for st in ServiceType}
        deltas = [after[st] - before[st] for st in ServiceType]
        assert sorted(deltas) == [0, 0, 1]

    def test_transmit_on_blocked_source_emits_drop(self):
        engine = self.make_engine()
        rt = engine.dev[1]
        rt.decided = ServiceType.MMTC
        rt.quarantined = True
        rt.flow = engine._make_flow(rt, ServiceType.MMTC)
        rt.place(engine.sw_by_id["SW0"])
        engine.heap.clear()
        engine._push(engine.clock_us, TRANSMIT, (1, False, 0))
        engine._run_data_plane(engine.clock_us + 1)
        kinds = [item[1] for item in engine.drops]
        assert DROP in kinds
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        engine.collect_metrics()
        c = engine.counters[ServiceType.MMTC]
        assert c.blocked >= 1
        assert c.dropped >= 1

    def test_time_regression_is_fatal(self):
        engine = self.make_engine()
        engine.clock_us = 1000
        with pytest.raises(InvariantViolation):
            engine.step_event((500, TRANSMIT, 0, (0, False, 0)))


class TestConservationAndAttribution:
    def test_packet_conservation_exact(self, small_run):
        engine, report, _, _ = small_run
        for st in ServiceType:
            c = engine.counters[st]
            assert c.sent == c.delivered + c.dropped
            assert c.in_flight == 0

    def test_ratios_within_bounds(self, small_run):
        _, report, _, _ = small_run
        for m in report.slices.values():
            assert 0.0 <= m.ptr <= 1.0
            assert 0.0 <= m.plr <= 1.0
            assert m.ptr + m.plr <= 1.0 + 1e-9
            assert 0.0 <= m.acceptance_ratio <= 1.0

    def test_trace_times_nondecreasing(self, small_run):
        _, _, trace, _ = small_run
        times = [float(row.split(",")[0]) for row in trace[1:]]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_deliveries_only_from_authenticated(self, small_run):
        engine, _, trace, _ = small_run
        authenticated = {
            rt.device.device_id for rt in engine.dev if rt.authenticated
        }
        for row in trace[1:]:
            cells = row.split(",")
            if cells[1] == "deliver":
                assert cells[2] in authenticated

    def test_no_delivery_after_quarantine(self, small_run):
        engine, _, trace, _ = small_run
        assert engine.quarantined, "scenario should quarantine its flooders"
        first_block: dict[str, float] = {}
        for row in trace[1:]:
            cells = row.split(",")
            if cells[1] == "drop" and cells[5] == "quarantined":
                first_block.setdefault(cells[2], float(cells[0]))
        assert first_block
        for row in trace[1:]:
            cells = row.split(",")
            if cells[1] == "deliver" and cells[2] in first_block:
                assert float(cells[0]) <= first_block[cells[2]]


class TestDetectionIntegration:
    def test_flooders_quarantined(self, small_run):
        engine, report, _, _ = small_run
        flooders = {
            rt.device.device_id
            for rt in engine.dev
            if not rt.device.legitimate and not rt.forged and rt.granted
        }
        assert flooders
        assert engine.quarantined <= flooders | {
            rt.device.device_id for rt in engine.dev if not rt.device.legitimate
        }
        assert report.quarantined_sources >= 1

    def test_detection_log_format(self, small_run):
        _, _, _, detection = small_run
        assert detection[0].startswith("window_start,switch_id,")
        assert len(detection) > 1

    def test_every_switch_window_reaches_the_module_entropy_calls(self, monkeypatch):
        # The benchmark's traced runs time detection by wrapping these two
        # module attributes; a call that bypassed them would go unmeasured.
        from ts3ra import ddos

        calls = {"window_entropies": 0, "classify_window": 0}
        for name in calls:
            inner = getattr(ddos, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(ddos, name, counted)
        detection: list[str] = []
        sc = small_scenario(
            devices=12, duration=8.0, window_duration=0.25, min_packets=3,
            flood_start=4.0, train_samples=60, epochs=1,
        )
        Engine(sc, detection_sink=detection.append).run()
        rows = [line.split(",") for line in detection[1:]]
        assert calls["window_entropies"] == len(rows) == sc.switches * 32
        classified = sum(row[5] in ("benign", "attack") for row in rows)
        assert calls["classify_window"] == classified > 0

    def test_window_state_stays_bounded_without_detection(self):
        engine = Engine(
            small_scenario(
                devices=20, duration=12.0, ddos_enabled=False, train_samples=60, epochs=1
            )
        )
        engine.run()
        assert engine.generated > 1000
        for sw in engine.switches:
            window = sw.window
            assert len(window.source_counts) <= len(engine.dev)
            assert len(window.interarrival_bins) == 16
            assert len(window.size_counts) <= 3
        # never reset, so the one window has counted every packet admitted
        assert sum(sw.window.packet_count for sw in engine.switches) > 1000

    def test_forged_devices_rejected_at_auth(self):
        report = run_scenario(
            small_scenario(
                devices=30,
                illegitimate_fraction=0.2,
                forged_fraction=0.5,
                train_samples=60,
                epochs=1,
                duration=10.0,
            )
        )
        assert report.auth_rejected >= 1
        assert report.auth_accepted + report.auth_rejected == 30


class TestRebalanceIntegration:
    def test_migrations_relieve_overload_without_detection(self):
        migrations: list[str] = []
        report = run_scenario(
            small_scenario(
                devices=48,
                duration=20.0,
                ddos_enabled=False,
                flood_start=6.0,
                switch_service_capacity=1.0e6,
                switch_transmission_rate=0.9e6,
                switches=4,
            ),
            migration_sink=migrations.append,
        )
        assert report.migrations > 0
        assert len(migrations) == report.migrations + 1  # header row


class TestMobility:
    def test_zero_speed_stays_put(self):
        engine = Engine(small_scenario(devices=5, duration=5.0, train_samples=60, epochs=1, speed_min=0.0, speed_max=0.0))
        before = engine.positions.copy()
        for _ in range(100):
            engine._on_mobility_tick()
        assert np.array_equal(engine.positions, before)

    def test_positions_stay_in_bounds(self):
        engine = Engine(small_scenario(devices=25, duration=5.0, train_samples=60, epochs=1, speed_max=40.0))
        for _ in range(10_000):
            engine._on_mobility_tick()
        assert np.all(engine.positions[:, 0] >= 0.0)
        assert np.all(engine.positions[:, 0] <= engine.sc.area_width)
        assert np.all(engine.positions[:, 1] >= 0.0)
        assert np.all(engine.positions[:, 1] <= engine.sc.area_height)

    def test_displacement_bounded_by_speed(self):
        engine = Engine(small_scenario(devices=25, duration=5.0, train_samples=60, epochs=1))
        for _ in range(200):
            before = engine.positions.copy()
            engine._on_mobility_tick()
            moved = np.linalg.norm(engine.positions - before, axis=1)
            assert np.all(moved <= engine.speeds * engine.sc.tick_interval + 1e-9)


def lossless_engine(trace: list[str], **overrides) -> Engine:
    """A 4-device engine with no event queued and no switch losing packets."""
    engine = Engine(
        small_scenario(
            devices=4, duration=5.0, train_samples=60, epochs=1, size_jitter=False, **overrides
        ),
        trace_sink=trace.append,
    )
    engine.heap.clear()
    for sw in engine.switches:
        sw.loss_rate = 0.0
    return engine


class TestOutcomeOrdering:
    def test_trace_sink_leaves_metrics_unchanged(self, small_run):
        engine, report, _, _ = small_run
        assert engine.quarantined
        assert run_scenario(small_scenario()).to_csv_rows() == report.to_csv_rows()

    def test_outcomes_applied_before_every_event_give_the_same_run(self, small_run, monkeypatch):
        # A backlog of 1 applies each outcome at its place in the old single
        # heap, before whatever event follows it.
        _, report, trace, detection = small_run
        monkeypatch.setattr(engine_mod, "OUTCOME_BACKLOG", 1)
        eager_trace: list[str] = []
        eager_detection: list[str] = []
        eager = Engine(
            small_scenario(), trace_sink=eager_trace.append, detection_sink=eager_detection.append
        ).run()
        assert eager.to_csv_rows() == report.to_csv_rows()
        assert eager_trace == trace
        assert eager_detection == detection

    def test_backlog_bounds_outcome_heap_without_detection_or_rebalance(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "OUTCOME_BACKLOG", 64)
        engine = Engine(
            small_scenario(devices=20, duration=12.0, ddos_enabled=False, offload_enabled=False)
        )
        high = 0
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
            high = max(high, engine.queued)
        assert engine.generated > 1000
        # Without the bound 193 outcomes wait at once here; an event queues
        # at most one.
        assert high <= 64 + 1
        engine.collect_metrics()

    def test_run_leaves_no_outcome_queued(self, small_run):
        engine, _, _, _ = small_run
        assert engine.queued == 0
        assert all(lane == [] for lane in engine.lanes)
        assert all(c.in_flight == 0 for c in engine.counters.values())

    @pytest.mark.parametrize("delay_us,delivered", [(0, True), (1, False)])
    def test_delivery_at_quarantining_window_close(self, delay_us, delivered):
        engine = Engine(small_scenario(devices=12, duration=5.0, train_samples=60, epochs=1))
        engine.heap.clear()
        rt = engine.dev[0]
        sw = engine.sw_by_id["SW0"]
        rt.place(sw)
        c = rt.counters
        close_us = 2_000_000
        c.sent += 1
        c.in_flight += 1
        queue_delivery(engine, close_us + delay_us, 0)
        # One source dominates a window on SW0 whose size entropy collapses.
        counts = sw.window.source_counts
        counts[rt.device.device_id] = 1000
        for other in engine.dev[1:10]:
            counts[other.device.device_id] = 1
        sw.window.size_counts[512] = 1009
        sw.baseline_triples = [(3.0, 1.0, 1.0)] * engine.sc.baseline_windows
        engine.step_event((close_us, WINDOW_CLOSE, 0, None))
        assert rt.quarantined
        engine.collect_metrics()
        assert (c.delivered, c.blocked) == ((1, 0) if delivered else (0, 1))

    @staticmethod
    def transmit_now(engine: Engine, di: int) -> None:
        """Send one packet of device ``di`` at the clock; its successor packet
        is not followed."""
        engine._push(engine.clock_us, TRANSMIT, (di, False, 0))
        engine._run_data_plane(engine.clock_us + 1)
        engine.transmits.clear()

    @staticmethod
    def delivery_rows(trace: list[str]) -> list[tuple[str, str]]:
        rows = [row.split(",") for row in trace[1:]]
        return [(cells[0], cells[2]) for cells in rows if cells[1] == "deliver"]

    def test_same_time_deliveries_on_two_switches_apply_in_seq_order(self):
        trace: list[str] = []
        engine = lossless_engine(trace)
        engine.clock_us = 1_000_000
        # The first packet goes to the higher-numbered switch, so reading the
        # lanes in switch order would apply it second.
        for di, sw_id in ((0, "SW1"), (1, "SW0")):
            engine.dev[di].place(engine.sw_by_id[sw_id])
            self.transmit_now(engine, di)
        [(due, *_)] = engine.sw_by_id["SW1"].deliveries
        [(other, *_)] = engine.sw_by_id["SW0"].deliveries
        assert due == other
        engine.collect_metrics()
        t = f"{due / 1e6:.6f}"
        assert self.delivery_rows(trace) == [(t, "d0000"), (t, "d0001")]

    @pytest.mark.parametrize("old_backlog_us", [0, 5_000])
    def test_migrated_device_delivery_on_old_lane_applied_in_time_order(self, old_backlog_us):
        trace: list[str] = []
        engine = lossless_engine(trace)
        rt = engine.dev[0]
        old, new = engine.sw_by_id["SW0"], engine.sw_by_id["SW1"]
        engine.clock_us = 1_000_000
        old.busy_until_us = engine.clock_us + old_backlog_us
        rt.place(old)
        self.transmit_now(engine, 0)
        engine.clock_us += 1_000
        rt.place(new)  # migrated with its first packet still on the old link
        self.transmit_now(engine, 0)
        [(first, *_)], [(second, *_)] = old.deliveries, new.deliveries
        assert (first < second) == (old_backlog_us == 0)
        engine.collect_metrics()
        times = [f"{t / 1e6:.6f}" for t in sorted((first, second))]
        assert self.delivery_rows(trace) == [(t, "d0000") for t in times]
        assert rt.counters.delivered == 2

    def test_every_lane_sorted_after_every_event(self):
        engine = Engine(small_scenario())
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
            assert all(lane == sorted(lane) for lane in engine.lanes)
            assert engine.queued == sum(map(len, engine.lanes))
        assert engine.quarantined
        engine.collect_metrics()

    def test_mobility_ticks_stop_once_every_device_finished(self):
        engine = Engine(small_scenario(devices=12, duration=20.0, train_samples=60, epochs=1))
        while engine.unfinished:
            engine.step_event(heapq.heappop(engine.heap))
        finished_us = engine.clock_us
        assert finished_us < engine.end_us / 2
        ticks = 0
        while engine.heap:
            event = heapq.heappop(engine.heap)
            ticks += event[1] == MOBILITY_TICK
            engine.step_event(event)
            if ticks:
                assert all(e[1] != MOBILITY_TICK for e in engine.heap)
        assert ticks <= 1  # the one armed before the last device finished


class TestHorizon:
    def test_no_event_runs_after_the_horizon_while_the_scheduler_is_busy(self):
        # Every request needs 10^4 slots of 10 ms: the queue outlasts a 2 s run.
        engine = Engine(
            small_scenario(
                devices=6, duration=2.0, train_samples=60, epochs=1,
                demand_embb=10**4, demand_urllc=10**4, demand_mmtc=10**4,
            )
        )
        while engine.heap:
            event = heapq.heappop(engine.heap)
            assert event[0] <= engine.end_us, event
            engine.step_event(event)
        engine.collect_metrics()
        assert engine.qstate.n_in_system > 0
        # The requests still queued are pending, not decided or allocated.
        assert engine.unfinished >= engine.qstate.n_in_system
        assert all(c.in_flight == 0 for c in engine.counters.values())


class TestDataPlaneBoundary:
    """Transmits run, in event order, up to each control event."""

    def test_transmit_at_window_close_is_counted_in_that_window(self, monkeypatch):
        engine = lossless_engine([])
        sw = engine.sw_by_id["SW0"]
        for di in (0, 1):
            engine.dev[di].place(sw)
        close_us = 2_000_000
        engine._push(close_us, TRANSMIT, (0, False, 0))
        engine._push(close_us + 1, TRANSMIT, (1, False, 0))
        counted: list[int] = []
        entropies = engine_mod.ddos_mod.window_entropies

        def spy(window, alpha):
            counted.append(window.packet_count)
            return entropies(window, alpha)

        monkeypatch.setattr(engine_mod.ddos_mod, "window_entropies", spy)
        engine.step_event((close_us, WINDOW_CLOSE, 0, None))
        assert counted[0] == 1  # SW0's window, closed first
        assert engine.transmits[0][:2] == (close_us + 1, TRANSMIT)
        assert sw.window.packet_count == 0

    def test_transmit_at_allocate_runs_after_it(self):
        engine = lossless_engine([])
        engine.dev[0].place(engine.sw_by_id["SW0"])
        at_us = 1_000_000
        engine._push(at_us - 1, TRANSMIT, (0, False, 0))
        engine._push(at_us, TRANSMIT, (0, False, 0))
        seen: list[int] = []
        handlers = list(engine._handlers)
        handlers[ALLOCATE] = lambda di: seen.append(engine.generated)
        engine._handlers = tuple(handlers)
        engine.step_event((at_us, ALLOCATE, 0, 1))
        assert seen == [1]
        assert engine.transmits[0][:2] == (at_us, TRANSMIT)
        engine._run_data_plane(at_us + 1)
        assert engine.generated == 2

    def test_retransmit_rounding_to_no_time_runs_in_the_same_advance(self):
        engine = lossless_engine([], retransmit_delay=4e-7)
        assert engine.retransmit_delay_us == 0
        rt = engine.dev[0]
        # a reliable-stream slice retransmits a lost packet once
        rt.decided = ServiceType.URLLC
        rt.flow = engine._make_flow(rt, ServiceType.URLLC)
        sw = engine.sw_by_id["SW0"]
        sw.loss_rate = 1.0
        rt.place(sw)
        now = 1_000_000
        engine._push(now, TRANSMIT, (0, False, 0))
        engine.step_event((now, WINDOW_CLOSE, 0, None))
        c = rt.counters
        assert (c.sent, c.dropped, c.in_flight) == (1, 1, 0)
        assert [entry[0] for entry in engine.transmits] == [now + engine.packet_interval_us]

    def test_event_heap_holds_only_control_events(self):
        engine = Engine(small_scenario())
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
            assert all(entry[1] != TRANSMIT for entry in engine.heap)
        assert engine.quarantined
        engine.collect_metrics()
        assert engine.transmits == []

    def test_transmits_left_when_the_event_heap_empties_run_at_collection(self):
        engine = Engine(
            small_scenario(
                devices=8, duration=12.0, ddos_enabled=False, offload_enabled=False,
                train_samples=60, epochs=1,
            )
        )
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        assert engine.clock_us < engine.end_us / 2
        assert engine.transmits
        engine.collect_metrics()
        assert engine.transmits == []
        # the last packets were sent within one interval of the horizon
        assert engine.clock_us >= engine.end_us - engine.packet_interval_us

    def test_backlog_bounds_lanes_within_the_data_plane(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "OUTCOME_BACKLOG", 64)
        engine = Engine(
            small_scenario(
                devices=8, duration=12.0, ddos_enabled=False, offload_enabled=False,
                train_samples=60, epochs=1,
            )
        )
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        sent = engine.generated
        engine._run_data_plane(math.inf)
        assert engine.generated - sent > 500
        assert engine.queued <= 64 + 1
        engine.collect_metrics()

    def test_transmit_on_event_heap_is_fatal(self):
        engine = lossless_engine([])
        with pytest.raises(InvariantViolation, match="event heap"):
            engine.step_event((0, TRANSMIT, 0, (0, False, 0)))


@functools.cache
def tiny_model():
    # One trained model serves every drawn scenario: training is not under test.
    return Engine(Scenario(devices=0, duration=1.0, train_samples=60, epochs=1)).model


def flood_scenario(**values) -> Scenario:
    """A 5 s run with flooders from 2 s on, and switches easily overloaded."""
    base = dict(
        switch_service_capacity=0.3e6,
        switch_transmission_rate=0.3e6,
        duration=5.0,
        flood_start=2.0,
        illegitimate_fraction=0.3,
        forged_fraction=0.0,
        demand_embb=4,
        demand_urllc=2,
        demand_mmtc=3,
        packet_interval=0.05,
        window_duration=0.1,
        min_packets=5,
        dominance_factor=2.0,
        rebalance_interval=0.5,
    )
    base.update(values)
    return small_scenario(**base)


@st.composite
def flood_scenarios(draw) -> Scenario:
    """Drawn flood scenarios; a few drawn values must be rejected."""
    return flood_scenario(
        seed=draw(st.integers(0, 2**16)),
        devices=draw(st.integers(0, 12)),
        switches=draw(st.integers(1, 4)),
        switch_loss_rate=draw(st.floats(-0.05, 1.05)),
        queue_delay_bound=draw(st.floats(0.0, 0.1)),
        # 0.4 us rounds to no time at all
        flood_packet_interval=draw(st.sampled_from([4e-7, 0.004, 0.02, 0.05])),
        retransmit_delay=draw(st.floats(-0.001, 0.05)),
        offload_enabled=draw(st.booleans()),
        # with neither plane on, the event heap empties while packets are due
        ddos_enabled=draw(st.booleans()),
        # a queue of one or two refuses some enqueues
        hp_capacity=draw(st.sampled_from([1, 2, 1000])),
        lp_capacity=draw(st.sampled_from([1, 2, 1000])),
        # 10^4 slots outlast the run, so some devices are still pending
        demand_embb=draw(st.sampled_from([1, 30, 10**4])),
        demand_urllc=draw(st.sampled_from([1, 30, 10**4])),
        demand_mmtc=draw(st.sampled_from([1, 30, 10**4])),
    )


class TestConservationProperty:
    @settings(max_examples=30, deadline=None)
    @given(sc=flood_scenarios())
    # Few draws both migrate and quarantine; this one migrates 3 flows and
    # quarantines 1 source.
    @example(
        sc=flood_scenario(
            seed=0, devices=12, switches=2, flood_packet_interval=0.004,
            switch_loss_rate=0.1, queue_delay_bound=0.05, retransmit_delay=0.01,
        )
    )
    def test_scenario_rejected_or_conserves_packets_in_any_outcome_order(self, sc):
        def run(drive=Engine.run):
            trace: list[str] = []
            detection: list[str] = []
            engine = Engine(
                sc, trace_sink=trace.append, detection_sink=detection.append, model=tiny_model()
            )
            rows = drive(engine).to_csv_rows()
            # Scheduler conservation: every accepted device was enqueued once,
            # and each queue-full drop is one refused enqueue.
            classes = engine.qstate.counters.values()
            assert engine.qstate.conservation_holds()
            assert sum(c.enqueued for c in classes) == engine.auth_accepted
            assert sum(c.dropped for c in classes) == engine.queue_dropped
            # Device conservation: each device is rejected at auth, dropped at
            # the queue, granted or refused by its pool, or still pending.
            allocated = sum(c.granted + c.rejected for c in engine.counters.values())
            assert sc.devices == (
                engine.auth_rejected + engine.queue_dropped + allocated + engine.unfinished
            )
            return engine, rows, trace, detection

        def stepped(engine):
            # The benchmark's traced children drive the engine this way.
            heap = engine.heap
            while heap:
                event = heapq.heappop(heap)
                assert event[0] <= engine.end_us, event
                engine.step_event(event)
            return engine.collect_metrics()

        try:
            engine, *artifacts = run()
        except ScenarioError:
            return
        for c in engine.counters.values():
            assert c.sent == c.delivered + c.dropped
            assert c.in_flight == 0
        assert engine.transmits == []
        with mock.patch.object(engine_mod, "OUTCOME_BACKLOG", 1):
            _, *eager = run()
        assert eager == artifacts
        _, *traced = run(stepped)
        assert traced == artifacts


class TestCollectMetrics:
    def test_ratio_definitions(self):
        c = SliceCounters(sent=100, delivered=90, dropped=10, delivered_bits=10**6)
        m = derive_slice_metrics("S1", c, duration=10.0, pool_comm=1.0)
        assert m.ptr == pytest.approx(0.9)
        assert m.plr == pytest.approx(0.1)
        assert m.throughput_bps == pytest.approx(1e5)

    def test_zero_sent_degenerate(self):
        m = derive_slice_metrics("S1", SliceCounters(), duration=10.0, pool_comm=1.0)
        assert m.degenerate
        assert m.ptr == 0.0 and m.plr == 0.0


def test_benchmark_plane_calls_resolve():
    # The benchmark's traced runs wrap these (owner, attribute) pairs by
    # name; a deleted or renamed one would break ``perfbench/run.py --trace 1``.
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "child.py").read_text()
    assign = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "PLANE_CALLS"
    )
    plane_calls = ast.literal_eval(assign.value)
    assert plane_calls
    for owner, attr, _ in plane_calls:
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"ts3ra.{module}")
        if cls:
            target = getattr(target, cls)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"
