import ast
import contextlib
import copy
import functools
import heapq
import importlib
import json
import math
import os
import subprocess
import sys
import threading
from bisect import bisect_right
from collections import deque
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ts3ra import auth as auth_mod
from ts3ra import dataplane as dataplane_mod
from ts3ra import engine as engine_mod
from ts3ra import sched as sched_mod
from ts3ra.dataplane import (
    LOSS,
    OK,
    OVERFLOW,
    QUARANTINED,
    REFUSED,
    DataPlane,
    rows_text,
    size_index,
)
from ts3ra.domain import SLICE_ORDER, Protocol, ServiceType, qos_profile_of
from ts3ra.engine import (
    ALLOCATE,
    ARRIVAL,
    AUTH,
    DELIVER,
    DROP,
    KIND_NAMES,
    MOBILITY_TICK,
    SCHEDULE_SLOT,
    SLICE_DECIDE,
    TRANSMIT,
    WINDOW_CLOSE,
    Engine,
    InvariantViolation,
    run_scenario,
    seconds_text,
)
from ts3ra.metrics import SliceCounters, derive_slice_metrics
from ts3ra.rng import RngHub
from ts3ra.scenario import Scenario, ScenarioError, to_us
from ts3ra.scenario_io import apply_override, parse_scenario
from ts3ra.slicenet import TrainingDivergedError

ROOT = Path(__file__).resolve().parent.parent
NEVER = np.iinfo(np.int64).max


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


def hold_delivery(engine: Engine, time_us: int, di: int) -> None:
    """Hold a 4096-bit delivery of device ``di`` due at ``time_us``, as the
    data plane does, on the device's decided slice."""
    engine.dp.slice_of[di] = SLICE_ORDER.index(engine.decided[di])
    engine.dp._hold(*(np.array([v]) for v in (time_us, OK, 0, di, 4096, 1500)))


def place(engine: Engine, di: int, sw_id: str) -> None:
    """Route device ``di``'s packets through switch ``sw_id``, as allocation
    and migration do."""
    engine.dp.place(di, engine.switch_index[sw_id])


def enrolled(engine: Engine, device_id: str) -> bool:
    """Whether set-up enrolled ``device_id``: every device but the forged ones."""
    return engine.vap.holder_of(device_id) is not None


def start_transmits(engine: Engine, di: int, first_us: int) -> None:
    """Start device ``di``'s packets at ``first_us``, as allocation does:
    with its decided slice's protocol and on that slice."""
    decided = engine.decided[di]
    reliable = engine.sc.protocol(decided) is Protocol.RELIABLE_STREAM
    engine.dp.start(di, first_us, reliable, SLICE_ORDER.index(decided))


class Lines(list):
    """A sink that takes text as ``TextIO.write`` does and keeps its lines;
    ``writes`` counts its calls and ``text`` is all the text it was given."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def __call__(self, text: str) -> None:
        assert text.endswith("\n"), text
        self.writes += 1
        self.extend(text[:-1].split("\n"))

    @property
    def text(self) -> str:
        return "".join(f"{line}\n" for line in self)


def packet_size(u: float, length: int) -> int:
    """Half, full or double ``length`` with probabilities 1/4, 1/2, 1/4: one
    draw's size, as the scalar reference takes it."""
    if u < 0.25:
        return length // 2
    if u < 0.75:
        return length
    return length * 2


class ScalarDataPlane(DataPlane):
    """The data plane one packet at a time, in canonical order (time, device,
    retransmit), with the same draws; outcomes are applied one at a time in
    (time, kind, packet) order.  It is the reference that the batched data
    plane must match exactly.  Each outcome's trace row is its own f-string
    of the time in seconds, and its own sink call, with the slice and switch
    taken from the engine's decisions and switches (``engine``, given once the
    engine is built; see :func:`scalar_data_plane`).  Its detection window
    counts arrivals per (switch, device, size) and per (switch, inter-arrival
    bin), in arrays of its own, and :meth:`close_window` reduces those."""

    def __init__(self, *args):
        super().__init__(*args)
        self.engine: Engine = None
        self.ref_retransmits: list = []  # heap of (time, device, size, loss draw)
        self.ref_outcomes: list = []  # (time, drop?, packet, device, code, bits, latency)
        self.ref_edges = tuple(self.ia_edges.tolist())
        n_sw, n_dev = len(self.busy_us), len(self.next_us)
        self.ref_counts = np.zeros((n_sw, n_dev, len(self.sizes)), dtype=np.int64)
        self.ref_gaps = np.zeros_like(self.win_gaps)

    def close_window(self) -> list:
        per_source = self.ref_counts.sum(axis=2)
        sources: list[dict[str, int]] = [{} for _ in self.busy_us]
        for j, i in zip(*np.nonzero(per_source)):
            sources[j][self.device_ids[i]] = int(per_source[j, i])
        windows = [
            engine_mod.ddos_mod.WindowCounts(
                source_counts=source_counts,
                interarrival_bins=gaps,
                size_counts={size: c for size, c in zip(self.sizes, sizes) if c},
            )
            for source_counts, gaps, sizes in zip(
                sources, self.ref_gaps.tolist(), self.ref_counts.sum(axis=1).tolist()
            )
        ]
        self.ref_counts.fill(0)
        self.ref_gaps.fill(0)
        return windows

    def run(self, until_us: float) -> None:
        n_dev = len(self.next_us)
        while True:
            d = int(np.argmin(self.next_us)) if n_dev else 0
            t_new = int(self.next_us[d]) if n_dev else NEVER
            retx = self.ref_retransmits[0] if self.ref_retransmits else (NEVER, 0)
            new_first = (t_new, d) <= retx[:2]
            t = t_new if new_first else retx[0]
            if t >= until_us or t == NEVER:
                break
            if new_first:
                self._ref_new(t, d)
            else:
                self._ref_retransmit(*heapq.heappop(self.ref_retransmits))
        due = sorted(o for o in self.ref_outcomes if o[0] < until_us)
        self.ref_outcomes = [o for o in self.ref_outcomes if o[0] >= until_us]
        for time_us, _, _, d, code, bits, latency in due:
            self._ref_apply(time_us, d, code, bits, latency)

    def _ref_new(self, t: int, d: int) -> None:
        sc = self.sc
        self.generated += 1
        u_size = self._rng_sizes.random()
        u_loss = self._rng_loss.random()
        u_retx = self._rng_retx.random()
        flood = self.floods[d] and t >= self.flood_start_us
        size = packet_size(u_size, sc.packet_length) if sc.size_jitter and not flood else sc.packet_length
        nxt = t + (self.flood_packet_interval_us if flood else self.packet_interval_us)
        self.next_us[d] = nxt if nxt < self.end_us else NEVER
        key = (t * len(self.next_us) + d) * 2
        if self.is_quarantined[d]:
            self._ref_block(d)
            self.ref_outcomes.append((t, 1, key, d, REFUSED, 0, 0))
            return
        c = self.counters[self.slice_of[d]]
        c.sent += 1
        c.in_flight += 1
        self._ref_arrive(t, d, size, u_loss, key, u_retx if self.reliable[d] else None)

    def _ref_retransmit(self, t: int, d: int, size: int, u_loss: float) -> None:
        key = (t * len(self.next_us) + d) * 2 + 1
        if self.is_quarantined[d]:
            self._ref_block(d)
            self.ref_outcomes.append((t, 1, key, d, QUARANTINED, 0, 0))
            return
        self._ref_arrive(t, d, size, u_loss, key, None)

    def _ref_block(self, d: int) -> None:
        self.blocked_packets[d] += 1
        if self.blocked_packets[d] >= max(self.sc.flood_giveup, 1):
            self.next_us[d] = NEVER

    def _ref_arrive(self, t, d, size, u_loss, key, u_retx) -> None:
        sc = self.sc
        j = int(self.sw_of[d])
        self.ref_counts[j, d, self.sizes.index(size)] += 1
        self.interval_bits[d] += size * 8
        last = self.last_arrival_us[j]
        if last >= 0:
            self.ref_gaps[j, bisect_right(self.ref_edges, (t - last) / 1e6)] += 1
        self.last_arrival_us[j] = t
        if u_loss < self.loss_rate:
            code = LOSS
        else:
            backlog = max(self.busy_us[j] - t, 0)
            if backlog <= self.queue_delay_bound_us:
                tx = int(round(size * 8 / sc.switch_transmission_rate * 1e6))
                self.busy_us[j] = t + backlog + tx
                latency = self.processing_latency_us + backlog + tx
                self.ref_outcomes.append((t + latency, 0, key, d, OK, size * 8, latency))
                return
            code = OVERFLOW
        if u_retx is not None:
            heapq.heappush(self.ref_retransmits, (t + self.retransmit_delay_us, d, size, u_retx))
        else:
            self.ref_outcomes.append((t, 1, key, d, code, 0, 0))

    def _ref_apply(self, time_us, d, code, bits, latency) -> None:
        c = self.counters[self.slice_of[d]]
        if code == OK and self.is_quarantined[d]:
            code = QUARANTINED
        if code == OK:
            c.in_flight -= 1
            c.delivered += 1
            c.delivered_bits += bits
            c.latency_us += latency
        elif code == REFUSED:
            c.sent += 1
            c.dropped += 1
            c.blocked += 1
        else:
            c.in_flight -= 1
            c.dropped += 1
            c.blocked += code == QUARANTINED
        if self.trace_sink is not None:
            kind = "deliver" if code == OK else "drop"
            reason = {OK: "ok", LOSS: "loss", OVERFLOW: "overflow"}.get(code, "quarantined")
            j = self.sw_of[d]
            switch_id = self.engine.switch_ids[j] if j >= 0 else ""
            tag = f"{self.device_ids[d]},{self.engine.decided[d].slice_id},{switch_id}"
            self.trace_sink(f"{time_us / 1e6:.6f},{kind},{tag},{reason}\n")


@contextlib.contextmanager
def scalar_data_plane():
    """Build engines on :class:`ScalarDataPlane`; set its ``engine`` once the
    engine is built."""
    with mock.patch.object(engine_mod, "DataPlane", ScalarDataPlane):
        yield


@pytest.fixture(scope="module")
def small_run():
    trace = Lines()
    detection = Lines()
    engine = Engine(
        small_scenario(), trace_sink=trace, detection_sink=detection
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
        # The engine's size rule and the reference's both take the value of
        # a weighted choice, from one draw each.
        length = 512
        sizes = np.array([length // 2, length, length * 2])
        mine, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        u = mine.random(200_000)
        engine_sizes = sizes[size_index(u)]
        for k in range(len(u)):
            expected = int(
                ref.choice([length // 2, length, length * 2], p=[0.25, 0.5, 0.25])
            )
            assert engine_sizes[k] == packet_size(u[k], length) == expected
        assert mine.bit_generator.state == ref.bit_generator.state

    def test_block_draws_equal_scalar_draws(self):
        # A batch takes its draws as one block; where batches are cut must not
        # change the values.
        blocks, ref = np.random.default_rng(7), np.random.default_rng(7)
        sizes = np.random.default_rng(8).integers(0, 50, size=400)
        drawn = np.concatenate([blocks.random(n) for n in sizes])
        assert drawn.tolist() == [ref.random() for _ in range(int(sizes.sum()))]


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
            trace = Lines()
            report = run_scenario(
                small_scenario(devices=20, duration=12.0), trace_sink=trace
            )
            return report.to_csv_rows(), trace

        rows_a, trace_a = capture()
        rows_b, trace_b = capture()
        assert rows_a == rows_b
        assert trace_a == trace_b


def spy_derive_key(monkeypatch) -> list:
    """Record the params of every ``derive_key`` call."""
    calls, derive_key = [], auth_mod.derive_key

    def spy(params):
        calls.append(params)
        return derive_key(params)

    monkeypatch.setattr(auth_mod, "derive_key", spy)
    return calls


class TestDeviceRegistration:
    """Set-up registers each enrolled device with one ``register_device``
    call, in device order, and so derives one key per distinct input."""

    def scenario(self, **overrides) -> Scenario:
        # half the devices illegitimate and half of those forged: some
        # devices register and some do not
        return small_scenario(
            devices=12,
            train_samples=60,
            epochs=1,
            illegitimate_fraction=0.5,
            forged_fraction=0.5,
            **overrides,
        )

    def test_records_equal_sequential_registration(self, monkeypatch):
        calls = spy_derive_key(monkeypatch)
        sc = self.scenario()
        engine = Engine(sc)
        engine.run()
        monkeypatch.undo()
        registered = [d for d in engine.device_ids if enrolled(engine, d)]
        assert 0 < len(registered) < len(engine.device_ids)

        rng_puf = RngHub(sc.seed).substream("puf")
        pool = auth_mod.VirtualAuthorityPool()
        for device_id in engine.device_ids:
            puf = auth_mod.SimulatedPuf(bytes(rng_puf.integers(0, 256, size=32, dtype=np.uint8)))
            if enrolled(engine, device_id):
                va = pool.authority_for(device_id)
                auth_mod.register_device(va, device_id, f"pw-{device_id}".encode(), puf, rng_puf)
        assert engine.vap.authorities == pool.authorities
        params = []
        for device_id in registered:
            record = engine.vap.holder_of(device_id).registered[device_id]
            assert record.derived_key == auth_mod.derive_key(record.params)
            # every device presents the password it enrolled with
            presented = engine_mod._password(device_id)
            assert replace(record.params, password=presented) == record.params
            params.append(record.params)
        # one derivation per enrolled device, in device order: each presented
        # input is its record's, so none is derived twice
        assert calls == params

    def test_records_stored_before_the_first_event(self):
        engine = Engine(self.scenario())
        # set-up stored every record before the first event: all but the
        # forged devices', a half of the illegitimate half
        unenrolled = [d for d in engine.device_ids if not enrolled(engine, d)]
        assert len(unenrolled) == 3
        # the forged devices and the flooders make up the illegitimate half;
        # an illegitimate device claims mMTC
        assert len(unenrolled) + engine.dp.floods.sum() == 6
        for d in unenrolled:
            di = engine.index_of[d]
            assert engine.claimed[di] is ServiceType.MMTC and not engine.dp.floods[di]

    def test_keys_derived_on_the_main_thread_with_a_supplied_model(self, monkeypatch):
        calls = spy_derive_key(monkeypatch)
        engine = Engine(self.scenario(), model=tiny_model())
        assert engine.loss_curve is None
        registered = [d for d in engine.device_ids if enrolled(engine, d)]
        assert registered
        # one derivation per enrolled device, in device order
        assert calls == [engine.vap.holder_of(d).registered[d].params for d in registered]

    def test_one_register_device_call_per_enrolled_device(self, monkeypatch):
        register, registered = auth_mod.register_device, []

        def spy(va, device_id, password, puf, rng):
            registered.append(device_id)
            return register(va, device_id, password, puf, rng)

        monkeypatch.setattr(auth_mod, "register_device", spy)
        calls = spy_derive_key(monkeypatch)
        engine = Engine(self.scenario())
        engine.run()
        ids = [d for d in engine.device_ids if enrolled(engine, d)]
        # 12 devices, 3 of them forged, registered in device order
        assert registered == ids and len(ids) == 9
        # each record's input derived once, by its registration; the run
        # looks every presented key up
        assert calls == [engine.vap.holder_of(d).registered[d].params for d in ids]
        assert len(set(calls)) == len(calls)

    def test_training_divergence_raises_after_registration(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDivergedError("loss became non-finite")

        calls = spy_derive_key(monkeypatch)
        monkeypatch.setattr(engine_mod.sn_mod, "train", diverge)
        with pytest.raises(TrainingDivergedError):
            Engine(self.scenario())
        # every key is derived before training: 12 devices, 3 of them forged
        assert len(calls) == 9

    def test_registration_error_raised_from_set_up(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("registration failed")

        monkeypatch.setattr(auth_mod, "register_device", fail)
        with pytest.raises(RuntimeError, match="registration failed"):
            Engine(self.scenario())

    def test_key_derivation_error_surfaces(self, monkeypatch):
        def fail(params):
            raise ValueError("key derivation failed")

        monkeypatch.setattr(auth_mod, "derive_key", fail)
        with pytest.raises(ValueError, match="key derivation failed"):
            Engine(self.scenario())

    @pytest.mark.parametrize("auth_delay", [1e-3, 100.0])
    def test_presented_key_derived_only_by_its_auth(self, monkeypatch, auth_delay):
        # The first enrolled device registers under another password, so the
        # password it presents is an input that no record has, and deriving
        # it fails.  Set-up does not derive it: its AUTH event does, and raises
        # from run(), unless that event falls past the horizon.
        register, derive_key, records = auth_mod.register_device, auth_mod.derive_key, []

        def register_first_under_another_password(va, device_id, password, puf, rng):
            record = register(va, device_id, password if records else b"another password", puf, rng)
            records.append(record)
            return record

        def derive(params):
            if records and params.salt == records[0].params.salt and params != records[0].params:
                raise ValueError("key derivation failed")
            return derive_key(params)

        monkeypatch.setattr(auth_mod, "register_device", register_first_under_another_password)
        monkeypatch.setattr(auth_mod, "derive_key", derive)
        engine = Engine(self.scenario(auth_delay=auth_delay))
        if auth_delay < engine.sc.duration:
            with pytest.raises(ValueError, match="key derivation failed"):
                engine.run()
        else:
            report = engine.run()
            assert report.auth_accepted == report.auth_rejected == 0

    def test_failed_run_derives_no_key(self, monkeypatch):
        def fail(engine, di):
            raise RuntimeError("arrival failed")

        calls = spy_derive_key(monkeypatch)
        monkeypatch.setattr(Engine, "_on_arrival", fail)
        engine = Engine(self.scenario())
        derived = len(calls)
        with pytest.raises(RuntimeError, match="arrival failed"):
            engine.run()
        assert len(calls) == derived

    def test_stepped_run_derives_no_key(self, monkeypatch):
        # Each AUTH event looks up a key derived in set-up: stepping every
        # event and collecting the metrics derives none.
        calls = spy_derive_key(monkeypatch)
        engine = Engine(self.scenario())
        derived = len(calls)
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        report = engine.collect_metrics()
        assert report.auth_accepted > 0
        assert len(calls) == derived == sum(enrolled(engine, d) for d in engine.device_ids)

    def test_every_auth_past_the_horizon(self, monkeypatch):
        # No AUTH event runs; set-up derives each enrolled device's one
        # input all the same.
        calls = spy_derive_key(monkeypatch)
        engine = Engine(self.scenario(auth_delay=100.0))
        report = engine.run()
        assert report.auth_accepted == report.auth_rejected == 0
        n_registered = sum(enrolled(engine, d) for d in engine.device_ids)
        assert len(calls) == n_registered

    @pytest.mark.parametrize("supplied", [False, True], ids=["trained", "supplied"])
    def test_engine_and_run_start_no_thread(self, monkeypatch, supplied):
        started, start = [], threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        before = threading.enumerate()
        monkeypatch.setattr(threading.Thread, "start", record)
        engine = Engine(self.scenario(), model=tiny_model() if supplied else None)
        engine.run()
        assert started == []
        assert threading.enumerate() == before


class TestAuthentication:
    """``_on_auth`` gives ``authenticate`` the presented key: its record's,
    looked up, or for a device that registered under another password, one
    derived at AUTH."""

    def test_bad_key_rejected(self, monkeypatch):
        # One device registers under another password than the one it presents.
        sc = small_scenario(devices=12, train_samples=60, epochs=1, forged_fraction=0.0)
        register = auth_mod.register_device

        def register_under_another_password(va, device_id, password, puf, rng):
            if device_id == "d0005":
                password = b"another password"
            return register(va, device_id, password, puf, rng)

        monkeypatch.setattr(auth_mod, "register_device", register_under_another_password)
        calls = spy_derive_key(monkeypatch)
        trace = Lines()
        engine = Engine(sc, trace_sink=trace)
        report = engine.run()
        rejected = [row for row in trace if ",auth," in row and ",rejected:" in row]
        assert len(rejected) == report.auth_rejected == 1
        assert rejected[0].endswith(",auth,d0005,,,rejected:bad_key")
        record = engine.vap.holder_of("d0005").registered["d0005"]
        assert record.params.password == b"another password"
        # each record's input in device order, then d0005's presented one
        records = [engine.vap.holder_of(d).registered[d].params for d in engine.device_ids]
        assert calls == records + [replace(record.params, password=b"pw-d0005")]

    def test_unknown_device_adds_no_authority(self):
        # 125 devices fill the first authority; the one forged device, never
        # enrolled, is rejected without being given a place in the pool.
        scenario = parse_scenario((ROOT / "scenarios" / "smoke.cfg").read_text())
        for key, value in {
            "devices": "126", "duration": "10", "arrival_window": "0.2", "epochs": "1"
        }.items():
            apply_override(scenario, key, value)
        trace = Lines()
        engine = Engine(scenario, trace_sink=trace)
        engine.run()
        forged = [d for d in engine.device_ids if not enrolled(engine, d)]
        assert len(forged) == 1
        assert [len(va.registered) for va in engine.vap.authorities] == [125]
        # illegitimate, and not a flooder: it claims mMTC and floods not
        di = engine.index_of[forged[0]]
        assert engine.claimed[di] is ServiceType.MMTC and not engine.dp.floods[di]
        assert any(row.endswith(f",auth,{forged[0]},,,rejected:unknown_device") for row in trace)


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
        engine.decided[0] = ServiceType.URLLC
        place(engine, 0, "SW0")
        before = {st: engine.counters[st].delivered for st in ServiceType}
        engine.counters[ServiceType.URLLC].in_flight += 1
        hold_delivery(engine, 0, 0)
        engine.dp._apply_outcomes(math.inf)
        after = {st: engine.counters[st].delivered for st in ServiceType}
        deltas = [after[st] - before[st] for st in ServiceType]
        assert sorted(deltas) == [0, 0, 1]

    def test_transmit_on_blocked_source_emits_drop(self):
        engine = self.make_engine()
        engine.decided[1] = ServiceType.MMTC
        engine.dp.quarantine(1)
        place(engine, 1, "SW0")
        engine.heap.clear()
        start_transmits(engine, 1, engine.clock_us)
        engine.dp.run(engine.clock_us + 1)
        c = engine.counters[ServiceType.MMTC]
        assert (c.sent, c.dropped, c.blocked, c.in_flight) == (1, 1, 1, 0)
        assert engine.dp.win_sent.sum() == 0  # it never reached a switch
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        engine.collect_metrics()
        assert c.blocked >= 1
        assert c.dropped >= 1

    def test_time_regression_is_fatal(self):
        engine = self.make_engine()
        engine.clock_us = 1000
        with pytest.raises(InvariantViolation):
            engine.step_event((500, TRANSMIT, 0, (0, False, 0)))


def decide_first_embb_claim_urllc(monkeypatch) -> tuple[list, list]:
    """Make SliceNet decide URLLC for the first eMBB claimant it decides.

    Returns the decided services in call order, and a list that holds the
    moved decision's index once it is made."""
    select_slice, calls, moved = engine_mod.sn_mod.select_slice, [], []

    def decide(model, features):
        decision = select_slice(model, features)
        if features.service_type is ServiceType.EMBB and not moved:
            moved.append(len(calls))
            decision = replace(decision, service=ServiceType.URLLC)
        calls.append(decision.service)
        return decision

    monkeypatch.setattr(engine_mod.sn_mod, "select_slice", decide)
    return calls, moved


class TestDecisionLeavingTheClaim:
    def test_device_decided_urllc_is_served_on_s2_reliably(self, monkeypatch):
        # The first eMBB claimant to be decided is decided URLLC.  Every packet
        # is lost, so each outcome is a drop: at the send time on a datagram
        # slice, a retransmit delay later on reliable-stream URLLC, which sends
        # a lost packet again.  The delay exceeds the packet interval, and
        # with it the phase of a device's first packet.
        calls, moved = decide_first_embb_claim_urllc(monkeypatch)
        sc = small_scenario(
            devices=12, duration=5.0, illegitimate_fraction=0.0, ddos_enabled=False,
            demand_embb=4, demand_urllc=2, demand_mmtc=3,
            switch_loss_rate=1.0, packet_interval=0.1, retransmit_delay=0.25,
        )
        trace = Lines()
        engine = Engine(sc, trace_sink=trace, model=tiny_model())
        engine.run()
        rows = [row.split(",") for row in trace[1:]]
        decided = [cells for cells in rows if cells[1] == "slice_decide"]
        assert [cells[3] for cells in decided] == [service.slice_id for service in calls]
        device = decided[moved[0]][2]
        assert [c[3] for c in rows if c[1] == "auth" and c[2] == device] == ["S1"]

        allocated = {c[2]: (float(c[0]), c[3]) for c in rows if c[1] == "allocate"}
        assert allocated[device][1] == "S2"
        outcomes = [c for c in rows if c[1] in ("deliver", "drop")]
        mine = [c for c in outcomes if c[2] == device]
        assert mine and {(c[1], c[3], c[5]) for c in mine} == {("drop", "S2", "loss")}
        # S2's counters hold every S2 outcome, the device's among them
        s2 = engine.counters[ServiceType.URLLC]
        assert s2.sent == s2.dropped == sum(cells[3] == "S2" for cells in outcomes)

        first_drop = {}
        for cells in outcomes:
            first_drop.setdefault(cells[2], float(cells[0]))
        assert first_drop[device] - allocated[device][0] >= sc.retransmit_delay
        datagram = [d for d, (_, sl) in allocated.items() if sl == "S1" and d in first_drop]
        assert datagram
        for d in datagram:
            assert first_drop[d] - allocated[d][0] < sc.packet_interval

    def test_device_decided_urllc_is_granted_one_urllc_bundle(self, monkeypatch):
        # The grant is the decided slice's bundle times the device's fairness
        # and a link/load factor of at most 1.5, whatever the claimed slice's
        # demand (120 eMBB slots against 30 URLLC ones here).  So the URLLC
        # pool, sized for one bundle per expected device, grants every
        # URLLC claimant as well as the moved device.
        _, moved = decide_first_embb_claim_urllc(monkeypatch)
        allocate, grants = engine_mod.hop_mod.HopfieldAllocator.allocate_resources, []

        def record_grant(allocator, request, pool):
            alloc = allocate(allocator, request, pool)
            grants.append(alloc.communication)
            return alloc

        monkeypatch.setattr(engine_mod.hop_mod.HopfieldAllocator, "allocate_resources", record_grant)
        trace = Lines()
        engine = Engine(small_scenario(devices=12, duration=20.0), trace_sink=trace)
        engine.run()
        rows = [row.split(",") for row in trace[1:]]
        device = [c[2] for c in rows if c[1] == "slice_decide"][moved[0]]
        allocated = [c for c in rows if c[1] == "allocate"]
        assert [c[2] for c in allocated if c[5] == "rejected:pool"] == []
        grant = dict(zip((c[2] for c in allocated), grants))[device]
        assert [c[3] for c in allocated if c[2] == device] == ["S2"]
        bundle = qos_profile_of(ServiceType.URLLC).min_bandwidth
        assert grant <= 1.5 * bundle * engine.fair_slas[engine.index_of[device]]


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
        # accepted by authentication, whether or not the queue took them
        authenticated = {
            cells[2]
            for cells in (row.split(",") for row in trace[1:])
            if cells[1] == "auth" and not cells[5].startswith("rejected:")
        }
        for row in trace[1:]:
            cells = row.split(",")
            if cells[1] == "deliver":
                assert cells[2] in authenticated

    def test_no_delivery_after_quarantine(self, small_run):
        engine, _, trace, _ = small_run
        assert engine.dp.is_quarantined.any(), "scenario should quarantine its flooders"
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
        engine, report, trace, _ = small_run
        # granted resources, whether or not a switch could take their flow
        granted = {
            cells[2]
            for cells in (row.split(",") for row in trace[1:])
            if cells[1] == "allocate" and cells[5] in ("granted", "unroutable")
        }
        # the illegitimate devices: the enrolled ones flood, the others are forged
        floods = {d for d, f in zip(engine.device_ids, engine.dp.floods) if f}
        flooders = floods & granted
        assert flooders
        quarantined = {d for d, q in zip(engine.device_ids, engine.dp.is_quarantined) if q}
        assert quarantined <= flooders | floods | {
            d for d in engine.device_ids if not enrolled(engine, d)
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
        detection = Lines()
        sc = small_scenario(
            devices=12, duration=8.0, window_duration=0.25, min_packets=3,
            flood_start=4.0, train_samples=60, epochs=1,
        )
        Engine(sc, detection_sink=detection).run()
        rows = [line.split(",") for line in detection[1:]]
        assert calls["window_entropies"] == len(rows) == sc.switches * 32
        classified = sum(row[5] in ("benign", "attack") for row in rows)
        assert calls["classify_window"] == classified > 0

    def test_baseline_keeps_the_latest_learning_and_benign_windows(self):
        # A switch's baseline is its last 4 * baseline_windows learning and
        # benign windows; attack and inconclusive windows never enter it.
        detection = Lines()
        sc = small_scenario(
            devices=12, duration=16.0, window_duration=0.25, min_packets=3,
            flood_start=8.0, train_samples=60, epochs=1,
        )
        engine = Engine(sc, detection_sink=detection)
        engine.run()
        rows = [line.split(",") for line in detection[1:]]
        cap = 4 * sc.baseline_windows
        trimmed = 0
        for switch_id, baseline in zip(engine.switch_ids, engine.baselines):
            kept = [
                [float(x) for x in row[2:5]]
                for row in rows
                if row[1] == switch_id and row[5] in ("learning", "benign")
            ]
            trimmed += len(kept) > cap
            assert np.array(baseline) == pytest.approx(np.array(kept[-cap:]), abs=1e-6)
        assert trimmed and any(row[5] == "attack" for row in rows)

    def test_window_start_is_the_previous_close(self):
        # A window duration that is not a whole number of microseconds is
        # rounded to one; each window starts at the previous close, written
        # by the rule of the other time columns, so the first starts at 0.
        scenario = parse_scenario((ROOT / "scenarios" / "smoke.cfg").read_text())
        for key, value in {"ddos.window_duration": "0.2500004", "duration": "2"}.items():
            apply_override(scenario, key, value)
        detection = Lines()
        Engine(scenario, detection_sink=detection).run()
        starts = [row.split(",", 1)[0] for row in detection[1:]]
        assert starts == [
            seconds_text(k * 250_000) for k in range(8) for _ in range(scenario.switches)
        ]
        assert starts[0] == "0.000000"

    def test_window_state_stays_bounded_without_detection(self):
        engine = Engine(
            small_scenario(
                devices=20, duration=12.0, ddos_enabled=False, train_samples=60, epochs=1
            )
        )
        dp = engine.dp
        shapes = [a.shape for a in (dp.win_sent, dp.win_sizes, dp.win_gaps)]
        engine.run()
        assert dp.generated > 1000
        n_sw, n_dev = len(engine.switch_ids), len(engine.device_ids)
        assert shapes == [(n_dev,), (n_sw, 3), (n_sw, 16)]
        assert [a.shape for a in (dp.win_sent, dp.win_sizes, dp.win_gaps)] == shapes
        # at most one count per move for the switches devices left
        assert len(dp.win_left) <= engine.migrations
        # never reset, so the one window has counted every packet admitted,
        # and every gap but each switch's first
        arrived = dp.win_sizes.sum()
        assert arrived > 1000
        assert dp.win_sent.sum() + sum(dp.win_left.values()) == arrived
        first_arrivals = np.count_nonzero(dp.win_sizes.sum(axis=1))
        assert dp.win_gaps.sum() == arrived - first_arrivals

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


class TestPlacement:
    def test_placement_reads_the_flows_that_place_moved(self):
        # Each switch has room for two flows at the nominal 40 960 bit/s.
        # Placement counts the devices in ``sw_of``, so a device that
        # ``dp.place`` moves off SW0 frees room on SW0 and takes it on SW1.
        engine = Engine(
            small_scenario(
                devices=6, switches=2, switch_service_capacity=1e5,
                switch_transmission_rate=1e5, train_samples=60, epochs=1,
            )
        )
        assert engine.sc.nominal_flow_rate == 40960.0
        assert [engine._assign_switch(di) for di in (0, 1)] == [0, 1]
        place(engine, 0, "SW1")
        assert [engine._assign_switch(di) for di in (2, 3, 4)] == [0, 0, None]
        assert engine.dp.sw_of.tolist() == [1, 1, 0, 0, -1, -1]

    def test_each_flow_count_weighed_once(self, monkeypatch):
        # Switches with as many devices weigh the same; placement weighs each
        # distinct count among the switches with room once.
        engine = Engine(small_scenario(devices=8, switches=4, train_samples=60, epochs=1))
        for di, j in ((0, 0), (1, 0), (2, 2)):
            engine.dp.place(di, j)
        weighed = []
        edge_weight = engine_mod.off_mod.edge_weight

        def spy(switch, coeffs):
            weighed.append(switch.current_load)
            return edge_weight(switch, coeffs)

        monkeypatch.setattr(engine_mod.off_mod, "edge_weight", spy)
        assert engine._assign_switch(3) == 1
        assert sorted(weighed) == [0.0, 40960.0, 2 * 40960.0]


class TestRebalanceIntegration:
    def test_migrations_relieve_overload_without_detection(self):
        migrations = Lines()
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
            migration_sink=migrations,
        )
        assert report.migrations > 0
        assert len(migrations) == report.migrations + 1  # header row

    def test_migrations_replay_to_the_final_placement(self):
        # From the switches that allocation granted, each migration leaves the
        # switch its device is on, and the replay ends at the engine's.
        trace, migrations = Lines(), Lines()
        engine = Engine(
            small_scenario(
                devices=64, switches=16, duration=30.0, illegitimate_fraction=0.5,
                forged_fraction=0.0, flood_start=20.0, window_duration=0.25,
            ),
            trace_sink=trace,
            migration_sink=migrations,
        )
        engine.run()
        placed = {
            cells[2]: cells[4]
            for cells in (row.split(",") for row in trace[1:])
            if cells[1] == "allocate" and cells[5] == "granted"
        }
        assert len(migrations) > 10
        for _, flow_id, from_switch, to_switch, _ in (row.split(",") for row in migrations[1:]):
            device = flow_id.removesuffix("-f")
            assert placed[device] == from_switch
            placed[device] = to_switch
        assert placed == {
            d: engine.switch_ids[j]
            for d, j in zip(engine.device_ids, engine.dp.sw_of.tolist())
            if j >= 0
        }


class TestMobility:
    def test_zero_speed_stays_put(self):
        engine = Engine(small_scenario(devices=5, duration=5.0, train_samples=60, epochs=1, speed_min=0.0, speed_max=0.0))
        before = engine.positions.copy()
        for _ in range(100):
            engine._mobility_tick()
        assert np.array_equal(engine.positions, before)

    def test_positions_stay_in_bounds(self):
        engine = Engine(small_scenario(devices=25, duration=5.0, train_samples=60, epochs=1, speed_max=40.0))
        for _ in range(10_000):
            engine._mobility_tick()
        assert np.all(engine.positions[:, 0] >= 0.0)
        assert np.all(engine.positions[:, 0] <= engine.sc.area_width)
        assert np.all(engine.positions[:, 1] >= 0.0)
        assert np.all(engine.positions[:, 1] <= engine.sc.area_height)

    def test_tick_matches_the_masked_form_bit_for_bit(self):
        engine = Engine(
            small_scenario(
                devices=30, duration=5.0, train_samples=60, epochs=1, tick_interval=0.5,
                speed_max=40.0,
            )
        )
        sc = engine.sc
        oracle_rng = copy.deepcopy(engine.hub.substream("waypoints"))
        positions, waypoints = engine.positions.copy(), engine.waypoints.copy()
        draw = np.random.default_rng(2024)
        arrivals = 0
        for tick in range(3000):
            if tick % 7 == 0:
                # one device sits on its waypoint (zero distance) and another
                # arrives exactly: a step of 10 * 0.5 over a distance of 5
                i, k = draw.choice(len(positions), 2, replace=False).tolist()
                engine.waypoints[i] = waypoints[i] = positions[i]
                engine.positions[k] = positions[k] = (300.0, 400.0)
                engine.waypoints[k] = waypoints[k] = (303.0, 404.0)
                engine.speeds[k] = 10.0
            arrivals += int(np.count_nonzero(
                np.linalg.norm(waypoints - positions, axis=1) <= engine.speeds * sc.tick_interval
            ))
            engine._mobility_tick()
            masked_tick(positions, waypoints, engine.speeds, sc, oracle_rng)
            assert engine.positions.tobytes() == positions.tobytes()
            assert engine.waypoints.tobytes() == waypoints.tobytes()
        assert arrivals > 3000 // 7

    def test_a_tick_at_the_allocation_time_waits_for_the_next_reader(self):
        # A MOBILITY_TICK ranked after ALLOCATE: the ticks due at 0.1 s and
        # 0.2 s move the devices before an allocation at 0.3 s; the one due
        # at 0.3 s does not.
        engine = Engine(small_scenario(devices=4, duration=5.0, train_samples=60, epochs=1))
        engine.heap.clear()
        engine.decided[0] = engine.claimed[0]
        positions, waypoints = engine.positions.copy(), engine.waypoints.copy()
        oracle_rng = copy.deepcopy(engine.hub.substream("waypoints"))
        for _ in range(2):
            masked_tick(positions, waypoints, engine.speeds, engine.sc, oracle_rng)
        engine.step_event((300_000, ALLOCATE, 0, 0))
        assert engine.tick_due_us == 300_000
        assert engine.positions.tobytes() == positions.tobytes()

    def test_positions_catch_up_as_one_tick_per_event_moves_them(self):
        # Every position ALLOCATE reads equals that of a reference that moves
        # the devices at each tick time, one tick per event as a MOBILITY_TICK
        # ranked after ALLOCATE would.
        engine = Engine(drain_scenario())
        sc = engine.sc
        oracle_rng = copy.deepcopy(engine.hub.substream("waypoints"))
        positions, waypoints = engine.positions.copy(), engine.waypoints.copy()
        read: list[tuple[int, bytes]] = []
        sinr_db = engine._sinr_db

        def record(di):
            read.append((engine.clock_us, engine.positions.tobytes()))
            return sinr_db(di)

        engine._sinr_db = record
        engine.run()
        assert len(read) == sum(c.granted + c.rejected for c in engine.counters.values()) > 30
        tick_us, ticks = to_us(sc.tick_interval), 0
        for allocate_us, seen in read:
            while (ticks + 1) * tick_us < allocate_us:
                ticks += 1
                masked_tick(positions, waypoints, engine.speeds, sc, oracle_rng)
            assert seen == positions.tobytes()
        assert ticks == 57  # the last allocation is at 5.7882 s

    def test_displacement_bounded_by_speed(self):
        engine = Engine(small_scenario(devices=25, duration=5.0, train_samples=60, epochs=1))
        for _ in range(200):
            before = engine.positions.copy()
            engine._mobility_tick()
            moved = np.linalg.norm(engine.positions - before, axis=1)
            assert np.all(moved <= engine.speeds * engine.sc.tick_interval + 1e-9)


def masked_tick(positions, waypoints, speeds, sc: Scenario, rng) -> None:
    """The mobility tick in its boolean-mask form: the oracle of the
    engine's."""
    delta = waypoints - positions
    dist = np.linalg.norm(delta, axis=1)
    step = speeds * sc.tick_interval
    arrived = dist <= step
    moving = ~arrived & (dist > 0)
    scale = np.zeros_like(dist)
    scale[moving] = step[moving] / dist[moving]
    positions[moving] += delta[moving] * scale[moving, None]
    positions[arrived] = waypoints[arrived]
    n_arrived = int(arrived.sum())
    if n_arrived:
        waypoints[arrived] = np.column_stack(
            [
                rng.uniform(0, sc.area_width, size=n_arrived),
                rng.uniform(0, sc.area_height, size=n_arrived),
            ]
        )
    np.clip(positions[:, 0], 0, sc.area_width, out=positions[:, 0])
    np.clip(positions[:, 1], 0, sc.area_height, out=positions[:, 1])


def drain_scenario() -> Scenario:
    """``smoke.cfg`` with requests of 2 or 3 slots: the scheduler drains to
    idle between arrivals, and the last device is allocated at 5.7882 s of 30."""
    scenario = parse_scenario((ROOT / "scenarios" / "smoke.cfg").read_text())
    for key, value in {"demand_embb": "3", "demand_urllc": "2", "demand_mmtc": "2"}.items():
        apply_override(scenario, key, value)
    return scenario


def lossless_engine(trace: Lines, **overrides) -> Engine:
    """A 4-device engine with no event queued and no switch losing packets."""
    engine = Engine(
        small_scenario(
            devices=4, duration=5.0, train_samples=60, epochs=1, size_jitter=False,
            switch_loss_rate=0.0, **overrides
        ),
        trace_sink=trace,
    )
    engine.heap.clear()
    return engine


@contextlib.contextmanager
def cut_everywhere(batch_packets: int = 7):
    """Run the data plane before every event, in batches of at most
    ``batch_packets`` new transmits."""
    with mock.patch.object(engine_mod, "_TRACE_ONLY_KINDS", frozenset()), mock.patch.object(
        dataplane_mod, "BATCH_PACKETS", batch_packets
    ):
        yield


def track_batches(engine: Engine) -> list[tuple[int, int]]:
    """Record each batch's new transmits and the outcomes held after it and
    the outcomes due by its end are applied."""
    record: list[tuple[int, int]] = []
    run_batch, apply = engine.dp._run_batch, engine.dp._apply_outcomes

    def batch(end_us, *plan):
        generated = engine.dp.generated
        run_batch(end_us, *plan)
        apply(end_us)
        record.append((engine.dp.generated - generated, len(engine.dp.held)))

    engine.dp._run_batch = batch
    return record


class TestOutcomeOrdering:
    def test_trace_sink_leaves_metrics_unchanged(self, small_run):
        engine, report, _, _ = small_run
        assert engine.dp.is_quarantined.any()
        assert run_scenario(small_scenario()).to_csv_rows() == report.to_csv_rows()

    def test_outcomes_applied_before_every_event_give_the_same_run(self, small_run):
        # The data plane runs before every event, in batches of at most 7
        # new transmits.
        _, report, trace, detection = small_run
        eager_trace = Lines()
        eager_detection = Lines()
        with cut_everywhere():
            eager = Engine(
                small_scenario(), trace_sink=eager_trace, detection_sink=eager_detection
            ).run()
        assert eager.to_csv_rows() == report.to_csv_rows()
        assert eager_trace == trace
        assert eager_detection == detection

    def test_batches_bound_held_outcomes_without_detection(self, monkeypatch):
        monkeypatch.setattr(dataplane_mod, "BATCH_PACKETS", 64)
        engine = Engine(
            small_scenario(devices=20, duration=12.0, ddos_enabled=False, offload_enabled=False)
        )
        record = track_batches(engine)
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        engine.collect_metrics()
        assert engine.dp.generated > 1000
        # Without the bound the run's last batch takes most of its packets.
        assert max(n for n, _ in record) <= 64
        assert max(held for _, held in record) <= 64
        assert sum(n for n, _ in record) == engine.dp.generated

    def test_run_leaves_no_outcome_queued(self, small_run):
        engine, _, _, _ = small_run
        assert len(engine.dp.held) == 0 and engine.dp.retransmits == []
        assert (engine.dp.next_us == NEVER).all()
        assert all(c.in_flight == 0 for c in engine.counters.values())

    @pytest.mark.parametrize("delay_us,delivered", [(0, True), (1, False)])
    def test_delivery_at_quarantining_window_close(self, delay_us, delivered):
        engine = Engine(small_scenario(devices=12, duration=5.0, train_samples=60, epochs=1))
        engine.heap.clear()
        engine.decided[0] = engine.claimed[0]
        j = engine.switch_index["SW0"]
        for di in range(10):
            place(engine, di, "SW0")
        c = engine.counters[engine.decided[0]]
        close_us = 2_000_000
        c.sent += 1
        c.in_flight += 1
        hold_delivery(engine, close_us + delay_us, 0)
        # One source dominates a window on SW0 whose size entropy collapses.
        engine.dp.win_sent[0] = 1000
        engine.dp.win_sent[1:10] = 1
        engine.dp.win_sizes[j, 1] = 1009
        engine.baselines[j] = deque(
            [(3.0, 1.0, 1.0)] * engine.sc.baseline_windows, maxlen=4 * engine.sc.baseline_windows
        )
        engine.step_event((close_us, WINDOW_CLOSE, 0, None))
        assert engine.dp.is_quarantined[0]
        engine.collect_metrics()
        assert (c.delivered, c.blocked) == ((1, 0) if delivered else (0, 1))

    @staticmethod
    def transmit_now(engine: Engine, di: int) -> None:
        """Send one packet of device ``di`` at the clock; its successor packet
        is not sent."""
        start_transmits(engine, di, engine.clock_us)
        engine.dp.run(engine.clock_us + 1)
        engine.dp.next_us[di] = NEVER

    @staticmethod
    def delivery_rows(trace: list[str]) -> list[tuple[str, str]]:
        rows = [row.split(",") for row in trace[1:]]
        return [(cells[0], cells[2]) for cells in rows if cells[1] == "deliver"]

    def test_same_time_deliveries_on_two_switches_in_canonical_order(self):
        trace = Lines()
        engine = lossless_engine(trace)
        engine.clock_us = 1_000_000
        # The lower-numbered device goes to the higher-numbered switch, so
        # applying deliveries switch by switch would put it second.
        for di, sw_id in ((0, "SW1"), (1, "SW0")):
            engine.decided[di] = engine.claimed[di]
            place(engine, di, sw_id)
            start_transmits(engine, di, engine.clock_us)
        engine.dp.run(engine.clock_us + 1)
        engine.dp.next_us[:] = NEVER
        (due, *_), (other, *_) = engine.dp.held.tolist()
        assert due == other
        engine.collect_metrics()
        t = f"{due / 1e6:.6f}"
        assert self.delivery_rows(trace) == [(t, "d0000"), (t, "d0001")]

    def test_same_time_packets_on_one_switch_are_served_in_canonical_order(self):
        # (time, device, retransmit): device 0's retransmit, then the new
        # packets of devices 1 and 2, all due at once on SW0.
        trace = Lines()
        engine = lossless_engine(trace, retransmit_delay=0.02)
        for di in (0, 1, 2):
            engine.decided[di] = ServiceType.URLLC  # reliable: a lost packet is sent again
            place(engine, di, "SW0")
        engine.clock_us = first = 1_000_000
        engine.dp.loss_rate = 1.0
        self.transmit_now(engine, 0)  # lost, and sent again 20 ms later
        engine.dp.loss_rate = 0.0
        engine.clock_us = due = first + engine.dp.retransmit_delay_us
        for di in (2, 1):
            start_transmits(engine, di, due)
        engine.dp.run(due + 1)
        engine.dp.next_us[:] = NEVER
        engine.collect_metrics()
        tx = int(engine.dp.size_tx_us[1])
        latency = engine.dp.processing_latency_us + tx
        t = [f"{(due + latency + k * tx) / 1e6:.6f}" for k in range(3)]
        assert self.delivery_rows(trace) == [(t[0], "d0000"), (t[1], "d0001"), (t[2], "d0002")]

    def test_delivery_sorts_before_a_drop_at_the_same_time(self):
        trace = Lines()
        engine = lossless_engine(trace)
        for di in (0, 1):
            engine.decided[di] = engine.claimed[di]
            place(engine, di, "SW0")
            engine.counters[engine.decided[di]].in_flight += 1
        hold_delivery(engine, 2_000_000, 0)
        # the drop's packet sorts first, but deliveries go before drops
        engine.dp._hold(*(np.array([v]) for v in (2_000_000, LOSS, -1, 1, 0, 0)))
        engine.dp._apply_outcomes(2_000_001)
        assert [row.split(",")[1] for row in trace[1:]] == ["deliver", "drop"]

    @pytest.mark.parametrize("old_backlog_us", [0, 5_000])
    def test_migrated_device_delivery_on_old_lane_applied_in_time_order(self, old_backlog_us):
        trace = Lines()
        engine = lossless_engine(trace)
        decided = engine.decided[0] = engine.claimed[0]
        engine.clock_us = 1_000_000
        engine.dp.busy_us[engine.switch_index["SW0"]] = engine.clock_us + old_backlog_us
        place(engine, 0, "SW0")
        self.transmit_now(engine, 0)
        engine.clock_us += 1_000
        place(engine, 0, "SW1")  # migrated with its first packet still on the old link
        self.transmit_now(engine, 0)
        first, second = engine.dp.held[:, 0].tolist()
        assert (first < second) == (old_backlog_us == 0)
        engine.collect_metrics()
        times = [f"{t / 1e6:.6f}" for t in sorted((first, second))]
        assert self.delivery_rows(trace) == [(t, "d0000") for t in times]
        # both rows name the device's slice and switch when they are applied
        assert [row.split(",")[3:] for row in trace[1:]] == [[decided.slice_id, "SW1", "ok"]] * 2
        assert engine.counters[decided].delivered == 2

    def test_no_outcome_due_is_held_after_a_reader(self):
        # With a trace, every event reads the data plane.
        engine = Engine(small_scenario(), trace_sink=Lines())
        while engine.heap:
            event = heapq.heappop(engine.heap)
            engine.step_event(event)
            due = event[0] + 1 if event[1] > DROP else event[0]
            assert (engine.dp.held[:, 0] >= due).all()
            assert all(r[0] >= due for r in engine.dp.retransmits)
            assert (engine.dp.next_us >= due).all()
        assert engine.dp.is_quarantined.any()
        engine.collect_metrics()

    def test_mobility_ticks_stop_once_every_device_finished(self):
        # Ticks catch up at ALLOCATE, the one reader of positions: each one
        # runs there, due before the reader's time, and none is due at or
        # after the last allocation.
        engine = Engine(small_scenario(devices=12, duration=20.0, train_samples=60, epochs=1))
        tick, ticks, allocations = engine._mobility_tick, [], []

        def record():
            ticks.append((engine.tick_due_us, engine.clock_us))
            tick()

        engine._mobility_tick = record
        while engine.heap:
            event = heapq.heappop(engine.heap)
            engine.step_event(event)
            if event[1] == ALLOCATE:
                allocations.append(event[0])
        assert engine.unfinished == 0
        assert allocations[-1] < engine.end_us / 2
        tick_us = to_us(engine.sc.tick_interval)
        assert [due for due, _ in ticks] == list(range(tick_us, allocations[-1], tick_us))
        assert all(due < reader_us and reader_us in allocations for due, reader_us in ticks)


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


class TestSlotScheduling:
    """Slots run ahead from each AUTH as one heap event per slot would run
    them."""

    @staticmethod
    def slot_per_event(engine: Engine, enqueues: list, rng) -> tuple[int, list, list]:
        """The slot-per-event reference: the engine's ``enqueues`` (time,
        request, class) replayed into a queue of its own, with one event per
        slot ranked after AUTH at equal times, none pushed past the horizon.
        Returns the busy periods started, the slot times run and the
        SLICE_DECIDEs pushed, each (time, device)."""
        state = sched_mod.DualQueueState()
        slot_us, end_us = engine.slot_us, engine.end_us
        heap = [(t, AUTH, i, (request, cls)) for i, (t, request, cls) in enumerate(enqueues)]
        heapq.heapify(heap)
        seq, starts, slot_times, decides = len(heap), 0, [], []
        while heap:
            time_us, kind, _, payload = heapq.heappop(heap)
            if kind == AUTH:
                was_idle = state.phase == sched_mod.GAMMA_IDLE
                if not (sched_mod.enqueue(state, *payload, engine.qconfig) and was_idle):
                    continue
                starts += 1
            else:
                slot_times.append(time_us)
                result = sched_mod.step_slot(state, engine.qconfig, rng)
                decide_us = time_us + to_us(engine.sc.decision_delay)
                decides += [
                    (decide_us, engine.index_of[r.origin])
                    for r in result.completions
                    if decide_us <= end_us
                ]
                if state.phase == sched_mod.GAMMA_IDLE:
                    continue
            if time_us + slot_us <= end_us:
                seq += 1
                heapq.heappush(heap, (time_us + slot_us, SCHEDULE_SLOT, seq, None))
        return starts, slot_times, decides

    def run_against_reference(self, engine: Engine, monkeypatch) -> tuple[int, list]:
        """Run ``engine`` event by event and check its slots and SLICE_DECIDEs
        against the slot-per-event reference; returns the reference's busy
        periods started and slot times."""
        rng = copy.deepcopy(engine._rng_sched)
        enqueue, step_slot = sched_mod.enqueue, sched_mod.step_slot
        enqueues, slot_times, decides = [], [], []

        def record_enqueue(state, request, cls, config):
            enqueues.append((engine.clock_us, request, cls))
            return enqueue(state, request, cls, config)

        def record_slot(state, config, rng):
            slot_times.append(engine.slot_due_us)
            return step_slot(state, config, rng)

        monkeypatch.setattr(sched_mod, "enqueue", record_enqueue)
        monkeypatch.setattr(sched_mod, "step_slot", record_slot)
        while engine.heap:
            event = heapq.heappop(engine.heap)
            assert event[1] not in (SCHEDULE_SLOT, MOBILITY_TICK)
            engine.step_event(event)
            if event[1] == SLICE_DECIDE:
                decides.append(event[0::3])
        monkeypatch.undo()
        starts, ref_slot_times, ref_decides = self.slot_per_event(engine, enqueues, rng)
        assert slot_times == ref_slot_times
        assert decides == ref_decides
        assert all(t <= engine.end_us for t in slot_times)
        return starts, slot_times

    def test_each_busy_period_starts_one_slot_after_its_auth(self, monkeypatch):
        engine = Engine(
            small_scenario(
                devices=12, duration=6.0, train_samples=60, epochs=1,
                demand_embb=3, demand_urllc=2, demand_mmtc=2,
            )
        )
        starts, _ = self.run_against_reference(engine, monkeypatch)
        # The queues drained to idle between arrivals and restarted each time.
        assert starts >= 3
        assert engine.qstate.n_in_system == 0

    def test_auths_at_one_time_all_enqueue_before_the_next_slot(self, monkeypatch):
        # Every device arrives at 0, so all twelve AUTHs share one time.
        engine = Engine(
            small_scenario(
                devices=12, duration=6.0, train_samples=60, epochs=1, arrival_window=0.0,
                demand_embb=3, demand_urllc=2, demand_mmtc=2,
            )
        )
        starts, slot_times = self.run_against_reference(engine, monkeypatch)
        assert starts == 1
        assert slot_times[0] == to_us(engine.sc.auth_delay) + engine.slot_us

    def test_auths_at_a_slot_time_enqueue_before_that_slot(self, monkeypatch):
        # d0's AUTH starts the scheduler; d1 and d2 authenticate at the time
        # of its first slot and d3 later.  AUTH ranks before a slot at its
        # time, so the slot finds three requests queued.
        engine = Engine(
            small_scenario(
                devices=4, duration=2.0, train_samples=60, epochs=1, illegitimate_fraction=0.0,
                demand_embb=1, demand_urllc=1, demand_mmtc=1,
            )
        )
        engine.heap.clear()
        delay_us, slot_us = to_us(engine.sc.auth_delay), engine.slot_us
        arrivals = [0, slot_us, slot_us, 5 * slot_us]
        for di, arrival_us in enumerate(arrivals):
            engine._push(arrival_us, ARRIVAL, di)
        engine.auth_times_us = [t + delay_us for t in arrivals] + [engine.end_us + 1]
        queued = []
        step_slot = sched_mod.step_slot
        monkeypatch.setattr(
            engine_mod.sched_mod, "step_slot",
            lambda state, *args: queued.append(state.n_in_system) or step_slot(state, *args),
        )
        starts, slot_times = self.run_against_reference(engine, monkeypatch)
        assert (starts, slot_times[0], queued[0]) == (2, delay_us + slot_us, 3)

    def test_no_slot_is_pushed_past_the_horizon(self, monkeypatch):
        # Every request needs 10^4 slots of 10 ms: the queue outlasts a 2 s run.
        engine = Engine(
            small_scenario(
                devices=6, duration=2.0, train_samples=60, epochs=1,
                demand_embb=10**4, demand_urllc=10**4, demand_mmtc=10**4,
            )
        )
        starts, slot_times = self.run_against_reference(engine, monkeypatch)
        assert starts == 1
        assert engine.qstate.n_in_system > 0
        assert engine.end_us - engine.slot_us < slot_times[-1] <= engine.end_us

    def test_no_slot_or_tick_is_ever_on_the_heap_of_a_smoke_run(self):
        engine = Engine(parse_scenario((ROOT / "scenarios" / "smoke.cfg").read_text()))
        while engine.heap:
            assert all(e[1] not in (SCHEDULE_SLOT, MOBILITY_TICK) for e in engine.heap)
            engine.step_event(heapq.heappop(engine.heap))
        assert engine.auth_accepted > 30

    @pytest.mark.parametrize("kind", [SCHEDULE_SLOT, TRANSMIT, DELIVER, DROP, MOBILITY_TICK])
    def test_a_kind_never_on_the_heap_is_named_when_popped(self, kind):
        engine = lossless_engine(Lines())
        with pytest.raises(InvariantViolation, match=f"^{KIND_NAMES[kind]} event None on"):
            engine.step_event((1_000, kind, 0, None))


class TestDataPlaneBoundary:
    """Packets run, in canonical order, up to each event that reads them."""

    @staticmethod
    def start(engine: Engine, di: int, first_us: int, sw_id: str = "SW0") -> None:
        """Place device ``di`` and start its packets, on the slice it claimed
        unless a decision was set."""
        if engine.decided[di] is None:
            engine.decided[di] = engine.claimed[di]
        place(engine, di, sw_id)
        start_transmits(engine, di, first_us)

    def test_transmit_at_window_close_is_counted_in_that_window(self, monkeypatch):
        engine = lossless_engine(Lines())
        close_us = 2_000_000
        self.start(engine, 0, close_us)
        self.start(engine, 1, close_us + 1)
        counted: list[int] = []
        entropies = engine_mod.ddos_mod.window_entropies

        def spy(window, alpha):
            counted.append(window.packet_count)
            return entropies(window, alpha)

        monkeypatch.setattr(engine_mod.ddos_mod, "window_entropies", spy)
        engine.step_event((close_us, WINDOW_CLOSE, 0, None))
        assert counted[0] == 1  # SW0's window, closed first
        assert engine.dp.next_us[1] == close_us + 1
        assert engine.dp.win_sent.sum() == 0

    @pytest.mark.parametrize("moves", [["SW1"], ["SW1", "SW0"], ["SW1", "SW0", "SW1"]])
    def test_device_moving_in_an_open_window_counts_where_it_arrived(self, moves):
        # Device 1 moves while the window is open (away, away and back, or
        # away twice), and the windows equal the scalar reference's, in the
        # order of their sources too; the next window counts only where it is.
        def windows(data_plane) -> list:
            with data_plane():
                engine = Engine(
                    small_scenario(devices=4, switches=2, duration=5.0, train_samples=60, epochs=1)
                )
            engine.heap.clear()
            for di in range(3):
                self.start(engine, di, 1_000_000 + di, "SW1" if di == 2 else "SW0")
            now = 1_000_000
            for sw_id in moves:
                now += 300_000
                engine.dp.run(now)
                place(engine, 1, sw_id)
            closed = []
            for _ in range(2):
                now += 300_000
                engine.dp.run(now)
                closed.append(engine.dp.close_window())
            return [
                [(list(w.source_counts.items()), w.interarrival_bins, w.size_counts) for w in ws]
                for ws in closed
            ]

        batched = windows(contextlib.nullcontext)
        assert batched == windows(scalar_data_plane)
        (sw0, sw1), (next_sw0, next_sw1) = ([dict(w[0]) for w in ws] for ws in batched)
        # the device is counted on each switch it sent through, and each
        # switch's sources are in device order
        assert list(sw0) == ["d0000", "d0001"] and list(sw1) == ["d0001", "d0002"]
        assert "d0001" in (next_sw0 if moves[-1] == "SW0" else next_sw1)
        assert "d0001" not in (next_sw1 if moves[-1] == "SW0" else next_sw0)

    def test_transmit_at_allocate_runs_after_it(self):
        engine = lossless_engine(Lines())
        at_us = 1_000_000
        self.start(engine, 0, at_us - 1)
        self.start(engine, 1, at_us)
        seen: list[int] = []
        handlers = list(engine._handlers)
        handlers[ALLOCATE] = lambda di: seen.append(engine.dp.generated)
        engine._handlers = tuple(handlers)
        engine.step_event((at_us, ALLOCATE, 0, 1))
        assert seen == [1]
        assert engine.dp.next_us[1] == at_us
        engine.dp.run(at_us + 1)
        assert engine.dp.generated == 2

    def test_retransmit_rounding_to_no_time_runs_in_the_same_advance(self):
        engine = lossless_engine(Lines(), retransmit_delay=4e-7)
        assert engine.dp.retransmit_delay_us == 0
        # a reliable-stream slice retransmits a lost packet once
        engine.decided[0] = ServiceType.URLLC
        engine.dp.loss_rate = 1.0
        now = 1_000_000
        self.start(engine, 0, now)
        engine.step_event((now, WINDOW_CLOSE, 0, None))
        c = engine.counters[engine.decided[0]]
        assert (c.sent, c.dropped, c.in_flight) == (1, 1, 0)
        assert engine.dp.retransmits == []
        assert engine.dp.next_us[0] == now + engine.dp.packet_interval_us

    def test_event_heap_holds_only_control_events(self):
        engine = Engine(small_scenario())
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
            assert all(entry[1] != TRANSMIT for entry in engine.heap)
        assert engine.dp.is_quarantined.any()
        engine.collect_metrics()
        assert (engine.dp.next_us == NEVER).all() and engine.dp.retransmits == []

    def test_transmits_left_when_the_event_heap_empties_run_at_collection(self):
        trace = Lines()
        engine = Engine(
            small_scenario(
                devices=8, duration=12.0, ddos_enabled=False, offload_enabled=False,
                train_samples=60, epochs=1,
            ),
            trace_sink=trace,
        )
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        assert engine.clock_us < engine.end_us / 2
        assert (engine.dp.next_us < NEVER).any()
        engine.collect_metrics()
        assert (engine.dp.next_us == NEVER).all()
        # the last packets were sent within one interval of the horizon
        last_s = max(float(row.split(",")[0]) for row in trace[1:])
        assert last_s * 1e6 >= engine.end_us - engine.dp.packet_interval_us

    def test_batches_bound_held_outcomes_within_the_data_plane(self, monkeypatch):
        monkeypatch.setattr(dataplane_mod, "BATCH_PACKETS", 64)
        engine = Engine(
            small_scenario(
                devices=8, duration=12.0, ddos_enabled=False, offload_enabled=False,
                train_samples=60, epochs=1,
            )
        )
        while engine.heap:
            engine.step_event(heapq.heappop(engine.heap))
        sent = engine.dp.generated
        record = track_batches(engine)
        engine.dp.run(math.inf)
        assert engine.dp.generated - sent > 500
        assert len(record) >= (engine.dp.generated - sent) // 64
        assert max(n for n, _ in record) <= 64
        assert max(held for _, held in record) <= 64
        engine.collect_metrics()

    def test_packet_state_lives_in_the_data_plane(self):
        engine = lossless_engine(Lines())
        packet_state = (
            "next_us", "held", "win_sent", "win_sizes", "win_gaps", "retransmits", "busy_us"
        )
        for name in (*packet_state, "sw_of"):
            assert not hasattr(engine, name) and hasattr(engine.dp, name), name
        assert not any(hasattr(x, "interval_counts") for x in (engine, engine.dp))
        assert not hasattr(engine.dp, "win_counts")
        # each device's bits and packets, not a (switch, device, size) array
        assert engine.dp.interval_bits.shape == (len(engine.device_ids),)
        assert engine.dp.win_sent.shape == (len(engine.device_ids),)

    def test_start_before_packets_already_run_is_fatal(self):
        engine = lossless_engine(Lines())
        engine.decided[0] = engine.claimed[0]
        engine.dp.run(1_000_000)
        with pytest.raises(InvariantViolation, match="packets ran to 1000000"):
            start_transmits(engine, 0, 999_999)

    def test_transmit_on_event_heap_is_fatal(self):
        engine = lossless_engine(Lines())
        with pytest.raises(InvariantViolation, match="event heap"):
            engine.step_event((0, TRANSMIT, 0, (0, False, 0)))


# Times whose text changes length or rounds badly in floating point.
TIME_EDGES = (0, 1, 999_999, 10**6, 10**9 - 1, 10**9, 2**52 - 1)
# Cell text: printable, with neither a newline nor a NUL.
CELL_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=40)
CELLS = dataplane_mod._OUTCOME_CELLS


def f_string_rows(rows, device_ids, slice_ids, switch_ids) -> str:
    """Trace rows as the scalar data plane writes them, one f-string each;
    a row is (time, code, device, slice, switch), switch -1 for none."""
    return "".join(
        f"{t / 1e6:.6f}{CELLS[c][0]}{device_ids[d]},{slice_ids[s]},"
        f"{switch_ids[j] if j >= 0 else ''}{CELLS[c][1]}\n"
        for t, c, d, s, j in rows
    )


def table_rows(rows, device_ids, slice_ids, switch_ids) -> str:
    """The same rows in one block, from the engine's two row tables."""
    heads, tails = dataplane_mod._row_tables(device_ids, slice_ids, switch_ids)
    t, c, d, s, j = (np.array(col, dtype=np.int64) for col in zip(*rows))
    return rows_text(
        t,
        heads.take(c * len(device_ids) + d, axis=0),
        tails.take((j * len(slice_ids) + s) * len(CELLS) + c, axis=0),
    )


class TestTraceRows:
    @given(st.integers(0, 2**52 - 1))
    @settings(max_examples=500)
    def test_time_text_equals_the_float_format(self, t):
        for edge in TIME_EDGES:
            assert seconds_text(edge) == f"{edge / 1e6:.6f}"
        assert seconds_text(t) == f"{t / 1e6:.6f}"

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(TIME_EDGES), st.integers(0, 2**52 - 1)),
                st.integers(0, len(CELLS) - 1),
                st.integers(0, 3),
                st.integers(0, 2),
                st.integers(-1, 2),
            ),
            min_size=1,
            max_size=40,
        ),
        device_ids=st.lists(CELL_TEXT, min_size=4, max_size=4),
        slice_ids=st.lists(CELL_TEXT, min_size=3, max_size=3),
        switch_ids=st.lists(CELL_TEXT, min_size=3, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_block_equals_the_per_row_f_strings(self, rows, device_ids, slice_ids, switch_ids):
        ids = (device_ids, slice_ids, switch_ids)
        assert table_rows(rows, *ids) == f_string_rows(rows, *ids)

    def test_every_edge_with_every_outcome_code(self):
        ids = (["d0000", "x" * 40, ","], ["S1", "y" * 40], ["SW0", "z" * 40])
        rows = [
            (t, c, d, s, j)
            for t in TIME_EDGES
            for c in range(len(CELLS))
            for d in range(len(ids[0]))
            for s in range(len(ids[1]))
            for j in range(-1, len(ids[2]))
        ]
        assert table_rows(rows, *ids) == f_string_rows(rows, *ids)

    def test_an_untraced_engine_builds_no_row_tables(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("row tables built for a run without a trace")

        monkeypatch.setattr(dataplane_mod, "_row_tables", refuse)
        engine = Engine(small_scenario(devices=4, duration=5.0, train_samples=60, epochs=1))
        assert engine.dp.row_tables is None
        assert engine.run().generated > 0

    def test_one_sink_call_per_outcome_application(self):
        trace = Lines()
        engine = lossless_engine(trace)
        assert trace.writes == 1  # the header
        engine.dp._apply_outcomes(math.inf)
        assert trace.writes == 1  # nothing held, nothing written
        for di, service in enumerate(SLICE_ORDER):
            engine.decided[di] = service
            hold_delivery(engine, 1_000_000 + di, di)
        place(engine, 1, "SW1")
        engine.dp._apply_outcomes(math.inf)
        assert trace.writes == 2
        assert [row.split(",") for row in trace[1:]] == [
            [f"1.00000{di}", "deliver", f"d000{di}", service.slice_id, switch_id, "ok"]
            for (di, service), switch_id in zip(enumerate(SLICE_ORDER), ("", "SW1", ""))
        ]

    def test_a_traced_run_writes_blocks(self, small_run):
        _, _, trace, _ = small_run
        assert trace.writes < len(trace) / 10


@functools.cache
def tiny_model():
    # One trained model serves every drawn scenario: training is not under test.
    # Trained to convergence (well short of the epoch cap), it keeps each
    # device on its claimed slice, so the drawn runs use all three.
    return Engine(Scenario(devices=0, duration=1.0, train_samples=240, epochs=1000)).model


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
        # 0.37 s is no multiple of the 0.1 s window: a flow can move while a
        # window is open
        rebalance_interval=draw(st.sampled_from([0.5, 0.37])),
        # with neither plane on, the event heap empties while packets are due
        ddos_enabled=draw(st.booleans()),
        # a queue of one or two refuses some enqueues
        hp_capacity=draw(st.sampled_from([1, 2, 1000])),
        lp_capacity=draw(st.sampled_from([1, 2, 1000])),
        # 10^4 slots outlast the run, so some devices are still pending
        demand_embb=draw(st.sampled_from([1, 30, 10**4])),
        demand_urllc=draw(st.sampled_from([1, 30, 10**4])),
        demand_mmtc=draw(st.sampled_from([1, 30, 10**4])),
        # a reliable eMBB, like URLLC, retransmits what it loses
        protocol_embb=draw(st.sampled_from(["datagram", "reliable-stream"])),
        # a quarantined source gives up at once, soon or late
        flood_giveup=draw(st.sampled_from([0, 3, 200])),
    )


class TestConservationProperty:
    # ``slices``: for an example, the slices its outcome rows fall on.
    @settings(max_examples=30, deadline=None)
    @given(sc=flood_scenarios(), slices=st.none())
    # Few draws both migrate and quarantine; this one migrates 2 flows and
    # quarantines 1 source, which gives up.
    @example(
        sc=flood_scenario(
            seed=17, devices=12, switches=2, flood_packet_interval=0.004,
            switch_loss_rate=0.1, queue_delay_bound=0.05, retransmit_delay=0.01,
            protocol_embb="reliable-stream",
        ),
        slices={"S1", "S2", "S3"},
    )
    # The same at seed 18 quarantines 2 sources, which give up.
    @example(
        sc=flood_scenario(
            seed=18, devices=12, switches=2, flood_packet_interval=0.004,
            switch_loss_rate=0.1, queue_delay_bound=0.05, retransmit_delay=0.01,
            protocol_embb="reliable-stream",
        ),
        slices={"S1", "S2", "S3"},
    )
    # A retransmit lands with its device's next packet, a packet interval
    # later, on a congested link.
    @example(
        sc=flood_scenario(
            seed=3, devices=12, switches=1, switch_loss_rate=0.3, queue_delay_bound=0.05,
            retransmit_delay=0.05, protocol_embb="reliable-stream",
        ),
        slices={"S1", "S3"},
    )
    def test_scenario_rejected_or_conserves_packets_in_any_outcome_order(self, sc, slices):
        def run(drive=Engine.run, data_plane=contextlib.nullcontext):
            trace = Lines()
            detection = Lines()
            migrations = Lines()
            with data_plane():
                engine = Engine(
                    sc, trace_sink=trace, detection_sink=detection,
                    migration_sink=migrations, model=tiny_model(),
                )
            if isinstance(engine.dp, ScalarDataPlane):
                engine.dp.engine = engine
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
            return engine, rows, trace.text, detection.text, migrations.text

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
        assert len(engine.dp.held) == 0 and engine.dp.retransmits == []
        assert (engine.dp.next_us == NEVER).all()
        if slices is not None:
            trace_rows = (line.split(",") for line in artifacts[1].splitlines()[1:])
            assert {cells[3] for cells in trace_rows if cells[1] in ("deliver", "drop")} == slices
        with cut_everywhere():
            _, *eager = run()
        assert eager == artifacts
        _, *traced = run(stepped)
        assert traced == artifacts
        # One packet at a time, in canonical order, with the same draws.
        _, *scalar = run(data_plane=scalar_data_plane)
        assert scalar == artifacts


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
    source = (ROOT / "perfbench" / "child.py").read_text()
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


def test_traced_benchmark_child_drives_the_engine(tmp_path):
    # The traced benchmark pops ``Engine.heap`` and calls ``step_event``
    # itself, and wraps the plane calls by name; a change to either would
    # break ``perfbench/run.py --trace 1`` only.
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), str(report), "--spans", "--",
            "--scenario", str(ROOT / "scenarios" / "smoke.cfg"), "--out", str(tmp_path / "out"),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(report.read_text())["layers"]
    assert layers["engine.events"] > 0
