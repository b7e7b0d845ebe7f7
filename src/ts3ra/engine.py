"""Deterministic discrete-event simulation of the full pipeline.

One run drives: device admission at the access point, dual-queue request
scheduling, neural slice selection, associative-memory resource
allocation, packet transmission across assigned switches, windowed
entropy-based flood detection with quarantine, and measured-overload flow
rebalancing.  The clock is integer microseconds; events are processed in
(time, kind rank, sequence) order, so a fixed scenario and seed reproduce
the run bit for bit.

The event heap holds only control events.  Packet transmits wait on a heap
of their own and run, in the same order, in one data-plane loop up to each
control event and at the end of the run.  Packet outcomes (deliveries and
drops) wait in sorted lanes, one of deliveries per switch and one of drops,
and are applied, in that same order, just before the next event that reads
their effects or writes trace rows; the events that do neither pass them by.

No event is scheduled after the horizon (``Engine.end_us``), so no control
work starts after it; packets in flight at the horizon drain at the end of
the run.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import auth as auth_mod
from . import ddos as ddos_mod
from . import hopfield as hop_mod
from . import offload as off_mod
from . import sched as sched_mod
from . import slicenet as sn_mod
from .domain import (
    Device,
    Flow,
    Protocol,
    ServiceType,
    SliceRequest,
    SwitchProfile,
    qos_profile_of,
    stable_imsi,
)
from .metrics import (
    MetricsReport,
    SliceCounters,
    aggregate_total,
    derive_slice_metrics,
)
from .rng import RngHub
from .scenario import Scenario, to_us

# Event kinds, ranked for tie-breaking at equal timestamps.
ARRIVAL = 0
AUTH = 1
SCHEDULE_SLOT = 2
SLICE_DECIDE = 3
ALLOCATE = 4
TRANSMIT = 5
DELIVER = 6
DROP = 7
WINDOW_CLOSE = 8
REBALANCE = 9
MOBILITY_TICK = 10

KIND_NAMES = {
    ARRIVAL: "arrival",
    AUTH: "auth",
    SCHEDULE_SLOT: "schedule_slot",
    SLICE_DECIDE: "slice_decide",
    ALLOCATE: "allocate",
    TRANSMIT: "transmit",
    DELIVER: "deliver",
    DROP: "drop",
    WINDOW_CLOSE: "window_close",
    REBALANCE: "rebalance",
    MOBILITY_TICK: "mobility_tick",
}

# Per-slice value of service; modulates grant size only.
SLICE_VALUES = {
    ServiceType.EMBB: 0.7,
    ServiceType.URLLC: 1.0,
    ServiceType.MMTC: 0.4,
}

TRACE_HEADER = "time,kind,device,slice,switch,outcome"
DETECTION_HEADER = "window_start,switch_id,h_source,h_interarrival,h_size,verdict,blocked_sources"
MIGRATION_HEADER = "time,flow_id,from_switch,to_switch,reason"


# Kinds that neither read packet outcomes nor write trace rows: outcomes due
# before them are left queued (see ``Engine.step_event``).
_BLIND_KINDS = frozenset({SCHEDULE_SLOT, MOBILITY_TICK})
# Queued outcomes applied before any event or transmit, whatever its kind.
OUTCOME_BACKLOG = 4096


class InvariantViolation(RuntimeError):
    """An engine-internal consistency rule was broken."""


# Values drawn per call of ``rng.random`` in :func:`uniforms`.
UNIFORM_BLOCK = 4096


def uniforms(rng: np.random.Generator):
    """Endless ``rng.random()`` values, drawn ``UNIFORM_BLOCK`` at a time.

    A block of n values equals n scalar calls, at a fraction of their cost;
    ``rng`` runs up to one block ahead of the values taken.
    """
    while True:
        yield from rng.random(UNIFORM_BLOCK).tolist()


def packet_size(u: float, length: int) -> int:
    """Half, full or double ``length`` with probabilities 1/4, 1/2, 1/4.

    ``packet_size(rng.random(), length)`` gives the same values and leaves
    ``rng`` in the same state as
    ``rng.choice([length // 2, length, length * 2], p=[0.25, 0.5, 0.25])``,
    which bisects the CDF with one ``random()`` draw, at a fraction of its
    cost.
    """
    if u < 0.25:
        return length // 2
    if u < 0.75:
        return length
    return length * 2


class _DeviceRt:
    """Mutable per-device simulation state."""

    __slots__ = (
        "index",
        "device",
        "password",
        "puf",
        "claimed",
        "_decided",
        "counters",
        "_counters_of",
        "forged",
        "floods",
        "authenticated",
        "granted",
        "request",
        "flow",
        "sw",
        "tag",
        "quarantined",
        "blocked_streak",
        "gave_up",
        "arrival_us",
    )

    def __init__(
        self,
        index: int,
        device: Device,
        password: bytes,
        puf,
        claimed: ServiceType,
        forged: bool,
        counters_of: dict[ServiceType, SliceCounters],
    ):
        self.index = index
        self.device = device
        self.password = password
        self.puf = puf
        self.claimed = claimed
        self._counters_of = counters_of
        self.sw: Optional[_SwitchRt] = None
        self.decided = None
        self.forged = forged
        # Sends at the flood interval once flooding starts.
        self.floods = not device.legitimate and not forged
        self.authenticated = False
        self.granted = False
        self.request = None
        self.flow: Optional[Flow] = None
        self.quarantined = False
        self.blocked_streak = 0
        self.gave_up = False
        self.arrival_us = 0

    @property
    def decided(self) -> Optional[ServiceType]:
        """The slice the controller decided; None before the decision."""
        return self._decided

    @decided.setter
    def decided(self, service: Optional[ServiceType]) -> None:
        # ``counters`` serves the packet path without hashing an enum.
        self._decided = service
        self.counters = self._counters_of[service or self.claimed]
        self._retag()

    def place(self, sw: "_SwitchRt") -> None:
        """Route this device's packets through ``sw``."""
        self.sw = sw
        self._retag()

    def _retag(self) -> None:
        # ``tag`` is the device,slice,switch part of this device's trace rows.
        service = self._decided or self.claimed
        switch_id = self.sw.profile.switch_id if self.sw else ""
        self.tag = f"{self.device.device_id},{service.slice_id},{switch_id}"


class _SwitchRt:
    """Mutable per-switch state: link occupancy, pending deliveries and
    window counts."""

    __slots__ = (
        "profile",
        "loss_rate",
        "nominal_load",
        "busy_until_us",
        "deliveries",
        "flows",
        "window",
        "win_last_arrival_us",
        "interval_bits",
        "per_flow_bits",
        "baseline_triples",
    )

    def __init__(self, profile: SwitchProfile):
        self.profile = profile
        self.loss_rate = profile.loss_rate
        self.nominal_load = 0.0
        self.busy_until_us = 0
        # DELIVER entries of packets this switch carried, in event order:
        # each lands at the new ``busy_until_us`` plus a constant latency,
        # and ``busy_until_us`` never decreases.
        self.deliveries: list = []
        self.flows: set[int] = set()
        self.window = ddos_mod.WindowCounts()
        self.win_last_arrival_us: Optional[int] = None
        self.interval_bits = 0
        self.per_flow_bits: dict[int, int] = {}
        self.baseline_triples: list[tuple[float, float, float]] = []

    def reset_window(self) -> None:
        self.window = ddos_mod.WindowCounts()

    def reset_interval(self) -> None:
        self.interval_bits = 0
        self.per_flow_bits = {}


Sink = Callable[[str], None]


class Engine:
    """One simulation run; construct, then :meth:`run`."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        trace_sink: Optional[Sink] = None,
        detection_sink: Optional[Sink] = None,
        migration_sink: Optional[Sink] = None,
        model: Optional[sn_mod.SliceNetModel] = None,
    ):
        scenario.validate()
        self.sc = scenario
        self.hub = RngHub(scenario.seed)
        self.end_us = to_us(scenario.duration)
        # Per-packet times, rounded once here instead of on every packet.
        self.packet_interval_us = to_us(scenario.packet_interval)
        self.flood_packet_interval_us = to_us(scenario.flood_packet_interval)
        self.flood_start_us = to_us(scenario.flood_start)
        self.queue_delay_bound_us = to_us(scenario.queue_delay_bound)
        self.processing_latency_us = to_us(scenario.processing_latency)
        self.retransmit_delay_us = to_us(scenario.retransmit_delay)
        # A packet's inter-arrival gap is binned as it arrives at its switch.
        self.ia_edges = ddos_mod.interarrival_inner_edges(scenario.window_duration)
        # Link time of each packet size; every switch has the same rate.
        length, rate = scenario.packet_length, scenario.switch_transmission_rate
        self.tx_us = {
            size: int(round(size * 8 / rate * 1e6))
            for size in (length // 2, length, length * 2)
        }
        self.coeffs = off_mod.WeightCoefficients(
            alpha=scenario.offload_alpha,
            beta=scenario.offload_beta,
            gamma=scenario.offload_gamma,
        )
        self.clock_us = 0
        # Control events; TRANSMIT entries, keyed the same way, wait in
        # ``transmits`` (see :meth:`step_event`).
        self.heap: list = []
        self.transmits: list = []
        # DROP entries, keyed like ``heap`` and numbered from the same
        # ``seq``; every drop lands at the clock, so the list stays sorted.
        self.drops: list = []
        # Entries waiting in ``drops`` and the switches' ``deliveries``; see
        # :meth:`step_event` for when they are applied.
        self.queued = 0
        self.seq = 0
        self.trace_sink = trace_sink
        self.detection_sink = detection_sink
        self.migration_sink = migration_sink
        if trace_sink:
            trace_sink(TRACE_HEADER)
        if detection_sink:
            detection_sink(DETECTION_HEADER)
        if migration_sink:
            migration_sink(MIGRATION_HEADER)

        self._loss_draws = uniforms(self.hub.substream("loss"))
        self._size_draws = uniforms(self.hub.substream("sizes"))
        self._rng_sched = self.hub.substream("sched")
        self._rng_auth = self.hub.substream("auth")

        self.counters = {st: SliceCounters() for st in ServiceType}
        self.auth_accepted = 0
        self.auth_rejected = 0
        self.generated = 0
        self.migrations = 0
        self.rebalances = 0
        self.attack_windows = 0
        self.queue_dropped = 0
        self.quarantined: set[str] = set()
        self.loss_curve = None

        self._build_world(model)
        self.lanes = [sw.deliveries for sw in self.switches] + [self.drops]
        # Devices not yet rejected, dropped at the queue or allocated; once
        # none is left no allocation follows, so nothing reads positions.  At
        # the end of a run, the pending count: devices not yet arrived, still
        # queued, or waiting for a slice decision or an allocation.
        self.unfinished = len(self.dev)
        self._handlers = (
            self._on_arrival,
            self._on_auth,
            self._on_schedule_slot,
            self._on_slice_decide,
            self._on_allocate,
            self._packet_on_event_heap,
            self._packet_on_event_heap,
            self._packet_on_event_heap,
            self._on_window_close,
            self._on_rebalance,
            self._on_mobility_tick,
        )
        self._seed_events()

    # -- construction --------------------------------------------------------

    def _build_world(self, model) -> None:
        sc = self.sc
        n = sc.devices
        rng_world = self.hub.substream("world")
        n_illegit = int(round(n * sc.illegitimate_fraction))
        n_forged = int(round(n_illegit * sc.forged_fraction))
        illegit = set(rng_world.permutation(n)[:n_illegit].tolist())
        forged = set(sorted(illegit)[:n_forged])

        self.positions = np.column_stack(
            [
                rng_world.uniform(0, sc.area_width, size=n),
                rng_world.uniform(0, sc.area_height, size=n),
            ]
        ) if n else np.zeros((0, 2))
        self.waypoints = np.column_stack(
            [
                rng_world.uniform(0, sc.area_width, size=n),
                rng_world.uniform(0, sc.area_height, size=n),
            ]
        ) if n else np.zeros((0, 2))
        self.speeds = rng_world.uniform(sc.speed_min, sc.speed_max, size=n)
        fair_slas = rng_world.uniform(0.7, 1.0, size=n)

        mix = [sc.mix_embb, sc.mix_urllc, sc.mix_mmtc]
        services = rng_world.choice(3, size=n, p=mix)
        by_index = [ServiceType.EMBB, ServiceType.URLLC, ServiceType.MMTC]

        self.vap = auth_mod.VirtualAuthorityPool()
        rng_puf = self.hub.substream("puf")
        self.dev: list[_DeviceRt] = []
        self.dev_by_id: dict[str, _DeviceRt] = {}
        self.fair_slas = fair_slas
        for i in range(n):
            device_id = f"d{i:04d}"
            legitimate = i not in illegit
            claimed = by_index[int(services[i])] if legitimate else ServiceType.MMTC
            device = Device(
                device_id=device_id,
                imsi=stable_imsi(device_id),
                speed=float(self.speeds[i]),
                position=(float(self.positions[i, 0]), float(self.positions[i, 1])),
                waypoint=(float(self.waypoints[i, 0]), float(self.waypoints[i, 1])),
                legitimate=legitimate,
            )
            password = f"pw-{device_id}".encode()
            puf = auth_mod.SimulatedPuf(bytes(rng_puf.integers(0, 256, size=32, dtype=np.uint8)))
            rt = _DeviceRt(i, device, password, puf, claimed, i in forged, self.counters)
            if not rt.forged:
                va = self.vap.authority_for(device_id)
                auth_mod.register_device(va, device_id, password, puf, rng_puf)
            self.dev.append(rt)
            self.dev_by_id[device_id] = rt

        # switches
        self.switches: list[_SwitchRt] = []
        self.sw_by_id: dict[str, _SwitchRt] = {}
        for j in range(sc.switches):
            profile = SwitchProfile(
                switch_id=f"SW{j}",
                service_capacity=sc.switch_service_capacity,
                transmission_rate=sc.switch_transmission_rate,
                loss_rate=sc.switch_loss_rate,
            )
            rt = _SwitchRt(profile)
            self.switches.append(rt)
            self.sw_by_id[profile.switch_id] = rt

        # access points, evenly spaced on the horizontal midline
        self.ap_positions = np.array(
            [
                [(k + 0.5) * sc.area_width / sc.aps, sc.area_height / 2.0]
                for k in range(sc.aps)
            ]
        )

        # scheduler
        self.qconfig = sc.scheduler_config()
        self.qstate = sched_mod.DualQueueState()
        self.sched_active = False
        self.slot_us = to_us(sc.slot_duration)

        # slice-selection model
        if model is not None:
            self.model = model
        elif sc.model_path:
            from .serialization import load_slicenet

            self.model = load_slicenet(sc.model_path)
        else:
            feats, labels = sn_mod.make_separable_dataset(
                sc.train_samples, self.hub.substream("slicenet-data")
            )
            self.model = sn_mod.SliceNetModel(
                d_model=sc.d_model, rng=self.hub.substream("slicenet-init")
            )
            self.loss_curve = sn_mod.train(
                self.model,
                feats,
                labels,
                epochs=sc.epochs,
                learning_rate=sc.learning_rate,
                rng=self.hub.substream("slicenet-train"),
                batch_size=32,
            )

        # resource pools, sized to expected demand with headroom
        expected = {st: 0.0 for st in ServiceType}
        n_legit = n - n_illegit
        for st in ServiceType:
            expected[st] = n_legit * sc.mix_fraction(st)
        expected[ServiceType.MMTC] += n_illegit
        self.pool_initial: dict[ServiceType, float] = {}
        self.pools: dict[ServiceType, hop_mod.ResourcePool] = {}
        for st in ServiceType:
            count = max(expected[st], 1.0)
            comm = count * qos_profile_of(st).min_bandwidth * sc.pool_headroom
            self.pool_initial[st] = comm
            self.pools[st] = hop_mod.ResourcePool(
                communication=comm,
                computation=count * sc.pool_headroom,
                caching=count * sc.pool_headroom,
            )
        self.allocator = hop_mod.HopfieldAllocator(
            demand_reference={st: self.sc.demand_slots(st) for st in ServiceType}
        )

        self.requests_seen = 0

    def _seed_events(self) -> None:
        sc = self.sc
        rng_arrivals = self.hub.substream("arrivals")
        window = sc.arrival_window * sc.duration
        for rt in self.dev:
            t = to_us(float(rng_arrivals.uniform(0.0, window)))
            self._push(t, ARRIVAL, rt.index)
        if sc.devices:
            self._push(to_us(sc.tick_interval), MOBILITY_TICK, None)
        if sc.ddos_enabled:
            self._push(to_us(sc.window_duration), WINDOW_CLOSE, None)
        if sc.offload_enabled:
            self._push(to_us(sc.rebalance_interval), REBALANCE, None)

    # -- event plumbing --------------------------------------------------------

    def _push(self, time_us: int, kind: int, payload) -> None:
        """Schedule an event on ``heap``, or a TRANSMIT on ``transmits``.

        The run's horizon: nothing due after ``end_us`` is scheduled, so no
        control work starts after it.  Packets already in flight drain at the
        end of the run (see :meth:`collect_metrics`).
        """
        if time_us < self.clock_us:
            raise InvariantViolation(
                f"event {KIND_NAMES[kind]} scheduled at {time_us} before clock {self.clock_us}"
            )
        if time_us > self.end_us:
            return
        self.seq += 1
        queue = self.transmits if kind == TRANSMIT else self.heap
        heapq.heappush(queue, (time_us, kind, self.seq, payload))

    def _trace(self, kind: int, device: str, slice_id: str, switch: str, outcome: str) -> None:
        if self.trace_sink:
            self.trace_sink(
                f"{self.clock_us / 1e6:.6f},{KIND_NAMES[kind]},{device},{slice_id},{switch},{outcome}"
            )

    def step_event(self, event: tuple) -> None:
        """Process a single (time_us, kind, seq, payload) control event.

        The data plane first runs every transmit that sorts before the event.
        Queued outcomes that sort before it are then applied, unless the
        event is one of ``_BLIND_KINDS``, which neither read their effects nor
        write trace rows; a backlog of ``OUTCOME_BACKLOG`` outcomes is applied
        before any event or transmit, so the lanes stay short when no event of
        the other kinds comes for a long time.
        """
        time_us, kind, _, payload = event
        if time_us < self.clock_us:
            raise InvariantViolation("time regression in event stream")
        # At equal times, transmits sort after the kinds ranked below them.
        self._run_data_plane(time_us + 1 if kind > TRANSMIT else time_us)
        queued = self.queued
        if queued and (kind not in _BLIND_KINDS or queued >= OUTCOME_BACKLOG):
            # At equal times, outcomes sort after the kinds ranked below them.
            self._apply_outcomes(time_us + 1 if kind > DROP else time_us)
        self.clock_us = time_us
        self._handlers[kind](payload)

    def _apply_outcomes(self, until_us: float) -> None:
        """Apply, in event order, every queued outcome due before ``until_us``.

        Each lane is sorted, so its due entries are a prefix; ``sort`` merges
        the prefixes' sorted runs.  ``seq`` is unique, so payloads are never
        compared.
        """
        key = (until_us,)
        due: list = []
        for lane in self.lanes:
            k = bisect_left(lane, key)
            if k:
                due += lane[:k]
                del lane[:k]
        if not due:
            return
        self.queued -= len(due)
        due.sort()
        dev, sink = self.dev, self.trace_sink
        for time_us, kind, _, payload in due:
            if kind == DELIVER:
                di, bits, latency_us = payload
                rt = dev[di]
                c = rt.counters
                c.in_flight -= 1
                if rt.quarantined:
                    # the AP revokes in-flight traffic of a quarantined source
                    c.dropped += 1
                    c.blocked += 1
                    if sink:
                        sink(f"{time_us / 1e6:.6f},drop,{rt.tag},quarantined")
                    continue
                c.delivered += 1
                c.delivered_bits += bits
                c.latency_sum += latency_us / 1e6
                if sink:
                    sink(f"{time_us / 1e6:.6f},deliver,{rt.tag},ok")
            else:
                di, reason, admitted = payload
                rt = dev[di]
                c = rt.counters
                if not admitted:
                    c.sent += 1  # offered traffic stopped at the AP, never in flight
                else:
                    c.in_flight -= 1
                c.dropped += 1
                if reason == "quarantined":
                    c.blocked += 1
                if sink:
                    sink(f"{time_us / 1e6:.6f},drop,{rt.tag},{reason}")

    def _run_data_plane(self, until_us: float) -> None:
        """Run, in event order, every queued transmit due before ``until_us``.

        A transmit reads no outcome and writes no trace row; it pushes only
        transmits, deliveries and drops.  Before each one, a backlog of
        ``OUTCOME_BACKLOG`` queued outcomes is applied, as before any event.
        """
        transmits = self.transmits
        if not transmits or transmits[0][0] >= until_us:
            return
        dev, drops, pop, push = self.dev, self.drops, heapq.heappop, heapq.heappush
        loss_draws, size_draws = self._loss_draws, self._size_draws
        ia_edges, tx_of = self.ia_edges, self.tx_us
        length, jitter = self.sc.packet_length, self.sc.size_jitter
        flood_start_us, flood_iv_us = self.flood_start_us, self.flood_packet_interval_us
        end_us, iv_us = self.end_us, self.packet_interval_us
        bound_us, proc_us = self.queue_delay_bound_us, self.processing_latency_us
        backlog, reliable = OUTCOME_BACKLOG, Protocol.RELIABLE_STREAM
        seq, queued, generated, now = self.seq, self.queued, self.generated, self.clock_us
        while transmits and transmits[0][0] < until_us:
            time_us, _, _, (di, is_retx, size) = pop(transmits)
            if time_us < now:
                raise InvariantViolation("time regression in event stream")
            now = time_us
            if queued >= backlog:
                self.queued = queued
                self._apply_outcomes(now)
                queued = self.queued
            rt = dev[di]
            if rt.gave_up and not is_retx:
                continue

            if not is_retx:
                generated += 1
                if rt.floods and now >= flood_start_us:
                    size = length
                    nxt = now + flood_iv_us
                else:
                    size = packet_size(next(size_draws), length) if jitter else length
                    nxt = now + iv_us
                if nxt < end_us:
                    seq += 1
                    push(transmits, (nxt, TRANSMIT, seq, (di, False, 0)))

            if rt.quarantined:
                rt.blocked_streak += 1
                if rt.blocked_streak >= self.sc.flood_giveup:
                    rt.gave_up = True
                # a retransmission was already admitted and counted in flight
                seq += 1
                drops.append((now, DROP, seq, (di, "quarantined", is_retx)))
                queued += 1
                continue
            rt.blocked_streak = 0

            sw = rt.sw
            if not is_retx:
                c = rt.counters
                c.sent += 1
                c.in_flight += 1

            # window counts observe everything arriving at the switch
            win = sw.window
            dev_id = rt.device.device_id
            sources = win.source_counts
            sources[dev_id] = sources.get(dev_id, 0) + 1
            sizes = win.size_counts
            sizes[size] = sizes.get(size, 0) + 1
            last_us = sw.win_last_arrival_us
            if last_us is not None:
                win.interarrival_bins[bisect_right(ia_edges, (now - last_us) / 1e6)] += 1
            sw.win_last_arrival_us = now
            bits = size * 8
            sw.interval_bits += bits
            per_flow = sw.per_flow_bits
            per_flow[di] = per_flow.get(di, 0) + bits

            if next(loss_draws) < sw.loss_rate:
                reason = "loss"
            else:
                backlog_us = sw.busy_until_us - now
                if backlog_us < 0:
                    backlog_us = 0
                if backlog_us > bound_us:
                    reason = "overflow"
                else:
                    tx_us = tx_of[size]
                    sw.busy_until_us = now + backlog_us + tx_us
                    latency_us = proc_us + backlog_us + tx_us
                    seq += 1
                    sw.deliveries.append((now + latency_us, DELIVER, seq, (di, bits, latency_us)))
                    queued += 1
                    continue

            seq += 1
            if not is_retx and rt.flow.protocol is reliable:
                push(transmits, (now + self.retransmit_delay_us, TRANSMIT, seq, (di, True, size)))
            else:
                drops.append((now, DROP, seq, (di, reason, True)))
                queued += 1
        self.seq, self.queued, self.generated, self.clock_us = seq, queued, generated, now

    def run(self) -> MetricsReport:
        heap, pop, step = self.heap, heapq.heappop, self.step_event
        while heap:
            step(pop(heap))
        return self.collect_metrics()

    # -- handlers ---------------------------------------------------------------

    def _packet_on_event_heap(self, payload) -> None:
        raise InvariantViolation(f"packet event {payload!r} on the event heap")

    def _on_arrival(self, di: int) -> None:
        rt = self.dev[di]
        rt.arrival_us = self.clock_us
        self._trace(ARRIVAL, rt.device.device_id, "", "", "request")
        self._push(self.clock_us + to_us(self.sc.auth_delay), AUTH, di)

    def _on_auth(self, di: int) -> None:
        rt = self.dev[di]
        now_s = self.clock_us / 1e6
        va = self.vap.authority_for(rt.device.device_id)
        verdict = auth_mod.authenticate(
            va,
            rt.device.device_id,
            rt.password,
            timestamp=now_s,
            puf_response=rt.puf.respond,
            now=now_s,
            rng=self._rng_auth,
            freshness_window=self.sc.freshness_window,
        )
        if not verdict.accepted:
            self.auth_rejected += 1
            self.unfinished -= 1
            self._trace(AUTH, rt.device.device_id, "", "", f"rejected:{verdict.reason.value}")
            return
        self.auth_accepted += 1
        rt.authenticated = True
        self.requests_seen += 1
        service = rt.claimed
        rt.request = SliceRequest(
            origin=rt.device.device_id,
            service_type=service,
            demand_slots=self.sc.demand_slots(service),
            fair_sla=float(self.fair_slas[di]),
            slice_capacity_hint=self.pool_initial[service],
            arrival_time=rt.arrival_us / 1e6,
        )
        # The AP classifies on the requested flow's parameters; the data-plane
        # flow is rebuilt later from the slice the controller actually decides.
        rt.flow = self._make_flow(rt, service)
        cls = sched_mod.classify_flow(rt.flow)
        accepted = sched_mod.enqueue(self.qstate, rt.request, cls, self.qconfig)
        self._trace(
            AUTH,
            rt.device.device_id,
            service.slice_id,
            "",
            f"accepted:{cls.value}" if accepted else "queue_full",
        )
        if not accepted:
            self.queue_dropped += 1
            self.unfinished -= 1
            return
        if not self.sched_active:
            self.sched_active = True
            self._push(self.clock_us + self.slot_us, SCHEDULE_SLOT, None)

    def _on_schedule_slot(self, _payload=None) -> None:
        result = sched_mod.step_slot(self.qstate, self.qconfig, self._rng_sched)
        for request in result.completions:
            rt = self.dev_by_id[request.origin]
            self._push(self.clock_us + to_us(self.sc.decision_delay), SLICE_DECIDE, rt.index)
        if self.qstate.n_in_system > 0 or self.qstate.phase == sched_mod.GAMMA_VACANT:
            self._push(self.clock_us + self.slot_us, SCHEDULE_SLOT, None)
        else:
            self.sched_active = False

    def _features_for(self, rt: _DeviceRt) -> sn_mod.SliceFeatureVector:
        service = rt.claimed
        pool = self.pools[service]
        initial = self.pool_initial[service]
        capacity = min(max(pool.communication / initial, 0.0), 1.0) if initial else 0.0
        imsi_norm = (rt.device.imsi % (2**32)) / 2**32
        mobility = 0.0
        span = self.sc.speed_max - self.sc.speed_min
        if span > 0:
            mobility = (rt.device.speed - self.sc.speed_min) / span
        return sn_mod.SliceFeatureVector(
            service_type=service,
            fair_sla=rt.request.fair_sla,
            imsi_hash=imsi_norm,
            capacity=capacity,
            mobility=min(max(mobility, 0.0), 1.0),
        )

    def _make_flow(self, rt: _DeviceRt, service: ServiceType) -> Flow:
        return Flow(
            flow_id=f"{rt.device.device_id}-f",
            origin=rt.device.device_id,
            slice=service,
            rate=self.sc.nominal_flow_rate,
            packet_delay=self.sc.delay_bound(service),
            packet_length=self.sc.packet_length,
            protocol=self.sc.protocol(service),
        )

    def _on_slice_decide(self, di: int) -> None:
        rt = self.dev[di]
        decision = sn_mod.select_slice(self.model, self._features_for(rt))
        rt.decided = ServiceType.from_indicator(decision.indicator)
        rt.counters.requests += 1
        if rt.decided is not rt.claimed:
            rt.flow = self._make_flow(rt, rt.decided)
        self._trace(
            SLICE_DECIDE,
            rt.device.device_id,
            decision.slice_id,
            "",
            f"confidence={decision.confidence:.4f}",
        )
        self._push(self.clock_us + to_us(self.sc.decision_delay), ALLOCATE, di)

    def _sinr_db(self, di: int) -> float:
        pos = self.positions[di]
        d = float(np.min(np.linalg.norm(self.ap_positions - pos, axis=1)))
        return float(min(max(50.0 - 15.0 * math.log10(max(d, 1.0)), 0.0), 50.0))

    def _on_allocate(self, di: int) -> None:
        rt = self.dev[di]
        self.unfinished -= 1
        service = rt.decided or rt.claimed
        elapsed = max(self.clock_us / 1e6, 1e-9)
        c = rt.counters
        request = hop_mod.AllocationRequest(
            slice_indicator=service.indicator,
            sinr=self._sinr_db(di),
            throughput=c.delivered_bits / elapsed,
            fair_sla=rt.request.fair_sla,
            slice_capacity=self.pool_initial[service],
            arrival_rate=self.requests_seen / elapsed,
            slice_value=SLICE_VALUES[service],
            demand_slots=rt.request.demand_slots,
        )
        try:
            alloc = self.allocator.allocate_resources(request, self.pools[service])
        except hop_mod.PoolExhaustedError:
            c.rejected += 1
            self._trace(ALLOCATE, rt.device.device_id, service.slice_id, "", "rejected:pool")
            return
        c.granted += 1
        c.granted_comm += alloc.communication
        c.response_sum += (self.clock_us - rt.arrival_us) / 1e6
        rt.granted = True

        switch_id = self._assign_switch(rt)
        if switch_id is None:
            self._trace(ALLOCATE, rt.device.device_id, service.slice_id, "", "unroutable")
            return
        self._trace(ALLOCATE, rt.device.device_id, service.slice_id, switch_id, "granted")
        remaining_s = (self.end_us - self.clock_us) / 1e6
        c.flow_active_bps_seconds += rt.flow.rate * remaining_s
        phase = float(self.hub.substream("phase").uniform(0.0, self.sc.packet_interval))
        first = self.clock_us + to_us(phase)
        if first < self.end_us:
            self._push(first, TRANSMIT, (di, False, 0))

    def _assign_switch(self, rt: _DeviceRt) -> Optional[str]:
        best_id = None
        best_w = None
        for sw in self.switches:
            budget = sw.profile.service_capacity - sw.nominal_load
            if rt.flow.rate > budget:
                continue
            profile = sw.profile.with_load(sw.nominal_load)
            w = off_mod.edge_weight(rt.flow, profile, self.coeffs)
            if best_w is None or w > best_w:
                best_w = w
                best_id = sw.profile.switch_id
        if best_id is None:
            return None
        sw = self.sw_by_id[best_id]
        sw.flows.add(rt.index)
        sw.nominal_load += rt.flow.rate
        rt.place(sw)
        return best_id

    # -- detection -----------------------------------------------------------

    def _on_window_close(self, _payload=None) -> None:
        sc = self.sc
        start_s = self.clock_us / 1e6 - sc.window_duration
        for sw in self.switches:
            window = sw.window
            blocked: list[str] = []
            if window.packet_count < sc.min_packets:
                verdict = ddos_mod.VERDICT_INCONCLUSIVE
                triple = ddos_mod.window_entropies(window, sc.ddos_alpha)
            elif len(sw.baseline_triples) < sc.baseline_windows:
                verdict = "learning"
                triple = ddos_mod.window_entropies(window, sc.ddos_alpha)
                sw.baseline_triples.append(triple)
            else:
                report = ddos_mod.classify_window(
                    window,
                    ddos_mod.BaselineStats.from_triples(sw.baseline_triples),
                    alpha=sc.ddos_alpha,
                    k_sigma=sc.k_sigma,
                    min_packets=sc.min_packets,
                )
                verdict = report.verdict
                triple = (report.h_source, report.h_interarrival, report.h_size)
                if verdict == ddos_mod.VERDICT_ATTACK:
                    self.attack_windows += 1
                    blocked = ddos_mod.quarantine(
                        report, window.source_counts, sc.dominance_factor
                    )
                    for dev_id in blocked:
                        drt = self.dev_by_id[dev_id]
                        if not drt.quarantined:
                            drt.quarantined = True
                            self.quarantined.add(dev_id)
                else:
                    sw.baseline_triples.append(triple)
                    if len(sw.baseline_triples) > 4 * sc.baseline_windows:
                        del sw.baseline_triples[0]
            if self.detection_sink:
                self.detection_sink(
                    f"{start_s:.6f},{sw.profile.switch_id},"
                    f"{triple[0]:.6f},{triple[1]:.6f},{triple[2]:.6f},"
                    f"{verdict},{';'.join(blocked)}"
                )
            sw.reset_window()
        self._push(self.clock_us + to_us(sc.window_duration), WINDOW_CLOSE, None)

    # -- rebalancing -----------------------------------------------------------

    def _on_rebalance(self, _payload=None) -> None:
        sc = self.sc
        interval = sc.rebalance_interval
        measured = {
            sw.profile.switch_id: sw.interval_bits / interval for sw in self.switches
        }
        overloaded = [
            sw
            for sw in self.switches
            if measured[sw.profile.switch_id] > sw.profile.service_capacity
        ]
        for trigger in overloaded:
            planned = self._plan_rebalance(trigger, measured)
            if planned is None:
                continue
            plan, device_of = planned
            for mig in plan.migrations:
                drt = device_of[mig.flow_id]
                src = self.sw_by_id[mig.from_switch]
                dst = self.sw_by_id[mig.to_switch]
                src.flows.discard(drt.index)
                dst.flows.add(drt.index)
                src.nominal_load -= drt.flow.rate
                dst.nominal_load += drt.flow.rate
                drt.place(dst)
                self.migrations += 1
                if self.migration_sink:
                    self.migration_sink(
                        f"{self.clock_us / 1e6:.6f},{mig.flow_id},{mig.from_switch},{mig.to_switch},overload"
                    )
                self._trace(
                    REBALANCE,
                    drt.device.device_id,
                    (drt.decided or drt.claimed).slice_id,
                    mig.to_switch,
                    f"migrated_from:{mig.from_switch}",
                )
            if plan.migrations:
                self.rebalances += 1
        for sw in self.switches:
            sw.reset_interval()
        self._push(self.clock_us + to_us(interval), REBALANCE, None)

    def _plan_rebalance(self, trigger: _SwitchRt, measured: dict[str, float]):
        """The trigger's rebalance plan and each planned flow's device."""
        interval = self.sc.rebalance_interval
        flows = []
        current = {}
        device_of: dict[str, _DeviceRt] = {}
        for di in sorted(trigger.flows):
            drt = self.dev[di]
            if drt.flow is None or drt.quarantined:
                continue
            rate = trigger.per_flow_bits.get(di, 0) / interval
            if rate <= 0:
                rate = drt.flow.rate
            flow = Flow(
                flow_id=drt.flow.flow_id,
                origin=drt.flow.origin,
                slice=drt.flow.slice,
                rate=rate,
                packet_delay=drt.flow.packet_delay,
                packet_length=drt.flow.packet_length,
                protocol=drt.flow.protocol,
            )
            flows.append(flow)
            current[flow.flow_id] = trigger.profile.switch_id
            device_of[flow.flow_id] = drt
        if not flows:
            return None
        profiles = [
            sw.profile.with_load(measured[sw.profile.switch_id]) for sw in self.switches
        ]
        plan = off_mod.rebalance(
            profiles, flows, current, trigger.profile.switch_id, self.coeffs
        )
        return plan, device_of

    # -- mobility ----------------------------------------------------------------

    def _on_mobility_tick(self, _payload=None) -> None:
        sc = self.sc
        dt = sc.tick_interval
        delta = self.waypoints - self.positions
        dist = np.linalg.norm(delta, axis=1)
        step = self.speeds * dt
        arrived = dist <= step
        moving = ~arrived & (dist > 0)
        scale = np.zeros_like(dist)
        scale[moving] = step[moving] / dist[moving]
        self.positions[moving] += delta[moving] * scale[moving, None]
        self.positions[arrived] = self.waypoints[arrived]
        n_arrived = int(arrived.sum())
        if n_arrived:
            rng = self.hub.substream("waypoints")
            self.waypoints[arrived] = np.column_stack(
                [
                    rng.uniform(0, sc.area_width, size=n_arrived),
                    rng.uniform(0, sc.area_height, size=n_arrived),
                ]
            )
        np.clip(self.positions[:, 0], 0, sc.area_width, out=self.positions[:, 0])
        np.clip(self.positions[:, 1], 0, sc.area_height, out=self.positions[:, 1])
        if self.unfinished:
            self._push(self.clock_us + to_us(dt), MOBILITY_TICK, None)

    # -- reporting ----------------------------------------------------------------

    def collect_metrics(self) -> MetricsReport:
        self._run_data_plane(math.inf)
        self._apply_outcomes(math.inf)
        for st, c in self.counters.items():
            if c.in_flight != 0:
                raise InvariantViolation(
                    f"{st.slice_id}: {c.in_flight} packets unresolved at end of run"
                )
            if not c.conservation_holds():
                raise InvariantViolation(f"{st.slice_id}: packet conservation violated")
        slices = {
            st: derive_slice_metrics(
                st.slice_id, self.counters[st], self.sc.duration, self.pool_initial[st]
            )
            for st in ServiceType
        }
        total_counters = aggregate_total(self.counters)
        total = derive_slice_metrics(
            "TOTAL", total_counters, self.sc.duration, sum(self.pool_initial.values())
        )
        return MetricsReport(
            duration=self.sc.duration,
            slices=slices,
            total=total,
            auth_accepted=self.auth_accepted,
            auth_rejected=self.auth_rejected,
            generated=self.generated,
            migrations=self.migrations,
            rebalances=self.rebalances,
            attack_windows_flagged=self.attack_windows,
            quarantined_sources=len(self.quarantined),
        )


def run_scenario(
    scenario: Scenario,
    *,
    trace_sink: Optional[Sink] = None,
    detection_sink: Optional[Sink] = None,
    migration_sink: Optional[Sink] = None,
    model: Optional[sn_mod.SliceNetModel] = None,
) -> MetricsReport:
    """Validate, simulate, and report one scenario."""
    engine = Engine(
        scenario,
        trace_sink=trace_sink,
        detection_sink=detection_sink,
        migration_sink=migration_sink,
        model=model,
    )
    return engine.run()
