"""Deterministic discrete-event simulation of the full pipeline.

One run drives: device admission at the access point, dual-queue request
scheduling, neural slice selection, associative-memory resource
allocation, packet transmission across assigned switches, windowed
entropy-based flood detection with quarantine, and measured-overload flow
rebalancing.  The clock is integer microseconds; events are processed in
(time, kind rank, sequence) order, so a fixed scenario and seed reproduce
the run bit for bit.

The event heap holds only control events.  The packets form the data plane,
:class:`~ts3ra.dataplane.DataPlane`, which runs just before each event that
reads packet state or writes trace rows, and at the end of the run;
scheduler slots and mobility ticks do neither and pass it by.  The engine
drives it through a few calls: run to a time, start a device's packets,
place a device on a switch, quarantine a device, and close the detection
window or the rebalance interval, each of which returns its counts.  It
reads each device's switch (``sw_of``) and quarantine flag from the data
plane, and writes none of its arrays.  Every flow runs at the scenario's
nominal rate and every switch has the scenario's one profile
(``Engine.switch_profile``), so a switch's nominal load is its devices in
``sw_of`` at that rate; the engine keeps no per-switch ledger.  A switch is
its index in ``Engine.switch_ids``.

The engine keeps each per-device fact once, in lists indexed by device:
``device_ids`` (the list the data plane takes), ``index_of`` (id to index),
``pufs``, ``claimed``, ``decided`` (None before SLICE_DECIDE) and
``arrival_us``; a password is a function of the id.  It builds a
:class:`~ts3ra.domain.SliceRequest` and a :class:`~ts3ra.domain.Flow` only
where a plane takes one: the request for the scheduler queue, the flow for
the AP's classifier and for a rebalance plan.

A sink takes text as ``TextIO.write`` does: each call gets one or more whole
lines, each ending in a newline, so a file's ``write`` is a sink.  Times in
trace and migration rows are integer microseconds written as seconds with
six decimals, the text of ``f"{t / 1e6:.6f}"`` for every ``t`` below 2**52.

No event is scheduled after the horizon (``Engine.end_us``), so no control
work starts after it; packets in flight at the horizon drain at the end of
the run.

Set-up registers the devices in device order, one
:func:`~ts3ra.auth.register_device` call each, and keeps each record's key
by its input.  A key is a pure function of its input, so each AUTH event
looks its presented key up and derives only an input that no record has:
that of a device that enrolled under another password, which is rejected.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from . import auth as auth_mod
from . import ddos as ddos_mod
from . import hopfield as hop_mod
from . import offload as off_mod
from . import sched as sched_mod
from . import slicenet as sn_mod
from .dataplane import DataPlane, InvariantViolation
from .domain import (
    SLICE_ORDER,
    SLICE_VALUES,
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
from .scenario import Scenario, ScenarioError, to_us

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

TRACE_HEADER = "time,kind,device,slice,switch,outcome"
DETECTION_HEADER = "window_start,switch_id,h_source,h_interarrival,h_size,verdict,blocked_sources"
MIGRATION_HEADER = "time,flow_id,from_switch,to_switch,reason"


# Kinds that neither read packet state nor write trace rows: the data plane
# does not run before them (see ``Engine.step_event``).
_BLIND_KINDS = frozenset({SCHEDULE_SLOT, MOBILITY_TICK})
# Kinds that read no packet state but write trace rows: blind in a run
# without a trace.
_TRACE_ONLY_KINDS = frozenset({ARRIVAL, AUTH, SLICE_DECIDE})


def seconds_text(us: int) -> str:
    """``us`` microseconds as seconds with six decimals."""
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def _load_model(path: str) -> sn_mod.SliceNetModel:
    """The slice-selection model saved at ``path``; a file the engine cannot
    use is a scenario error that names ``model_path``."""
    from .serialization import ContainerFormatError, load_slicenet

    try:
        model = load_slicenet(path)
    except (OSError, ContainerFormatError) as exc:
        raise ScenarioError(f"model_path: cannot load {path!r}: {exc}") from None
    if model.n_features != sn_mod.DEFAULT_N_FEATURES:
        raise ScenarioError(
            f"model_path: {path!r} takes {model.n_features} features, "
            f"the engine gives {sn_mod.DEFAULT_N_FEATURES}"
        )
    return model


def _password(device_id: str) -> bytes:
    """The password device ``device_id`` enrolls with and presents."""
    return f"pw-{device_id}".encode()


# Takes one or more whole lines, each ending in a newline (see the module
# docstring).
Sink = Callable[[str], object]


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
        self.coeffs = off_mod.WeightCoefficients(
            alpha=scenario.offload_alpha,
            beta=scenario.offload_beta,
            gamma=scenario.offload_gamma,
        )
        self.clock_us = 0
        # Control events (see :meth:`step_event`).
        self.heap: list = []
        self.seq = 0
        self.trace_sink = trace_sink
        self.detection_sink = detection_sink
        self.migration_sink = migration_sink
        for sink, header in (
            (trace_sink, TRACE_HEADER),
            (detection_sink, DETECTION_HEADER),
            (migration_sink, MIGRATION_HEADER),
        ):
            if sink is not None:
                sink(header + "\n")

        self._rng_sched = self.hub.substream("sched")
        self._rng_auth = self.hub.substream("auth")

        self.counters = {st: SliceCounters() for st in ServiceType}
        self.auth_accepted = 0
        self.auth_rejected = 0
        self.migrations = 0
        self.rebalances = 0
        self.attack_windows = 0
        self.queue_dropped = 0
        self.loss_curve = None

        floods = self._build_world(model)
        self.dp = DataPlane(
            scenario, self.hub, self.device_ids, floods,
            self.switch_ids,
            [self.counters[st] for st in SLICE_ORDER], trace_sink,
        )
        # Devices not yet rejected, dropped at the queue or allocated; once
        # none is left no allocation follows, so nothing reads positions.  At
        # the end of a run, the pending count: devices not yet arrived, still
        # queued, or waiting for a slice decision or an allocation.
        self.unfinished = scenario.devices
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

    def _build_world(self, model) -> np.ndarray:
        """Build the devices, switches, scheduler, model and pools; return
        which devices flood: the illegitimate ones that are not forged."""
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
        )
        self.waypoints = np.column_stack(
            [
                rng_world.uniform(0, sc.area_width, size=n),
                rng_world.uniform(0, sc.area_height, size=n),
            ]
        )
        self.speeds = rng_world.uniform(sc.speed_min, sc.speed_max, size=n)
        fair_slas = rng_world.uniform(0.7, 1.0, size=n)

        mix = [sc.mix_fraction(st) for st in SLICE_ORDER]
        services = rng_world.choice(len(mix), size=n, p=mix)

        self.vap = auth_mod.VirtualAuthorityPool()
        rng_puf = self.hub.substream("puf")
        self.fair_slas = fair_slas
        # per-device facts, indexed by device (see the module docstring)
        self.device_ids = [f"d{i:04d}" for i in range(n)]
        self.index_of = {device_id: i for i, device_id in enumerate(self.device_ids)}
        self.claimed = [
            ServiceType.MMTC if i in illegit else SLICE_ORDER[services[i]] for i in range(n)
        ]
        self.decided: list[Optional[ServiceType]] = [None] * n
        self.arrival_us = [0] * n
        self.pufs: list[auth_mod.SimulatedPuf] = []
        # each record's key by its key-derivation input (see the module
        # docstring)
        self.key_of: dict[auth_mod.KeyDerivationParams, bytes] = {}
        for i, device_id in enumerate(self.device_ids):
            puf = auth_mod.SimulatedPuf(bytes(rng_puf.integers(0, 256, size=32, dtype=np.uint8)))
            self.pufs.append(puf)
            if i not in forged:
                va = self.vap.authority_for(device_id)
                record = auth_mod.register_device(
                    va, device_id, _password(device_id), puf, rng_puf
                )
                self.key_of[record.params] = record.derived_key

        # switches; the data plane keeps a switch's packet state in its
        # per-switch arrays, row j
        self.switch_ids = [f"SW{j}" for j in range(sc.switches)]
        self.switch_index = {switch_id: j for j, switch_id in enumerate(self.switch_ids)}
        # the profile every switch has, at no load; a rebalance plan takes a
        # copy per switch, named and loaded
        self.switch_profile = SwitchProfile(
            switch_id="",
            service_capacity=sc.switch_service_capacity,
            transmission_rate=sc.switch_transmission_rate,
            loss_rate=sc.switch_loss_rate,
        )
        # each switch's benign windows' entropy triples, the oldest dropped
        # past four baselines
        self.baselines: list[deque[tuple[float, float, float]]] = [
            deque(maxlen=4 * sc.baseline_windows) for _ in self.switch_ids
        ]

        # per-column upper bounds of a position
        self.area = np.array([sc.area_width, sc.area_height])

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
        self.slot_us = to_us(sc.slot_duration)

        if model is not None:
            self.model = model
        elif sc.model_path:
            self.model = _load_model(sc.model_path)
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
        n_legit = n - n_illegit
        expected = {st: n_legit * sc.mix_fraction(st) for st in ServiceType}
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
        return np.array([i in illegit and i not in forged for i in range(n)], bool)

    def _seed_events(self) -> None:
        sc = self.sc
        rng_arrivals = self.hub.substream("arrivals")
        window = sc.arrival_window * sc.duration
        for di in range(sc.devices):
            self._push(to_us(float(rng_arrivals.uniform(0.0, window))), ARRIVAL, di)
        if sc.devices:
            self._push(to_us(sc.tick_interval), MOBILITY_TICK, None)
        if sc.ddos_enabled:
            self._push(to_us(sc.window_duration), WINDOW_CLOSE, None)
        if sc.offload_enabled:
            self._push(to_us(sc.rebalance_interval), REBALANCE, None)

    # -- event plumbing --------------------------------------------------------

    def _push(self, time_us: int, kind: int, payload) -> None:
        """Schedule a control event on ``heap``.

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
        heapq.heappush(self.heap, (time_us, kind, self.seq, payload))

    def _trace(self, kind: int, device: str, slice_id: str, switch: str, outcome: str) -> None:
        if self.trace_sink is not None:
            self.trace_sink(
                f"{seconds_text(self.clock_us)},{KIND_NAMES[kind]},"
                f"{device},{slice_id},{switch},{outcome}\n"
            )

    def step_event(self, event: tuple) -> None:
        """Process a single (time_us, kind, seq, payload) control event.

        Unless the event is one of ``_BLIND_KINDS``, which neither read packet
        state nor write trace rows, or of ``_TRACE_ONLY_KINDS`` in a run
        without a trace, the data plane first runs every packet that sorts
        before it and applies every outcome that does.  At equal times,
        packets and outcomes sort after the kinds ranked below TRANSMIT and
        before those ranked above DROP.
        """
        time_us, kind, _, payload = event
        if time_us < self.clock_us:
            raise InvariantViolation("time regression in event stream")
        if not (kind in _BLIND_KINDS or (kind in _TRACE_ONLY_KINDS and self.trace_sink is None)):
            self.dp.run(time_us + 1 if kind > DROP else time_us)
        self.clock_us = time_us
        self._handlers[kind](payload)

    def run(self) -> MetricsReport:
        heap, pop, step = self.heap, heapq.heappop, self.step_event
        while heap:
            step(pop(heap))
        return self.collect_metrics()

    # -- handlers ---------------------------------------------------------------

    def _packet_on_event_heap(self, payload) -> None:
        raise InvariantViolation(f"packet event {payload!r} on the event heap")

    def _on_arrival(self, di: int) -> None:
        self.arrival_us[di] = self.clock_us
        self._trace(ARRIVAL, self.device_ids[di], "", "", "request")
        self._push(self.clock_us + to_us(self.sc.auth_delay), AUTH, di)

    def _on_auth(self, di: int) -> None:
        device_id = self.device_ids[di]
        now_s = self.clock_us / 1e6

        def presented_key(params: auth_mod.KeyDerivationParams) -> bytes:
            presented = replace(params, password=_password(device_id))
            return self.key_of.get(presented) or auth_mod.derive_key(presented)

        verdict = auth_mod.authenticate(
            self.vap.holder_of(device_id),
            device_id,
            presented_key,
            timestamp=now_s,
            puf_response=self.pufs[di].respond,
            now=now_s,
            rng=self._rng_auth,
            freshness_window=self.sc.freshness_window,
        )
        if not verdict.accepted:
            self.auth_rejected += 1
            self.unfinished -= 1
            self._trace(AUTH, device_id, "", "", f"rejected:{verdict.reason.value}")
            return
        self.auth_accepted += 1
        service = self.claimed[di]
        request = SliceRequest(origin=device_id, demand_slots=self.sc.demand_slots(service))
        # The AP classifies on the requested flow's parameters.
        cls = sched_mod.classify_flow(self._make_flow(di, service, self.sc.nominal_flow_rate))
        # A slot is pending exactly while the server is not idle.
        was_idle = self.qstate.phase == sched_mod.GAMMA_IDLE
        accepted = sched_mod.enqueue(self.qstate, request, cls, self.qconfig)
        self._trace(
            AUTH,
            device_id,
            service.slice_id,
            "",
            f"accepted:{cls.value}" if accepted else "queue_full",
        )
        if not accepted:
            self.queue_dropped += 1
            self.unfinished -= 1
            return
        if was_idle:
            self._push(self.clock_us + self.slot_us, SCHEDULE_SLOT, None)

    def _on_schedule_slot(self, _payload=None) -> None:
        result = sched_mod.step_slot(self.qstate, self.qconfig, self._rng_sched)
        decide_us = self.clock_us + to_us(self.sc.decision_delay)
        for request in result.completions:
            self._push(decide_us, SLICE_DECIDE, self.index_of[request.origin])
        if self.qstate.n_in_system > 0 or self.qstate.phase == sched_mod.GAMMA_VACANT:
            self._push(self.clock_us + self.slot_us, SCHEDULE_SLOT, None)

    def _features_for(self, di: int) -> sn_mod.SliceFeatureVector:
        service = self.claimed[di]
        pool = self.pools[service]
        initial = self.pool_initial[service]
        capacity = min(max(pool.communication / initial, 0.0), 1.0) if initial else 0.0
        imsi_norm = (stable_imsi(self.device_ids[di]) % (2**32)) / 2**32
        mobility = 0.0
        span = self.sc.speed_max - self.sc.speed_min
        if span > 0:
            mobility = (float(self.speeds[di]) - self.sc.speed_min) / span
        return sn_mod.SliceFeatureVector(
            service_type=service,
            fair_sla=float(self.fair_slas[di]),
            imsi_hash=imsi_norm,
            capacity=capacity,
            mobility=min(max(mobility, 0.0), 1.0),
        )

    def _make_flow(self, di: int, service: ServiceType, rate: float) -> Flow:
        return Flow(
            flow_id=f"{self.device_ids[di]}-f",
            slice=service,
            rate=rate,
            packet_delay=self.sc.delay_bound(service),
        )

    def _on_slice_decide(self, di: int) -> None:
        decision = sn_mod.select_slice(self.model, self._features_for(di))
        decided = self.decided[di] = decision.service
        self.counters[decided].requests += 1
        self._trace(
            SLICE_DECIDE,
            self.device_ids[di],
            decided.slice_id,
            "",
            f"confidence={decision.confidence:.4f}",
        )
        self._push(self.clock_us + to_us(self.sc.decision_delay), ALLOCATE, di)

    def _sinr_db(self, di: int) -> float:
        pos = self.positions[di]
        d = float(np.min(np.linalg.norm(self.ap_positions - pos, axis=1)))
        return float(min(max(50.0 - 15.0 * math.log10(max(d, 1.0)), 0.0), 50.0))

    def _on_allocate(self, di: int) -> None:
        device_id = self.device_ids[di]
        self.unfinished -= 1
        service = self.decided[di]
        elapsed = max(self.clock_us / 1e6, 1e-9)
        c = self.counters[service]
        request = hop_mod.AllocationRequest(
            slice_indicator=service.indicator,
            sinr=self._sinr_db(di),
            throughput=c.delivered_bits / elapsed,
            fair_sla=float(self.fair_slas[di]),
            slice_capacity=self.pool_initial[service],
            arrival_rate=self.auth_accepted / elapsed,
            slice_value=SLICE_VALUES[service],
            demand_slots=self.sc.demand_slots(self.claimed[di]),
        )
        try:
            alloc = self.allocator.allocate_resources(request, self.pools[service])
        except hop_mod.PoolExhaustedError:
            c.rejected += 1
            self._trace(ALLOCATE, device_id, service.slice_id, "", "rejected:pool")
            return
        c.granted += 1
        c.granted_comm += alloc.communication
        c.response_sum += (self.clock_us - self.arrival_us[di]) / 1e6

        j = self._assign_switch(di)
        if j is None:
            self._trace(ALLOCATE, device_id, service.slice_id, "", "unroutable")
            return
        self._trace(ALLOCATE, device_id, service.slice_id, self.switch_ids[j], "granted")
        remaining_s = (self.end_us - self.clock_us) / 1e6
        c.flow_active_bps_seconds += self.sc.nominal_flow_rate * remaining_s
        phase = float(self.hub.substream("phase").uniform(0.0, self.sc.packet_interval))
        reliable = self.sc.protocol(service) is Protocol.RELIABLE_STREAM
        self.dp.start(di, self.clock_us + to_us(phase), reliable, SLICE_ORDER.index(service))

    def _assign_switch(self, di: int) -> Optional[int]:
        """Place device ``di`` on the first switch of largest edge weight with
        room for its flow and return its index; None if no switch has room.

        A switch's nominal load is its devices in ``sw_of`` at the flow rate
        (see the module docstring), so switches with as many devices weigh
        the same, and each distinct count is weighed once.
        """
        sw_of = self.dp.sw_of
        counts = np.bincount(sw_of[sw_of >= 0], minlength=len(self.switch_ids)).tolist()
        profile, rate = self.switch_profile, self.sc.nominal_flow_rate
        weight = {
            n: off_mod.edge_weight(profile.with_load(n * rate), self.coeffs)
            for n in set(counts)
            if rate <= profile.service_capacity - n * rate
        }
        best = max(
            (j for j, n in enumerate(counts) if n in weight),
            key=lambda j: weight[counts[j]],
            default=None,
        )
        if best is not None:
            self.dp.place(di, best)
        return best

    # -- detection -----------------------------------------------------------

    def _on_window_close(self, _payload=None) -> None:
        sc = self.sc
        window_us = to_us(sc.window_duration)
        start = seconds_text(self.clock_us - window_us)
        for switch_id, baseline, window in zip(
            self.switch_ids, self.baselines, self.dp.close_window()
        ):
            blocked: list[str] = []
            if window.packet_count < sc.min_packets:
                verdict = ddos_mod.VERDICT_INCONCLUSIVE
                triple = ddos_mod.window_entropies(window, sc.ddos_alpha)
            elif len(baseline) < sc.baseline_windows:
                verdict = "learning"
                triple = ddos_mod.window_entropies(window, sc.ddos_alpha)
                baseline.append(triple)
            else:
                report = ddos_mod.classify_window(
                    window,
                    ddos_mod.BaselineStats.from_triples(baseline),
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
                        self.dp.quarantine(self.index_of[dev_id])
                else:
                    baseline.append(triple)
            if self.detection_sink is not None:
                self.detection_sink(
                    f"{start},{switch_id},"
                    f"{triple[0]:.6f},{triple[1]:.6f},{triple[2]:.6f},"
                    f"{verdict},{';'.join(blocked)}\n"
                )
        self._push(self.clock_us + window_us, WINDOW_CLOSE, None)

    # -- rebalancing -----------------------------------------------------------

    def _on_rebalance(self, _payload=None) -> None:
        sc = self.sc
        interval = sc.rebalance_interval
        bits_of = self.dp.close_interval()
        # each switch's bits, the sum of its devices' (exact below 2**53)
        sw_of = self.dp.sw_of
        placed = sw_of >= 0
        load = np.bincount(sw_of[placed], weights=bits_of[placed], minlength=len(self.switch_ids))
        measured = (load / interval).tolist()
        capacity = self.switch_profile.service_capacity
        overloaded = [j for j, rate in enumerate(measured) if rate > capacity]
        bits = bits_of.tolist()
        for trigger in overloaded:
            planned = self._plan_rebalance(trigger, measured, bits)
            if planned is None:
                continue
            plan, device_of = planned
            for mig in plan.migrations:
                di = device_of[mig.flow_id]
                self.dp.place(di, self.switch_index[mig.to_switch])
                self.migrations += 1
                if self.migration_sink is not None:
                    self.migration_sink(
                        f"{seconds_text(self.clock_us)},{mig.flow_id},{mig.from_switch},"
                        f"{mig.to_switch},overload\n"
                    )
                self._trace(
                    REBALANCE,
                    self.device_ids[di],
                    self.decided[di].slice_id,
                    mig.to_switch,
                    f"migrated_from:{mig.from_switch}",
                )
            if plan.migrations:
                self.rebalances += 1
        self._push(self.clock_us + to_us(interval), REBALANCE, None)

    def _plan_rebalance(self, trigger: int, measured: list[float], bits_of: list[int]):
        """Switch ``trigger``'s rebalance plan and each planned flow's device
        index; ``measured`` holds each switch's measured load and ``bits_of``
        each device's bits in this interval.  A flow that sent nothing in the
        interval counts at the nominal rate."""
        interval = self.sc.rebalance_interval
        flows = []
        current = {}
        device_of: dict[str, int] = {}
        trigger_id = self.switch_ids[trigger]
        for di in np.flatnonzero(self.dp.sw_of == trigger).tolist():
            if self.dp.is_quarantined[di]:
                continue
            rate = bits_of[di] / interval
            flow = self._make_flow(
                di, self.decided[di], rate if rate > 0 else self.sc.nominal_flow_rate
            )
            flows.append(flow)
            current[flow.flow_id] = trigger_id
            device_of[flow.flow_id] = di
        if not flows:
            return None
        profiles = [
            replace(self.switch_profile, switch_id=switch_id, current_load=load)
            for switch_id, load in zip(self.switch_ids, measured)
        ]
        plan = off_mod.rebalance(profiles, flows, current, trigger_id, self.coeffs)
        return plan, device_of

    # -- mobility ----------------------------------------------------------------

    def _on_mobility_tick(self, _payload=None) -> None:
        sc = self.sc
        dt = sc.tick_interval
        delta = self.waypoints - self.positions
        dist = np.linalg.norm(delta, axis=1)
        step = self.speeds * dt
        arrived = dist <= step
        # A device that has not arrived is at a positive distance, since
        # ``step >= 0``; the others move by 0 and are overwritten below.
        scale = np.divide(step, dist, out=np.zeros_like(dist), where=~arrived)
        self.positions += delta * scale[:, None]
        n_arrived = int(np.count_nonzero(arrived))
        if n_arrived:
            self.positions[arrived] = self.waypoints[arrived]
            rng = self.hub.substream("waypoints")
            self.waypoints[arrived] = np.column_stack(
                [
                    rng.uniform(0, sc.area_width, size=n_arrived),
                    rng.uniform(0, sc.area_height, size=n_arrived),
                ]
            )
        np.clip(self.positions, 0.0, self.area, out=self.positions)
        if self.unfinished:
            self._push(self.clock_us + to_us(dt), MOBILITY_TICK, None)

    # -- reporting ----------------------------------------------------------------

    def collect_metrics(self) -> MetricsReport:
        self.dp.run(math.inf)
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
            generated=self.dp.generated,
            migrations=self.migrations,
            rebalances=self.rebalances,
            quarantined_sources=int(np.count_nonzero(self.dp.is_quarantined)),
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
