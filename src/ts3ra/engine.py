"""Deterministic discrete-event simulation of the full pipeline.

One run drives: device admission at the access point, dual-queue request
scheduling, neural slice selection, associative-memory resource
allocation, packet transmission across assigned switches, windowed
entropy-based flood detection with quarantine, and measured-overload flow
rebalancing.  The clock is integer microseconds; events are processed in
(time, kind rank, sequence) order, so a fixed scenario and seed reproduce
the run bit for bit.

The event heap holds only control events.  Packets form the data plane,
which runs in batches just before each event that reads packet state or
writes trace rows, and at the end of the run; scheduler slots and mobility
ticks do neither and pass it by.  Packets are taken in a canonical order,
(time, device index, retransmit), which does not depend on where the run
is cut into batches:

- a batch builds its new transmits with NumPy from each device's next send
  time and interval, and draws each one's size, loss and retransmit loss
  from the ``sizes``, ``loss`` and ``retransmit-loss`` streams, one value
  each per transmit in canonical order (the counter-based idea of Salmon
  et al., SC 2011: a draw depends on the packet's place, not on the cut);
- one scalar pass per switch applies its FIFO: the backlog, the overflow
  bound, and retransmits inserted ``retransmit_delay`` after a failure;
- window counts, per-flow bits and slice counters are folded from the
  batch's arrays;
- outcomes (deliveries and drops) are held as arrays and applied, in
  (time, kind, packet) order, before the next event that reads them.  A
  delivery whose source was quarantined in the meantime is dropped then.
  An application writes all its trace rows in one sink call, formatted with
  NumPy from integer microseconds and a per-(outcome, device) table of row
  suffixes that each device keeps current as its slice and switch change.

A run's artifacts are therefore the same whether the data plane runs
before every event or only before the readers, and whatever the batch size.

Per-device state that the data plane reads lives in the engine's arrays, one
entry per device: its switch (``sw_of``), its slice's index (``slice_of``),
whether it floods and whether it is quarantined.  A switch's flows are the
devices whose ``sw_of`` is its index, and a device's counters are its slice's
in ``Engine.counters``; no second copy of either is kept.

A sink takes text as ``TextIO.write`` does: each call gets one or more whole
lines, each ending in a newline, so a file's ``write`` is a sink.  Times in
trace and migration rows are integer microseconds written as seconds with
six decimals, the text of ``f"{t / 1e6:.6f}"`` for every ``t`` below 2**52.

No event is scheduled after the horizon (``Engine.end_us``), so no control
work starts after it; packets in flight at the horizon drain at the end of
the run.

Set-up enrolls the devices on the main thread, in device order, so the
``puf`` stream is drawn as one registration at a time would draw it, and
draws every arrival time.  Every PBKDF2 derivation then runs on one second
thread, ``ts3ra-pbkdf2``: first the registration keys, in device order,
while the slice selector trains on the main thread; then each enrolled
device's presented key, one derivation of the password it presents under
its record's inputs, in the order the AUTH events need them (by arrival
time, then by device).  Set-up waits only for the registration keys and
stores their records before the first event; each AUTH event waits only for
its own device's key, which is used once, and nothing is cached by password
or by inputs.  Only the derivations move: OpenSSL releases the GIL while it
stretches a key, whereas the draws, HMACs and stores are Python, which would
wait on the GIL behind training.  The thread takes the GIL back only between
derivations, at the interpreter's switch interval while the main thread runs
Python, so the presented keys are derived mostly in the tail of training,
where the GEMMs release the GIL; arrival order puts the keys needed first
there.  ``collect_metrics`` joins the thread once every key is derived and
raises a derivation's error; set-up or a run that fails stops and joins it.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import deque
from dataclasses import replace
from itertools import chain
from typing import Callable, Optional

import numpy as np

from . import auth as auth_mod
from . import ddos as ddos_mod
from . import hopfield as hop_mod
from . import offload as off_mod
from . import sched as sched_mod
from . import slicenet as sn_mod
from .domain import (
    SLICE_ORDER,
    SLICE_VALUES,
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
# Most new transmits in one data-plane batch, which bounds its arrays when
# no reader comes for a long time (detection and offload off).
BATCH_PACKETS = 4096

# A packet's outcome: delivered, or dropped for a reason.  REFUSED is a new
# packet of a quarantined source, stopped at the AP and never in flight.
OK, LOSS, OVERFLOW, QUARANTINED, REFUSED = range(5)
# The kind and the outcome cells of each code's trace rows, with their commas.
_OUTCOME_CELLS = (
    (",deliver,", ",ok"),
    (",drop,", ",loss"),
    (",drop,", ",overflow"),
    (",drop,", ",quarantined"),
    (",drop,", ",quarantined"),
)
# The FIFO pass's mark for a failed packet that is sent again.
_RETRIED = -len(_OUTCOME_CELLS)
# ``next_us`` of a device that sends no more new packets.
_NEVER = np.iinfo(np.int64).max


def _words(texts) -> np.ndarray:
    """Four-byte ``texts`` as 32-bit words, in memory order."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


# Each number below 1000 as a word of trace text, a NUL standing for nothing:
# three digits then a NUL; without leading zeros, and no digit at all for 0;
# the same, but "0" for 0; a point then three digits.
_FULL = _words(f"{i:03d}\0" for i in range(1000))
_LEAD = _words(str(i or "").rjust(3, "\0") + "\0" for i in range(1000))
_LEAD_LAST = _words(str(i).rjust(3, "\0") + "\0" for i in range(1000))
_POINT = _words(f".{i:03d}" for i in range(1000))


class InvariantViolation(RuntimeError):
    """An engine-internal consistency rule was broken."""


def seconds_text(us: int) -> str:
    """``us`` microseconds as seconds with six decimals."""
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def rows_text(time: np.ndarray, suffixes: np.ndarray) -> str:
    """One line per time in ``time`` (microseconds): the time as
    :func:`seconds_text` writes it, then row ``i`` of ``suffixes``, words of
    text padded with NULs."""
    ms, lo = np.divmod(time, 1000)
    sec, hi = np.divmod(ms, 1000)
    # the seconds in groups of three digits, the most significant first
    groups = [sec]
    while groups[0].max() >= 1000:
        groups[:1] = np.divmod(groups[0], 1000)
    n_sec = len(groups)
    text = np.empty((len(time), n_sec + 2 + suffixes.shape[1]), dtype=np.uint32)
    text[:, 0] = (_LEAD_LAST if n_sec == 1 else _LEAD).take(groups[0])
    for g in range(1, n_sec):
        # a group after a digit keeps its leading zeros
        lead = _LEAD_LAST if g == n_sec - 1 else _LEAD
        after = sec >= 1000 ** (n_sec - g)
        text[:, g] = np.where(after, _FULL.take(groups[g]), lead.take(groups[g]))
    text[:, n_sec] = _POINT.take(hi)
    text[:, n_sec + 1] = _FULL.take(lo)
    text[:, n_sec + 2 :] = suffixes
    text = text.view(np.uint8)
    return text[text != 0].tobytes().decode()


class _RowSuffixes:
    """Per outcome code and device, row ``code * n_dev + device`` of
    ``cells``: what follows the time in the device's outcome rows,
    ``,kind,tag,outcome`` and a newline, as words of text padded with NULs."""

    __slots__ = ("n_dev", "cells")

    def __init__(self, n_dev: int):
        self.n_dev = n_dev
        self.cells = np.zeros((len(_OUTCOME_CELLS) * n_dev, 0), dtype=np.uint32)

    def set(self, di: int, tag: str) -> None:
        rows = [f"{kind}{tag}{outcome}\n".encode() for kind, outcome in _OUTCOME_CELLS]
        grow = -(-max(map(len, rows)) // 4) - self.cells.shape[1]  # in whole words
        if grow > 0:
            self.cells = np.pad(self.cells, ((0, 0), (0, grow)))
        width = 4 * self.cells.shape[1]
        block = b"".join(row.ljust(width, b"\0") for row in rows)
        self.cells[di :: self.n_dev] = np.frombuffer(block, dtype=np.uint32).reshape(len(rows), -1)

    def of(self, code: np.ndarray, di: np.ndarray) -> np.ndarray:
        """The suffix of each (code, device) pair, a row each."""
        return self.cells.take(code * self.n_dev + di, axis=0)


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


class _KeyWorker:
    """The ``ts3ra-pbkdf2`` thread and the keys it derives: the registration
    keys, in device order, then one presented key per enrolled device, in
    the order given (see the module docstring)."""

    def __init__(
        self,
        registration: list[auth_mod.KeyDerivationParams],
        presented: dict[int, auth_mod.KeyDerivationParams],
    ):
        self.jobs = [*registration, *presented.values()]
        self.n_registration = len(registration)
        # each device's place in ``jobs``, removed when its key is taken
        self._place = {di: self.n_registration + k for k, di in enumerate(presented)}
        self.keys: list[bytes] = []  # derived so far, in the order of ``jobs``
        self.error: Optional[BaseException] = None
        self.stopped = False
        self.ended = False
        self.ready = threading.Condition()
        self.thread = threading.Thread(target=_derive_keys, args=(self,), name="ts3ra-pbkdf2")
        self.thread.start()

    def _wait(self, n: int) -> None:
        """Wait until the first ``n`` keys are derived."""
        if len(self.keys) >= n:
            return
        with self.ready:
            self.ready.wait_for(lambda: len(self.keys) >= n or self.ended)
        if len(self.keys) < n:
            raise self.error or InvariantViolation("key derivation stopped")

    def registration_keys(self) -> list[bytes]:
        self._wait(self.n_registration)
        return self.keys[: self.n_registration]

    def presented(self, di: int) -> bytes:
        """Device ``di``'s presented key; each is taken once."""
        place = self._place.pop(di)
        self._wait(place + 1)
        return self.keys[place]

    def finish(self) -> None:
        """Join the thread once it has derived every key; raise its error."""
        self.thread.join()
        if self.error is not None:
            raise self.error

    def close(self) -> None:
        """Stop the thread after its current derivation and join it."""
        self.stopped = True
        self.thread.join()


def _derive_keys(worker: _KeyWorker) -> None:
    """Body of the ``ts3ra-pbkdf2`` thread: derives ``worker.jobs`` in order
    until it is stopped or a derivation fails, and keeps the error for the
    main thread to raise."""
    try:
        for params in worker.jobs:
            if worker.stopped:
                break
            key = auth_mod.derive_key(params)
            with worker.ready:
                worker.keys.append(key)
                worker.ready.notify()
    except BaseException as exc:
        worker.error = exc
    finally:
        with worker.ready:
            worker.ended = True
            worker.ready.notify()


def size_index(u: np.ndarray) -> np.ndarray:
    """Size index 0, 1 or 2 (half, full or double the packet length) of each
    draw in ``u``, with probabilities 1/4, 1/2, 1/4.

    For the same draws these are the values of
    ``rng.choice([length // 2, length, length * 2], p=[0.25, 0.5, 0.25])``,
    which bisects the CDF with one ``random()`` draw.
    """
    return (u >= 0.25) + (u >= 0.75).astype(np.int64)


class _DeviceRt:
    """Mutable per-device simulation state."""

    __slots__ = (
        "index",
        "device",
        "password",
        "puf",
        "claimed",
        "_decided",
        "forged",
        "request",
        "flow",
        "sw",
        "_sw_of",
        "_suffixes",
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
        sw_of: np.ndarray,
        suffixes: _RowSuffixes,
    ):
        self.index = index
        self.device = device
        self.password = password
        self.puf = puf
        self.claimed = claimed
        # the engine's switch index of every device, kept for the data plane
        self._sw_of = sw_of
        # the engine's trace row suffixes, kept for the data plane
        self._suffixes = suffixes
        self.sw: Optional[_SwitchRt] = None
        self.decided = None
        self.forged = forged
        self.request = None
        self.flow: Optional[Flow] = None
        self.arrival_us = 0

    @property
    def decided(self) -> Optional[ServiceType]:
        """The slice the controller decided; None before the decision."""
        return self._decided

    @decided.setter
    def decided(self, service: Optional[ServiceType]) -> None:
        self._decided = service
        self._retag()

    def place(self, sw: "_SwitchRt") -> None:
        """Route this device's packets through ``sw``."""
        self.sw = sw
        self._sw_of[self.index] = sw.index
        self._retag()

    def _retag(self) -> None:
        # The device,slice,switch part of this device's outcome rows.
        service = self._decided or self.claimed
        switch_id = self.sw.profile.switch_id if self.sw else ""
        tag = f"{self.device.device_id},{service.slice_id},{switch_id}"
        self._suffixes.set(self.index, tag)


class _SwitchRt:
    """Mutable per-switch control state; the data plane keeps its packet
    state in the engine's per-switch arrays, row ``index``."""

    __slots__ = ("index", "profile", "nominal_load", "baseline_triples")

    def __init__(self, index: int, profile: SwitchProfile):
        self.index = index
        self.profile = profile
        self.nominal_load = 0.0
        self.baseline_triples: list[tuple[float, float, float]] = []


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
        # Per-packet times, rounded once here instead of on every packet.
        self.packet_interval_us = to_us(scenario.packet_interval)
        self.flood_packet_interval_us = to_us(scenario.flood_packet_interval)
        self.flood_start_us = to_us(scenario.flood_start)
        self.queue_delay_bound_us = to_us(scenario.queue_delay_bound)
        self.processing_latency_us = to_us(scenario.processing_latency)
        self.retransmit_delay_us = to_us(scenario.retransmit_delay)
        # Inner edges of the detection windows' inter-arrival bins.
        self.ia_edges = np.array(ddos_mod.interarrival_inner_edges(scenario.window_duration))
        # Packet sizes by size index, with their bits and link times; every
        # switch has the same rate.
        length, rate = scenario.packet_length, scenario.switch_transmission_rate
        self.sizes = (length // 2, length, length * 2)
        self.size_bits = np.array([size * 8 for size in self.sizes])
        self.size_tx_us = np.array([int(round(size * 8 / rate * 1e6)) for size in self.sizes])
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

        self._rng_sizes = self.hub.substream("sizes")
        self._rng_loss = self.hub.substream("loss")
        self._rng_retx = self.hub.substream("retransmit-loss")
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
        self.loss_curve = None

        self._keys: Optional[_KeyWorker] = None
        try:
            self._build_world(model)
            self.device_ids = [rt.device.device_id for rt in self.dev]
            self._init_data_plane()
            # Devices not yet rejected, dropped at the queue or allocated;
            # once none is left no allocation follows, so nothing reads
            # positions.  At the end of a run, the pending count: devices not
            # yet arrived, still queued, or waiting for a slice decision or
            # an allocation.
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
        except BaseException:
            if self._keys is not None:
                self._keys.close()
            raise

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

        mix = [sc.mix_fraction(st) for st in SLICE_ORDER]
        services = rng_world.choice(len(mix), size=n, p=mix)

        self.vap = auth_mod.VirtualAuthorityPool()
        rng_puf = self.hub.substream("puf")
        self.dev: list[_DeviceRt] = []
        self.dev_by_id: dict[str, _DeviceRt] = {}
        # each device's switch index, -1 before it is placed
        self.sw_of = np.full(n, -1, dtype=np.int64)
        self.suffixes = _RowSuffixes(n)
        self.fair_slas = fair_slas
        enrolled = []  # (authority, device, key-derivation inputs)
        for i in range(n):
            device_id = f"d{i:04d}"
            legitimate = i not in illegit
            claimed = SLICE_ORDER[services[i]] if legitimate else ServiceType.MMTC
            device = Device(
                device_id=device_id,
                imsi=stable_imsi(device_id),
                speed=float(self.speeds[i]),
                legitimate=legitimate,
            )
            password = f"pw-{device_id}".encode()
            puf = auth_mod.SimulatedPuf(bytes(rng_puf.integers(0, 256, size=32, dtype=np.uint8)))
            rt = _DeviceRt(
                i, device, password, puf, claimed, i in forged, self.sw_of, self.suffixes
            )
            if not rt.forged:
                va = self.vap.authority_for(device_id)
                params = auth_mod.enroll_device(va, device_id, password, puf, rng_puf)
                enrolled.append((va, rt, params))
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
            rt = _SwitchRt(j, profile)
            self.switches.append(rt)
            self.sw_by_id[profile.switch_id] = rt

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
        self.sched_active = False
        self.slot_us = to_us(sc.slot_duration)

        # each device's arrival, drawn now: the presented keys are derived
        # in the order of the AUTH events, by arrival then by device
        rng_arrivals = self.hub.substream("arrivals")
        window = sc.arrival_window * sc.duration
        self.arrivals_us = [to_us(float(rng_arrivals.uniform(0.0, window))) for _ in range(n)]
        by_arrival = sorted(enrolled, key=lambda e: (self.arrivals_us[e[1].index], e[1].index))
        # the enrolled devices' keys, derived on a second thread while the
        # slice-selection model trains on this one (see the module docstring)
        self._keys = _KeyWorker(
            [params for _, _, params in enrolled],
            {rt.index: replace(params, password=rt.password) for _, rt, params in by_arrival},
        )
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
        keys = self._keys.registration_keys()
        for (va, rt, params), key in zip(enrolled, keys):
            auth_mod.store_registration(va, rt.device.device_id, params, key)

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

    def _seed_events(self) -> None:
        sc = self.sc
        for di, t in enumerate(self.arrivals_us):
            self._push(t, ARRIVAL, di)
        if sc.devices:
            self._push(to_us(sc.tick_interval), MOBILITY_TICK, None)
        if sc.ddos_enabled:
            self._push(to_us(sc.window_duration), WINDOW_CLOSE, None)
        if sc.offload_enabled:
            self._push(to_us(sc.rebalance_interval), REBALANCE, None)

    def _init_data_plane(self) -> None:
        n, m = len(self.dev), len(self.switches)
        # Per device: the time of its next new transmit, whether it floods
        # (sends at the flood interval once flooding starts), whether it sends
        # a failed packet once more, its slice's index in SLICE_ORDER, and
        # whether it is quarantined.
        self.next_us = np.full(n, _NEVER, dtype=np.int64)
        self.floods = np.array(
            [not rt.device.legitimate and not rt.forged for rt in self.dev], dtype=bool
        )
        self.reliable = np.zeros(n, dtype=bool)
        self.slice_of = np.zeros(n, dtype=np.int64)
        self.is_quarantined = np.zeros(n, dtype=bool)
        # Packets of each quarantined device stopped at the AP; from
        # ``flood_giveup`` of them on (and at least one), it sends no more.
        self.blocked_packets = [0] * n
        # Per switch: the time its link is busy until, and its last arrival
        # (-1 before the first).  The open detection window counts arrivals
        # per (switch, device, size index) and per inter-arrival bin; the open
        # rebalance interval counts them per (switch, device, size index).
        self.busy_us = [0] * m
        self.last_arrival_us = [-1] * m
        self.win_counts = np.zeros((m, n, len(self.sizes)), dtype=np.int64)
        self.win_gaps = np.zeros((m, ddos_mod.N_INTERARRIVAL_BINS), dtype=np.int64)
        self.interval_counts = np.zeros((m, n, len(self.sizes)), dtype=np.int64)
        # Retransmits due in a later batch: (time, device, size index, loss draw).
        self.retransmits: list[tuple[int, int, int, float]] = []
        # Outcomes not yet applied, a row each: time, outcome code, packet's
        # place in canonical order, device, bits, latency (see ``_hold``).
        self.held = np.zeros((0, 6), dtype=np.int64)
        self._slice_counters = [self.counters[st] for st in SLICE_ORDER]

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
            self._run_data_plane(time_us + 1 if kind > DROP else time_us)
        self.clock_us = time_us
        self._handlers[kind](payload)

    def _start_transmits(self, di: int, first_us: int) -> None:
        """Send device ``di``'s packets from ``first_us`` on, with its flow's
        protocol and on its slice; none is sent at or after the horizon."""
        if first_us < self.clock_us:
            raise InvariantViolation(f"packets of {di} start at {first_us}, before the clock")
        if first_us >= self.end_us:
            return
        rt = self.dev[di]
        self.next_us[di] = first_us
        self.reliable[di] = rt.flow.protocol is Protocol.RELIABLE_STREAM
        self.slice_of[di] = SLICE_ORDER.index(rt.decided or rt.claimed)

    def _run_data_plane(self, until_us: float) -> None:
        """Run every packet due before ``until_us``, then apply every outcome
        due before it.

        Packets run in batches of at most ``BATCH_PACKETS`` new transmits, and
        the outcomes due before a batch's end are applied after it.  No event
        comes between two batches of one call, so where they are cut changes
        nothing.
        """
        while True:
            later = self.retransmits
            start = min(
                int(self.next_us.min(initial=_NEVER)), min((r[0] for r in later), default=_NEVER)
            )
            if start >= until_us or start == _NEVER:
                break
            # Every packet waiting is due before ``limit``.
            limit = max(self.end_us, max((r[0] for r in later), default=0) + 1)
            end = until_us if until_us < limit else limit
            plan = self._plan_batch(end)
            while plan[0] > BATCH_PACKETS and end - start > 1:
                end = start + max(1, (end - start) * BATCH_PACKETS // plan[0])
                plan = self._plan_batch(end)
            self._run_batch(end, *plan[1:])
            if end < until_us:
                self._apply_outcomes(end)
        self._apply_outcomes(until_us)

    def _plan_batch(self, end_us: int):
        """The new transmits due before ``end_us``: their number, the devices
        that send any, and for each of those its first send time, its count
        at the packet interval, the time after those, and its count at the
        flood interval, which a flooder keeps from ``flood_start`` on."""
        e = min(end_us, self.end_us)
        iv, fiv = self.packet_interval_us, self.flood_packet_interval_us
        act = np.flatnonzero(self.next_us < e)
        s = self.next_us[act]
        lim = np.where(self.floods[act], min(self.flood_start_us, e), e)
        m1 = np.maximum((lim - s + iv - 1) // iv, 0)
        p = s + m1 * iv
        m2 = np.maximum((e - p + fiv - 1) // fiv, 0)
        return int(m1.sum() + m2.sum()), act, s, m1, p, m2

    def _stop_quarantined(self, due, act, s, m1, p, cnt, nxt) -> list:
        """Stop at the AP the packets of quarantined sources in this batch.

        Trims each quarantined device's count of new transmits in ``cnt`` to
        those it sends before it gives up, at ``flood_giveup`` stopped packets
        (and at least one), and then ends its sends in ``nxt``.  Holds a drop
        for each stopped retransmit of ``due`` and returns the others.
        """
        quarantined = set(np.flatnonzero(self.is_quarantined).tolist())
        blocked = [r for r in due if r[1] in quarantined]
        q_act = np.flatnonzero(self.is_quarantined[act]).tolist() if quarantined else []
        if not q_act and not blocked:
            return due
        iv, fiv = self.packet_interval_us, self.flood_packet_interval_us
        giveup = max(self.sc.flood_giveup, 1)
        row_of = {int(act[j]): j for j in q_act}
        for di in sorted(row_of.keys() | {r[1] for r in blocked}):
            retx = [r[0] for r in blocked if r[1] == di]
            stopped = self.blocked_packets[di]
            sent = before = 0
            j = row_of.get(di)
            if j is not None:
                while sent < cnt[j]:
                    t = s[j] + sent * iv if sent < m1[j] else p[j] + (sent - m1[j]) * fiv
                    # a retransmit at the same time sorts after the new packet
                    while before < len(retx) and retx[before] < t:
                        before += 1
                    if stopped + sent + before >= giveup:
                        break
                    sent += 1
                cnt[j] = sent
            self.blocked_packets[di] = stopped = stopped + sent + len(retx)
            if stopped >= giveup:
                self.next_us[di] = _NEVER
                if j is not None:
                    nxt[j] = _NEVER
        if blocked:
            t = np.array([r[0] for r in blocked], dtype=np.int64)
            di = np.array([r[1] for r in blocked], dtype=np.int64)
            zero = np.zeros(len(blocked), dtype=np.int64)
            self._hold(t, zero + QUARANTINED, (t * len(self.dev) + di) * 2 + 1, di, zero, zero)
        return [r for r in due if r[1] not in quarantined]

    def _run_batch(self, end_us: int, act, s, m1, p, m2) -> None:
        """Run every packet due before ``end_us`` (see :meth:`_plan_batch` for
        the arguments); their outcomes join ``held``."""
        n_dev, n_sw = len(self.dev), len(self.switches)
        iv, fiv = self.packet_interval_us, self.flood_packet_interval_us
        cnt = m1 + m2
        nxt = p + m2 * fiv
        nxt[nxt >= self.end_us] = _NEVER
        due = sorted(r for r in self.retransmits if r[0] < end_us)
        if due:
            self.retransmits = [r for r in self.retransmits if r[0] >= end_us]
        due = self._stop_quarantined(due, act, s, m1, p, cnt, nxt)
        self.next_us[act] = nxt
        n_new = int(cnt.sum())
        self.generated += n_new

        # New transmits, made in (device, time) order and put in canonical
        # order, with their draws.
        di = np.repeat(act, cnt)
        k = np.arange(n_new) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        m1k = np.repeat(m1, cnt)
        flood = k >= m1k
        t = np.where(flood, np.repeat(p, cnt) + (k - m1k) * fiv, np.repeat(s, cnt) + k * iv)
        o = np.argsort(t, kind="stable")
        t, di, flood = t[o], di[o], flood[o]
        u_size = self._rng_sizes.random(n_new)
        u = self._rng_loss.random(n_new)
        retry = np.where(self.reliable[di], self._rng_retx.random(n_new), -1.0)
        if self.sc.size_jitter:
            z = size_index(u_size)
            z[flood] = 1
        else:
            z = np.ones(n_new, dtype=np.int64)
        # a packet's place in canonical order
        key = (t * n_dev + di) * 2
        q = self.is_quarantined[di]
        if q.any():
            zero = np.zeros(int(np.count_nonzero(q)), dtype=np.int64)
            self._hold(t[q], zero + REFUSED, key[q], di[q], zero, zero)
            a = ~q
            t, di, z, u, retry, key = t[a], di[a], z[a], u[a], retry[a], key[a]
        for c, n in zip(self._slice_counters, np.bincount(self.slice_of[di], minlength=3).tolist()):
            c.sent += n
            c.in_flight += n
        if not len(t) and not due:
            return

        # Every packet that reaches a switch, served there; then the window
        # and interval counts of them all.
        sw = self.sw_of[di]
        loss_rates = [sw_rt.profile.loss_rate for sw_rt in self.switches]
        res, prev, extra = self._serve_links(
            end_us, due, t.tolist(), di.tolist(), z.tolist(), sw.tolist(),
            (u < np.array(loss_rates)[sw]).tolist(), retry.tolist(), loss_rates,
        )
        if extra:
            ex = np.array(extra, dtype=np.int64).T
            ex_key = (ex[0] * n_dev + ex[1]) * 2 + 1
            t, di, z, sw, res, prev, key = (
                np.concatenate(pair) for pair in zip((t, di, z, sw, res, prev, key), (*ex, ex_key))
            )
        counts = np.bincount((sw * n_dev + di) * 3 + z, minlength=n_sw * n_dev * 3)
        counts = counts.reshape(n_sw, n_dev, 3)
        self.win_counts += counts
        self.interval_counts += counts
        gap = prev >= 0
        bins = np.searchsorted(self.ia_edges, (t[gap] - prev[gap]) / 1e6, side="right")
        n_bins = ddos_mod.N_INTERARRIVAL_BINS
        self.win_gaps += np.bincount(sw[gap] * n_bins + bins, minlength=n_sw * n_bins).reshape(
            n_sw, n_bins
        )

        done = res != _RETRIED
        if not done.all():
            t, di, z, res, key = t[done], di[done], z[done], res[done], key[done]
        # a delivery's result is its time, at or after the send; a drop's is
        # minus its code
        ok = res >= 0
        self._hold(
            np.maximum(res, t),
            np.maximum(-res, OK),
            key,
            di,
            self.size_bits[z] * ok,
            np.maximum(res - t, 0),
        )

    def _hold(self, time, code, key, di, bits, latency) -> None:
        """Hold outcomes until :meth:`_apply_outcomes`: their times, outcome
        codes, packets' places in canonical order, devices, bits and
        latencies."""
        rows = np.empty((len(time), 6), dtype=np.int64)
        for col, values in enumerate((time, code, key, di, bits, latency)):
            rows[:, col] = values
        self.held = np.concatenate((self.held, rows))

    def _serve_links(self, end_us, due, ts, ds, zs, sws, lost, retry, loss_rates):
        """One pass, in canonical order, over the batch's packets that reach
        a switch, each link serving first come first served.

        The new transmits are given in lists, the retransmits in ``due``.  A
        packet that is not lost waits out its link's backlog, unless that
        exceeds ``queue_delay_bound`` (overflow), then takes its link time.  A
        lost or overflowed new packet with a ``retry`` draw is sent again
        ``retransmit_delay`` later, in this pass when that is before
        ``end_us``.  Returns each new transmit's result (its delivery time,
        ``-LOSS``, ``-OVERFLOW`` or ``_RETRIED``), the previous arrival at its
        switch (-1 for none), and the retransmits served as (time, device,
        size index, switch, result, previous arrival).
        """
        bound, proc = self.queue_delay_bound_us, self.processing_latency_us
        delay, txs = self.retransmit_delay_us, self.size_tx_us.tolist()
        busy_us, last_us, later = self.busy_us, self.last_arrival_us, self.retransmits
        sw_of = self.sw_of.tolist()
        res: list[int] = []
        prev: list[int] = []
        extra: list[tuple] = []
        # Retransmits waiting in this pass, (time, device, size index, loss
        # draw): those of earlier batches, then this one's, in canonical
        # order, since the delay is fixed.
        again = deque(due)
        items = zip(ts, ds, zs, sws, lost, retry)
        for t, d, z, j, is_lost, u in chain(items, ((_NEVER, 0, 0, 0, False, -1.0),)):
            while again and (again[0][0] < t or (again[0][0] == t and again[0][1] < d)):
                rt, rd, rz, ru = again.popleft()
                rj = sw_of[rd]
                before, last_us[rj] = last_us[rj], rt
                if ru < loss_rates[rj]:
                    result = -LOSS
                else:
                    busy = busy_us[rj]
                    backlog = busy - rt if busy > rt else 0
                    if backlog > bound:
                        result = -OVERFLOW
                    else:
                        busy_us[rj] = busy = rt + backlog + txs[rz]
                        result = busy + proc
                extra.append((rt, rd, rz, rj, result, before))
            if t == _NEVER:
                break
            prev.append(last_us[j])
            last_us[j] = t
            if is_lost:
                result = -LOSS
            else:
                busy = busy_us[j]
                backlog = busy - t if busy > t else 0
                if backlog <= bound:
                    busy_us[j] = busy = t + backlog + txs[z]
                    res.append(busy + proc)
                    continue
                result = -OVERFLOW
            if u >= 0.0:
                rt = t + delay
                (again if rt < end_us else later).append((rt, d, z, u))
                result = _RETRIED
            res.append(result)
        return np.array(res, dtype=np.int64), np.array(prev, dtype=np.int64), extra

    def _apply_outcomes(self, until_us: float) -> None:
        """Apply, in (time, kind, packet) order, every held outcome due before
        ``until_us``; with a trace, write their rows in one sink call."""
        held = self.held
        due = held[:, 0] < until_us
        if not due.any():
            return
        rows = held.take(np.flatnonzero(due), axis=0)
        self.held = held.take(np.flatnonzero(~due), axis=0)
        sink = self.trace_sink
        if sink is not None:
            # the counters are sums of integers, but trace rows go in order
            rows = rows.take(np.lexsort((rows[:, 2], rows[:, 1] > OK, rows[:, 0])), axis=0)
        time, code, _, di, bits, latency = rows.T
        # the AP revokes in-flight traffic of a quarantined source
        code = np.where((code == OK) & self.is_quarantined.take(di), QUARANTINED, code)
        sl = self.slice_of.take(di)
        n_codes = len(_OUTCOME_CELLS)
        counts = np.bincount(sl * n_codes + code, minlength=3 * n_codes).reshape(3, n_codes)
        ok = code == OK
        bits_sum = np.bincount(sl, weights=bits * ok, minlength=3)
        latency_sum = np.bincount(sl, weights=latency * ok, minlength=3)
        for c, (n_ok, n_loss, n_over, n_q, n_refused), b, lat in zip(
            self._slice_counters, counts.tolist(), bits_sum.tolist(), latency_sum.tolist()
        ):
            c.sent += n_refused  # offered traffic stopped at the AP, never in flight
            c.in_flight -= n_ok + n_loss + n_over + n_q
            c.delivered += n_ok
            c.dropped += n_loss + n_over + n_q + n_refused
            c.blocked += n_q + n_refused
            c.delivered_bits += int(b)
            c.latency_us += int(lat)
        if sink is not None:
            sink(rows_text(time, self.suffixes.of(code, di)))

    def run(self) -> MetricsReport:
        heap, pop, step = self.heap, heapq.heappop, self.step_event
        try:
            while heap:
                step(pop(heap))
        except BaseException:
            self._keys.close()
            raise
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
        verdict = auth_mod.authenticate(
            self.vap.holder_of(rt.device.device_id),
            rt.device.device_id,
            lambda _params: self._keys.presented(di),
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
        rt.decided = decision.service
        self.counters[rt.decided].requests += 1
        if rt.decided is not rt.claimed:
            rt.flow = self._make_flow(rt, rt.decided)
        self._trace(
            SLICE_DECIDE,
            rt.device.device_id,
            rt.decided.slice_id,
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
        c = self.counters[service]
        request = hop_mod.AllocationRequest(
            slice_indicator=service.indicator,
            sinr=self._sinr_db(di),
            throughput=c.delivered_bits / elapsed,
            fair_sla=rt.request.fair_sla,
            slice_capacity=self.pool_initial[service],
            arrival_rate=self.auth_accepted / elapsed,
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

        sw = self._assign_switch(rt)
        if sw is None:
            self._trace(ALLOCATE, rt.device.device_id, service.slice_id, "", "unroutable")
            return
        self._trace(
            ALLOCATE, rt.device.device_id, service.slice_id, sw.profile.switch_id, "granted"
        )
        remaining_s = (self.end_us - self.clock_us) / 1e6
        c.flow_active_bps_seconds += rt.flow.rate * remaining_s
        phase = float(self.hub.substream("phase").uniform(0.0, self.sc.packet_interval))
        self._start_transmits(di, self.clock_us + to_us(phase))

    def _assign_switch(self, rt: _DeviceRt) -> Optional[_SwitchRt]:
        best = None
        best_w = None
        for sw in self.switches:
            budget = sw.profile.service_capacity - sw.nominal_load
            if rt.flow.rate > budget:
                continue
            profile = sw.profile.with_load(sw.nominal_load)
            w = off_mod.edge_weight(rt.flow, profile, self.coeffs)
            if best_w is None or w > best_w:
                best_w = w
                best = sw
        if best is not None:
            best.nominal_load += rt.flow.rate
            rt.place(best)
        return best

    # -- detection -----------------------------------------------------------

    def _on_window_close(self, _payload=None) -> None:
        sc = self.sc
        start_s = self.clock_us / 1e6 - sc.window_duration
        per_source = self.win_counts.sum(axis=2)
        at, of = np.nonzero(per_source)
        sources: list[dict[str, int]] = [{} for _ in self.switches]
        for j, i, c in zip(at.tolist(), of.tolist(), per_source[at, of].tolist()):
            sources[j][self.device_ids[i]] = c
        for sw, source_counts, gaps, sizes in zip(
            self.switches, sources, self.win_gaps.tolist(), self.win_counts.sum(axis=1).tolist()
        ):
            window = ddos_mod.WindowCounts(
                source_counts=source_counts,
                interarrival_bins=gaps,
                size_counts={size: c for size, c in zip(self.sizes, sizes) if c},
            )
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
                        self.is_quarantined[self.dev_by_id[dev_id].index] = True
                else:
                    sw.baseline_triples.append(triple)
                    if len(sw.baseline_triples) > 4 * sc.baseline_windows:
                        del sw.baseline_triples[0]
            if self.detection_sink is not None:
                self.detection_sink(
                    f"{start_s:.6f},{sw.profile.switch_id},"
                    f"{triple[0]:.6f},{triple[1]:.6f},{triple[2]:.6f},"
                    f"{verdict},{';'.join(blocked)}\n"
                )
        self.win_counts.fill(0)
        self.win_gaps.fill(0)
        self._push(self.clock_us + to_us(sc.window_duration), WINDOW_CLOSE, None)

    # -- rebalancing -----------------------------------------------------------

    def _on_rebalance(self, _payload=None) -> None:
        sc = self.sc
        interval = sc.rebalance_interval
        flow_bits = self.interval_counts @ self.size_bits
        measured = {
            sw.profile.switch_id: bits / interval
            for sw, bits in zip(self.switches, flow_bits.sum(axis=1).tolist())
        }
        overloaded = [
            sw
            for sw in self.switches
            if measured[sw.profile.switch_id] > sw.profile.service_capacity
        ]
        for trigger in overloaded:
            planned = self._plan_rebalance(trigger, measured, flow_bits[trigger.index].tolist())
            if planned is None:
                continue
            plan, device_of = planned
            for mig in plan.migrations:
                drt = device_of[mig.flow_id]
                src = self.sw_by_id[mig.from_switch]
                dst = self.sw_by_id[mig.to_switch]
                src.nominal_load -= drt.flow.rate
                dst.nominal_load += drt.flow.rate
                drt.place(dst)
                self.migrations += 1
                if self.migration_sink is not None:
                    self.migration_sink(
                        f"{seconds_text(self.clock_us)},{mig.flow_id},{mig.from_switch},"
                        f"{mig.to_switch},overload\n"
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
        self.interval_counts.fill(0)
        self._push(self.clock_us + to_us(interval), REBALANCE, None)

    def _plan_rebalance(self, trigger: _SwitchRt, measured: dict[str, float], bits_of: list[int]):
        """The trigger's rebalance plan and each planned flow's device;
        ``bits_of`` holds each device's bits through the trigger in this
        interval."""
        interval = self.sc.rebalance_interval
        flows = []
        current = {}
        device_of: dict[str, _DeviceRt] = {}
        for di in np.flatnonzero(self.sw_of == trigger.index).tolist():
            drt = self.dev[di]
            if drt.flow is None or self.is_quarantined[di]:
                continue
            rate = bits_of[di] / interval
            if rate <= 0:
                rate = drt.flow.rate
            flow = replace(drt.flow, rate=rate)
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
        self._keys.finish()
        self._run_data_plane(math.inf)
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
            quarantined_sources=int(np.count_nonzero(self.is_quarantined)),
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
