"""Scenario model: every knob of a simulation run, with defaults.

The key registry below, derived from the dataclass fields in declaration
order, is the single source of truth for the scenario file format
(``[section]`` headers, ``key = value`` lines): parsing, serialization,
unknown-key rejection and round-tripping all derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from .domain import Protocol, ServiceType, qos_profile_of
from .sched import SchedulerConfig, SchedulerConfigError, validate_config
from .slicenet import LEARNING_RATE_RANGE, MAX_D_MODEL, MAX_EPOCHS


class ScenarioError(ValueError):
    """Invalid scenario contents; the message names the offending key."""


def to_us(seconds: float) -> int:
    """Seconds on the engine's integer-microsecond clock."""
    return int(round(seconds * 1e6))


# Intervals the engine turns into recurring or chained events: one that
# rounds to 0 us would re-schedule its event at the same instant forever.
EVENT_INTERVAL_KEYS = (
    "tick_interval",
    "window_duration",
    "slot_duration",
    "rebalance_interval",
    "packet_interval",
    "flood_packet_interval",
)

# The most rows the engine synthesizes to train its slice selector.
MAX_TRAIN_SAMPLES = 1_000_000
# The most benign windows a switch learns before it classifies.  A run has
# fewer windows than this: its horizon is below 2**61 us (see the packet-time
# check in ``Scenario.validate``) and a window lasts at least 1 us.  So any
# larger value classifies no window, as this one does, and four times this
# one still fits the length of the engine's baseline deque.
MAX_BASELINE_WINDOWS = 2**61 - 1
# The largest network a scenario may ask for.  The data plane's state grows
# with devices plus switches; placement, per granted device, costs one count
# over the devices plus one edge weight per distinct flow count among the
# switches.
MAX_DEVICES = 10_000
MAX_SWITCHES = 256
MAX_APS = 1_000

# (rule, test, keys): each key's value must pass the test its rule names.
RANGE_RULES = (
    (
        "finite and > 0",
        lambda v: math.isfinite(v) and v > 0,
        ("duration", "area_width", "area_height", "switch_service_capacity",
         "switch_transmission_rate", "pool_headroom", "dominance_factor"),
    ),
    (
        "finite and >= 0",
        lambda v: math.isfinite(v) and v >= 0,
        ("seed", "auth_delay", "decision_delay", "freshness_window",
         "processing_latency", "arrival_window", "delay_bound_embb", "delay_bound_urllc",
         "delay_bound_mmtc", "flood_start", "flood_giveup", "retransmit_delay",
         "speed_min", "speed_max", "queue_delay_bound", "k_sigma", "min_packets"),
    ),
    (
        ">= 1",
        lambda v: v >= 1,
        ("demand_embb", "demand_urllc", "demand_mmtc", "packet_length"),
    ),
    (f"in [0, {MAX_DEVICES}]", lambda v: 0 <= v <= MAX_DEVICES, ("devices",)),
    (f"in [1, {MAX_SWITCHES}]", lambda v: 1 <= v <= MAX_SWITCHES, ("switches",)),
    (f"in [1, {MAX_APS}]", lambda v: 1 <= v <= MAX_APS, ("aps",)),
    (f"in [1, {MAX_D_MODEL}]", lambda v: 1 <= v <= MAX_D_MODEL, ("d_model",)),
    (f"in [1, {MAX_EPOCHS}]", lambda v: 1 <= v <= MAX_EPOCHS, ("epochs",)),
    (
        f"in [1, {MAX_TRAIN_SAMPLES}]",
        lambda v: 1 <= v <= MAX_TRAIN_SAMPLES,
        ("train_samples",),
    ),
    (
        f"in [10, {MAX_BASELINE_WINDOWS}]",
        lambda v: 10 <= v <= MAX_BASELINE_WINDOWS,
        ("baseline_windows",),
    ),
    (
        "in [0, 1]",
        lambda v: 0 <= v <= 1,
        ("forged_fraction", "switch_loss_rate", "mix_embb", "mix_urllc", "mix_mmtc"),
    ),
    ("in [0, 1)", lambda v: 0 <= v < 1, ("illegitimate_fraction",)),
    ("finite", math.isfinite, ("offload_alpha", "offload_beta", "offload_gamma")),
)


@dataclass
class Scenario:
    # [network]
    seed: int = 42
    duration: float = 300.0
    area_width: float = 1000.0
    area_height: float = 1000.0
    devices: int = 250
    illegitimate_fraction: float = 0.075
    forged_fraction: float = 0.1
    aps: int = 2
    switches: int = 8
    switch_service_capacity: float = 2.2e6
    switch_transmission_rate: float = 2.0e6
    switch_loss_rate: float = 0.1
    processing_latency: float = 10e-6
    auth_delay: float = 1e-3
    decision_delay: float = 1e-3
    freshness_window: float = 2.0
    pool_headroom: float = 1.6

    # [flows]
    mix_embb: float = 0.3
    mix_urllc: float = 0.3
    mix_mmtc: float = 0.4
    arrival_window: float = 0.8
    demand_embb: int = 120
    demand_urllc: int = 30
    demand_mmtc: int = 50
    delay_bound_embb: float = 0.1
    delay_bound_urllc: float = 0.001
    delay_bound_mmtc: float = 1.0
    flood_start: float = 45.0
    flood_packet_interval: float = 0.004
    flood_giveup: int = 200

    # [packets]
    packet_length: int = 512
    packet_interval: float = 0.1
    size_jitter: bool = True
    retransmit_delay: float = 0.01

    # [mobility]
    speed_min: float = 1.0
    speed_max: float = 15.0
    tick_interval: float = 0.1

    # [protocol]
    protocol_embb: str = "datagram"
    protocol_urllc: str = "reliable-stream"
    protocol_mmtc: str = "datagram"

    # [scheduler]
    mu1: float = 0.6
    mu2: float = 0.4
    delta: float = 0.75
    steps_per_service: int = 1
    continue_prob: float = 0.9
    hp_capacity: int = 1000
    lp_capacity: int = 1000
    slot_duration: float = 0.01

    # [slicenet]
    train_samples: int = 600
    epochs: int = 10
    learning_rate: float = 0.01
    d_model: int = 8
    model_path: str = ""

    # [offload]
    offload_enabled: bool = True
    offload_alpha: float = 1.0
    offload_beta: float = 1.0
    offload_gamma: float = 1.0
    rebalance_interval: float = 1.0
    queue_delay_bound: float = 0.05

    # [ddos]
    ddos_enabled: bool = True
    ddos_alpha: float = 2.0
    k_sigma: float = 3.0
    window_duration: float = 1.0
    min_packets: int = 30
    baseline_windows: int = 15
    dominance_factor: float = 3.0

    def validate(self) -> None:
        for rule, test, keys in RANGE_RULES:
            for key in keys:
                value = getattr(self, key)
                if not test(value):
                    raise ScenarioError(f"{key} must be {rule} (got {value!r})")
        if not (self.switch_transmission_rate <= self.switch_service_capacity):
            raise ScenarioError(
                "switch_transmission_rate must not exceed switch_service_capacity "
                f"(got {self.switch_transmission_rate!r} > {self.switch_service_capacity!r})"
            )
        # Mobility and SINR square coordinate differences, each bounded by the
        # area, so its squared diagonal must be a finite double.
        diagonal_sq = self.area_width * self.area_width + self.area_height * self.area_height
        if not math.isfinite(diagonal_sq):
            raise ScenarioError(
                "area_width and area_height must keep area_width**2 + area_height**2 finite "
                f"(got {self.area_width!r} and {self.area_height!r})"
            )
        mix = self.mix_embb + self.mix_urllc + self.mix_mmtc
        if abs(mix - 1.0) > 1e-9:
            raise ScenarioError(f"traffic mix fractions must sum to 1 (got {mix!r})")
        # The engine sizes a slice's pools for at most max(devices, 1) devices,
        # at pool_headroom times the slice's min_bandwidth (above 1) each.
        most = max(self.devices, 1) * max(qos_profile_of(st).min_bandwidth for st in ServiceType)
        if not math.isfinite(most * self.pool_headroom):
            raise ScenarioError(
                "pool_headroom must keep the largest resource pool, pool_headroom * "
                f"max(devices, 1) * the largest min_bandwidth ({most:.6g}), finite "
                f"(got {self.pool_headroom!r})"
            )
        for key in EVENT_INTERVAL_KEYS:
            value = getattr(self, key)
            if not math.isfinite(value) or to_us(value) < 1:
                raise ScenarioError(
                    f"{key} must be a finite time of at least 1 microsecond (got {value!r})"
                )
        if not (self.ddos_alpha > 0 and self.ddos_alpha != 1.0):
            raise ScenarioError(
                f"ddos_alpha must be > 0 and != 1 (got {self.ddos_alpha!r})"
            )
        # A window profile has at most max(devices, 16) outcomes (sources, 16
        # inter-arrival bins, 3 sizes), so its largest share is at least
        # 1 / max(devices, 16) and sum(p ** alpha) >= 2 ** -1000: a normal
        # double, whose log2 is finite.
        if not self.ddos_alpha * math.log2(max(self.devices, 16)) <= 1000:
            raise ScenarioError(
                "ddos_alpha must be finite with ddos_alpha * log2(max(devices, 16)) <= 1000 "
                f"(got {self.ddos_alpha!r} with {self.devices} devices)"
            )
        # The data plane keeps packet times in int64 microseconds and places a
        # packet in canonical order by (time * devices + device) * 2 + 1, so
        # the latest time a packet can reach must keep that below 2**62.
        span = (
            self.duration + self.retransmit_delay + self.queue_delay_bound
            + self.processing_latency + 16 * self.packet_length / self.switch_transmission_rate
        )
        limit = 2.0**61 / 1e6 / max(self.devices, 1)
        if not span < limit:
            raise ScenarioError(
                "duration + retransmit_delay + queue_delay_bound + processing_latency + "
                "the link time of a double-length packet (16 * packet_length / "
                f"switch_transmission_rate) must be below {limit:.6g} s with {self.devices} "
                f"devices (got {span!r} s)"
            )
        lo, hi = LEARNING_RATE_RANGE
        if not (lo <= self.learning_rate <= hi):
            raise ScenarioError(
                f"learning_rate must be within [{lo}, {hi}] (got {self.learning_rate!r})"
            )
        if self.speed_min > self.speed_max:
            raise ScenarioError(
                f"speed_min must not exceed speed_max (got {self.speed_min!r} > {self.speed_max!r})"
            )
        for key in ("protocol_embb", "protocol_urllc", "protocol_mmtc"):
            value = getattr(self, key)
            try:
                Protocol(value)
            except ValueError:
                raise ScenarioError(
                    f"{key} must be one of {[p.value for p in Protocol]} (got {value!r})"
                ) from None
        try:
            validate_config(self.scheduler_config())
        except SchedulerConfigError as exc:
            raise ScenarioError(str(exc)) from None

    # convenience accessors -------------------------------------------------

    def scheduler_config(self) -> SchedulerConfig:
        """The ``[scheduler]`` values; each config field has a same-named key."""
        return SchedulerConfig(**{f.name: getattr(self, f.name) for f in fields(SchedulerConfig)})

    def _per_service(self, name: str, st: ServiceType):
        """The value of ``<name>_<service>``, e.g. ``mix_urllc``."""
        return getattr(self, f"{name}_{st.name.lower()}")

    def mix_fraction(self, st: ServiceType) -> float:
        return self._per_service("mix", st)

    def demand_slots(self, st: ServiceType) -> int:
        return self._per_service("demand", st)

    def delay_bound(self, st: ServiceType) -> float:
        return self._per_service("delay_bound", st)

    def protocol(self, st: ServiceType) -> Protocol:
        return Protocol(self._per_service("protocol", st))

    @property
    def nominal_flow_rate(self) -> float:
        """Per-flow demand in bits/s implied by the packet settings."""
        return self.packet_length * 8.0 / self.packet_interval


# The first attribute of each file section, in file order; every attribute
# up to the next one listed here belongs to the same section.
_SECTION_STARTS = {
    "seed": "network",
    "mix_embb": "flows",
    "packet_length": "packets",
    "speed_min": "mobility",
    "protocol_embb": "protocol",
    "mu1": "scheduler",
    "train_samples": "slicenet",
    "offload_enabled": "offload",
    "ddos_enabled": "ddos",
}


def _scenario_keys() -> dict[str, dict[str, str]]:
    keys: dict[str, dict[str, str]] = {}
    section = ""
    for f in fields(Scenario):
        section = _SECTION_STARTS.get(f.name, section)
        keys.setdefault(section, {})[f.name.removeprefix(section + "_")] = f.name
    return keys


# section -> key -> dataclass attribute; a key is its attribute name without
# the ``section_`` prefix (``[offload] enabled`` is ``offload_enabled``).
SCENARIO_KEYS: dict[str, dict[str, str]] = _scenario_keys()


def _coerce(attr: str, raw: str, where: str) -> Any:
    """Parse a raw string per the attribute's declared type."""
    default = getattr(Scenario(), attr)
    try:
        if isinstance(default, bool):
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
