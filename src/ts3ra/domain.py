"""Shared vocabulary of the simulated network.

Service classes, QoS profiles, SLA ratios and their fairness aggregate,
plus the value objects the planes take: a slice request as the scheduler
queues it, a flow as the AP's classifier and the offload plane read it,
and a switch profile.  All types are immutable; all operations are pure.
"""

from __future__ import annotations

__all__ = [
    "Flow", "Protocol", "QoSMeasurement", "QoSProfile", "SLICE_ORDER", "SLICE_VALUES",
    "ServiceType", "SlaRatios", "SliceRequest", "SwitchProfile", "compute_sla_ratios",
    "fairness_weight", "qos_profile_of", "stable_imsi",
]

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class ServiceType(Enum):
    """The three 5G service classes and their slice identities."""

    EMBB = "eMBB"
    URLLC = "URLLC"
    MMTC = "mMTC"

    @property
    def slice_id(self) -> str:
        return _SLICE_IDS[self]

    @property
    def indicator(self) -> tuple[int, int, int]:
        """Service-indicator code used by the resource allocator."""
        return _INDICATORS[self]

    @classmethod
    def from_indicator(cls, indicator: tuple[int, int, int]) -> "ServiceType":
        for st, code in _INDICATORS.items():
            if tuple(indicator) == code:
                return st
        raise ValueError(f"no service class has indicator {indicator!r}")


# The services in declaration order, the order of every per-service table
# and row; a service's index is its place here.
SLICE_ORDER = tuple(ServiceType)

_SLICE_IDS = {
    ServiceType.EMBB: "S1",
    ServiceType.URLLC: "S2",
    ServiceType.MMTC: "S3",
}

_INDICATORS = {
    ServiceType.EMBB: (0, 0, 1),
    ServiceType.URLLC: (0, 1, 0),
    ServiceType.MMTC: (1, 1, 1),
}


@dataclass(frozen=True)
class QoSProfile:
    """Agreed QoS targets of one service class.

    ``min_bandwidth`` is the guaranteed floor used as the throughput-ratio
    denominator; the remaining targets are present only where the class
    defines them.
    """

    min_bandwidth: float
    latency_bound: Optional[float] = None
    reliability: Optional[float] = None

    def __post_init__(self):
        if self.min_bandwidth <= 0:
            raise ValueError("min_bandwidth must be > 0")
        if self.latency_bound is not None and self.latency_bound <= 0:
            raise ValueError("latency_bound must be > 0 when present")
        if self.reliability is not None and not (0.0 < self.reliability <= 1.0):
            raise ValueError("reliability must be in (0, 1] when present")


_QOS_PROFILES = {
    ServiceType.EMBB: QoSProfile(min_bandwidth=100e3),
    ServiceType.URLLC: QoSProfile(
        min_bandwidth=100e3,
        latency_bound=1e-3,
        reliability=1.0 - 1e-9,
    ),
    ServiceType.MMTC: QoSProfile(min_bandwidth=25e3),
}


# Per-slice value of service; modulates grant size only.
SLICE_VALUES = {
    ServiceType.EMBB: 0.7,
    ServiceType.URLLC: 1.0,
    ServiceType.MMTC: 0.4,
}


def qos_profile_of(service_type: ServiceType) -> QoSProfile:
    """Return the static QoS profile of a service class (total, pure)."""
    return _QOS_PROFILES[service_type]


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


@dataclass(frozen=True)
class SlaRatios:
    """Normalized SLA attainment: availability, response-time, throughput
    and reliability ratios, each clipped to [0, 1] on construction."""

    sar: float
    rtr: float
    tr: float
    srr: float

    def __post_init__(self):
        object.__setattr__(self, "sar", _clip01(self.sar))
        object.__setattr__(self, "rtr", _clip01(self.rtr))
        object.__setattr__(self, "tr", _clip01(self.tr))
        object.__setattr__(self, "srr", _clip01(self.srr))


@dataclass(frozen=True)
class QoSMeasurement:
    """Achieved QoS of one slice over an observation period.

    ``availability`` and ``reliability`` are already ratios (served/requested
    and delivered/sent); ``response_time`` and ``throughput`` are absolute
    and get normalized against the agreed profile.
    """

    availability: float
    response_time: float
    throughput: float
    reliability: float


# Response-time target used when a class declares no latency bound.
DEFAULT_RESPONSE_TARGET = 1.0


def compute_sla_ratios(
    achieved: QoSMeasurement,
    agreed: QoSProfile,
    response_target: Optional[float] = None,
) -> SlaRatios:
    """Normalize achieved QoS against agreed targets.

    Throughput is divided by the guaranteed bandwidth floor; response time
    is inverted (target / achieved) so that faster-than-agreed clips to 1.
    A zero achieved response time counts as perfect (degenerate input).
    """
    target = response_target
    if target is None:
        target = agreed.latency_bound if agreed.latency_bound is not None else DEFAULT_RESPONSE_TARGET
    if target <= 0:
        raise ValueError("response target must be > 0")

    if achieved.response_time <= 0.0:
        rtr = 1.0
    else:
        rtr = target / achieved.response_time

    reliability_target = agreed.reliability if agreed.reliability is not None else 1.0
    return SlaRatios(
        sar=achieved.availability,
        rtr=rtr,
        tr=achieved.throughput / agreed.min_bandwidth,
        srr=achieved.reliability / reliability_target,
    )


def fairness_weight(ratios: SlaRatios) -> float:
    """Aggregate the four SLA ratios into one weight in [0, 1]."""
    return (ratios.sar + ratios.rtr + ratios.tr + ratios.srr) / 4.0


def stable_imsi(subscriber: str) -> int:
    """Map a synthetic subscriber string to a stable numeric identity.

    Uses SHA-256 rather than ``hash()`` so the value survives interpreter
    restarts (required for reproducible runs).
    """
    digest = hashlib.sha256(subscriber.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class SliceRequest:
    """A device's demand for slice service: who asks, and for how many
    scheduler slots."""

    origin: str
    demand_slots: int

    def __post_init__(self):
        if self.demand_slots < 1:
            raise ValueError("demand_slots must be >= 1")


@dataclass(frozen=True)
class SwitchProfile:
    """Data-plane switch capabilities and current nominal load."""

    switch_id: str
    service_capacity: float
    transmission_rate: float
    loss_rate: float
    current_load: float = 0.0

    def __post_init__(self):
        if self.current_load < 0:
            raise ValueError("current_load must be >= 0")
        if not (0.0 <= self.loss_rate <= 1.0):
            raise ValueError("loss_rate must be in [0, 1]")
        if self.transmission_rate > self.service_capacity:
            raise ValueError("transmission_rate must not exceed service_capacity")

    @property
    def remaining_capacity(self) -> float:
        return max(0.0, self.service_capacity - self.current_load)


class Protocol(Enum):
    """Transport of a flow: a reliable stream resends a lost packet once."""

    RELIABLE_STREAM = "reliable-stream"
    DATAGRAM = "datagram"


@dataclass(frozen=True)
class Flow:
    """One device's traffic stream toward its slice: its class and delay
    bound for the AP's classifier, its id and rate for a rebalance plan."""

    flow_id: str
    slice: ServiceType
    rate: float
    packet_delay: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
