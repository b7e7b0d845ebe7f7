"""Per-slice counters and the derived metrics report."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .domain import ServiceType

@dataclass
class SliceCounters:
    requests: int = 0
    granted: int = 0
    rejected: int = 0
    sent: int = 0  # packets admitted to the data plane
    delivered: int = 0
    dropped: int = 0  # data-plane losses, overflows, failed retransmits
    blocked: int = 0  # stopped at the AP (quarantined source)
    in_flight: int = 0
    delivered_bits: int = 0
    latency_us: int = 0  # summed over deliveries
    response_sum: float = 0.0
    granted_comm: float = 0.0
    flow_active_bps_seconds: float = 0.0

    def conservation_holds(self) -> bool:
        return self.sent == self.delivered + self.dropped + self.in_flight


@dataclass(frozen=True)
class SliceMetrics:
    slice_id: str
    requests: int
    granted: int
    sent: int
    delivered: int
    dropped: int
    blocked: int
    throughput_bps: float
    latency_s: float
    response_s: float
    ptr: float
    plr: float
    capacity_utilization: float
    bandwidth_bps: float
    acceptance_ratio: float
    degenerate: bool


# metrics.csv has a column per field of SliceMetrics, "slice" for slice_id,
# each cell written by the field's declared type.
METRICS_COLUMNS = tuple("slice" if f.name == "slice_id" else f.name for f in fields(SliceMetrics))
_CELL_FORMATS = {
    "str": str,
    "int": str,
    "float": "{:.9g}".format,
    "bool": lambda b: "1" if b else "0",
}


@dataclass(frozen=True)
class MetricsReport:
    duration: float
    slices: dict[ServiceType, SliceMetrics]
    total: SliceMetrics
    auth_accepted: int
    auth_rejected: int
    generated: int
    migrations: int
    rebalances: int
    quarantined_sources: int

    def to_csv_rows(self) -> list[str]:
        rows = [",".join(METRICS_COLUMNS)]
        for st in ServiceType:
            rows.append(_csv_row(self.slices[st]))
        rows.append(_csv_row(self.total))
        return rows


def _csv_row(m: SliceMetrics) -> str:
    return ",".join(_CELL_FORMATS[f.type](getattr(m, f.name)) for f in fields(m))


def derive_slice_metrics(
    slice_id: str,
    c: SliceCounters,
    duration: float,
    pool_comm: float,
) -> SliceMetrics:
    """Turn raw counters into ratios; zero-sent slices are flagged degenerate."""
    degenerate = c.sent == 0
    ptr = 0.0 if degenerate else c.delivered / c.sent
    plr = 0.0 if degenerate else c.dropped / c.sent
    return SliceMetrics(
        slice_id=slice_id,
        requests=c.requests,
        granted=c.granted,
        sent=c.sent,
        delivered=c.delivered,
        dropped=c.dropped,
        blocked=c.blocked,
        throughput_bps=c.delivered_bits / duration,
        latency_s=c.latency_us / 1e6 / c.delivered if c.delivered else 0.0,
        response_s=c.response_sum / c.granted if c.granted else 0.0,
        ptr=ptr,
        plr=plr,
        capacity_utilization=(c.granted_comm / pool_comm) if pool_comm > 0 else 0.0,
        bandwidth_bps=c.flow_active_bps_seconds / duration,
        acceptance_ratio=(c.granted / c.requests) if c.requests else 0.0,
        degenerate=degenerate,
    )


def aggregate_total(per_slice: dict[ServiceType, SliceCounters]) -> SliceCounters:
    total = SliceCounters()
    names = [f.name for f in fields(SliceCounters)]
    for c in per_slice.values():
        for name in names:
            setattr(total, name, getattr(total, name) + getattr(c, name))
    return total
