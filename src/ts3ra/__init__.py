"""Deterministic simulator of a secured, sliced SDN/NFV 5G access network.

Planes: device admission (``auth``), access-point traffic scheduling
(``sched``), neural slice selection (``slicenet``), associative-memory
resource allocation (``hopfield``), flow offloading (``offload``),
entropy-based flood detection (``ddos``), and the event-driven engine
plus CLI tying them together.
"""

__version__ = "0.1.0"

from .domain import (  # noqa: F401
    Flow,
    Protocol,
    QoSProfile,
    ServiceType,
    SlaRatios,
    SliceRequest,
    SwitchProfile,
    compute_sla_ratios,
    fairness_weight,
    qos_profile_of,
)
from .engine import Engine, InvariantViolation, run_scenario  # noqa: F401
from .metrics import MetricsReport  # noqa: F401
from .scenario import Scenario, ScenarioError  # noqa: F401
from .scenario_io import parse_scenario, serialize_scenario  # noqa: F401
