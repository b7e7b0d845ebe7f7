"""Asymmetric two-queue traffic scheduler at the access point.

Discrete time: one call to :func:`step_slot` advances one slot.  Requests
wait in a high-priority or low-priority FIFO; the served class is chosen
per quantum by the service-rate split (mu1/mu2 Bernoulli draw) unless the
HP queue's occupancy has crossed the exclusivity threshold, in which case
HP is served alone until it drains.  A request needs ``demand_slots``
served slots in total and the class commitment lasts ``steps_per_service``
consecutive slots.  When a busy period drains both queues, the server
enters a one-slot vacancy with probability 1 - continue_prob before going
idle.
"""

from __future__ import annotations

__all__ = [
    "GAMMA_BUSY", "GAMMA_IDLE", "GAMMA_VACANT", "ClassCounters", "Decision", "DualQueueState",
    "QueueClass", "SchedulerConfig", "SchedulerConfigError", "SlotResult", "classify_flow",
    "enqueue", "next_service_decision", "step_slot", "validate_config",
]

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .domain import Flow, ServiceType, SliceRequest

HP_DELAY_BOUND = 0.010  # seconds; tighter bounds are treated as inelastic
_RATE_SUM_TOL = 1e-9


class SchedulerConfigError(ValueError):
    """A scheduler invariant is violated; the message names it."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Service-rate split, HP exclusivity threshold, quantum length,
    continue probability and queue capacities (see the module docstring)."""

    mu1: float = 0.6
    mu2: float = 0.4
    delta: float = 0.75
    steps_per_service: int = 1
    continue_prob: float = 0.9
    hp_capacity: int = 1000
    lp_capacity: int = 1000


def validate_config(config: SchedulerConfig) -> None:
    """Raise :class:`SchedulerConfigError` naming the first failed invariant."""
    if abs(config.mu1 + config.mu2 - 1.0) > _RATE_SUM_TOL:
        raise SchedulerConfigError(
            f"service rates must satisfy mu1 + mu2 = 1 (got {config.mu1 + config.mu2!r})"
        )
    if not (0.0 < config.mu1 < 1.0 and 0.0 < config.mu2 < 1.0):
        raise SchedulerConfigError("mu1 and mu2 must each lie in (0, 1)")
    if not (0.0 < config.delta <= 1.0):
        raise SchedulerConfigError(
            f"delta must be in (0, 1]; delta={config.delta!r} would make HP exclusivity permanent"
            if config.delta <= 0.0
            else f"delta must be in (0, 1] (got {config.delta!r})"
        )
    if config.steps_per_service < 1:
        raise SchedulerConfigError("steps_per_service must be >= 1")
    if not (0.0 <= config.continue_prob <= 1.0):
        raise SchedulerConfigError("continue_prob must be in [0, 1]")
    if config.hp_capacity < 1 or config.lp_capacity < 1:
        raise SchedulerConfigError("queue capacities hp_capacity and lp_capacity must be >= 1")


class QueueClass(Enum):
    """The two FIFOs: high and low priority."""

    HP = "HP"
    LP = "LP"


class Decision(Enum):
    """What the server does in one slot."""

    SERVE_HP = "ServeHP"
    SERVE_LP = "ServeLP"
    IDLE = "Idle"


def classify_flow(flow: Flow) -> QueueClass:
    """Inelastic flows go high priority: URLLC always, others on a tight
    delay bound."""
    if flow.slice is ServiceType.URLLC:
        return QueueClass.HP
    if flow.packet_delay < HP_DELAY_BOUND:
        return QueueClass.HP
    return QueueClass.LP


@dataclass
class _Entry:
    request: SliceRequest
    steps_done: int = 0


@dataclass
class ClassCounters:
    """Requests of one queue class enqueued, served and dropped."""

    enqueued: int = 0
    served: int = 0
    dropped: int = 0


GAMMA_IDLE = "idle"
GAMMA_BUSY = "busy"
GAMMA_VACANT = "vacant"


@dataclass
class DualQueueState:
    """Queues, the server-state variable, and conservation counters."""

    hp: deque = field(default_factory=deque)
    lp: deque = field(default_factory=deque)
    phase: str = GAMMA_IDLE
    hp_exclusive: bool = False
    quantum_class: Optional[QueueClass] = None
    quantum_left: int = 0
    window_size: int = 0  # requests completed in the current busy period
    counters: dict = field(
        default_factory=lambda: {
            QueueClass.HP: ClassCounters(),
            QueueClass.LP: ClassCounters(),
        }
    )

    @property
    def n_in_system(self) -> int:
        return len(self.hp) + len(self.lp)

    @property
    def gamma_code(self) -> int:
        """Numeric server state: 0 idle, n while busy with n, n+1 on vacancy."""
        if self.phase == GAMMA_IDLE:
            return 0
        if self.phase == GAMMA_BUSY:
            return self.n_in_system
        return self.window_size + 1

    def resident(self, cls: QueueClass) -> int:
        return len(self.hp if cls is QueueClass.HP else self.lp)

    def conservation_holds(self) -> bool:
        for cls in QueueClass:
            c = self.counters[cls]
            if c.enqueued != c.served + c.dropped + self.resident(cls):
                return False
        return True


def enqueue(
    state: DualQueueState, request: SliceRequest, cls: QueueClass, config: SchedulerConfig
) -> bool:
    """Append to the chosen FIFO; returns False on a capacity drop."""
    queue = state.hp if cls is QueueClass.HP else state.lp
    capacity = config.hp_capacity if cls is QueueClass.HP else config.lp_capacity
    counters = state.counters[cls]
    if len(queue) >= capacity:
        counters.dropped += 1
        counters.enqueued += 1
        return False
    queue.append(_Entry(request))
    counters.enqueued += 1
    if state.phase == GAMMA_IDLE:
        state.phase = GAMMA_BUSY
    return True


def next_service_decision(
    state: DualQueueState, config: SchedulerConfig, rng: np.random.Generator
) -> Decision:
    """Pick the class to serve this quantum.

    HP occupancy at or above delta latches exclusive HP service until HP
    drains; below that, a Bernoulli draw splits service per mu1/mu2 when
    both queues hold work.
    """
    if len(state.hp) / config.hp_capacity >= config.delta:
        state.hp_exclusive = True
    if state.hp_exclusive:
        if state.hp:
            return Decision.SERVE_HP
        state.hp_exclusive = False
    if state.hp and state.lp:
        return Decision.SERVE_HP if rng.random() < config.mu1 else Decision.SERVE_LP
    if state.hp:
        return Decision.SERVE_HP
    if state.lp:
        return Decision.SERVE_LP
    return Decision.IDLE


@dataclass(frozen=True)
class SlotResult:
    """One slot's decision and the requests it completed."""

    decision: Decision
    completions: tuple[SliceRequest, ...]


def step_slot(
    state: DualQueueState, config: SchedulerConfig, rng: np.random.Generator
) -> SlotResult:
    """Advance one slot: serve one step of the head request of the chosen class."""
    completions: list[SliceRequest] = []

    if state.phase == GAMMA_VACANT:
        # Cooldown slot after a drained busy period; no service happens.
        state.phase = GAMMA_BUSY if state.n_in_system else GAMMA_IDLE
        state.window_size = 0
        return SlotResult(Decision.IDLE, ())

    if state.quantum_left > 0 and state.quantum_class is not None:
        committed = state.hp if state.quantum_class is QueueClass.HP else state.lp
        decision = (
            Decision.SERVE_HP if state.quantum_class is QueueClass.HP else Decision.SERVE_LP
        ) if committed else None
    else:
        decision = None
    if decision is None:
        decision = next_service_decision(state, config, rng)
        state.quantum_class = (
            QueueClass.HP
            if decision is Decision.SERVE_HP
            else QueueClass.LP if decision is Decision.SERVE_LP else None
        )
        state.quantum_left = config.steps_per_service if state.quantum_class else 0

    if decision is Decision.IDLE:
        state.phase = GAMMA_IDLE if state.n_in_system == 0 else state.phase
        return SlotResult(decision, ())

    state.phase = GAMMA_BUSY
    cls = QueueClass.HP if decision is Decision.SERVE_HP else QueueClass.LP
    queue = state.hp if cls is QueueClass.HP else state.lp
    entry = queue[0]
    entry.steps_done += 1
    state.quantum_left -= 1
    if entry.steps_done >= entry.request.demand_slots:
        queue.popleft()
        state.counters[cls].served += 1
        state.window_size += 1
        completions.append(entry.request)
        state.quantum_left = 0
        if state.n_in_system == 0:
            # Busy period drained: vacancy with probability 1 - continue_prob.
            if rng.random() < 1.0 - config.continue_prob:
                state.phase = GAMMA_VACANT
            else:
                state.phase = GAMMA_IDLE
                state.window_size = 0

    return SlotResult(decision, tuple(completions))
