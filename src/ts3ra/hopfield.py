"""Associative-memory resource allocator.

A single-layer bipolar network stores the three service-indicator codes
with the Storkey learning rule and recalls them from possibly corrupted
probes via synchronous threshold updates.  The recalled slice identity
selects a per-slice resource bundle (communication, computation, caching)
which is scaled by request fairness and link/load quality and drawn from a
shared pool.
"""

from __future__ import annotations

__all__ = [
    "AllocationRequest", "HopfieldAllocator", "PoolExhaustedError", "RecallResult",
    "ResourceAllocation", "ResourceBundle", "ResourcePool", "decode_pattern", "encode_pattern",
    "grant_modifier", "recall", "storkey_update", "train_patterns", "update_state",
    "zero_weights",
]

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import ServiceType, qos_profile_of

PATTERN_LENGTH = 12  # 3 indicator bits, 4x repetition coding
_BLOCK = 4
DEFAULT_MAX_ITERS = 10


class PoolExhaustedError(Exception):
    """The shared pool cannot cover a requested component."""


def zero_weights(n: int) -> np.ndarray:
    """The weights of an untrained network of ``n`` nodes."""
    return np.zeros((n, n), dtype=np.float64)


def _validate_weights(we: np.ndarray) -> None:
    if we.ndim != 2 or we.shape[0] != we.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.all(np.isfinite(we)):
        raise ValueError("weight matrix must be finite")
    if np.any(np.diag(we) != 0.0):
        raise ValueError("weight matrix must have a zero diagonal")
    if not np.array_equal(we, we.T):
        raise ValueError("weight matrix must be symmetric")


def _check_bipolar(st: np.ndarray) -> np.ndarray:
    st = np.asarray(st, dtype=np.float64)
    if not np.all(np.abs(st) == 1.0):
        raise ValueError("state components must be exactly +1 or -1")
    return st


def storkey_update(we_prev: np.ndarray, pattern: Sequence[float]) -> np.ndarray:
    """Fold one bipolar pattern into the weights.

    For i != j the increment is (xi_i xi_j - xi_i h_ji - h_ij xi_j) / N with
    the local fields h computed against the previous weights; the diagonal
    stays zero and symmetry is preserved exactly.
    """
    _validate_weights(we_prev)
    xi = _check_bipolar(pattern)
    n = we_prev.shape[0]
    if xi.shape != (n,):
        raise ValueError("pattern length must match the node count")

    g = we_prev @ xi
    # h[i, j] = local field at i excluding i and j  (diagonal is zero).
    h = g[:, None] - we_prev * xi[None, :]
    delta = (np.outer(xi, xi) - xi[:, None] * h.T - h * xi[None, :]) / n
    np.fill_diagonal(delta, 0.0)
    we_next = we_prev + delta
    # Guard against drift: the update is symmetric analytically, keep it
    # exact in floating point too.
    we_next = (we_next + we_next.T) / 2.0
    np.fill_diagonal(we_next, 0.0)
    return we_next


def train_patterns(patterns: Sequence[Sequence[float]]) -> np.ndarray:
    """Storkey-train a fresh network on the given bipolar patterns."""
    patterns = [_check_bipolar(p) for p in patterns]
    if not patterns:
        raise ValueError("at least one pattern required")
    n = patterns[0].shape[0]
    we = zero_weights(n)
    for p in patterns:
        we = storkey_update(we, p)
    return we


def update_state(
    we: np.ndarray, thresholds: np.ndarray, st: Sequence[float]
) -> np.ndarray:
    """One synchronous step: st'_i = sign(U_i - theta_i), sign(0) = +1."""
    st = np.asarray(st, dtype=np.float64)
    u = we @ st
    return np.where(u - thresholds >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class RecallResult:
    """The state recall stopped in, after how many updates, and why."""

    state: np.ndarray
    iterations: int
    status: str  # fixed_point | cycle | max_iters


def recall(
    we: np.ndarray,
    thresholds: np.ndarray,
    probe: Sequence[float],
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RecallResult:
    """Iterate synchronous updates until a fixed point or a 2-cycle.

    The final state is returned even when iteration stops on a cycle or
    on the iteration budget, with the stop condition in ``status``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    state = _check_bipolar(probe)
    previous = None
    for k in range(1, max_iters + 1):
        nxt = update_state(we, thresholds, state)
        if np.array_equal(nxt, state):
            return RecallResult(nxt, k, "fixed_point")
        if previous is not None and np.array_equal(nxt, previous):
            return RecallResult(nxt, k, "cycle")
        previous = state
        state = nxt
    return RecallResult(state, max_iters, "max_iters")


def encode_pattern(indicator: Sequence[int]) -> np.ndarray:
    """Expand a 3-bit indicator to a 12-node bipolar state (4x repetition)."""
    if len(indicator) != 3 or any(b not in (0, 1) for b in indicator):
        raise ValueError("indicator must be a bit-triple")
    return np.repeat([1.0 if b else -1.0 for b in indicator], _BLOCK)


def decode_pattern(state: Sequence[float]) -> tuple[int, int, int]:
    """Invert :func:`encode_pattern` by per-block majority (ties read as 1)."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (PATTERN_LENGTH,):
        raise ValueError(f"state must have length {PATTERN_LENGTH}")
    sums = state.reshape(3, _BLOCK).sum(axis=1)
    return tuple(int(s >= 0) for s in sums)


@dataclass(frozen=True)
class AllocationRequest:
    """Inputs the allocator weighs when granting resources."""

    slice_indicator: tuple[int, int, int]
    sinr: float
    throughput: float
    fair_sla: float
    slice_capacity: float
    arrival_rate: float
    slice_value: float


@dataclass(frozen=True)
class ResourceBundle:
    """Per-slice base grant: communication bps, computation and caching units."""

    communication: float
    computation: float
    caching: float


@dataclass(frozen=True)
class ResourceAllocation:
    """The resources granted to one request, in the recalled slice."""

    slice_id: str
    communication: float
    computation: float
    caching: float

    def __post_init__(self):
        if min(self.communication, self.computation, self.caching) < 0:
            raise ValueError("resource components must be >= 0")


@dataclass
class ResourcePool:
    """Mutable remaining capacity per resource class."""

    communication: float
    computation: float
    caching: float

    def can_cover(self, comm: float, comp: float, cache: float) -> bool:
        return (
            self.communication >= comm
            and self.computation >= comp
            and self.caching >= cache
        )

    def consume(self, comm: float, comp: float, cache: float) -> None:
        if not self.can_cover(comm, comp, cache):
            raise PoolExhaustedError(
                f"pool cannot cover grant (comm={comm:.1f}, comp={comp:.3f}, cache={cache:.3f})"
            )
        self.communication -= comm
        self.computation -= comp
        self.caching -= cache


# Normalization references for the multiplicative grant modifier.
SINR_REFERENCE_DB = 40.0
ARRIVAL_RATE_REFERENCE = 10.0  # requests/s


def grant_modifier(request: AllocationRequest) -> float:
    """Map link/load quality onto a multiplicative factor in [0.5, 1.5].

    SINR, achieved throughput (vs. the capacity hint), arrival rate and
    slice value only modulate the grant size; they never change which
    slice the request lands in.
    """
    sinr_n = min(max(request.sinr / SINR_REFERENCE_DB, 0.0), 1.0)
    if request.slice_capacity > 0:
        tput_n = min(max(request.throughput / request.slice_capacity, 0.0), 1.0)
    else:
        tput_n = 0.0
    ar_n = min(max(request.arrival_rate / ARRIVAL_RATE_REFERENCE, 0.0), 1.0)
    sv_n = min(max(request.slice_value, 0.0), 1.0)
    return 0.5 + (sinr_n + tput_n + ar_n + sv_n) / 4.0


class HopfieldAllocator:
    """Trained recall network plus the grant policy around it."""

    def __init__(self):
        self.patterns = {st: encode_pattern(st.indicator) for st in ServiceType}
        self.we = train_patterns(list(self.patterns.values()))
        self.thresholds = np.zeros(PATTERN_LENGTH)
        self.bundles = {
            st: ResourceBundle(qos_profile_of(st).min_bandwidth, computation=1.0, caching=1.0)
            for st in ServiceType
        }

    def recall_slice(self, probe: Sequence[float]) -> tuple[ServiceType, RecallResult]:
        """Snap a (possibly corrupted) probe to the nearest stored slice."""
        result = recall(self.we, self.thresholds, probe)
        try:
            return ServiceType.from_indicator(decode_pattern(result.state)), result
        except ValueError:
            # Recall landed on a spurious state: fall back to Hamming distance.
            best = min(
                self.patterns,
                key=lambda st: int(np.sum(self.patterns[st] != result.state)),
            )
            return best, result

    def allocate_resources(
        self, request: AllocationRequest, pool: ResourcePool
    ) -> ResourceAllocation:
        """Grant the recalled slice's bundle scaled by the request's fairness
        and its link/load quality (:func:`grant_modifier`), or raise on
        exhaustion."""
        probe = encode_pattern(request.slice_indicator)
        service, _ = self.recall_slice(probe)
        base = self.bundles[service]
        scale = request.fair_sla * grant_modifier(request)
        comm = base.communication * scale
        comp = base.computation * scale
        cache = base.caching * scale
        pool.consume(comm, comp, cache)  # raises PoolExhaustedError when short
        return ResourceAllocation(
            slice_id=service.slice_id,
            communication=comm,
            computation=comp,
            caching=cache,
        )
