"""Entropy-based flood detection and bandwidth prediction.

Traffic is observed in tumbling windows per switch.  Three order-alpha
entropies summarize each window: the per-source packet share, the
inter-arrival-time profile, and the packet-size profile.  Flooding
concentrates traffic (few sources, metronome timing, constant sizes), so
an attack shows up as an entropy collapse against a benign baseline.
:func:`classify_window` states the whole rule for one window: too few
packets is inconclusive, too short a baseline is learning, and otherwise a
source or size entropy below its baseline floor is an attack.

The per-window statistics are plain Python: a window holds a few dozen
counts, where NumPy's cost per call outweighs the arithmetic.  Every sum
in them is ``math.fsum``, correctly rounded whatever the order of its
terms.
"""

from __future__ import annotations

__all__ = [
    "VERDICT_ATTACK", "VERDICT_BENIGN", "VERDICT_INCONCLUSIVE", "VERDICT_LEARNING",
    "EntropyReport", "WindowCounts", "classify_window", "entropy_of_counts",
    "interarrival_inner_edges", "predict_bandwidth", "quarantine", "renyi_entropy",
    "shannon_entropy", "window_entropies",
]

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_ALPHA = 2.0
DEFAULT_K_SIGMA = 3.0
DEFAULT_MIN_PACKETS = 30
MIN_BASELINE_WINDOWS = 10
N_INTERARRIVAL_BINS = 16
DEFAULT_DOMINANCE_FACTOR = 3.0  # multiples of the fair per-source share
_SIGMA_FLOOR = 1e-9

VERDICT_BENIGN = "benign"
VERDICT_ATTACK = "attack"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_LEARNING = "learning"


def _validated_distribution(distribution: Sequence[float]) -> np.ndarray:
    p = np.asarray(distribution, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a nonempty 1-d probability vector")
    if np.any(p < 0):
        raise ValueError("probabilities must be >= 0")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution must sum to 1 (got {total!r})")
    return p


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0 (got {alpha!r})")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon limit; call shannon_entropy")


def _renyi(counts: Sequence[float], alpha: float) -> float:
    """Order-alpha entropy of the shares ``p = c / total`` of non-negative
    counts, ``log2(sum p ** alpha) / (1 - alpha)``; 0 for no counts."""
    total = math.fsum(counts)
    if total <= 0:
        return 0.0
    s = math.fsum([p**alpha for c in counts if (p := c / total) > 0])
    if s == 0.0:
        # Every p ** alpha underflowed: sum relative to the largest share.
        p_max = max(counts) / total
        s = math.fsum([(c / total / p_max) ** alpha for c in counts])
        return (alpha * math.log2(p_max) + math.log2(s)) / (1.0 - alpha)
    return math.log2(s) / (1.0 - alpha)


def renyi_entropy(distribution: Sequence[float], alpha: float) -> float:
    """Order-alpha entropy in bits: log2(sum p_i^alpha) / (1 - alpha).

    Zero-probability bins contribute nothing.  ``alpha`` must be positive
    and different from 1; use :func:`shannon_entropy` for the order-1 limit.
    """
    p = _validated_distribution(distribution)
    _check_alpha(alpha)
    return _renyi(p.tolist(), alpha)


def shannon_entropy(distribution: Sequence[float]) -> float:
    """Order-1 entropy in bits (the alpha -> 1 limit)."""
    p = _validated_distribution(distribution)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def entropy_of_counts(counts: Sequence[float], alpha: float) -> float:
    """Entropy of the empirical distribution behind raw counts."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError("counts must be a 1-d sequence")
    if np.any(c < 0):
        raise ValueError("counts must be >= 0")
    _check_alpha(alpha)
    return _renyi(c.tolist(), alpha)


def interarrival_inner_edges(duration: float) -> tuple[float, ...]:
    """The 15 inner edges of the geometric inter-arrival bins, from 0.1 ms
    up to the window.  ``bisect_right(edges, gap_s)`` is the bin of a gap:
    bin 0 takes everything below the second edge, shorter than 0.1 ms
    included, and bin 15 everything from the sixteenth edge on, gaps longer
    than the window included."""
    edges = np.geomspace(1e-4, max(duration, 1e-3), num=N_INTERARRIVAL_BINS + 1)
    return tuple(edges[1:-1].tolist())


@dataclass(slots=True)
class WindowCounts:
    """The running counts of one window, all that its entropies read:
    packets per source, inter-arrival gaps per bin (see
    :func:`interarrival_inner_edges`) and packets per size."""

    source_counts: dict[str, int] = field(default_factory=dict)
    interarrival_bins: list[int] = field(
        default_factory=lambda: [0] * N_INTERARRIVAL_BINS
    )
    size_counts: dict[int, int] = field(default_factory=dict)

    @property
    def packet_count(self) -> int:
        return sum(self.source_counts.values())


@dataclass(frozen=True)
class EntropyReport:
    """The three entropies of one window and the verdict drawn from them."""

    h_source: float
    h_interarrival: float
    h_size: float
    verdict: str


# An empty inter-arrival or size profile counts as one certain outcome.
_NO_PACKETS = (1.0,)


def window_entropies(
    window: WindowCounts, alpha: float = DEFAULT_ALPHA
) -> tuple[float, float, float]:
    """(source, inter-arrival, size) entropies of one window, in bits."""
    _check_alpha(alpha)
    src = _renyi(list(window.source_counts.values()), alpha)
    bins = window.interarrival_bins
    ia = _renyi(bins if any(bins) else _NO_PACKETS, alpha)
    sizes = window.size_counts
    size_counts = [sizes[s] for s in sorted(sizes)] if sizes else _NO_PACKETS
    size_h = _renyi(size_counts, alpha)
    return src, ia, size_h


def _floor(column: Sequence[float], k_sigma: float) -> float:
    """Mean less ``k_sigma`` population standard deviations (at least
    ``_SIGMA_FLOOR``) of one entropy over the baseline windows."""
    n = len(column)
    m = math.fsum(column) / n
    sd = math.sqrt(math.fsum((x - m) ** 2 for x in column) / n)
    return m - k_sigma * max(sd, _SIGMA_FLOOR)


def classify_window(
    window: WindowCounts,
    baseline: Sequence[tuple[float, float, float]],
    alpha: float = DEFAULT_ALPHA,
    k_sigma: float = DEFAULT_K_SIGMA,
    min_packets: int = DEFAULT_MIN_PACKETS,
    learn: int = MIN_BASELINE_WINDOWS,
) -> EntropyReport:
    """Judge one window against ``baseline``, the (source, inter-arrival,
    size) entropy triples of earlier benign windows.

    A window of fewer than ``min_packets`` packets is inconclusive.  Else,
    while the baseline holds fewer than ``learn`` windows, it is learning.
    Else it is an attack when its source or size entropy falls below that
    entropy's baseline mean less ``k_sigma`` standard deviations, and
    benign otherwise.
    """
    if learn < MIN_BASELINE_WINDOWS:
        raise ValueError(f"baseline needs at least {MIN_BASELINE_WINDOWS} benign windows")
    h_src, h_ia, h_size = window_entropies(window, alpha)
    if window.packet_count < min_packets:
        verdict = VERDICT_INCONCLUSIVE
    elif len(baseline) < learn:
        verdict = VERDICT_LEARNING
    else:
        sources, _, sizes = zip(*baseline)
        attack = h_src < _floor(sources, k_sigma) or h_size < _floor(sizes, k_sigma)
        verdict = VERDICT_ATTACK if attack else VERDICT_BENIGN
    return EntropyReport(h_src, h_ia, h_size, verdict)


def predict_bandwidth(history: Sequence[float], smoothing: float = 0.3) -> float:
    """Exponentially weighted moving average of a usage series."""
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    if not (0.0 < smoothing <= 1.0):
        raise ValueError("smoothing must be in (0, 1]")
    pred = float(history[0])
    for x in history[1:]:
        pred = smoothing * float(x) + (1.0 - smoothing) * pred
    if pred < 0:
        raise ValueError("predicted usage must be >= 0")
    return pred


def quarantine(
    report: EntropyReport,
    source_counts: dict[str, int],
    dominance_factor: float = DEFAULT_DOMINANCE_FACTOR,
) -> list[str]:
    """Pick the sources to block out of a flagged window.

    Only sources whose packet share exceeds ``dominance_factor`` times the
    fair per-source share are blocked; a benign verdict blocks nobody.
    """
    if report.verdict != VERDICT_ATTACK:
        return []
    total = sum(source_counts.values())
    n_sources = sum(1 for c in source_counts.values() if c > 0)
    if total == 0 or n_sources == 0:
        return []
    fair_share = 1.0 / n_sources
    cutoff = dominance_factor * fair_share
    return sorted(
        src for src, c in source_counts.items() if c / total > cutoff
    )
