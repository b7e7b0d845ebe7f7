import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ts3ra.ddos import (
    N_INTERARRIVAL_BINS,
    BaselineStats,
    WindowCounts,
    VERDICT_ATTACK,
    VERDICT_BENIGN,
    VERDICT_INCONCLUSIVE,
    classify_window,
    entropy_of_counts,
    interarrival_inner_edges,
    predict_bandwidth,
    quarantine,
    renyi_entropy,
    shannon_entropy,
    window_entropies,
)

mpmath.mp.dps = 50


def mp_renyi(p, alpha):
    """Extended-precision reference evaluation."""
    total = mpmath.mpf(0)
    for x in p:
        if x > 0:
            total += mpmath.mpf(repr(float(x))) ** alpha
    return float(mpmath.log(total, 2) / (1 - mpmath.mpf(alpha)))


def random_distribution(rng, k):
    raw = rng.random(k) + 1e-6
    return raw / raw.sum()


class TestRenyiEntropy:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_uniform_gives_log2_k(self, alpha):
        for k in (2, 8, 16, 64):
            p = np.full(k, 1.0 / k)
            assert renyi_entropy(p, alpha) == pytest.approx(math.log2(k), abs=1e-9)

    def test_degenerate_distribution(self):
        assert renyi_entropy([1.0], 2.0) == 0.0
        assert renyi_entropy([1.0, 0.0, 0.0], 2.0) == 0.0

    def test_collision_entropy_hand_value(self):
        # -log2(0.5^2 + 0.25^2 + 0.25^2) = -log2(0.375)
        h = renyi_entropy([0.5, 0.25, 0.25], 2.0)
        assert h == pytest.approx(1.415037499278844, abs=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_distribution(rng, int(rng.integers(2, 40)))
            for alpha in (0.5, 2.0, 3.0):
                assert renyi_entropy(p, alpha) == pytest.approx(
                    mp_renyi(p, alpha), abs=1e-9
                )

    def test_non_increasing_in_alpha(self):
        rng = np.random.default_rng(22)
        alphas = [0.25, 0.5, 0.9, 1.1, 2.0, 3.0, 5.0]
        for _ in range(50):
            p = random_distribution(rng, 12)
            values = [renyi_entropy(p, a) for a in alphas]
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo + 1e-12

    def test_brackets_shannon_near_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_distribution(rng, 10)
            h = shannon_entropy(p)
            above = renyi_entropy(p, 1.0 - 1e-4)
            below = renyi_entropy(p, 1.0 + 1e-4)
            assert below - 1e-3 <= h <= above + 1e-3

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.4], 2.0)

    def test_alpha_one_directs_to_shannon(self):
        with pytest.raises(ValueError, match="[Ss]hannon"):
            renyi_entropy([0.5, 0.5], 1.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], 0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            renyi_entropy([0.5, 0.5], alpha)

    def test_underflowing_sum_taken_relative_to_the_largest_share(self):
        # Every p ** alpha underflows to 0 here.
        assert renyi_entropy([0.5, 0.5], 2000.0) == 1.0
        assert entropy_of_counts([1, 1, 2], 5000.0) == pytest.approx(
            mp_renyi([0.25, 0.25, 0.5], 5000.0), abs=1e-9
        )

    def test_counts_helper(self):
        assert entropy_of_counts([5, 5, 5, 5], 2.0) == pytest.approx(2.0, abs=1e-12)
        assert entropy_of_counts([], 2.0) == 0.0


def window_of(counts, gaps, sizes, duration=1.0):
    """The counts of a window given packet by packet: packets per source,
    inter-arrival gaps (seconds) binned as the engine bins them, and
    packets per size."""
    edges = interarrival_inner_edges(duration)
    bins = [0] * N_INTERARRIVAL_BINS
    for gap in gaps:
        bins[bisect_right(edges, gap)] += 1
    return WindowCounts(dict(counts), bins, dict(Counter(sizes)))


def baseline_of(windows):
    """Baseline statistics of the entropies of ``windows``."""
    return BaselineStats.from_triples([window_entropies(w) for w in windows])


def benign_traffic(rng, n_sources=32, rate=10):
    """(per-source counts, inter-arrival gaps, packet sizes) of one benign
    window."""
    counts = {f"s{i}": int(rate + rng.integers(-1, 2)) for i in range(n_sources)}
    total = sum(counts.values())
    sizes = tuple(int(s) for s in rng.choice([256, 512, 1024], p=[0.25, 0.5, 0.25], size=total))
    ia = tuple(float(x) for x in rng.exponential(1.0 / total, size=total - 1))
    return counts, ia, sizes


def benign_window(rng, wid, n_sources=32, rate=10):
    return window_of(*benign_traffic(rng, n_sources, rate))


def flood_window(rng, wid, share=0.4, n_sources=32, rate=10):
    counts, ia, sizes = benign_traffic(rng, n_sources, rate)
    n_attack = int(share / (1 - share) * sum(counts.values()))
    counts["attacker"] = n_attack
    sizes += (512,) * n_attack
    ia += tuple([1.0 / max(n_attack, 1)] * (n_attack - 1))
    return window_of(counts, ia, sizes)


@pytest.fixture
def baseline():
    rng = np.random.default_rng(31)
    return baseline_of([benign_window(rng, i) for i in range(20)])


class TestClassifyWindow:
    def test_flood_flagged(self, baseline):
        rng = np.random.default_rng(32)
        # one source emitting ~90% of the traffic against a uniform baseline
        window = flood_window(rng, 0, share=0.9, n_sources=50)
        assert classify_window(window, baseline).verdict == VERDICT_ATTACK

    def test_benign_window_passes(self, baseline):
        rng = np.random.default_rng(33)
        window = benign_window(rng, 0)
        assert classify_window(window, baseline).verdict == VERDICT_BENIGN

    def test_small_window_inconclusive(self, baseline):
        window = window_of({"a": 3, "b": 2}, (0.1, 0.2), (512,) * 5)
        assert classify_window(window, baseline).verdict == VERDICT_INCONCLUSIVE

    def test_baseline_too_small_rejected(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError):
            baseline_of([benign_window(rng, i) for i in range(5)])

    def test_entropies_nonnegative(self, baseline):
        rng = np.random.default_rng(35)
        h = window_entropies(benign_window(rng, 0))
        assert all(v >= 0 for v in h)


def numpy_renyi(p, alpha=2.0):
    """The NumPy form that the plain-Python statistics replaced, kept as the
    oracle: ``** alpha`` and ``np.sum`` over the nonzero float64 shares."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(math.log2(np.sum(nz**alpha)) / (1.0 - alpha))


def numpy_entropy_of_counts(counts, alpha=2.0):
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        return 0.0
    return numpy_renyi(c / total, alpha)


def numpy_window_entropies(window, alpha=2.0):
    """:func:`window_entropies` in its NumPy form."""
    src = numpy_entropy_of_counts(list(window.source_counts.values()), alpha)
    bins = window.interarrival_bins
    ia = numpy_entropy_of_counts(bins if any(bins) else [1.0], alpha)
    sizes = window.size_counts
    size_counts = [sizes[s] for s in sorted(sizes)] if sizes else [1.0]
    return src, ia, numpy_entropy_of_counts(size_counts, alpha)


def numpy_baseline(triples):
    """:meth:`BaselineStats.from_triples` in its NumPy form."""
    arr = np.asarray(triples)
    means, stds = arr.mean(axis=0), arr.std(axis=0)
    return BaselineStats(
        float(means[0]), float(stds[0]), float(means[2]), float(stds[2]), len(triples)
    )


def list_window_entropies(counts, gaps, sizes, duration, alpha=2.0):
    """The packet-list binning that window counts replaced, kept as the
    oracle: histogram of clipped gaps, ``np.unique`` of the sizes."""
    src = entropy_of_counts(list(counts.values()), alpha)
    if len(gaps) == 0:
        hist = np.array([1.0])
    else:
        edges = np.geomspace(1e-4, max(duration, 1e-3), num=17)
        hist, _ = np.histogram(np.clip(gaps, edges[0], edges[-1]), bins=edges)
    ia = entropy_of_counts(hist, alpha)
    if sizes:
        _, size_counts = np.unique(np.asarray(sizes, dtype=np.int64), return_counts=True)
    else:
        size_counts = np.array([1.0])
    return src, ia, entropy_of_counts(size_counts, alpha)


def gap_us(duration):
    """Integer-µs gaps: equal times, each bin edge's neighbours (the edge
    itself where it is a whole µs), below the first edge, past the window."""
    window_us = int(duration * 1e6)
    edges_us = np.geomspace(1e-4, duration, num=17) * 1e6
    near_edges = sorted({f(e) for e in edges_us for f in (math.floor, math.ceil)})
    return st.one_of(
        st.sampled_from([0, *near_edges]),
        st.integers(0, 99),
        st.integers(window_us, 3 * window_us),
        st.integers(0, window_us),
    )


@st.composite
def packet_streams(draw, duration):
    """(sources, sizes, arrival times in µs, whether a gap carries over from
    the previous window) for zero or more packets."""
    n = draw(st.integers(0, 40))
    sources = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.sampled_from([256, 512, 1024]), min_size=n, max_size=n))
    else:
        sizes = [draw(st.sampled_from([256, 512, 1024]))] * n
    gaps = draw(st.lists(gap_us(duration), min_size=n, max_size=n))
    times = list(itertools.accumulate(gaps))
    return sources, sizes, times, draw(st.booleans())


class TestWindowCounts:
    @pytest.mark.parametrize("duration", [0.25, 1.0])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_counts_bit_identical_to_packet_lists(self, duration, data):
        sources, sizes, times, carried = data.draw(packet_streams(duration))
        # The engine divides whole-µs differences, as here; a window's first
        # packet has a gap only when an earlier window saw a packet.
        stamps = ([0] if carried else []) + times
        gaps = tuple((b - a) / 1e6 for a, b in zip(stamps, stamps[1:]))
        counts: dict[str, int] = {}
        for src in sources:
            counts[src] = counts.get(src, 0) + 1
        window = window_of(counts, gaps, sizes, duration)
        expected = list_window_entropies(counts, gaps, sizes, duration)
        assert repr(window_entropies(window)) == repr(expected)
        assert sum(window.interarrival_bins) == len(gaps)

    def test_empty_profiles_are_negative_zero(self):
        # detection.csv prints these as -0.000000
        h = window_entropies(window_of({}, (), (), 0.25))
        assert repr(h) == "(0.0, -0.0, -0.0)"

    def test_gap_on_an_edge_opens_the_upper_bin(self):
        window = window_of({"a": 4}, (1e-5, 1e-4, 1e-3, 7.0), (512,) * 4)
        bins = window.interarrival_bins
        assert (bins[0], bins[4], bins[15]) == (2, 1, 1)


@st.composite
def window_counts(draw):
    """Running counts of a window: up to 300 sources; sparse inter-arrival
    bins."""
    n_sources = draw(st.one_of(st.integers(0, 40), st.integers(100, 300)))
    counts = draw(st.lists(st.integers(1, 500), min_size=n_sources, max_size=n_sources))
    bins = draw(
        st.lists(st.one_of(st.just(0), st.integers(1, 2000)), min_size=16, max_size=16)
    )
    sizes = draw(st.dictionaries(st.sampled_from([256, 512, 1024]), st.integers(1, 500)))
    return WindowCounts({f"d{i}": c for i, c in enumerate(counts)}, bins, sizes)


def exact_collision_entropy(counts):
    """-log2 of the sum of the squared float shares, summed exactly and
    rounded once; each share and its square (``**``, as in the library)
    round on their own."""
    total = sum(counts)
    if total <= 0:
        return 0.0
    return -math.log2(float(sum(Fraction((c / total) ** 2) for c in counts)))


ALPHAS = (0.5, 2.0, 3.0)


class TestNumpyOracles:
    """The plain-Python statistics agree with their NumPy forms within
    1e-12: the sums round differently (``math.fsum`` against NumPy's
    pairwise order), and ``**`` calls libm ``pow`` where NumPy's ``power``
    squares or takes a SIMD path."""

    @settings(max_examples=100, deadline=None)
    @given(window=window_counts())
    @example(window=WindowCounts())
    def test_window_entropies_bit_identical(self, window):
        ours = window_entropies(window)
        assert ours == pytest.approx(numpy_window_entropies(window), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    @settings(max_examples=50, deadline=None)
    @given(window=window_counts())
    def test_other_alpha_within_1e12(self, alpha, window):
        ours = window_entropies(window, alpha)
        theirs = numpy_window_entropies(window, alpha)
        assert ours == pytest.approx(theirs, rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(window=window_counts())
    @example(window=WindowCounts())
    def test_alpha_2_sums_the_squared_shares_exactly(self, window):
        bins, sizes = window.interarrival_bins, window.size_counts
        expected = (
            exact_collision_entropy(list(window.source_counts.values())),
            exact_collision_entropy(bins if any(bins) else [1]),
            exact_collision_entropy(list(sizes.values()) if sizes else [1]),
        )
        assert repr(window_entropies(window, 2.0)) == repr(expected)

    def test_counts_helpers_bit_identical(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            counts = rng.random(int(rng.integers(1, 300))) * 10.0 ** rng.integers(-3, 4)
            counts[rng.random(counts.size) < 0.2] = 0.0
            p = counts / counts.sum()
            for alpha in ALPHAS:
                assert entropy_of_counts(counts, alpha) == pytest.approx(
                    numpy_entropy_of_counts(counts, alpha), rel=0.0, abs=1e-12
                )
                assert renyi_entropy(p, alpha) == pytest.approx(
                    numpy_renyi(p, alpha), rel=0.0, abs=1e-12
                )

    @settings(max_examples=100, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(*[st.floats(0.0, 12.0) | st.just(-0.0)] * 3), min_size=10, max_size=200
        )
    )
    def test_baseline_bit_identical(self, triples):
        ours = astuple(BaselineStats.from_triples(triples))
        assert ours == pytest.approx(astuple(numpy_baseline(triples)), rel=0.0, abs=1e-12)


class TestPredictBandwidth:
    def test_constant_series_fixed_point(self):
        pred = predict_bandwidth([7.5] * 20, smoothing=0.3)
        assert pred.predicted_usage == pytest.approx(7.5)

    def test_degenerate_smoothing_tracks_last(self):
        pred = predict_bandwidth([1.0, 5.0, 9.0], smoothing=1.0)
        assert pred.predicted_usage == 9.0

    def test_step_convergence_bound(self):
        lam = 0.3
        n = math.ceil(math.log(0.01) / math.log(1 - lam))
        series = [0.0] + [100.0] * n
        pred = predict_bandwidth(series, smoothing=lam)
        assert abs(pred.predicted_usage - 100.0) <= 1.0  # within 1%
        shorter = predict_bandwidth(series[:-2], smoothing=lam)
        assert abs(shorter.predicted_usage - 100.0) > 1.0

    def test_monotone_approach(self):
        lam = 0.3
        values = [0.0] + [10.0] * 30
        preds = [
            predict_bandwidth(values[: i + 1], smoothing=lam).predicted_usage
            for i in range(1, len(values))
        ]
        for lo, hi in zip(preds, preds[1:]):
            assert hi >= lo - 1e-12

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            predict_bandwidth([], smoothing=0.3)


class TestQuarantine:
    def test_flood_source_blocked(self, baseline):
        rng = np.random.default_rng(36)
        window = flood_window(rng, 0, share=0.9, n_sources=50)
        report = classify_window(window, baseline)
        blocked = quarantine(report, window.source_counts)
        assert blocked == ["attacker"]

    def test_benign_verdict_blocks_nobody(self, baseline):
        rng = np.random.default_rng(37)
        window = benign_window(rng, 0)
        report = classify_window(window, baseline)
        assert quarantine(report, window.source_counts) == []

    def test_moderate_sources_spared(self, baseline):
        rng = np.random.default_rng(38)
        window = flood_window(rng, 0, share=0.45, n_sources=32)
        report = classify_window(window, baseline)
        assert report.verdict == VERDICT_ATTACK
        blocked = quarantine(report, window.source_counts)
        assert "attacker" in blocked
        assert all(src == "attacker" for src in blocked)


class TestDetectionSuite:
    """Seeded synthetic-flood corpus: recall and false-positive targets."""

    def test_recall_and_false_positive_rates(self):
        recalls, fprs = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            baseline = baseline_of([benign_window(rng, i) for i in range(20)])
            fp = sum(
                classify_window(benign_window(rng, 100 + i), baseline).verdict
                == VERDICT_ATTACK
                for i in range(100)
            )
            tp = sum(
                classify_window(
                    flood_window(rng, 300 + i, share=float(rng.uniform(0.25, 0.5))),
                    baseline,
                ).verdict
                == VERDICT_ATTACK
                for i in range(60)
            )
            recalls.append(tp / 60)
            fprs.append(fp / 100)
        assert min(recalls) >= 0.9
        assert max(fprs) <= 0.05
