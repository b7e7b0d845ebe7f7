"""The data plane: every packet of a run, from its send to its outcome.

:class:`DataPlane` owns every per-packet array of a run.  The engine runs it
just before each event that reads packet state or writes trace rows, and at
the end of the run.  Packets are taken in a canonical order, (time, device
index, retransmit), which does not depend on where the run is cut into
batches:

- a batch builds its new transmits with NumPy from each device's next send
  time and interval, and draws each one's size, loss and retransmit loss
  from the ``sizes``, ``loss`` and ``retransmit-loss`` streams, one value
  each per transmit in canonical order (the counter-based idea of Salmon
  et al., SC 2011: a draw depends on the packet's place, not on the cut);
- one scalar pass per switch applies its FIFO: the backlog, the overflow
  bound, and retransmits inserted ``retransmit_delay`` after a failure;
- window counts, per-device bits and slice counters are folded from the
  batch's arrays;
- outcomes (deliveries and drops) are held as arrays and applied, in
  (time, kind, packet) order, before the next event that reads them.  A
  delivery whose source was quarantined in the meantime is dropped then.
  An application writes all its trace rows in one sink call, formatted with
  NumPy from integer microseconds and two tables of text built once for a
  traced run: ``,kind,device,`` per (outcome, device), and
  ``slice,switch,outcome`` per (switch, slice, outcome), taken by the
  device's ``sw_of`` and ``slice_of`` as they are when the outcome applies.

A run's artifacts are therefore the same whether the data plane runs
before every event or only before the readers, and whatever the batch size.

Per-device state lives in the data plane's arrays, one entry per device:
its switch (``sw_of``), its slice's index (``slice_of``), whether it floods
and whether it is quarantined.  A switch's flows are the devices whose
``sw_of`` is its index, and a device's counters are its slice's, in the
counters the engine passes; no second copy of either is kept.

A device changes switch only when it is first placed, before it sends, and
at a rebalance, after the interval has been closed.  So the open rebalance
interval keeps one count of bits per device, and a switch's load in it is
the sum over the devices whose ``sw_of`` is that switch.  A detection window
can stay open across a rebalance, so it counts each device's packets on its
current switch, and :meth:`DataPlane.place` moves a moving device's count to
one per (switch left, device).  Its state grows with devices, switches and
moves, not with packets, and closing it visits only the devices that sent.
"""

from __future__ import annotations

__all__ = [
    "BATCH_PACKETS", "DataPlane", "LOSS", "OK", "OVERFLOW", "QUARANTINED", "REFUSED",
    "rows_text", "size_index",
]

from collections import Counter, deque
from itertools import chain
from typing import Callable, Optional

import numpy as np

from . import ddos as ddos_mod
from .domain import SLICE_ORDER
from .metrics import SliceCounters
from .rng import RngHub
from .scenario import Scenario, to_us

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
    """``texts`` as rows of 32-bit words in memory order, each padded with
    NULs to the whole words of the longest."""
    rows = [text.encode() for text in texts]
    width = -(-max(map(len, rows), default=0) // 4)
    block = b"".join(row.ljust(4 * width, b"\0") for row in rows)
    return np.frombuffer(block, dtype=np.uint32).reshape(len(rows), width)


# Each number below 1000 as a word of trace text, a NUL standing for nothing:
# three digits then a NUL; without leading zeros, and no digit at all for 0;
# the same, but "0" for 0; a point then three digits.
_FULL = _words(f"{i:03d}\0" for i in range(1000)).ravel()
_LEAD = _words(str(i or "").rjust(3, "\0") + "\0" for i in range(1000)).ravel()
_LEAD_LAST = _words(str(i).rjust(3, "\0") + "\0" for i in range(1000)).ravel()
_POINT = _words(f".{i:03d}" for i in range(1000)).ravel()


class InvariantViolation(RuntimeError):
    """An engine-internal consistency rule was broken."""


def rows_text(time: np.ndarray, *parts: np.ndarray) -> str:
    """One line per time in ``time`` (microseconds): the time in seconds with
    six decimals, the text of ``f"{t / 1e6:.6f}"`` for every ``t`` below
    2**52, then row ``i`` of each of ``parts`` in turn, words of text padded
    with NULs."""
    ms, lo = np.divmod(time, 1000)
    sec, hi = np.divmod(ms, 1000)
    # the seconds in groups of three digits, the most significant first
    groups = [sec]
    while groups[0].max() >= 1000:
        groups[:1] = np.divmod(groups[0], 1000)
    n_sec = len(groups)
    col = n_sec + 2
    text = np.empty((len(time), col + sum(p.shape[1] for p in parts)), dtype=np.uint32)
    text[:, 0] = (_LEAD_LAST if n_sec == 1 else _LEAD).take(groups[0])
    for g in range(1, n_sec):
        # a group after a digit keeps its leading zeros
        lead = _LEAD_LAST if g == n_sec - 1 else _LEAD
        after = sec >= 1000 ** (n_sec - g)
        text[:, g] = np.where(after, _FULL.take(groups[g]), lead.take(groups[g]))
    text[:, n_sec] = _POINT.take(hi)
    text[:, n_sec + 1] = _FULL.take(lo)
    for part in parts:
        text[:, col : col + part.shape[1]] = part
        col += part.shape[1]
    return text.tobytes().translate(None, b"\0").decode()


def _row_tables(
    device_ids: list[str], slice_ids: list[str], switch_ids: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """What follows the time in an outcome row, in two tables of words of
    text padded with NULs: the heads ``,kind,device,``, row
    ``code * len(device_ids) + device``, and the tails ``slice,switch,outcome``
    and a newline, row ``(switch * len(slice_ids) + slice) * len(_OUTCOME_CELLS)
    + code``.  Switch -1, an unplaced device, gives a negative row: one of the
    last block of tails, whose switch cell is empty."""
    heads = _words(f"{kind}{device_id}," for kind, _ in _OUTCOME_CELLS for device_id in device_ids)
    tails = _words(
        f"{slice_id},{switch_id}{outcome}\n"
        for switch_id in (*switch_ids, "")
        for slice_id in slice_ids
        for _, outcome in _OUTCOME_CELLS
    )
    return heads, tails


def size_index(u: np.ndarray) -> np.ndarray:
    """Size index 0, 1 or 2 (half, full or double the packet length) of each
    draw in ``u``, with probabilities 1/4, 1/2, 1/4.

    For the same draws these are the values of
    ``rng.choice([length // 2, length, length * 2], p=[0.25, 0.5, 0.25])``,
    which bisects the CDF with one ``random()`` draw.
    """
    return (u >= 0.25) + (u >= 0.75).astype(np.int64)


class DataPlane:
    """The packets of one run (see the module docstring).

    The engine drives it only through :meth:`run`, :meth:`start`,
    :meth:`place`, :meth:`quarantine`, :meth:`close_window` and
    :meth:`close_interval`, and reads ``sw_of`` and ``is_quarantined``.
    ``counters`` are the slices' counters in ``SLICE_ORDER``; a traced run's
    outcome rows go to ``trace_sink``.
    """

    def __init__(
        self, sc: Scenario, hub: RngHub, device_ids: list[str], floods: np.ndarray,
        switch_ids: list[str], counters: list[SliceCounters],
        trace_sink: Optional[Callable[[str], object]],
    ):
        n, m = len(device_ids), len(switch_ids)
        self.sc = sc
        self.end_us = to_us(sc.duration)
        # Per-packet times, rounded once here instead of on every packet.  An
        # interval longer than the run sends the packets that end_us + 1 does.
        self.packet_interval_us = min(to_us(sc.packet_interval), self.end_us + 1)
        self.flood_packet_interval_us = min(to_us(sc.flood_packet_interval), self.end_us + 1)
        self.flood_start_us = to_us(sc.flood_start)
        self.queue_delay_bound_us = to_us(sc.queue_delay_bound)
        self.processing_latency_us = to_us(sc.processing_latency)
        self.retransmit_delay_us = to_us(sc.retransmit_delay)
        # every switch loses packets at the same rate
        self.loss_rate = sc.switch_loss_rate
        # Inner edges of the detection windows' inter-arrival bins.
        self.ia_edges = np.array(ddos_mod.interarrival_inner_edges(sc.window_duration))
        # Packet sizes by size index, with their bits and link times; every
        # switch has the same rate.
        length, rate = sc.packet_length, sc.switch_transmission_rate
        self.sizes = (length // 2, length, length * 2)
        self.size_bits = np.array([size * 8 for size in self.sizes])
        self.size_tx_us = np.array([int(round(size * 8 / rate * 1e6)) for size in self.sizes])
        self._rng_sizes = hub.substream("sizes")
        self._rng_loss = hub.substream("loss")
        self._rng_retx = hub.substream("retransmit-loss")
        self.device_ids = device_ids
        self.counters = counters
        self.trace_sink = trace_sink
        # the text of outcome rows after the time, for a traced run
        self.row_tables = (
            _row_tables(device_ids, [st.slice_id for st in SLICE_ORDER], switch_ids)
            if trace_sink is not None
            else None
        )
        self.generated = 0
        # packets before this time have run; none may start before it
        self.ran_to_us = 0
        # Per device: the time of its next new transmit, whether it floods
        # (sends at the flood interval once flooding starts), whether it sends
        # a failed packet once more, its slice's index in SLICE_ORDER, its
        # switch's index (-1 before it is placed), and whether it is
        # quarantined.
        self.next_us = np.full(n, _NEVER, dtype=np.int64)
        self.floods = floods
        self.reliable = np.zeros(n, dtype=bool)
        self.slice_of = np.zeros(n, dtype=np.int64)
        self.sw_of = np.full(n, -1, dtype=np.int64)
        self.is_quarantined = np.zeros(n, dtype=bool)
        # Packets of each quarantined device stopped at the AP; from
        # ``flood_giveup`` of them on (and at least one), it sends no more.
        self.blocked_packets = [0] * n
        # Per switch: the time its link is busy until, and its last arrival
        # (-1 before the first).  The open detection window counts arrivals
        # per device, per (switch left, device), per (switch, size index) and
        # per (switch, inter-arrival bin); the open rebalance interval counts
        # each device's bits.
        self.busy_us = [0] * m
        self.last_arrival_us = [-1] * m
        self.win_sent = np.zeros(n, dtype=np.int64)
        self.win_left: Counter[tuple[int, int]] = Counter()
        self.win_sizes = np.zeros((m, len(self.sizes)), dtype=np.int64)
        self.win_gaps = np.zeros((m, ddos_mod.N_INTERARRIVAL_BINS), dtype=np.int64)
        self.interval_bits = np.zeros(n, dtype=np.int64)
        # Retransmits due in a later batch: (time, device, size index, loss draw).
        self.retransmits: list[tuple[int, int, int, float]] = []
        # Outcomes not yet applied, a row each: time, outcome code, packet's
        # place in canonical order, device, bits, latency (see ``_hold``).
        self.held = np.zeros((0, 6), dtype=np.int64)

    # -- the engine's calls ------------------------------------------------------

    def start(self, di: int, first_us: int, reliable: bool, slice_index: int) -> None:
        """Send device ``di``'s packets from ``first_us`` on, on the slice at
        ``slice_index`` in ``SLICE_ORDER``, each failed one once more if
        ``reliable``; none is sent at or after the horizon."""
        if first_us < self.ran_to_us:
            raise InvariantViolation(
                f"packets of {di} start at {first_us}; packets ran to {self.ran_to_us}"
            )
        if first_us >= self.end_us:
            return
        self.next_us[di] = first_us
        self.reliable[di] = reliable
        self.slice_of[di] = slice_index

    def place(self, di: int, switch: int) -> None:
        """Route device ``di``'s packets through switch index ``switch``; its
        arrivals in the open window stay counted on the switch it leaves."""
        old, sent = int(self.sw_of[di]), int(self.win_sent[di])
        if sent and old != switch:
            self.win_left[old, di] += sent
            self.win_sent[di] = 0
        self.sw_of[di] = switch

    def quarantine(self, di: int) -> None:
        """Stop device ``di``'s packets at the AP from now on."""
        self.is_quarantined[di] = True

    def close_window(self) -> list[ddos_mod.WindowCounts]:
        """The open detection window's counts, one per switch, each with its
        sources in device order; a new window opens empty."""
        sent = np.flatnonzero(self.win_sent)
        counts = self.win_left
        for i, j, c in zip(sent.tolist(), self.sw_of[sent].tolist(), self.win_sent[sent].tolist()):
            counts[j, i] += c
        sources: list[dict[str, int]] = [{} for _ in self.busy_us]
        for (j, i), c in sorted(counts.items()):
            sources[j][self.device_ids[i]] = c
        windows = [
            ddos_mod.WindowCounts(
                source_counts=source_counts,
                interarrival_bins=gaps,
                size_counts={size: c for size, c in zip(self.sizes, sizes) if c},
            )
            for source_counts, gaps, sizes in zip(
                sources, self.win_gaps.tolist(), self.win_sizes.tolist()
            )
        ]
        self.win_sent[sent] = 0
        self.win_left = Counter()
        self.win_sizes.fill(0)
        self.win_gaps.fill(0)
        return windows

    def close_interval(self) -> np.ndarray:
        """Each device's bits in the open rebalance interval; a new interval
        opens empty."""
        bits, self.interval_bits = self.interval_bits, np.zeros_like(self.interval_bits)
        return bits

    def run(self, until_us: float) -> None:
        """Run every packet due before ``until_us``, then apply every outcome
        due before it.

        Packets run in batches of at most ``BATCH_PACKETS`` new transmits, and
        the outcomes due before a batch's end are applied after it.  No event
        comes between two batches of one call, so where they are cut changes
        nothing.
        """
        self.ran_to_us = until_us
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

    # -- batches -----------------------------------------------------------------

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
            self._hold(t, zero + QUARANTINED, (t * len(self.next_us) + di) * 2 + 1, di, zero, zero)
        return [r for r in due if r[1] not in quarantined]

    def _run_batch(self, end_us: int, act, s, m1, p, m2) -> None:
        """Run every packet due before ``end_us`` (see :meth:`_plan_batch` for
        the arguments); their outcomes join ``held``."""
        n_dev, n_sw = len(self.next_us), len(self.busy_us)
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
        for c, n in zip(self.counters, np.bincount(self.slice_of[di], minlength=3).tolist()):
            c.sent += n
            c.in_flight += n
        if not len(t) and not due:
            return

        # Every packet that reaches a switch, served there; then the window
        # and interval counts of them all.
        sw = self.sw_of[di]
        res, prev, extra = self._serve_links(
            end_us, due, t.tolist(), di.tolist(), z.tolist(), sw.tolist(),
            (u < self.loss_rate).tolist(), retry.tolist(),
        )
        if extra:
            ex = np.array(extra, dtype=np.int64).T
            ex_key = (ex[0] * n_dev + ex[1]) * 2 + 1
            t, di, z, sw, res, prev, key = (
                np.concatenate(pair) for pair in zip((t, di, z, sw, res, prev, key), (*ex, ex_key))
            )
        self.win_sent += np.bincount(di, minlength=n_dev)
        self.win_sizes += np.bincount(sw * 3 + z, minlength=n_sw * 3).reshape(n_sw, 3)
        np.add.at(self.interval_bits, di, self.size_bits[z])
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

    def _serve_links(self, end_us, due, ts, ds, zs, sws, lost, retry):
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
        sw_of, loss_rate = self.sw_of.tolist(), self.loss_rate
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
                if ru < loss_rate:
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
        slice_code = sl * n_codes + code
        counts = np.bincount(slice_code, minlength=3 * n_codes).reshape(3, n_codes)
        ok = code == OK
        bits_sum = np.bincount(sl, weights=bits * ok, minlength=3)
        latency_sum = np.bincount(sl, weights=latency * ok, minlength=3)
        for c, (n_ok, n_loss, n_over, n_q, n_refused), b, lat in zip(
            self.counters, counts.tolist(), bits_sum.tolist(), latency_sum.tolist()
        ):
            c.sent += n_refused  # offered traffic stopped at the AP, never in flight
            c.in_flight -= n_ok + n_loss + n_over + n_q
            c.delivered += n_ok
            c.dropped += n_loss + n_over + n_q + n_refused
            c.blocked += n_q + n_refused
            c.delivered_bits += int(b)
            c.latency_us += int(lat)
        if sink is not None:
            heads, tails = self.row_tables
            sink(
                rows_text(
                    time,
                    heads.take(code * len(self.next_us) + di, axis=0),
                    tails.take(self.sw_of.take(di) * (3 * n_codes) + slice_code, axis=0),
                )
            )
