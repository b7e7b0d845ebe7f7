"""Fixed reference work: its time measures the host's current speed.

The benchmark runs it before the first child and after every child, in a
process of its own, and scales the children's times by it (see ``run.py``).
It does the kinds of work a ``ts3ra run`` child does: an HMAC chain as in
PBKDF2, heap and dict traffic as in the event loop, small NumPy products as
in slicenet.  It must not import ts3ra and must not change, or it would stop
being a fixed yardstick.

``python3 perfbench/reference.py`` prints the wall times of ``REPS`` runs of
``work()`` as a JSON list of seconds.
"""

import hashlib
import heapq
import hmac
import json
from time import perf_counter

import numpy as np

REPS = 3


def work() -> int:
    u, acc = b"\0" * 20, bytearray(20)
    for _ in range(8_000):
        u = hmac.new(b"reference", u, hashlib.sha1).digest()
        for j in range(20):
            acc[j] ^= u[j]
    heap: list = []
    counts: dict = {}
    kept = []
    for i in range(100_000):
        heapq.heappush(heap, (i * 7919 % 100_003, i, (i, False, 0)))
        if len(heap) > 4096:
            _, k, payload = heapq.heappop(heap)
            counts[k % 997] = counts.get(k % 997, 0) + 1
            kept.append((k, str(k), payload))
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 8))
    x = rng.standard_normal((32, 8))
    for _ in range(1_500):
        x = np.tanh(x @ w)
    return acc[0] + len(counts) + len(kept) + int(x.sum() > 0)


if __name__ == "__main__":
    times = []
    for _ in range(REPS):
        t = perf_counter()
        work()
        times.append(perf_counter() - t)
    print(json.dumps(times))
