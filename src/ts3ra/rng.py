"""Deterministic random-number plumbing.

Every stochastic component draws from its own labeled substream derived
from the scenario seed, so adding or removing a consumer never perturbs
the draws seen by the others.  Labels are mapped to spawn keys with CRC32,
which is stable across platforms and interpreter restarts (unlike the
built-in ``hash``).
"""

from __future__ import annotations

import zlib

import numpy as np


class RngHub:
    """Factory of named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def substream(self, label: str) -> np.random.Generator:
        """Return the generator for ``label``, creating it on first use.

        The same (seed, label) pair always yields an identical stream.
        """
        gen = self._streams.get(label)
        if gen is None:
            key = zlib.crc32(label.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[label] = gen
        return gen
