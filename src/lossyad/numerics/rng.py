"""Seeded, platform-stable randomness.

All stochastic behavior in the package (weight init, quantization noise,
shuffling, corpus sampling, synthetic data) flows through RngState so that
a single 64-bit seed fully determines every run.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngState(np.random.Generator):
    """numpy's PCG64 Generator on a 64-bit seed, with named substreams.

    Every draw is numpy's own method. `spawn(key)` replaces numpy's
    `Generator.spawn(n_children)`, which nothing in the package calls.
    """

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        super().__init__(np.random.PCG64(self.seed))

    def spawn(self, key):
        """Derive an independent stream from this seed and a label.

        Uses sha256 so the derivation is stable across platforms and
        python versions (unlike hash()).
        """
        digest = hashlib.sha256(f"{self.seed}:{key}".encode()).digest()
        return RngState(int.from_bytes(digest[:8], "little"))
