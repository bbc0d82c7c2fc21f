"""Counter-based seeded RNG.

Functions here are pure; nothing holds mutable shared state, so concurrent
callers are safe. Randomness goes through :class:`Rng`, a thin wrapper over
numpy's Philox counter-based generator, so identical seeds reproduce identical
streams on every platform.
"""

from __future__ import annotations

import numpy as np


class Rng:
    """Deterministic random stream keyed by (seed, spawn path).

    Backed by numpy's Philox counter-based bit generator: the same seed and
    spawn path replay the exact same draws regardless of platform or of what
    sibling streams were consumed. ``child(tag)`` derives an independent
    stream, which lets callers give each consumer (init, shuffle, ...) its
    own stream without draw-order coupling.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(self.seed, spawn_key=_spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def child(self, tag: int) -> "Rng":
        """Derive an independent deterministic sub-stream."""
        return Rng(self.seed, self._spawn_key + (int(tag),))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
