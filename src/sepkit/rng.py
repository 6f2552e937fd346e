"""Seeded deterministic random streams.

The generator is SplitMix64 run in counter mode: output ``i`` of a stream
is ``mix64(seed + (i + 1) * GOLDEN)`` where ``mix64`` is the standard
xorshift-multiply finalizer.  Because each output is a pure function of
(seed, index), streams vectorize with numpy and re-running any consumer
with the same seed reproduces its draws bit for bit.  The seed is echoed
in every CLI report so published numbers can be regenerated exactly.

`uniform` and `normal` return f64 arrays of the shape asked for; a caller
that wants f32 casts them.  `draws` is the one field builder of every
parameter set's `init`: zeros (the declared init) without a stream,
seeded normal draws with one.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic sub-seed for stream `salt` of a run seeded with `seed`."""
    base = np.asarray([(seed + (salt + 1) * 0x9E3779B97F4A7C15) & _MASK],
                      dtype=np.uint64)
    return int(_mix(base)[0])


class Stream:
    """One sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def _raw(self, count: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + count + 1,
                        dtype=np.uint64)
        self._counter += count
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + idx * _GOLDEN
            return _mix(z)

    def uniform(self, shape) -> np.ndarray:
        """f64 array of `shape` uniform in [0, 1), from the top 53 bits of
        each word."""
        n = int(np.prod(shape, dtype=np.int64))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        return u.reshape(shape)

    def normal(self, shape, scale=1.0) -> np.ndarray:
        """f64 array of `shape` normal at `scale`, by Box-Muller on paired
        uniforms."""
        n = int(np.prod(shape, dtype=np.int64))
        pairs = (n + 1) // 2
        # shift into (0, 1] so the log is finite
        u1 = ((self._raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) \
            / float(1 << 53)
        u2 = (self._raw(pairs) >> np.uint64(11)).astype(np.float64) \
            / float(1 << 53)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
        return (z * scale).reshape(shape)

    def choice(self, n: int, count: int) -> np.ndarray:
        """`count` distinct indices from range(n), order-stable for a seed."""
        if count >= n:
            return np.arange(n, dtype=np.int64)
        keys = self._raw(n)
        return np.sort(np.argsort(keys, kind="stable")[:count])


def draws(rng: Stream | None, dtype=np.float64):
    """Field builder `g(scale, *shape)`: zeros of `shape` without a stream,
    else the stream's next normal draws at `scale`, cast to `dtype`."""
    if rng is None:
        return lambda scale, *shape: np.zeros(shape, dtype=dtype)
    return lambda scale, *shape: rng.normal(shape, scale=scale).astype(dtype)
