"""Deterministic counter-based sampling streams.

Every checker derives the points it looks at from a ``SampleStream``: a
splitmix64 generator addressed by (seed, label, counter).  Streams with
different labels are statistically independent, draws are reproducible
bit-for-bit across platforms and process counts, and a stream can be
re-created mid-run without disturbing any other stream.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix(z):
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _fold_label(seed: int, label: str) -> np.uint64:
    with np.errstate(over="ignore"):
        state = _mix(_U64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + _GOLDEN)
        for byte in label.encode("utf-8"):
            state = _mix(state ^ _U64(byte) * _GOLDEN)
    return state


class SampleStream:
    """A named, counter-addressed uniform stream.

    ``uniform(k)`` returns the next ``k`` doubles in [0, 1).  The values
    depend only on (seed, label, position), so two streams built with the
    same arguments replay identically, and ``uniform(k, start)`` reads any
    stretch of the stream without drawing what comes before it.
    """

    def __init__(self, seed: int, label: str):
        self.seed = seed
        self.label = label
        self._base = _fold_label(seed, label)
        self._pos = 0

    def uniform(self, count: int, start=None) -> np.ndarray:
        """``count`` doubles from position ``start`` on, by default from
        where the last draw ended."""
        if start is not None:
            self._pos = start
        idx = np.arange(self._pos, self._pos + count, dtype=np.uint64)
        self._pos += count
        with np.errstate(over="ignore"):
            bits = _mix(self._base + (idx + _U64(1)) * _GOLDEN)
        return (bits >> _U64(11)).astype(np.float64) * (2.0 ** -53)

    def box(self, lo, hi, count: int) -> np.ndarray:
        """Uniform points in the box [lo, hi]; shape (count, dim)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        u = self.uniform(count * lo.size).reshape(count, lo.size)
        # one coordinate at a time: numpy broadcasts slowly over a short last axis
        for j in range(lo.size):
            u[:, j] = lo[j] + u[:, j] * (hi[j] - lo[j])
        return u


def tau_grid(stream: SampleStream, lo: int, hi: int, n_tau: int) -> np.ndarray:
    """Convex-combination weights of pairs lo..hi-1, shape (hi - lo, n_tau).

    The first three columns are always the deterministic anchors 0, 1/2, 1;
    the rest are uniform draws, n_tau - 3 per pair in pair order, so a pair's
    weights do not depend on the range it is drawn in.  Anchors first keeps
    endpoint behaviour in every run regardless of seed.
    """
    if n_tau < 3:
        raise ValueError("n_tau must be at least 3 (anchors 0, 1/2, 1)")
    out = np.empty((hi - lo, n_tau))
    out[:, 0] = 0.0
    out[:, 1] = 0.5
    out[:, 2] = 1.0
    if n_tau > 3:
        draws = stream.uniform((hi - lo) * (n_tau - 3), start=lo * (n_tau - 3))
        out[:, 3:] = draws.reshape(hi - lo, n_tau - 3)
    return out
