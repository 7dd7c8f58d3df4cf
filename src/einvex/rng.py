"""Deterministic counter-based sampling streams.

Every checker derives the points it looks at from a ``SampleStream``: a
splitmix64 generator addressed by (seed, label, counter).  Streams with
different labels are statistically independent, draws are reproducible
bit-for-bit across platforms and process counts, and a stream can be
re-created mid-run without disturbing any other stream.
"""

from __future__ import annotations

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def _mix(z: int) -> int:
    """splitmix64 finalizer of one 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _fold_label(seed: int, label: str) -> int:
    """The base state of the stream (seed, label), a 64-bit integer."""
    state = _mix(((seed & _M64) * _GOLDEN + _GOLDEN) & _M64)
    for byte in label.encode("utf-8"):
        state = _mix(state ^ (byte * _GOLDEN & _M64))
    return state


def _splitmix(z: np.ndarray, base: np.uint64, out: np.ndarray) -> None:
    """Doubles in [0, 1) into ``out`` from z, the 1-based stream positions as
    uint64, which serves as the work array: splitmix64 in place, then the
    top 53 bits scaled by 2^-53."""
    t = np.empty_like(z)
    z *= _U64(_GOLDEN)
    z += base
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        z *= _U64(mul)
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    z >>= _U64(11)
    np.multiply(z, 2.0 ** -53, out=out)


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
        self._base = _U64(_fold_label(seed, label))
        self._pos = 0

    def uniform(self, count: int, start=None) -> np.ndarray:
        """``count`` doubles from position ``start`` on, by default from
        where the last draw ended."""
        if start is not None:
            self._pos = start
        out = np.empty(count)
        _splitmix(np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64), self._base, out)
        self._pos += count
        return out

    def box(self, lo, hi, count: int, out=None) -> np.ndarray:
        """Uniform points in the box [lo, hi]; shape (count, dim).

        Point i reads the stream at dim * i + j for coordinate j, as
        ``uniform(count * dim).reshape(count, dim)`` would; each coordinate
        is drawn straight into its column of ``out`` (a new array by
        default), which is returned.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        dim = lo.size
        out = np.empty((count, dim)) if out is None else out
        for j in range(dim):  # one coordinate at a time: numpy is slow over a short last axis
            first = self._pos + j + 1
            col = out[:, j]
            _splitmix(np.arange(first, first + dim * count, dim, dtype=np.uint64), self._base, col)
            col *= hi[j] - lo[j]  # lo + u * (hi - lo): the same two roundings
            col += lo[j]
        self._pos += dim * count
        return out


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
