"""The sampling streams against their numpy-scalar reference, bit for bit.

The reference below is the stream as first written: the label folded with
numpy uint64 scalars, and every draw built from whole-array temporaries.
The package folds in Python integers and runs splitmix64 in place, which
must not move a single bit of any stream it reads.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from einvex import rng
from einvex.rng import SampleStream

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
SRC = Path(rng.__file__).resolve().parent
SEEDS = (0, 1, 42, 2**63 + 5, -1)


def _mix(z):
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _reference_fold(seed, label):
    with np.errstate(over="ignore"):
        state = _mix(_U64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + _GOLDEN)
        for byte in label.encode("utf-8"):
            state = _mix(state ^ _U64(byte) * _GOLDEN)
    return state


def _reference_uniform(seed, label, start, count):
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = _mix(_reference_fold(seed, label) + (idx + _U64(1)) * _GOLDEN)
    return (bits >> _U64(11)).astype(np.float64) * (2.0 ** -53)


def _reference_box(seed, label, start, lo, hi, count):
    u = _reference_uniform(seed, label, start, count * lo.size).reshape(count, lo.size)
    for j in range(lo.size):
        u[:, j] = lo[j] + u[:, j] * (hi[j] - lo[j])
    return u


def _labels():
    """Every stream label the package names."""
    found = set()
    for path in SRC.glob("*.py"):
        found.update(re.findall(r'SampleStream\([^,()]+,\s*"([^"]+)"\)', path.read_text()))
    return sorted(found)


def test_the_package_labels_are_found():
    assert {"pairs-x", "pairs-x0", "tau", "level-x", "level-x0", "compose-validate"} <= set(_labels())


@pytest.mark.parametrize("seed", SEEDS)
def test_the_integer_fold_is_the_numpy_fold(seed):
    for label in _labels() + ["", "é"]:
        ref = _reference_fold(seed, label)
        got = rng._fold_label(seed, label)
        assert type(got) is int and got == int(ref), (seed, label)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_are_the_reference_draws(seed):
    lo, hi = np.array([0.0, -1.0, -6.0]), np.array([2.0, 1.0, 1e300])
    s = SampleStream(seed, "pairs-x")
    assert s.uniform(17).tobytes() == _reference_uniform(seed, "pairs-x", 0, 17).tobytes()
    assert s.box(lo, hi, 9).tobytes() == _reference_box(seed, "pairs-x", 17, lo, hi, 9).tobytes()
    assert s.uniform(5, start=3).tobytes() == _reference_uniform(seed, "pairs-x", 3, 5).tobytes()
    # straight into every other row of a column-major block, as invex_block draws
    P = np.full((2 * 1030, 3), np.nan, order="F")
    got = s.box(lo, hi, 1030, P[1::2])
    assert np.shares_memory(got, P) and np.isnan(P[0::2]).all()
    assert P[1::2].tobytes() == _reference_box(seed, "pairs-x", 8, lo, hi, 1030).tobytes()
    assert s.uniform(0).shape == s.box(lo, hi, 0).shape[:1] == (0,)
