"""Shared fixtures: repository paths, a small default sample config and the
synthetic multiplier wedges."""

import importlib
import random
from pathlib import Path

import pytest

from einvex.problem import SampleConfig, load_problem

REPO = Path(__file__).resolve().parents[1]
PROBLEMS = REPO / "problems"


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(scope="session")
def problems_dir():
    return PROBLEMS


@pytest.fixture(scope="session")
def example1_path():
    return PROBLEMS / "example1.json"


@pytest.fixture(scope="session")
def vp1_path():
    return PROBLEMS / "vp1.json"


@pytest.fixture(scope="session")
def fast_cfg():
    """Small but non-toy sampling budget for unit-level checks."""
    return SampleConfig(seed=42, n_pairs=2000, n_tau=8)


@pytest.fixture()
def workloads(repo_root, monkeypatch):
    """The benchmark's bench/workloads module."""
    monkeypatch.syspath_prepend(str(repo_root / "bench"))
    return importlib.import_module("workloads")


@pytest.fixture()
def wedge(workloads):
    """bench/workloads.synthetic_problem: p linear objectives and m linear
    constraints, all active at the origin; solvable wedges need non-uniform
    objective weights, unsolvable ones have no multipliers."""
    return lambda seed, p, m, solvable: load_problem(
        workloads.synthetic_problem(random.Random(seed), p, m, solvable))
