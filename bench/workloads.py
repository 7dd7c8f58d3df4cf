"""Workload definitions: the CLI commands of one pass, built from the seed.

A pass is the fixed list of commands a workload runs once; the benchmark
repeats whole passes, so every run sees the same command mix.  Each command
names the conclusion it must reach and its nominal work, in the unit the
workload defines (requested pairs, grid points, multiplier solves); nominal
work never depends on what the program reports.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

CSV_PATH = "<csv>"   # replaced by a fresh file per invocation


@dataclass(frozen=True)
class Command:
    argv: tuple
    expect: str            # conclusion the report must carry
    work: int              # nominal work in the workload's unit
    bisects: bool = False  # uniform weights infeasible: the multiplier search bisects


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    min_samples: int  # timed commands per run, so the tail percentile has ten beyond it
    commands: tuple
    problem_files: tuple


def _check(problem, fn, kind, pairs, seed, expect, *extra):
    argv = ("check", problem, "--function", fn, "--kind", kind, "--pairs", str(pairs),
            "--seed", str(seed), *extra, "--format", "json")
    return Command(argv, expect, pairs)


def _certify(problem, theorem, pairs, seed):
    argv = ("certify", problem, "--candidate", "ybar", "--theorem", theorem,
            "--pairs", str(pairs), "--seed", str(seed), "--format", "json")
    return Command(argv, "certified", pairs)


def sampling(seed, root, workdir):
    """Gradient and mixture checks plus certificates on the shipped problems."""
    ex1 = str(root / "problems" / "example1.json")
    vp1 = str(root / "problems" / "vp1.json")
    s = [seed * 1000 + i for i in range(10)]
    commands = (
        _check(ex1, "f1", "invex", 100_000, s[0], "fails"),
        _check(ex1, "f1", "pseudo-invex", 100_000, s[1], "holds"),
        _check(ex1, "f1", "monotone-gradient", 100_000, s[2], "fails"),
        _check(ex1, "f1", "quasi-preinvex", 100_000, s[3], "fails"),
        _check(vp1, "f1", "invex", 200_000, s[4], "holds"),
        _check(vp1, "f2", "pseudo-invex", 200_000, s[5], "holds"),
        _check(vp1, "f1", "monotone-gradient", 100_000, s[6], "holds"),
        _check(vp1, "f2", "preinvex", 200_000, s[7], "fails", "--region", "feasible"),
        _certify(vp1, "t4", 100_000, s[8]),
        _certify(vp1, "t6", 100_000, s[9]),
    )
    return Workload("sampling", "requested pairs", 200, commands, (ex1, vp1))


def oracle(seed, root, workdir):
    """Two commands with the O(N^2) dominance scan and three without it.

    With five commands a pass, the median falls inside the middle command
    (the 801x801 query) and p90 inside the 61x61 classification, not
    between two commands of very different cost.
    """
    ex1 = str(root / "problems" / "example1.json")
    vp1 = str(root / "problems" / "vp1.json")
    commands = (
        Command(("oracle", vp1, "--grid", "61x61", "--format", "json"), "pass", 61 * 61),
        Command(("oracle", vp1, "--grid", "41x41", "--csv", CSV_PATH, "--format", "json"),
                "pass", 41 * 41),
        Command(("oracle", vp1, "--grid", "401x401", "--query", "ybar", "--format", "json"),
                "pass", 401 * 401),
        Command(("oracle", vp1, "--grid", "801x801", "--query", "1,1", "--format", "json"),
                "fails", 801 * 801),
        Command(("oracle", ex1, "--grid", "100001", "--minimizer", "f1", "--at", "xbar",
                 "--format", "json"), "fails", 100_001),
    )
    return Workload("oracle", "grid points", 100, commands, (ex1, vp1))


def multipliers(seed, root, workdir):
    """Multiplier solves where uniform weights fail, so the bisection runs."""
    vp1 = str(root / "problems" / "vp1.json")
    rng = random.Random(seed)
    files = []
    commands = []
    for label, p, m, solvable in (("a", 3, 4, True), ("b", 3, 5, True), ("c", 4, 4, True),
                                  ("none", 3, 4, False)):
        path = Path(workdir) / f"kkt-{label}.json"
        path.write_text(json.dumps(synthetic_problem(rng, p, m, solvable)))
        files.append(str(path))
        commands.append(Command(("kkt", str(path), "--candidate", "origin", "--format", "json"),
                                "pass" if solvable else "infeasible", 1, bisects=solvable))
    commands.append(Command(("kkt", vp1, "--candidate", "ybar", "--verify-supplied",
                             "--format", "json"), "fail", 1))
    return Workload("multipliers", "multiplier solves", 40, tuple(commands), (*files, vp1))


WORKLOADS = {"sampling": sampling, "oracle": oracle, "multipliers": multipliers}


def _linear(v):
    return f"({v[0]!r})*y1 + ({v[1]!r})*y2"


def synthetic_problem(rng, p, m, solvable):
    """n=2 program with identity E, p linear objectives and m linear constraints.

    Every constraint is g_k(y) = b_k . y, so all are active at the origin.
    The constraint normals b_k span a wedge of half-width w <= 40 degrees
    around a random direction psi.  Stationarity at the origin needs a
    positive combination of d_i = -grad f_i inside that wedge.

    Solvable: d_1 lies within 10 degrees of psi (inside the wedge) and the
    other d_i lie 100-130 degrees away, so weighting d_1 heavily works and
    the max-min weight is positive, while the uniform combination points
    more than 70 degrees off psi, outside the wedge, so uniform weights are
    infeasible.  Not solvable: every d_i lies 70-110 degrees off psi, so no
    combination reaches the wedge and no multipliers exist.
    """
    deg = math.pi / 180.0
    psi = rng.uniform(0.0, 2.0 * math.pi)
    w = rng.uniform(30.0, 40.0) * deg
    betas = [psi - w + 2.0 * w * k / (m - 1) + rng.uniform(-3.0, 3.0) * deg for k in range(m)]
    betas = [min(max(b, psi - w), psi + w) for b in betas]
    if solvable:
        phis = [psi + rng.uniform(-10.0, 10.0) * deg]
        phis += [psi + rng.uniform(100.0, 130.0) * deg for _ in range(p - 1)]
    else:
        phis = [psi + rng.uniform(70.0, 110.0) * deg for _ in range(p)]
    objectives = [(-math.cos(a), -math.sin(a)) for a in phis]
    constraints = [(math.cos(b), math.sin(b)) for b in betas]
    return {
        "n": 2, "vars": ["x1", "x2"], "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
        "objectives": [{"raw": _linear(v)} for v in objectives],
        "ineq": [{"raw": _linear(v)} for v in constraints],
        "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "candidates": [{"name": "origin", "x": [0.0, 0.0]}],
    }
