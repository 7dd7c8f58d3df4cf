"""Brute-force grid oracle: dominance, queries, minimizer check, CSV dump."""

import csv
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from einvex.cli import run
from einvex.errors import DomainEvalError, GridGuardError, InfeasiblePointError
from einvex.expr import eval_many, evaluate
from einvex import pareto
from einvex.pareto import (
    MAX_COMPARISONS,
    GridSpec,
    _minimal_rows,
    build_grid,
    dump_csv,
    e_minimizer_check,
    grid_oracle,
    is_weak_pareto,
    skyline_masks,
)
from einvex.problem import constraint_slacks, eval_columns, load_problem, point_slacks

MAX_PAIRWISE = 20_000
ORACLE = Path(__file__).resolve().parent / "golden" / "problems" / "oracle.json"


def _dominance_masks(F, tol):
    """Reference: (weak_pareto, pareto) masks by comparing all N^2 pairs.

    This is the oracle's former dominance scan, guard included, kept to
    check skyline_masks against."""
    Nf = F.shape[0]
    if Nf > MAX_PAIRWISE:
        raise GridGuardError(
            f"{Nf} feasible points exceed the pairwise guard of {MAX_PAIRWISE}; "
            f"coarsen the grid or use a point query")
    weak = np.ones(Nf, dtype=bool)
    pareto = np.ones(Nf, dtype=bool)
    for start in range(0, Nf, 256):
        blk = F[start:start + 256]
        lt = F[:, None, :] < blk[None, :, :] - tol
        le = F[:, None, :] <= blk[None, :, :] + tol
        strictly = lt.all(axis=2)
        dominates = le.all(axis=2) & lt.any(axis=2)
        weak[start:start + blk.shape[0]] = ~strictly.any(axis=0)
        pareto[start:start + blk.shape[0]] = ~dominates.any(axis=0)
    return weak, pareto


@pytest.fixture(scope="module")
def vp1(vp1_path):
    return load_problem(vp1_path)


def _line(objectives, lo=-1.0, hi=1.0, **extra):
    d = {"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": objectives,
         "box": {"lo": [lo], "hi": [hi]}}
    d.update(extra)
    return load_problem(d)


def _plane(objectives, lo=0.0, hi=1.0, **extra):
    d = {"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
         "objectives": objectives, "box": {"lo": [lo, lo], "hi": [hi, hi]}}
    d.update(extra)
    return load_problem(d)


@pytest.fixture(scope="module")
def long_front():
    # min (y1, y2) s.t. y1 + y2 >= 1: the whole grid diagonal is Pareto
    return _plane(["y1", "y2"], ineq=["1 - y1 - y2"])


# ---------------------------------------------------------------------------
# the shared two-objective program
# ---------------------------------------------------------------------------


def test_vp1_origin_is_the_unique_optimum(vp1):
    rep = grid_oracle(vp1, GridSpec.uniform(41, 2))
    assert rep.grid_points == 1681
    assert rep.feasible_points == 1681
    assert rep.weak_points.tolist() == [[0.0, 0.0]]
    assert rep.pareto_points.tolist() == [[0.0, 0.0]]


def test_vp1_point_queries(vp1):
    ok, wit = is_weak_pareto(vp1, [0.0, 0.0], GridSpec.uniform(41, 2))
    assert ok and wit is None

    ok, wit = is_weak_pareto(vp1, [1.0, 1.0], GridSpec.uniform(41, 2))
    assert not ok
    assert wit["x"] == [0.0, 0.0]
    assert wit["objectives"] == pytest.approx([0.0, math.log(2.0)], abs=1e-15)
    assert wit["query_objectives"] == pytest.approx(
        [math.log(3.0), math.log(4.0)], abs=1e-15)

    with pytest.raises(InfeasiblePointError):
        is_weak_pareto(vp1, [-0.5, 0.0], GridSpec.uniform(41, 2))


def test_vp1_verdicts_survive_grid_refinement(vp1):
    for count in (41, 81):
        assert is_weak_pareto(vp1, [0.0, 0.0], GridSpec.uniform(count, 2))[0]
        assert not is_weak_pareto(vp1, [1.0, 1.0], GridSpec.uniform(count, 2))[0]


# ---------------------------------------------------------------------------
# curated dominance geometries
# ---------------------------------------------------------------------------


def test_conflicting_objectives_make_everything_optimal():
    p = _line(["y1", "-y1"], lo=0.0, hi=1.0)
    rep = grid_oracle(p, GridSpec((2,)))
    assert rep.weak_points[:, 0].tolist() == [0.0, 1.0]
    assert rep.pareto_points[:, 0].tolist() == [0.0, 1.0]
    assert is_weak_pareto(p, [0.0], GridSpec((2,)))[0]


def test_flat_objective_separates_weak_from_pareto():
    # second objective constant: nothing is strictly dominated in all
    # objectives (everything weak), but only the parabola vertex survives
    # the at-least-one-strictly-better order
    p = _line(["(y1-1)^2", "0*y1"], lo=0.0, hi=2.0)
    rep = grid_oracle(p, GridSpec((9,)))
    assert rep.weak_points[:, 0].tolist() == [
        0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    assert rep.pareto_points[:, 0].tolist() == [1.0]


def test_pareto_is_always_a_subset_of_weak(vp1):
    for p, grid in [
        (vp1, GridSpec.uniform(21, 2)),
        (_line(["(y1-1)^2", "0*y1"], lo=0.0, hi=2.0), GridSpec((17,))),
        (_line(["y1", "-y1"], lo=0.0, hi=1.0), GridSpec((13,))),
    ]:
        rep = grid_oracle(p, grid)
        assert np.all(~rep.pareto_mask | rep.weak_mask)


def test_strict_dominance_is_irreflexive_and_transitive(vp1):
    rep = grid_oracle(vp1, GridSpec.uniform(9, 2))
    F, tol = rep.values[rep.compared], rep.tol
    D = (F[:, None, :] < F[None, :, :] - tol).all(axis=2)  # D[i,j]: i beats j
    assert not D.diagonal().any()
    chained = np.einsum("ij,jk->ik", D.astype(int), D.astype(int)) > 0
    assert np.all(~chained | D)


def test_single_point_grid():
    p = _line(["y1^2"])
    rep = grid_oracle(p, GridSpec((1,)))
    assert rep.grid_points == 1
    assert rep.pareto_points.tolist() == [[-1.0]]


# ---------------------------------------------------------------------------
# skyline dominance against the pairwise reference
# ---------------------------------------------------------------------------


def _random_rows(rng, case, N, p):
    if case == "ties":  # few distinct values: exact duplicates and exact ties
        return rng.integers(0, 6, size=(N, p)).astype(float)
    if case == "near-ties":  # ties broken at the scale of the tolerance
        return (rng.integers(0, 6, size=(N, p))
                + rng.integers(-2, 3, size=(N, p)) * 5e-10)
    t = np.round(rng.random(N), 2)  # a front: y1 + y2 = 1, extra objectives random
    cols = [t, 1.0 - t] + [rng.integers(0, 3, N).astype(float) for _ in range(p - 2)]
    return np.stack(cols, axis=1)[:, :p]


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["ties", "near-ties", "front"])
def test_skyline_masks_match_the_pairwise_reference(case, p, tol):
    rng = np.random.default_rng([p, ["ties", "near-ties", "front"].index(case)])
    for N in (1, 2, 7, 255, 256, 257, 600):
        F = _random_rows(rng, case, N, p)
        weak, pareto = skyline_masks(F, tol)
        ref_weak, ref_pareto = _dominance_masks(F, tol)
        assert np.array_equal(weak, ref_weak), (case, p, tol, N)
        assert np.array_equal(pareto, ref_pareto), (case, p, tol, N)
        # the skyline itself: one row per distinct minimal row, nothing else
        ref_minimal = {tuple(row) for row in F[_dominance_masks(F, 0.0)[1]]}
        assert sorted(map(tuple, _minimal_rows(F))) == sorted(ref_minimal)


def test_skyline_masks_of_no_rows():
    weak, pareto = skyline_masks(np.empty((0, 2)), 1e-9)
    assert weak.shape == pareto.shape == (0,)


def test_long_front_matches_the_reference(long_front):
    rep = grid_oracle(long_front, GridSpec.uniform(61, 2))
    weak, pareto = _dominance_masks(rep.values[rep.compared], rep.tol)
    assert rep.pareto_mask[rep.compared].tolist() == pareto.tolist()
    assert rep.weak_mask[rep.compared].tolist() == weak.tolist()
    assert rep.feasible_points == 1891
    assert int(np.count_nonzero(pareto)) == 61
    assert np.allclose(rep.pareto_points.sum(axis=1), 1.0)


def test_three_objectives_match_the_reference():
    p = _plane(["y1", "y2", "(y1 - 0.5)^2 + (y2 - 0.5)^2"], lo=-1.0, hi=1.0,
               ineq=["y1^2 + y2^2 - 1"])
    rep = grid_oracle(p, GridSpec.uniform(41, 2))
    weak, pareto = _dominance_masks(rep.values[rep.compared], rep.tol)
    assert rep.pareto_mask[rep.compared].tolist() == pareto.tolist()
    assert rep.weak_mask[rep.compared].tolist() == weak.tolist()
    assert 1 < int(np.count_nonzero(pareto)) < int(np.count_nonzero(weak))


def test_grids_beyond_the_old_pairwise_cap_classify(vp1, long_front):
    rep = grid_oracle(vp1, GridSpec.uniform(201, 2))
    assert rep.feasible_points == 40_401
    assert rep.pareto_points.tolist() == [[0.0, 0.0]]
    assert rep.weak_points.tolist() == [[0.0, 0.0]]
    rep = grid_oracle(long_front, GridSpec.uniform(201, 2))
    assert rep.feasible_points == 20_301
    assert int(np.count_nonzero(rep.pareto_mask)) == 201
    assert np.allclose(rep.pareto_points.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_grid_guards(vp1):
    with pytest.raises(GridGuardError):
        GridSpec((0,))
    with pytest.raises(GridGuardError):
        GridSpec((3163, 3163))  # just over the total-points guard
    with pytest.raises(GridGuardError) as exc:
        grid_oracle(vp1, GridSpec((5,)))
    assert "axes" in str(exc.value)


def test_comparison_guard_trips_when_every_row_is_minimal(vp1):
    # vp1 at 150x150 (22,500 points) was refused by the old cap on N; its
    # minimal set is one point, so it now classifies
    assert grid_oracle(vp1, GridSpec((150, 150))).pareto_points.tolist() == [[0.0, 0.0]]
    # (y1, -y1): every one of the 20,001 rows is minimal, N*|M| > 20,000^2
    with pytest.raises(GridGuardError) as exc:
        grid_oracle(_line(["y1", "-y1"], lo=0.0, hi=1.0), GridSpec((20_001,)))
    assert "comparison guard" in str(exc.value)
    assert str(MAX_COMPARISONS) in str(exc.value)


def test_no_feasible_grid_point_is_an_error():
    p = _line(["y1"], ineq=["y1 + 2"])
    with pytest.raises(InfeasiblePointError) as exc:
        grid_oracle(p, GridSpec((5,)))
    assert "refine the grid" in str(exc.value)


def test_no_compared_grid_point_is_an_error(tmp_path):
    # every feasible point fails log(y1) on [-1, 0]: the oracle answered
    # "pass" with "5 points, 0 feasible; pareto 0, weak pareto 0"
    with pytest.raises(InfeasiblePointError) as exc:
        grid_oracle(_line(["log(y1)"], lo=-1.0, hi=0.0), GridSpec((5,)))
    assert "fail to evaluate at every feasible grid point" in str(exc.value)
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["log(y1)"],
                                "box": {"lo": [-1], "hi": [0]}}))
    code, text = run(["oracle", str(path), "--grid", "5"])
    assert code == 3 and "fail to evaluate at every feasible grid point" in text


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def _reference_build_grid(problem, grid, extra_points=None):
    """Reference: the former grid build, a meshgrid plus a scan of the whole
    grid per snapped point, kept to check build_grid against (in-box points)."""
    axes = [np.linspace(problem.lo[j], problem.hi[j], int(grid.counts[j]))
            for j in range(problem.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    snap = [c.x for c in problem.candidates]
    if extra_points is not None:
        snap += [np.asarray(p, dtype=float) for p in np.atleast_2d(extra_points)]
    add = []
    for s in snap:
        s = np.asarray(s, dtype=float).reshape(problem.n)
        if not ((pts == s).all(axis=1).any() or any((a == s).all() for a in add)):
            add.append(s)
    if add:
        pts = np.vstack([pts, np.asarray(add)])
    return pts


def _reference_is_weak_pareto(problem, y, grid, tol=1e-9):
    """Reference: the former query, which judged every condition on every
    grid row: it copied the feasible rows, then the evaluable ones, and
    reduced over the objective axis."""
    def objectives(X):
        return eval_columns([fn.composed for fn in problem.objectives], problem.env_x(X))

    y = np.asarray(y, dtype=float).reshape(problem.n)
    point_slacks(problem, y, tol, "query point")
    pts = _reference_build_grid(problem, grid, extra_points=y[None, :])
    keep = constraint_slacks(problem, pts)[2] <= tol
    fpts = pts[keep]
    F, bad = objectives(fpts)
    fpts, F = fpts[~bad], F[~bad]
    fy, bady = objectives(y[None, :])
    if bady.any():
        raise InfeasiblePointError(f"objectives do not evaluate at {y.tolist()}")
    better = (F < fy[0] - tol).all(axis=1)
    if better.any():
        i = int(np.argmax(better))
        return False, {"x": fpts[i].tolist(), "objectives": F[i].tolist(),
                       "query_objectives": fy[0].tolist()}
    return True, None


def _cube(n, candidates=(), objectives=None, ineq=()):
    """[-1, 1]^n with identity E; log(y1) fails on the left half."""
    return load_problem({
        "n": n, "E": [f"x{j + 1}" for j in range(n)],
        "eta": [f"u{j + 1} - v{j + 1}" for j in range(n)],
        "objectives": objectives or ["log(y1)", " + ".join(f"y{j + 1}" for j in range(n))],
        "ineq": list(ineq), "box": {"lo": [-1.0] * n, "hi": [1.0] * n},
        "candidates": [{"name": f"c{i}", "x": list(x)} for i, x in enumerate(candidates)]})


def _same_grid(a, b):
    """Equal shapes and equal bits, so -0.0 and 0.0 count as different."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("counts", [(5,), (4,), (1,), (5, 3), (4, 4), (3, 4, 5), (2, 1, 3)])
def test_build_grid_matches_the_reference(counts):
    n = len(counts)
    grid = GridSpec(counts)
    lattice = _reference_build_grid(_cube(n), grid)
    off = np.full(n, 0.3)
    neg_zero = np.full(n, -0.0)   # on the lattice where an axis holds 0.0
    mixed = lattice[-1].copy()
    mixed[0] = 0.3                # on the lattice in every axis but one
    cases = [
        ([], None),
        ([lattice[0], off], None),                       # on and off the lattice
        ([off, off], [off]),                             # duplicates, candidate and extra
        ([neg_zero, -neg_zero], [neg_zero, lattice[len(lattice) // 2]]),  # -0.0 == 0.0
        ([mixed, off], np.stack([lattice[-1], mixed, -off])),
    ]
    for candidates, extra in cases:
        p = _cube(n, candidates)
        got = build_grid(p, grid, extra)
        assert _same_grid(got, _reference_build_grid(p, grid, extra)), (counts, candidates, extra)


def _query_cases(problem, grid, rng, k):
    """k seeded points: half drawn from the lattice, half anywhere in the box."""
    lattice = _reference_build_grid(problem, grid)
    on = lattice[rng.integers(0, lattice.shape[0], k // 2)]
    off = rng.uniform(problem.lo, problem.hi, size=(k - k // 2, problem.n))
    return np.concatenate([on, off])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasiblePointError as e:
        return "error", str(e)


@pytest.mark.parametrize("tol", [1e-9, 0.0])  # 0: exact ties between grid rows
@pytest.mark.parametrize("counts", [(21, 21), (17, 9)])
def test_queries_match_the_reference_on_the_oracle_problem(counts, tol):
    p = load_problem(ORACLE)
    grid = GridSpec(counts)
    errors = 0
    for y in _query_cases(p, grid, np.random.default_rng(list(counts)), 40):
        got = _outcome(is_weak_pareto, p, y, grid, tol)
        assert got == _outcome(_reference_is_weak_pareto, p, y, grid, tol), y.tolist()
        errors += got[0] == "error"
    assert 0 < errors < 40  # infeasible and failing points are among the draws


# log(y1) fails below 0; -exp(800*y1) is -inf above 0.89, where it would
# beat every query with the second objective if failed rows were not masked
@pytest.mark.parametrize("first,sign", [("log(y1)", ""), ("-exp(800*y1)", "-")])
@pytest.mark.parametrize("counts", [(9,), (6, 5), (5, 4, 3)])
def test_queries_match_the_reference_in_one_to_three_dimensions(counts, first, sign):
    n = len(counts)
    total = " + ".join(f"y{j + 1}" for j in range(n))
    # the constraint cuts off a corner of the cube
    p = _cube(n, [np.full(n, 0.37)], objectives=[first, f"{sign}({total})"],
              ineq=[f"-0.5 - ({total})"])
    grid = GridSpec(counts)
    for tol in (1e-9, 0.0):
        for y in _query_cases(p, grid, np.random.default_rng(n), 20):
            got = _outcome(is_weak_pareto, p, y, grid, tol)
            assert got == _outcome(_reference_is_weak_pareto, p, y, grid, tol), y.tolist()


def _reference_e_minimizer_check(fn, problem, xbar, grid, tol=1e-9):
    """Reference: the former minimizer check, one argmin over the whole grid
    of build_grid; (is_minimizer, value, witness)."""
    xbar = np.asarray(xbar, dtype=float).reshape(problem.n)
    value = evaluate(fn.composed, dict(zip(problem.vars, map(float, xbar))))
    pts = build_grid(problem, grid, extra_points=xbar[None, :])
    r = problem.composed_values(fn, pts)
    vals = np.where(~r.invalid & np.isfinite(r.values), r.values, np.inf)
    is_min = bool(np.all(value <= vals + tol))
    witness = None
    if not is_min:
        i = int(np.argmin(vals))
        witness = {"x": pts[i].tolist(), "value": float(vals[i]), "value_at_xbar": value}
    return is_min, value, witness


def _block_cases():
    """(problem, grid, query points, minimizer points) for the block-size test."""
    cases = []
    for counts in [(9,), (6, 5), (5, 4, 3)]:
        n = len(counts)
        total = " + ".join(f"y{j + 1}" for j in range(n))
        for first, sign in [("log(y1)", ""), ("-exp(800*y1)", "-")]:
            p = _cube(n, [np.full(n, 0.37)], objectives=[first, f"{sign}({total})"],
                      ineq=[f"-0.5 - ({total})"])
            ys = _query_cases(p, GridSpec(counts), np.random.default_rng(n), 20)
            cases.append((p, GridSpec(counts), ys, ys))
    # the only dominating point is an off-lattice candidate, in the last block
    p = _line(["(y1 - 0.3)^2"], lo=0.0, hi=1.0, candidates=[{"name": "c", "x": [0.3]}])
    cases.append((p, GridSpec((5,)), [[0.25], [0.3]], [[0.25], [0.3]]))
    # least value 0 at -0.5 and 0.5, grid points 4 and 12: blocks of 1 and 7 split them
    p = _line(["(y1^2 - 0.25)^2"])
    cases.append((p, GridSpec((17,)), [[0.0], [0.5]], [[0.0], [0.5], [-0.5]]))
    # one leading-axis slab of 40,000 points is larger than any block tried
    p = _cube(3, [[0.1, 0.2, 0.3]])
    ys = [[1.0, 1.0, 1.0], [0.1, 0.2, 0.3], [1.0, -1.0, 0.5]]
    cases.append((p, GridSpec((2, 200, 200)), ys, ys))
    return cases


@pytest.mark.parametrize("rows", [1, 7, 64, pareto._QUERY_ROWS])
def test_queries_and_minimizer_checks_do_not_depend_on_the_block_size(rows, monkeypatch):
    monkeypatch.setattr(pareto, "_QUERY_ROWS", rows)
    for p, grid, ys, xs in _block_cases():
        for y in ys:
            got = _outcome(is_weak_pareto, p, y, grid)
            assert repr(got) == repr(_outcome(_reference_is_weak_pareto, p, y, grid)), (grid, y)
        fn = p.objectives[-1]
        for x in xs:
            m = e_minimizer_check(fn, p, x, grid)
            got = (m.is_minimizer, m.value, m.witness)
            assert repr(got) == repr(_reference_e_minimizer_check(fn, p, x, grid)), (grid, x)


def _random_program(rng, n):
    """A small program on [-1, 1]^n whose objectives fail to evaluate, or are
    -inf, on parts of the box, with inequality and equality constraints."""
    def y():
        return f"y{rng.integers(1, n + 1)}"

    def c():
        return float(rng.choice([-0.5, -0.25, 0.0, 0.1, 0.25, 0.5]))

    terms = [lambda: f"log({y()} - {c()})", lambda: f"sqrt({y()} + {c()})",
             lambda: f"1/({y()} - {c()})", lambda: f"-exp(800*{y()})",
             lambda: f"({y()} - {c()})^2", lambda: f"{rng.integers(-2, 3)}*{y()}",
             lambda: f"cbrt({y()}) - {y()}", lambda: str(c()),
             lambda: f"exp(0 - ({y()} - {c()})^-1)"]  # 0, a finite value, where it fails

    def expr(k):
        return " + ".join(terms[i]() for i in rng.integers(0, len(terms), k))

    ineq = [rng.choice([f"{c()} - {y()} - {y()}", f"({y()} - {c()})^2 - 0.5",
                        f"-log({y()} + 1)"]) for _ in range(rng.integers(0, 3))]
    eq = [rng.choice([f"{y()} - {y()}", f"{y()} - {c()}"]) for _ in range(rng.integers(0, 2))]
    return load_problem({
        "n": n, "E": [str(rng.choice([f"x{j}", f"x{j}^3", f"x{j} + 0.1"])) for j in range(1, n + 1)],
        "eta": [f"u{j} - v{j}" for j in range(1, n + 1)],
        "objectives": [expr(rng.integers(1, 3)) for _ in range(rng.integers(1, 4))],
        "ineq": ineq, "eq": eq, "box": {"lo": [-1.0] * n, "hi": [1.0] * n},
        "candidates": [{"name": "c", "x": rng.uniform(-1, 1, n).tolist()}]})


def _query_outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasiblePointError, DomainEvalError) as e:  # a query point infeasible or off the domain
        return "error", str(e)


@pytest.mark.parametrize("seed", range(12))
def test_lazy_queries_match_the_reference_on_random_programs(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    seen = {"pass": 0, "fail": 0, "error": 0}
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = _random_program(rng, n)
        grid = GridSpec(tuple(int(c) for c in rng.integers(3, 10, n)))
        monkeypatch.setattr(pareto, "_QUERY_ROWS", int(rng.choice([1, 5, 16, 40])))  # several blocks
        lattice = build_grid(p, grid)
        feasible = lattice[constraint_slacks(p, lattice)[2] <= 1e-9]
        on = feasible if len(feasible) else lattice
        ys = np.concatenate([on[rng.integers(0, len(on), 4)],
                             rng.uniform(-1, 1, (4, n)), p.candidates[0].x[None, :]])
        for y in ys:
            for tol in (1e-9, 0.0):
                got = _query_outcome(is_weak_pareto, p, y, grid, tol)
                assert repr(got) == repr(_query_outcome(_reference_is_weak_pareto, p, y, grid, tol)), \
                    (seed, y.tolist(), tol)
                seen["error" if got[0] == "error" else "pass" if got[0] else "fail"] += 1
    assert min(seen.values()) > 0, seen


def _counted_slacks(monkeypatch):
    """Record every block of rows that passes through pareto.constraint_slacks."""
    seen = []

    def counted(problem, X):
        seen.append(np.array(X))
        return constraint_slacks(problem, X)
    monkeypatch.setattr(pareto, "constraint_slacks", counted)
    return seen


def test_failing_query_stops_in_its_first_block(vp1, monkeypatch):
    seen = _counted_slacks(monkeypatch)
    ok, wit = is_weak_pareto(vp1, [1.0, 1.0], GridSpec((801, 801)))
    assert not ok and wit["x"] == [0.0, 0.0]
    assert [len(X) for X in seen] == [2 * 801]  # the first block: the fewest slabs of >= 1,024 points


def _counted_evaluations(monkeypatch, node):
    """Record the rows of every evaluation of node, (1, n) for a scalar point."""
    seen = []

    def counted(expr, env):
        if expr is node:
            seen.append(np.atleast_2d(np.stack(list(env.values()), axis=-1)))
        return eval_many(expr, env)
    monkeypatch.setattr(pareto.ex, "eval_many", counted)
    return seen


def test_passing_query_skips_every_block_by_its_enclosure(vp1, monkeypatch):
    # f1 = log(x1 + x2 + 1) >= 0 = f1(ybar) on the box: the enclosure of f1
    # rules out every block, so no block is filled or evaluated
    slacks = _counted_slacks(monkeypatch)
    seen = _counted_evaluations(monkeypatch, vp1.objectives[0].composed)
    ybar = vp1.candidate("ybar").x
    assert is_weak_pareto(vp1, ybar, GridSpec((801, 801))) == (True, None)
    assert [X.tolist() for X in seen] == [[ybar.tolist()]]  # ybar itself, and no lattice block
    assert slacks == []


def test_minimizer_check_evaluates_its_first_block_only(example1_path, monkeypatch):
    # (x1+3)^3 is least at the box end -6, in the first block of 1,024
    # points; every later block's enclosure lies above that least value
    p = load_problem(example1_path)
    fn = p.function("f1")
    seen = _counted_evaluations(monkeypatch, fn.composed)
    m = e_minimizer_check(fn, p, p.candidate("xbar").x, GridSpec((100_001,)))
    assert not m.is_minimizer and m.witness == {"x": [-6.0], "value": -27.0, "value_at_xbar": 0.0}
    assert [len(X) for X in seen] == [1, 1024]  # xbar itself, then the first block
    assert _same_grid(seen[1], build_grid(p, GridSpec((100_001,)))[:1024])


@pytest.mark.parametrize("rows", [1, 32])
def test_block_skips_are_exact_at_a_tie(rows, monkeypatch):
    # one-point blocks make the enclosures tight: the first witness beats the
    # query by just over tol, or just misses, and the minimizer's least
    # values differ by far less than any block's width
    monkeypatch.setattr(pareto, "_QUERY_ROWS", rows)
    p = _line(["-y1"], lo=0.0, hi=1.0)
    grid = GridSpec((101,))
    for z in build_grid(p, grid)[[10, 50, 99], 0]:
        for tol in (1e-9, 0.0):
            for k in range(-2, 3):
                y = [z - tol + k * np.spacing(z)]
                got = _outcome(is_weak_pareto, p, y, grid, tol)
                assert got == _outcome(_reference_is_weak_pareto, p, y, grid, tol), (z, tol, k)
    for source in ["-0.0001*y1", "(y1 - 0.5)^2 - 1e-12*y1", "0"]:
        p = _line([source], lo=0.0, hi=1.0)
        fn = p.objectives[0]
        for x, tol in itertools.product(([0.0], [0.5], [1.0]), (1e-9, 0.0)):
            m = e_minimizer_check(fn, p, x, grid, tol)
            got = (m.is_minimizer, m.value, m.witness)
            assert repr(got) == repr(_reference_e_minimizer_check(fn, p, x, grid, tol)), \
                (source, x, tol)


def test_a_block_whose_enclosure_ties_the_bound_is_skipped(monkeypatch):
    # an enclosure whose lower end equals the bound leaves no point of its
    # block strictly below it: the query and the minimizer skip that block
    monkeypatch.setattr(pareto, "_QUERY_ROWS", 11)
    grid = GridSpec((101,))
    p = _line(["y1"], lo=0.0, hi=1.0)  # the first block's enclosure starts at f(0) = 0
    slacks = _counted_slacks(monkeypatch)
    assert is_weak_pareto(p, [0.0], grid, 0.0) == (True, None)
    assert slacks == []
    p = _line(["0"], lo=0.0, hi=1.0)  # every enclosure is [0, 0], the least value
    seen = _counted_evaluations(monkeypatch, p.objectives[0].composed)
    assert e_minimizer_check(p.objectives[0], p, [0.5], grid).is_minimizer
    assert [len(X) for X in seen] == [1, 1]  # xbar itself, then the first block of one point


@pytest.mark.parametrize("constraint", [{"ineq": ["0.45 - y1"]}, {"eq": ["y1 - 0.5"]}])
def test_surely_infeasible_blocks_are_skipped(constraint, monkeypatch):
    # one slab per block; every block but x1 = 0.5 before the witness is
    # infeasible on its whole box, although its objective might beat the query
    monkeypatch.setattr(pareto, "_QUERY_ROWS", 11)
    p = _plane(["y2"], **constraint)
    slacks = _counted_slacks(monkeypatch)
    ok, wit = is_weak_pareto(p, [0.5, 1.0], GridSpec((11, 11)))
    assert not ok and wit["x"] == [0.5, 0.0]
    assert [X[:, 0].tolist() for X in slacks] == [[0.5] * 11]


def _traced_peak(fn, *args):
    fn(*args)  # first-call allocations are not the check's
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_query_and_minimizer_memory_does_not_grow_with_the_grid(vp1):
    # one block of 2-D points is 512 KB; the ybar queries, which fill no
    # block, peak near 0.5 MB and the minimizer near 1.9 MB.  The whole-grid
    # checks peaked at 8.0 MB (query, 401x401), 128 MB (query, 1601x1601)
    # and 34 MB (minimizer, 1,000,001 points)
    bound = 8 * pareto._QUERY_ROWS * 2 * 8
    ybar = vp1.candidate("ybar").x
    for count in (401, 1601):
        (ok, _), peak = _traced_peak(is_weak_pareto, vp1, ybar, GridSpec((count, count)))
        assert ok
        assert peak < bound, (count, peak)
    p = _line(["(y1 - 0.3)^2"])
    m, peak = _traced_peak(e_minimizer_check, p.function("f1"), p, [1.0], GridSpec((1_000_001,)))
    assert not m.is_minimizer and m.witness["x"] == pytest.approx([0.3])
    assert peak < bound, peak


def _scanned_on_axis(lo, hi, count, v):
    """Reference: the former lattice test, a scan of the axis 3 values at a time."""
    return any((pareto._span(lo, hi, count, i, min(i + 3, count)) == v).any()
               for i in range(0, count, 3))


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 2.0), (-0.0, 0.0), (3.0, 3.0), (-5.0, -1.0),
                                   (0.1, 0.7), (1e-310, 3e-310), (0.0, 5e-324),
                                   (-1e300, 1e300)])
def test_axis_slices_match_linspace(lo, hi):
    lo, hi = np.float64(lo), np.float64(hi)
    for count in (1, 2, 3, 7, 1001):
        whole = np.linspace(lo, hi, count)
        assert _same_grid(pareto._span(lo, hi, count), whole), count
        assert (np.diff(whole) >= 0).all()  # the bisection and the block boxes rely on it
        assert _same_grid(np.array([pareto._at(lo, hi, count, i) for i in range(count)]), whole)
        for first, stop in [(0, 1), (1, count), (count // 2, count), (count - 1, count)]:
            if first < stop:
                assert _same_grid(pareto._span(lo, hi, count, first, stop), whole[first:stop])
        between = (whole[:-1] + whole[1:])[::max(1, count // 5)] / 2
        probes = np.concatenate([whole[[0, count // 2, -1]], between,
                                 [np.nextafter(whole[-1], -np.inf), np.nextafter(whole[0], np.inf),
                                  lo - 1.0, hi + 1.0]])
        for v in probes:
            found = pareto._on_axis(lo, hi, count, v)
            assert found == _scanned_on_axis(lo, hi, count, v) == bool((whole == v).any()), (count, v)


def test_build_grid_refuses_points_outside_the_box():
    p = _line(["y1"], lo=0.0, hi=1.0, candidates=[{"name": "c", "x": [5.0]}])
    with pytest.raises(InfeasiblePointError) as exc:
        build_grid(p, GridSpec((5,)))
    assert "[5.0]" in str(exc.value)
    q = _line(["y1"], lo=0.0, hi=1.0)
    for bad in ([-1e-12], [1.0000001], [float("nan")]):
        with pytest.raises(InfeasiblePointError):
            build_grid(q, GridSpec((5,)), [bad])
    assert build_grid(q, GridSpec((5,)), [[0.0], [1.0]]).shape == (5, 1)  # the box is closed


def test_build_grid_snaps_candidates_once():
    p = load_problem({"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
                      "objectives": ["y1 + y2"],
                      "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                      "candidates": [{"name": "c", "x": [0.3, 0.3]}]})
    pts = build_grid(p, GridSpec((3, 3)))
    assert pts.shape == (10, 2)  # 9 lattice points + the off-grid candidate
    hits = np.all(np.abs(pts - 0.3) < 1e-12, axis=1)
    assert int(np.count_nonzero(hits)) == 1


def test_build_grid_does_not_duplicate_on_grid_candidates(vp1):
    # ybar = (0, 0) coincides with a lattice corner and must not be repeated
    pts = build_grid(vp1, GridSpec.uniform(41, 2))
    assert pts.shape == (1681, 2)


def test_feasible_points_whose_objectives_fail_are_counted(tmp_path):
    p = _line(["sqrt(y1)"], lo=-1.0, hi=0.0)
    rep = grid_oracle(p, GridSpec((5,)))
    assert (rep.grid_points, rep.feasible_points, rep.failed_points) == (5, 5, 4)
    assert rep.to_dict()["failed_points"] == 4
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["sqrt(y1)"],
                                "box": {"lo": [-1], "hi": [0]}}))
    code, text = run(["oracle", str(path), "--grid", "5"])
    assert code == 0 and "grid: 5 points, 5 feasible (4 failed to evaluate); " in text


def test_report_dict_caps_long_lists(monkeypatch):
    monkeypatch.setattr(pareto, "LIST_CAP", 2)
    p = _line(["y1", "-y1"], lo=0.0, hi=1.0)
    rep = grid_oracle(p, GridSpec((11,)))
    d = rep.to_dict()
    assert d["weak_pareto_count"] == 11
    assert len(d["weak_pareto_points"]) == 2
    assert d["truncated_at"] == 2


# ---------------------------------------------------------------------------
# minimizer check
# ---------------------------------------------------------------------------


def test_minimizer_check_accepts_the_vertex():
    p = _line(["y1^2"])
    m = e_minimizer_check(p.function("f1"), p, [0.0])
    assert m.is_minimizer
    assert m.gradient.tolist() == [0.0]
    assert m.value == 0.0
    assert m.witness is None


def test_minimizer_check_rejects_off_vertex_point():
    p = _line(["y1^2"])
    m = e_minimizer_check(p.function("f1"), p, [0.5])
    assert not m.is_minimizer
    assert m.gradient_inf_norm == 1.0
    assert m.witness == {"x": [0.0], "value": 0.0, "value_at_xbar": 0.25}


def test_stationary_saddle_is_not_a_minimizer():
    # cube inflection: gradient vanishes at -3 yet the box end wins; the
    # witness is the grid argmin, the strongest counterexample available
    p = _line(["(y1+3)^3"], lo=-5.0, hi=-1.0)
    m = e_minimizer_check(p.function("f1"), p, [-3.0])
    assert m.gradient.tolist() == [0.0]
    assert not m.is_minimizer
    assert m.witness == {"x": [-5.0], "value": -8.0, "value_at_xbar": 0.0}


# ---------------------------------------------------------------------------
# CSV dump
# ---------------------------------------------------------------------------


def test_csv_dump_structure(vp1, tmp_path):
    out = tmp_path / "grid.csv"
    rows = dump_csv(vp1, grid_oracle(vp1, GridSpec.uniform(5, 2)), out)
    assert rows == 25
    with open(out, newline="") as fh:
        rd = list(csv.reader(fh))
    assert rd[0] == ["x1", "x2", "f1", "f2", "feasible", "weak_pareto", "pareto"]
    assert len(rd) == 26
    body = rd[1:]
    assert all(r[4] == "1" for r in body)          # every vp1 grid point is feasible
    assert sum(r[6] == "1" for r in body) == 1      # single optimum
    origin = [r for r in body if r[0] == "0" and r[1] == "0"]
    assert origin and origin[0][5] == "1" and origin[0][6] == "1"
    assert float(origin[0][2]) == 0.0


def _csv_writer_dump(problem, report, path):
    """Reference: the per-row csv.writer dump that dump_csv must match byte for byte."""
    r = report
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(list(problem.vars) + [f.name for f in problem.objectives]
                    + ["feasible", "weak_pareto", "pareto"])
        for i in range(r.grid_points):
            vals = ["" if r.failed[i] else f"{v:.12g}" for v in r.values[i]]
            wr.writerow([f"{v:.12g}" for v in r.grid[i]] + vals
                        + [int(r.feasible[i]), int(r.weak_mask[i]), int(r.pareto_mask[i])])


def test_csv_dump_bytes_match_the_csv_writer(tmp_path):
    # log and sqrt leave their domains on part of the box, so some rows have
    # blank objective cells; the third objective spans 1e-7 to 1e300.  The
    # second box ends at -0.0, and its x2 axis [-0.0, -0.0] reads 0.0 but for
    # its last value, -0.0: cells "0" and "-0" in one column.  Its candidate
    # is off the lattice.
    second = load_problem({"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
                           "objectives": ["y1 + y2", "sqrt(y1 + 0.5) - y2"],
                           "box": {"lo": [-1.0, -0.0], "hi": [-0.0, -0.0]},
                           "candidates": [{"name": "c", "x": [-0.3, -0.0]}]})
    cases = [(_plane(["log(y1) + y2", "sqrt(y2 - 0.1) - y1/3", "-y1*1e-7 + y2*1e300"],
                     lo=-1.0, hi=1.0), GridSpec((13, 9))),
             (second, GridSpec((5, 4)))]
    for p, grid in cases:
        rep = grid_oracle(p, grid)
        assert rep.failed.any() and rep.compared.any()
        dump_csv(p, rep, tmp_path / "new.csv")
        _csv_writer_dump(p, rep, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    rows = (tmp_path / "new.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:5]] == ["0", "0", "0", "-0"]
    assert len(rows) == 22 and rows[-1].startswith("-0.3,-0,")  # the candidate comes last
