"""Brute-force grid oracle: dominance, queries, minimizer check, CSV dump."""

import csv
import math

import numpy as np
import pytest

from einvex.errors import GridGuardError, InfeasiblePointError
from einvex.pareto import (
    GridSpec,
    build_grid,
    dump_csv,
    e_minimizer_check,
    grid_oracle,
    is_weak_pareto,
)
from einvex.problem import load_problem


@pytest.fixture(scope="module")
def vp1(vp1_path):
    return load_problem(vp1_path)


def _line(objectives, lo=-1.0, hi=1.0, **extra):
    d = {"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": objectives,
         "box": {"lo": [lo], "hi": [hi]}}
    d.update(extra)
    return load_problem(d)


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
    F, tol = rep.objectives, rep.tol
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
# guards
# ---------------------------------------------------------------------------


def test_grid_guards(vp1):
    with pytest.raises(GridGuardError):
        GridSpec((0,))
    with pytest.raises(GridGuardError):
        GridSpec((3163, 3163))  # just over the total-points guard
    with pytest.raises(GridGuardError) as exc:
        grid_oracle(vp1, GridSpec((150, 150)))
    assert "pairwise guard" in str(exc.value)
    with pytest.raises(GridGuardError) as exc:
        grid_oracle(vp1, GridSpec((5,)))
    assert "axes" in str(exc.value)


def test_no_feasible_grid_point_is_an_error():
    p = _line(["y1"], ineq=["y1 + 2"])
    with pytest.raises(InfeasiblePointError) as exc:
        grid_oracle(p, GridSpec((5,)))
    assert "refine the grid" in str(exc.value)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


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


def test_report_dict_caps_long_lists():
    p = _line(["y1", "-y1"], lo=0.0, hi=1.0)
    rep = grid_oracle(p, GridSpec((11,)))
    d = rep.to_dict(list_cap=2)
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
