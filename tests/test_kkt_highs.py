"""The multiplier simplex against HiGHS on the same three-stage scheme.

kkt._lp is a dense numpy simplex; scipy's HiGHS, run through the same
_lp_multipliers stages, is the reference.  Both must agree on whether
multipliers exist, on the least residual r* and on the max-min objective
weight t*, and every solved point must pass its own verify_kkt_point.
Small random programs check _lp itself, degenerate ones included.
"""

import numpy as np
import pytest

from einvex import kkt
from einvex.errors import EinvexError, InfeasibleMultipliersError
from einvex.problem import load_problem

linprog = pytest.importorskip("scipy.optimize").linprog

EPS = 1e-9
SHAPES = [(2, 3), (3, 4), (4, 4), (4, 6), (4, 8), (5, 8)]


def _reference_lp(c, A_ub, b_ub, sum_row):
    """Reference: the same linear program solved by HiGHS, its primal
    feasibility tolerance tightened from 1e-7 to 1e-10, below eps."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=[sum_row], b_eq=[1.0], bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.x


def _solve(problem, y, lp, monkeypatch):
    """(point or None, r*, t* or None) of solve_multipliers with ``lp`` as _lp."""
    last = []

    def recording(*args):
        x = lp(*args)
        last.append(float(x[-1]))   # stage 1 ends on r, stage 2 on t
        return x

    with monkeypatch.context() as m:
        m.setattr(kkt, "_lp", recording)
        try:
            point = kkt.solve_multipliers(problem, y, EPS)
        except InfeasibleMultipliersError as e:
            assert e.best_residual == last[0]
            return None, last[0], None
    return point, last[0], last[1]


def _agree(problem, y, monkeypatch):
    ours = _solve(problem, y, kkt._lp, monkeypatch)
    ref = _solve(problem, y, _reference_lp, monkeypatch)
    assert (ours[0] is None) == (ref[0] is None)
    assert ours[1] == pytest.approx(ref[1], abs=1e-9)
    if ours[0] is not None:
        assert ours[2] == pytest.approx(ref[2], abs=1e-8)
        rep = kkt.verify_kkt_point(problem, ours[0], EPS)
        assert rep.passes, rep.notes
    return ours


@pytest.mark.parametrize("solvable", [True, False])
@pytest.mark.parametrize("p, m", SHAPES)
@pytest.mark.parametrize("seed", range(1, 21))
def test_simplex_agrees_with_highs_on_wedges(wedge, seed, p, m, solvable, monkeypatch):
    point, _, _ = _agree(wedge(seed, p, m, solvable), [0.0, 0.0], monkeypatch)
    assert (point is not None) == solvable


def _plane(objectives, **extra):
    d = {"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"], "objectives": objectives,
         "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
    d.update(extra)
    return load_problem(d)


@pytest.mark.parametrize("problem, solvable, t_star", [
    # duplicate constraint normals: a degenerate vertex and a tie in the L1 step
    (_plane(["y1", "y2"], ineq=["-y1", "-y1", "-y2"]), True, 0.5),
    (_plane(["y1 + 2*y2"], ineq=["-y1", "-y2", "-2*y2"]), True, 1.0),   # p = 1
    (_plane(["-y1"], ineq=["-y2"]), False, None),                        # p = 1, r* = 1
    (_plane(["y1^2 + y2^2", "y1"]), True, 0.0),      # a zero gradient takes all the weight
    (_plane(["y1^2 + y2^2"]), True, 1.0),            # the only gradient is zero
    (_plane(["y1 - y2"], eq=["y1 - y2"]), True, 1.0),                   # xi = -1
    (_plane(["y1", "-y2"], eq=["y1 + y2"], ineq=["-y1"]), True, 0.5),   # xi with rho
])
def test_simplex_agrees_with_highs_on_degenerate_programs(problem, solvable, t_star,
                                                          monkeypatch):
    point, r_star, t = _agree(problem, [0.0, 0.0], monkeypatch)
    assert (point is not None) == solvable
    if solvable:
        assert t == pytest.approx(t_star, abs=1e-12)
    else:
        assert r_star == pytest.approx(1.0, abs=1e-12)


def test_lp_agrees_with_highs_on_small_integer_programs():
    # integer data makes ties and degenerate vertices common: Phase I often
    # ends with an artificial basic at zero, which must leave the basis
    rng = np.random.default_rng(0)
    solved = 0
    for _ in range(600):
        d, mu = rng.integers(2, 4, size=2)
        A, b = rng.integers(-2, 3, (mu, d)).astype(float), rng.integers(-1, 2, mu).astype(float)
        c, s = rng.integers(-2, 3, d).astype(float), np.r_[1.0, rng.integers(0, 2, d - 1)]
        ref = linprog(c, A_ub=A, b_ub=b, A_eq=[s], b_eq=[1.0], bounds=(0, None), method="highs")
        if ref.status != 0:   # infeasible or unbounded
            with pytest.raises(EinvexError, match="multiplier LP failed"):
                kkt._lp(c, A, b, s)
            continue
        x = kkt._lp(c, A, b, s)
        assert np.all(x >= -1e-12) and np.all(A @ x <= b + 1e-12) and s @ x == pytest.approx(1.0)
        assert c @ x == pytest.approx(ref.fun, abs=1e-12)
        solved += 1
    assert solved > 200
