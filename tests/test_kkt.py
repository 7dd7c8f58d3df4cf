"""First-order system: residual verification, multiplier search, certificates."""

import json
import random

import numpy as np
import pytest

from einvex import expr as ex
from einvex import kkt
from einvex.cli import run
from einvex.errors import (
    EinvexError,
    InfeasibleMultipliersError,
    InfeasiblePointError,
)
from einvex.expr import gradient
from einvex.kkt import (
    THEOREMS,
    KktPoint,
    certify,
    solve_multipliers,
    verify_kkt_point,
)
from einvex.problem import _jsonable, load_problem


@pytest.fixture(scope="module")
def vp1(vp1_path):
    return load_problem(vp1_path)


@pytest.fixture(scope="module")
def supplied(vp1):
    c = vp1.candidate("ybar")
    return KktPoint(c.x, c.tau, c.rho, np.zeros(0))


def _tiny(objectives, **extra):
    d = {"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": objectives,
         "box": {"lo": [-1.0], "hi": [1.0]}}
    d.update(extra)
    return load_problem(d)


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------


def test_supplied_multipliers_fail_with_quarter_residual(vp1, supplied):
    # tau = (1/2, 1/2) with rho = (1, 1) overshoots the constraint gradients
    # by exactly 1/4 in each coordinate.
    rep = verify_kkt_point(vp1, supplied)
    assert not rep.passes
    assert rep.r_stationarity == pytest.approx(0.25, abs=1e-12)
    assert rep.r_complementarity == 0.0
    assert rep.sign_violation == 0.0
    assert any("stationarity residual" in n for n in rep.notes)


def test_solver_finds_exact_multipliers(vp1):
    pt = solve_multipliers(vp1, [0.0, 0.0])
    assert pt.tau.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
    assert pt.rho.tolist() == pytest.approx([0.75, 0.75], abs=1e-12)
    assert pt.xi.size == 0
    rep = verify_kkt_point(vp1, pt)
    assert rep.passes
    assert rep.r_stationarity <= 1e-9
    assert rep.tau_sum == pytest.approx(1.0, abs=1e-12)
    assert verify_kkt_point(vp1, pt, 0.0).passes  # every residual is exactly 0: a tie passes


def test_solver_is_deterministic(vp1):
    a = solve_multipliers(vp1, [0.0, 0.0])
    b = solve_multipliers(vp1, [0.0, 0.0])
    assert _jsonable(a) == _jsonable(b)


def test_verification_is_scale_free(vp1):
    pt = solve_multipliers(vp1, [0.0, 0.0])
    lam = 3.7
    scaled = KktPoint(pt.y, pt.tau * lam, pt.rho * lam, pt.xi * lam)
    rep = verify_kkt_point(vp1, scaled)
    assert rep.passes
    assert rep.tau_sum == pytest.approx(lam, abs=1e-12)


def test_all_zero_objective_weights_fail_verification(vp1):
    pt = KktPoint(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(0))
    rep = verify_kkt_point(vp1, pt)
    assert not rep.passes
    assert rep.tau_all_zero
    assert rep.r_stationarity == 0.0  # the zero combination is trivially zero
    assert any("zero" in n for n in rep.notes)


def test_negative_multiplier_is_flagged(vp1, supplied):
    pt = KktPoint(supplied.y, np.array([1.5, -0.5]), supplied.rho, supplied.xi)
    rep = verify_kkt_point(vp1, pt)
    assert not rep.passes
    assert rep.sign_violation == pytest.approx(0.5)


def test_infeasible_candidate_raises(vp1, supplied):
    with pytest.raises(InfeasiblePointError):
        verify_kkt_point(vp1, KktPoint(np.array([-1.0, 0.0]), supplied.tau,
                                       supplied.rho, supplied.xi))
    with pytest.raises(InfeasiblePointError):
        solve_multipliers(vp1, [-1.0, 0.0])


def _count_constraint_evaluations(problem, monkeypatch):
    """Rows evaluated per call of eval_many on a constraint's composed form."""
    constraints = [fn.composed for fn in (*problem.ineq, *problem.eq)]
    rows = []
    real = ex.eval_many

    def counting(node, env):
        if any(node is c for c in constraints):
            rows.append(ex._batch_shape(env))
        return real(node, env)

    monkeypatch.setattr(ex, "eval_many", counting)
    return rows


def test_solve_multipliers_evaluates_the_constraints_at_y_once(vp1, monkeypatch):
    rows = _count_constraint_evaluations(vp1, monkeypatch)
    point = solve_multipliers(vp1, [0.0, 0.0])
    assert point.rho.tolist() == [0.75, 0.75]
    assert len(rows) == len(vp1.ineq)  # one pass over the two constraints, one row each
    assert all(r == (1,) for r in rows)
    rows.clear()
    verify_kkt_point(vp1, point)
    assert len(rows) == len(vp1.ineq)


# ---------------------------------------------------------------------------
# multiplier search on curated shapes
# ---------------------------------------------------------------------------


def test_unconstrained_descent_direction_has_no_multipliers():
    p = _tiny(["y1"])
    with pytest.raises(InfeasibleMultipliersError) as exc:
        solve_multipliers(p, [0.0])
    assert exc.value.best_residual == pytest.approx(1.0, rel=1e-12)
    rep = verify_kkt_point(p, KktPoint(np.array([0.0]), np.array([1.0]),
                                       np.zeros(0), np.zeros(0)))
    assert not rep.passes
    assert rep.r_stationarity == 1.0


def test_unconstrained_stationary_point_gets_unit_weight():
    p = _tiny(["y1^2"])
    pt = solve_multipliers(p, [0.0])
    assert pt.tau.tolist() == [1.0]
    assert verify_kkt_point(p, pt).r_stationarity == 0.0


def test_inactive_constraint_multiplier_is_exactly_zero():
    p = _tiny(["y1^2"], ineq=["y1 - 0.9"])
    pt = solve_multipliers(p, [0.0])
    assert pt.rho.tolist() == [0.0]
    rep = verify_kkt_point(p, pt)
    assert rep.passes
    assert rep.r_complementarity == 0.0


def test_an_inactive_constraint_may_have_a_kink(tmp_path, fast_cfg):
    # |y1| - 0.5 <= 0 is inactive at 0 and not differentiable there; the
    # first-order system does not need its gradient, as rho = 0 drops it
    d = {"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "box": {"lo": [-1], "hi": [1]},
         "objectives": ["y1^2"], "ineq": ["sqrt(y1^2) - 0.5"],
         "candidates": [{"name": "o", "x": [0.0]}]}
    p = load_problem(d)
    pt = solve_multipliers(p, [0.0])
    assert pt.rho.tolist() == [0.0]
    assert verify_kkt_point(p, pt).passes
    assert certify(p, pt, "t4", fast_cfg).conclusion == "certified"
    # a nonzero rho still needs the gradient, and fails complementarity besides
    with pytest.raises(EinvexError, match="non-differentiable"):
        verify_kkt_point(p, KktPoint(pt.y, pt.tau, np.array([1.0]), pt.xi))
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(d))
    code, text = run(["kkt", str(path), "--candidate", "o", "--format", "json"])
    assert code == 0 and json.loads(text)["point"]["rho"] == [0.0]


def test_interior_point_of_conflicting_increasing_objectives(vp1):
    # strictly positive objective gradients and no active constraint: the
    # best simplex combination leaves the smaller gradient, norm 1/4
    with pytest.raises(InfeasibleMultipliersError) as exc:
        solve_multipliers(vp1, [1.0, 1.0])
    assert exc.value.best_residual == pytest.approx(0.25, abs=1e-12)


def test_equality_constraint_gets_signed_multiplier():
    p = load_problem({"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
                      "objectives": ["y1 - y2"], "eq": ["y1 - y2"],
                      "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}})
    pt = solve_multipliers(p, [0.0, 0.0])
    assert pt.tau.tolist() == [1.0]
    assert pt.xi.tolist() == pytest.approx([-1.0], abs=1e-12)
    assert verify_kkt_point(p, pt).passes


def test_many_objectives_are_one_linear_program():
    # 17 copies of a descent direction: any simplex weights leave gradient 1
    p = _tiny(["y1"] * 17)
    with pytest.raises(InfeasibleMultipliersError) as exc:
        solve_multipliers(p, [0.0])
    assert exc.value.best_residual == pytest.approx(1.0, abs=1e-12)


def test_tie_break_minimizes_the_l1_norm_of_constraint_multipliers():
    # 1 - rho1 - 2*rho2 = 0 has a segment of solutions; the smallest
    # rho1 + rho2 is (0, 1/2), where the smallest Euclidean norm is (0.2, 0.4)
    p = _tiny(["y1"], ineq=["-y1", "-2*y1"])
    pt = solve_multipliers(p, [0.0])
    assert pt.tau.tolist() == [1.0]
    assert pt.rho.tolist() == pytest.approx([0.0, 0.5], abs=1e-12)
    assert verify_kkt_point(p, pt).passes


@pytest.mark.parametrize("p, m", [(3, 4), (4, 4), (4, 8)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solved_wedge_multipliers_pass_their_own_verification(wedge, seed, p, m):
    prob = wedge(seed, p, m, True)
    pt = solve_multipliers(prob, [0.0, 0.0])
    rep = verify_kkt_point(prob, pt)
    assert rep.passes, rep.notes
    assert rep.r_complementarity == 0.0
    assert 0.0 < min(pt.tau) < 1.0 / p   # uniform weights do not fit these wedges


def test_unsolvable_wedge_reports_the_least_residual(wedge):
    prob = wedge(1, 3, 4, False)
    with pytest.raises(InfeasibleMultipliersError) as exc:
        solve_multipliers(prob, [0.0, 0.0])
    best = exc.value.best_residual
    assert best == pytest.approx(0.549729747533, abs=1e-9)
    # no sampled multiplier vector on the simplex does better
    A = np.hstack([_grads(prob, prob.objectives), _grads(prob, prob.ineq)])
    rng = np.random.default_rng(0)
    lam = np.hstack([rng.dirichlet(np.ones(3), 20000), rng.uniform(0.0, 3.0, (20000, 4))])
    assert np.min(np.max(np.abs(lam @ A.T), axis=1)) >= best - 1e-12


def _grads(prob, fns):
    env = {"x1": 0.0, "x2": 0.0}
    return np.stack([gradient(fn.composed, env, prob.vars) for fn in fns], axis=1)


def test_phase_one_reports_an_infeasible_program():
    # x1 + x2 = 1 with x1 + x2 <= 0.5 has no point
    with pytest.raises(EinvexError, match="multiplier LP failed"):
        kkt._lp(np.zeros(2), np.ones((1, 2)), np.array([0.5]), np.ones(2))


def test_a_program_without_optimum_is_reported():
    # min -x2 with x1 = 1 and no bound on x2
    with pytest.raises(EinvexError, match="multiplier LP failed"):
        kkt._lp(np.array([0.0, -1.0]), np.zeros((1, 2)), np.zeros(1), np.array([1.0, 0.0]))


def test_the_pivot_cap_is_reported(monkeypatch):
    monkeypatch.setattr(kkt, "MAX_PIVOTS", 1)
    with pytest.raises(EinvexError, match="no optimum within 1 pivots"):
        kkt._lp(np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0), np.ones(2))


def test_constraint_gradients_far_above_the_objective_ones(workloads, tmp_path):
    """A solvable wedge with every constraint times 1e8 has the multipliers
    of the plain wedge, rho divided by 1e8.  Unscaled columns made the
    simplex stop with "the objective is unbounded" here."""
    points = []
    for factor in (None, 1e8):
        d = workloads.synthetic_problem(random.Random(4), 2, 3, True)
        if factor is not None:
            for g in d["ineq"]:
                g["raw"] = f"{factor!r}*({g['raw']})"
        path = tmp_path / f"wedge-{factor}.json"
        path.write_text(json.dumps(d))
        code, text = run(["kkt", str(path), "--candidate", "origin", "--format", "json"])
        assert code == 0, text
        points.append(json.loads(text)["point"])
    plain, scaled = points
    assert scaled["tau"] == pytest.approx(plain["tau"], rel=0.0, abs=1e-9)
    assert scaled["rho"] == pytest.approx([r * 1e-8 for r in plain["rho"]], rel=1e-9, abs=1e-17)
    assert max(plain["rho"]) > 0.1


# ---------------------------------------------------------------------------
# sufficiency certificates
# ---------------------------------------------------------------------------


def test_certificate_matrix_on_the_shared_candidate(vp1, fast_cfg):
    pt = solve_multipliers(vp1, [0.0, 0.0])

    cert = certify(vp1, pt, "t4", fast_cfg)
    assert cert.tag == "WeakPareto-T4"
    assert cert.claim == "weak E-Pareto optimal"
    assert cert.conclusion == "certified"
    assert [(h.target, h.kind) for h in cert.hypotheses] == [
        ("f1", "invex"), ("f2", "invex"), ("g1", "invex"), ("g2", "invex")]
    assert all(h.verdict.status == "holds" for h in cert.hypotheses)

    cert = certify(vp1, pt, "t6", fast_cfg)
    assert cert.tag == "WeakPareto-T6"
    assert cert.conclusion == "certified"
    assert [(h.target, h.kind) for h in cert.hypotheses] == [
        ("f1", "pseudo-invex"), ("f2", "pseudo-invex"),
        ("g1", "quasi-invex"), ("g2", "quasi-invex")]

    cert = certify(vp1, pt, "remark", fast_cfg)
    assert cert.tag == "WeakPareto-Remark"
    assert cert.conclusion == "certified"

    cert = certify(vp1, pt, "t5", fast_cfg)
    assert cert.tag == "Pareto-T5"
    assert cert.conclusion == "not-established"
    assert cert.failing == "f1:strict-invex"
    assert "f1:strict-invex" in cert.reason
    by_name = {h.target: h.verdict.status for h in cert.hypotheses}
    assert by_name["f1"] == "fails" and by_name["f2"] == "fails"
    assert by_name["g1"] == "holds" and by_name["g2"] == "holds"


def test_certified_requires_every_hypothesis_to_hold(vp1, fast_cfg):
    pt = solve_multipliers(vp1, [0.0, 0.0])
    for theorem in THEOREMS:
        cert = certify(vp1, pt, theorem, fast_cfg)
        if cert.conclusion == "certified":
            assert all(h.verdict.status == "holds" for h in cert.hypotheses)
            assert cert.failing is None and cert.reason is None
        else:
            assert cert.failing is not None
            assert any(h.verdict.status != "holds" for h in cert.hypotheses)


def test_certify_rejects_non_stationary_point(vp1, supplied, fast_cfg):
    cert = certify(vp1, supplied, "t4", fast_cfg)
    assert cert.conclusion == "not-established"
    assert cert.reason.startswith("point does not satisfy the first-order system")
    assert cert.hypotheses == []
    assert cert.residual is not None and not cert.residual.passes


# the feasible set of its equality constraint has zero volume in the box
EQUALITY = {"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
            "objectives": ["y1 - y2"], "eq": ["y1 - y2"],
            "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}


def test_certify_on_equality_constrained_problem(fast_cfg):
    # xi < 0 flips the hypothesis to the negated constraint; the feasible
    # region is measure-zero in the box, so sampling starves and the
    # certificate honestly reports inconclusive hypotheses.
    p = load_problem(EQUALITY)
    pt = solve_multipliers(p, [0.0, 0.0])
    cert = certify(p, pt, "t4", fast_cfg)
    assert cert.conclusion == "inconclusive"
    assert [h.target for h in cert.hypotheses] == ["f1", "-h1"]
    assert all(h.verdict.status == "inconclusive" for h in cert.hypotheses)
    assert cert.failing == "f1:invex"


def test_certify_unknown_theorem(vp1, supplied, fast_cfg):
    with pytest.raises(EinvexError):
        certify(vp1, supplied, "t9", fast_cfg)


def test_certify_infeasible_point_reports_not_established(vp1, fast_cfg):
    bad = KktPoint(np.array([-1.0, 0.0]), np.array([0.5, 0.5]),
                   np.zeros(2), np.zeros(0))
    cert = certify(vp1, bad, "t4", fast_cfg)
    assert cert.conclusion == "not-established"
    assert "first-order verification failed" in cert.reason
