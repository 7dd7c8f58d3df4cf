"""First-order (KKT-type) system for the composed program, and certificates.

The stationarity system at a feasible point y uses gradients of the
composed functions (f_i o E), (g_k o E), (h_j o E):

    sum_i tau_i grad(f_i o E)(y) + sum_k rho_k grad(g_k o E)(y)
        + sum_j xi_j grad(h_j o E)(y) = 0,
    rho_k g_k(E(y)) = 0,   tau >= 0 (not all zero),   rho >= 0.

Multipliers come from three linear programs (scipy's HiGHS) over
lam = (tau, rho on the active constraints, xi+, xi-) >= 0 with sum(tau) = 1:
the smallest stationarity residual r* = min ||A lam||_inf (no multipliers
when r* exceeds the tolerance), then the largest smallest objective weight
at residual r* (so no objective is silently dropped), then the smallest
sum(rho) + sum(|xi|) at that weight.  The last step is an L1 tie-break: it
picks a vertex of the optimal set, which coincides with the minimum
Euclidean norm only where the multipliers are unique.  Every function
here admits y by problem.point_slacks, whose g gives the active set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as ex
from .errors import EinvexError, InfeasibleMultipliersError
from .invexity import InvexKind, check_invex
from .problem import EProblem, SampleConfig, Verdict, _jsonable, feasible_region, point_slacks


@dataclass
class KktPoint:
    """A candidate point together with multipliers (tau, rho, xi)."""

    y: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    xi: np.ndarray

    def normalized(self) -> "KktPoint":
        """Scale multipliers so the objective weights sum to one."""
        s = float(np.sum(self.tau))
        if s <= 0.0:
            raise EinvexError("cannot normalize: objective multipliers sum to zero")
        return KktPoint(self.y.copy(), self.tau / s, self.rho / s, self.xi / s)

    def to_dict(self):
        return {"y": _jsonable(self.y), "tau": _jsonable(self.tau),
                "rho": _jsonable(self.rho), "xi": _jsonable(self.xi)}


@dataclass
class KktResidualReport:
    r_stationarity: float      # inf-norm of the gradient combination
    r_complementarity: float   # max |rho_k g_k(E(y))|
    sign_violation: float      # how far tau or rho dips below zero
    tau_sum: float
    tau_all_zero: bool
    stationarity: np.ndarray
    passes: bool
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {"r_stationarity": _jsonable(self.r_stationarity),
                "r_complementarity": _jsonable(self.r_complementarity),
                "sign_violation": _jsonable(self.sign_violation),
                "tau_sum": _jsonable(self.tau_sum),
                "tau_all_zero": self.tau_all_zero,
                "stationarity": _jsonable(self.stationarity),
                "passes": self.passes,
                "notes": list(self.notes)}


def _gradient_columns(problem: EProblem, y, which):
    """Columns grad(fn o E)(y) for the given functions; raises on failure."""
    env = {name: float(v) for name, v in zip(problem.vars, np.asarray(y, float))}
    cols = [ex.gradient(fn.composed, env, problem.vars) for fn in which]
    if not cols:
        return np.zeros((problem.n, 0))
    return np.stack(cols, axis=1)


def verify_kkt_point(problem: EProblem, point: KktPoint, tol: float = 1e-9) -> KktResidualReport:
    """Residuals of the first-order system for supplied multipliers.

    The check is scale-free: multiplying all multipliers by c > 0 scales
    the residuals by c and cannot flip any sign condition.  The point is
    admitted by point_slacks, whose g gives the complementarity residual.
    """
    y = np.asarray(point.y, dtype=float)
    g, _ = point_slacks(problem, y, tol, "candidate")
    p, m, q = len(problem.objectives), len(problem.ineq), len(problem.eq)
    tau = np.asarray(point.tau, dtype=float).reshape(p)
    rho = np.asarray(point.rho, dtype=float).reshape(m)
    xi = np.asarray(point.xi, dtype=float).reshape(q)

    A = np.hstack([_gradient_columns(problem, y, problem.objectives),
                   _gradient_columns(problem, y, problem.ineq),
                   _gradient_columns(problem, y, problem.eq)])
    lam = np.concatenate([tau, rho, xi])
    stat = A @ lam
    r_stat = float(np.max(np.abs(stat))) if stat.size else 0.0
    r_comp = float(np.max(np.abs(rho * g))) if m else 0.0
    neg = 0.0
    if p:
        neg = max(neg, float(-np.min(tau)))
    if m:
        neg = max(neg, float(-np.min(rho)))
    sign_violation = max(0.0, neg)
    tau_all_zero = bool(np.max(tau) <= tol) if p else True
    passes = (r_stat <= tol and r_comp <= tol and sign_violation <= tol and not tau_all_zero)
    notes = []
    if r_stat > tol:
        notes.append(f"stationarity residual {r_stat:.6g} exceeds tol {tol:g}")
    if r_comp > tol:
        notes.append(f"complementarity residual {r_comp:.6g} exceeds tol {tol:g}")
    if sign_violation > tol:
        notes.append("a multiplier required to be nonnegative is negative")
    if tau_all_zero:
        notes.append("objective multipliers are all (numerically) zero")
    return KktResidualReport(r_stat, r_comp, sign_violation, float(np.sum(tau)),
                             tau_all_zero, stat, passes, notes)


# ---------------------------------------------------------------------------
# Multiplier search
# ---------------------------------------------------------------------------


LP_FEASIBILITY_TOL = 1e-10  # HiGHS primal feasibility; its default 1e-7 exceeds eps = 1e-9


def _lp(c, A_ub, b_ub, sum_row):
    """argmin c.x over x >= 0 with A_ub x <= b_ub and sum_row . x = 1, by HiGHS."""
    from scipy.optimize import linprog  # imported on the first solve only: it takes ~0.7 s
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=[sum_row], b_eq=[1.0], bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": LP_FEASIBILITY_TOL})
    if res.status != 0:
        raise EinvexError(f"multiplier LP failed: {res.message}")
    return res.x


def _lp_multipliers(A, p, tol):
    """lam >= 0 with sum(lam[:p]) = 1 and A lam ~ 0, by three linear programs.

    1. r* = min ||A lam||_inf; InfeasibleMultipliersError(r*) when r* > tol;
    2. t* = max min(lam[:p]) subject to ||A lam||_inf <= r*;
    3. min sum(lam[p:]) subject to both, with lam[:p] >= t*.
    """
    n, d = A.shape
    band = np.vstack([A, -A])                              # |A lam| <= r: band @ lam <= r
    floor = np.hstack([-np.eye(p), np.zeros((p, d - p))])  # tau >= t: floor @ lam <= -t
    tau_row = np.r_[np.ones(p), np.zeros(d - p)]

    x = _lp(np.r_[np.zeros(d), 1.0], np.hstack([band, np.full((2 * n, 1), -1.0)]),
            np.zeros(2 * n), np.r_[tau_row, 0.0])          # variables (lam, r)
    r_star = float(x[-1])
    if r_star > tol:
        raise InfeasibleMultipliersError(r_star)
    at_r = np.full(2 * n, r_star)
    x = _lp(np.r_[np.zeros(d), -1.0],
            np.block([[band, np.zeros((2 * n, 1))], [floor, np.ones((p, 1))]]),
            np.r_[at_r, np.zeros(p)], np.r_[tau_row, 0.0])  # variables (lam, t)
    return _lp(np.r_[np.zeros(p), np.ones(d - p)], np.vstack([band, floor]),
               np.r_[at_r, np.full(p, -x[-1])], tau_row)


def solve_multipliers(problem: EProblem, y, tol: float = 1e-9) -> KktPoint:
    """Find multipliers putting y in the first-order system, or raise.

    The multipliers are the three-LP choice the module docstring describes.
    Inactive inequality multipliers are zero by construction, so
    complementarity holds exactly.  Raises InfeasibleMultipliersError
    carrying r* when r* > tol, and the errors of point_slacks when y is not
    an admissible point.  The active inequalities (|g| <= tol) come from
    that one evaluation of the constraints at y.
    """
    y = np.asarray(y, dtype=float).reshape(problem.n)
    g, _ = point_slacks(problem, y, tol, "candidate")
    p, m, q = len(problem.objectives), len(problem.ineq), len(problem.eq)
    active = np.flatnonzero(np.abs(g) <= tol)
    ma = len(active)
    H = _gradient_columns(problem, y, problem.eq)
    A = np.hstack([_gradient_columns(problem, y, problem.objectives),
                   _gradient_columns(problem, y, [problem.ineq[k] for k in active]), H, -H])
    lam = _lp_multipliers(A, p, tol)
    tau = np.maximum(lam[:p], 0.0)
    tau /= np.sum(tau)
    rho = np.zeros(m)
    rho[active] = np.maximum(lam[p:p + ma], 0.0)
    xi = lam[p + ma:p + ma + q] - lam[p + ma + q:]
    return KktPoint(y, tau, rho, xi)


# ---------------------------------------------------------------------------
# Sufficiency certificates
# ---------------------------------------------------------------------------

THEOREMS = {
    "t4": {"tag": "WeakPareto-T4", "claim": "weak E-Pareto optimal",
           "objectives": InvexKind.EXP, "constraints": InvexKind.EXP},
    "t5": {"tag": "Pareto-T5", "claim": "E-Pareto optimal",
           "objectives": InvexKind.STRICT, "constraints": InvexKind.EXP},
    "t6": {"tag": "WeakPareto-T6", "claim": "weak E-Pareto optimal",
           "objectives": InvexKind.PSEUDO, "constraints": InvexKind.QUASI},
    "remark": {"tag": "WeakPareto-Remark", "claim": "weak E-Pareto optimal",
               "objectives": InvexKind.EXP, "constraints": InvexKind.QUASI},
}


@dataclass
class HypothesisResult:
    target: str   # function name, possibly negated like -h1
    kind: str     # InvexKind value
    verdict: Verdict

    def to_dict(self):
        return {"target": self.target, "kind": self.kind, "verdict": self.verdict.to_dict()}


@dataclass
class Certificate:
    theorem: str
    tag: str
    claim: str
    point: KktPoint
    conclusion: str                   # certified | not-established | inconclusive
    residual: Optional[KktResidualReport]
    hypotheses: list
    failing: Optional[str]
    reason: Optional[str]

    def to_dict(self):
        return {"theorem": self.theorem, "tag": self.tag, "claim": self.claim,
                "point": self.point.to_dict(), "conclusion": self.conclusion,
                "residual": self.residual.to_dict() if self.residual else None,
                "hypotheses": [h.to_dict() for h in self.hypotheses],
                "failing": self.failing, "reason": self.reason}


def certify(problem: EProblem, point: KktPoint, theorem: str,
            cfg: SampleConfig = SampleConfig()) -> Certificate:
    """Check the sampled hypotheses of one sufficiency theorem at a point.

    The point must first pass the first-order verification (a point that
    point_slacks refuses fails it, so it is "not-established"); then every
    hypothesis function is checked for its required generalized-invexity
    kind with the base point pinned at y and moving points drawn from the
    feasible region.  Implication-form hypotheses whose antecedent never
    fires on the feasible samples count as satisfied: a vacuous antecedent
    on the whole sampled region implies the theorem's conclusion directly.

    A failed hypothesis makes the conclusion "not-established"; otherwise an
    inconclusive one (e.g. starved sampling) makes it "inconclusive".
    `failing` names the first hypothesis of the deciding status.
    """
    key = theorem.lower()
    if key not in THEOREMS:
        raise EinvexError(f"unknown theorem {theorem!r}; expected one of {sorted(THEOREMS)}")
    spec = THEOREMS[key]

    try:
        rep = verify_kkt_point(problem, point, cfg.tol)
    except EinvexError as e:
        return Certificate(key, spec["tag"], spec["claim"], point, "not-established",
                           None, [], None, f"first-order verification failed: {e}")
    if not rep.passes:
        return Certificate(key, spec["tag"], spec["claim"], point, "not-established",
                           rep, [], None,
                           "point does not satisfy the first-order system: " + "; ".join(rep.notes))

    g, _ = point_slacks(problem, point.y, cfg.tol, "candidate")
    xi = np.asarray(point.xi, dtype=float)
    plan = [(fn, spec["objectives"]) for fn in problem.objectives]
    plan += [(problem.ineq[k], spec["constraints"]) for k in np.flatnonzero(np.abs(g) <= cfg.tol)]
    plan += [(problem.eq[j], spec["constraints"]) for j in np.flatnonzero(xi > cfg.tol)]
    plan += [(problem.eq[j].negated(), spec["constraints"]) for j in np.flatnonzero(xi < -cfg.tol)]

    region = feasible_region(problem, cfg.tol)
    hyps = [HypothesisResult(fn.name, kind.value,
                             check_invex(fn, problem, kind, cfg, at=point.y, region=region,
                                         vacuous_policy="holds"))
            for fn, kind in plan]
    for status, conclusion, word in (("fails", "not-established", "failed"),
                                     ("inconclusive", "inconclusive", "inconclusive")):
        first = next((h for h in hyps if h.verdict.status == status), None)
        if first is not None:
            failing = f"{first.target}:{first.kind}"
            return Certificate(key, spec["tag"], spec["claim"], point, conclusion, rep, hyps,
                               failing, f"hypothesis {word}: {failing}")
    return Certificate(key, spec["tag"], spec["claim"], point, "certified", rep, hyps, None, None)
