"""First-order (KKT-type) system for the composed program, and certificates.

The stationarity system at a feasible point y uses gradients of the
composed functions (f_i o E), (g_k o E), (h_j o E):

    sum_i tau_i grad(f_i o E)(y) + sum_k rho_k grad(g_k o E)(y)
        + sum_j xi_j grad(h_j o E)(y) = 0,
    rho_k g_k(E(y)) = 0,   tau >= 0 (not all zero),   rho >= 0.

Multipliers are solved exactly by enumerating active-set patterns of the
bound constraints (the problem sizes here are a handful of functions, so
2^(p+ma) equality-constrained least-squares solves are cheap and give the
global optimum of the convex subproblems without an external solver).
Among residual-feasible multiplier vectors the solver maximizes the
smallest objective weight (so no objective is silently dropped), then
minimizes the Euclidean norm of (rho, xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as ex
from .errors import EinvexError, InfeasibleMultipliersError, InfeasiblePointError
from .invexity import InvexKind, check_invex
from .problem import (EProblem, SampleConfig, Verdict, _jsonable, active_sets, feasible,
                      feasible_region)

MAX_ENUM_BITS = 16  # guard: 2^bits active-set patterns enumerated exactly


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
    the residuals by c and cannot flip any sign condition.
    """
    y = np.asarray(point.y, dtype=float)
    rep = feasible(problem, y, tol)
    if not rep.feasible:
        raise InfeasiblePointError(
            f"candidate {y.tolist()} infeasible (worst violation {rep.worst:.3g})")
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
    r_comp = float(np.max(np.abs(rho * rep.g_values))) if m else 0.0
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


def _eq_constrained_lstsq(A, B, c):
    """argmin ||A x||_2 subject to B x = c, via the KKT linear system."""
    d = A.shape[1]
    r = B.shape[0]
    K = np.zeros((d + r, d + r))
    K[:d, :d] = 2.0 * (A.T @ A)
    K[:d, d:] = B.T
    K[d:, :d] = B
    rhs = np.concatenate([np.zeros(d), c])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:d]


def _enumerate_level(A, p, ma, tau_lower, force_uniform=False):
    """All primal-feasible active-set solutions at objective-weight level tau_lower.

    Variables are laid out (tau, rho_active, xi).  A bit set in the pattern
    pins tau_i to tau_lower (i < p) or rho_k to 0.  Returns tuples
    (residual_inf, aux_norm, pattern, lambda) for patterns whose solution
    respects all bounds.
    """
    d = A.shape[1]
    bounded = p + ma
    out = []
    patterns = range(2 ** bounded)
    if force_uniform:
        base = (1 << p) - 1
        patterns = [base | (extra << p) for extra in range(2 ** ma)]
    for mask in patterns:
        pins = [i for i in range(bounded) if (mask >> i) & 1]
        rows = []
        vals = []
        for i in pins:
            e = np.zeros(d)
            e[i] = 1.0
            rows.append(e)
            vals.append(tau_lower if i < p else 0.0)
        srow = np.zeros(d)
        srow[:p] = 1.0
        rows.append(srow)
        vals.append(1.0)
        B = np.asarray(rows)
        c = np.asarray(vals)
        lam = _eq_constrained_lstsq(A, B, c)
        if np.max(np.abs(B @ lam - c)) > 1e-9:
            continue  # pins inconsistent with the simplex constraint
        if np.any(lam[:p] < tau_lower - 1e-10) or np.any(lam[p:bounded] < -1e-10):
            continue
        resid = float(np.max(np.abs(A @ lam))) if A.shape[0] else 0.0
        aux = float(np.linalg.norm(lam[p:]))
        out.append((resid, aux, mask, lam))
    return out


def _pick(cands, tol):
    feas = [c for c in cands if c[0] <= tol]
    if not feas:
        return None
    return min(feas, key=lambda c: (round(c[1], 12), c[2]))


def solve_multipliers(problem: EProblem, y, tol: float = 1e-9) -> KktPoint:
    """Find multipliers putting y in the first-order system, or raise.

    Inactive inequality multipliers are zero by construction, so
    complementarity holds exactly.  Raises InfeasibleMultipliersError with
    the best achievable stationarity residual when no multipliers exist
    within tolerance, and InfeasiblePointError when y itself is infeasible.
    """
    y = np.asarray(y, dtype=float).reshape(problem.n)
    rep = feasible(problem, y, tol)
    if not rep.feasible:
        raise InfeasiblePointError(
            f"candidate {y.tolist()} infeasible (worst violation {rep.worst:.3g})")
    acts = active_sets(problem, y, tol)
    p, m, q = len(problem.objectives), len(problem.ineq), len(problem.eq)
    active = acts.active_ineq
    ma = len(active)
    if p + ma > MAX_ENUM_BITS:
        raise EinvexError(
            f"exact multiplier search enumerates 2^(p + active constraints) patterns; "
            f"{p} + {ma} exceeds the guard of {MAX_ENUM_BITS}")
    A = np.hstack([_gradient_columns(problem, y, problem.objectives),
                   _gradient_columns(problem, y, [problem.ineq[k] for k in active]),
                   _gradient_columns(problem, y, problem.eq)])

    # Uniform weights reach the max-min level outright when they fit.
    best = _pick(_enumerate_level(A, p, ma, 1.0 / p, force_uniform=True), tol)
    if best is None:
        base = _enumerate_level(A, p, ma, 0.0)
        best = _pick(base, tol)
        if best is None:
            best_resid = min((c[0] for c in base), default=math.inf)
            raise InfeasibleMultipliersError(best_resid)
        lo, hi = 0.0, 1.0 / p
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            cand = _pick(_enumerate_level(A, p, ma, mid), tol)
            if cand is None:
                hi = mid
            else:
                lo, best = mid, cand
    lam = best[3]
    tau = lam[:p].copy()
    tau[tau < 0.0] = 0.0
    tau /= np.sum(tau)
    rho = np.zeros(m)
    for pos, k in enumerate(active):
        rho[k] = max(0.0, float(lam[p + pos]))
    xi = lam[p + ma:].copy()
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

    The point must first pass the first-order verification; then every
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
    except (InfeasiblePointError, EinvexError) as e:
        return Certificate(key, spec["tag"], spec["claim"], point, "not-established",
                           None, [], None, f"first-order verification failed: {e}")
    if not rep.passes:
        return Certificate(key, spec["tag"], spec["claim"], point, "not-established",
                           rep, [], None,
                           "point does not satisfy the first-order system: " + "; ".join(rep.notes))

    acts = active_sets(problem, point.y, cfg.tol, xi=point.xi)
    plan = [(fn, spec["objectives"]) for fn in problem.objectives]
    plan += [(problem.ineq[k], spec["constraints"]) for k in acts.active_ineq]
    plan += [(problem.eq[j], spec["constraints"]) for j in acts.eq_plus]
    plan += [(problem.eq[j].negated(), spec["constraints"]) for j in acts.eq_minus]

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
