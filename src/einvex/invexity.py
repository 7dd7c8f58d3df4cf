"""Sampling checkers for the exponential invexity family.

Every checker evaluates its defining inequality on a deterministic sample
set and returns a Verdict.  "Holds" always means "no violation found among
the reported number of samples", never a proof.  Comparisons follow one
convention throughout:

* non-strict inequalities get ``tol`` slack (violation means beyond tol);
* strict inequalities must clear a gap of ``strict_margin`` at samples
  satisfying the side condition of the definition; the checkers for the
  pointwise-gradient (invex) family additionally probe deterministic points
  close to the base point, where a vanishing gap hides from uniform pairs.

Exponential-domain quantities are never formed for decisions: membership in
the value domain is tested on logarithms (log-sum-exp for mixtures) and the
gradient inequalities are normalized by exp(f(E(x0))) > 0, which turns
exp(a) - exp(b) >= d * exp(b) into expm1(a - b) >= d.  A naive
exponential-domain mode is kept for cross-checking on small values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .problem import (EProblem, Judgement, MixtureSamples, ProblemFunction, Region, SampleConfig,
                      Verdict, Witness, _point_list, box_region, mixture_samples,
                      sample_pairs, sampled_verdict)
from .rng import SampleStream

PROBE_RADII = (1e-2, 1e-3, 1e-4, 1e-5)
PROBE_CENTERS = 4        # basepoints probed in pair mode
LEVEL_SPAN = 1.0         # headroom above exp(f) for sampled epigraph levels


class PreinvexKind(str, Enum):
    EXP = "preinvex"
    STRICT = "strict-preinvex"
    QUASI = "quasi-preinvex"
    STRICT_QUASI = "strict-quasi-preinvex"


class InvexKind(str, Enum):
    EXP = "invex"
    STRICT = "strict-invex"
    QUASI = "quasi-invex"
    PSEUDO = "pseudo-invex"
    STRICT_PSEUDO = "strict-pseudo-invex"


# ---------------------------------------------------------------------------
# Shared evaluation plumbing
# ---------------------------------------------------------------------------


def _exp_or_inf(v):
    """exp(v) for reporting, with inf once v is too large to exponentiate."""
    return math.exp(v) if v < 700 else math.inf


def _mix_log(tau, a, b):
    """log(tau*exp(a) + (1 - tau)*exp(b)) without leaving the log domain."""
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log(tau) + a, np.log1p(-tau) + b)


# ---------------------------------------------------------------------------
# Pair sampling for the mixture (preinvex) family
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class PreinvexSamples(MixtureSamples):
    """Deterministic triples (x, x0, tau) with all values the checks need."""

    A: np.ndarray       # f(E(x))   per pair
    B: np.ndarray       # f(E(x0))  per pair
    C: np.ndarray       # (N, k) f at the combined point

    @property
    def mix_log(self):
        return _mix_log(self.T, self.A[:, None], self.B[:, None])

    @property
    def max_log(self):
        return np.maximum(self.A, self.B)[:, None]


def preinvex_pairs(fn: ProblemFunction, problem: EProblem, cfg: SampleConfig,
                   region: Optional[Region] = None) -> PreinvexSamples:
    """Draw the shared (x, x0, tau) sample set and evaluate f on it."""
    m = mixture_samples(problem, cfg, region or box_region(problem, cfg.tol))
    ra = problem.composed_values(fn, m.X)
    rb = problem.composed_values(fn, m.X0)
    A, B = ra.values, rb.values
    bad = m.bad | ra.invalid | rb.invalid | ~np.isfinite(A) | ~np.isfinite(B)

    rc = problem.raw_values(fn, m.combined().reshape(-1, problem.n))
    C = rc.values.reshape(m.T.shape)
    invalid_comb = (rc.invalid | ~np.isfinite(rc.values)).reshape(m.T.shape) | bad[:, None]
    return PreinvexSamples(m.X, m.X0, m.T, m.U, m.V, m.H, bad, invalid_comb, A=A, B=B, C=C)


def preinvex_masks(s: PreinvexSamples, kind: PreinvexKind, cfg: SampleConfig, mode: str = "log"):
    """Per-sample (satisfied, nonvacuous) masks for one definition.

    In "naive" mode the same thresholds are applied to exponentials
    directly (slack becomes the factor exp(tol), margins exp(-margin)), so
    verdicts agree with the log path wherever the exponentials are finite.
    """
    tol, margin = cfg.tol, cfg.strict_margin
    interior = (s.T > tol) & (s.T < 1.0 - tol)
    if mode == "log":
        mix, mx, c = s.mix_log, s.max_log, s.C
    elif mode == "naive":
        with np.errstate(over="ignore"):
            ea, eb, c = np.exp(s.A), np.exp(s.B), np.exp(s.C)
            mix = s.T * ea[:, None] + (1.0 - s.T) * eb[:, None]
            mx = np.maximum(ea, eb)[:, None]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def le(lhs, rhs, add, mul):
        if mode == "log":
            return lhs <= rhs + add
        return lhs <= rhs * mul

    if kind == PreinvexKind.EXP:
        sat = le(c, mix, tol, math.exp(tol))
        nonvac = np.ones_like(sat)
    elif kind == PreinvexKind.STRICT:
        sep = (np.max(np.abs(s.U - s.V), axis=1) > tol)[:, None]
        cond = interior & sep
        sat = ~cond | le(c, mix, -margin, math.exp(-margin))
        nonvac = cond
    elif kind == PreinvexKind.QUASI:
        sat = le(c, mx, tol, math.exp(tol))
        nonvac = np.ones_like(sat)
    elif kind == PreinvexKind.STRICT_QUASI:
        sep = (np.max(np.abs(s.X - s.X0), axis=1) > tol)[:, None]
        cond = interior & sep
        sat = ~cond | le(c, mx, -margin, math.exp(-margin))
        nonvac = cond
    else:
        raise ValueError(f"not a mixture-family kind: {kind}")
    return sat, nonvac


def preinvex_sides(fn: ProblemFunction, problem: EProblem, x, x0, tau: float) -> dict:
    """Scalar evaluation of both sides of the mixture inequality at one triple."""
    x = np.asarray(x, float).reshape(1, -1)
    x0 = np.asarray(x0, float).reshape(1, -1)
    U, _ = problem.e_map(x)
    V, _ = problem.e_map(x0)
    H, _ = problem.eta_map(U, V)
    z = V + tau * H
    a = float(problem.composed_values(fn, x).values[0])
    b = float(problem.composed_values(fn, x0).values[0])
    c = float(problem.raw_values(fn, z).values[0])
    lt = math.log(tau) if tau > 0.0 else -math.inf
    l1 = math.log1p(-tau) if tau < 1.0 else -math.inf
    mix = float(np.logaddexp(lt + a, l1 + b))
    return {"a": a, "b": b, "c": c, "combined": z[0].tolist(),
            "mix_log": mix, "max_log": max(a, b),
            "left": _exp_or_inf(c), "right_mix": _exp_or_inf(mix),
            "right_max": _exp_or_inf(max(a, b))}


def check_preinvex(fn: ProblemFunction, problem: EProblem, kind: PreinvexKind,
                   cfg: SampleConfig = SampleConfig(), region: Optional[Region] = None,
                   mode: str = "log") -> Verdict:
    """Check one mixture-family definition of exp(f) along eta-paths."""
    kind = PreinvexKind(kind)

    def judge(s):
        def witness(flat):
            i, t = divmod(flat, s.T.shape[1])
            tau = float(s.T[i, t])
            sides = preinvex_sides(fn, problem, s.X[i], s.X0[i], tau)
            strictish = kind in (PreinvexKind.STRICT, PreinvexKind.STRICT_QUASI)
            right_key = "right_mix" if kind in (PreinvexKind.EXP, PreinvexKind.STRICT) else "right_max"
            cmp = ("strict gap below margin" if strictish else "left > right beyond tol")
            return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]), tau=tau,
                           left=sides["left"], right=sides[right_key], comparison=cmp, index=flat,
                           extra={"log_left": sides["c"],
                                  "log_right": sides["mix_log"] if right_key == "right_mix" else sides["max_log"],
                                  "combined": sides["combined"]})

        sat, nonvac = preinvex_masks(s, kind, cfg, mode)
        return Judgement(sat, witness, nonvac)

    return sampled_verdict(lambda: preinvex_pairs(fn, problem, cfg, region), judge, "inconclusive")


# ---------------------------------------------------------------------------
# Pointwise-gradient (invex) family
# ---------------------------------------------------------------------------


def _probe_points(centers, problem, region, tol):
    """Deterministic points approaching each center, clipped to the box.

    Directions: the normalized all-ones diagonal first, then +/- axes and
    the negative diagonal; radii decrease through PROBE_RADII scaled by the
    box diameter.  Used by strict kinds, whose margin must survive x -> x0.
    Returns the points and, for each, the row of its center in ``centers``.
    """
    n = problem.n
    diag = np.ones(n) / math.sqrt(n)
    dirs = [diag] + [e for e in np.eye(n)] + [-diag] + [-e for e in np.eye(n)]
    scale = max(1.0, float(np.linalg.norm(problem.hi - problem.lo)))
    xs, owner = [], []
    for k, c in enumerate(np.atleast_2d(centers)):
        for r in PROBE_RADII:
            for d in dirs:
                p = np.clip(c + r * scale * d, problem.lo, problem.hi)
                if np.max(np.abs(p - c)) <= tol:
                    continue
                if bool(region.contains(p[None, :])[0]):
                    xs.append(p)
                    owner.append(k)
    return np.asarray(xs).reshape(-1, n), np.asarray(owner, dtype=np.intp)


@dataclass
class InvexSamples:
    X: np.ndarray      # (N, n) moving points
    X0: np.ndarray     # (N, n) base points
    A: np.ndarray      # f(E(x))
    B: np.ndarray      # f(E(x0))
    GX: Optional[np.ndarray]  # gradient of (f o E) at x, only when asked for (monotone check)
    G0: np.ndarray     # gradient of (f o E) at x0
    H: np.ndarray      # eta(E(x), E(x0))
    D: np.ndarray      # G0 . H
    invalid: np.ndarray
    nondiff: np.ndarray
    n_regular: int     # samples before appended probes
    T = invalid_comb = None  # no mixture weights: each sample is one pair

    @property
    def bad(self):
        return self.invalid | self.nondiff


def invex_pairs(fn: ProblemFunction, problem: EProblem, cfg: SampleConfig,
                at=None, region: Optional[Region] = None, probes: bool = False,
                want_gx: bool = False) -> InvexSamples:
    """Sample base/moving pairs and the gradient-side data.

    With ``at`` fixed, x0 is constant and x is drawn from the region.  In
    pair mode each drawn pair is used in both orientations, so any verdict
    is automatically symmetric in the roles of x and x0.

    Each distinct point is evaluated once: the rows P = [X; X0; probes]
    (X0 is the single row ``at`` in pinned mode) carry values and E, and
    sample k pairs moving row ix[k] with base row i0[k].  Gradients are
    taken only on the rows that serve as a base, or on all rows when
    ``want_gx`` asks for them at x too.
    """
    region = region or box_region(problem, cfg.tol)
    X, X0 = sample_pairs(problem, cfg, region, at)
    N = X.shape[0]
    if at is None:
        ix = np.arange(2 * N)
        i0 = np.concatenate([np.arange(N, 2 * N), np.arange(N)])
    else:
        ix = np.arange(N)
        i0 = np.full(N, N)
    n_regular = ix.size
    m = N + X0.shape[0]
    parts = [X, X0]
    if probes:
        Q, owner = _probe_points(X0[:PROBE_CENTERS], problem, region, cfg.tol)
        parts.append(Q)
        ix = np.concatenate([ix, np.arange(m, m + Q.shape[0])])
        i0 = np.concatenate([i0, N + owner])
    P = np.vstack(parts)

    vals = problem.composed_values(fn, P)
    E, bad_e = problem.e_map(P)
    row_bad = vals.invalid | bad_e | ~np.isfinite(vals.values)
    lo = 0 if at is None or want_gx else N      # pinned: the base is row N alone
    hi = P.shape[0] if want_gx else m          # probes never serve as a base
    grads = problem.composed_grads(fn, P[lo:hi])
    j0 = i0 - lo

    A, B = np.take(vals.values, ix), np.take(vals.values, i0)
    H, bad_h = problem.eta_map(np.take(E, ix, axis=0), np.take(E, i0, axis=0))
    G0 = np.take(grads.grads, j0, axis=0)
    D = np.einsum("ij,ij->i", G0, H)
    invalid = np.take(row_bad, ix) | np.take(row_bad, i0) | np.take(grads.invalid, j0) | bad_h
    nondiff = np.take(grads.nondiff, j0)
    GX = None
    if want_gx:
        GX = np.take(grads.grads, ix, axis=0)
        invalid |= np.take(grads.invalid, ix)
        nondiff |= np.take(grads.nondiff, ix)
    return InvexSamples(np.take(P, ix, axis=0), np.take(P, i0, axis=0), A, B, GX, G0, H, D,
                        invalid, nondiff & ~invalid, n_regular)


def invex_masks(s: InvexSamples, kind: InvexKind, cfg: SampleConfig):
    """Per-sample (satisfied, nonvacuous) masks, normalized by exp(B)."""
    tol, margin = cfg.tol, cfg.strict_margin
    with np.errstate(over="ignore"):  # inf: f grew by more than exp can represent
        lhs = np.expm1(s.A - s.B)
    sep = np.max(np.abs(s.X - s.X0), axis=1) > tol
    if kind == InvexKind.EXP:
        sat = lhs >= s.D - tol
        nonvac = np.ones_like(sat)
    elif kind == InvexKind.STRICT:
        sat = ~sep | (lhs >= s.D + margin)
        nonvac = sep
    elif kind == InvexKind.QUASI:
        ante = s.A <= s.B + tol
        sat = ~ante | (s.D <= tol)
        nonvac = ante
    elif kind == InvexKind.PSEUDO:
        ante = s.A < s.B - tol
        sat = ~ante | (s.D <= tol)
        nonvac = ante
    elif kind == InvexKind.STRICT_PSEUDO:
        cond = (s.A <= s.B + tol) & sep
        sat = ~cond | (s.D <= -margin)
        nonvac = cond
    else:
        raise ValueError(f"not a gradient-family kind: {kind}")
    return sat, nonvac


def invex_sides(fn: ProblemFunction, problem: EProblem, x, x0) -> dict:
    """Scalar evaluation of the gradient inequality data at one pair."""
    x = np.asarray(x, float).reshape(1, -1)
    x0 = np.asarray(x0, float).reshape(1, -1)
    a = float(problem.composed_values(fn, x).values[0])
    gr = problem.composed_grads(fn, x0)
    b = float(gr.values[0])
    g0 = gr.grads[0]
    U, _ = problem.e_map(x)
    V, _ = problem.e_map(x0)
    H, _ = problem.eta_map(U, V)
    d = float(np.dot(g0, H[0]))
    eb = _exp_or_inf(b)
    with np.errstate(over="ignore"):
        norm_left = float(np.expm1(a - b))
    return {"a": a, "b": b, "grad0": [float(v) for v in g0], "eta": H[0].tolist(), "d": d,
            "left": _exp_or_inf(a) - eb,
            "right": d * eb,
            "norm_left": norm_left, "norm_right": d}


_GRADIENT_KINDS = {InvexKind.QUASI, InvexKind.PSEUDO, InvexKind.STRICT_PSEUDO}


def check_invex(fn: ProblemFunction, problem: EProblem, kind: InvexKind,
                cfg: SampleConfig = SampleConfig(), at=None, region: Optional[Region] = None,
                vacuous_policy: str = "inconclusive") -> Verdict:
    """Check one gradient-family definition at sampled pairs.

    ``at`` pins the base point (the mode certificates use); otherwise both
    orientations of each sampled pair are tested.  Strict kinds also test
    deterministic probes near base points: "holds" for them means the
    strict gap stays above the margin even arbitrarily close to x0 in the
    probed directions.
    """
    kind = InvexKind(kind)
    strict = kind in (InvexKind.STRICT, InvexKind.STRICT_PSEUDO)

    def judge(s):
        def witness(i):
            sides = invex_sides(fn, problem, s.X[i], s.X0[i])
            if kind in (InvexKind.EXP, InvexKind.STRICT):
                cmp = ("strict gap below margin" if kind == InvexKind.STRICT
                       else "left < right beyond tol")
                return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]),
                               left=sides["left"], right=sides["right"], comparison=cmp, index=int(i),
                               extra={"norm_left": sides["norm_left"], "norm_right": sides["norm_right"],
                                      "probe": bool(i >= s.n_regular)})
            cmp = "antecedent held but gradient term not below threshold"
            return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]),
                           left=sides["d"], right=0.0, comparison=cmp, index=int(i),
                           extra={"a": sides["a"], "b": sides["b"], "probe": bool(i >= s.n_regular)})

        sat, nonvac = invex_masks(s, kind, cfg)
        return Judgement(sat, witness, nonvac)

    return sampled_verdict(
        lambda: invex_pairs(fn, problem, cfg, at=at, region=region, probes=strict), judge,
        vacuous_policy)


def gradient_monotonicity(fn: ProblemFunction, problem: EProblem,
                          cfg: SampleConfig = SampleConfig(), strict: bool = False,
                          region: Optional[Region] = None, at=None) -> Verdict:
    """Monotone-gradient consequence of the invexity inequality.

    Tests (grad F(x) e^{F(x)} - grad F(x0) e^{F(x0)}) . eta >= 0 with both
    sides divided by e^{max(F(x), F(x0))}, which keeps every quantity
    representable regardless of the magnitude of F.
    """
    def judge(s):
        m = np.maximum(s.A, s.B)
        gx_eta = np.einsum("ij,ij->i", s.GX, s.H)
        term = gx_eta * np.exp(s.A - m) - s.D * np.exp(s.B - m)
        if strict:
            sep = np.max(np.abs(s.X - s.X0), axis=1) > cfg.tol
            sat = ~sep | (term >= cfg.strict_margin)
            nonvac = sep
        else:
            sat = term >= -cfg.tol
            nonvac = np.ones_like(sat)

        def witness(i):
            a, b = float(s.A[i]), float(s.B[i])
            mm = max(a, b)
            tval = float(gx_eta[i] * math.exp(a - mm) - s.D[i] * math.exp(b - mm))
            unnorm = (gx_eta[i] * math.exp(a) - s.D[i] * math.exp(b)) if mm < 700 else math.inf
            return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]),
                           left=float(unnorm) if math.isfinite(unnorm) else tval, right=0.0,
                           comparison=("strict gap below margin" if strict else "left < right beyond tol"),
                           index=int(i), extra={"normalized": tval, "scale_log": mm,
                                                "probe": bool(i >= s.n_regular)})

        return Judgement(sat, witness, nonvac)

    return sampled_verdict(
        lambda: invex_pairs(fn, problem, cfg, at=at, region=region, probes=strict, want_gx=True),
        judge, "inconclusive")


# ---------------------------------------------------------------------------
# Epigraph and level-set forms
# ---------------------------------------------------------------------------


def epigraph_invex_check(fn: ProblemFunction, problem: EProblem,
                         cfg: SampleConfig = SampleConfig(), region: Optional[Region] = None) -> Verdict:
    """Invexity of the region above exp(f) over the image of E.

    Each sampled pair is lifted twice: once with tight levels (exactly
    exp(f) at both endpoints) and once with independently drawn headroom in
    (0, LEVEL_SPAN].  The tight instance makes this check fail exactly when
    the mixture inequality fails on the same sample; the slack instance
    exercises genuinely interior epigraph points.
    """
    def judge(s):
        N = s.A.shape[0]
        r1 = SampleStream(cfg.seed, "level-x").uniform(N)
        r2 = SampleStream(cfg.seed, "level-x0").uniform(N)
        with np.errstate(divide="ignore"):
            lift_a = np.logaddexp(s.A, np.log(LEVEL_SPAN * r1))
            lift_b = np.logaddexp(s.B, np.log(LEVEL_SPAN * r2))
        mix_rand = _mix_log(s.T, lift_a[:, None], lift_b[:, None])
        sat = np.stack([s.C <= s.mix_log + cfg.tol, s.C <= mix_rand + cfg.tol], axis=-1)

        def witness(flat):
            i, rest = divmod(flat, sat.shape[1] * 2)
            t, variant = divmod(rest, 2)
            tau = float(s.T[i, t])
            level_a = float(s.A[i] if variant == 0 else lift_a[i])
            level_b = float(s.B[i] if variant == 0 else lift_b[i])
            lvl = float(_mix_log(tau, level_a, level_b))
            return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]), tau=tau,
                           left=_exp_or_inf(float(s.C[i, t])), right=_exp_or_inf(lvl),
                           comparison="combined point above the combined level", index=flat,
                           extra={"level_x": _exp_or_inf(level_a), "level_x0": _exp_or_inf(level_b),
                                  "tight": variant == 0})

        return Judgement(sat, witness, np.ones_like(sat))

    return sampled_verdict(lambda: preinvex_pairs(fn, problem, cfg, region), judge, weight=2)


def level_set_invex_check(fn: ProblemFunction, problem: EProblem,
                          levels: Optional[Sequence[float]] = None,
                          cfg: SampleConfig = SampleConfig(),
                          region: Optional[Region] = None) -> Verdict:
    """Invexity of sublevel sets of exp(f) over the image of E.

    With explicit ``levels`` (thresholds on exp(f), so positive), pairs are
    restricted to each sublevel set; levels catching no sampled pair are
    reported and make the overall verdict inconclusive rather than holds.
    A violation is reported at the first level, in the given order, that
    has one.  Without levels every pair is tested against its own binding
    level max(exp(f(E(x))), exp(f(E(x0)))), the tightest set containing it.
    """
    if levels is not None and not all(lvl > 0.0 for lvl in levels):
        raise ValueError("levels must be positive (they bound exp(f))")

    def judge(s):
        def fail_at(flat, level_log):
            i, t = divmod(flat, s.T.shape[1])
            return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]), tau=float(s.T[i, t]),
                           left=_exp_or_inf(float(s.C[i, t])), right=_exp_or_inf(level_log),
                           comparison="combined point left the sublevel set", index=flat,
                           extra={"level": _exp_or_inf(level_log)})

        if levels is None:
            mx = s.max_log
            sat = s.C <= mx + cfg.tol
            return Judgement(sat, lambda flat: fail_at(flat, float(mx[flat // s.T.shape[1], 0])),
                             np.ones_like(sat))
        logs = np.array([math.log(lvl) for lvl in levels])[:, None]
        qualify = (s.A <= logs) & (s.B <= logs)                            # (levels, N)
        sat = ~qualify[:, :, None] | (s.C <= logs[:, :, None] + cfg.tol)   # (levels, N, k)
        empty = [lvl for lvl, q in zip(levels, qualify) if not q.any()]
        return Judgement(
            sat, lambda flat: fail_at(flat % s.C.size, float(logs[flat // s.C.size, 0])),
            np.broadcast_to(qualify[:, :, None], sat.shape),
            vacuous=f"no sampled pair lies in the sublevel set for levels {empty}" if empty else None)

    return sampled_verdict(lambda: preinvex_pairs(fn, problem, cfg, region), judge)
