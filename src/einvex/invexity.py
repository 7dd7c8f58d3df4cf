"""Sampling checks for the exponential invexity family.

KINDS is the one table of the check kinds, and check the one runner: every
kind evaluates its defining inequality on a deterministic sample set and
gets a Verdict.  "Holds" always means "no violation found among
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
exp(a) - exp(b) >= d * exp(b) into expm1(a - b) >= d; the monotone-gradient
inequality is normalized by exp(max(f(E(x)), f(E(x0)))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .problem import (EProblem, Hypothesis, Judgement, MixtureSamples, PairDraw, ProblemFunction,
                      Region, SampleConfig, Verdict, all_vacuous, box_region, mixture_samples,
                      sample_pairs, sample_rows, sampled_verdicts)
from .rng import SampleStream

PROBE_RADII = (1e-2, 1e-3, 1e-4, 1e-5)
PROBE_CENTERS = 4        # basepoints probed in pair mode
LEVEL_SPAN = 1.0         # headroom above exp(f) for sampled epigraph levels


class PreinvexKind(str, Enum):
    EXP = "preinvex"
    STRICT = "strict-preinvex"
    QUASI = "quasi-preinvex"
    STRICT_QUASI = "strict-quasi-preinvex"

    @property
    def mixed(self) -> bool:
        """Compared with the tau-mixture of the endpoint values, not their max."""
        return self in (PreinvexKind.EXP, PreinvexKind.STRICT)

    @property
    def strict(self) -> bool:
        return self in (PreinvexKind.STRICT, PreinvexKind.STRICT_QUASI)


class InvexKind(str, Enum):
    EXP = "invex"
    STRICT = "strict-invex"
    QUASI = "quasi-invex"
    PSEUDO = "pseudo-invex"
    STRICT_PSEUDO = "strict-pseudo-invex"
    MONOTONE = "monotone-gradient"
    STRICT_MONOTONE = "strict-monotone-gradient"

    @property
    def monotone(self) -> bool:
        """Judged on the monotone term, which takes the gradient at x too."""
        return self in (InvexKind.MONOTONE, InvexKind.STRICT_MONOTONE)

    @property
    def strict(self) -> bool:
        """Compared against the margin, not the tolerance."""
        return self in PROBED_KINDS


# the strict gradient kinds, which also take the probes
PROBED_KINDS = (InvexKind.STRICT, InvexKind.STRICT_PSEUDO, InvexKind.STRICT_MONOTONE)


# ---------------------------------------------------------------------------
# Shared evaluation plumbing
# ---------------------------------------------------------------------------


def _exp_or_inf(v):
    """exp(v) for reporting, with inf once v is too large to exponentiate."""
    return math.exp(v) if v < 700 else math.inf


def _apart(P, Q, tol):
    """Rows of P and Q more than tol apart in some coordinate; callers pass
    finite rows.  One pass per coordinate: a max over the point axis was 25x slower."""
    return np.logical_or.reduce([np.abs(p - q) > tol for p, q in zip(P.T, Q.T)])


def _mix_log(tau, a, b):
    """log(tau*exp(a) + (1 - tau)*exp(b)) without leaving the log domain."""
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log(tau) + a, np.log1p(-tau) + b)


# ---------------------------------------------------------------------------
# Mixture (preinvex) family
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


def preinvex_pairs(fn: ProblemFunction, problem: EProblem, m: MixtureSamples) -> PreinvexSamples:
    """The drawn mixture block ``m`` with f evaluated at x, x0 and the combined points."""
    ra = problem.composed_values(fn, m.X)
    rb = problem.composed_values(fn, m.X0)
    bad = m.bad | ra.failed | rb.failed

    rc = problem.raw_values(fn, m.combined().reshape(-1, problem.n))
    invalid_comb = rc.failed.reshape(m.T.shape) | bad[:, None]
    return PreinvexSamples(m.X, m.X0, m.T, m.U, m.V, m.H, bad, invalid_comb, m.lo, m.starved,
                           A=ra.values, B=rb.values, C=rc.values.reshape(m.T.shape))


def preinvex_masks(s: PreinvexSamples, kind: PreinvexKind, cfg: SampleConfig):
    """Per-sample (satisfied, nonvacuous) masks for one definition.

    Every kind is the one comparison C <= level + need, with C the log of
    f at the combined point.  The level is the tau-mixture of the endpoint
    values or their max; need is tol, or -margin for a strict kind.  A
    strict kind counts only interior tau and points apart (the E-images for
    strict-preinvex, x and x0 for strict-quasi-preinvex); any other sample
    holds vacuously.
    """
    kind, tol = PreinvexKind(kind), cfg.tol
    level = s.mix_log if kind.mixed else s.max_log
    sat = s.C <= level + (-cfg.strict_margin if kind.strict else tol)
    if not kind.strict:
        return sat, np.ones_like(sat)
    P, Q = (s.U, s.V) if kind.mixed else (s.X, s.X0)
    cond = (s.T > tol) & (s.T < 1.0 - tol) & _apart(P, Q, tol)[:, None]
    return ~cond | sat, cond


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
    dirs = np.vstack([diag, np.eye(n), -diag, -np.eye(n)])
    scale = max(1.0, float(np.linalg.norm(problem.hi - problem.lo)))
    C = np.atleast_2d(centers)
    steps = (np.asarray(PROBE_RADII)[:, None, None] * scale) * dirs          # (radii, dirs, n)
    pts = np.clip(C[:, None, None, :] + steps, problem.lo, problem.hi).reshape(-1, n)
    owner = np.repeat(np.arange(C.shape[0]), steps.shape[0] * steps.shape[1])
    keep = _apart(pts, C[owner], tol)
    if keep.any():
        keep[keep] = region.contains(pts[keep])
    return pts[keep], owner[keep]


@dataclass
class InvexSamples:
    """One block of (x, x0) samples, rows in canonical order."""

    X: np.ndarray      # (N, n) moving points
    X0: np.ndarray     # (N, n) base points
    A: np.ndarray      # f(E(x))
    B: np.ndarray      # f(E(x0))
    H: np.ndarray      # eta(E(x), E(x0))
    D: np.ndarray      # grad (f o E)(x0) . H, summed over the variables in order
    DX: Optional[np.ndarray]  # grad (f o E)(x) . H alike, only for the monotone kinds
    invalid: np.ndarray
    nondiff: np.ndarray
    index: np.ndarray  # sample index of each row: i, N + i reversed, then the probes
    unit: np.ndarray   # the pair of each row, counted in the block; each probe is one
    n_regular: int     # sample index of the first probe
    starved: Optional[str] = None  # why no pair after these could be drawn
    T = invalid_comb = None  # no mixture weights: each sample is one pair

    @property
    def bad(self):
        return self.invalid | self.nondiff


@dataclass
class InvexBlock:
    """The function-independent part of one block of gradient-family samples.

    Sample k moves row ix[k] of P = [X; X0; centers; probes] against base
    row i0[k] (X0 is the single row ``at`` in pinned mode).  Every
    hypothesis judged on the block reads these arrays; invex_pairs adds a
    function's values and gradients.
    """

    P: np.ndarray       # the points of the block
    E: np.ndarray       # E(P)
    bad_e: np.ndarray   # rows of P where E failed
    ix: np.ndarray      # the moving row of each sample
    i0: np.ndarray      # its base row
    X: np.ndarray       # P[ix]
    X0: np.ndarray      # P[i0]
    H: np.ndarray       # eta(E(x), E(x0))
    bad_h: np.ndarray
    index: np.ndarray   # as in InvexSamples
    unit: np.ndarray
    n_regular: int
    starved: Optional[str]
    bases: tuple        # (lo, hi): the rows of P that serve as a base, or a center


def invex_block(problem: EProblem, cfg: SampleConfig, pairs: PairDraw, lo: int, hi: int,
                probes: bool = False) -> InvexBlock:
    """The shared part of pairs lo..hi-1: the draw, E, eta and the row frame.

    With ``pairs.at`` fixed, x0 is constant and x is drawn from the region.
    In pair mode each drawn pair is used in both orientations, (x, x0)
    before (x0, x), so any verdict is automatically symmetric in the roles
    of x and x0.  ``probes`` puts the probes of the first PROBE_CENTERS base
    points (``pairs.centers``, kept as they are drawn) right after the last
    of those pairs; a probed base point is a row of its own, as a center.
    """
    X, X0, starved = sample_pairs(pairs, lo, hi)
    b, pinned = X.shape[0], pairs.at is not None
    w = 1 if pinned else 2               # samples per pair
    k = np.arange(b)
    if pinned:
        ix, i0, index = k, np.full(b, b), lo + k
    else:
        ix = np.column_stack([k, b + k]).ravel()
        i0 = np.column_stack([b + k, k]).ravel()
        index = np.column_stack([lo + k, cfg.n_pairs + lo + k]).ravel()
    unit = np.repeat(k, w)
    n_regular = w * cfg.n_pairs
    m = b + X0.shape[0]
    C = Q = np.empty((0, problem.n))
    last = min(cfg.n_pairs, PROBE_CENTERS) - 1 - lo   # the last probed pair, in the block
    if probes and not pinned and lo < PROBE_CENTERS:
        pairs.centers = np.vstack([pairs.centers, X0[:PROBE_CENTERS - lo]])
    if probes and 0 <= last < b:
        C = X0 if pinned else pairs.centers
        Q, owner = _probe_points(C, problem, pairs.region, cfg.tol)
        j, cut = np.arange(Q.shape[0]), w * (last + 1)
        ix = np.insert(ix, cut, m + C.shape[0] + j)
        i0 = np.insert(i0, cut, m + owner)
        index = np.insert(index, cut, n_regular + j)
        unit = np.concatenate([unit[:cut], last + 1 + j, unit[cut:] + Q.shape[0]])
    P = np.vstack([X, X0, C, Q])
    E, bad_e = problem.e_map(P)
    H, bad_h = problem.eta_map(np.take(E, ix, axis=0), np.take(E, i0, axis=0))
    # pinned, the bases are row b and the centers; probes never serve as a base
    return InvexBlock(P, E, bad_e, ix, i0, np.take(P, ix, axis=0), np.take(P, i0, axis=0), H, bad_h,
                      index, unit, n_regular, starved, (b if pinned else 0, m + C.shape[0]))


def _dot_eta(grads, idx, H):
    """sum_j grads[j][idx] * H[:, j], the variables taken in order: the one
    definition of D and DX."""
    out = np.take(grads[0], idx) * H[:, 0]
    for j in range(1, grads.shape[0]):
        out += np.take(grads[j], idx) * H[:, j]
    return out


def invex_pairs(fn: ProblemFunction, problem: EProblem, blk: InvexBlock,
                want_gx: bool = False) -> InvexSamples:
    """The gradient-side data of ``fn`` on one block.

    Each point of the block is evaluated once.  Gradients are taken only on
    the rows that serve as a base, or on all rows when ``want_gx`` asks for
    them at x too.
    """
    vals = problem.composed_values(fn, blk.P)
    row_bad = vals.failed | blk.bad_e
    g_lo, g_hi = (0, blk.P.shape[0]) if want_gx else blk.bases
    grads = problem.composed_grads(fn, blk.P[g_lo:g_hi])
    j0 = blk.i0 - g_lo

    A, B = np.take(vals.values, blk.ix), np.take(vals.values, blk.i0)
    D = _dot_eta(grads.grads, j0, blk.H)
    invalid = (np.take(row_bad, blk.ix) | np.take(row_bad, blk.i0) | np.take(grads.invalid, j0)
               | blk.bad_h)
    nondiff = np.take(grads.nondiff, j0)
    DX = None
    if want_gx:
        DX = _dot_eta(grads.grads, blk.ix, blk.H)
        invalid |= np.take(grads.invalid, blk.ix)
        nondiff |= np.take(grads.nondiff, blk.ix)
    return InvexSamples(blk.X, blk.X0, A, B, blk.H, D, DX, invalid, nondiff & ~invalid,
                        blk.index, blk.unit, blk.n_regular, blk.starved)


def _monotone_term(s: InvexSamples):
    """(grad F(x) e^F(x) - grad F(x0) e^F(x0)) . eta over e^max(F(x), F(x0))."""
    m = np.maximum(s.A, s.B)
    return s.DX * np.exp(s.A - m) - s.D * np.exp(s.B - m)


def invex_masks(s: InvexSamples, kind: InvexKind, cfg: SampleConfig):
    """Per-sample (satisfied, nonvacuous) masks for one of the seven kinds.

    Every kind is the one comparison left >= right + need, with need -tol,
    or +margin for a strict kind.  The sides are expm1(A - B)
    against D for (strict-)invex, normalized by exp(B); 0 against D for the
    quasi and pseudo kinds; and the monotone term, normalized by
    exp(max(A, B)), against 0.  The quasi and pseudo antecedents and, for a
    strict kind, x apart from x0 are the side condition: any other sample
    holds vacuously.
    """
    kind, tol = InvexKind(kind), cfg.tol
    cond = _apart(s.X, s.X0, tol) if kind.strict else None
    if kind.monotone:
        left, right = _monotone_term(s), 0.0
    elif kind in (InvexKind.EXP, InvexKind.STRICT):
        with np.errstate(over="ignore"):  # inf: f grew by more than exp can represent
            left, right = np.expm1(s.A - s.B), s.D
    else:
        left, right = 0.0, s.D
        ante = s.A < s.B - tol if kind == InvexKind.PSEUDO else s.A <= s.B + tol
        cond = ante if cond is None else ante & cond
    sat = left >= right + (cfg.strict_margin if kind.strict else -tol)
    if cond is None:
        return sat, np.ones_like(sat)
    return ~cond | sat, cond


def invex_sides(fn: ProblemFunction, problem: EProblem, x, x0) -> dict:
    """Scalar evaluation of the gradient inequality data at one pair."""
    x = np.asarray(x, float).reshape(1, -1)
    x0 = np.asarray(x0, float).reshape(1, -1)
    a = float(problem.composed_values(fn, x).values[0])
    gr = problem.composed_grads(fn, x0)
    b = float(gr.values[0])
    g0 = gr.grads[:, 0]
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


def _invex_witness(kind: InvexKind, s: InvexSamples, i: int) -> dict:
    """The witness fields of row i, from the values its block judged."""
    a, b, d = float(s.A[i]), float(s.B[i]), float(s.D[i])
    probe = bool(s.index[i] >= s.n_regular)
    cmp = "strict gap below margin" if kind.strict else "left < right beyond tol"
    if kind in (InvexKind.EXP, InvexKind.STRICT):
        eb = _exp_or_inf(b)
        with np.errstate(over="ignore"):
            norm_left = float(np.expm1(a - b))
        return dict(left=_exp_or_inf(a) - eb, right=d * eb, comparison=cmp,
                    extra={"norm_left": norm_left, "norm_right": d, "probe": probe})
    if kind.monotone:
        gx_eta, mm = float(s.DX[i]), max(a, b)
        normalized = float(_monotone_term(s)[i])  # the term its mask judged
        left = gx_eta * math.exp(a) - d * math.exp(b) if mm < 700 else math.inf
        return dict(left=left if math.isfinite(left) else normalized, right=0.0, comparison=cmp,
                    extra={"normalized": normalized, "scale_log": mm, "probe": probe})
    return dict(left=d, right=0.0, comparison="antecedent held but gradient term not below threshold",
                extra={"a": a, "b": b, "probe": probe})


# ---------------------------------------------------------------------------
# The kind table and the one runner
# ---------------------------------------------------------------------------
#
# Each builder returns the Hypothesis of its kind: how its samples come from a
# drawn block and how they are judged.  ``vacuous`` is the rule of the eleven
# definitions; the set kinds have their own.


def _mixture(kind: PreinvexKind, fn, problem, cfg, region, vacuous) -> Hypothesis:
    """One mixture-family definition of exp(f) along eta-paths."""
    cmp = "strict gap below margin" if kind.strict else "left > right beyond tol"

    def judge(s):
        def witness(i, t):
            tau, a, b, c = float(s.T[i, t]), s.A[i], s.B[i], float(s.C[i, t])
            log_right = float(_mix_log(tau, a, b) if kind.mixed else max(a, b))
            return dict(tau=tau, left=_exp_or_inf(c), right=_exp_or_inf(log_right), comparison=cmp,
                        extra={"log_left": c, "log_right": log_right,
                               "combined": (s.V[i] + tau * s.H[i]).tolist()})

        sat, nonvac = preinvex_masks(s, kind, cfg)
        return Judgement(sat, witness, nonvac)

    return Hypothesis(judge, lambda m: preinvex_pairs(fn, problem, m), vacuous)


def _gradient(kind: InvexKind, fn, problem, cfg, region, vacuous) -> Hypothesis:
    """One of the seven gradient-family definitions.  A strict kind also
    judges the probes: "holds" then means the strict gap stays above the
    margin even arbitrarily close to x0 in the probed directions.  A kind
    without probes judges its samples with the probe rows dropped.  The
    monotone kinds also take the gradient at x."""

    def judge(s):
        sat, nonvac = invex_masks(s, kind, cfg)
        return Judgement(sat, lambda i: _invex_witness(kind, s, i), nonvac)

    def samples(blk):
        s = invex_pairs(fn, problem, blk, kind.monotone)
        if kind in PROBED_KINDS:
            return s
        probe = s.index >= s.n_regular  # only the block of the last probed pair has any
        return sample_rows(s, ~probe) if probe.any() else s

    return Hypothesis(judge, samples, vacuous)


def _epigraph(fn, problem, cfg, region, vacuous) -> Hypothesis:
    """Invexity of the region above exp(f) over the image of E.

    Each sampled pair is lifted twice: once with tight levels (exactly
    exp(f) at both endpoints) and once with independently drawn headroom in
    (0, LEVEL_SPAN].  The tight instance is the preinvex mask on the same
    samples, the paper's epigraph characterization; only the slack instance,
    at genuinely interior epigraph points, adds evidence of its own.
    """

    def judge(s):
        rows = s.A.shape[0]
        r1 = SampleStream(cfg.seed, "level-x").uniform(rows, start=s.lo)
        r2 = SampleStream(cfg.seed, "level-x0").uniform(rows, start=s.lo)
        with np.errstate(divide="ignore"):
            lift_a = np.logaddexp(s.A, np.log(LEVEL_SPAN * r1))
            lift_b = np.logaddexp(s.B, np.log(LEVEL_SPAN * r2))
        mix_rand = _mix_log(s.T, lift_a[:, None], lift_b[:, None])
        tight, _ = preinvex_masks(s, PreinvexKind.EXP, cfg)
        sat = np.stack([tight, s.C <= mix_rand + cfg.tol], axis=-1)

        def witness(i, t, variant):
            tau = float(s.T[i, t])
            level_a = float(s.A[i] if variant == 0 else lift_a[i])
            level_b = float(s.B[i] if variant == 0 else lift_b[i])
            lvl = float(_mix_log(tau, level_a, level_b))
            return dict(tau=tau, left=_exp_or_inf(float(s.C[i, t])), right=_exp_or_inf(lvl),
                        comparison="combined point above the combined level",
                        extra={"level_x": _exp_or_inf(level_a), "level_x0": _exp_or_inf(level_b),
                               "tight": variant == 0})

        return Judgement(sat, witness, np.ones_like(sat))

    return Hypothesis(judge, lambda m: preinvex_pairs(fn, problem, m))


def _level_set(fn, problem, cfg, region, vacuous,
               levels: Optional[Sequence[float]] = None) -> Hypothesis:
    """Invexity of sublevel sets of exp(f) over the image of E.

    With explicit ``levels`` (thresholds on exp(f), so positive), pairs are
    restricted to each sublevel set; levels catching no sampled pair are
    reported and make the overall verdict inconclusive rather than holds.
    A violation is reported at the first pair, then the first level in the
    given order, that has one.  Without levels every pair is tested against
    its own binding level max(exp(f(E(x))), exp(f(E(x0)))), the tightest set
    containing it: that is the quasi-preinvex mask on the same samples, the
    paper's sublevel-set characterization.
    """
    if levels is not None and not all(lvl > 0.0 for lvl in levels):
        raise ValueError("levels must be positive (they bound exp(f))")
    logs = None if levels is None else np.array([math.log(lvl) for lvl in levels])

    def judge(s):
        def fail_at(i, t, level_log):
            return dict(tau=float(s.T[i, t]), left=_exp_or_inf(float(s.C[i, t])),
                        right=_exp_or_inf(level_log), comparison="combined point left the sublevel set",
                        extra={"level": _exp_or_inf(level_log)})

        if levels is None:
            sat, nonvac = preinvex_masks(s, PreinvexKind.QUASI, cfg)
            mx = s.max_log
            return Judgement(sat, lambda i, t: fail_at(i, t, float(mx[i, 0])), nonvac)
        qualify = (s.A[:, None] <= logs) & (s.B[:, None] <= logs)             # (N, levels)
        sat = ~qualify[:, :, None] | (s.C[:, None, :] <= logs[:, None] + cfg.tol)  # (N, levels, k)
        return Judgement(sat, lambda i, lv, t: fail_at(i, t, float(logs[lv])),
                         np.broadcast_to(qualify[:, :, None], sat.shape))

    def empty_levels(counts):
        empty = [lvl for lvl, c in zip(levels, counts) if not c.any()]
        return f"no sampled pair lies in the sublevel set for levels {empty}" if empty else None

    return Hypothesis(judge, lambda m: preinvex_pairs(fn, problem, m),
                      None if levels is None else empty_levels)


def _invex_set(fn, problem, cfg, region, vacuous) -> Hypothesis:
    """Membership of E(x0) + tau*eta(E(x), E(x0)) in the region, whose
    points x and x0 are drawn; no function is judged, so fn is ignored."""

    def judge(s):
        Z = s.combined()
        member = region.contains(Z.reshape(-1, problem.n)).reshape(s.T.shape)
        return Judgement(member, lambda i, t: dict(
            tau=float(s.T[i, t]), comparison="combined point left the region",
            extra={"combined": Z[i, t].tolist()}))

    return Hypothesis(judge, failed="map evaluation")


class Kind(NamedTuple):
    """One --kind of check."""

    gradient: bool      # judged on invex_block's draw, else on mixture_samples'
    build: Callable     # (fn, problem, cfg, region, vacuous, *args) -> its Hypothesis
    reads: frozenset    # the optional settings it reads: function, at, tau, delta, levels


def _reads(*names, strict=False) -> frozenset:
    return frozenset(names + (("delta",) if strict else ()))


KINDS = {  # the one table of the 14 check kinds
    **{k.value: Kind(False, partial(_mixture, k), _reads("function", "tau", strict=k.strict))
       for k in PreinvexKind},
    **{k.value: Kind(True, partial(_gradient, k), _reads("function", "at", strict=k.strict))
       for k in InvexKind},
    "epigraph": Kind(False, _epigraph, _reads("function", "tau")),
    "level-set": Kind(False, _level_set, _reads("function", "tau", "levels")),
    "invex-set": Kind(False, _invex_set, _reads("tau")),
}


def check(problem: EProblem, plan, cfg: SampleConfig = SampleConfig(), at=None,
          region: Optional[Region] = None, vacuous=all_vacuous) -> list[Verdict]:
    """The verdict of every item of ``plan``, all judged on one draw.

    An item is (fn, kind), or (fn, "level-set", levels); invex-set judges
    no function and ignores fn.  The kinds of a plan share one draw: the
    gradient block of invex_block (with the probes when some kind takes
    them) or the mixture block of mixture_samples.  Each block of pairs is
    drawn once and judged for every item still undecided, so each verdict
    equals that of its item checked alone.  ``at`` pins the base point of a gradient plan, the mode
    certificates use; otherwise both orientations of each pair drawn from
    ``region`` (the box by default) are tested.  ``vacuous`` is the vacuity
    rule of the eleven definitions (see sampled_verdicts); None lets a check
    whose samples were all vacuous hold.
    """
    kinds = [KINDS[kind] for _, kind, *_ in plan]
    if len({k.gradient for k in kinds}) != 1:
        raise ValueError("a plan holds kinds of one draw, gradient or mixture")
    gradient = kinds[0].gradient
    if at is not None and not gradient:
        raise ValueError("at pins the base point of the gradient family")
    region = region or box_region(problem, cfg.tol)
    pairs = PairDraw(problem, cfg, region, at)
    hypotheses = [k.build(fn, problem, cfg, region, vacuous, *args)
                  for k, (fn, _, *args) in zip(kinds, plan)]
    if gradient:
        probes = any(kind in PROBED_KINDS for _, kind, *_ in plan)
        return sampled_verdicts(cfg.n_pairs,
                                lambda lo, hi: invex_block(problem, cfg, pairs, lo, hi, probes),
                                hypotheses)
    return sampled_verdicts(cfg.n_pairs, lambda lo, hi: mixture_samples(problem, cfg, pairs, lo, hi),
                            hypotheses)


# the names bench/spans.py traces as invexity.check; ROADMAP item 7 deletes them
check_invex = check_preinvex = gradient_monotonicity = check
