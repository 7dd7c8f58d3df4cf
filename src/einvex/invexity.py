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

from .problem import (EVERY_SAMPLE, EProblem, Hypothesis, Judgement, PairDraw, ProblemFunction,
                      Region, SampleConfig, Verdict, all_vacuous, block_bounds, box_region,
                      sample_pairs, sample_rows, sampled_verdicts)
from .rng import SampleStream, tau_grid

PROBE_RADII = (1e-2, 1e-3, 1e-4, 1e-5)
PROBE_CENTERS = 4        # basepoints probed in pair mode: a probed check's first block
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

    def __init__(self, value):
        # what invex_masks reads of a kind, set once per member: compared
        # against the margin, not the tolerance; judged on the monotone term,
        # which takes the gradient at x too; left is expm1(A - B), not 0; the
        # antecedent is A < B - tol, not A <= B + tol
        self.strict = value.startswith("strict-")
        self.monotone = value.endswith("monotone-gradient")
        self.exponential = value in ("invex", "strict-invex")
        self.pseudo = value == "pseudo-invex"


# the strict gradient kinds, which also take the probes
PROBED_KINDS = tuple(k for k in InvexKind if k.strict)


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


@dataclass
class MixtureSamples:
    """Seeded triples (x, x0, tau) of pairs lo.. through E and eta, one row
    per pair: mixture_samples draws them with A, B and C None, and
    preinvex_pairs fills in f at x, x0 and the combined points
    E(x0) + tau*eta(E(x), E(x0)); invex-set tests those for membership."""

    X: np.ndarray       # (N, n)
    X0: np.ndarray
    T: np.ndarray       # (N, k) mixture weights
    U: np.ndarray       # E(X)
    V: np.ndarray       # E(X0)
    H: np.ndarray       # eta(U, V)
    bad: np.ndarray     # (N,) pairs whose evaluation failed
    invalid_comb: Optional[np.ndarray] = None  # (N, k) failed triples, bad pairs included
    lo: int = 0                                # the first pair
    starved: Optional[str] = None              # why no pair after these could be drawn
    A: Optional[np.ndarray] = None             # f(E(x))   per pair
    B: Optional[np.ndarray] = None             # f(E(x0))  per pair
    C: Optional[np.ndarray] = None             # (N, k) f at the combined point
    nondiff = None  # no gradients taken: every bad pair is a failed evaluation

    @property
    def unit(self) -> np.ndarray:   # each row is a pair of its own
        return np.arange(self.X.shape[0])

    @property
    def index(self) -> np.ndarray:  # the global index of each row: its pair
        return self.lo + self.unit

    def combined(self) -> np.ndarray:
        """The (N, k, n) combined points."""
        # a nan arises only from an inf in E(x0) or eta, whose pair is bad
        with np.errstate(invalid="ignore"):
            return self.V[:, None, :] + self.T[:, :, None] * self.H[:, None, :]

    @property
    def mix_log(self):
        return _mix_log(self.T, self.A[:, None], self.B[:, None])

    @property
    def max_log(self):
        return np.maximum(self.A, self.B)[:, None]


def mixture_samples(problem: EProblem, cfg: SampleConfig, pairs: PairDraw,
                    lo: int, hi: int) -> MixtureSamples:
    """Pairs lo..hi-1 with their "tau" weights, through E and eta.

    The streams write x and x0 straight into the two halves of one array of
    points, so E is walked once over both."""
    m = hi - lo
    P = np.empty((2 * m, problem.n), order="F")
    X, X0, starved = sample_pairs(pairs, lo, hi, P[:m], P[m:])
    b = X.shape[0]
    if b < m:  # a starved draw: x0 moves up to follow the b pairs' x
        P[b:2 * b] = X0
        P = P[:2 * b]
    T = tau_grid(SampleStream(cfg.seed, "tau"), lo, lo + b, cfg.n_tau)
    E, bad = problem.e_map(P)
    H, bad_h = problem.eta_map(E[:b], E[b:])
    return MixtureSamples(P[:b], P[b:], T, E[:b], E[b:], H, bad[:b] | bad[b:] | bad_h,
                          lo=lo, starved=starved)


def preinvex_pairs(fn: ProblemFunction, problem: EProblem, m: MixtureSamples) -> MixtureSamples:
    """The drawn mixture block ``m`` with f evaluated at x, x0 and the combined points."""
    ra = problem.composed_values(fn, m.X)
    rb = problem.composed_values(fn, m.X0)
    bad = m.bad | ra.failed | rb.failed

    rc = problem.raw_values(fn, m.combined().reshape(-1, problem.n))
    return MixtureSamples(m.X, m.X0, m.T, m.U, m.V, m.H, bad,
                          rc.failed.reshape(m.T.shape) | bad[:, None], m.lo, m.starved,
                          A=ra.values, B=rb.values, C=rc.values.reshape(m.T.shape))


def preinvex_masks(s: MixtureSamples, kind: PreinvexKind, cfg: SampleConfig):
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
    """One block of (x, x0) samples, rows in canonical order: invex_block
    draws them with A, B, D, DX and nondiff None, invex_pairs fills them in."""

    X: np.ndarray      # (N, n) moving points
    X0: np.ndarray     # (N, n) base points; pinned, a read-only view of the one at row
    H: np.ndarray      # eta(E(x), E(x0))
    invalid: np.ndarray  # E or eta failed; with f filled in, also f or its gradient
    index: np.ndarray  # sample index of each row: i, N + i reversed, then the probes
    unit: np.ndarray   # the pair of each row, counted in the block; each probe is one
    n_regular: int     # sample index of the first probe
    starved: Optional[str] = None  # why no pair after these could be drawn
    A: Optional[np.ndarray] = None   # f(E(x))
    B: Optional[np.ndarray] = None   # f(E(x0))
    D: Optional[np.ndarray] = None   # grad (f o E)(x0) . H, summed over the variables in order
    DX: Optional[np.ndarray] = None  # grad (f o E)(x) . H alike, only for the monotone kinds
    nondiff: Optional[np.ndarray] = None
    T = invalid_comb = None  # no mixture weights: each sample is one pair

    @property
    def bad(self):
        return self.invalid | self.nondiff


@dataclass
class InvexBlock:
    """One block of gradient-family samples: its points and its frame.

    P holds the moving point of every sample, in sample order (the pairs,
    then any probes), and, pinned, the ``at`` row last; its columns are
    contiguous.  A sample's base is the ``at`` row when pinned, else its
    partner: pair k gives rows 2k (X[k] against X0[k]) and 2k + 1 (X0[k]
    against X[k]), and a probe's base is its center, the x0 row of a pair.
    ``frame`` holds the samples before any function is evaluated, shared by
    every hypothesis judged on the block; invex_pairs fills in a copy.
    """

    P: np.ndarray       # the points of the block
    rows: int           # its samples: P[:rows] are their moving points
    pinned: bool        # every base is the at row, the last of P
    probes: slice       # the probe samples, the last rows
    owner: np.ndarray   # pair mode: the row of P of each probe's center
    shared: "_Shared"   # what every block of its check shares
    frame: Optional[InvexSamples] = None

    def base(self, a):
        """``a`` at the base point of every sample in pair mode, for ``a``
        given per row of P along its first axis.  (Pinned, the base is the
        at row, read through the views of _Shared and _Pinned.)"""
        out = np.empty((self.rows,) + a.shape[1:], a.dtype, order="F")
        k = self.probes.start  # the rows of the pairs
        out[:k:2], out[1:k:2] = a[1:k:2], a[:k:2]
        if self.owner.size:
            out[self.probes] = np.take(a, self.owner, axis=0)
        return out


class _Shared(NamedTuple):
    """What every gradient block of one check shares, made with its first
    block and sized for the longest one.  All read-only."""

    index: np.ndarray          # the sample index of each row of a full block from pair 0
    unit: np.ndarray           # the pair of each of those rows
    X0: Optional[np.ndarray]   # pinned: the at row, a stride-0 view as long as any block


def _shared(problem: EProblem, cfg: SampleConfig, pairs: PairDraw, first: int) -> _Shared:
    """The _Shared of a check whose first block holds ``first`` pairs.  A
    block after a head of probes is no longer than one of a check without."""
    k = np.arange(max(first, *(hi - lo for lo, hi in block_bounds(cfg.n_pairs))))
    k.flags.writeable = False
    if pairs.at is not None:  # a head of probes adds at most every probe of the one center
        longest = k.size + len(PROBE_RADII) * 2 * (problem.n + 1)
        return _Shared(k, k, np.broadcast_to(pairs.at[0], (longest, problem.n)))
    index, unit = np.column_stack([k, cfg.n_pairs + k]).ravel(), np.repeat(k, 2)
    index.flags.writeable = unit.flags.writeable = False
    return _Shared(index, unit, None)


def invex_block(problem: EProblem, cfg: SampleConfig, pairs: PairDraw, lo: int, hi: int,
                probes: bool = False) -> InvexBlock:
    """The shared part of pairs lo..hi-1: the draw, E, eta and the frame.

    With ``pairs.at`` fixed, x0 is constant and x is drawn from the region.
    In pair mode each drawn pair is used in both orientations, (x, x0)
    before (x0, x), so any verdict is automatically symmetric in the roles
    of x and x0.  ``probes`` gives a block from pair 0, drawn whole, the
    probes of its first PROBE_CENTERS base points as its last rows; check
    makes those pairs a block of their own (block_bounds), so the probes
    follow them in sample order.  The streams write their points straight
    into their rows of P.  E is taken once per point, and eta once per
    sample, at the E-images of its moving point and its base; pinned, the
    base is the at row alone.  What every block shares is made with the
    first (PairDraw.shared, _Shared).
    """
    pinned = pairs.at is not None
    w, m = 1 if pinned else 2, hi - lo   # samples per pair, pairs asked for
    shared = pairs.shared = pairs.shared or _shared(problem, cfg, pairs, m)
    if shared.unit.shape[0] < w * m:
        raise ValueError(f"pairs {lo}..{hi - 1} make a block longer than any of the check")
    head = probes and lo == 0
    spare = len(PROBE_RADII) * 2 * (problem.n + 1) * PROBE_CENTERS if head else 0  # room for probes
    P = np.empty((w * m + spare + pinned, problem.n), order="F")
    X, X0, starved = sample_pairs(pairs, lo, hi, P[:w * m:w], None if pinned else P[1:2 * m:2])
    b = X.shape[0]
    index, unit = shared.index[:w * b] + lo, shared.unit[:w * b]
    Q, owner = np.empty((0, problem.n)), np.empty(0, dtype=int)
    if head and b == m:  # drawn whole: its probes follow its pairs
        Q, owner = _probe_points(X0[:PROBE_CENTERS], problem, pairs.region, cfg.tol)
        j = np.arange(Q.shape[0])
        index, unit = np.concatenate([index, w * cfg.n_pairs + j]), np.concatenate([unit, b + j])
    rows = w * b + Q.shape[0]
    P = P[:rows + pinned]                # the rows a starved draw or the probes left unfilled go
    P[w * b:rows] = Q
    if pinned:
        P[rows:] = X0
    blk = InvexBlock(P, rows, pinned, slice(w * b, rows), 2 * owner + 1, shared)
    E, bad_e = problem.e_map(P)
    if pinned:
        H, bad_h = problem.eta_map(E[:rows], E[rows:])
        X0, invalid = shared.X0[:rows], bad_e[:rows] | bad_h
        if bad_e[-1]:  # E fails at the at row: so does every sample
            invalid[:] = True
    else:
        H, bad_h = problem.eta_map(E[:rows], blk.base(E))
        X0, invalid = blk.base(P), bad_e[:rows] | blk.base(bad_e) | bad_h
    blk.frame = InvexSamples(P[:rows], X0, H, invalid, index, unit, w * cfg.n_pairs, starved)
    return blk


def _dot_eta(G, H):
    """sum_j G[:, j] * H[:, j], the variables taken in order: the one
    definition of D and DX."""
    # a nan arises only from an inf in G or H, whose sample is flagged:
    # nondiff (grad_many) or invalid (eta_map)
    with np.errstate(invalid="ignore"):
        out = G[:, 0] * H[:, 0]
        for j in range(1, G.shape[1]):
            out += G[:, j] * H[:, j]
    return out


def _value_failed(fn: ProblemFunction, problem: EProblem, P, g) -> np.ndarray:
    """Where f fails at the points P, from g, its gradient sweep over them.
    The sweep also flags a point where only the gradient leaves the domain
    (a moving exponent over a base <= 0), so a sweep that flags any point is
    followed by a walk of the values alone."""
    if g.invalid_node is None:
        return ~np.isfinite(g.values)
    return problem.composed_values(fn, P).failed


def _sweep(fn: ProblemFunction, problem: EProblem, P):
    """(gradient sweep, failed values) of f over the points P."""
    g = problem.composed_grads(fn, P)
    return g, _value_failed(fn, problem, P, g)


class _Pinned(NamedTuple):
    """f at the at row, the same in every block of a check: its value and
    gradient as read-only stride-0 views as long as any block of the check,
    and so its failure and non-differentiability flags, each None where the
    at row has none."""

    values: np.ndarray
    grads: np.ndarray
    bad: Optional[np.ndarray]
    nondiff: Optional[np.ndarray]


def _pinned(fn: ProblemFunction, problem: EProblem, blk: InvexBlock) -> _Pinned:
    """The _Pinned of f at the at row of the pinned block ``blk``."""
    g, failed = _sweep(fn, problem, blk.P[blk.rows:])

    def view(a):
        return np.broadcast_to(a[-1], (blk.shared.X0.shape[0],) + a.shape[1:])

    bad = failed | g.invalid
    return _Pinned(view(g.values), view(g.grads.T), view(bad) if bad[0] else None,
                   view(g.nondiff) if g.nondiff[0] else None)


def invex_pairs(fn: ProblemFunction, problem: EProblem, blk: InvexBlock,
                want_gx: bool = False, at: Optional[_Pinned] = None) -> InvexSamples:
    """The block's frame with the values and gradients of ``fn`` filled in.

    Every sample reads its values through the moving prefix or blk.base,
    with no per-sample copies.  In pair mode, where every drawn point serves
    as a base, the gradient is taken at every point and f's values come from
    that sweep.  Pinned, the base is ``at``, the _Pinned of f, which is the
    same in every block of a check (taken here when None), and a valid,
    differentiable at row adds nothing to the flags; f's values are taken at
    the moving points, and its gradient there too when ``want_gx`` asks for
    it at x.  The frame is shared by the block's hypotheses, so its arrays
    are never updated in place.
    """
    s, rows = blk.frame, blk.rows
    if not blk.pinned:  # every drawn point is a base: one sweep over all of them
        g, failed = _sweep(fn, problem, blk.P)
        values = g.values
        B, G0 = blk.base(values), blk.base(g.grads.T)
        bad, nondiff = blk.base(failed | g.invalid), blk.base(g.nondiff)
    else:
        at = at or _pinned(fn, problem, blk)
        B, G0 = at.values[:rows], at.grads[:rows]
        bad, nondiff = (None if a is None else a[:rows] for a in (at.bad, at.nondiff))
        if want_gx:
            g, failed = _sweep(fn, problem, blk.P[:rows])
            values = g.values
        else:
            v = problem.composed_values(fn, blk.P[:rows])
            values, failed = v.values, v.failed
    invalid = s.invalid | failed[:rows]
    if bad is not None:
        invalid |= bad
    DX = None
    if want_gx:
        DX = _dot_eta(g.grads.T[:rows], s.H)
        invalid |= g.invalid[:rows]
        nondiff = g.nondiff[:rows] if nondiff is None else nondiff | g.nondiff[:rows]
    nondiff = np.zeros(rows, dtype=bool) if nondiff is None else nondiff & ~invalid
    return InvexSamples(s.X, s.X0, s.H, invalid, s.index, s.unit, s.n_regular, s.starved,
                        A=values[:rows], B=B, D=_dot_eta(G0, s.H), DX=DX, nondiff=nondiff)


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
    holds vacuously.  A kind without one has EVERY_SAMPLE as its nonvacuous
    mask.  ``kind`` is an InvexKind member, whose attributes hold what this
    reads of it.
    """
    tol = cfg.tol
    cond = _apart(s.X, s.X0, tol) if kind.strict else None
    if kind.monotone:
        left, right = _monotone_term(s), 0.0
    elif kind.exponential:
        with np.errstate(over="ignore"):  # inf: f grew by more than exp can represent
            left, right = np.expm1(s.A - s.B), s.D
    else:
        left, right = 0.0, s.D
        ante = s.A < s.B - tol if kind.pseudo else s.A <= s.B + tol
        cond = ante if cond is None else ante & cond
    sat = left >= right + (cfg.strict_margin if kind.strict else -tol)
    if cond is None:
        return sat, EVERY_SAMPLE
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
    if kind.exponential:
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

    at = None  # pinned: the _Pinned of f, taken once per check

    def judge(s):
        sat, nonvac = invex_masks(s, kind, cfg)
        return Judgement(sat, lambda i: _invex_witness(kind, s, i), nonvac)

    def samples(blk):
        nonlocal at
        if blk.pinned and at is None:
            at = _pinned(fn, problem, blk)
        s = invex_pairs(fn, problem, blk, kind.monotone, at)
        if kind.strict or blk.probes.start == blk.rows:  # a block without probes
            return s
        return sample_rows(s, slice(blk.probes.start))

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

        return Judgement(sat, witness, EVERY_SAMPLE)

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
    if gradient:  # the probes follow the first PROBE_CENTERS pairs, a block of their own
        probes = any(kind in PROBED_KINDS for _, kind, *_ in plan)
        return sampled_verdicts(block_bounds(cfg.n_pairs, PROBE_CENTERS if probes else 0),
                                lambda lo, hi: invex_block(problem, cfg, pairs, lo, hi, probes),
                                hypotheses)
    return sampled_verdicts(block_bounds(cfg.n_pairs),
                            lambda lo, hi: mixture_samples(problem, cfg, pairs, lo, hi), hypotheses)


# the names bench/spans.py traces as invexity.check; ROADMAP item 7 deletes them
check_invex = check_preinvex = gradient_monotonicity = check
