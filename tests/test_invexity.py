"""Mixture- and gradient-family checkers, epigraph/level-set forms, probes."""

import cProfile
import dataclasses
import json
import math
import pstats
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from corpus import CFG, ENTRIES, by_name, naive_preinvex_masks, preinvex_block, problem
from einvex import expr
from einvex import invexity
from einvex import problem as problem_mod
from einvex.cli import run
from einvex.invexity import (
    KINDS,
    PROBE_CENTERS,
    PROBE_RADII,
    PROBED_KINDS,
    InvexKind,
    InvexSamples,
    MixtureSamples,
    PreinvexKind,
    check,
    invex_block,
    invex_masks,
    invex_pairs,
    invex_sides,
    preinvex_masks,
    preinvex_sides,
    _monotone_term,
    _probe_points,
)
from einvex.problem import (EProblem, PairDraw, Region, SampleConfig, _jsonable, box_region,
                            load_problem, sample_pairs)
from mpexpr import DPS, mp_eval, mp_grad


@pytest.fixture(scope="module")
def example1(example1_path):
    return load_problem(example1_path)


# ---------------------------------------------------------------------------
# the deep power-chain problem: gradient family splits from mixture family
# ---------------------------------------------------------------------------


def test_example1_gradient_family(example1, fast_cfg):
    f1 = example1.function("f1")
    assert check(example1, [(f1, "quasi-invex")], fast_cfg)[0].status == "holds"
    assert check(example1, [(f1, "pseudo-invex")], fast_cfg)[0].status == "holds"
    assert check(example1, [(f1, "strict-pseudo-invex")], fast_cfg)[0].status == "holds"

    v = check(example1, [(f1, "invex")], fast_cfg)[0]
    assert v.status == "fails"
    w = v.witness
    # the witness replays exactly through the scalar helper
    sides = invex_sides(f1, example1, w.x, w.x0)
    assert w.left == pytest.approx(sides["left"], abs=1e-12)
    assert w.right == pytest.approx(sides["right"], abs=1e-12)
    assert sides["norm_left"] < sides["norm_right"] - fast_cfg.tol


def test_example1_mixture_family_fails(example1, fast_cfg):
    f1 = example1.function("f1")
    for kind in ("preinvex", "strict-preinvex", "quasi-preinvex", "strict-quasi-preinvex"):
        v = check(example1, [(f1, kind)], fast_cfg)[0]
        assert v.status == "fails", kind
    v = check(example1, [(f1, "preinvex")], fast_cfg)[0]
    w = v.witness
    sides = preinvex_sides(f1, example1, w.x, w.x0, w.tau)
    assert sides["c"] > sides["mix_log"] + fast_cfg.tol


def test_example1_curated_pair_values(example1):
    # A pair where the gradient inequality visibly fails: difference of
    # exponentials 1 - 1/e on the left against 3/e on the right.
    s = invex_sides(example1.function("f1"), example1, [-3.0], [-4.0])
    assert s["a"] == 0.0 and s["b"] == -1.0
    assert s["eta"] == [1.0]
    assert s["d"] == 3.0
    assert s["left"] == pytest.approx(0.6321205588285577, abs=1e-15)
    assert s["right"] == pytest.approx(1.103638323514327, abs=1e-15)
    assert s["norm_left"] == pytest.approx(1.7182818284590453, abs=1e-15)
    assert s["norm_right"] == 3.0


def test_example1_monotonicity_fails_with_replayable_term(example1, fast_cfg):
    f1 = example1.function("f1")
    v = check(example1, [(f1, "monotone-gradient")], fast_cfg)[0]
    assert v.status == "fails"
    # curated pair: the monotonicity term at x=-4 against x0=-3 is -3/e
    gr = example1.composed_grads(f1, np.array([[-4.0]]))
    gr0 = example1.composed_grads(f1, np.array([[-3.0]]))
    U, _ = example1.e_map(np.array([[-4.0]]))
    V, _ = example1.e_map(np.array([[-3.0]]))
    H, _ = example1.eta_map(U, V)
    term = float(gr.grads[:, 0] @ H[0]) * math.exp(gr.values[0]) - \
        float(gr0.grads[:, 0] @ H[0]) * math.exp(gr0.values[0])
    assert term == pytest.approx(-3.0 / math.e, abs=1e-15)
    assert term < -fast_cfg.tol


def test_shifted_cube_curated_mixture_values():
    ent = by_name("shifted-cube")
    p = problem(ent)
    s = preinvex_sides(p.function("f1"), p, [-3.8], [-3.0], 0.5)
    assert s["a"] == pytest.approx(-0.512, abs=1e-14)
    assert s["b"] == 0.0
    assert s["c"] == pytest.approx(-0.064, abs=1e-14)
    assert s["left"] == pytest.approx(0.9380049995307296, abs=1e-15)
    assert s["right_mix"] == pytest.approx(0.7996478939227694, abs=1e-15)
    assert s["left"] > s["right_mix"]  # the mixture inequality fails here


# ---------------------------------------------------------------------------
# degenerate shapes: constants, affine, vacuous antecedents
# ---------------------------------------------------------------------------


def test_constant_function_statuses():
    p = problem(by_name("constant"))
    f = p.function("f1")
    assert check(p, [(f, "preinvex")], CFG)[0].status == "holds"
    assert check(p, [(f, "quasi-preinvex")], CFG)[0].status == "holds"
    assert check(p, [(f, "invex")], CFG)[0].status == "holds"
    assert check(p, [(f, "quasi-invex")], CFG)[0].status == "holds"
    assert check(p, [(f, "monotone-gradient")], CFG)[0].status == "holds"
    # every strict variant collapses on a flat function
    assert check(p, [(f, "strict-preinvex")], CFG)[0].status == "fails"
    assert check(p, [(f, "strict-quasi-preinvex")], CFG)[0].status == "fails"
    assert check(p, [(f, "strict-invex")], CFG)[0].status == "fails"
    assert check(p, [(f, "strict-pseudo-invex")], CFG)[0].status == "fails"
    assert check(p, [(f, "strict-monotone-gradient")], CFG)[0].status == "fails"
    # pseudo's antecedent a < b - tol never fires on a constant
    assert check(p, [(f, "pseudo-invex")], CFG)[0].status == "inconclusive"


def test_strict_invex_fails_via_deterministic_probes():
    # On an affine composition the strict gap shrinks quadratically with the
    # step, so only the near-basepoint probes can expose it.
    p = problem(by_name("affine"))
    f = p.function("f1")
    v = check(p, [(f, "strict-invex")], CFG, at=[0.5])[0]
    assert v.status == "fails"
    assert v.witness.extra["probe"] is True
    v = check(p, [(f, "strict-invex")], CFG)[0]
    assert v.status == "fails"
    assert v.witness.extra["probe"] is True


def _reference_probe_points(centers, problem, region, tol):
    """invexity._probe_points as a loop over centers, radii and directions."""
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


def test_probe_points_match_the_loop(vp1_path):
    # the box corners clip probes onto their center; the half plane drops some
    p = load_problem(vp1_path)
    centers = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 0.7], [p.hi[0], p.hi[1]]])
    half = Region("x1 <= x2", lambda P: np.atleast_2d(P)[:, 0] <= np.atleast_2d(P)[:, 1])
    for region in (box_region(p, CFG.tol), half):
        got = _probe_points(centers, p, region, CFG.tol)
        want = _reference_probe_points(centers, p, region, CFG.tol)
        assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])


def test_strict_mixture_kinds_have_no_probes():
    # Mixture-family strict kinds only see sampled pairs: the quadratic-gap
    # argument needs x near x0 *and* an interior tau, which sampling rarely
    # supplies, so a strictly convex composition can still earn "holds".
    p = problem(by_name("square"))
    f = p.function("f1")
    assert check(p, [(f, "strict-quasi-preinvex")], CFG)[0].status == "holds"
    v = check(p, [(f, "strict-invex")], CFG, at=[0.0])[0]
    assert v.status == "fails"  # the gradient family does probe


def test_vacuous_antecedent_policies():
    p = load_problem({"n": 1, "E": ["x1"], "eta": ["u1 - v1"],
                      "objectives": ["(y1-5)^2"], "box": {"lo": [-1.0], "hi": [1.0]}})
    f = p.function("f1")
    v = check(p, [(f, "quasi-invex")], CFG, at=[5.0])[0]
    assert v.status == "inconclusive"
    assert "vacuous" in v.reason
    v = check(p, [(f, "quasi-invex")], CFG, at=[5.0], vacuous=None)[0]
    assert v.status == "holds"
    assert v.nonvacuous == 0
    with pytest.raises(TypeError):  # the rule is a function, not a word to misspell
        check(p, [(f, "quasi-invex")], CFG, at=[5.0], vacuous_policy="inconclusve")[0]


def test_a_plan_shares_one_draw_and_keeps_each_verdict(repo_root):
    # a mixture plan judged in lockstep gives each item the verdict it gets alone
    for name in ("double-well", "square"):
        p = problem(by_name(name))
        f = p.function("f1")
        plan = [(f, "preinvex"), (f, "strict-quasi-preinvex"), (f, "epigraph"),
                (f, "level-set", [math.exp(0.5)]), (None, "invex-set")]
        assert check(p, plan, CFG) == [check(p, [item], CFG)[0] for item in plan], name
    # one draw per plan: the two families draw differently, and only the gradient family pins x0
    with pytest.raises(ValueError):
        check(p, [(f, "invex"), (f, "preinvex")], CFG)
    with pytest.raises(ValueError):
        check(p, [(f, "preinvex")], CFG, at=[0.0])
    # a function that fails to evaluate leaves the others' verdicts alone: f1 = log(y1)
    # leaves its domain on [-1, 1], f2 = log(y1 + 1.5) violates invexity
    p = load_problem(repo_root / "tests" / "golden" / "problems" / "failing.json")
    f1, f2 = p.function("f1"), p.function("f2")
    cfg = SampleConfig(seed=1, n_pairs=300)
    for plan in ([(f1, "invex"), (f2, "invex")],
                 [(f1, "strict-invex"), (f2, "invex")],  # the probed block
                 [(f1, "preinvex"), (f2, "preinvex")]):
        verdicts = check(p, plan, cfg)
        assert [v.status for v in verdicts] == ["inconclusive", "fails"], plan
        assert verdicts == [check(p, [item], cfg)[0] for item in plan], plan


# ---------------------------------------------------------------------------
# boundary table: every conclusion, side condition and level pinned by hand
# ---------------------------------------------------------------------------

TOL, MARGIN = CFG.tol, CFG.strict_margin


def _gradient_row(A, B, D, DX=0.0, x=1.0):
    """One gradient-family sample at n = 1: x0 = 0, and x."""
    x = np.array([[x]])
    A, B, D, DX = (np.array([v], float) for v in (A, B, D, DX))
    no = np.zeros(1, bool)
    return InvexSamples(X=x, X0=np.zeros((1, 1)), H=x, invalid=no, index=np.zeros(1, int),
                        unit=np.zeros(1, int), n_regular=1, A=A, B=B, D=D, DX=DX, nondiff=no)


def _mixture_row(A, B, C, tau=0.5, x=1.0, u=None):
    """One mixture-family triple at n = 1: x0 = E(x0) = 0, and x with E(x)
    = u, by default x."""
    x, u = np.array([[x]]), np.array([[x if u is None else u]])
    return MixtureSamples(X=x, X0=np.zeros((1, 1)), T=np.array([[tau]]), U=u, V=np.zeros((1, 1)), H=u,
                          bad=np.zeros(1, bool), invalid_comb=np.zeros((1, 1), bool),
                          A=np.array([A], float), B=np.array([B], float), C=np.array([[C]], float))


# (kind, sample, satisfied, nonvacuous, what the row pins).  At A = B = 0
# both levels of the mixture family are 0 and expm1(A - B) is 0.  Each row
# sits on the side of a threshold that a one-notch change of the mask moves.
G, M = _gradient_row, _mixture_row
BOUNDARY = [
    (InvexKind.EXP, G(0, 0, TOL / 2), True, True, "invex: D - tol is the threshold, not D"),
    (InvexKind.EXP, G(0, 0, TOL), True, True, "invex: D = tol, on the threshold, holds"),
    (InvexKind.EXP, G(0, 0, 2 * TOL), False, True, "invex: D beyond tol fails"),
    (InvexKind.EXP, G(1, 0, 1.5), True, True, "invex: the left side is expm1(A - B)"),
    (InvexKind.STRICT, G(0, 0, 0), False, True, "strict-invex: a tie misses the margin"),
    (InvexKind.STRICT, G(0, 0, -2 * MARGIN), True, True, "strict-invex: clearing the margin holds"),
    (InvexKind.STRICT, G(0, 0, 0, x=0.0), True, False, "strict-invex: only apart pairs count"),
    (InvexKind.STRICT, G(0, 0, 0, x=TOL), True, False, "strict-invex: x = tol from x0 is not apart"),
    (InvexKind.QUASI, G(0, 0, 10 * TOL), False, True, "quasi-invex: D above tol fails"),
    (InvexKind.QUASI, G(TOL, 0, 1), False, True, "quasi-invex: A = B + tol is in the antecedent"),
    (InvexKind.QUASI, G(2 * TOL, 0, 1), True, False, "quasi-invex: A > B + tol is vacuous"),
    (InvexKind.PSEUDO, G(-1, 0, 0), True, True, "pseudo-invex: D = 0 holds (not D <= -margin)"),
    (InvexKind.PSEUDO, G(-1, 0, 2 * TOL), False, True, "pseudo-invex: D beyond tol fails"),
    (InvexKind.PSEUDO, G(-TOL, 0, 1), True, False, "pseudo-invex: A = B - tol is not in the antecedent"),
    (InvexKind.STRICT_PSEUDO, G(0, 0, 0), False, True, "strict-pseudo-invex: D = 0 misses the margin"),
    (InvexKind.STRICT_PSEUDO, G(0, 0, -2 * MARGIN), True, True, "strict-pseudo-invex: D <= -margin holds"),
    (InvexKind.STRICT_PSEUDO, G(TOL, 0, 0), False, True, "strict-pseudo-invex: A = B + tol is in the antecedent"),
    (InvexKind.STRICT_PSEUDO, G(2 * TOL, 0, 0), True, False, "strict-pseudo-invex: A > B + tol is vacuous"),
    (InvexKind.STRICT_PSEUDO, G(0, 0, 0, x=0.0), True, False, "strict-pseudo-invex: only apart pairs count"),
    (InvexKind.MONOTONE, G(0, 0, 0, DX=-TOL / 2), True, True, "monotone-gradient: the term may dip by tol"),
    (InvexKind.MONOTONE, G(0, 0, 0, DX=-2 * TOL), False, True, "monotone-gradient: beyond tol fails"),
    (InvexKind.MONOTONE, G(0, 0, 1, DX=0.5), False, True, "monotone-gradient: the term is DX - D at A = B"),
    (InvexKind.MONOTONE, G(0, -1, 1, DX=0.5), True, True, "monotone-gradient: D is weighted by exp(B - A)"),
    (InvexKind.STRICT_MONOTONE, G(0, 0, 0), False, True, "strict-monotone-gradient: a zero term misses the margin"),
    (InvexKind.STRICT_MONOTONE, G(0, 0, 0, DX=2 * MARGIN), True, True, "strict-monotone-gradient: clearing it holds"),
    (InvexKind.STRICT_MONOTONE, G(0, 0, 0, x=0.0), True, False, "strict-monotone-gradient: only apart pairs count"),
    (PreinvexKind.EXP, M(0, 0, TOL / 2), True, True, "preinvex: the level plus tol is the threshold"),
    (PreinvexKind.EXP, M(0, 0, 2 * TOL), False, True, "preinvex: beyond tol fails"),
    (PreinvexKind.EXP, M(0, -1, -0.1), False, True, "preinvex: the level is the tau-mixture, not the max"),
    (PreinvexKind.STRICT, M(0, 0, 0), False, True, "strict-preinvex: a tie misses the margin"),
    (PreinvexKind.STRICT, M(0, 0, -2 * MARGIN), True, True, "strict-preinvex: clearing the margin holds"),
    (PreinvexKind.STRICT, M(0, -1, -0.1), False, True, "strict-preinvex: the level is the tau-mixture"),
    (PreinvexKind.STRICT, M(0, 0, 0, tau=TOL / 2), True, False, "strict-preinvex: only interior tau counts"),
    (PreinvexKind.STRICT, M(0, 0, 0, x=0.0), True, False, "strict-preinvex: only apart E-images count"),
    (PreinvexKind.STRICT, M(0, 0, 0, u=0.0), True, False,
     "strict-preinvex: x apart with equal E-images is vacuous"),
    (PreinvexKind.QUASI, M(0, 0, TOL / 2), True, True, "quasi-preinvex: the level plus tol is the threshold"),
    (PreinvexKind.QUASI, M(0, 0, 2 * TOL), False, True, "quasi-preinvex: beyond tol fails"),
    (PreinvexKind.QUASI, M(0, -1, -0.1), True, True, "quasi-preinvex: the level is the max"),
    (PreinvexKind.STRICT_QUASI, M(0, 0, 0), False, True, "strict-quasi-preinvex: a tie misses the margin"),
    (PreinvexKind.STRICT_QUASI, M(0, -1, -0.1), True, True, "strict-quasi-preinvex: the level is the max"),
    (PreinvexKind.STRICT_QUASI, M(0, 0, 0, tau=1 - TOL / 2), True, False,
     "strict-quasi-preinvex: only interior tau counts"),
    (PreinvexKind.STRICT_QUASI, M(0, 0, 0, x=0.0), True, False,
     "strict-quasi-preinvex: only apart pairs count"),
    (PreinvexKind.STRICT_QUASI, M(0, 0, 0, u=0.0), False, True,
     "strict-quasi-preinvex: x apart with equal E-images counts"),
]


@pytest.mark.parametrize("kind, s, sat, nonvac", [row[:4] for row in BOUNDARY],
                         ids=[row[4] for row in BOUNDARY])
def test_each_kind_on_its_boundary(kind, s, sat, nonvac):
    masks = invex_masks if isinstance(kind, InvexKind) else preinvex_masks
    got_sat, got_nonvac = masks(s, kind, CFG)
    assert (bool(got_sat.all()), bool(got_nonvac.all())) == (sat, nonvac)


def test_every_kind_is_documented_and_pinned(repo_root):
    """A new kind lands with a README row and a boundary row, or not at all."""
    readme = (repo_root / "README.md").read_text()
    rows = {line.split("`")[1] for line in readme.splitlines() if line.startswith("| `")}
    assert set(KINDS) <= rows, set(KINDS) - rows
    pinned = {row[0] for row in BOUNDARY}
    assert set(InvexKind) | set(PreinvexKind) <= pinned


# ---------------------------------------------------------------------------
# epigraph and level-set forms
# ---------------------------------------------------------------------------


def test_epigraph_matches_mixture_verdict_on_corpus_samples():
    for ent in ENTRIES:
        p = problem(ent)
        f = p.function("f1")
        pre = check(p, [(f, "preinvex")], CFG)[0]
        epi = check(p, [(f, "epigraph")], CFG)[0]
        assert pre.status == epi.status, ent.name


def test_epigraph_failure_is_driven_by_the_tight_level():
    p = problem(by_name("shifted-cube"))
    v = check(p, [(p.function("f1"), "epigraph")], CFG)[0]
    assert v.status == "fails"
    assert v.witness.extra["tight"] is True
    assert v.witness.left > v.witness.right


def test_level_set_auto_matches_quasi_verdict():
    # without levels the sublevel-set form is the quasi-preinvex mask
    for ent in ENTRIES:
        p = problem(ent)
        f = p.function("f1")
        quasi = check(p, [(f, "quasi-preinvex")], CFG)[0]
        lvl = check(p, [(f, "level-set")], CFG)[0]
        assert quasi.status == lvl.status, ent.name
        assert (quasi.witness is None) == (lvl.witness is None), ent.name
        if lvl.witness is not None:
            assert lvl.witness.index == quasi.witness.index, ent.name


def test_level_set_explicit_levels():
    p = problem(by_name("square"))
    # checked counts every (pair, tau) drawn; nonvacuous the ones inside the level
    v = check(p, [(p.function("f1"), "level-set", [math.exp(0.25)])], CFG)[0]
    assert v.status == "holds" and v.checked == CFG.n_pairs * CFG.n_tau
    assert v.nonvacuous == 1182

    # monotone composition: every sublevel set is a ray, so even a level
    # cutting through the range holds
    p = problem(by_name("shifted-cube"))
    v = check(p, [(p.function("f1"), "level-set", [math.exp(-0.5)])], CFG)[0]
    assert v.status == "holds" and v.checked == CFG.n_pairs * CFG.n_tau
    assert v.nonvacuous == 198

    # two wells below the threshold, a hill above it in between
    p = problem(by_name("double-well"))
    v = check(p, [(p.function("f1"), "level-set", [math.exp(0.5)])], CFG)[0]
    assert v.status == "fails"
    assert v.witness.extra["level"] == pytest.approx(math.exp(0.5), rel=1e-12)
    assert v.witness.left > v.witness.right

    # a level so deep no sampled pair qualifies is reported, not asserted
    v = check(p, [(p.function("f1"), "level-set", [math.exp(-15.0)])], CFG)[0]
    assert v.status == "inconclusive"
    assert "no sampled pair" in v.reason


def test_level_set_counts_each_pair_once_per_level(example1):
    # an instance is a (pair, level, tau): nonvacuous, the instances inside
    # their level, cannot exceed checked
    v = check(example1, [(example1.function("f1"), "level-set", [1e6, 1e7, 1e8])], CFG)[0]
    assert v.status == "holds" and v.checked == CFG.n_pairs * 3 * CFG.n_tau
    assert 0 < v.nonvacuous <= v.checked


def test_level_set_rejects_nonpositive_levels():
    p = problem(by_name("square"))
    with pytest.raises(ValueError):
        check(p, [(p.function("f1"), "level-set", [0.0])], CFG)[0]
    # before any sampling, so an earlier failing level does not hide it
    p = problem(by_name("double-well"))
    with pytest.raises(ValueError):
        check(p, [(p.function("f1"), "level-set", [math.exp(0.5), -1.0])], CFG)[0]


# ---------------------------------------------------------------------------
# numerics: log-domain and naive evaluation agree where both are safe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["square", "double-well", "affine-under-log"])
def test_log_and_naive_masks_agree_elementwise(name):
    p = problem(by_name(name))
    s = preinvex_block(p.function("f1"), p)
    for kind in PreinvexKind:
        sat_log, nv_log = preinvex_masks(s, kind, CFG)
        sat_naive, nv_naive = naive_preinvex_masks(s, kind, CFG)
        assert np.array_equal(sat_log, sat_naive), kind
        assert np.array_equal(nv_log, nv_naive), kind


def test_log_path_survives_extreme_scales():
    # composed values around +/-500: exp overflows, logaddexp does not
    p = problem(by_name("steep-affine"))
    v = check(p, [(p.function("f1"), "preinvex")], CFG)[0]
    assert v.status == "holds"
    assert v.witness is None


def test_preinvex_satisfaction_implies_quasi_per_sample():
    """The implications between kinds, sample by sample on corpus blocks.

    preinvex implies quasi-preinvex, and each strict kind its plain kind on
    the samples its side condition marks, everywhere.  invex implies
    quasi-invex except where 0 < A - B <= tol: there expm1(A - B) >= D - tol
    allows D up to about 2 tol.  invex implies today's pseudo-invex, whose
    antecedent A < B - tol makes expm1(A - B) negative, everywhere.
    """
    I, P = InvexKind, PreinvexKind
    premises = dict.fromkeys(["mixture", "invex", "strict"], 0)
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        s = preinvex_block(fn, p)
        ok = ~s.invalid_comb
        m = {kind: preinvex_masks(s, kind, CFG) for kind in PreinvexKind}
        assert np.all(~(m[P.EXP][0] & ok) | m[P.QUASI][0]), ent.name
        for strict, plain in ((P.STRICT, P.EXP), (P.STRICT_QUASI, P.QUASI)):
            sat, cond = m[strict]
            assert np.all(~(sat & cond & ok) | m[plain][0]), (ent.name, strict.value)
            premises["mixture"] += int(np.count_nonzero(sat & cond & ok))

        blk = invex_block(p, CFG, PairDraw(p, CFG, box_region(p, CFG.tol)), 0, CFG.n_pairs, True)
        s = invex_pairs(fn, p, blk, want_gx=True)
        ok = ~s.bad
        m = {kind: invex_masks(s, kind, CFG) for kind in InvexKind}
        invex = m[I.EXP][0] & ok
        band = (s.A > s.B) & (s.A <= s.B + CFG.tol)
        assert np.all(~(invex & ~band) | m[I.QUASI][0]), ent.name
        assert np.all(~invex | m[I.PSEUDO][0]), ent.name
        premises["invex"] += int(np.count_nonzero(invex))
        for strict, plain in ((I.STRICT, I.EXP), (I.STRICT_PSEUDO, I.PSEUDO),
                              (I.STRICT_MONOTONE, I.MONOTONE)):
            sat, cond = m[strict]
            assert np.all(~(sat & cond & ok) | m[plain][0]), (ent.name, strict.value)
            premises["strict"] += int(np.count_nonzero(sat & cond & ok))
    assert all(premises.values()), premises
    # no corpus sample falls in the band, but the band is real
    edge = _gradient_row(TOL / 2, 0, 1.2 * TOL)
    assert invex_masks(edge, I.EXP, CFG)[0].all() and not invex_masks(edge, I.QUASI, CFG)[0].any()


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_verdicts_are_deterministic():
    p = problem(by_name("double-well"))
    f = p.function("f1")
    a = check(p, [(f, "preinvex")], CFG)[0]
    b = check(p, [(f, "preinvex")], CFG)[0]
    assert _jsonable(a) == _jsonable(b)


def test_each_distinct_point_is_evaluated_once(example1, monkeypatch):
    """Pair mode maps each of the 2N sampled points through E once and walks
    f once at each, its values coming with the gradient; a pinned base point
    gets one gradient evaluation, not one per sample."""
    f1 = example1.function("f1")
    rows = {"e_map": 0, "grad_many": 0, "f values": 0}
    e_map, grad_many, eval_many = EProblem.e_map, expr.grad_many, expr.eval_many

    def counted_e_map(self, X):
        rows["e_map"] += np.atleast_2d(X).shape[0]
        return e_map(self, X)

    def counted_grad_many(node, env, wrt):
        rows["grad_many"] += next(np.size(v) for v in env.values())
        return grad_many(node, env, wrt)

    def counted_eval_many(node, env):
        rows["f values"] += next(np.size(v) for v in env.values()) if node is f1.composed else 0
        return eval_many(node, env)

    monkeypatch.setattr(EProblem, "e_map", counted_e_map)
    monkeypatch.setattr(expr, "grad_many", counted_grad_many)
    monkeypatch.setattr(expr, "eval_many", counted_eval_many)
    cfg = SampleConfig(seed=42, n_pairs=500, n_tau=8)
    assert check(example1, [(f1, "quasi-invex")], cfg)[0].status == "holds"
    assert rows == {"e_map": 2 * 500, "grad_many": 2 * 500, "f values": 0}
    rows["grad_many"] = 0
    assert check(example1, [(f1, "quasi-invex")], cfg, at=[-3.0])[0].status == "holds"
    assert rows["grad_many"] == 1


def test_starved_sampling_is_inconclusive():
    p = problem(by_name("square"))
    never = Region("empty", lambda P: np.zeros(np.atleast_2d(P).shape[0], dtype=bool))
    v = check(p, [(p.function("f1"), "preinvex")], CFG, region=never)[0]
    assert v.status == "inconclusive"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run_check", [
    lambda fn, p: check(p, [(fn, "preinvex")], CFG)[0],
    lambda fn, p: check(p, [(fn, "epigraph")], CFG)[0],
    lambda fn, p: check(p, [(fn, "level-set")], CFG)[0],
], ids=["preinvex", "epigraph", "level-set"])
def test_failed_pair_is_inconclusive_before_any_mask(run_check):
    # log(y1) leaves its domain on half the box: the reason names the first
    # failed pair, which has no tau, and no nan reaches the masks (numpy
    # would warn from logaddexp)
    p = load_problem({"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["log(y1)"],
                      "box": {"lo": [-1.0], "hi": [1.0]}})
    v = run_check(p.function("f1"), p)
    assert v.status == "inconclusive"
    assert v.reason.startswith("evaluation failed at x=[") and "tau" not in v.reason


_EVERY_KIND = {
    **{k.value: lambda fn, p, k=k: check(p, [(fn, k)], CFG)[0] for k in PreinvexKind},
    **{k.value: lambda fn, p, k=k: check(p, [(fn, k)], CFG)[0] for k in InvexKind},
    **{f"{k.value}@center": lambda fn, p, k=k: check(p, [(fn, k)], CFG, at=(p.lo + p.hi) / 2)[0]
       for k in InvexKind},
    "epigraph": lambda fn, p: check(p, [(fn, "epigraph")], CFG)[0],
    "level-set": lambda fn, p: check(p, [(fn, "level-set")], CFG)[0],
    "invex-set": lambda fn, p: check(p, [(None, "invex-set")], CFG)[0],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
def test_every_kind_is_quiet_on_the_corpus(kind):
    # steep-affine (500*y1) changes f by more than exp can represent across
    # a pair; expm1 returns inf there, which is the intended value
    for ent in ENTRIES:
        p = problem(ent)
        _EVERY_KIND[kind](p.function("f1"), p)


def test_invex_holds_implies_monotone_holds_on_corpus():
    # one-directional consequence of the gradient inequality, checked on the
    # entries where the antecedent verdict is a clean "holds"
    for name in ("square", "affine", "exp-of-exp", "bowl-2d", "saturating-eta"):
        p = problem(by_name(name))
        f = p.function("f1")
        if check(p, [(f, "invex")], CFG)[0].status == "holds":
            assert check(p, [(f, "monotone-gradient")], CFG)[0].status == "holds", name


# ---------------------------------------------------------------------------
# witnesses report the values their block judged; the scalar helpers replay them
# ---------------------------------------------------------------------------


def _close(got, want, scale=0.0):
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


def _replay_gradient(fn, p, kind, w):
    """(got, want, scale) of one gradient-family witness.

    The monotone term is a difference of two products that can cancel (at a
    probe it is about 1e-4 of them), and the replay's np.dot and math.exp
    round apart from the block's ordered sum over the variables and np.exp
    by an ulp, so it is compared relative to the size of the products."""
    s = invex_sides(fn, p, w.x, w.x0)
    a, b, d = s["a"], s["b"], s["d"]
    if kind in (InvexKind.EXP, InvexKind.STRICT):
        return [(w.left, s["left"], 0.0), (w.right, s["right"], 0.0),
                (w.extra["norm_left"], s["norm_left"], 0.0), (w.extra["norm_right"], s["norm_right"], 0.0)]
    if kind in (InvexKind.MONOTONE, InvexKind.STRICT_MONOTONE):
        # the gradient at x is the base gradient of the reversed orientation
        gx_eta = float(np.dot(invex_sides(fn, p, w.x0, w.x)["grad0"], s["eta"]))
        m = max(a, b)
        normalized = gx_eta * math.exp(a - m) - d * math.exp(b - m)
        size = abs(gx_eta) * math.exp(a - m) + abs(d) * math.exp(b - m)
        left = gx_eta * math.exp(a) - d * math.exp(b) if m < 700 else math.inf
        left_size = size * math.exp(m) if math.isfinite(left) else size
        return [(w.left, left if math.isfinite(left) else normalized, left_size), (w.right, 0.0, 0.0),
                (w.extra["normalized"], normalized, size), (w.extra["scale_log"], m, 0.0)]
    return [(w.left, d, 0.0), (w.right, 0.0, 0.0), (w.extra["a"], a, 0.0), (w.extra["b"], b, 0.0)]


def _replay_mixture(fn, p, kind, w):
    s = preinvex_sides(fn, p, w.x, w.x0, w.tau)
    mixed = kind in (PreinvexKind.EXP, PreinvexKind.STRICT)
    return [(w.left, s["left"], 0.0), (w.right, s["right_mix"] if mixed else s["right_max"], 0.0),
            (w.extra["log_left"], s["c"], 0.0),
            (w.extra["log_right"], s["mix_log"] if mixed else s["max_log"], 0.0),
            *((got, want, 0.0) for got, want in zip(w.extra["combined"], s["combined"]))]


def test_every_corpus_witness_replays_through_the_scalar_helpers():
    replayed = {}
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        runs = [(k, "box", check(p, [(fn, k)], CFG)[0], _replay_gradient) for k in InvexKind]
        runs += [(k, "center", check(p, [(fn, k)], CFG, at=(p.lo + p.hi) / 2)[0], _replay_gradient)
                 for k in InvexKind]
        runs += [(k, "box", check(p, [(fn, k)], CFG)[0], _replay_mixture) for k in PreinvexKind]
        for kind, where, v, replay in runs:
            if v.status != "fails":
                continue
            for got, want, scale in replay(fn, p, kind, v.witness):
                assert _close(got, want, scale), (ent.name, kind.value, where, got, want)
            replayed[kind, where] = replayed.get((kind, where), 0) + 1
    # every kind fails somewhere on the corpus, sampled over the box
    assert {k for k, where in replayed if where == "box"} == {*InvexKind, *PreinvexKind}
    assert sum(replayed.values()) > 150


def _mixture_gap(fn, p, kind, w):
    """log f(V + tau H) minus the right side of the mixture inequality, at
    60 digits, and the largest coordinate gap of E(x) and E(x0)."""
    with mpmath.workdps(DPS):
        x = dict(zip(p.vars, w.x))
        x0 = dict(zip(p.vars, w.x0))
        U = [mp_eval(e, x) for e in p.e_ops]
        V = [mp_eval(e, x0) for e in p.e_ops]
        uv = {**{f"u{j + 1}": u for j, u in enumerate(U)}, **{f"v{j + 1}": v for j, v in enumerate(V)}}
        H = [mp_eval(e, uv) for e in p.eta]
        a, b = mp_eval(fn.composed, x), mp_eval(fn.composed, x0)
        c = mp_eval(fn.raw, {f"y{j + 1}": v + w.tau * h for j, (v, h) in enumerate(zip(V, H))})
        mixed = kind in (PreinvexKind.EXP, PreinvexKind.STRICT)
        right = mpmath.log(w.tau * mpmath.exp(a) + (1 - w.tau) * mpmath.exp(b)) if mixed else max(a, b)
        return c - right, max(abs(u - v) for u, v in zip(U, V))


def test_mixture_witnesses_keep_their_sign_at_60_digits():
    gaps = []
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        for kind in PreinvexKind:
            v = check(p, [(fn, kind)], CFG)[0]
            if v.status != "fails":
                continue
            gap, apart = _mixture_gap(fn, p, kind, v.witness)
            strict = kind in (PreinvexKind.STRICT, PreinvexKind.STRICT_QUASI)
            assert gap > (-CFG.strict_margin if strict else CFG.tol), (ent.name, kind.value, gap)
            if kind == PreinvexKind.STRICT:
                assert apart > CFG.tol, (ent.name, apart)
            gaps.append(gap)
    assert len(gaps) == 39


def _gradient_gap(fn, p, kind, w, cfg):
    """left - right - need of the gradient inequality at a witness, at 60
    digits (below zero is a violation), and whether its antecedent holds
    there: A and B from the composed tree, D and DX from its 60-digit
    gradient dotted with the 60-digit eta."""
    with mpmath.workdps(DPS):
        x, x0 = dict(zip(p.vars, w.x)), dict(zip(p.vars, w.x0))
        U = [mp_eval(e, x) for e in p.e_ops]
        V = [mp_eval(e, x0) for e in p.e_ops]
        uv = {**{f"u{j + 1}": u for j, u in enumerate(U)}, **{f"v{j + 1}": v for j, v in enumerate(V)}}
        H = [mp_eval(e, uv) for e in p.eta]
        a, b = mp_eval(fn.composed, x), mp_eval(fn.composed, x0)
        d = mpmath.fsum(g * h for g, h in zip(mp_grad(fn.composed, x0, p.vars), H))
        need = cfg.strict_margin if kind.strict else -cfg.tol
        ante = max(abs(s - t) for s, t in zip(w.x, w.x0)) > cfg.tol if kind.strict else True
        if kind.monotone:
            dx = mpmath.fsum(g * h for g, h in zip(mp_grad(fn.composed, x, p.vars), H))
            m = max(a, b)
            return dx * mpmath.exp(a - m) - d * mpmath.exp(b - m) - need, ante
        if kind in (InvexKind.EXP, InvexKind.STRICT):
            return mpmath.expm1(a - b) - d - need, ante
        ante = ante and (a < b - cfg.tol if kind == InvexKind.PSEUDO else a <= b + cfg.tol)
        return -d - need, ante


def test_gradient_witnesses_keep_their_sign_at_60_digits():
    """The twin of the mixture test above for the seven gradient kinds, in
    pair mode over the box and pinned at the center."""
    gaps = []
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        for kind in InvexKind:
            for at in (None, (p.lo + p.hi) / 2):
                v = check(p, [(fn, kind)], CFG, at=at)[0]
                if v.status != "fails":
                    continue
                gap, ante = _gradient_gap(fn, p, kind, v.witness, CFG)
                assert ante and gap < 0, (ent.name, kind.value, at is None, gap)
                gaps.append(gap)
    assert len(gaps) == 142


def _golden_failures(repo_root):
    """(golden name, problem, fn, kind, witness, cfg) of every failing
    gradient or mixture verdict stored in tests/golden and tests/golden/bench:
    a check's verdict or a certificate's hypothesis.  The problem is found
    by the sha256 its report carries, and cfg holds the report's tolerances."""
    golden = repo_root / "tests" / "golden"
    problems = {p.sha256: p for p in map(load_problem, [*(repo_root / "problems").glob("*.json"),
                                                        *(golden / "problems").glob("*.json")])}
    kinds = {k.value: k for k in (*InvexKind, *PreinvexKind)}
    for path in sorted([*golden.glob("*.json"), *(golden / "bench").glob("*.json")]):
        rep = json.loads(path.read_text()).get("report")
        if not isinstance(rep, dict) or "problem" not in rep:
            continue  # text.json
        config = rep["config"]
        if "certificate" in rep:
            verdicts = [(h["target"], h["kind"], h["verdict"]) for h in rep["certificate"]["hypotheses"]]
        else:
            verdicts = [(config.get("function"), config.get("kind"), rep.get("verdict") or {})]
        cfg = SampleConfig(tol=config["eps"], strict_margin=config.get("delta", CFG.strict_margin))
        p = problems[rep["problem"]["sha256"]]
        for target, kind, verdict in verdicts:
            if kind in kinds and verdict.get("status") == "fails":
                w = verdict["witness"]
                yield (f"{path.parent.name}/{path.stem}", p, p.function(target), kinds[kind],
                       SimpleNamespace(x=w["x"], x0=w["x0"], tau=w.get("tau")), cfg)


def test_golden_witnesses_keep_their_sign_at_60_digits(repo_root):
    """Every failing gradient or mixture verdict of a golden report, checks
    and certificate hypotheses alike, violates its inequality also at 60
    digits: A, B and C from tests/mpexpr.py, D and DX from its mp_grad."""
    seen = []
    for name, p, fn, kind, w, cfg in _golden_failures(repo_root):
        if isinstance(kind, InvexKind):
            gap, ante = _gradient_gap(fn, p, kind, w, cfg)
            assert ante and gap < 0, (name, fn.name, kind.value, gap)
        else:
            gap, apart = _mixture_gap(fn, p, kind, w)
            strict = kind in (PreinvexKind.STRICT, PreinvexKind.STRICT_QUASI)
            assert gap > (-cfg.strict_margin if strict else cfg.tol), (name, kind.value, gap)
            if kind == PreinvexKind.STRICT:
                assert apart > cfg.tol, (name, apart)
        seen.append(name)
    assert len(seen) == 25


# ---------------------------------------------------------------------------
# sampler power: a bump as thin as w, found after ever more pairs
# ---------------------------------------------------------------------------


def _bump(w):
    """log(y1^2 + 1 + 0.01*exp(-((y1 - 0.3)/w)^2)) on [-1, 1], E the
    identity and eta = u - v: invex but for a bump of width w at 0.3."""
    return load_problem({"n": 1, "vars": ["x1"], "E": ["x1"], "eta": ["u1 - v1"],
                         "objectives": [{"raw": f"log(y1^2 + 1 + 0.01*exp(-(((y1 - 0.3)/{w!r})^2)))"}],
                         "ineq": [], "eq": [], "box": {"lo": [-1.0], "hi": [1.0]}})


# (witness index, checked) at 100,000 pairs and seed 42.  A gradient index
# N + i is pair i in the reversed orientation; a preinvex index counts
# n_tau = 8 instances per pair.
POWER = {
    1e-2: {"invex": (100_026, 54), "preinvex": (45, 48), "quasi-invex": (100_026, 54)},
    1e-3: {"invex": (100_415, 832), "preinvex": (1_695, 1_696), "quasi-invex": (100_466, 934)},
    1e-4: {"invex": (15_369, 30_740), "preinvex": (25_505, 25_512), "quasi-invex": (131_935, 63_872)},
}


@pytest.mark.parametrize("w", sorted(POWER))
def test_sampler_power_on_a_thin_bump(w):
    p = _bump(w)
    fn = p.function("f1")
    cfg = SampleConfig(n_pairs=100_000)
    got = {}
    for kind in POWER[w]:
        v = check(p, [(fn, kind)], cfg)[0]
        assert v.status == "fails", (w, kind)
        got[kind] = (v.witness.index, v.checked)
    assert got == POWER[w]
    if w == 1e-4:  # the thinnest bump slips past the default budget
        assert check(p, [(fn, "invex")])[0].status == "holds"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("pinned", [False, True])
def test_d_and_dx_are_sums_over_the_variables_in_order(n, pinned):
    # D = sum_j g_j(x0) * eta_j and DX the same at x, j = 1..n in order; a
    # sum in another order (einsum over (rows, n) rows) differs from n = 3 on
    names = [f"x{j + 1}" for j in range(n)]
    raw = " + ".join(f"{j + 1}*y{j + 1}^2" for j in range(n))
    p = load_problem({"n": n, "vars": names, "E": names,
                      "eta": [f"u{j + 1} - v{j + 1}" for j in range(n)],
                      "objectives": [{"raw": f"log({raw} + 1)"}],
                      "ineq": [], "eq": [], "box": {"lo": [-1.0] * n, "hi": [1.0] * n}})
    cfg = SampleConfig(n_pairs=600, seed=4)
    pairs = PairDraw(p, cfg, box_region(p, cfg.tol), np.full(n, 0.1) if pinned else None)
    fn = p.function("f1")
    s = invex_pairs(fn, p, invex_block(p, cfg, pairs, 0, cfg.n_pairs), want_gx=True)

    def ordered(points):
        out = []
        for row, h in zip(points, s.H):
            g = expr.gradient(fn.composed, dict(zip(p.vars, row)), p.vars)
            d = float(g[0]) * float(h[0])
            for j in range(1, n):
                d += float(g[j]) * float(h[j])
            out.append(d)
        return np.array(out)

    assert s.D.tobytes() == ordered(s.X0).tobytes()
    assert s.DX.tobytes() == ordered(s.X).tobytes()


def test_a_monotone_witness_reports_the_term_its_mask_judged():
    """extra.normalized is the judged term of the witness row, to the bit,
    not a recomputation with other exponentials."""
    seen = 0
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        for kind in (InvexKind.MONOTONE, InvexKind.STRICT_MONOTONE):
            for at in (None, (p.lo + p.hi) / 2):
                v = check(p, [(fn, kind)], CFG, at=at)[0]
                if v.status != "fails":
                    continue
                pairs = PairDraw(p, CFG, box_region(p, CFG.tol), at)
                blk = invex_block(p, CFG, pairs, 0, CFG.n_pairs, kind in PROBED_KINDS)
                s = invex_pairs(fn, p, blk, want_gx=True)
                row = int(np.flatnonzero(s.index == v.witness.index)[0])
                judged = float(_monotone_term(s)[row])
                assert v.witness.extra["normalized"].hex() == judged.hex(), (ent.name, kind.value, at)
                seen += 1
    assert seen == 56


# ---------------------------------------------------------------------------
# the block frame against a per-sample build
# ---------------------------------------------------------------------------


def _frame_problem(n, power):
    """E = x^3, with eta's cbrt(v) terms in v alone.  f is log(x1 + 2*x2 +
    ... - 0.5), which fails near the origin, or with ``power`` x1^xn on a
    box at the origin, where a probe clipped to x1 = 0 has a value but no
    gradient."""
    if power:
        f, hi = {"raw": f"cbrt(y1)^cbrt(y{n})", "composed": f"x1^x{n}"}, 0.01
    else:
        f, hi = {"raw": "log(" + " + ".join(f"{j + 1}*cbrt(y{j + 1})" for j in range(n)) + " - 0.5)",
                 "composed": "log(" + " + ".join(f"{j + 1}*x{j + 1}" for j in range(n)) + " - 0.5)"}, 2.0
    names = [f"x{j + 1}" for j in range(n)]
    return load_problem({"n": n, "vars": names, "E": [f"{x}^3" for x in names],
                         "eta": [f"1 - exp(cbrt(v{j + 1}) - cbrt(u{j + 1}))" for j in range(n)],
                         "objectives": [f], "ineq": [], "eq": [],
                         "box": {"lo": [0.0] * n, "hi": [hi] * n}})


def _per_sample(fn, p, cfg, at, probes):
    """Every sample of a check built from its own (x, x0), in canonical
    order: (x, x0) copied out for each sample, then E, eta, f and its
    gradients evaluated on those copies.  Returns the fields of
    invex_pairs(..., want_gx) for want_gx False and True."""
    region = box_region(p, cfg.tol)
    X, X0, _ = sample_pairs(PairDraw(p, cfg, region, at), 0, cfg.n_pairs)
    N, n = X.shape
    per = 1 if at is not None else 2
    if at is not None:
        xs, x0s, index = X, np.repeat(X0, N, axis=0), np.arange(N)
    else:
        xs, x0s = np.stack([X, X0], axis=1).reshape(-1, n), np.stack([X0, X], axis=1).reshape(-1, n)
        index = np.stack([np.arange(N), N + np.arange(N)], axis=1).ravel()
    if probes:
        C = X0[:PROBE_CENTERS] if at is None else X0
        Q, owner = _probe_points(C, p, region, cfg.tol)
        cut = per * min(N, PROBE_CENTERS)
        xs, x0s = np.insert(xs, cut, Q, axis=0), np.insert(x0s, cut, C[owner], axis=0)
        index = np.insert(index, cut, per * N + np.arange(Q.shape[0]))
    U, bad_u = p.e_map(xs)
    V, bad_v = p.e_map(x0s)
    H, bad_h = p.eta_map(U, V)
    a, b = p.composed_values(fn, xs), p.composed_values(fn, x0s)
    gx, g0 = p.composed_grads(fn, xs), p.composed_grads(fn, x0s)

    def dot(g):
        out = g.grads[0] * H[:, 0]
        for j in range(1, n):
            out += g.grads[j] * H[:, j]
        return out

    invalid = bad_u | bad_v | bad_h | a.failed | b.failed | g0.invalid
    common = dict(X=xs, X0=x0s, H=H, index=index, A=a.values, B=b.values, D=dot(g0))
    return {False: dict(common, invalid=invalid, nondiff=g0.nondiff & ~invalid, DX=None),
            True: dict(common, invalid=invalid | gx.invalid, DX=dot(gx),
                       nondiff=(g0.nondiff | gx.nondiff) & ~(invalid | gx.invalid))}


def _units(s, n_pairs):
    """The pair of each row of ``s``, counted in its block; each probe is one."""
    key = np.where(s.index < s.n_regular, s.index % n_pairs, -1 - s.index)
    return np.cumsum(np.concatenate([[0], key[1:] != key[:-1]]))


@pytest.mark.parametrize("block", [3, 97, 8192])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["pair", "pinned", "pair-probed", "pinned-probed"])
@pytest.mark.parametrize("power", [False, True])
def test_a_block_frame_matches_a_per_sample_build(monkeypatch, block, n, mode, power):
    """Every field of invex_pairs, with and without the gradient at x, is the
    per-sample build's to the bit, whatever the block size, over the blocks
    of block_bounds (a probed check's first PROBE_CENTERS pairs a block of
    their own); pinned, the base fields are read-only broadcast views, so
    writing into the shared frame raises."""
    monkeypatch.setattr(problem_mod, "BLOCK_PAIRS", block)
    p = _frame_problem(n, power)
    fn = p.function("f1")
    cfg = SampleConfig(n_pairs=100, seed=3)
    at = (p.lo + p.hi) / 2 if mode.startswith("pinned") else None
    probes = mode.endswith("probed")
    want = _per_sample(fn, p, cfg, at, probes)
    pairs = PairDraw(p, cfg, box_region(p, cfg.tol), at)
    got = {False: [], True: []}
    for lo, hi in problem_mod.block_bounds(cfg.n_pairs, PROBE_CENTERS if probes else 0):
        blk = invex_block(p, cfg, pairs, lo, hi, probes)
        for want_gx in (False, True):
            s = invex_pairs(fn, p, blk, want_gx)
            assert (s.n_regular, s.starved) == ((1 if at is not None else 2) * cfg.n_pairs, None)
            assert s.unit.tobytes() == _units(s, cfg.n_pairs).tobytes()
            got[want_gx].append(s)
        if at is not None:
            for base in (blk.frame.X0, s.B):
                assert base.strides[0] == 0 and not base.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                blk.frame.X0 += 1.0
    for want_gx, fields in want.items():
        for name, ref in fields.items():
            parts = [getattr(s, name) for s in got[want_gx]]
            if ref is None:
                assert all(v is None for v in parts), name
                continue
            joined = np.concatenate(parts)
            assert (joined.shape, joined.dtype) == (ref.shape, ref.dtype), name
            assert joined.tobytes() == ref.tobytes(), (name, want_gx)
    if power and mode == "pair-probed":  # the case the value walk of _value_failed is for
        assert (want[False]["invalid"] != want[True]["invalid"]).any()


def test_no_block_length_gather(monkeypatch, vp1_path):
    """No command copies a per-point quantity to every sample with np.take:
    each sample reads its points through views.  The probe centers are the
    one gather left, as long as the probes; the strict run shows the
    counter sees it."""
    lengths = []
    take = np.take

    def counted(a, indices, *args, **kwargs):
        lengths.append(np.size(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", counted)
    pairs = 20000
    shortest = min(problem_mod.BLOCK_PAIRS, pairs % problem_mod.BLOCK_PAIRS or pairs)
    vp1 = str(vp1_path)
    for argv in (["check", vp1, "--function", "f1", "--kind", "invex"],
                 ["certify", vp1, "--candidate", "ybar", "--theorem", "t4"],
                 ["check", vp1, "--function", "f1", "--kind", "strict-invex"]):
        run(argv + ["--pairs", str(pairs), "--format", "json"])
        assert max(lengths, default=0) < shortest, argv
    assert lengths


# ---------------------------------------------------------------------------
# each point's work once per check
# ---------------------------------------------------------------------------


def test_a_certificate_takes_the_pinned_base_once_per_hypothesis(monkeypatch, vp1_path):
    """t4 at ybar judges four hypotheses on 13 blocks; each takes the
    gradient at the one at row once, not once per block."""
    one_row = []
    grad_many = expr.grad_many

    def counted(node, env, wrt):
        if all(np.shape(v) == (1,) for v in env.values()):
            one_row.append(str(node))
        return grad_many(node, env, wrt)

    monkeypatch.setattr(expr, "grad_many", counted)
    code, text = run(["certify", str(vp1_path), "--candidate", "ybar", "--theorem", "t4",
                      "--pairs", "100000", "--format", "json"])
    assert code == 0 and '"certified"' in text
    assert math.ceil(100000 / problem_mod.BLOCK_PAIRS) == 13
    p = load_problem(vp1_path)
    assert sorted(one_row) == sorted(str(fn.composed) for fn in (*p.objectives, *p.ineq))


def test_no_draw_concatenates_a_block(monkeypatch, vp1_path):
    """Each stream writes its accepted points into their rows of the block,
    so no draw joins them with a block-length np.concatenate: in pair mode,
    pinned, past the probes and for the mixture family."""
    lengths = []
    concatenate = np.concatenate

    def counted(arrays, axis=0, *args, **kwargs):
        out = concatenate(arrays, axis, *args, **kwargs)
        lengths.append(out.shape[0] if out.ndim else 1)
        return out

    monkeypatch.setattr(np, "concatenate", counted)
    pairs = 20000
    shortest = min(problem_mod.BLOCK_PAIRS, pairs % problem_mod.BLOCK_PAIRS or pairs)
    vp1 = str(vp1_path)
    for argv in (["check", vp1, "--function", "f1", "--kind", "invex"],
                 ["certify", vp1, "--candidate", "ybar", "--theorem", "t4"],
                 ["check", vp1, "--function", "f1", "--kind", "strict-invex"],
                 ["check", vp1, "--function", "f2", "--kind", "quasi-preinvex", "--region", "feasible"]):
        assert run(argv + ["--pairs", str(pairs), "--format", "json"])[0] in (0, 1), argv
        assert max(lengths, default=0) < shortest, argv


# ---------------------------------------------------------------------------
# each block pays only for its rows
# ---------------------------------------------------------------------------


def _calls(argv, counted):
    """Exit code of ``argv`` and how often each function of ``counted``
    ran meanwhile, by its code object, so every binding of it counts."""
    codes = {getattr(f, "_implementation", f).__code__: name for name, f in counted.items()}
    keys = {(c.co_filename, c.co_firstlineno, c.co_name): name for c, name in codes.items()}
    prof = cProfile.Profile()
    prof.enable()
    try:
        code, _ = run(argv)
    finally:
        prof.disable()
    calls = dict.fromkeys(counted, 0)
    for key, (_, ncalls, *_) in pstats.Stats(prof).stats.items():
        if key in keys:
            calls[keys[key]] += ncalls
    return code, calls


@pytest.mark.parametrize("argv, code", [
    (["certify", "vp1", "--candidate", "ybar", "--theorem", "t4"], 0),
    (["check", "vp1", "--function", "f1", "--kind", "invex"], 0),
    (["check", "vp1", "--function", "f2", "--kind", "strict-pseudo-invex"], 0),
])
def test_a_block_repeats_no_work_of_the_check(vp1_path, argv, code):
    """What every block of a check shares (the pinned base views, the block
    frame, the fields of the samples) is made once per check: 3 blocks and
    13 (a probed check adds its head to each) make as many broadcasts,
    column stacks and dataclass replacements, and one _Shared."""
    counted = {"np.broadcast_to": np.broadcast_to, "np.column_stack": np.column_stack,
               "dataclasses.replace": dataclasses.replace, "_shared": invexity._shared}
    argv = [str(vp1_path) if a == "vp1" else a for a in argv]
    got = {pairs: _calls(argv + ["--pairs", str(pairs), "--format", "json"], counted)
           for pairs in (20000, 100000)}
    assert [math.ceil(p / problem_mod.BLOCK_PAIRS) for p in got] == [3, 13]
    assert got[20000] == got[100000] == (code, got[20000][1])
    assert got[20000][1]["_shared"] == 1
