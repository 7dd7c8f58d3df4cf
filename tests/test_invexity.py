"""Mixture- and gradient-family checkers, epigraph/level-set forms, probes."""

import math

import numpy as np
import pytest

from corpus import CFG, ENTRIES, by_name, problem
from einvex import expr
from einvex.invexity import (
    InvexKind,
    PreinvexKind,
    check_invex,
    check_preinvex,
    epigraph_invex_check,
    gradient_monotonicity,
    invex_sides,
    level_set_invex_check,
    preinvex_masks,
    preinvex_pairs,
    preinvex_sides,
)
from einvex.problem import EProblem, Region, SampleConfig, einvex_set_check, load_problem


@pytest.fixture(scope="module")
def example1(example1_path):
    return load_problem(example1_path)


# ---------------------------------------------------------------------------
# the deep power-chain problem: gradient family splits from mixture family
# ---------------------------------------------------------------------------


def test_example1_gradient_family(example1, fast_cfg):
    f1 = example1.function("f1")
    assert check_invex(f1, example1, "quasi-invex", fast_cfg).status == "holds"
    assert check_invex(f1, example1, "pseudo-invex", fast_cfg).status == "holds"
    assert check_invex(f1, example1, "strict-pseudo-invex", fast_cfg).status == "holds"

    v = check_invex(f1, example1, "invex", fast_cfg)
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
        v = check_preinvex(f1, example1, kind, fast_cfg)
        assert v.status == "fails", kind
    v = check_preinvex(f1, example1, "preinvex", fast_cfg)
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
    v = gradient_monotonicity(f1, example1, fast_cfg)
    assert v.status == "fails"
    # curated pair: the monotonicity term at x=-4 against x0=-3 is -3/e
    gr = example1.composed_grads(f1, np.array([[-4.0]]))
    gr0 = example1.composed_grads(f1, np.array([[-3.0]]))
    U, _ = example1.e_map(np.array([[-4.0]]))
    V, _ = example1.e_map(np.array([[-3.0]]))
    H, _ = example1.eta_map(U, V)
    term = float(gr.grads[0] @ H[0]) * math.exp(gr.values[0]) - \
        float(gr0.grads[0] @ H[0]) * math.exp(gr0.values[0])
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
    assert check_preinvex(f, p, "preinvex", CFG).status == "holds"
    assert check_preinvex(f, p, "quasi-preinvex", CFG).status == "holds"
    assert check_invex(f, p, "invex", CFG).status == "holds"
    assert check_invex(f, p, "quasi-invex", CFG).status == "holds"
    assert gradient_monotonicity(f, p, CFG).status == "holds"
    # every strict variant collapses on a flat function
    assert check_preinvex(f, p, "strict-preinvex", CFG).status == "fails"
    assert check_preinvex(f, p, "strict-quasi-preinvex", CFG).status == "fails"
    assert check_invex(f, p, "strict-invex", CFG).status == "fails"
    assert check_invex(f, p, "strict-pseudo-invex", CFG).status == "fails"
    assert gradient_monotonicity(f, p, CFG, strict=True).status == "fails"
    # pseudo's antecedent a < b - tol never fires on a constant
    assert check_invex(f, p, "pseudo-invex", CFG).status == "inconclusive"


def test_strict_invex_fails_via_deterministic_probes():
    # On an affine composition the strict gap shrinks quadratically with the
    # step, so only the near-basepoint probes can expose it.
    p = problem(by_name("affine"))
    f = p.function("f1")
    v = check_invex(f, p, "strict-invex", CFG, at=[0.5])
    assert v.status == "fails"
    assert v.witness.extra["probe"] is True
    v = check_invex(f, p, "strict-invex", CFG)
    assert v.status == "fails"
    assert v.witness.extra["probe"] is True


def test_strict_mixture_kinds_have_no_probes():
    # Mixture-family strict kinds only see sampled pairs: the quadratic-gap
    # argument needs x near x0 *and* an interior tau, which sampling rarely
    # supplies, so a strictly convex composition can still earn "holds".
    p = problem(by_name("square"))
    f = p.function("f1")
    assert check_preinvex(f, p, "strict-quasi-preinvex", CFG).status == "holds"
    v = check_invex(f, p, "strict-invex", CFG, at=[0.0])
    assert v.status == "fails"  # the gradient family does probe


def test_vacuous_antecedent_policies():
    p = load_problem({"n": 1, "E": ["x1"], "eta": ["u1 - v1"],
                      "objectives": ["(y1-5)^2"], "box": {"lo": [-1.0], "hi": [1.0]}})
    f = p.function("f1")
    v = check_invex(f, p, "quasi-invex", CFG, at=[5.0])
    assert v.status == "inconclusive"
    assert "vacuous" in v.reason
    v = check_invex(f, p, "quasi-invex", CFG, at=[5.0], vacuous_policy="holds")
    assert v.status == "holds"
    assert v.nonvacuous == 0


# ---------------------------------------------------------------------------
# epigraph and level-set forms
# ---------------------------------------------------------------------------


def test_epigraph_matches_mixture_verdict_on_corpus_samples():
    for name in ("square", "affine-under-log", "shifted-cube", "double-well"):
        p = problem(by_name(name))
        f = p.function("f1")
        pre = check_preinvex(f, p, "preinvex", CFG)
        epi = epigraph_invex_check(f, p, CFG)
        assert pre.status == epi.status, name


def test_epigraph_failure_is_driven_by_the_tight_level():
    p = problem(by_name("shifted-cube"))
    v = epigraph_invex_check(p.function("f1"), p, CFG)
    assert v.status == "fails"
    assert v.witness.extra["tight"] is True
    assert v.witness.left > v.witness.right


def test_level_set_auto_matches_quasi_verdict():
    for name in ("square", "shifted-cube", "double-well", "cap"):
        p = problem(by_name(name))
        f = p.function("f1")
        quasi = check_preinvex(f, p, "quasi-preinvex", CFG)
        lvl = level_set_invex_check(f, p, cfg=CFG)
        assert quasi.status == lvl.status, name


def test_level_set_explicit_levels():
    p = problem(by_name("square"))
    # checked counts every (pair, tau) drawn; nonvacuous the ones inside the level
    v = level_set_invex_check(p.function("f1"), p, levels=[math.exp(0.25)], cfg=CFG)
    assert v.status == "holds" and v.checked == CFG.n_pairs * CFG.n_tau
    assert v.nonvacuous == 1182

    # monotone composition: every sublevel set is a ray, so even a level
    # cutting through the range holds
    p = problem(by_name("shifted-cube"))
    v = level_set_invex_check(p.function("f1"), p, levels=[math.exp(-0.5)], cfg=CFG)
    assert v.status == "holds" and v.checked == CFG.n_pairs * CFG.n_tau
    assert v.nonvacuous == 198

    # two wells below the threshold, a hill above it in between
    p = problem(by_name("double-well"))
    v = level_set_invex_check(p.function("f1"), p, levels=[math.exp(0.5)], cfg=CFG)
    assert v.status == "fails"
    assert v.witness.extra["level"] == pytest.approx(math.exp(0.5), rel=1e-12)
    assert v.witness.left > v.witness.right

    # a level so deep no sampled pair qualifies is reported, not asserted
    v = level_set_invex_check(p.function("f1"), p, levels=[math.exp(-15.0)], cfg=CFG)
    assert v.status == "inconclusive"
    assert "no sampled pair" in v.reason


def test_level_set_rejects_nonpositive_levels():
    p = problem(by_name("square"))
    with pytest.raises(ValueError):
        level_set_invex_check(p.function("f1"), p, levels=[0.0], cfg=CFG)
    # before any sampling, so an earlier failing level does not hide it
    p = problem(by_name("double-well"))
    with pytest.raises(ValueError):
        level_set_invex_check(p.function("f1"), p, levels=[math.exp(0.5), -1.0], cfg=CFG)


# ---------------------------------------------------------------------------
# numerics: log-domain and naive evaluation agree where both are safe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["square", "double-well", "affine-under-log"])
def test_log_and_naive_masks_agree_elementwise(name):
    p = problem(by_name(name))
    s = preinvex_pairs(p.function("f1"), p, CFG)
    for kind in PreinvexKind:
        sat_log, nv_log = preinvex_masks(s, kind, CFG, "log")
        sat_naive, nv_naive = preinvex_masks(s, kind, CFG, "naive")
        assert np.array_equal(sat_log, sat_naive), kind
        assert np.array_equal(nv_log, nv_naive), kind


def test_log_path_survives_extreme_scales():
    # composed values around +/-500: exp overflows, logaddexp does not
    p = problem(by_name("steep-affine"))
    v = check_preinvex(p.function("f1"), p, "preinvex", CFG, mode="log")
    assert v.status == "holds"
    assert v.witness is None


def test_preinvex_satisfaction_implies_quasi_per_sample():
    for name in ("square", "shifted-cube", "double-well", "plain-cube"):
        p = problem(by_name(name))
        s = preinvex_pairs(p.function("f1"), p, CFG)
        sat_exp, _ = preinvex_masks(s, PreinvexKind.EXP, CFG)
        sat_quasi, _ = preinvex_masks(s, PreinvexKind.QUASI, CFG)
        ok = ~s.invalid_comb[:, None] & np.ones_like(sat_exp)
        assert np.all(~(sat_exp & ok) | sat_quasi), name


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_verdicts_are_deterministic():
    p = problem(by_name("double-well"))
    f = p.function("f1")
    a = check_preinvex(f, p, "preinvex", CFG)
    b = check_preinvex(f, p, "preinvex", CFG)
    assert a.to_dict() == b.to_dict()


def test_each_distinct_point_is_evaluated_once(example1, monkeypatch):
    """Pair mode maps each of the 2N sampled points through E once, and a
    pinned base point gets one gradient evaluation, not one per sample."""
    rows = {"e_map": 0, "grad_many": 0}
    e_map, grad_many = EProblem.e_map, expr.grad_many

    def counted_e_map(self, X):
        rows["e_map"] += np.atleast_2d(X).shape[0]
        return e_map(self, X)

    def counted_grad_many(node, env, wrt):
        rows["grad_many"] += next(np.size(v) for v in env.values())
        return grad_many(node, env, wrt)

    monkeypatch.setattr(EProblem, "e_map", counted_e_map)
    monkeypatch.setattr(expr, "grad_many", counted_grad_many)
    f1 = example1.function("f1")
    cfg = SampleConfig(seed=42, n_pairs=500, n_tau=8)
    assert check_invex(f1, example1, "quasi-invex", cfg).status == "holds"
    assert rows["e_map"] == 2 * 500
    rows["grad_many"] = 0
    assert check_invex(f1, example1, "quasi-invex", cfg, at=[-3.0]).status == "holds"
    assert rows["grad_many"] == 1


def test_starved_sampling_is_inconclusive():
    p = problem(by_name("square"))
    never = Region("empty", lambda P: np.zeros(np.atleast_2d(P).shape[0], dtype=bool))
    v = check_preinvex(p.function("f1"), p, "preinvex", CFG, region=never)
    assert v.status == "inconclusive"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", [
    lambda fn, p: check_preinvex(fn, p, "preinvex", CFG),
    lambda fn, p: epigraph_invex_check(fn, p, CFG),
    lambda fn, p: level_set_invex_check(fn, p, cfg=CFG),
], ids=["preinvex", "epigraph", "level-set"])
def test_failed_pair_is_inconclusive_before_any_mask(check):
    # log(y1) leaves its domain on half the box: the reason names the first
    # failed pair, which has no tau, and no nan reaches the masks (numpy
    # would warn from logaddexp)
    p = load_problem({"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["log(y1)"],
                      "box": {"lo": [-1.0], "hi": [1.0]}})
    v = check(p.function("f1"), p)
    assert v.status == "inconclusive"
    assert v.reason.startswith("evaluation failed at x=[") and "tau" not in v.reason


_EVERY_KIND = {
    **{k.value: lambda fn, p, k=k: check_preinvex(fn, p, k, CFG) for k in PreinvexKind},
    **{k.value: lambda fn, p, k=k: check_invex(fn, p, k, CFG) for k in InvexKind},
    **{f"{k.value}@center": lambda fn, p, k=k: check_invex(fn, p, k, CFG, at=(p.lo + p.hi) / 2)
       for k in InvexKind},
    "monotone-gradient": lambda fn, p: gradient_monotonicity(fn, p, CFG),
    "strict-monotone-gradient": lambda fn, p: gradient_monotonicity(fn, p, CFG, strict=True),
    "epigraph": lambda fn, p: epigraph_invex_check(fn, p, CFG),
    "level-set": lambda fn, p: level_set_invex_check(fn, p, cfg=CFG),
    "invex-set": lambda fn, p: einvex_set_check(p, CFG),
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
        if check_invex(f, p, "invex", CFG).status == "holds":
            assert gradient_monotonicity(f, p, CFG).status == "holds", name
