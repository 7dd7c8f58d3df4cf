"""Property tests of the evaluation core on random expression trees.

Trees over x1, x2 use every operator and every function of the language.
Settings are derandomized, so every run draws the same examples.  The last
tests hold the interval enclosure, over boxes and over single points, to
the float walk and to the 60-digit value.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from einvex.expr import (UNARY_FUNCTIONS, UNDECIDED, Binary, Const, Unary, Var, enclose,
                         eval_many, grad_many, parse)
from mpexpr import DPS, mp_eval

X12 = ["x1", "x2"]
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

LEAVES = st.one_of(st.sampled_from([Var("x1"), Var("x2")]),
                   st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Const))


def _extend(children):
    unary = st.builds(Unary, st.sampled_from(("neg",) + UNARY_FUNCTIONS), children)
    binary = st.builds(Binary, st.sampled_from("+-*/^"), children, children)
    return unary | binary


TREES = st.recursive(LEAVES, _extend, max_leaves=8)

# Domain edges, kinks and integral points, so the batch mixes valid,
# invalid and non-differentiable rows.
EDGES = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
BATCH = st.lists(st.tuples(st.sampled_from(EDGES) | st.floats(-3.0, 3.0),
                           st.sampled_from(EDGES) | st.floats(-3.0, 3.0)),
                 min_size=2, max_size=6)


def _env(X):
    return {"x1": X[:, 0], "x2": X[:, 1]}


@SETTINGS
@given(tree=TREES, rows=BATCH)
@example(tree=parse("x1^(x2^2)", X12), rows=[(-2.0, 0.0), (2.0, 1.0)])
def test_a_batch_equals_its_rows_one_by_one(tree, rows):
    X = np.array(rows)
    ev = eval_many(tree, _env(X))
    gr = grad_many(tree, _env(X), X12)
    for i in range(X.shape[0]):
        one = _env(X[i:i + 1])
        ev1 = eval_many(tree, one)
        gr1 = grad_many(tree, one, X12)
        np.testing.assert_array_equal(ev.values[i], ev1.values[0])
        np.testing.assert_array_equal(gr.values[i], gr1.values[0])
        np.testing.assert_array_equal(gr.grads[:, i], gr1.grads[:, 0])
        assert ev.invalid[i] == ev1.invalid[0]
        assert gr.invalid[i] == gr1.invalid[0]
        assert gr.nondiff[i] == gr1.nondiff[0]


# x1 and x2 come from disjoint sets of values that no constant of the trees
# hits, so no subtree other than an identically constant one vanishes with
# a vanishing derivative (where forward mode cannot see a cbrt/sqrt kink).
POINTS = st.lists(st.tuples(st.sampled_from([-1.7320508075688772, -0.41421356237309515,
                                             0.7071067811865476, 1.4142135623730951]),
                            st.sampled_from([-1.2599210498948732, 0.3183098861837907,
                                             1.2247448713915889, 2.718281828459045])),
                  min_size=1, max_size=4)


def _central(tree, X, j, h):
    up, dn = X.copy(), X.copy()
    up[:, j] += h
    dn[:, j] -= h
    a, b = eval_many(tree, _env(up)), eval_many(tree, _env(dn))
    ok = ~a.invalid & ~b.invalid & np.isfinite(a.values) & np.isfinite(b.values)
    with np.errstate(all="ignore"):
        return (a.values - b.values) / (2.0 * h), ok


@SETTINGS
@given(tree=TREES, rows=POINTS)
def test_gradients_match_central_differences(tree, rows):
    X = np.array(rows)
    gr = grad_many(tree, _env(X), X12)
    for j in range(2):
        h = 1e-6 * (1.0 + np.abs(X[:, j]))
        fd, ok = _central(tree, X, j, h)
        fd_half, ok_half = _central(tree, X, j, h / 2.0)
        tol = 1e-6 * (1.0 + np.abs(fd))
        # the difference quotient is trusted where halving the step moves it
        # by less than the tolerance; elsewhere it, not the gradient, is off
        with np.errstate(all="ignore"):
            trusted = (ok & ok_half & ~gr.invalid & ~gr.nondiff
                       & (np.abs(fd - fd_half) <= tol) & np.isfinite(gr.grads[j]))
        err = np.abs(gr.grads[j] - fd)
        assert np.all(err[trusted] <= tol[trusted]), (str(tree), X[trusted], j)


# Box ends: domain edges, so that boxes touch 0 or straddle it under / and
# log, and far ends where exp(x), x^x and the like overflow.
ENDS = st.sampled_from(EDGES + [-800.0, -50.0, 50.0, 709.0, 710.0, 800.0]) | st.floats(-3.0, 3.0)
BOXES = (st.tuples(st.tuples(ENDS, ENDS).map(sorted), st.tuples(ENDS, ENDS).map(sorted))
         | st.tuples(ENDS, ENDS).map(lambda p: ((p[0], p[0]), (p[1], p[1]))))
FRACTIONS = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6)


def _box_points(box, fractions):
    """The corners of the box, its points nearest 0 in each axis, and the
    given fractions of it, every point clipped into the box."""
    (a, b), (c, d) = box
    lo, hi = np.array([a, c]), np.array([b, d])
    X = [[a, c], [a, d], [b, c], [b, d], np.clip(0.0, lo, hi)]
    X += [lo + np.array(t) * (hi - lo) for t in fractions]
    with np.errstate(all="ignore"):
        return np.clip(np.array(X, dtype=float), lo, hi)


# Point boxes, where the enclosure bounds the rounding error of the walk.
# The first four underflow into the subnormal range; the next two hit
# numpy's exp and power more than half an ulp off; the last four take
# integral powers of negative bases, computed as +-|a|^b.
POINT_EXAMPLES = [
    ("x2*x2", [(-0.2656, -9.3797e-157)]),
    ("cbrt(cbrt(x2*x2*(x2*x2)))", [(0.5, -6.98e-233)]),
    ("x1/3", [(-2.225073858507203e-309, 0.5)]),
    ("exp(log(x2))", [(0.0, 5e-324)]),
    ("exp(x1)", [(2.2456345631359493, 0.5)]),
    ("x2^3", [(2.153349360412431, 1.621412546438453)]),
    ("x2^3", [(0.5, -2.153349360412431), (0.5, -1.621412546438453)]),
    ("(x1 - x2)^9", [(-1.3, 0.4), (-2.9, 0.1), (0.25, 2.75)]),
    ("x1^-3 + x2^(0-1)", [(-1.7, -0.3), (-2.2, -2.9)]),
    ("(x1*x2)^4", [(-1.7, 0.9), (2.6, -1.1)]),
]
POINT_BOXES = [(source, ((a, a), (b, b))) for source, rows in POINT_EXAMPLES for a, b in rows]


def _point_examples(test):
    for source, box in POINT_BOXES:
        test = example(tree=parse(source, X12), box=box, fractions=[(0.5, 0.5)])(test)
    return test


@settings(SETTINGS, max_examples=400)
@given(tree=TREES, box=BOXES, fractions=FRACTIONS)
@_point_examples
@example(tree=parse("log(x1 + x2 + 1)", X12), box=((0.0, 2.0), (0.0, 2.0)), fractions=[(0.5, 0.5)])
@example(tree=parse("x1^x2", X12), box=((0.5, 2.0), (-1.0, 3.0)), fractions=[(0.3, 0.9)])
@example(tree=parse("exp(x1*x2) - exp(x2)", X12), box=((1.0, 2.0), (709.0, 710.0)),
         fractions=[(0.0, 0.99)])
@example(tree=parse("x1*exp(x2)", X12), box=((-1.0, 1.0), (709.0, 800.0)), fractions=[(0.5, 1.0)])
@example(tree=parse("cbrt(x1)^3 - x1", X12), box=((-2.0, -1.0), (0.0, 1.0)), fractions=[(0.2, 0.2)])
def test_enclosure_holds_the_float_and_the_exact_values(tree, box, fractions):
    lo, hi = enclose(tree, {"x1": box[0], "x2": box[1]})
    X = _box_points(box, fractions)
    res = eval_many(tree, _env(X))
    if (lo, hi) == UNDECIDED:
        return
    # decided: no point leaves a domain or is nan, and every value lies inside
    assert not res.invalid.any() and not np.isnan(res.values).any(), (str(tree), box)
    assert ((lo <= res.values) & (res.values <= hi)).all(), (str(tree), box, lo, hi, res.values)
    for x in X:
        exact = mp_eval(tree, {"x1": x[0], "x2": x[1]})
        if exact is not None:
            with mpmath.workdps(DPS):
                assert lo <= exact <= hi, (str(tree), box, x, lo, hi)


def test_point_examples_are_decided():
    # the property test returns early on an undecided box: these must not
    for source, box in POINT_BOXES:
        assert enclose(parse(source, X12), {"x1": box[0], "x2": box[1]}) != UNDECIDED, source


# Each box may leave a domain of the walk, at the point named.
@pytest.mark.parametrize("source,box,point", [
    ("log(x1)", ((0.0, 1.0), (0.0, 0.0)), (0.0, 0.0)),
    ("log(x1 - x2)", ((-1.0, 1.0), (0.5, 0.5)), (0.5, 0.5)),
    ("sqrt(x1)", ((-1e-300, 1.0), (0.0, 0.0)), (-1e-300, 0.0)),
    ("1/x1", ((-1.0, 1.0), (0.0, 0.0)), (0.0, 0.0)),
    ("x2/(x1*x1)", ((-0.5, 0.5), (1.0, 1.0)), (0.0, 1.0)),
    ("x1^-3", ((0.0, 2.0), (0.0, 0.0)), (0.0, 0.0)),
    ("x1^0.5", ((-1.0, 1.0), (0.0, 0.0)), (-1.0, 0.0)),
    ("x1^x2", ((-1.0, 1.0), (0.5, 0.5)), (-1.0, 0.5)),
    ("exp(log(x1 - 1))", ((0.0, 2.0), (0.0, 0.0)), (0.0, 0.0)),
    ("x1^log(x2)", ((1.0, 2.0), (-1.0, 1.0)), (1.0, -1.0)),
])
def test_a_box_that_may_leave_a_domain_is_undecided(source, box, point):
    tree = parse(source, X12)
    assert eval_many(tree, {"x1": point[0], "x2": point[1]}).invalid.any()
    assert enclose(tree, {"x1": box[0], "x2": box[1]}) == UNDECIDED


def test_a_nan_between_the_corners_is_undecided():
    # 0 * inf and inf - inf are nan at points that need not be corners; the
    # outer exp would turn (-inf, inf) into a decided (0, inf)
    big = {"x1": (-1.0, 1.0), "x2": (709.0, 800.0)}
    for source in ("exp(x1*exp(x2))", "exp(exp(x2) - exp(x2 + 1))"):
        tree = parse(source, X12)
        assert np.isnan(eval_many(tree, {"x1": 0.0, "x2": 800.0}).values)
        assert enclose(tree, big) == UNDECIDED
