"""Expression engine: parsing, printing, evaluation, gradients, composition."""

import numpy as np
import pytest

from einvex.errors import (
    ComposeMismatchError,
    DomainEvalError,
    NonDifferentiableError,
    ParseError,
)
from einvex import expr as ex
from einvex.expr import (
    OVERRIDE_TOL,
    UNDECIDED,
    Binary,
    Const,
    Unary,
    Var,
    compose,
    enclose,
    eval_many,
    evaluate,
    grad_many,
    gradient,
    parse,
    to_source,
    validation_points,
)
from einvex.rng import SampleStream

X1 = ["x1"]
X12 = ["x1", "x2"]

# Smooth expressions with boxes that stay clear of kinks (cbrt/sqrt at zero)
# and domain edges, used for the finite-difference and roundtrip properties.
SMOOTH = [
    ("(x1+3)^9 - 3", X1, [-6.0], [0.0]),
    ("(x1 + 3)^3", X1, [-6.0], [0.0]),
    ("exp(x1) + log(x1 + 10)", X1, [-2.0], [2.0]),
    ("sqrt(x1^2 + 1)", X1, [-3.0], [3.0]),
    ("cbrt(x1)", X1, [1.0], [8.0]),
    ("exp(exp(x1))", X1, [-1.0], [1.0]),
    ("(-x1)^2 + x1^3/4", X1, [-2.0], [2.0]),
    ("1 - exp(x2 - x1)", X12, [0.0, 0.0], [2.0, 2.0]),
    ("log(x1 + x2 + 1)", X12, [0.0, 0.0], [2.0, 2.0]),
    ("x1*x2 - x2/x1", X12, [1.0, 0.5], [2.0, 1.5]),
    ("2 + 3*x1 - x2^2", X12, [-1.0, -1.0], [1.0, 1.0]),
    ("(x1 - x2)^2/(1 + x1^2)", X12, [-1.0, -1.0], [1.0, 1.0]),
]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_power_chain_tree():
    node = parse("(x1+3)^9 - 3", X1)
    expected = Binary(
        "-",
        Binary("^", Binary("+", Var("x1"), Const(3.0)), Const(9.0)),
        Const(3.0),
    )
    assert node == expected


def test_parse_precedence_mul_over_add():
    assert parse("2+3*x1", X1) == Binary(
        "+", Const(2.0), Binary("*", Const(3.0), Var("x1"))
    )
    assert evaluate(parse("2+3*x1", X1), {"x1": 4.0}) == 14.0
    assert evaluate(parse("(2+3)*x1", X1), {"x1": 4.0}) == 20.0


def test_parse_power_right_associative():
    node = parse("x1^2^3", X1)
    assert node == Binary("^", Var("x1"), Binary("^", Const(2.0), Const(3.0)))
    assert evaluate(node, {"x1": 2.0}) == 256.0


@pytest.mark.parametrize("source", ["-x1^2", "-(x1)^2", "--x1^2", "2*-x1^2", "x1^-2^2",
                                    "exp(-(x1-0.5)^2)"])
def test_unary_minus_on_a_power_base_is_an_error(source):
    # "-x1^2" has two readings, (-x1)^2 and -(x1^2); the grammar takes neither
    with pytest.raises(ParseError) as exc:
        parse(source, X1)
    assert "write -(a^b) or (-a)^b" in str(exc.value)


def test_parenthesized_power_readings():
    assert evaluate(parse("(-x1)^2", X1), {"x1": 3.0}) == 9.0
    assert evaluate(parse("-(x1^2)", X1), {"x1": 3.0}) == -9.0
    assert parse("(-x1)^2", X1) == Binary("^", Unary("neg", Var("x1")), Const(2.0))
    assert parse("-(x1^2)", X1) == Unary("neg", Binary("^", Var("x1"), Const(2.0)))


def test_parse_negative_exponent():
    node = parse("x1^-3", X1)
    assert node == Binary("^", Var("x1"), Unary("neg", Const(3.0)))
    assert evaluate(node, {"x1": 2.0}) == 0.125


@pytest.mark.parametrize(
    "source, offset, fragment",
    [
        ("exp(x1", 7, "expected ')'"),
        ("exp(x1", 7, "end of input"),
        ("", 1, "empty expression"),
        ("   ", 1, "empty expression"),
        ("x9", 1, "undeclared variable 'x9'"),
        ("foo(x1)", 1, "unknown function 'foo'"),
        ("exp x1", 1, "requires parentheses"),
        ("2 @ 2", 3, "unexpected character '@'"),
        ("1 + ", 5, "expected a value"),
        ("x1 x1", 4, "trailing input"),
        ("(x1))", 5, "trailing input"),
        ("x1 + 1e999", 6, "number '1e999' overflows to inf"),
        ("\u00e9 + x1", 1, "unexpected character '\u00e9'"),  # token classes are ASCII only
        ("x1 + \u0663", 6, "unexpected character '\u0663'"),  # an Arabic-Indic 3, not 3
        ("x1 + + @", 6, "expected a value"),  # an earlier syntax error wins
    ],
)
def test_parse_errors_carry_one_based_offsets(source, offset, fragment):
    with pytest.raises(ParseError) as exc:
        parse(source, X1)
    assert exc.value.offset == offset
    assert fragment in str(exc.value)
    assert f"offset {offset}" in str(exc.value)


def test_variables_collection():
    assert parse("x1*exp(x2) - 3", X12).variables() == frozenset({"x1", "x2"})
    assert parse("4.5", X1).variables() == frozenset()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(parse("(x1+3)^3", X1), {"x1": -2.0}) == 1.0
    assert evaluate(parse("cbrt((x1+3)^9)", X1), {"x1": -4.0}) == -1.0
    assert evaluate(parse("x1^x2", X12), {"x1": -2.0, "x2": 3.0}) == -8.0


@pytest.mark.parametrize(
    "source, env",
    [
        ("log(x1)", {"x1": -1.0}),
        ("log(x1)", {"x1": 0.0}),
        ("sqrt(x1)", {"x1": -4.0}),
        ("1/x1", {"x1": 0.0}),
        ("x1^0.5", {"x1": -2.0}),
        ("x1^x2", {"x1": -2.0, "x2": 0.5}),
        ("x1^-1", {"x1": 0.0}),
    ],
)
def test_evaluate_domain_errors(source, env):
    with pytest.raises(DomainEvalError):
        evaluate(parse(source, X12), env)


def test_evaluate_missing_variable():
    with pytest.raises(DomainEvalError):
        evaluate(parse("x1 + x2", X12), {"x1": 1.0})


def test_eval_many_masks_instead_of_raising():
    res = eval_many(parse("log(x1)", X1), {"x1": np.array([-1.0, 0.0, 1.0])})
    assert res.invalid.tolist() == [True, True, False]
    assert np.isnan(res.values[0]) and np.isnan(res.values[1])
    assert res.values[2] == 0.0
    assert res.invalid_node is not None


def test_a_failed_row_left_the_domain_or_is_not_finite():
    # exp(-(0^-1)) is exp(-inf) = 0: finite, but the row left the domain
    x = np.array([0.0, 1.0, -1e-3, 1e-3])
    res = eval_many(parse("exp(-(x1^-1))", X1), {"x1": x})
    assert res.values[0] == 0.0 and np.isinf(res.values[2])
    assert res.failed.tolist() == [True, False, True, False]
    assert eval_many(parse("x1", X1), {"x1": x}).failed.tolist() == [False] * 4


def test_a_walk_that_fails_nowhere_broadcasts_nothing(monkeypatch):
    """Without a failed row the mask is a fresh full-shaped array of False,
    not a broadcast of one False to every row."""
    calls = []
    broadcast_to = np.broadcast_to
    monkeypatch.setattr(np, "broadcast_to", lambda *a, **k: calls.append(a) or broadcast_to(*a, **k))
    env = {"x1": np.linspace(-1.0, 1.0, 9), "x2": np.linspace(0.5, 2.0, 9)}
    for source in ("log(x1^2 + 1)*x2^3 - cbrt(x1)", "x2^(-2)", "x2^x1"):
        res = eval_many(parse(source, X12), env)
        assert res.invalid_node is None and res.invalid.dtype == bool
        assert res.invalid.shape == (9,) and not res.invalid.any()
    assert calls == []
    # a failed row still broadcasts a mask flagged on a constant
    assert eval_many(parse("x1 + log(-1)", X12), env).invalid.tolist() == [True] * 9


def test_eval_many_broadcasts_constants():
    env = {"x1": np.zeros(7)}
    res = eval_many(parse("1.5", X1), env)
    assert res.values.shape == (7,)
    assert np.all(res.values == 1.5)
    g = grad_many(parse("2", X1), env, X1)
    assert g.values.shape == (7,) and g.grads.shape == (1, 7)
    assert np.all(g.grads == 0.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradient_examples():
    g = gradient(parse("(x1+3)^3", X1), {"x1": -2.0}, X1)
    assert g.tolist() == [3.0]
    g2 = gradient(parse("log(x1 + x2 + 1)", X12), {"x1": 0.0, "x2": 0.0}, X12)
    assert g2.tolist() == [1.0, 1.0]
    g3 = gradient(parse("exp(2*x1)", X1), {"x1": 0.3}, X1)
    assert g3[0] == pytest.approx(2.0 * np.exp(0.6), rel=1e-15)


def test_gradient_kinks_raise():
    with pytest.raises(NonDifferentiableError):
        gradient(parse("cbrt(x1)", X1), {"x1": 0.0}, X1)
    with pytest.raises(NonDifferentiableError):
        gradient(parse("sqrt(x1)", X1), {"x1": 0.0}, X1)
    # a zero argument whose own derivative is 0 hides the derivative:
    # cbrt(x1^3) is x1, sqrt(x1^2) is |x1|
    for src in ("cbrt(x1^3)", "sqrt(x1^2)"):
        with pytest.raises(NonDifferentiableError):
            gradient(parse(src, X1), {"x1": 0.0}, X1)
    # the domain violation wins over the kink when both would fire
    with pytest.raises(DomainEvalError):
        gradient(parse("sqrt(x1)", X1), {"x1": -1.0}, X1)


def test_grad_many_flags_kinks_per_sample():
    res = grad_many(parse("cbrt(x1)", X1), {"x1": np.array([-1.0, 0.0, 8.0])}, X1)
    assert res.nondiff.tolist() == [False, True, False]
    assert not res.invalid.any()
    assert res.grads[0, 2] == pytest.approx(1.0 / 12.0, rel=1e-15)
    # a root of a variable outside wrt, or of a constant, is no kink
    res = grad_many(parse("x1 + sqrt(x2^2) + cbrt(0)", X12),
                    {"x1": np.zeros(2), "x2": np.array([0.0, 1.0])}, X1)
    assert res.grads.tolist() == [[1.0, 1.0]] and not res.nondiff.any()


def test_negative_base_integer_power_is_differentiable():
    g = gradient(parse("x1^3", X1), {"x1": -2.0}, X1)
    assert g.tolist() == [12.0]


def test_power_gradient_does_not_depend_on_the_batch():
    # At x2 = 0 the exponent x2^2 does not move, so the power rule applies
    # even to the negative base; a row where the exponent moves must not
    # switch this row to the log form.
    node = parse("x1^(x2^2)", X12)
    alone = grad_many(node, {"x1": np.array([-2.0]), "x2": np.array([0.0])}, X12)
    batch = grad_many(node, {"x1": np.array([-2.0, 2.0]), "x2": np.array([0.0, 1.0])}, X12)
    assert alone.grads[:, 0].tolist() == [0.0, 0.0] and not alone.invalid[0]
    assert batch.grads[:, 0].tolist() == alone.grads[:, 0].tolist()
    assert not batch.invalid[0] and not batch.nondiff[0]
    assert batch.grads[:, 1].tolist() == pytest.approx([1.0, 4.0 * np.log(2.0)], rel=1e-15)


@pytest.mark.parametrize("source, variables, lo, hi", SMOOTH)
def test_gradient_matches_central_differences(source, variables, lo, hi):
    node = parse(source, variables)
    stream = SampleStream(42, f"fd:{source}")
    pts = stream.box(np.asarray(lo), np.asarray(hi), 100)
    env = {name: pts[:, j] for j, name in enumerate(variables)}
    res = grad_many(node, env, variables)
    assert not res.invalid.any() and not res.nondiff.any()
    for j, name in enumerate(variables):
        h = 1e-6 * (1.0 + np.abs(env[name]))
        hi_env = dict(env)
        lo_env = dict(env)
        hi_env[name] = env[name] + h
        lo_env[name] = env[name] - h
        fd = (eval_many(node, hi_env).values - eval_many(node, lo_env).values) / (2.0 * h)
        err = np.abs(res.grads[j] - fd)
        assert np.all(err <= 1e-6 * (1.0 + np.abs(fd)))


# Each has a moving exponent (the log form of the power rule), a constant
# integral power and a kink at the zero of its last variable.
BATCH_VS_ROWS = [
    ("cbrt(x1) + (x1 + 3)^3 + (x1 + 4)^(x1/2)", X1, [-3.0], [3.0]),
    ("log(x1 + x2 + 4) + (x1 + 2)^(x2 + 1) - x1^5 + sqrt(x2^2)", X12, [-1.5, -2.0], [2.0, 2.0]),
    ("exp(x1*x3) + (x2 + 3)^(x3^2) - x1^3*x2^-2 + cbrt(x3)", ["x1", "x2", "x3"],
     [-2.0, 0.5, -1.0], [2.0, 2.0, 1.0]),
]


@pytest.mark.parametrize("source, variables, lo, hi", BATCH_VS_ROWS)
def test_grad_many_equals_the_gradient_row_by_row(source, variables, lo, hi):
    node = parse(source, variables)
    pts = SampleStream(3, f"rows:{source}").box(np.asarray(lo), np.asarray(hi), 60)
    pts[::7, -1] = 0.0  # the kink
    res = grad_many(node, {name: pts[:, j] for j, name in enumerate(variables)}, variables)
    assert res.grads.shape == (len(variables), pts.shape[0])
    assert res.nondiff.sum() == len(pts[::7]) and not res.invalid.any()
    for i, row in enumerate(pts):
        env = {name: float(x) for name, x in zip(variables, row)}
        assert res.values[i].tobytes() == np.float64(evaluate(node, env)).tobytes()
        if res.nondiff[i]:
            with pytest.raises(NonDifferentiableError):
                gradient(node, env, variables)
        else:
            assert res.grads[:, i].tobytes() == gradient(node, env, variables).tobytes()


def test_a_bare_variable_is_not_handed_back_writable():
    x = np.array([1.0, 2.0, 3.0])
    for res in (eval_many(parse("x1", X1), {"x1": x}), grad_many(parse("x1", X1), {"x1": x}, X1)):
        assert not (res.values.flags.writeable and np.shares_memory(res.values, x))
        with pytest.raises(ValueError):
            res.values[0] = 9.0
    assert x.tolist() == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# constant integral powers: +-|a|^b
# ---------------------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e-300,
                    2.2250738585072014e-308, -2.2250738585072014e-308, 1e-160, -1e-160,
                    1.5, -1.5, 1e300, -1e300])


@pytest.mark.parametrize("b", [0, -1, 2, 3, 9])
def test_integral_power_special_values_match_numpy(b):
    res = eval_many(parse(f"x1^{b}" if b >= 0 else f"x1^({b})", X1), {"x1": SPECIAL})
    with np.errstate(all="ignore"):
        ref = np.power(SPECIAL, float(b))
    assert res.values.tobytes() == ref.tobytes()
    assert res.invalid.tolist() == ((SPECIAL == 0.0) & (b < 0)).tolist()


def test_integral_power_signs_and_zero_division():
    assert np.signbit(evaluate(parse("x1^3", X1), {"x1": -0.0}))
    assert not np.signbit(evaluate(parse("x1^2", X1), {"x1": -0.0}))
    res = eval_many(parse("x1^-1", X1), {"x1": np.array([-0.0, 0.0])})
    assert res.values.tolist() == [-np.inf, np.inf] and res.invalid.all()
    for zero in (0.0, -0.0):
        with pytest.raises(DomainEvalError):
            evaluate(parse("x1^-1", X1), {"x1": zero})


@pytest.mark.parametrize("b", [3, 5, 9, -3])
def test_odd_integral_powers_are_odd_and_within_an_ulp_of_numpy(b):
    x = SampleStream(5, "odd-powers").uniform(200_000) * 6.0 - 3.0
    node = parse(f"x1^{b}" if b >= 0 else f"x1^({b})", X1)
    v = eval_many(node, {"x1": x}).values
    assert (eval_many(node, {"x1": -x}).values == -v).all()
    ref = np.power(x, float(b))
    assert (np.sign(v) == np.sign(ref)).all()
    assert np.abs(v.view(np.int64) - ref.view(np.int64)).max() <= 1


# ---------------------------------------------------------------------------
# printing roundtrip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source, variables, lo, hi", SMOOTH)
def test_roundtrip_reproduces_tree_and_values(source, variables, lo, hi):
    node = parse(source, variables)
    again = parse(to_source(node), variables)
    assert again == node  # same tree, hence bit-identical evaluation
    stream = SampleStream(7, f"roundtrip:{source}")
    pts = stream.box(np.asarray(lo), np.asarray(hi), 100)
    env = {name: pts[:, j] for j, name in enumerate(variables)}
    assert np.array_equal(eval_many(node, env).values, eval_many(again, env).values)


@pytest.mark.parametrize(
    "source",
    [
        "(-x1)^2",
        "-(x1^2)",
        "x1^-3",
        "x1 - (x2 - 1)",
        "x1/x2/2",
        "x1/(x2*2)",
        "(x1 + x2)*x1",
        "x1^(x2 + 1)",
        "-(x1 + x2)",
        "2 - -x1",
    ],
)
def test_roundtrip_preserves_grouping(source):
    node = parse(source, X12)
    assert parse(to_source(node), X12) == node


def test_to_source_formats_integral_constants_bare():
    assert to_source(parse("3.0*x1 + 0.5", X1)) == "3*x1 + 0.5"


def test_to_source_parenthesizes_a_signed_power_base():
    assert to_source(Binary("^", Unary("neg", Var("x1")), Const(2.0))) == "(-x1)^2"
    assert to_source(Binary("^", Const(-2.0), Var("x1"))) == "(-2)^x1"
    assert to_source(Unary("neg", Binary("^", Var("x1"), Const(2.0)))) == "-(x1^2)"


# ---------------------------------------------------------------------------
# cbrt identities
# ---------------------------------------------------------------------------


def test_cbrt_is_an_odd_inverse_of_cube():
    roundtrip = parse("cbrt(x1)^3", X1)
    other = parse("cbrt(x1^3)", X1)
    stream = SampleStream(42, "cbrt-sweep")
    t = np.concatenate(
        [
            np.array([0.0, 1.0, -1.0, 1e6, -1e6, 3.0, -3.0]),
            stream.box(np.array([-1e6]), np.array([1e6]), 500)[:, 0],
        ]
    )
    env = {"x1": t}
    a = eval_many(roundtrip, env).values
    b = eval_many(other, env).values
    assert np.all(np.abs(a - t) <= 1e-12 * (1.0 + np.abs(t)))
    assert np.all(np.abs(b - t) <= 1e-12 * (1.0 + np.abs(t)))
    # odd symmetry is exact in IEEE arithmetic
    assert np.array_equal(
        eval_many(parse("cbrt(-x1)", X1), env).values,
        -eval_many(parse("cbrt(x1)", X1), env).values,
    )


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_plain_substitution():
    f = parse("y1^2 + y2", ["y1", "y2"])
    inner = [parse("x1 - x2", X12), parse("exp(x2)", X12)]
    node = compose(f, inner, X12)
    stream = SampleStream(3, "compose-direct")
    pts = stream.box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 64)
    env = {"x1": pts[:, 0], "x2": pts[:, 1]}
    got = eval_many(node, env).values
    want = (pts[:, 0] - pts[:, 1]) ** 2 + np.exp(pts[:, 1])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_compose_identity_inner_is_exact():
    f = parse("y1*y2 - y1", ["y1", "y2"])
    inner = [parse("x1", X12), parse("x2", X12)]
    node = compose(f, inner, X12)
    assert node == parse("x1*x2 - x1", X12)


def test_compose_accepts_equivalent_override():
    # Deep power chain: cbrt(y1+3) after y1 = (x1+3)^9 - 3 collapses to
    # (x1+3)^3.  Near x1 = -3 the substituted form loses almost all digits
    # to cancellation, so acceptance must lean on the point-box enclosures.
    f = parse("cbrt(y1 + 3)", ["y1"])
    inner = [parse("(x1+3)^9 - 3", X1)]
    override = parse("(x1+3)^3", X1)
    node = compose(f, inner, X1, override, validation_points([-6.0], [0.0]))
    assert node is override


def test_compose_reconciles_enclosures_within_the_tolerance():
    # at x1 = -3.0001 the substituted form cancels to exactly 0, and its
    # point-box enclosure reaches some 8e-6 either side: an override that
    # far off is beyond the plain tolerance, but reconciled when its
    # enclosure lies within the tolerance of the substituted one
    f = parse("cbrt(y1 + 3)", ["y1"])
    inner = [parse("(x1+3)^9 - 3", X1)]
    point = np.array([[-3.0001]])
    hi = enclose(parse("cbrt(((x1+3)^9 - 3) + 3)", X1), {"x1": (-3.0001, -3.0001)})[1]
    assert 1e-6 < hi < 1e-4
    near = parse(f"(x1+3)^3 + {hi + 0.5 * OVERRIDE_TOL!r}", X1)
    assert compose(f, inner, X1, near, point) is near
    with pytest.raises(ComposeMismatchError):
        compose(f, inner, X1, parse(f"(x1+3)^3 + {hi + 3 * OVERRIDE_TOL!r}", X1), point)


def test_compose_rejects_wrong_override():
    f = parse("cbrt(y1 + 3)", ["y1"])
    inner = [parse("(x1+3)^9 - 3", X1)]
    wrong = parse("(x1+3)^2", X1)
    with pytest.raises(ComposeMismatchError) as exc:
        compose(f, inner, X1, wrong, validation_points([-6.0], [0.0]))
    err = exc.value
    assert "disagrees" in str(err)
    assert set(err.point) == {"x1"}
    assert -6.0 <= err.point["x1"] <= 0.0
    assert abs(err.substituted - err.supplied) > 0.1
    # the recorded pair is reproducible at the recorded point
    sub_again = evaluate(parse("(x1+3)^3", X1), err.point)
    assert sub_again == pytest.approx(err.substituted, rel=1e-6)


def test_compose_rejects_unknown_outer_variable():
    f = parse("y2", ["y1", "y2"])
    with pytest.raises(ComposeMismatchError) as exc:
        compose(f, [parse("x1", X1)], X1)
    assert "y2" in str(exc.value)


def test_compose_rejects_override_with_stray_variable():
    f = parse("y1", ["y1"])
    override = parse("x1 + 0*z9", ["x1", "z9"])
    with pytest.raises(ComposeMismatchError) as exc:
        compose(f, [parse("x1", X1)], X1, override, validation_points([0.0], [1.0]))
    assert "z9" in str(exc.value)


def _point_bound(node, x):
    """The enclosure of node on the point box of each x1 in x, as (lo, hi)
    arrays: the bound on the rounding error of the walk at x."""
    lo, hi = zip(*(enclose(node, {"x1": (v, v)}) for v in x))
    return np.array(lo), np.array(hi)


def test_error_bound_covers_cancellation():
    # |cbrt(((x+3)^9 - 3) + 3) - (x+3)^3| near x = -3 is far above the plain
    # relative tolerance, but the point-box enclosures of the two forms overlap
    sub = parse("cbrt(((x1+3)^9 - 3) + 3)", X1)
    exact = parse("(x1+3)^3", X1)
    x = np.concatenate(
        [
            np.linspace(-3.001, -2.999, 41),
            SampleStream(11, "cancel").box(np.array([-6.0]), np.array([0.0]), 200)[:, 0],
        ]
    )
    s_lo, s_hi = _point_bound(sub, x)
    e_lo, e_hi = _point_bound(exact, x)
    assert np.isfinite([s_lo, s_hi, e_lo, e_hi]).all()  # every enclosure is decided
    assert np.all((s_lo <= e_hi) & (e_lo <= s_hi))
    v_sub, v_ex = eval_many(sub, {"x1": x}).values, eval_many(exact, {"x1": x}).values
    assert np.all((s_lo <= v_sub) & (v_sub <= s_hi) & (e_lo <= v_ex) & (v_ex <= e_hi))
    # and the naive budget alone would reject the pair
    assert np.any(np.abs(v_sub - v_ex) > OVERRIDE_TOL * (1.0 + np.abs(v_ex)))


def test_error_bound_flags_domain_failures_with_infinite_bounds():
    lo, hi = _point_bound(parse("log(x1)", X1), [-1.0, 1.0])
    assert (lo[0], hi[0]) == UNDECIDED
    assert lo[1] <= 0.0 <= hi[1] and np.isfinite([lo[1], hi[1]]).all()


def test_error_bound_is_infinite_on_every_flagged_row():
    # exp(-(0^-1)) is exp(-inf) = 0, a finite value on a row that left the domain
    node = parse("exp(-(x1^-1))", X1)
    res = eval_many(node, {"x1": np.array([0.0, 1.0])})
    assert res.invalid.tolist() == [True, False] and res.values[0] == 0.0
    lo, hi = _point_bound(node, [0.0, 1.0])
    assert (lo[0], hi[0]) == UNDECIDED
    assert lo[1] <= res.values[1] <= hi[1] and np.isfinite([lo[1], hi[1]]).all()


def test_error_bound_of_an_unbound_variable_is_a_domain_error():
    with pytest.raises(DomainEvalError):
        enclose(parse("x1 + x2", X12), {"x1": (1.0, 1.0)})


@pytest.mark.parametrize("source", ["sqrt(x1 - x1)", "sqrt(0*x1)", "0*x1", "0/x1"])
def test_structural_zeros_keep_a_zero_bound(source, monkeypatch):
    # an exact zero is exactly 0 in the walk, so an override that drops it
    # is at a zero gap and is accepted on the plain values alone, with no
    # enclosure taken: the point-box enclosure steps outward, and a root
    # of it is undecided
    x = np.array([-2.0, 1e-300, 0.5, 3.0])
    node = parse(source, X1)
    assert np.all(eval_many(node, {"x1": x}).values == 0.0)
    lo, hi = enclose(node, {"x1": (0.5, 0.5)})
    assert (lo, hi) == UNDECIDED if source.startswith("sqrt") else lo < 0.0 < hi
    seen = []
    monkeypatch.setattr(ex, "enclose", lambda *a: seen.append(a) or enclose(*a))
    f = parse("y1 + " + source.replace("x1", "y1"), ["y1"])
    assert compose(f, [parse("x1", X1)], X1, parse("x1", X1), x[:, None]) == parse("x1", X1)
    assert seen == []


def test_a_product_rounded_to_zero_keeps_its_error():
    # x1*x1 underflows to 0, a zero that carries error: its point-box
    # enclosure, and its root's, straddle 0 and reach the exact value
    node = parse("cbrt(x1*x1)", X1)
    assert eval_many(node, {"x1": 1e-200}).values == 0.0
    lo, hi = enclose(node, {"x1": (1e-200, 1e-200)})
    assert lo < 0.0 and hi >= 4.65e-134  # the exact value is about 10^(-400/3), 4.64e-134
    x = np.array([-9.3797e-157, 1e-200])
    lo, hi = _point_bound(parse("x1*x1", X1), x)
    v = x * x
    assert np.all((lo < v) & (v < hi) & (hi - lo >= 2.0 ** -1074))


def test_compose_rejects_wrong_override_around_a_structural_zero():
    f = parse("y1 + sqrt(y1 - y1) + sqrt(0*y1)", ["y1"])
    points = validation_points([-1.0], [1.0])
    with pytest.raises(ComposeMismatchError):
        compose(f, [parse("x1", X1)], X1, parse("x1 + 1e-6", X1), points)
    assert compose(f, [parse("x1", X1)], X1, parse("x1", X1), points) == parse("x1", X1)
