"""Override validation in compose: the plain tolerance first, enclosures after.

compose walks both forms, then encloses them on point boxes only at the
comparable points beyond the plain tolerance, in order of decreasing gap,
and stops at the first point it cannot reconcile.  These tests hold it to
the same rule applied at every comparable point, on a table of overrides
and on derandomized perturbations of them, and pin which points are
enclosed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einvex import expr as ex
from einvex.errors import ComposeMismatchError
from einvex.expr import (OVERRIDE_TOL, UNDECIDED, Binary, Const, compose, enclose, eval_many,
                         parse, substitute, to_source, validation_points)
from einvex.problem import load_problem

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _reference_compose(f, inner, inner_vars, override, points):
    """Reference: both forms enclosed at every comparable point.  A point is
    reconciled when the plain values are within the tolerance, or when both
    enclosures are decided and within it of each other; the point named is
    the unreconciled one of largest plain gap, the first of them on a tie."""
    substituted = substitute(f, {f"y{i + 1}": e for i, e in enumerate(inner)})
    env = {name: points[:, j] for j, name in enumerate(inner_vars)}
    sub, ovr = eval_many(substituted, env), eval_many(override, env)
    ok = ~sub.invalid & ~ovr.invalid & np.isfinite(sub.values) & np.isfinite(ovr.values)
    if not ok.any():
        raise ComposeMismatchError("composed form could not be validated: no comparable sample points")
    tol = OVERRIDE_TOL * (1.0 + np.abs(ovr.values))
    gap = np.abs(sub.values - ovr.values)
    worst = None
    for i in np.flatnonzero(ok):
        box = {name: (points[i, j], points[i, j]) for j, name in enumerate(inner_vars)}
        s, o = enclose(substituted, box), enclose(override, box)
        near = s != UNDECIDED and o != UNDECIDED and max(s[0] - o[1], o[0] - s[1]) <= tol[i]
        if not (gap[i] <= tol[i] or near) and (worst is None or gap[i] > gap[worst]):
            worst = i
    if worst is not None:
        point = {name: float(points[worst, j]) for j, name in enumerate(inner_vars)}
        raise ComposeMismatchError(
            f"composed form disagrees with substitution at {point}: "
            f"substituted {sub.values[worst]:.12g}, supplied {ovr.values[worst]:.12g}",
            point=point, substituted=float(sub.values[worst]), supplied=float(ovr.values[worst]))
    return override


def _outcome(fn, *args):
    """The accepted form, or the exact text and fields of the mismatch, as a repr."""
    try:
        return repr(("ok", to_source(fn(*args))))
    except ComposeMismatchError as e:
        return repr(("error", str(e), e.point, e.substituted, e.supplied))


X1, X12 = ["x1"], ["x1", "x2"]
# name -> (outer over y, inner maps, variables, override, box lo, box hi)
CASES = {
    "example1": ("cbrt(y1 + 3)", ["(x1+3)^9 - 3"], X1, "(x1+3)^3", [-6.0], [0.0]),
    "example1-plus-1e-6": ("cbrt(y1 + 3)", ["(x1+3)^9 - 3"], X1, "(x1+3)^3 + 1e-6", [-6.0], [0.0]),
    "example1-shifted": ("cbrt(y1 + 3)", ["(x1+3)^9 - 3"], X1, "(x1+3.0000001)^3", [-6.0], [0.0]),
    "vp1-f1": ("log(cbrt(y1) + cbrt(y2) + 1)", ["x1^3", "x2^3"], X12, "log(x1 + x2 + 1)",
               [0.0, 0.0], [2.0, 2.0]),
    "vp1-f1-shifted": ("log(cbrt(y1) + cbrt(y2) + 1)", ["x1^3", "x2^3"], X12,
                       "log(x1 + x2 + 1.0000001)", [0.0, 0.0], [2.0, 2.0]),
    "vp1-g1-wrong-variable": ("-cbrt(y1)", ["x1^3", "x2^3"], X12, "-x2", [0.0, 0.0], [2.0, 2.0]),
    "sqrt-off-domain": ("sqrt(y1)*y2", ["x1", "x2"], X12, "sqrt(x1)*x2", [-1.0, -1.0], [1.0, 1.0]),
    "sqrt-off-domain-wrong": ("sqrt(y1)*y2", ["x1", "x2"], X12, "sqrt(x1)*x2 + 1e-7",
                              [-1.0, -1.0], [1.0, 1.0]),
    "structural-zero": ("y1 + sqrt(y1 - y1) + sqrt(0*y1)", ["x1"], X1, "x1", [-1.0], [1.0]),
    "structural-zero-wrong": ("y1 + sqrt(y1 - y1) + sqrt(0*y1)", ["x1"], X1, "x1 + 1e-6",
                              [-1.0], [1.0]),
}
# the verdict of each row, so the table cannot drift into all-accept or all-reject
ACCEPTED = {"example1", "vp1-f1", "sqrt-off-domain", "structural-zero"}


def _case(name):
    outer, inner, names, override, lo, hi = CASES[name]
    ys = [f"y{j + 1}" for j in range(len(inner))]
    return (parse(outer, ys), [parse(s, names) for s in inner], names, parse(override, names),
            lo, hi)


@pytest.mark.parametrize("name", sorted(CASES))
def test_plain_first_validation_matches_the_reference(name):
    f, inner, names, override, lo, hi = _case(name)
    points = validation_points(lo, hi)
    got = _outcome(compose, f, inner, names, override, points)
    assert got == _outcome(_reference_compose, f, inner, names, override, points)
    assert got.startswith("('ok'") == (name in ACCEPTED), got


TINY = [0.0, 1e-15, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6,
        -1e-12, -1e-9, -1e-8, -1e-6]


@SETTINGS
@given(name=st.sampled_from(sorted(CASES)), op=st.sampled_from("+*"),
       c=st.sampled_from(TINY) | st.floats(-1e-5, 1e-5), data=st.data())
def test_perturbed_overrides_match_the_reference(name, op, c, data):
    f, inner, names, override, lo, hi = _case(name)
    perturbed = Binary("+", override, Const(c)) if op == "+" else \
        Binary("*", override, Const(1.0 + c))
    if data.draw(st.booleans(), label="drawn points"):
        # a few points anywhere in the box, its corners among the choices
        coord = [st.sampled_from([a, b, (a + b) / 2]) | st.floats(a, b) for a, b in zip(lo, hi)]
        points = np.array(data.draw(st.lists(st.tuples(*coord), min_size=1, max_size=12),
                                    label="points"), dtype=float)
    else:
        points = validation_points(lo, hi)
    got = _outcome(compose, f, inner, names, perturbed, points)
    assert got == _outcome(_reference_compose, f, inner, names, perturbed, points)


def _enclosed(monkeypatch):
    """Record every enclosure compose takes, as (node, point)."""
    seen = []

    def counted(node, box):
        seen.append((node, tuple(lo for lo, hi in box.values())))
        assert all(lo == hi for lo, hi in box.values())  # point boxes only
        return enclose(node, box)
    monkeypatch.setattr(ex, "enclose", counted)
    return seen


def test_a_vp1_load_encloses_no_point(vp1_path, monkeypatch):
    seen = _enclosed(monkeypatch)
    load_problem(vp1_path)
    assert seen == []


def test_an_example1_load_bounds_only_the_points_beyond_the_plain_tolerance(example1_path,
                                                                           monkeypatch):
    f, inner, names, override, lo, hi = _case("example1")
    points = validation_points(lo, hi)
    env = {"x1": points[:, 0]}
    substituted = substitute(f, {"y1": inner[0]})
    sub = eval_many(substituted, env).values
    ovr = eval_many(override, env).values
    gap = np.abs(sub - ovr)
    beyond = np.flatnonzero(gap > OVERRIDE_TOL * (1.0 + np.abs(ovr)))
    assert len(beyond) == 4
    seen = _enclosed(monkeypatch)
    load_problem(example1_path)
    # each beyond point once per form, the largest gap first
    assert [node for node, _ in seen] == [substituted, override] * 4
    by_gap = points[beyond[np.argsort(-gap[beyond])], 0]
    assert [p for _, (p,) in seen] == np.repeat(by_gap, 2).tolist()


def test_a_wrong_override_is_named_at_its_first_unreconciled_point(monkeypatch):
    # vp1's f1 off by about 1 everywhere: all 256 points are beyond the
    # plain tolerance, and one enclosed pair decides the verdict
    f, inner, names, _, lo, hi = _case("vp1-f1")
    wrong = parse("log(x1 + x2 + 1) + 1.00000001", names)
    points = validation_points(lo, hi)
    env = {"x1": points[:, 0], "x2": points[:, 1]}
    sub = eval_many(substitute(f, {"y1": inner[0], "y2": inner[1]}), env).values
    ovr = eval_many(wrong, env).values
    gap = np.abs(sub - ovr)
    assert (gap > OVERRIDE_TOL * (1.0 + np.abs(ovr))).all()
    seen = _enclosed(monkeypatch)
    with pytest.raises(ComposeMismatchError) as exc:
        compose(f, inner, names, wrong, points)
    first = int(np.argmax(gap))
    assert len(seen) == 2
    assert seen[0][1] == seen[1][1] == tuple(points[first])
    assert exc.value.point == dict(zip(names, points[first].tolist()))
    assert _outcome(compose, f, inner, names, wrong, points) == \
        _outcome(_reference_compose, f, inner, names, wrong, points)


def test_an_override_without_points_is_a_value_error():
    f, inner, names, override, _, _ = _case("example1")
    with pytest.raises(ValueError, match=r"validated on validation_points\(lo, hi\)"):
        compose(f, inner, names, override)
    assert compose(f, inner, names) == substitute(f, {"y1": inner[0]})  # no override, no points
