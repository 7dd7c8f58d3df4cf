"""Problem loading, single-point admission, active sets, regions, invex-set sampling."""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from einvex import expr as ex
from einvex import kkt
from einvex.errors import (
    ComposeMismatchError,
    DomainEvalError,
    InfeasibleMultipliersError,
    InfeasiblePointError,
    ProblemFormatError,
)
from einvex.invexity import check
from einvex.pareto import GridSpec, grid_oracle
from einvex.problem import (
    Region,
    RegionDraw,
    SampleConfig,
    Verdict,
    Witness,
    _jsonable,
    box_region,
    feasible_region,
    load_problem,
    point_slacks,
    require_in_box,
    sample_region,
)
from einvex.rng import SampleStream


def _prob(**overrides):
    """Minimal single-variable identity-map problem dict."""
    d = {
        "n": 1,
        "E": ["x1"],
        "eta": ["u1 - v1"],
        "objectives": ["y1^2"],
        "box": {"lo": [-1.0], "hi": [1.0]},
    }
    d.update(overrides)
    return d


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_vp1(vp1_path):
    p = load_problem(vp1_path)
    assert p.n == 2
    assert p.vars == ["x1", "x2"]
    assert [f.name for f in p.objectives] == ["f1", "f2"]
    assert [f.name for f in p.ineq] == ["g1", "g2"]
    assert p.eq == []
    assert p.lo.tolist() == [0.0, 0.0] and p.hi.tolist() == [2.0, 2.0]
    assert all(f.has_override for f in (*p.objectives, *p.ineq))
    c = p.candidate("ybar")
    assert c.x.tolist() == [0.0, 0.0]
    assert c.tau.tolist() == [0.5, 0.5]
    assert c.rho.tolist() == [1.0, 1.0]
    assert p.source_path.endswith("vp1.json")


def test_load_example1(example1_path):
    p = load_problem(example1_path)
    assert p.n == 1
    f1 = p.function("f1")
    assert f1.has_override
    # the accepted composed form is the collapsed cube, used verbatim
    assert f1.composed == ex.parse("(x1+3)^3", ["x1"])
    assert p.eta[0].variables() == frozenset({"u1", "v1"})
    assert p.candidate("xbar").x.tolist() == [-3.0]
    assert p.candidate("xbar").tau is None


def test_load_from_dict_defaults():
    p = load_problem(_prob())
    assert p.vars == ["x1"]
    assert p.objectives[0].name == "f1"
    assert not p.objectives[0].has_override
    assert p.source_path is None and p.sha256 is None


def test_function_lookup_errors():
    p = load_problem(_prob())
    with pytest.raises(KeyError):
        p.function("f9")
    with pytest.raises(KeyError):
        p.candidate("nope")


def test_raw_and_composed_agree_through_e(vp1_path):
    p = load_problem(vp1_path)
    X = SampleStream(5, "raw-vs-composed").box(p.lo, p.hi, 50)
    U, bad = p.e_map(X)
    assert not bad.any()
    for fn in (*p.objectives, *p.ineq):
        direct = p.composed_values(fn, X).values
        through = p.raw_values(fn, U).values
        assert np.allclose(direct, through, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "mutate, location",
    [
        ({"n": 0}, "n"),
        ({"n": "1"}, "n"),
        ({"vars": ["x1", "x2"]}, "vars"),
        ({"box": None}, "box"),
        ({"box": {"lo": [1.0], "hi": [-1.0]}}, "box"),
        ({"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}, "box"),
        ({"E": []}, "E"),
        ({"E": ["x1 +"]}, "E[0]"),
        ({"eta": ["u1 - x1"]}, "eta[0]"),
        ({"objectives": []}, "objectives"),
        ({"objectives": ["y1 @ 2"]}, "objectives[0].raw"),
        ({"objectives": [{"raw": "y1", "composed": "x1 + 1"}]}, "objectives[0].composed"),
        ({"objectives": [{"body": "y1"}]}, "objectives[0]"),
        ({"candidates": [{"x": [0.0, 0.0]}]}, "candidates[0].x"),
        ({"candidates": [{"x": [0.0], "rho": [1.0]}]}, "candidates[0].rho"),
        ({"box": {"lo": [-float("inf")], "hi": [1.0]}}, "box"),
        ({"box": {"lo": [0.0], "hi": [float("inf")]}}, "box"),
        ({"box": {"lo": [float("nan")], "hi": [1.0]}}, "box"),
        ({"box": {"lo": [-1e308], "hi": [1e308]}}, "box"),  # the width overflows
        ({"n": True}, "n"),  # a bool is not an integer here
        ({"box": {"lo": ["a"], "hi": [1.0]}}, "box"),
        ({"box": {"lo": ["-1"], "hi": [1.0]}}, "box"),  # a string is not a number
        ({"candidates": [{"x": [True]}]}, "candidates[0].x"),
    ],
)
def test_load_rejects_malformed_input_with_location(mutate, location):
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(_prob(**mutate))
    assert str(exc.value).startswith(location + ":")


@pytest.mark.parametrize("mutate, location, key", [
    ({"inequalities": ["-y1"]}, "problem", "inequalities"),
    ({"box": {"lo": [-1.0], "hi": [1.0], "high": [2.0]}}, "box", "high"),
    ({"ineq": [{"raw": "-y1", "compose": "-x1"}]}, "ineq[0]", "compose"),
    ({"candidates": [{"name": "o", "x": [0.0], "lambda": [1.0]}]}, "candidates[0]", "lambda"),
])
def test_load_refuses_unknown_keys(mutate, location, key):
    # a misspelled key would otherwise drop its data: the constraint above,
    # ignored, let the oracle report -1 as the Pareto point of min y1
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(_prob(**mutate))
    assert exc.value.location == location
    assert str(exc.value).startswith(f"{location}: unknown key {key!r}")


@pytest.mark.parametrize("mutate, location, message", [
    ({"candidates": None}, "candidates", "must be a list"),
    ({"candidates": {"a": 1}}, "candidates", "must be a list"),
    ({"n": 2, "vars": ["x", "x"]}, "vars", "names must be distinct"),
    ({"candidates": [{"name": "a", "x": [0.0]}, {"name": "a", "x": [0.5]}]},
     "candidates[1].name", "duplicate name 'a'"),
    ({"candidates": [{"x": [0.0]}, {"name": "c1", "x": [0.5]}]},
     "candidates[1].name", "duplicate name 'c1'"),
    ({"candidates": [{"name": 5, "x": [0.0]}]}, "candidates[0].name", "must be a string"),
    ({"objectives": ["y1 + 1e999"]}, "objectives[0].raw", "overflows to inf"),
], ids=["candidates-null", "candidates-object", "duplicate-vars", "duplicate-candidates",
        "duplicate-default-name", "candidate-name-number", "overflowing-literal"])
def test_load_refuses_input_it_would_misread(mutate, location, message):
    # each loaded before, or crashed: None with a TypeError, the object as
    # "candidates[0]: expected {...}", the vars with x bound to the second
    # column only, a second candidate that no name could reach, and the
    # literal as Const(inf), whose printing raised OverflowError
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(_prob(**mutate))
    assert exc.value.location == location
    assert message in str(exc.value)


def test_load_file_errors(tmp_path):
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(tmp_path / "missing.json")
    assert "cannot read file" in str(exc.value)

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(bad)
    assert "invalid JSON" in str(exc.value)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(arr)
    assert "top level" in str(exc.value)

    with pytest.raises(ProblemFormatError):
        load_problem(42)


def test_overrides_share_one_draw_of_validation_points(monkeypatch):
    # the second override, in another group, mismatches: it is judged on
    # the points drawn for the first, and its worst point is the one each
    # override's own draw gave
    boxes = []
    monkeypatch.setattr(SampleStream, "box", lambda self, *a, _box=SampleStream.box:
                        boxes.append(self.label) or _box(self, *a))
    d = _prob(objectives=[{"raw": "y1^2", "composed": "x1^2"}],
              ineq=[{"raw": "y1^3", "composed": "x1^3 + 0.001*x1"}])
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(d)
    assert exc.value.location == "ineq[0].composed"
    err = exc.value.__cause__
    assert isinstance(err, ComposeMismatchError)
    assert err.point == {"x1": -0.9964857119313513}
    assert (err.substituted, err.supplied) == (-0.9894941430537091, -0.9904906287656404)
    assert boxes == ["compose-validate"]


def test_load_draws_validation_points_only_for_overrides(vp1_path, example1_path, monkeypatch):
    calls = []
    monkeypatch.setattr(SampleStream, "box", lambda self, *a, _box=SampleStream.box:
                        calls.append(a[2]) or _box(self, *a))
    load_problem(vp1_path)  # four overrides
    assert calls == [ex.OVERRIDE_SAMPLES]
    load_problem(example1_path)  # one
    assert calls == [ex.OVERRIDE_SAMPLES] * 2
    load_problem(_prob(objectives=["y1^2", "y1"], ineq=["-y1"]))  # none
    assert calls == [ex.OVERRIDE_SAMPLES] * 2


def test_negated_function_flips_sign(vp1_path):
    p = load_problem(vp1_path)
    neg = p.ineq[0].negated()
    assert neg.name == "-g1"
    X = np.array([[0.7, 1.3]])
    assert p.composed_values(neg, X).values[0] == -p.composed_values(p.ineq[0], X).values[0]


# ---------------------------------------------------------------------------
# single-point admission (point_slacks) and active sets
# ---------------------------------------------------------------------------


def _vp1_wide(vp1_path):
    """vp1 on the box [-1, 2]^2: its constraints x >= 0 now cut the box."""
    data = json.loads(Path(vp1_path).read_text())
    data["box"] = {"lo": [-1.0, -1.0], "hi": [2.0, 2.0]}
    return load_problem(data)


def test_feasible_vp1_slacks(vp1_path):
    p = _vp1_wide(vp1_path)
    with pytest.raises(InfeasiblePointError) as exc:
        point_slacks(p, [-0.5, 0.0])
    assert str(exc.value) == "point [-0.5, 0.0] infeasible (worst violation 0.5)"

    g, h = point_slacks(p, [0.0, 0.0])
    assert g.tolist() == [0.0, 0.0]
    assert h.shape == (0,)

    g, _ = point_slacks(p, [1.0, 1.0])
    assert g.tolist() == [-1.0, -1.0]


def test_feasible_tolerance_is_monotone(vp1_path):
    p = _vp1_wide(vp1_path)
    x = [-1e-8, 0.0]
    with pytest.raises(InfeasiblePointError):
        point_slacks(p, x, tol=1e-9)
    assert point_slacks(p, x, tol=1e-6)[0].tolist() == [1e-8, -0.0]


def test_point_slacks_refuses_points_outside_the_box(vp1_path):
    # vp1's constraints hold at (3, 3), but the program lives on the box
    # [0, 2]^2: the point is refused before any constraint is evaluated
    p = load_problem(vp1_path)
    with pytest.raises(InfeasiblePointError) as exc:
        point_slacks(p, [3.0, 3.0], role="candidate")
    assert str(exc.value) == ("candidate [3.0, 3.0] lies outside the box "
                              "[[0.0, 0.0], [2.0, 2.0]]")
    for bad in ([-1e-12, 1.0], [1.0, 2.0000001], [float("nan"), 1.0]):
        with pytest.raises(InfeasiblePointError) as exc:
            point_slacks(p, bad)
        assert "outside the box" in str(exc.value)
    assert point_slacks(p, [2.0, 2.0])[0].tolist() == [-2.0, -2.0]  # the box is closed
    assert require_in_box(p, [[1, 2]]).tolist() == [1.0, 2.0]


def test_feasible_equality_constraints():
    p = load_problem(_prob(n=2, E=["x1", "x2"], eta=["u1 - v1", "u2 - v2"],
                           objectives=["y1 + y2"], eq=["y1 - y2"],
                           box={"lo": [0.0, 0.0], "hi": [1.0, 1.0]}))
    g, h = point_slacks(p, [0.3, 0.3])
    assert g.shape == (0,) and h.tolist() == [0.0]
    with pytest.raises(InfeasiblePointError) as exc:
        point_slacks(p, [0.3, 0.5])
    assert "worst violation 0.2)" in str(exc.value)
    assert point_slacks(p, [0.3, 0.5], tol=0.5)[1].tolist() == [-0.2]


def test_feasible_raises_on_domain_failure():
    p = load_problem(_prob(ineq=["log(y1)"], box={"lo": [-1.0], "hi": [1.0]}))
    with pytest.raises(DomainEvalError) as exc:
        point_slacks(p, [-0.5])
    assert exc.value.point == [-0.5]


def test_active_sets_vp1(vp1_path, monkeypatch):
    # solve_multipliers gives a rho column to each inequality with |g| <= tol
    # and to no other; at (1, 1) and (0, 1) no multipliers exist
    p = load_problem(vp1_path)
    active, real = [], kkt._lp_multipliers

    def spy(A, n_obj, tol):
        active.append(A.shape[1] - n_obj)
        return real(A, n_obj, tol)

    monkeypatch.setattr(kkt, "_lp_multipliers", spy)
    assert kkt.solve_multipliers(p, [0.0, 0.0]).rho.tolist() == [0.75, 0.75]
    for x in ([1.0, 1.0], [0.0, 1.0]):
        with pytest.raises(InfeasibleMultipliersError):
            kkt.solve_multipliers(p, x)
    assert active == [2, 0, 1]


def test_active_sets_partitions_equality_multipliers():
    # certify checks h_j where xi_j > tol, -h_j where xi_j < -tol, and skips
    # the rest; the equality's zero-volume feasible set starves every check
    p = load_problem(_prob(objectives=["y1"], eq=["y1", "y1", "y1"]))
    point = kkt.KktPoint(np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([0.5, -1.5, 0.0]))
    cert = kkt.certify(p, point, "t4", SampleConfig(n_pairs=10))
    assert cert.residual.passes
    assert [h.target for h in cert.hypotheses] == ["f1", "h1", "-h2"]


def test_active_sets_rejects_infeasible_point(vp1_path):
    p = _vp1_wide(vp1_path)
    with pytest.raises(InfeasiblePointError) as exc:
        point_slacks(p, [-1.0, 0.0], role="candidate")
    assert str(exc.value) == "candidate [-1.0, 0.0] infeasible (worst violation 1)"


def test_nan_constraint_value_is_infeasible_everywhere():
    # exp(800) overflows, so at x = 1 the constraint is inf - inf = nan
    p = load_problem(_prob(ineq=["exp(800*y1) - exp(800*y1)"], box={"lo": [0.0], "hi": [1.0]}))
    with pytest.raises(InfeasiblePointError) as exc:
        point_slacks(p, [1.0])
    assert "worst violation inf" in str(exc.value)
    assert feasible_region(p).contains(np.array([[1.0], [0.5]])).tolist() == [False, True]
    report = grid_oracle(p, GridSpec((5,)))
    assert report.grid[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert report.feasible.tolist() == [True, True, True, True, False]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_box_is_lo_plus_u_times_the_width(dim, count):
    lo, hi = np.array([-6.0, 0.1, -1e-3])[:dim], np.array([0.0, 2.0, 7.5])[:dim]
    got = SampleStream(9, "box").box(lo, hi, count)
    u = SampleStream(9, "box").uniform(count * dim).reshape(count, dim)
    assert got.shape == (count, dim)
    assert got.tobytes() == (lo + u * (hi - lo)).tobytes()


def test_feasibility_consumers_agree_row_by_row():
    # log-domain failures (y1 <= 0.3), nan values (y2 > ~0.887), an equality
    # met on the diagonal and a plain inequality, at grid points and at
    # seeded random points (with their diagonal images) snapped into the grid
    pts = SampleStream(7, "slacks").box(np.zeros(2), np.ones(2), 60)
    cands = [{"name": f"c{i}", "x": x.tolist()}
             for i, x in enumerate(np.vstack([pts, pts[:, [0, 0]]]))]
    p = load_problem(_prob(n=2, E=["x1", "x2"], eta=["u1 - v1", "u2 - v2"],
                           objectives=["y1 + y2"],
                           ineq=["log(y1 - 0.3) - 1", "exp(800*y2) - exp(800*y2)", "y1 - 0.95"],
                           eq=["y1 - y2"], box={"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                           candidates=cands))
    report = grid_oracle(p, GridSpec((9, 9)))
    assert report.grid.shape[0] == 81 + 120

    outcomes = []
    for x in report.grid:
        try:
            point_slacks(p, x)
        except DomainEvalError:
            outcomes.append("domain")
        except InfeasiblePointError as e:
            outcomes.append("nan" if "worst violation inf" in str(e) else False)
        else:
            outcomes.append(True)
    assert {"domain", "nan", True, False} <= set(outcomes)
    singles = [o is True for o in outcomes]
    assert report.feasible.tolist() == singles
    assert feasible_region(p).contains(report.grid).tolist() == singles


# ---------------------------------------------------------------------------
# regions and sampling
# ---------------------------------------------------------------------------


def test_sample_region_stays_inside():
    p = load_problem(_prob())
    region = box_region(p)
    X = sample_region(p, RegionDraw(SampleStream(42, "unit"), region, 500), 500)
    assert X.shape == (500, 1)
    assert region.contains(X).all()


def test_sample_region_starves_on_empty_region():
    p = load_problem(_prob())
    never = Region("empty", lambda P: np.zeros(np.atleast_2d(P).shape[0], dtype=bool))
    draw = RegionDraw(SampleStream(42, "unit"), never, 100)
    assert sample_region(p, draw, 100).shape == (0, 1)
    assert draw.proposals == draw.budget
    assert draw.starved() == ("could not draw 100 points from region 'empty' "
                              "(0 accepted after 65536 proposals)")


def test_feasible_region_filters_constraints(vp1_path):
    p = load_problem(vp1_path)
    region = feasible_region(p)
    pts = np.array([[0.5, 0.5], [-0.5, 0.5], [0.0, 0.0]])
    assert region.contains(pts).tolist() == [True, False, True]


def test_sample_config_validation():
    for bad in (
        {"n_pairs": 0},
        {"n_tau": 2},
        {"tol": 0.0},
        {"strict_margin": -1.0},
        {"tol": float("inf")},
        {"strict_margin": float("inf")},
    ):
        with pytest.raises(ValueError):
            SampleConfig(**bad)


# ---------------------------------------------------------------------------
# invex-set membership check
# ---------------------------------------------------------------------------


def test_einvex_set_identity_box_holds():
    p = load_problem(_prob(n=2, E=["x1", "x2"], eta=["u1 - v1", "u2 - v2"],
                           objectives=["y1 + y2"],
                           box={"lo": [0.0, 0.0], "hi": [1.0, 1.0]}))
    cfg = SampleConfig(seed=42, n_pairs=1500, n_tau=6)
    v = check(p, [(None, "invex-set")], cfg)[0]
    assert v.status == "holds"
    assert v.checked == cfg.n_pairs * cfg.n_tau


def test_einvex_set_gapped_region_fails_inside_the_gap():
    p = load_problem(_prob(box={"lo": [0.0], "hi": [3.0]}))

    def in_union(P):
        t = np.atleast_2d(P)[:, 0]
        return ((t >= -1e-9) & (t <= 1.0 + 1e-9)) | ((t >= 2.0 - 1e-9) & (t <= 3.0 + 1e-9))

    v = check(p, [(None, "invex-set")], SampleConfig(seed=42, n_pairs=1500, n_tau=6),
              region=Region("two segments", in_union))[0]
    assert v.status == "fails"
    w = v.witness
    z = w.extra["combined"][0]
    assert 1.0 < z < 2.0
    # the witness replays: the combined point really is x0 + tau*(x - x0)
    assert z == pytest.approx(w.x0[0] + w.tau * (w.x[0] - w.x0[0]), abs=1e-12)


def test_einvex_set_square_image_holds():
    p = load_problem(_prob(E=["x1^2"]))
    v = check(p, [(None, "invex-set")], SampleConfig(seed=42, n_pairs=1500, n_tau=6))[0]
    assert v.status == "holds"


def test_einvex_set_starved_region_is_inconclusive():
    p = load_problem(_prob())
    never = Region("empty", lambda P: np.zeros(np.atleast_2d(P).shape[0], dtype=bool))
    v = check(p, [(None, "invex-set")], SampleConfig(seed=42, n_pairs=100), region=never)[0]
    assert v.status == "inconclusive"
    assert v.reason


# ---------------------------------------------------------------------------
# verdict plumbing
# ---------------------------------------------------------------------------


def test_verdict_dict():
    d = _jsonable(Verdict.holds(checked=10, nonvacuous=4))
    assert d == {"status": "holds", "checked": 10, "nonvacuous": 4}


def test_jsonable_walks_dataclass_fields():
    @dataclass
    class Inner:
        v: float
        tag: Optional[str] = None

    @dataclass
    class Outer:
        items: list
        arr: np.ndarray
        kept: Optional[float]          # no default: kept as null
        note: Optional[str] = None     # declared = None: left out while None

    d = _jsonable(Outer([Inner(1.0), Inner(float("-inf"), "t")], np.array([[1, 2]]), None))
    assert d == {"items": [{"v": 1.0}, {"v": "-inf", "tag": "t"}], "arr": [[1, 2]], "kept": None}
    assert _jsonable(Outer([], np.array([np.nan]), 2.0, "n")) == {
        "items": [], "arr": ["nan"], "kept": 2.0, "note": "n"}


def test_witness_dict_drops_unset_fields_and_stringifies_nonfinite():
    w = Witness(x=[float("inf")], left=float("nan"), comparison="c", index=3)
    d = _jsonable(w)
    assert d["x"] == ["inf"]
    assert d["left"] == "nan"
    assert "x0" not in d and "tau" not in d and "right" not in d and "extra" not in d
