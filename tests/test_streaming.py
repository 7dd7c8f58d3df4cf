"""Streamed sampled checks: prefix-stable region draws, verdicts that do not
depend on the block size, the rule for ``checked``, and bounded memory.

Every sampled checker draws and judges its pairs in blocks of BLOCK_PAIRS and
stops at the block that holds the deciding pair.  These tests pin what must not
change with the block size: the accepted points, the deciding pair and the
counts of the report.
"""

import json
import math
import tracemalloc
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest

import einvex.invexity as invexity
import einvex.problem as problem_mod
from corpus import CFG, ENTRIES, by_name, problem
from einvex.cli import run
from einvex.invexity import PROBE_CENTERS, InvexKind, PreinvexKind, _probe_points, check
from einvex.kkt import THEOREMS, certify, solve_multipliers
from einvex.problem import (MAX_ROUNDS, Hypothesis, Region, RegionDraw, SampleConfig, _jsonable,
                            box_region, feasible_region, load_problem, sample_region,
                            sampled_verdicts)
from einvex.rng import SampleStream
from test_golden import COMMANDS, GOLDEN, KINDS, _report
from test_kkt import EQUALITY

DEFAULT_BLOCK = problem_mod.BLOCK_PAIRS


# ---------------------------------------------------------------------------
# prefix-stable region draws
# ---------------------------------------------------------------------------


class _Starved(Exception):
    pass


def _reference_sample_region(problem, stream, count, region):
    """sample_region as it was before draws were streamed: all points in one call."""
    got = []
    have = 0
    chunk = max(count, 1024)
    for _ in range(MAX_ROUNDS):
        pts = stream.box(problem.lo, problem.hi, chunk)
        keep = pts[region.contains(pts)]
        if keep.size:
            got.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(got, axis=0)[:count]
    raise _Starved(
        f"could not draw {count} points from region '{region.name}' "
        f"({have} accepted after {MAX_ROUNDS * chunk} proposals)")


UNIT_SQUARE = {"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"], "objectives": ["y1"],
               "box": {"lo": [0, 0], "hi": [1, 1]}}
ACCEPT = {"one-in-50": 0.02, "one-in-100": 0.01, "none": 0.0}   # share of the box accepted
SPLITS = ([3000], [1, 2999], [7, 97, 1000, 1896], [2999, 1])


@pytest.mark.parametrize("name", sorted(ACCEPT))
def test_streamed_region_draws_are_one_whole_draw(name):
    p = load_problem(UNIT_SQUARE)
    region = Region(name, lambda P: np.atleast_2d(P)[:, 0] < ACCEPT[name])
    try:
        whole, message = _reference_sample_region(p, SampleStream(7, "ref"), 3000, region), None
    except _Starved as e:
        whole, message = None, str(e)
    # 3000 points at 1/100 need about 300k proposals; the budget is 192k
    assert (message is None) == (name == "one-in-50")
    for split in SPLITS:
        draw = RegionDraw(SampleStream(7, "ref"), region, 3000)
        got = np.concatenate([sample_region(p, draw, count) for count in split])
        if message is None:
            assert got.tobytes() == whole.tobytes(), split
        else:  # every point the budget accepts, in order, then the parent's message
            proposals = SampleStream(7, "ref").box(p.lo, p.hi, draw.budget)
            assert got.tobytes() == proposals[region.contains(proposals)].tobytes(), split
            assert draw.starved() == message


# ---------------------------------------------------------------------------
# the deciding pair, on synthetic blocks
# ---------------------------------------------------------------------------


@dataclass
class _Rows:
    """Minimal samples: ``index`` numbers the rows, ``unit`` their pairs."""

    X: np.ndarray
    X0: np.ndarray
    bad: np.ndarray
    viol: np.ndarray
    index: np.ndarray
    unit: np.ndarray
    starved: Optional[str] = None
    T = invalid_comb = nondiff = None


def _synthetic(events, rows_per_pair=1, drawable=None, instances=()):
    """A draw over pairs whose rows carry 'v' (violates), 'f' (fails to
    evaluate) or '.'; pairs from ``drawable`` on cannot be drawn.  Each row
    judges the ``instances`` of a trailing axis and violates at the last two
    of them; the witness reports the row's index and the instance it got."""
    events = [e.ljust(rows_per_pair, ".") for e in events]
    drawable = len(events) if drawable is None else drawable

    def draw(lo, hi):
        stop = min(hi, drawable)
        ev = "".join(events[lo:stop])
        index = np.arange(lo * rows_per_pair, stop * rows_per_pair)
        x = (index // rows_per_pair).astype(float)[:, None]
        return _Rows(x, x, np.array([c == "f" for c in ev], dtype=bool),
                     np.array([c == "v" for c in ev], dtype=bool), index,
                     np.arange(stop - lo).repeat(rows_per_pair), "starved" if stop < hi else None)

    def judge(s):
        sat = np.ones(s.viol.shape + instances, dtype=bool)
        sat.reshape(sat.shape[0], math.prod(instances))[s.viol, -2:] = False
        return problem_mod.Judgement(
            sat, lambda row, *instance: {"extra": {"at": [int(s.index[row]), *instance]}},
            np.ones_like(sat))

    return len(events), draw, judge


# (events per pair, rows per pair, first undrawable pair, instances per row)
#   -> (status, witness index, checked, the row index and instance the witness got)
CASES = [
    ((["."] * 10, 1, None), ("holds", None, 10, None)),
    ((["."] * 5 + ["v"] + ["f"] * 4, 1, None), ("fails", 5, 6, [5])),
    ((["."] * 5 + ["f"] + ["v"] * 4, 1, None), ("inconclusive", None, 6, None)),
    ((["."] * 4 + [".f", "v."] + ["."] * 4, 2, None), ("inconclusive", None, 10, None)),
    ((["."] * 4 + ["vf"] + ["."] * 5, 2, None), ("inconclusive", None, 10, None)),
    ((["."] * 4 + [".v"] + ["."] * 5, 2, None), ("fails", 9, 10, [9])),
    ((["."] * 6 + ["v"] * 4, 1, 6), ("inconclusive", None, 6, None)),
    ((["."] * 3 + ["v"] + ["."] * 6, 1, 6), ("fails", 3, 4, [3])),
    # row 9 violates first at instance (1, 1) of (2, 3): index 9 * 6 + 1 * 3 + 1
    ((["."] * 4 + [".v"] + ["."] * 5, 2, None, (2, 3)), ("fails", 58, 60, [9, 1, 1])),
]


@pytest.mark.parametrize("block", [1, 3, 4, 97, DEFAULT_BLOCK])
@pytest.mark.parametrize("case, expected", CASES)
def test_first_deciding_pair_decides_in_any_block_size(case, expected, block, monkeypatch):
    monkeypatch.setattr(problem_mod, "BLOCK_PAIRS", block)
    n, draw, judge = _synthetic(*case)
    v = sampled_verdicts(n, draw, [Hypothesis(judge)])[0]
    w = v.witness
    assert (v.status, w and w.index, v.checked, w and w.extra["at"]) == expected
    assert w is None or w.x == w.x0 == [float(w.extra["at"][0] // case[1])]


# ---------------------------------------------------------------------------
# verdicts do not depend on the block size
# ---------------------------------------------------------------------------

SAMPLED = sorted(name for name, argv in COMMANDS.items() if argv[0] in ("check", "certify"))


def _capped(argv, pairs):
    at = argv.index("--pairs") + 1
    return argv[:at] + [str(min(int(argv[at]), pairs))] + argv[at + 1:]


def _under_block(monkeypatch, block, produce):
    monkeypatch.setattr(problem_mod, "BLOCK_PAIRS", block)
    try:
        return produce()
    finally:
        monkeypatch.setattr(problem_mod, "BLOCK_PAIRS", DEFAULT_BLOCK)


def _judges_every_pair(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text())["report"]
    return report["conclusion"] in ("holds", "certified")


@pytest.mark.parametrize("block, cap", [(97, 300), (3, 20)])
def test_golden_reports_do_not_depend_on_the_block_size(block, cap, monkeypatch):
    """97 divides no pair count: every sampled golden decided before its last
    pair reproduces its stored report.  3 is below PROBE_CENTERS, so the
    probes fall in a later block than the first pairs.  The goldens that
    judge every pair (all of them under 3) run at --pairs <= cap instead,
    against a default-block run of the same command, to keep the suite fast."""
    stored = {n: (GOLDEN / f"{n}.json").read_text() for n in SAMPLED
              if block == 97 and not _judges_every_pair(n)}
    small = {n: _capped(COMMANDS[n], cap) for n in SAMPLED if n not in stored}
    expected = {**stored, **{n: _report(argv) for n, argv in small.items()}}
    got = _under_block(monkeypatch, block, lambda: {
        n: _report(small.get(n, COMMANDS[n])) for n in SAMPLED})
    assert got == expected


def _corpus_reports(n_pairs):
    cfg = replace(CFG, n_pairs=n_pairs)
    return [json.dumps(_jsonable(check(p, [(p.function("f1"), kind)], cfg)[0]), sort_keys=True)
            for p in map(problem, ENTRIES) for kind in KINDS]


@pytest.mark.parametrize("block, n_pairs", [(97, 120), (3, 12)])
def test_corpus_verdicts_do_not_depend_on_the_block_size(block, n_pairs, monkeypatch):
    """Every corpus entry under every kind; 120 pairs split unevenly into
    blocks of 97, and 12 pairs keep the blocks of 3 affordable."""
    got = _under_block(monkeypatch, block, lambda: _corpus_reports(n_pairs))
    assert got == _corpus_reports(n_pairs)


# ---------------------------------------------------------------------------
# the rule for checked
# ---------------------------------------------------------------------------


def _verdicts(report):
    """(kind, verdict) of every sampled verdict in a report."""
    if "verdict" in report:
        return [(report["config"]["kind"], report["verdict"])]
    hyps = report.get("certificate", {}).get("hypotheses", [])
    return [(h["kind"], h["verdict"]) for h in hyps]


def _n_probes(argv, report, cfg, pinned):
    """The probes of a strict gradient-family check, as its report configured it."""
    p = load_problem(argv[1])
    region = feasible_region(p, cfg.tol)
    if report["command"] == "check" and report["config"]["region"] == "box":
        region = box_region(p, cfg.tol)
    centers = pinned or sample_region(p, RegionDraw(SampleStream(cfg.seed, "pairs-x0"), region,
                                                    cfg.n_pairs), min(cfg.n_pairs, PROBE_CENTERS))
    return _probe_points(centers, p, region, cfg.tol)[0].shape[0]


def _expected_checked(kind, index, n, k, pinned, probes, levels=1):
    """checked of a fails verdict, from its witness index: every instance up to
    and including the deciding pair, in canonical order.  A mixture pair holds
    one instance per (level, tau, epigraph lift), numbered pair-major."""
    if kind in tuple(PreinvexKind) or kind in ("epigraph", "level-set", "invex-set"):
        width = levels * k * (2 if kind == "epigraph" else 1)
        return (index // width + 1) * width
    per_pair = 1 if pinned else 2
    c = min(n, PROBE_CENTERS)
    if index >= per_pair * n:                      # probe j follows pair c - 1
        return per_pair * c + index - per_pair * n + 1
    i = index % n
    strict = kind.startswith("strict")
    return per_pair * (i + 1) + (probes() if strict and i >= c else 0)


def test_checked_follows_from_the_witness_index():
    seen = 0
    for name, argv in sorted(COMMANDS.items()):
        report = json.loads((GOLDEN / f"{name}.json").read_text())["report"]
        config = report["config"]
        # a run echoes --tau and --delta only where it reads them, else keeps the default
        n, k = config.get("pairs"), config.get("tau", SampleConfig.n_tau)
        pinned = report.get("certificate", {}).get("point", {}).get("y") or config.get("at")
        for kind, v in _verdicts(report):
            if v["status"] == "holds" or "witness" not in v:
                continue
            cfg = replace(CFG, seed=config["seed"], n_pairs=n, n_tau=k, tol=config["eps"],
                          strict_margin=config.get("delta", SampleConfig.strict_margin))
            assert v["checked"] == _expected_checked(
                kind, v["witness"]["index"], n, k, pinned,
                lambda: _n_probes(argv, report, cfg, pinned),
                len(config.get("levels") or [None])), (name, kind)
            seen += 1
    assert seen >= 25


# ---------------------------------------------------------------------------
# bounded memory
# ---------------------------------------------------------------------------


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code, _ = run(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_pairs(vp1_path):
    """A holding check draws every pair, and a certified t4 judges all four
    hypotheses on every block; ten times the pairs must not raise the traced
    peak of either by more than 10 %."""
    for command in (["check", str(vp1_path), "--function", "f1", "--kind", "invex"],
                    ["certify", str(vp1_path), "--candidate", "ybar", "--theorem", "t4"]):
        argv = command + ["--format", "json"]
        run(argv + ["--pairs", "1000"])  # imports and caches outside the traced runs
        small_code, small = _traced_peak(argv + ["--pairs", "40000"])
        large_code, large = _traced_peak(argv + ["--pairs", "400000"])
        assert small_code == large_code == 0
        assert large <= 1.10 * small, (command[0], small, large)


# ---------------------------------------------------------------------------
# one draw per certificate
# ---------------------------------------------------------------------------

# f2 fails at the first pairs, g1 only at a rare pair further on (pair 50 at
# seed 1, in the 17th block of 3 pairs), f1 and g2 hold
STAGGERED = {"n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
             "objectives": ["y1 + y2", "y1 + y2 - 4*y1^2"],
             "ineq": ["-y1 - exp(100*(y2 - 1)) + exp(-100)", "-y2"],
             "box": {"lo": [0, 0], "hi": [1, 1]}}
CERTIFIED = ([("vp1", theorem) for theorem in THEOREMS]
             + [("staggered", theorem) for theorem in THEOREMS] + [("equality", "t4")])


def _program(name, vp1_path):
    return load_problem({"vp1": vp1_path, "staggered": STAGGERED, "equality": EQUALITY}[name])


def _alone(p, hypothesis, y, cfg):
    """The hypothesis checked on its own draw."""
    name = hypothesis.target.lstrip("-")
    fn = p.function(name) if name == hypothesis.target else p.function(name).negated()
    return check(p, [(fn, hypothesis.kind)], cfg, at=y, region=feasible_region(p, cfg.tol),
                 vacuous=None)[0]


@pytest.mark.parametrize("block", [3, 97, DEFAULT_BLOCK])
@pytest.mark.parametrize("name, theorem", CERTIFIED)
def test_certificate_hypotheses_equal_their_own_checks(name, theorem, block, vp1_path,
                                                       monkeypatch):
    """Judged in lockstep on one draw, every hypothesis gets the verdict of its
    own check: the same deciding pair, witness, checked and vacuity."""
    p, cfg = _program(name, vp1_path), replace(CFG, seed=1, n_pairs=300)
    pt = solve_multipliers(p, [0.0, 0.0])
    cert = _under_block(monkeypatch, block, lambda: certify(p, pt, theorem, cfg))
    alone = _under_block(monkeypatch, block, lambda: [_alone(p, h, pt.y, cfg)
                                                      for h in cert.hypotheses])
    assert cert.hypotheses
    assert [h.verdict for h in cert.hypotheses] == alone
    if (name, theorem) == ("staggered", "t4"):
        assert [(h.target, h.verdict.status, h.verdict.checked) for h in cert.hypotheses] == [
            ("f1", "holds", 300), ("f2", "fails", 1), ("g1", "fails", 51), ("g2", "holds", 300)]
    if name == "equality":
        assert [h.verdict.status for h in cert.hypotheses] == ["inconclusive"] * 2


JUDGED = ("X", "X0", "A", "B", "D", "DX", "invalid", "nondiff", "index")


def _judged(monkeypatch, block, p, plan, cfg, at):
    """The samples judged for each kind of ``plan``, block by block, and the verdicts."""
    seen = {}
    masks = invexity.invex_masks
    monkeypatch.setattr(invexity, "invex_masks",
                        lambda s, kind, c: seen.setdefault(kind, []).append(s) or masks(s, kind, c))
    try:
        return seen, _under_block(monkeypatch, block, lambda: check(p, plan, cfg, at))
    finally:
        monkeypatch.setattr(invexity, "invex_masks", masks)


@pytest.mark.parametrize("block, n_pairs", [(3, 12), (DEFAULT_BLOCK, 300)])
@pytest.mark.parametrize("pinned", [False, True])
def test_a_probe_free_kind_judges_what_a_draw_without_probes_gives(block, n_pairs, pinned,
                                                                   monkeypatch):
    """Drawn with the probes of a strict kind, a kind that takes none judges
    the arrays of its own probe-free draw, the block of the probes included."""
    p = problem(by_name("bowl-2d"))
    fn, cfg = p.function("f1"), replace(CFG, n_pairs=n_pairs)
    at = (p.lo + p.hi) / 2 if pinned else None
    free = (InvexKind.EXP, InvexKind.MONOTONE)
    shared, verdicts = _judged(monkeypatch, block, p,
                               [(fn, InvexKind.STRICT)] + [(fn, k) for k in free], cfg, at)
    assert [v.status for v in verdicts[1:]] == ["holds"] * len(free)
    assert any((s.index >= s.n_regular).any() for s in shared[InvexKind.STRICT])
    for kind in free:
        alone, _ = _judged(monkeypatch, block, p, [(fn, kind)], cfg, at)
        assert len(shared[kind]) == len(alone[kind]) == math.ceil(n_pairs / block)
        for s, t in zip(shared[kind], alone[kind]):
            for name in JUDGED:
                a, b = getattr(s, name), getattr(t, name)
                assert (a is None) == (b is None), (kind, name)
                assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes()), (kind, name)


def test_certify_draws_each_block_once(vp1_path, monkeypatch):
    """100k pairs are 13 blocks: one sample_region call each, not one per
    hypothesis and block."""
    calls = []
    draw = problem_mod.sample_region
    monkeypatch.setattr(problem_mod, "sample_region",
                        lambda *args: calls.append(args[2]) or draw(*args))
    code, _ = run(["certify", str(vp1_path), "--candidate", "ybar", "--theorem", "t4",
                   "--pairs", "100000", "--format", "json"])
    assert code == 0
    assert len(calls) == math.ceil(100000 / DEFAULT_BLOCK) == 13
