"""Acceptance gate: one test (one verbose pass/fail line) per criterion.

Each criterion is a single test function so that `pytest -v` prints exactly
one PASSED/FAILED line for it; the final print in each body repeats the
verdict for runs with -s.
"""

import json
import math
import time

import numpy as np
import pytest

from corpus import CFG, ENTRIES, naive_preinvex_masks, preinvex_block, problem
from einvex import expr as ex
from einvex.cli import run
from einvex.invexity import PreinvexKind, check, invex_sides, preinvex_masks
from einvex.kkt import KktPoint, certify, solve_multipliers, verify_kkt_point
from einvex.pareto import GridSpec, grid_oracle
from einvex.problem import SampleConfig, load_problem
from einvex.rng import SampleStream

FULL = SampleConfig(seed=42, n_pairs=10000, n_tau=8)


def _ok(label):
    print(f"[PASS] {label}")


def test_criterion_1_gradient_family_verdicts_on_example1(example1_path):
    started = time.perf_counter()
    p = load_problem(example1_path)
    f1 = p.function("f1")

    assert check(p, [(f1, "pseudo-invex")], FULL)[0].status == "holds"
    assert check(p, [(f1, "quasi-invex")], FULL)[0].status == "holds"

    v = check(p, [(f1, "invex")], FULL)[0]
    assert v.status == "fails"
    w = v.witness
    sides = invex_sides(f1, p, w.x, w.x0)
    assert sides["norm_left"] < sides["norm_right"] - FULL.tol  # replays
    assert w.left == pytest.approx(sides["left"], abs=1e-12)

    curated = invex_sides(f1, p, [-3.0], [-4.0])
    assert curated["left"] == pytest.approx(0.6321205588285577, abs=1e-15)
    assert curated["right"] == pytest.approx(1.103638323514327, abs=1e-15)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok("criterion 1: example1 verdicts, witness replay, curated pair, "
        f"{elapsed:.2f}s")


def test_criterion_2_multiplier_solve_and_discrepancy(vp1_path):
    p = load_problem(vp1_path)
    pt = solve_multipliers(p, [0.0, 0.0])
    assert pt.tau.tolist() == pytest.approx([0.5, 0.5], abs=1e-9)
    assert pt.rho.tolist() == pytest.approx([0.75, 0.75], abs=1e-9)
    assert verify_kkt_point(p, pt).r_stationarity <= 1e-9

    c = p.candidate("ybar")
    supplied = verify_kkt_point(p, KktPoint(c.x, c.tau, c.rho, np.zeros(0)))
    assert not supplied.passes
    assert supplied.r_stationarity == pytest.approx(0.25, abs=1e-12)

    code, text = run(["kkt", str(vp1_path), "--candidate", "ybar",
                      "--verify-supplied"])
    assert code == 1
    assert "consistent alternative" in text  # the discrepancy is surfaced
    assert "stationarity residual 0.25" in text
    _ok("criterion 2: solved multipliers exact, supplied ones fail by 0.25")


def test_criterion_3_certificates_at_the_shared_candidate(vp1_path):
    p = load_problem(vp1_path)
    pt = solve_multipliers(p, [0.0, 0.0])

    for theorem in ("t6", "t4"):
        cert = certify(p, pt, theorem, FULL)
        assert cert.conclusion == "certified", theorem
        assert all(h.verdict.status == "holds" for h in cert.hypotheses)
        assert all(h.verdict.checked >= FULL.n_pairs for h in cert.hypotheses)

    cert = certify(p, pt, "t5", FULL)
    assert cert.conclusion == "not-established"
    assert cert.failing == "f1:strict-invex"
    assert "f1:strict-invex" in cert.reason
    _ok("criterion 3: t4/t6 certified over 10^4 samples, t5 names "
        "f1:strict-invex")


def test_criterion_4_grid_oracle_finds_the_unique_optimum(vp1_path):
    started = time.perf_counter()
    p = load_problem(vp1_path)
    rep = grid_oracle(p, GridSpec.uniform(41, 2))
    assert rep.feasible_points == 1681
    assert rep.pareto_points.tolist() == [[0.0, 0.0]]
    assert rep.weak_points.tolist() == [[0.0, 0.0]]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(f"criterion 4: 41x41 oracle, pareto == weak == {{origin}}, "
        f"{elapsed:.2f}s")


def _sample(v):
    """Where a verdict's witness lies: (x, x0, tau, index), or None."""
    w = v.witness
    return None if w is None else (w.x, w.x0, w.tau, w.index)


def test_criterion_5_corpus_cross_checker_agreement():
    """The README's aliases: level-set without --levels is the quasi-preinvex
    mask, and the tight half of epigraph is the preinvex mask, on the same
    samples.  So a level-set verdict is the quasi-preinvex one, and a failing
    epigraph fails at preinvex's sample, lifted tight, with two instances
    (tight, slack) where preinvex has one."""
    assert len(ENTRIES) == 20
    failing_epigraphs = 0
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        pre = check(p, [(fn, "preinvex")], CFG)[0]
        epi = check(p, [(fn, "epigraph")], CFG)[0]
        assert pre.status == ent.preinvex, ent.name
        assert epi.status == pre.status, f"{ent.name}: epigraph disagrees"
        if epi.status == "fails":
            assert _sample(epi)[:3] == _sample(pre)[:3], ent.name
            assert epi.witness.extra["tight"] is True, ent.name
            assert (epi.witness.index, epi.checked) == (2 * pre.witness.index, 2 * pre.checked)
            failing_epigraphs += 1

        quasi = check(p, [(fn, "quasi-preinvex")], CFG)[0]
        lvl = check(p, [(fn, "level-set")], CFG)[0]
        assert quasi.status == ent.quasi, ent.name
        assert lvl.status == quasi.status, f"{ent.name}: level-set disagrees"
        assert (lvl.checked, _sample(lvl)) == (quasi.checked, _sample(quasi)), ent.name
    assert failing_epigraphs == 9
    _ok("criterion 5: 20/20 corpus entries, epigraph==mixture and "
        "level-set==quasi")


def test_criterion_6_mixture_satisfaction_implies_quasi_per_sample():
    counterexamples = 0
    for ent in ENTRIES:
        p = problem(ent)
        s = preinvex_block(p.function("f1"), p)
        sat_exp, _ = preinvex_masks(s, PreinvexKind.EXP, CFG)
        sat_quasi, _ = preinvex_masks(s, PreinvexKind.QUASI, CFG)
        valid = ~s.invalid_comb[:, None]
        counterexamples += int(np.count_nonzero(sat_exp & valid & ~sat_quasi))
    assert counterexamples == 0
    _ok("criterion 6: zero per-sample implication counterexamples across "
        "the corpus")


def test_criterion_7_numerics():
    # forward-mode gradients against central differences
    for ent in ENTRIES:
        p = problem(ent)
        fn = p.function("f1")
        pts = SampleStream(42, f"fd:{ent.name}").box(p.lo, p.hi, 100)
        env = {name: pts[:, j] for j, name in enumerate(p.vars)}
        res = ex.grad_many(fn.composed, env, p.vars)
        assert not (res.invalid | res.nondiff).any(), ent.name
        for j, name in enumerate(p.vars):
            h = 1e-6 * (1.0 + np.abs(env[name]))
            up, dn = dict(env), dict(env)
            up[name] = env[name] + h
            dn[name] = env[name] - h
            fd = (ex.eval_many(fn.composed, up).values
                  - ex.eval_many(fn.composed, dn).values) / (2.0 * h)
            err = np.abs(res.grads[j] - fd)
            assert np.all(err <= 1e-6 * (1.0 + np.abs(fd))), (ent.name, name)

    # log-domain and exponential-domain evaluation agree sample by sample
    # wherever the exponentials stay finite
    for ent in ENTRIES:
        if not ent.small:
            continue
        p = problem(ent)
        s = preinvex_block(p.function("f1"), p)
        for kind in PreinvexKind:
            a, na = preinvex_masks(s, kind, CFG)
            b, nb = naive_preinvex_masks(s, kind, CFG)
            assert np.array_equal(a, b) and np.array_equal(na, nb), \
                (ent.name, kind)

    # the log path stays finite where exp(f) overflows (|f| up to 500)
    steep = next(e for e in ENTRIES if e.name == "steep-affine")
    p = problem(steep)
    v = check(p, [(p.function("f1"), "preinvex")], CFG)[0]
    assert v.status == "holds"
    assert v.checked == CFG.n_pairs * CFG.n_tau
    _ok("criterion 7: gradients within 1e-6 of central differences; "
        "log/naive agree; log path finite at |f|=500")


def test_criterion_8_reports_are_reproducible(example1_path, vp1_path):
    e1, vp1 = str(example1_path), str(vp1_path)
    commands = [
        ["check", e1, "--function", "f1", "--kind", "invex",
         "--pairs", "10000", "--format", "json"],
        ["check", e1, "--function", "f1", "--kind", "pseudo-invex",
         "--pairs", "10000", "--format", "json"],
        ["check", e1, "--function", "f1", "--kind", "quasi-invex",
         "--pairs", "10000", "--format", "json"],
        ["kkt", vp1, "--candidate", "ybar", "--format", "json"],
        ["kkt", vp1, "--candidate", "ybar", "--verify-supplied",
         "--format", "json"],
        ["certify", vp1, "--candidate", "ybar", "--theorem", "t4",
         "--pairs", "10000", "--format", "json"],
        ["certify", vp1, "--candidate", "ybar", "--theorem", "t5",
         "--pairs", "10000", "--format", "json"],
        ["certify", vp1, "--candidate", "ybar", "--theorem", "t6",
         "--pairs", "10000", "--format", "json"],
        ["oracle", vp1, "--grid", "41x41", "--format", "json"],
        ["oracle", vp1, "--grid", "41x41", "--query", "1,1",
         "--format", "json"],
    ]

    def stripped(argv):
        code, text = run(argv)
        rep = json.loads(text)
        assert math.isfinite(rep.pop("wall_time_s"))
        return code, json.dumps(rep, sort_keys=True)

    for argv in commands:
        first = stripped(argv)
        second = stripped(argv)
        assert first == second, argv
    _ok(f"criterion 8: {len(commands)} commands byte-identical across "
        "reruns (wall time excluded)")
