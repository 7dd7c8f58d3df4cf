"""The seed ledger: every shipped claim it lists holds at seeds 1-40.

A claim checked at one seed may hold there by chance.  Each row runs one
claim about the shipped problems at every seed of SEEDS and requires the
same answer at all of them; a claim no seed enters runs once.  A row that
stops being unanimous is reworded where the claim is made, not pinned to a
seed that passes.
"""

import pytest

from einvex.invexity import check
from einvex.kkt import certify, solve_multipliers, verify_kkt_point
from einvex.pareto import GridSpec, grid_oracle, is_weak_pareto
from einvex.problem import SampleConfig, load_problem

SEEDS = range(1, 41)
PAIRS = 10000  # the default budget of check and certify


def _check(kind, pairs=PAIRS):
    """The status of example1's f1 under ``kind``."""
    def claim(p, seed):
        return check(p, [(p.function("f1"), kind)], SampleConfig(seed=seed, n_pairs=pairs))[0].status
    return "example1", claim, SEEDS


def _certify(theorem, verdicts=False):
    """The conclusion and failing hypothesis of ``theorem`` at vp1's ybar,
    with the multipliers the solver finds there; with ``verdicts``, also
    each hypothesis's (status, nonvacuous), in the order they are printed."""
    def claim(p, seed):
        cert = certify(p, solve_multipliers(p, p.candidate("ybar").x), theorem,
                       SampleConfig(seed=seed, n_pairs=PAIRS))
        if verdicts:
            return (cert.conclusion, cert.failing,
                    [(h.verdict.status, h.verdict.nonvacuous) for h in cert.hypotheses])
        return cert.conclusion, cert.failing
    return "vp1", claim, SEEDS


def _kkt():
    """Whether the multipliers the solver finds at vp1's ybar pass, and
    their (tau, rho, xi).  No seed enters."""
    def claim(p, seed):
        point = solve_multipliers(p, p.candidate("ybar").x)
        return (verify_kkt_point(p, point).passes, point.tau.tolist(), point.rho.tolist(),
                point.xi.tolist())
    return "vp1", claim, [None]


def _pareto_set():
    """vp1's Pareto and weak Pareto points on the 41x41 grid, and whether
    ybar passes the 401x401 query.  No seed enters."""
    def claim(p, seed):
        rep = grid_oracle(p, GridSpec.uniform(41, 2))
        weak, _ = is_weak_pareto(p, p.candidate("ybar").x, GridSpec.uniform(401, 2))
        return rep.pareto_points.tolist(), rep.weak_points.tolist(), weak
    return "vp1", claim, [None]


ORIGIN = ([[0.0, 0.0]], [[0.0, 0.0]], True)

LEDGER = {  # row -> (problem, claim, its seeds, the answer at every seed)
    # README Quick start: example1's objective "is quasi- and pseudo-invex but not invex"
    "example1 f1 invex": (*_check("invex"), "fails"),
    "example1 f1 pseudo-invex": (*_check("pseudo-invex"), "holds"),
    "example1 f1 quasi-invex": (*_check("quasi-invex"), "holds"),
    # README Quick start: check problems/example1.json --function f1 --kind invex --pairs 2000
    "quick start invex --pairs 2000": (*_check("invex", 2000), "fails"),
    # acceptance criterion 3 (t4, t5, t6) and the remark, at vp1's Pareto point
    "vp1 ybar t4": (*_certify("t4"), ("certified", None)),
    "vp1 ybar t5": (*_certify("t5"), ("not-established", "f1:strict-invex")),
    # and README Quick start: certify problems/vp1.json --candidate ybar --theorem t6
    "vp1 ybar t6": (*_certify("t6", verdicts=True),
                    ("certified", None, [("holds", 0), ("holds", 0),
                                         ("holds", PAIRS), ("holds", PAIRS)])),
    "vp1 ybar remark": (*_certify("remark"), ("certified", None)),
    # README Quick start: kkt problems/vp1.json --candidate ybar
    "quick start kkt vp1 ybar": (*_kkt(), (True, [0.5, 0.5], [0.75, 0.75], [])),
    # acceptance criterion 4: the 41x41 oracle finds the unique optimum
    "criterion 4 vp1 oracle": (*_pareto_set(), ORIGIN),
    # README Quick start: vp1's "origin is the unique Pareto point"
    "vp1 origin is the unique Pareto point": (*_pareto_set(), ORIGIN),
}


@pytest.mark.parametrize("row", list(LEDGER))
def test_a_shipped_claim_holds_at_every_seed(problems_dir, row):
    name, claim, seeds, want = LEDGER[row]
    p = load_problem(problems_dir / f"{name}.json")
    answers = {seed: claim(p, seed) for seed in seeds}
    assert {seed: a for seed, a in answers.items() if a != want} == {}
