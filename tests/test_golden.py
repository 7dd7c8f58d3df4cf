"""Golden JSON reports: every command below must reproduce its stored report.

The reports in tests/golden/ are compared byte for byte after dropping
``wall_time_s`` and ``problem.path`` (the only fields that depend on the
machine or the checkout).  They cover the criterion-8 commands, one
``check`` per kind on both shipped problems, an evaluation failure and
a starved draw for each of the six sampled checkers, and gradient checks,
a certificate, the multipliers and the grid oracle on a problem with three
variables.  tests/golden/text.json maps each command to its ``--format
text`` report, with the checkout path masked and the wall-time line
dropped.

Regenerate both after an intended report change with

    PYTHONPATH=src python tests/test_golden.py

and name every changed file in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from einvex.cli import run

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
TEXT = GOLDEN / "text.json"
E1 = str(HERE.parent / "problems" / "example1.json")
VP1 = str(HERE.parent / "problems" / "vp1.json")
FAILING = str(GOLDEN / "problems" / "failing.json")   # log, shifted log, cbrt; an infeasible g1
BAD_MAP = str(GOLDEN / "problems" / "bad-map.json")   # E = log(x1) on [-1, 1]
POINT = str(GOLDEN / "problems" / "point.json")       # a one-point box: strict kinds are vacuous
ORACLE = str(GOLDEN / "problems" / "oracle.json")     # infeasible and failing parts; off-grid c
N3 = str(GOLDEN / "problems" / "n3.json")             # three variables; g4 = x1*x2*x3 - 4 is not invex

KINDS = ("preinvex", "strict-preinvex", "quasi-preinvex", "strict-quasi-preinvex",
         "invex", "strict-invex", "quasi-invex", "pseudo-invex", "strict-pseudo-invex",
         "monotone-gradient", "strict-monotone-gradient", "epigraph", "level-set", "invex-set")
CHECKERS = ("preinvex", "invex", "monotone-gradient", "epigraph", "level-set", "invex-set")


def _check(problem, fn, kind, *extra, pairs=2000):
    fn_args = [] if kind == "invex-set" else ["--function", fn]
    return ["check", problem, *fn_args, "--kind", kind, "--pairs", str(pairs), *extra]


def _commands():
    cmds = {
        "c8-invex": ["check", E1, "--function", "f1", "--kind", "invex", "--pairs", "10000"],
        "c8-pseudo-invex": ["check", E1, "--function", "f1", "--kind", "pseudo-invex",
                            "--pairs", "10000"],
        "c8-quasi-invex": ["check", E1, "--function", "f1", "--kind", "quasi-invex",
                           "--pairs", "10000"],
        "c8-kkt": ["kkt", VP1, "--candidate", "ybar"],
        "c8-kkt-supplied": ["kkt", VP1, "--candidate", "ybar", "--verify-supplied"],
        "c8-oracle": ["oracle", VP1, "--grid", "41x41"],
        "c8-oracle-query": ["oracle", VP1, "--grid", "41x41", "--query", "1,1"],
        "vp1-oracle-query-ybar": ["oracle", VP1, "--grid", "41x41", "--query", "ybar"],
        "example1-oracle-minimizer": ["oracle", E1, "--grid", "1001", "--minimizer", "f1",
                                      "--at", "xbar"],
        # grid oracle on a box whose lower left is infeasible and whose left half
        # fails log(y1): the classification, a failing and a passing query
        "oracle-classify": ["oracle", ORACLE, "--grid", "21x21"],
        "oracle-query-fails": ["oracle", ORACLE, "--grid", "21x21", "--query", "c"],
        "oracle-query-passes": ["oracle", ORACLE, "--grid", "21x21", "--query", "0.5,0"],
        # queries on a grid of three lattice blocks and the off-lattice one
        # (c, and the query when off the lattice); the first block is all
        # x1 < 0, where log(y1) fails.  The pass leaves its last block at
        # y2: c is below the query in log(y1) only
        "oracle-blocks-query-passes": ["oracle", ORACLE, "--grid", "301x301",
                                       "--query", "0.41,0.09"],
        # the witness lies in the second block, the first ruled out by log(y1)
        "oracle-blocks-query-fails": ["oracle", ORACLE, "--grid", "301x301", "--query", "1,1"],
        # the second block passes both objectives and fails the constraint;
        # the witness lies in the third
        "oracle-blocks-query-fails-late": ["oracle", ORACLE, "--grid", "301x301",
                                           "--query", "0.9,0"],
    }
    for t in ("t4", "t5", "t6"):
        cmds[f"c8-certify-{t}"] = ["certify", VP1, "--candidate", "ybar", "--theorem", t,
                                   "--pairs", "10000"]
    for kind in KINDS:
        cmds[f"example1-{kind}"] = _check(E1, "f1", kind)
        cmds[f"vp1-f2-feasible-{kind}"] = _check(VP1, "f2", kind, "--region", "feasible")
    for kind in ("invex", "strict-pseudo-invex", "monotone-gradient"):
        cmds[f"vp1-f1-at-ybar-{kind}"] = _check(VP1, "f1", kind, "--at", "ybar")
    # n = 3: D and DX summed over three variables, in pair mode, past the
    # probes and pinned; a certificate at the point kkt passes
    for fn in ("f1", "g4"):
        for kind in ("invex", "strict-pseudo-invex"):
            cmds[f"n3-{fn}-{kind}"] = _check(N3, fn, kind)
        cmds[f"n3-{fn}-at-mid-monotone-gradient"] = _check(N3, fn, "monotone-gradient", "--at", "mid")
    cmds["n3-certify-t4"] = ["certify", N3, "--candidate", "ybar", "--theorem", "t4",
                           "--pairs", "2000"]
    # n = 3 off the sampler: the multiplier solve and the grid oracle on a 9x9x9 grid
    cmds["n3-kkt"] = ["kkt", N3, "--candidate", "ybar"]
    cmds["n3-oracle"] = ["oracle", N3, "--grid", "9x9x9"]
    cmds["n3-oracle-query-ybar"] = ["oracle", N3, "--grid", "9x9x9", "--query", "ybar"]
    cmds["example1-level-set-levels"] = _check(E1, "f1", "level-set", "--levels", "0.5,1,20")
    cmds["example1-level-set-empty-level"] = _check(E1, "f1", "level-set", "--levels", "1e-9,20")

    # evaluation failures: a pair (f1), a combined point (f2), a kink (f3)
    for kind in CHECKERS[:-1]:
        cmds[f"failing-pair-{kind}"] = _check(FAILING, "f1", kind, pairs=300)
    for kind in ("preinvex", "epigraph", "level-set"):
        cmds[f"failing-combined-{kind}"] = _check(FAILING, "f2", kind, pairs=300)
    for kind in ("invex", "monotone-gradient"):
        cmds[f"failing-kink-{kind}"] = _check(FAILING, "f3", kind, "--at", "0", pairs=300)
    cmds["failing-pair-level-set-levels"] = _check(FAILING, "f1", "level-set", "--levels", "1",
                                                   pairs=300)
    # f2 violates the other combined-point forms before its first failed combined
    # point; no pair violates a level far above exp(f2)
    cmds["failing-combined-level-set-levels"] = _check(FAILING, "f2", "level-set", "--levels",
                                                       "100", pairs=300)
    cmds["failing-map-invex-set"] = _check(BAD_MAP, None, "invex-set", pairs=300)
    # starved draws: g1 rejects every point of the feasible region
    for kind in CHECKERS:
        cmds[f"starved-{kind}"] = _check(FAILING, "f1", kind, "--region", "feasible", pairs=300)
    # vacuous samples
    for kind in ("strict-invex", "strict-preinvex", "strict-monotone-gradient"):
        cmds[f"vacuous-{kind}"] = _check(POINT, "f1", kind, pairs=300)
    return {name: argv + ["--format", "json"] for name, argv in cmds.items()}


COMMANDS = _commands()


def _report(argv):
    """Exit code and JSON report, minus the machine-dependent fields, as text."""
    code, text = run(argv)
    rep = json.loads(text)
    rep.pop("wall_time_s")
    rep["problem"].pop("path")
    return json.dumps({"exit_code": code, "report": rep}, indent=2, sort_keys=True) + "\n"


def _text_report(argv):
    """Exit code and text report, the checkout path masked, the wall time dropped."""
    code, text = run(argv[:-1] + ["text"])
    lines = [ln for ln in text.replace(str(HERE.parent), "<repo>").splitlines()
             if not ln.startswith("wall time: ")]
    return {"exit_code": code, "lines": lines}


def _text_reports():
    return json.dumps({name: _text_report(COMMANDS[name]) for name in sorted(COMMANDS)},
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    assert _report(COMMANDS[name]) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_text_report_matches_golden(name):
    assert _text_report(COMMANDS[name]) == json.loads(TEXT.read_text())[name]


def test_every_golden_has_a_command():
    stored = {p.stem for p in GOLDEN.glob("*.json")} - {TEXT.stem}
    assert stored == set(COMMANDS)
    assert set(json.loads(TEXT.read_text())) == set(COMMANDS)


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_text(_report(argv))
    TEXT.write_text(_text_reports())
    print(f"wrote {len(COMMANDS)} reports and their text forms to {GOLDEN}", file=sys.stderr)
