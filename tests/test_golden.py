"""Golden JSON reports: every command below must reproduce its stored report.

The reports in tests/golden/ are compared byte for byte after dropping
``wall_time_s`` and ``problem.path`` (the only fields that depend on the
machine or the checkout).  They cover the criterion-8 commands, one
``check`` per kind on both shipped problems, and an evaluation failure and
a starved draw for each of the six sampled checkers.

Regenerate after an intended report change with

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
E1 = str(HERE.parent / "problems" / "example1.json")
VP1 = str(HERE.parent / "problems" / "vp1.json")
FAILING = str(GOLDEN / "problems" / "failing.json")   # log, shifted log, cbrt; an infeasible g1
BAD_MAP = str(GOLDEN / "problems" / "bad-map.json")   # E = log(x1) on [-1, 1]
POINT = str(GOLDEN / "problems" / "point.json")       # a one-point box: strict kinds are vacuous

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
    }
    for t in ("t4", "t5", "t6"):
        cmds[f"c8-certify-{t}"] = ["certify", VP1, "--candidate", "ybar", "--theorem", t,
                                   "--pairs", "10000"]
    for kind in KINDS:
        cmds[f"example1-{kind}"] = _check(E1, "f1", kind)
        cmds[f"vp1-f2-feasible-{kind}"] = _check(VP1, "f2", kind, "--region", "feasible")
    for kind in ("invex", "strict-pseudo-invex", "monotone-gradient"):
        cmds[f"vp1-f1-at-ybar-{kind}"] = _check(VP1, "f1", kind, "--at", "ybar")
    cmds["example1-preinvex-naive"] = _check(E1, "f1", "preinvex", "--naive")
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    assert _report(COMMANDS[name]) == (GOLDEN / f"{name}.json").read_text()


def test_every_golden_has_a_command():
    stored = {p.stem for p in GOLDEN.glob("*.json")}
    assert stored == set(COMMANDS)


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_text(_report(argv))
    print(f"wrote {len(COMMANDS)} reports to {GOLDEN}", file=sys.stderr)
