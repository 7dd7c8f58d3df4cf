"""Command line surface: exit codes, JSON schema, determinism, error paths."""

import argparse
import hashlib
import importlib.metadata
import importlib.resources
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from einvex import cli
from einvex.cli import EXIT_BY_CONCLUSION, SUBCOMMANDS, build_parser, run


def _subparsers(parser):
    """The subcommand parsers of ``parser``, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _json(argv):
    code, text = run(argv)
    return code, json.loads(text)


def _stripped(argv):
    """JSON report with the wall-time field removed, for byte comparisons."""
    code, rep = _json(argv)
    rep.pop("wall_time_s", None)
    return code, json.dumps(rep, sort_keys=True)


@pytest.fixture()
def e1(example1_path):
    return str(example1_path)


@pytest.fixture()
def vp1(vp1_path):
    return str(vp1_path)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_matrix(e1, vp1, tmp_path):
    fast = ["--pairs", "500"]
    # 0: holds / pass / certified
    assert run(["check", e1, "--function", "f1", "--kind", "pseudo-invex"] + fast)[0] == 0
    assert run(["kkt", vp1, "--candidate", "ybar"])[0] == 0
    assert run(["certify", vp1, "--candidate", "ybar", "--theorem", "t4"] + fast)[0] == 0
    assert run(["oracle", vp1, "--grid", "11x11"])[0] == 0
    assert run(["parse", e1])[0] == 0
    # 1: fails / not-established / fail
    assert run(["check", e1, "--function", "f1", "--kind", "invex"] + fast)[0] == 1
    assert run(["kkt", vp1, "--candidate", "ybar", "--verify-supplied"])[0] == 1
    assert run(["certify", vp1, "--candidate", "ybar", "--theorem", "t5"] + fast)[0] == 1
    # 2: inconclusive (the antecedent never fires with the base pinned there)
    assert run(["check", e1, "--function", "f1", "--kind", "quasi-invex",
                "--at", "-6"] + fast)[0] == 2
    # 3: bad input of several shapes
    assert run(["check", e1, "--function", "f1", "--kind", "bogus"])[0] == 3
    assert run(["check", e1, "--kind", "invex"] + fast)[0] == 3        # --function missing
    assert run(["check", e1, "--function", "f9", "--kind", "invex"])[0] == 3
    assert run(["kkt", vp1, "--candidate", "nobody"])[0] == 3
    assert run(["oracle", vp1, "--grid", "abc"])[0] == 3
    assert run(["oracle", vp1, "--minimizer", "f1"])[0] == 3           # --at missing
    assert run(["oracle", vp1, "--query", "0,0,0"])[0] == 3            # arity
    assert run(["check", e1, "--function", "f1", "--kind", "level-set",
                "--levels", "-1"] + fast)[0] == 3
    assert run(["check", e1, "--unknown-flag"])[0] == 3
    assert run(["check", str(tmp_path / "missing.json"), "--function", "f1",
                "--kind", "invex"])[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["check", str(bad), "--function", "f1", "--kind", "invex"])[0] == 3


def test_exit_code_matches_reported_conclusion(e1, vp1):
    fast = ["--format", "json", "--pairs", "500"]
    for argv in (
        ["check", e1, "--function", "f1", "--kind", "quasi-invex"] + fast,
        ["check", e1, "--function", "f1", "--kind", "preinvex"] + fast,
        ["kkt", vp1, "--candidate", "ybar", "--format", "json"],
        ["certify", vp1, "--candidate", "ybar", "--theorem", "t6"] + fast,
        ["oracle", vp1, "--grid", "11x11", "--format", "json"],
    ):
        code, rep = _json(argv)
        assert code == EXIT_BY_CONCLUSION[rep["conclusion"]], argv


def test_error_text_goes_with_code_3(e1):
    code, text = run(["check", e1, "--function", "f1", "--kind", "level-set",
                      "--levels", "abc"])
    assert code == 3
    assert text.startswith("error:")


@pytest.mark.parametrize("eps", ["-1e-3", "nan", "inf", "abc"])
def test_eps_must_be_a_finite_nonnegative_number(vp1, eps):
    # a negative slack let a point beat itself (oracle "pareto 1, weak pareto
    # 0"), and nan made every constraint comparison false ("no feasible grid
    # point"); both are usage errors now, for every subcommand
    for argv in (["oracle", vp1, "--grid", "5x5"], ["kkt", vp1, "--candidate", "ybar"]):
        code, text = run(argv + [f"--eps={eps}"])
        assert code == 3, (argv, eps)
        assert text.startswith("error: argument --eps:")


SAMPLING_FLAG_CASES = [
    *(("check", "--delta", v) for v in ("inf", "nan", "0", "-1e-7", "abc")),
    *((cmd, "--eps", "0") for cmd in ("check", "kkt", "certify")),
    ("check", "--pairs", "0"), ("check", "--pairs", "-5"), ("check", "--pairs", "1.5"),
    ("check", "--tau", "2"), ("check", "--tau", "abc"),
    *(("check", "--levels", v) for v in ("abc", "0", "-1", "nan", "inf", "1,,2", "1,1")),
]


@pytest.mark.parametrize("cmd,flag,value", SAMPLING_FLAG_CASES,
                         ids=[v if f == "--delta" else f"{c}{f}={v}" for c, f, v in SAMPLING_FLAG_CASES])
def test_delta_must_be_a_finite_positive_number(e1, vp1, cmd, flag, value):
    # (named for its first flag, whose rows keep their ids) the parser checks
    # every sampling flag, so the error names it: an infinite
    # --delta made every strict kind "fail", --eps 0 and --pairs 0 stopped with
    # SampleConfig messages that named no flag, --levels abc with a float()
    # message, and --levels inf answered "holds"
    base = {"check": ["check", e1, "--function", "f1", "--pairs", "300", "--kind",
                      "level-set" if flag == "--levels" else "strict-invex"],
            "kkt": ["kkt", vp1, "--candidate", "ybar"],
            "certify": ["certify", vp1, "--candidate", "ybar", "--theorem", "t4"]}[cmd]
    code, text = run(base + [f"{flag}={value}"])
    assert code == 3
    assert text.startswith(f"error: argument {flag}:"), text


def test_eps_zero_is_accepted(vp1):
    code, rep = _json(["oracle", vp1, "--grid", "5x5", "--eps", "0", "--format", "json"])
    assert code == 0
    assert rep["config"]["eps"] == 0.0
    assert rep["pareto_count"] == rep["weak_pareto_count"] == 1


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------


def test_json_report_schema(e1):
    code, rep = _json(["check", e1, "--function", "f1", "--kind", "invex",
                       "--pairs", "500", "--format", "json"])
    assert code == 1
    assert rep["tool"]["name"] == "einvex"
    assert rep["command"] == "check"
    assert rep["problem"]["path"] == e1
    assert len(rep["problem"]["sha256"]) == 64
    cfg = rep["config"]
    assert cfg["seed"] == 42 and cfg["pairs"] == 500 and cfg["eps"] == 1e-9
    assert "tau" not in cfg and "delta" not in cfg and "threads" not in cfg  # invex reads neither
    assert cfg["kind"] == "invex" and cfg["function"] == "f1"
    assert rep["conclusion"] == "fails"
    w = rep["verdict"]["witness"]
    assert set(w) >= {"x", "x0", "left", "right", "comparison", "index"}
    assert isinstance(rep["wall_time_s"], float)


def test_kkt_verify_supplied_surfaces_the_alternative(vp1):
    code, rep = _json(["kkt", vp1, "--candidate", "ybar", "--verify-supplied",
                       "--format", "json"])
    assert code == 1
    assert rep["conclusion"] == "fail"
    assert rep["residual"]["r_stationarity"] == pytest.approx(0.25, abs=1e-12)
    alt = rep["solved_alternative"]["point"]
    assert alt["rho"] == pytest.approx([0.75, 0.75], abs=1e-12)
    assert "consistent multiplier vector exists" in rep["note"]

    code, text = run(["kkt", vp1, "--candidate", "ybar", "--verify-supplied"])
    assert code == 1
    assert "consistent alternative:" in text
    assert "stationarity=0.25" in text


def test_kkt_solve_reports_multipliers(vp1):
    code, rep = _json(["kkt", vp1, "--candidate", "ybar", "--format", "json"])
    assert code == 0
    assert rep["conclusion"] == "pass"
    assert rep["point"]["tau"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert rep["residual"]["passes"] is True


def test_certify_reports_hypotheses(vp1):
    code, rep = _json(["certify", vp1, "--candidate", "ybar", "--theorem", "t6",
                       "--pairs", "500", "--format", "json"])
    assert code == 0
    cert = rep["certificate"]
    assert cert["tag"] == "WeakPareto-T6"
    assert [h["target"] for h in cert["hypotheses"]] == ["f1", "f2", "g1", "g2"]
    assert all(h["verdict"]["status"] == "holds" for h in cert["hypotheses"])

    code, rep = _json(["certify", vp1, "--candidate", "ybar", "--theorem", "t4",
                       "--use-supplied", "--pairs", "500", "--format", "json"])
    assert code == 1
    assert rep["conclusion"] == "not-established"
    assert rep["certificate"]["reason"].startswith("point does not satisfy")


def test_certify_text_gives_each_inconclusive_hypothesis_its_reason(tmp_path):
    # the feasible set of an equality constraint has no volume, so every draw starves
    path = tmp_path / "equality.json"
    path.write_text(json.dumps({
        "n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"], "objectives": ["y1 - y2"],
        "eq": ["y1 - y2"], "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "candidates": [{"name": "origin", "x": [0.0, 0.0]}]}))
    code, text = run(["certify", str(path), "--candidate", "origin", "--theorem", "t4",
                      "--pairs", "300"])
    assert code == 2
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("  [inconclusive]")]
    assert len(heads) == 2
    for i in heads:
        assert lines[i + 1] == ("      reason: could not draw 300 points from region 'feasible' "
                                "(0 accepted after 65536 proposals)")


def test_parse_echoes_both_forms(e1):
    code, text = run(["parse", e1])
    assert code == 0
    assert "f1: raw cbrt(y1 + 3)  composed (x1 + 3)^3" in text
    code, rep = _json(["parse", e1, "--format", "json"])
    assert rep["objectives"][0]["override"] is True
    assert rep["conclusion"] == "pass"


def test_a_character_outside_the_grammar_is_a_parse_error(example1_path, tmp_path):
    # a non-ASCII letter used to crash the lexer with AttributeError (exit 1)
    data = json.loads(example1_path.read_text())
    data["objectives"][0]["raw"] = "cbrt(y1+3) + \u00e9"
    path = tmp_path / "accent.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    code, text = run(["parse", str(path)])
    assert (code, text) == (3, "error: objectives[0].raw: syntax error at offset 14: "
                               "unexpected character '\u00e9'")


@pytest.mark.parametrize("raw, message", [
    ("(" * 200 + "cbrt(y1)" + ")" * 200,
     "objectives[0].raw: syntax error at offset 66: expression nested deeper than 64 levels"),
    (" + ".join(["y1"] * 1000),
     "objectives[0].raw: syntax error at offset 1279: expression deeper than 256 levels"),
    (" + ".join(["y1"] * 256),
     "objectives[0].composed: the function composed with E is 257 levels deep, more than 256"),
], ids=["200 parentheses", "a 1000-term sum", "a sum at the bound composed with x^3"])
def test_a_deep_expression_is_a_located_load_error(vp1_path, tmp_path, raw, message):
    # each used to end cli.run in a RecursionError, and the process in exit code 1
    data = json.loads(vp1_path.read_text())
    data["objectives"][0] = {"raw": raw}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    for command in (["parse"], ["check", "--function", "f2", "--kind", "invex", "--pairs", "64"]):
        assert run([command[0], str(path), *command[1:]]) == (3, f"error: {message}")
    with pytest.raises(SystemExit) as exc:
        cli.main(["parse", str(path)])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["parse", "{e1}", "--format", "json"],
    ["kkt", "{vp1}", "--candidate", "ybar", "--format", "json"],
    ["oracle", "{vp1}", "--grid", "5", "--query", "ybar", "--format", "json"],
], ids=["parse", "kkt", "oracle"])
def test_a_command_reads_its_file_once_and_hashes_what_it_read(e1, vp1, tmp_path, monkeypatch,
                                                                argv):
    # a writer replaces the file right after the one read: the report's
    # digest and its contents both come from the bytes that were read
    path = tmp_path / "problem.json"
    shutil.copy(vp1 if "{vp1}" in argv else e1, path)
    loaded = path.read_bytes()
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["y1"],
                                 "box": {"lo": [0], "hi": [1]}}))
    opened = []

    def counting_open(file, *args, _open=open, **kwargs):
        handle = _open(file, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            opened.append(file)
            if len(opened) == 1:
                os.replace(other, path)
        return handle

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr("io.open", counting_open)
    code, rep = _json([a.format(e1=str(path), vp1=str(path)) for a in argv])
    assert code == 0, rep
    assert len(opened) == 1
    assert rep["problem"]["sha256"] == hashlib.sha256(loaded).hexdigest()


def test_a_file_that_is_not_utf8_is_refused_with_its_path(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["y1"], '
                     '"box": {"lo": [0], "hi": [1]}, "note": "é"}'.encode("latin-1"))
    code, text = run(["parse", str(path)])
    assert code == 3
    assert text.startswith(f"error: {path}: cannot decode file as UTF-8: "), text
    assert "0xe9" in text


def test_check_text_mentions_sample_count(e1):
    code, text = run(["check", e1, "--function", "f1", "--kind", "pseudo-invex",
                      "--pairs", "500"])
    assert code == 0
    assert "no violation in 1000 samples" in text  # both pair orientations


def test_oracle_query_and_csv(vp1, tmp_path):
    code, rep = _json(["oracle", vp1, "--grid", "41x41", "--query", "ybar",
                       "--format", "json"])
    assert code == 0 and rep["weak_pareto"] is True

    code, rep = _json(["oracle", vp1, "--grid", "41x41", "--query", "1,1",
                       "--format", "json"])
    assert code == 1
    assert rep["witness"]["x"] == [0.0, 0.0]

    out = tmp_path / "grid.csv"
    code, rep = _json(["oracle", vp1, "--grid", "5x5", "--csv", str(out),
                       "--format", "json"])
    assert code == 0
    assert rep["csv"] == {"path": str(out), "rows": 25}
    assert out.exists()


def test_oracle_minimizer(vp1):
    code, rep = _json(["oracle", vp1, "--minimizer", "f1", "--at", "0,0",
                       "--format", "json"])
    assert code == 0
    assert rep["minimizer"]["is_minimizer"] is True
    assert rep["minimizer"]["gradient_inf_norm"] == pytest.approx(1.0)


def test_oracle_csv_with_a_query_is_refused(vp1, tmp_path):
    out = tmp_path / "grid.csv"
    code, text = run(["oracle", vp1, "--grid", "5x5", "--query", "1,1", "--csv", str(out)])
    assert code == 3 and "--csv" in text
    assert not out.exists()
    code, text = run(["oracle", vp1, "--grid", "5x5", "--minimizer", "f1", "--at", "ybar",
                      "--csv", str(out)])
    assert code == 3 and "--csv" in text
    assert not out.exists()


def test_oracle_query_with_a_minimizer_is_refused(vp1):
    # the failing query used to be dropped and the run reported pass
    code, text = run(["oracle", vp1, "--grid", "5x5", "--query", "1,1",
                      "--minimizer", "f1", "--at", "ybar"])
    assert code == 3 and "--query" in text and "--minimizer" in text


def test_oracle_at_without_a_minimizer_is_refused(vp1):
    code, text = run(["oracle", vp1, "--grid", "5x5", "--at", "ybar"])
    assert code == 3 and "--at" in text


def test_oracle_refuses_points_outside_the_box(e1, tmp_path):
    # example1's box is [-6, 0]; -9 used to pass both checks
    code, text = run(["oracle", e1, "--grid", "5", "--query", "-9"])
    assert code == 3 and "[-9.0]" in text and "outside the box" in text
    code, text = run(["oracle", e1, "--grid", "5", "--minimizer", "f1", "--at", "-9"])
    assert code == 3 and "[-9.0]" in text and "outside the box" in text
    # the minimizer point is admitted before its objective is evaluated there
    logbox = tmp_path / "log.json"
    logbox.write_text(json.dumps({
        "n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["log(y1)"],
        "box": {"lo": [1.0], "hi": [2.0]}}))
    code, text = run(["oracle", str(logbox), "--grid", "5", "--minimizer", "f1", "--at=-1"])
    assert code == 3 and "point [-1.0] lies outside the box" in text
    # a problem-file candidate outside the box used to be listed as Pareto
    prob = tmp_path / "outside.json"
    prob.write_text(json.dumps({
        "n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["y1"],
        "box": {"lo": [0.0], "hi": [1.0]}, "candidates": [{"name": "c", "x": [5.0]}]}))
    code, text = run(["oracle", str(prob), "--grid", "5"])
    assert code == 3 and "[5.0]" in text and "outside the box" in text


@pytest.fixture()
def vp1_outside(vp1_path, tmp_path):
    """vp1 with a candidate at (3, 0): its constraints hold there, the box [0, 2]^2 does not."""
    data = json.loads(vp1_path.read_text())
    data["candidates"].append({"name": "out", "x": [3, 0], "tau": [0.5, 0.5], "rho": [1, 1]})
    path = tmp_path / "vp1-outside.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command,flags", [
    ("kkt", []),
    ("kkt", ["--verify-supplied"]),
    ("certify", ["--theorem", "t4"]),
    ("certify", ["--theorem", "t4", "--use-supplied"]),
    ("oracle", ["--grid", "5x5", "--query", "out"]),
    ("check", ["--function", "f1", "--kind", "invex", "--at", "out"]),
    ("check", ["--function", "f1", "--kind", "invex", "--at", "out", "--region", "feasible"]),
], ids=["kkt", "kkt-verify-supplied", "certify", "certify-use-supplied", "oracle-query",
        "check-at-box", "check-at-feasible"])
def test_every_command_refuses_a_candidate_outside_the_box(vp1_outside, command, flags):
    if command in ("kkt", "certify"):
        flags = ["--candidate", "out", *flags]
    code, text = run([command, vp1_outside, *flags])
    assert code == 3
    assert "[3.0, 0.0] lies outside the box [[0.0, 0.0], [2.0, 2.0]]" in text


def test_check_at_is_admitted_by_the_rule_of_its_region(e1, vp1_path, tmp_path):
    # example1's box is [-6, 0]; -9 used to answer "holds"
    code, text = run(["check", e1, "--function", "f1", "--kind", "invex", "--at", "-9",
                      "--pairs", "300"])
    assert code == 3 and "--at point [-9.0] lies outside the box" in text
    # on vp1 over [-1, 2]^2 the point (-0.5, 0.5) is in the box but infeasible
    data = json.loads(vp1_path.read_text())
    data["box"] = {"lo": [-1, -1], "hi": [2, 2]}
    wide = tmp_path / "vp1-wide.json"
    wide.write_text(json.dumps(data))
    base = ["check", str(wide), "--function", "f2", "--kind", "monotone-gradient",
            "--at=-0.5,0.5", "--pairs", "300"]
    assert run(base)[0] != 3
    code, text = run(base + ["--region", "feasible"])
    assert code == 3 and "--at point [-0.5, 0.5] infeasible (worst violation 0.5)" in text


@pytest.mark.parametrize("argv,message", [
    (["--function", "f1", "--kind", "preinvex", "--at", "xbar"], "--at pins the base point"),
    (["--function", "f1", "--kind", "epigraph", "--at", "-1"], "--at pins the base point"),
    (["--function", "f1", "--kind", "preinvex", "--naive"], "unrecognized arguments: --naive"),
    (["--function", "f1", "--kind", "quasi-preinvex", "--levels", "1"], "--levels applies to"),
    (["--function", "f1", "--kind", "invex-set"], "takes no --function"),
    (["--function", "f1", "--kind", "invex", "--tau", "4"], "invex draws none"),
    (["--function", "f1", "--kind", "preinvex", "--delta", "1e-6"], "preinvex makes none"),
], ids=["at-preinvex", "at-epigraph", "naive-preinvex", "levels-quasi-preinvex",
        "function-invex-set", "tau-invex", "delta-preinvex"])
def test_check_refuses_flags_its_kind_ignores(e1, argv, message):
    code, text = run(["check", e1, *argv, "--pairs", "300"])
    assert code == 3 and message in text


GRADIENT_KINDS = ("invex", "strict-invex", "quasi-invex", "pseudo-invex", "strict-pseudo-invex",
                  "monotone-gradient", "strict-monotone-gradient")
OTHER_KINDS = ("preinvex", "strict-preinvex", "quasi-preinvex", "strict-quasi-preinvex",
               "epigraph", "level-set", "invex-set")
THEOREM_NAMES = ("t4", "t5", "t6", "remark")
READ_BY = {  # flag -> the check kinds and certify theorems that read it
    "--at": set(GRADIENT_KINDS),
    "--tau": set(OTHER_KINDS),
    "--delta": {k for k in GRADIENT_KINDS + OTHER_KINDS if k.startswith("strict-")} | {"t5"},
    "--levels": {"level-set"},
    "--function": set(GRADIENT_KINDS + OTHER_KINDS) - {"invex-set"},
}
FLAG_VALUES = {"--at": ("-3", [-3.0]), "--tau": ("4", 4), "--delta": ("1e-6", 1e-6),
               "--levels": ("1", [1.0]), "--function": ("f1", "f1")}  # given, echoed
FLAG_CASES = [(flag, kind) for flag in FLAG_VALUES for kind in GRADIENT_KINDS + OTHER_KINDS]
FLAG_CASES += [("--delta", theorem) for theorem in THEOREM_NAMES]


@pytest.mark.parametrize("flag,target", FLAG_CASES,
                         ids=[t if f == "--at" else f"{f[2:]}-{t}" for f, t in FLAG_CASES])
def test_at_goes_with_exactly_the_gradient_kinds(e1, vp1, flag, target):
    # (named for its first flag, whose rows keep their ids) a check kind or a
    # certify theorem takes exactly the flags it reads: one it reads is echoed
    # in config, any other exits 3 naming the flag and the kind or theorem
    if target in THEOREM_NAMES:
        argv = ["certify", vp1, "--candidate", "ybar", "--theorem", target]
    else:
        fn = [] if target == "invex-set" or flag == "--function" else ["--function", "f1"]
        argv = ["check", e1, *fn, "--kind", target]
    given, echoed = FLAG_VALUES[flag]
    code, text = run([*argv, flag, given, "--pairs", "50", "--format", "json"])
    if target in READ_BY[flag]:
        assert code != 3, text
        assert json.loads(text)["config"][flag[2:]] == echoed
    else:
        assert code == 3 and flag in text, text
        named = {"--at": f"{target} has none", "--levels": "level-set only"}.get(flag, target)
        assert named in text, text


def test_check_help_lists_the_kinds_in_order(capsys):
    with pytest.raises(SystemExit):
        run(["check", "--help"])
    listed = re.search(r"--kind \{([^}]*)\}", capsys.readouterr().out).group(1)
    assert listed.split(",") == ["preinvex", "strict-preinvex", "quasi-preinvex",
                                 "strict-quasi-preinvex", *GRADIENT_KINDS,
                                 "epigraph", "level-set", "invex-set"]


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_a_one_command_parser_prints_the_same_help(command):
    one = _subparsers(build_parser(command))
    assert list(one) == [command]
    assert one[command].format_help() == _subparsers(build_parser())[command].format_help()


USAGE_ERRORS = {  # test id -> a command line that exits before any subcommand runs
    "no-command": [],
    "unknown-command": ["frobnicate", "{e1}"],
    "version": ["--version"],
    "help": ["--help"],
    "check-help": ["check", "--help"],
    "kkt-no-problem": ["kkt"],
    "unknown-flag": ["check", "{e1}", "--kind", "invex", "--function", "f1", "--bogus"],
    "bad-kind": ["check", "{e1}", "--kind", "nope", "--function", "f1"],
    "check-version": ["check", "{e1}", "--kind", "invex", "--function", "f1", "--version"],
    "negative-at": ["check", "{e1}", "--kind", "invex", "--function", "f1", "--at", "-0.5,1"],
}


def _outcome(argv, capsys):
    """(exit code and text, or ("exit", code) where argparse exits; captured streams)."""
    try:
        result = run(argv)
    except SystemExit as e:  # --help and --version print and exit
        result = ("exit", e.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_a_one_command_parser_fails_as_the_full_one(e1, monkeypatch, capsys, argv):
    argv = [a.format(e1=e1) for a in argv]
    got = _outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == _outcome(argv, capsys)
    assert got[0][0] in (3, "exit"), got


def test_a_command_registers_only_its_own_subparser(vp1, monkeypatch):
    # parsers are built once per process: start from none built
    cli._built_parser.cache_clear()
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw))
    assert run(["kkt", vp1, "--candidate", "ybar"])[0] == 0
    assert added == ["kkt"]
    assert run(["kkt", vp1, "--candidate", "ybar"])[0] == 0
    assert added == ["kkt"]
    build_parser()
    assert added == ["kkt", *SUBCOMMANDS]


def test_a_reused_parser_behaves_as_a_fresh_one(e1, vp1, capsys):
    """Every usage error, each followed by a valid oracle run, twice in one
    process: the first round starts with no parser built, the second reuses
    every parser the first built."""
    valid = ["oracle", vp1, "--grid", "5x5", "--format", "json"]

    def one_round():
        seen = []
        for argv in USAGE_ERRORS.values():
            seen.append(_outcome([a.format(e1=e1) for a in argv], capsys))
            (code, text), streams = _outcome(valid, capsys)
            rep = json.loads(text)
            rep.pop("wall_time_s")
            seen.append((code, rep, streams))
        return seen

    cli._built_parser.cache_clear()
    first = one_round()
    assert all(result[0] in (3, "exit") for result, _ in first[::2])
    assert all(code == 0 for code, _, _ in first[1::2])
    assert one_round() == first


def test_the_parser_cache_holds_one_parser_per_subcommand_at_most(e1, capsys):
    cli._built_parser.cache_clear()
    for first in ("frobnicate", "--help", e1, "-x", "", "oracle", "check", "oracle"):
        try:
            run([first, e1])
        except SystemExit:  # --help
            pass
        build_parser(first)
    capsys.readouterr()
    assert cli._built_parser.cache_info().currsize == 3  # oracle, check and the full parser
    assert build_parser("frobnicate") is build_parser("--help") is build_parser()
    assert build_parser("oracle") is build_parser("oracle") is not build_parser()
    for name in SUBCOMMANDS:
        build_parser(name)
    assert cli._built_parser.cache_info().currsize == len(SUBCOMMANDS) + 1


def test_a_box_without_finite_bounds_is_refused(tmp_path):
    # Python's json reads -Infinity; the grid oracle answered from nan points
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["y1"],
        "box": {"lo": [-math.inf], "hi": [math.inf]}, "candidates": [{"name": "z", "x": [0.0]}]}))
    assert "-Infinity" in path.read_text()
    for argv in (["oracle", str(path), "--grid", "5"], ["oracle", str(path), "--query", "z"],
                 ["check", str(path), "--function", "f1", "--kind", "invex", "--pairs", "50"]):
        code, text = run(argv)
        assert code == 3 and text.startswith("error: box: "), (argv, text)


def test_invex_set_kind_needs_no_function(vp1, tmp_path):
    code, rep = _json(["check", vp1, "--kind", "invex-set", "--pairs", "500",
                       "--format", "json"])
    assert code == 1  # the image of the cube map escapes the box
    box = tmp_path / "box.json"
    box.write_text(json.dumps({
        "n": 1, "E": ["x1"], "eta": ["u1 - v1"], "objectives": ["y1^2"],
        "box": {"lo": [0.0], "hi": [1.0]}}))
    assert run(["check", str(box), "--kind", "invex-set", "--pairs", "500"])[0] == 0


# ---------------------------------------------------------------------------
# determinism and configuration
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_modulo_wall_time(e1, vp1):
    for argv in (
        ["check", e1, "--function", "f1", "--kind", "invex",
         "--pairs", "500", "--format", "json"],
        ["kkt", vp1, "--candidate", "ybar", "--format", "json"],
        ["oracle", vp1, "--grid", "21x21", "--format", "json"],
    ):
        assert _stripped(argv) == _stripped(argv), argv


@pytest.fixture()
def square(tmp_path):
    """Two objectives on [-1, 1]^2 with no constraints and no domain edges."""
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "n": 2, "E": ["x1", "x2"], "eta": ["u1 - v1", "u2 - v2"],
        "objectives": ["y1^2 + y2", "y2^2 - y1"], "box": {"lo": [-1, -1], "hi": [1, 1]}}))
    return str(path)


@pytest.mark.parametrize("value", ["-0.5,0.5", "-.5,1", "-1e-3"])
@pytest.mark.parametrize("argv", [
    ["check", "--function", "f1", "--kind", "invex", "--pairs", "300", "--at"],
    ["oracle", "--grid", "5", "--minimizer", "f1", "--at"],
    ["oracle", "--grid", "5", "--query"],
], ids=["check-at", "oracle-at", "oracle-query"])
def test_negative_point_lists_parse_as_values(e1, square, argv, value):
    # argparse takes a token that starts with a minus and is not one plain
    # number for an option; each form must read as --flag=value does
    command, *flags, flag = argv
    head = [command, e1 if value == "-1e-3" else square, *flags]
    joined = _stripped(head + [f"{flag}={value}", "--format", "json"])
    assert joined[0] != 3
    assert _stripped(head + [flag, value, "--format", "json"]) == joined


def test_a_point_flag_followed_by_an_option_is_a_usage_error(e1):
    code, text = run(["check", e1, "--function", "f1", "--kind", "invex", "--at",
                      "--format", "json"])
    assert code == 3 and "argument --at: expected one argument" in text


def test_seed_is_the_flag_else_42_whatever_the_environment(e1, monkeypatch):
    # a report depends only on its command line and its problem file: an
    # EINVEX_SEED in the environment, integer or not, changes nothing
    argv = ["check", e1, "--function", "f1", "--kind", "quasi-invex",
            "--pairs", "500", "--format", "json"]
    monkeypatch.delenv("EINVEX_SEED", raising=False)
    plain, seeded = _stripped(argv), _stripped(argv + ["--seed", "9"])
    assert json.loads(plain[1])["config"]["seed"] == 42
    assert json.loads(seeded[1])["config"]["seed"] == 9
    for value in ("abc", "7"):
        monkeypatch.setenv("EINVEX_SEED", value)
        assert _stripped(argv) == plain
        assert _stripped(argv + ["--seed", "9"]) == seeded


SETTINGS = {"eps", "seed", "pairs", "tau", "delta"}
CONFIG_ARGV = {  # one run per command, with the settings of SETTINGS that run reads
    "parse": (["parse", "{e1}"], set()),
    "check": (["check", "{e1}", "--function", "f1", "--kind", "level-set", "--levels", "1",
               "--pairs", "300"], {"eps", "seed", "pairs", "tau"}),  # level-set is not strict
    "kkt": (["kkt", "{vp1}", "--candidate", "ybar"], {"eps"}),
    "certify": (["certify", "{vp1}", "--candidate", "ybar", "--theorem", "t4", "--pairs", "300"],
                {"eps", "seed", "pairs"}),  # t4 has no strict hypothesis
    "oracle": (["oracle", "{e1}", "--grid", "11", "--minimizer", "f1", "--at", "xbar"], {"eps"}),
}


def _declared(command):
    """The dests of the options a subcommand declares, without help and the problem."""
    return {a.dest for a in _subparsers(build_parser())[command]._actions} - {"help", "problem"}


@pytest.mark.parametrize("argv", [
    ["kkt", "{vp1}", "--candidate", "ybar", "--pairs", "10"],
    ["kkt", "{vp1}", "--candidate", "ybar", "--seed", "1"],
    ["kkt", "{vp1}", "--candidate", "ybar", "--tau", "4"],
    ["kkt", "{vp1}", "--candidate", "ybar", "--delta", "1e-6"],
    ["certify", "{vp1}", "--candidate", "ybar", "--theorem", "t4", "--tau", "4"],
    ["parse", "{vp1}", "--eps", "0"],
], ids=["kkt-pairs", "kkt-seed", "kkt-tau", "kkt-delta", "certify-tau", "parse-eps"])
def test_a_command_takes_only_the_settings_it_reads(vp1, argv):
    code, text = run([a.format(vp1=vp1) for a in argv])
    assert code == 3 and text.startswith("error: unrecognized arguments: "), text


@pytest.mark.parametrize("command", sorted(CONFIG_ARGV))
def test_config_echoes_the_settings_a_command_declares(e1, vp1, command):
    # (named for its old rule) config echoes exactly the settings the run
    # reads, an unset --tau or --delta at its default; the others it declares
    argv, reads = CONFIG_ARGV[command]
    code, rep = _json([a.format(e1=e1, vp1=vp1) for a in argv] + ["--format", "json"])
    assert code in (0, 1), rep
    declared, config = _declared(command), set(rep["config"])
    assert config <= declared
    assert config & SETTINGS == reads
    if command != "oracle":  # --csv, --query and --minimizer are modes, echoed when given
        assert config == declared - (SETTINGS - reads)
    if "tau" in reads:
        assert rep["config"]["tau"] == 8
    if command == "kkt":
        assert declared == {"format", "eps", "candidate", "verify_supplied"}


def test_closed_stdout_exits_quietly_with_the_verdict_code(e1):
    argv = ["check", e1, "--function", "f1", "--kind", "invex", "--pairs", "2000"]
    r, w = os.pipe()
    os.close(r)  # no reader: the child's first write meets a broken pipe
    try:
        out = subprocess.run([sys.executable, "-m", "einvex.cli", *argv], stdout=w,
                             stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert "Traceback" not in out.stderr and "BrokenPipeError" not in out.stderr, out.stderr
    assert out.returncode == run(argv)[0] == 1


def test_packaged_problems_match_repo_copies(problems_dir):
    pkg = importlib.resources.files("einvex") / "problems"
    for name in ("example1.json", "vp1.json"):
        assert (pkg / name).read_bytes() == (problems_dir / name).read_bytes()


def test_version_subprocess():
    out = subprocess.run([sys.executable, "-m", "einvex.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "einvex 0.1.0"


def _project_table(repo_root):
    """The ``[project]`` table of ``pyproject.toml``; tomli stands in before 3.11."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with open(repo_root / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_numpy_is_the_only_runtime_dependency(repo_root, vp1_path):
    # the multipliers come from a numpy simplex: kkt and certify never load scipy
    project = _project_table(repo_root)
    assert [re.match(r"[\w-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
    # the suite imports hypothesis (test_expr_properties), and scipy is the
    # multiplier reference of test_kkt_highs, so `pip install .[test]` needs them
    test_extra = {re.match(r"[\w-]+", dep).group() for dep in project["optional-dependencies"]["test"]}
    assert {"pytest", "hypothesis", "scipy"} <= test_extra
    script = (f"import sys\nfrom einvex.cli import run\n"
              f"assert run(['kkt', {str(vp1_path)!r}, '--candidate', 'ybar'])[0] == 0\n"
              f"assert run(['certify', {str(vp1_path)!r}, '--candidate', 'ybar', "
              f"'--theorem', 't4', '--pairs', '500'])[0] == 0\n"
              f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_console_script_is_installed(repo_root):
    """The declared ``einvex`` script resolves, runs and reports the package version.

    Checked from the source tree: the entry point is loaded from
    ``[project.scripts]`` and run the way an installer's console-script
    wrapper runs it, so no installed executable is needed.
    """
    project = _project_table(repo_root)
    ep = importlib.metadata.EntryPoint(
        name="einvex", value=project["scripts"]["einvex"], group="console_scripts")
    assert callable(ep.load())
    wrapper = (f"import sys\nfrom {ep.module} import {ep.attr}\n"
               f"sys.argv[0] = 'einvex'\nsys.exit({ep.attr}())\n")
    out = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"einvex {project['version']}"


@pytest.mark.skipif(shutil.which("einvex") is None, reason="no einvex executable on PATH")
def test_installed_executable_reports_version(repo_root):
    out = subprocess.run(["einvex", "--version"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"einvex {_project_table(repo_root)['version']}"
