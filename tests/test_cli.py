"""Command line surface: exit codes, JSON schema, determinism, error paths."""

import importlib.metadata
import importlib.resources
import json
import os
import shutil
import subprocess
import sys

import pytest

from einvex.cli import EXIT_BY_CONCLUSION, run


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
    assert cfg["seed"] == 42 and cfg["pairs"] == 500 and cfg["tau"] == 8
    assert cfg["eps"] == 1e-9 and cfg["delta"] == 1e-7 and "threads" not in cfg
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


def test_parse_echoes_both_forms(e1):
    code, text = run(["parse", e1])
    assert code == 0
    assert "f1: raw cbrt(y1 + 3)  composed (x1 + 3)^3" in text
    code, rep = _json(["parse", e1, "--format", "json"])
    assert rep["objectives"][0]["override"] is True
    assert rep["conclusion"] == "pass"


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
    (["--function", "f1", "--kind", "invex", "--naive"], "--naive applies to"),
    (["--function", "f1", "--kind", "epigraph", "--naive"], "--naive applies to"),
    (["--function", "f1", "--kind", "quasi-preinvex", "--levels", "1"], "--levels applies to"),
    (["--function", "f1", "--kind", "invex-set"], "takes no --function"),
], ids=["at-preinvex", "at-epigraph", "naive-invex", "naive-epigraph", "levels-quasi-preinvex",
        "function-invex-set"])
def test_check_refuses_flags_its_kind_ignores(e1, argv, message):
    code, text = run(["check", e1, *argv, "--pairs", "300"])
    assert code == 3 and message in text


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


def test_seed_env_and_flag_precedence(e1, monkeypatch):
    argv = ["check", e1, "--function", "f1", "--kind", "quasi-invex",
            "--pairs", "500", "--format", "json"]
    _, rep = _json(argv)
    assert rep["config"]["seed"] == 42
    monkeypatch.setenv("EINVEX_SEED", "7")
    _, rep = _json(argv)
    assert rep["config"]["seed"] == 7
    _, rep = _json(argv + ["--seed", "9"])
    assert rep["config"]["seed"] == 9


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


def test_scipy_is_declared_and_cli_import_leaves_it_unloaded(repo_root):
    # scipy.optimize takes most of a second to import; only a multiplier solve needs it
    assert any(dep.startswith("scipy") for dep in _project_table(repo_root)["dependencies"])
    out = subprocess.run([sys.executable, "-c",
                          "import sys, einvex.cli; print('scipy.optimize' in sys.modules)"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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
