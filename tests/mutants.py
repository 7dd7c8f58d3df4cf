"""The mutant table of the judging rules, and a runner that applies it.

Each row changes one rule of the code by hand: a comparison loosened or
tightened, a mask dropped, a side condition judged on other points.  A row
names the test that kills the mutant (fails with it in place) or argues in
one line that the mutant is equivalent, so that no test can kill it.
tests/test_mutants.py checks in Tier-1 that every old text occurs exactly
once in its file, so the table moves with the code.

The runner is not part of Tier-1, since a surviving mutant costs a full run
of the suite.  For each row it copies the repository to a temporary
directory, applies the row, runs ``pytest -x`` there (all but
tests/test_mutants.py, which fails on any applied row) and then the named
test alone:

    python tests/mutants.py            # every row
    python tests/mutants.py 0 3        # rows 0 and 3

It exits 1 when a row with a named test survives, or its named test passes,
or a row argued equivalent is killed.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str                       # the file, from the repository root
    old: str                        # text that occurs exactly once in it
    new: str                        # what the mutant has in its place
    killer: Optional[str] = None    # the id of a test that fails on the mutant
    equivalent: Optional[str] = None  # else why no test can kill it


PARETO, INVEXITY, EXPR = "src/einvex/pareto.py", "src/einvex/invexity.py", "src/einvex/expr.py"
BOUNDARY = "tests/test_invexity.py::test_each_kind_on_its_boundary[{}]"
REFERENCE = "tests/test_pareto.py::test_queries_match_the_reference_on_the_oracle_problem[counts0-0.0]"
DIMENSIONS = "tests/test_pareto.py::test_queries_match_the_reference_in_one_to_three_dimensions"
TIE = "tests/test_pareto.py::test_a_block_whose_enclosure_ties_the_bound_is_skipped"

MUTANTS = [
    # the grid query: strictly below every objective, evaluable, feasible
    Mutant(PARETO, "(F < bound).all(axis=1)", "(F <= bound).all(axis=1)", killer=REFERENCE),
    Mutant(PARETO, "better = ~bad & (F < bound)", "better = (F < bound)",
           killer=f"{DIMENSIONS}[counts0--exp(800*y1)--]"),
    Mutant(PARETO, "& (constraint_slacks(problem, pts)[2] <= tol)",
           "& (constraint_slacks(problem, pts)[2] < tol)", killer=f"{DIMENSIONS}[counts2-log(y1)-]"),
    # the gradient and mixture masks (the first three once survived every test)
    Mutant(INVEXITY, "sat = left >= right + (", "sat = left > right + (",
           killer=BOUNDARY.format("invex: D = tol, on the threshold, holds")),
    Mutant(INVEXITY, "P, Q = (s.U, s.V) if kind.mixed else (s.X, s.X0)", "P, Q = (s.X, s.X0)",
           killer=BOUNDARY.format("strict-preinvex: x apart with equal E-images is vacuous")),
    Mutant(INVEXITY, "np.abs(p - q) > tol for", "np.abs(p - q) >= tol for",
           killer=BOUNDARY.format("strict-invex: x = tol from x0 is not apart")),
    Mutant(INVEXITY, "ante = s.A < s.B - tol if kind.pseudo else s.A <= s.B + tol",
           "ante = s.A <= s.B + tol if kind.pseudo else s.A < s.B - tol",
           killer=BOUNDARY.format("quasi-invex: A = B + tol is in the antecedent")),
    Mutant(INVEXITY, "cond = _apart(s.X, s.X0, tol) if kind.strict else None", "cond = None",
           killer=BOUNDARY.format("strict-invex: only apart pairs count")),
    Mutant(INVEXITY, "(s.T > tol) & (s.T < 1.0 - tol)", "(s.T >= 0.0) & (s.T < 1.0 - tol)",
           killer=BOUNDARY.format("strict-preinvex: only interior tau counts")),
    Mutant(INVEXITY, "level + (-cfg.strict_margin if kind.strict else tol)",
           "level + (-cfg.strict_margin if kind.strict else -tol)",
           killer=BOUNDARY.format("preinvex: the level plus tol is the threshold")),
    # the grid: a block skipped at an enclosure tie, feasibility, the minimizer at a tie
    Mutant(PARETO, "box)[0] >= b\n", "box)[0] > b\n", killer=TIE),
    Mutant(PARETO, "box)[0] >= best", "box)[0] > best", killer=TIE),
    Mutant(PARETO, "keep = constraint_slacks(problem, pts)[2] <= tol",
           "keep = constraint_slacks(problem, pts)[2] < tol",
           killer="tests/test_cli.py::test_eps_zero_is_accepted"),
    Mutant(PARETO, "np.all(value <= vals + tol)", "np.all(value < vals + tol)",
           killer="tests/test_pareto.py::test_block_skips_are_exact_at_a_tie[1]"),
    # the first-order residuals pass at a tie with tol
    Mutant("src/einvex/kkt.py", "passes = (r_stat <= tol and", "passes = (r_stat < tol and",
           killer="tests/test_kkt.py::test_solver_finds_exact_multipliers"),
    # the enclosures: one ulp outward, then a relative widening for inexact functions
    Mutant(EXPR, "lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)",
           "lo, hi = lo, hi",
           killer="tests/test_expr_properties.py::test_enclosure_holds_the_float_and_the_exact_values"),
    Mutant(EXPR, "_LOOSE = 2.0 ** -40", "_LOOSE = 2.0 ** -60",
           equivalent="numpy's exp, log and cbrt err by under one ulp here, which the nextafter "
                      "step of _enclose covers alone; the widening guards a libm that errs more"),
]


def _first_failure(output: str) -> str:
    found = re.search(r"^FAILED (.+?)(?: - |$)", output, re.M)
    return found.group(1) if found else "?"


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *args], cwd=copy, env=env, capture_output=True, text=True)


def run_row(i: int, m: Mutant) -> bool:
    """Apply row i to a copy of the repository; True when it behaves as the row says."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        target = copy / m.path
        text = target.read_text()
        if text.count(m.old) != 1:
            print(f"row {i}: {m.old!r} does not occur exactly once in {m.path}", flush=True)
            return False
        target.write_text(text.replace(m.old, m.new))
        suite = _pytest(copy, "-x", "--ignore=tests/test_mutants.py")  # it reads the old text
        what = {0: "survived", 1: f"killed by {_first_failure(suite.stdout)}"}.get(
            suite.returncode, f"no verdict (pytest exit {suite.returncode})")
        if m.equivalent:
            print(f"row {i}: {m.path}: {what} (argued equivalent)", flush=True)
            return suite.returncode == 0
        named = _pytest(copy, m.killer).returncode == 1
        print(f"row {i}: {m.path}: {what}; {m.killer} {'fails' if named else 'PASSES'}",
              flush=True)
        return suite.returncode == 1 and named


def main(argv):
    rows = [int(a) for a in argv] or range(len(MUTANTS))
    ok = [run_row(i, MUTANTS[i]) for i in rows]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
