"""No input ends a command in a traceback: derandomized mutations of the
shipped problem files, run under every subcommand.

Each example changes up to two JSON entries of example1.json or vp1.json
and runs one command line on the result, at 64 pairs and 5-point grid axes.
An entry is deleted, replaced by an odd value, or kept well formed but
made odd: an expression wrapped in a function that leaves its domain,
overflows or has a kink (its composed form then dropped), a number scaled.
cli.run must return an exit code of 0-3 and raise nothing, warnings
included.
"""

import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einvex.cli import SUBCOMMANDS, run
from einvex.invexity import KINDS

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
SHIPPED = {name: json.loads((PROBLEMS / f"{name}.json").read_text()) for name in ("example1", "vp1")}

# values a hand-edited file might hold where another was meant
ODD = [None, True, 0, -1, 3, 2.5, 1e308, -1e308, "", " ", "nan", "inf", "x1", "y1", "u1", "((",
       "1/0", "log(-1)", "0^-1", "x1^x1", "exp(1e3)", [], {}, [0], ["x1"], {"raw": "y1"}]
# well-formed changes: an expression keeps its variables, a number its type
WRAPS = ["log({})", "sqrt({})", "cbrt({})", "exp(100*({}))", "({})^-1", "({})^0.5", "-({})",
         "abs({})", "({})^({})", "0*({})"]
SCALES = [-1, 0, 0.5, 10, 1e6]


def _paths(node, path=()):
    """Every entry of a JSON document, containers included, by its key path."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, action, value, wrap, scale):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = _at(doc, head)
    old = parent[last]
    if action == "delete":
        del parent[last]
    elif action == "wrap" and isinstance(old, str):
        parent[last] = wrap.format(old, old)
        if last == "raw":  # composed from the wrapped raw form, not checked against the old one
            parent.pop("composed", None)
    elif action == "scale" and isinstance(old, (int, float)) and not isinstance(old, bool):
        parent[last] = old * scale
    else:
        parent[last] = value
    return doc


def _commands(name, path):
    """One command line of each shape, for the shipped file ``name`` at ``path``."""
    doc = SHIPPED[name]
    cand = doc["candidates"][0]["name"]
    grid = "x".join(["5"] * doc["n"])
    fast = ["--pairs", "64"]
    check = ["check", path, "--function", "f1", "--kind"]
    return ([check + [kind] + fast for kind in KINDS if kind != "invex-set"]
            + [["check", path, "--kind", "invex-set"] + fast,
               check + ["strict-invex", "--at", cand] + fast,
               check + ["quasi-preinvex", "--region", "feasible"] + fast,
               ["kkt", path, "--candidate", cand],
               ["kkt", path, "--candidate", cand, "--verify-supplied"]]
            + [["certify", path, "--candidate", cand, "--theorem", t] + fast
               for t in ("t4", "t5", "t6")]
            + [["oracle", path, "--grid", grid],
               ["oracle", path, "--grid", grid, "--query", cand],
               ["oracle", path, "--grid", grid, "--minimizer", "f1", "--at", cand],
               ["parse", path]])


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    doc = SHIPPED[name]
    for _ in range(draw(st.integers(0, 2))):
        paths = [p for p in _paths(doc) if p]
        leaves = [p for p in paths if not isinstance(_at(doc, p), (dict, list))]
        path = draw(st.sampled_from(leaves) if draw(st.integers(0, 3)) else st.sampled_from(paths))
        doc = _mutated(doc, path, draw(st.sampled_from(["delete", "odd", "wrap", "wrap", "scale"])),
                       draw(st.sampled_from(ODD)), draw(st.sampled_from(WRAPS)),
                       draw(st.sampled_from(SCALES)))
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    shapes = [i for i, argv in enumerate(_commands(name, "")) if argv[0] == command]
    return name, doc, draw(st.sampled_from(shapes))


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_no_mutated_problem_ends_a_command_in_a_traceback(case):
    name, doc, which = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = _commands(name, str(path))[which]
        code, _ = run(argv)
    assert code in (0, 1, 2, 3), argv
