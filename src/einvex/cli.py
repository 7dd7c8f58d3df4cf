"""Command line interface.

Subcommands: parse, check, kkt, certify, oracle.  Every run prints either a
human-readable report or, with --format json, a machine-readable one whose
bytes are identical across reruns with the same flags (except the wall-time
field).  Exit codes: 0 holds/certified/pass, 1 fails/not-established,
2 inconclusive, 3 bad input, such as an ignored flag or a point outside
the box or, judged on the feasible set, infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import (CliUsageError, EinvexError, InfeasibleMultipliersError)
from .invexity import KINDS, check
from .kkt import THEOREMS, KktPoint, certify, solve_multipliers, verify_kkt_point
from .pareto import GridSpec, dump_csv, e_minimizer_check, grid_oracle, is_weak_pareto
from .problem import (SampleConfig, _jsonable, box_region, feasible_region, load_problem,
                      point_slacks, require_in_box)

EXIT_BY_CONCLUSION = {
    "holds": 0, "pass": 0, "certified": 0,
    "fails": 1, "fail": 1, "not-established": 1, "infeasible": 1,
    "inconclusive": 2,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 3, not 2."""

    def error(self, message):
        raise CliUsageError(message)


def _number(text, ok, rule, cast=float):
    try:
        value = cast(text)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise argparse.ArgumentTypeError(f"expects {what}, got {text!r}") from None
    if not (math.isfinite(value) and ok(value)):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return value


def _eps(text):
    """--eps of oracle: a finite slack >= 0; a negative one would let a point
    beat itself."""
    return _number(text, lambda v: v >= 0.0, "finite and >= 0")


def _positive(text):
    """--delta, and --eps of check, kkt and certify: finite and > 0, as
    SampleConfig needs; an infinite margin would fail every strict kind.  The
    value is checked wherever given; only a strict check kind or theorem t5
    reads --delta, and any other run refuses it (_sample_config)."""
    return _number(text, lambda v: v > 0.0, "finite and > 0")


def _at_least(least):
    """An integer flag with the lower bound SampleConfig needs: --pairs 1, --tau 3."""
    return lambda text: _number(text, lambda v: v >= least, f"at least {least}", int)


def _levels(text):
    """--levels: comma-separated thresholds on exp(f), each finite and > 0,
    and each given once: a repeated level would be judged twice."""
    levels = [_positive(item) for item in text.split(",")]
    if len(set(levels)) < len(levels):
        raise argparse.ArgumentTypeError(f"must not repeat a level, got {text!r}")
    return levels


_DEFAULTS = SampleConfig()  # the defaults of the sampling flags


def _common(sp, eps=_positive, sampling=True):
    """The problem, --format, and --eps and the sampling flags where read."""
    sp.add_argument("problem", help="problem JSON file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    if eps:
        sp.add_argument("--eps", type=eps, default=_DEFAULTS.tol,
                        help="slack for non-strict comparisons (default 1e-9)")
    if sampling:
        sp.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                        help=f"sampling seed (default {_DEFAULTS.seed})")
        sp.add_argument("--pairs", type=_at_least(1), default=_DEFAULTS.n_pairs)
        sp.add_argument("--delta", type=_positive,  # None when not given: see _sample_config
                        help="required margin for strict comparisons (default 1e-7)")


def _parse_flags(sp):
    _common(sp, eps=None, sampling=False)


def _check_flags(sp):
    _common(sp)
    sp.add_argument("--tau", type=_at_least(3),
                    help=f"mixture weights per pair, anchors 0, 1/2, 1 included (default {_DEFAULTS.n_tau})")
    sp.add_argument("--function", help="f1/g1/h1-style name (not needed for invex-set)")
    sp.add_argument("--kind", required=True, choices=tuple(KINDS))
    sp.add_argument("--at", help="candidate name or comma-separated coordinates for the base point")
    sp.add_argument("--region", choices=("box", "feasible"), default="box")
    sp.add_argument("--levels", type=_levels,
                    help="comma-separated positive thresholds for level-set checks")


def _kkt_flags(sp):
    _common(sp, sampling=False)
    sp.add_argument("--candidate", required=True)
    sp.add_argument("--verify-supplied", action="store_true",
                    help="verify the multipliers stored on the candidate instead of solving")


def _certify_flags(sp):
    _common(sp)
    sp.add_argument("--candidate", required=True)
    sp.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    sp.add_argument("--use-supplied", action="store_true",
                    help="take multipliers from the candidate instead of solving")


def _oracle_flags(sp):
    _common(sp, eps=_eps, sampling=False)
    sp.add_argument("--grid", default="33", help="points per axis, e.g. 41x41 or 33")
    sp.add_argument("--query", help="candidate name or coordinates: is this point weak Pareto?")
    sp.add_argument("--csv", help="write per-point classification to this CSV file")
    sp.add_argument("--minimizer", metavar="FUNC",
                    help="check that --at globally minimizes FUNC over the box grid")
    sp.add_argument("--at", help="point for --minimizer (candidate name or coordinates)")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of the command line.  When ``command`` names a subcommand,
    only that one is registered, and a command line that starts with it
    parses, and fails, as under the full parser.  Any other value (None, an
    unknown name, an option such as --help) registers all of them.

    Each of these len(SUBCOMMANDS) + 1 parsers is built once per process and
    shared by every caller, who must not modify it: no flag has a mutable
    default or an append action, and parse_args leaves the parser as it was.
    """
    return _built_parser(command if command in SUBCOMMANDS else None)


@functools.lru_cache(maxsize=None)  # keyed on a name of SUBCOMMANDS or None
def _built_parser(command):
    p = _Parser(prog="einvex", description=__doc__.splitlines()[0] if __doc__ else "")
    p.add_argument("--version", action="version", version=f"einvex {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in (command,) if command else SUBCOMMANDS:
        help_text, add_flags, _ = SUBCOMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return p


def _resolve_point(problem, text):
    try:
        return problem.candidate(text).x
    except KeyError:
        pass
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliUsageError(f"--at/--query expects a candidate name or comma-separated "
                            f"coordinates, got {text!r}") from None
    if len(vals) != problem.n:
        raise CliUsageError(f"point has {len(vals)} coordinates, problem has {problem.n}")
    return np.asarray(vals)


def _parse_grid(text, n):
    try:
        parts = [int(v) for v in text.lower().split("x")]
    except ValueError:
        raise CliUsageError(f"--grid expects counts like 41x41, got {text!r}") from None
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise CliUsageError(f"--grid has {len(parts)} axes, problem has {n}")
    return GridSpec(tuple(parts))


_CONFIG_FIELDS = {"eps": "tol", "seed": "seed", "pairs": "n_pairs", "tau": "n_tau",
                  "delta": "strict_margin"}  # flag -> SampleConfig field
_BY_KIND = ("tau", "delta", "at", "levels", "function")  # read or not by the kind or theorem
_UNREAD = {  # why a run does not read the flag
    "tau": "--tau sets the mixture weights of E(x0) + tau*eta; {what} draws none",
    "delta": "--delta is the margin of strict comparisons; {what} makes none",
    "at": "--at pins the base point of the gradient family; {what} has none",
    "levels": "--levels applies to kind level-set only",
    "function": "{what} checks the region itself and takes no --function",
}


def _sample_config(ns):
    """The SampleConfig of a check or certify run, and the settings it echoes:
    --eps, --seed, --pairs and the flags of _BY_KIND the run reads, an unset
    one at its default.  A flag of _BY_KIND given but not read is refused,
    not dropped."""
    if ns.command == "check":
        reads, what = KINDS[ns.kind].reads, ns.kind
    else:  # a theorem reads --delta when one of its hypotheses is strict
        spec = THEOREMS[ns.theorem]
        strict = spec["objectives"].strict or spec["constraints"].strict
        reads, what = ({"delta"} if strict else set()), f"theorem {ns.theorem}"
    for flag in _BY_KIND:
        if getattr(ns, flag, None) is not None and flag not in reads:
            raise CliUsageError(_UNREAD[flag].format(what=what))
    cfg = SampleConfig(**{field: getattr(ns, flag) for flag, field in _CONFIG_FIELDS.items()
                          if getattr(ns, flag, None) is not None})
    echo = {flag: getattr(cfg, field) for flag, field in _CONFIG_FIELDS.items()
            if flag in ("eps", "seed", "pairs") or flag in reads}
    return cfg, echo


def _base_report(ns, problem, config):
    return {
        "tool": {"name": "einvex", "version": __version__},
        "command": ns.command,
        "problem": {"path": ns.problem, "sha256": problem.sha256},
        "config": {"format": ns.format, **config},
    }


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_parse(ns):
    problem = load_problem(ns.problem)
    payload = {
        "n": problem.n, "vars": problem.vars,
        "E": [str(e) for e in problem.e_ops],
        "eta": [str(e) for e in problem.eta],
        "box": {"lo": problem.lo, "hi": problem.hi},
        "candidates": [{"name": c.name, "x": c.x} for c in problem.candidates],
    }
    for group in ("objectives", "ineq", "eq"):
        payload[group] = [{"name": f.name, "raw": str(f.raw), "composed": str(f.composed),
                           "override": f.has_override} for f in getattr(problem, group)]
    rep = _base_report(ns, problem, {})
    rep.update({"conclusion": "pass", **payload})
    return rep


def _cmd_check(ns):
    cfg, echo = _sample_config(ns)
    problem = load_problem(ns.problem)
    region = feasible_region(problem, cfg.tol) if ns.region == "feasible" else box_region(problem, cfg.tol)
    at = None if ns.at is None else require_in_box(problem, _resolve_point(problem, ns.at), "--at point")
    if at is not None and ns.region == "feasible":  # the rule of the region sampled
        point_slacks(problem, at, cfg.tol, "--at point")
    extra = {**echo, "kind": ns.kind, "function": ns.function,
             "at": None if at is None else list(map(float, at)), "region": ns.region}
    if "function" in KINDS[ns.kind].reads and not ns.function:
        raise CliUsageError(f"--function is required for kind {ns.kind}")
    fn = problem.function(ns.function) if ns.function else None
    item = (fn, ns.kind)
    if ns.levels is not None:  # given only where read: level-set
        item += (ns.levels,)
        extra["levels"] = ns.levels
    verdict = check(problem, [item], cfg, at=at, region=region)[0]

    rep = _base_report(ns, problem, extra)
    rep.update({"conclusion": verdict.status, "verdict": verdict})
    return rep


def _kkt_point_from_candidate(problem, cand):
    """The stored multipliers; load_problem has checked their lengths."""
    if cand.tau is None:
        raise CliUsageError(f"candidate {cand.name!r} carries no multipliers to verify")
    rho = cand.rho if cand.rho is not None else np.zeros(len(problem.ineq))
    xi = cand.xi if cand.xi is not None else np.zeros(len(problem.eq))
    return KktPoint(cand.x, cand.tau, rho, xi)


def _cmd_kkt(ns):
    problem = load_problem(ns.problem)
    cand = problem.candidate(ns.candidate)
    rep = _base_report(ns, problem, {"eps": ns.eps, "candidate": ns.candidate,
                            "verify_supplied": bool(ns.verify_supplied)})

    if ns.verify_supplied:
        point = _kkt_point_from_candidate(problem, cand)
        res = verify_kkt_point(problem, point, ns.eps)
        payload = {"point": point, "residual": res}
        if res.passes:
            rep.update({"conclusion": "pass", **payload})
            return rep
        # surface the discrepancy: do consistent multipliers exist at all?
        try:
            alt = solve_multipliers(problem, cand.x, ns.eps)
            alt_res = verify_kkt_point(problem, alt, ns.eps)
            payload["solved_alternative"] = {"point": alt, "residual": alt_res}
            payload["note"] = ("supplied multipliers fail the first-order system, but a "
                               "consistent multiplier vector exists at this point")
        except EinvexError:
            payload["solved_alternative"] = None
            payload["note"] = "no alternative multipliers exist at this point either"
        rep.update({"conclusion": "fail", **payload})
        return rep

    try:
        point = solve_multipliers(problem, cand.x, ns.eps)
    except InfeasibleMultipliersError as e:
        rep.update({"conclusion": "infeasible",
                    "best_residual": e.best_residual, "note": str(e)})
        return rep
    res = verify_kkt_point(problem, point, ns.eps)
    rep.update({"conclusion": "pass", "point": point, "residual": res})
    return rep


def _cmd_certify(ns):
    cfg, echo = _sample_config(ns)
    problem = load_problem(ns.problem)
    cand = problem.candidate(ns.candidate)
    rep = _base_report(ns, problem, {**echo, "candidate": ns.candidate, "theorem": ns.theorem,
                            "use_supplied": bool(ns.use_supplied)})
    if ns.use_supplied:
        point_slacks(problem, cand.x, cfg.tol, "candidate")  # refused as the solve path refuses it
        point = _kkt_point_from_candidate(problem, cand)
    else:
        try:
            point = solve_multipliers(problem, cand.x, cfg.tol)
        except InfeasibleMultipliersError as e:
            rep.update({"conclusion": "not-established",
                        "reason": f"no multipliers at the candidate: {e}"})
            return rep
    cert = certify(problem, point, ns.theorem, cfg)
    rep.update({"conclusion": cert.conclusion, "certificate": cert})
    return rep


def _cmd_oracle(ns):
    problem = load_problem(ns.problem)
    grid = _parse_grid(ns.grid, problem.n)
    rep = _base_report(ns, problem, {"eps": ns.eps, "grid": "x".join(str(c) for c in grid.counts)})
    # a flag the chosen mode would ignore is refused, not dropped
    if ns.minimizer and not ns.at:
        raise CliUsageError("--minimizer requires --at")
    if ns.at and not ns.minimizer:
        raise CliUsageError("--at is the point for --minimizer and needs it")
    if ns.minimizer and ns.query:
        raise CliUsageError("--query and --minimizer are separate checks; give one")
    if ns.csv and (ns.query or ns.minimizer):
        raise CliUsageError("--csv dumps a grid classification and cannot go with "
                            "--query or --minimizer")

    if ns.minimizer:
        fn = problem.function(ns.minimizer)
        point = _resolve_point(problem, ns.at)
        res = e_minimizer_check(fn, problem, point, grid, tol=ns.eps)
        rep["config"].update({"minimizer": ns.minimizer, "at": list(map(float, point))})
        rep.update({"conclusion": "pass" if res.is_minimizer else "fails",
                    "minimizer": res})
        return rep

    if ns.query:
        point = _resolve_point(problem, ns.query)
        ok, witness = is_weak_pareto(problem, point, grid, tol=ns.eps)
        rep["config"]["query"] = list(map(float, point))
        rep.update({"conclusion": "pass" if ok else "fails",
                    "weak_pareto": ok, "witness": witness})
        return rep

    report = grid_oracle(problem, grid, tol=ns.eps)
    payload = report.to_dict()
    if ns.csv:
        rows = dump_csv(problem, report, ns.csv)
        payload["csv"] = {"path": ns.csv, "rows": rows}
    rep.update({"conclusion": "pass", **payload})
    return rep


SUBCOMMANDS = {  # name -> (help, flag adder, handler): the one definition of each subcommand
    "parse": ("parse and echo a problem file", _parse_flags, _cmd_parse),
    "check": ("run one sampled definition check", _check_flags, _cmd_check),
    "kkt": ("solve or verify first-order multipliers", _kkt_flags, _cmd_kkt),
    "certify": ("check the hypotheses of a sufficiency theorem", _certify_flags, _cmd_certify),
    "oracle": ("brute-force grid enumeration of (weak) Pareto sets", _oracle_flags, _cmd_oracle),
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_float(v):
    if isinstance(v, str):
        return v
    return f"{v:.6g}"


def _text_verdict(v, indent=""):
    lines = []
    head = v.get("status", "?")
    if head == "holds":
        parts = [f"no violation in {v.get('checked', 0)} samples"]
    else:
        parts = [f"checked {v.get('checked', 0)}"]
    if "nonvacuous" in v:
        parts.append(f"nonvacuous {v['nonvacuous']}")
    lines.append(f"{indent}verdict: {head} ({', '.join(parts)})")
    if v.get("reason"):
        lines.append(f"{indent}  reason: {v['reason']}")
    w = v.get("witness")
    if w:
        bits = [f"x={w['x']}"]
        if "x0" in w:
            bits.append(f"x0={w['x0']}")
        if "tau" in w:
            bits.append(f"tau={_fmt_float(w['tau'])}")
        if "left" in w:
            bits.append(f"left={_fmt_float(w['left'])}")
        if "right" in w:
            bits.append(f"right={_fmt_float(w['right'])}")
        lines.append(f"{indent}  witness: {'; '.join(bits)}  [{w.get('comparison', '')}]")
    return lines


def _render_text(rep):
    lines = []
    lines.append(f"einvex {rep['tool']['version']} {rep['command']} - "
                 f"{rep['problem']['path']} (sha256 {rep['problem']['sha256'][:12]})")
    cfg = rep.get("config", {})
    shown = " ".join(f"{k}={v}" for k, v in sorted(cfg.items()) if v is not None and k != "format")
    lines.append(f"config: {shown}")
    lines.append(f"conclusion: {rep['conclusion']}")
    if "verdict" in rep:
        lines += _text_verdict(rep["verdict"])
    if "residual" in rep:
        r = rep["residual"]
        lines.append(f"residuals: stationarity={_fmt_float(r['r_stationarity'])} "
                     f"complementarity={_fmt_float(r['r_complementarity'])} "
                     f"sign={_fmt_float(r['sign_violation'])} -> "
                     f"{'pass' if r['passes'] else 'fail'}")
        for note in r.get("notes", []):
            lines.append(f"  note: {note}")
    if "point" in rep:
        pt = rep["point"]
        lines.append(f"multipliers: tau={pt['tau']} rho={pt['rho']} xi={pt['xi']}")
    if rep.get("note"):
        lines.append(f"note: {rep['note']}")
    if "solved_alternative" in rep and rep["solved_alternative"]:
        alt = rep["solved_alternative"]["point"]
        lines.append(f"consistent alternative: tau={alt['tau']} rho={alt['rho']} xi={alt['xi']}")
    if "certificate" in rep:
        c = rep["certificate"]
        lines.append(f"theorem: {c['theorem']} ({c['tag']}), claim: {c['claim']}")
        if c.get("residual"):
            r = c["residual"]
            lines.append(f"first-order residuals: stationarity={_fmt_float(r['r_stationarity'])} "
                         f"complementarity={_fmt_float(r['r_complementarity'])}")
        for h in c.get("hypotheses", []):
            v = h["verdict"]
            extra = f" (checked {v.get('checked', 0)}, nonvacuous {v.get('nonvacuous', '-')})"
            lines.append(f"  [{v['status']}] {h['target']} {h['kind']}{extra}")
            lines += _text_verdict(v, indent="    ")[1:]
        if c.get("reason"):
            lines.append(f"reason: {c['reason']}")
    if "weak_pareto" in rep:
        lines.append(f"weak pareto: {rep['weak_pareto']}")
        if rep.get("witness"):
            w = rep["witness"]
            lines.append(f"  strictly better point: x={w['x']} objectives={w['objectives']}")
    if "minimizer" in rep:
        m = rep["minimizer"]
        lines.append(f"gradient inf-norm: {_fmt_float(m['gradient_inf_norm'])}; "
                     f"grid minimizer: {m['is_minimizer']}")
        if m.get("witness"):
            lines.append(f"  better grid point: {m['witness']}")
    if "pareto_count" in rep:
        failed = f" ({rep['failed_points']} failed to evaluate)" if rep["failed_points"] else ""
        lines.append(f"grid: {rep['grid_points']} points, {rep['feasible_points']} feasible"
                     f"{failed}; pareto {rep['pareto_count']}, weak pareto {rep['weak_pareto_count']}")
        cap = 20
        pp = rep.get("pareto_points", [])
        for row in pp[:cap]:
            lines.append(f"  pareto: {row}")
        if len(pp) > cap:
            lines.append(f"  ... {len(pp) - cap} more")
    if "objectives" in rep and rep["command"] == "parse":
        lines.append(f"vars: {rep['vars']}  box: {rep['box']}")
        lines.append(f"E: {rep['E']}")
        lines.append(f"eta: {rep['eta']}")
        for group in ("objectives", "ineq", "eq"):
            for f in rep.get(group, []):
                lines.append(f"  {f['name']}: raw {f['raw']}  composed {f['composed']}")
    if "wall_time_s" in rep:
        lines.append(f"wall time: {rep['wall_time_s']} s")
    return "\n".join(lines)


def _render(rep, fmt):
    rep = _jsonable(rep)
    if fmt == "json":
        return json.dumps(rep, indent=2, sort_keys=True)
    return _render_text(rep)


_POINT_FLAGS = ("--at", "--query")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_negative_points(argv):
    """--at -0.5,1 as --at=-0.5,1: argparse takes a value that starts with a
    minus and is not one plain number for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in _POINT_FLAGS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def run(argv=None):
    """Execute one CLI invocation; returns (exit_code, rendered_report)."""
    argv = _join_negative_points(sys.argv[1:] if argv is None else argv)
    try:
        ns = build_parser(argv[0] if argv else None).parse_args(argv)
    except CliUsageError as e:
        return 3, f"error: {e}"
    started = time.perf_counter()
    try:
        rep = SUBCOMMANDS[ns.command][2](ns)
    except CliUsageError as e:
        return 3, f"error: {e}"
    except (EinvexError, KeyError, ValueError, OSError) as e:
        msg = e.args[0] if isinstance(e, KeyError) and e.args else str(e)
        return 3, f"error: {msg}"
    rep["wall_time_s"] = round(time.perf_counter() - started, 3)
    code = EXIT_BY_CONCLUSION.get(rep.get("conclusion"), 0)
    return code, _render(rep, ns.format)


def main(argv=None):
    code, text = run(argv)
    stream = sys.stderr if code == 3 else sys.stdout
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader left early; the exit code still carries the verdict, and
        # the redirect keeps the flush at interpreter exit from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
