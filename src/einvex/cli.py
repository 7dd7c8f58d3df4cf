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
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (CliUsageError, EinvexError, InfeasibleMultipliersError)
from .invexity import (InvexKind, PreinvexKind, check_invex, check_preinvex,
                       epigraph_invex_check, gradient_monotonicity, level_set_invex_check)
from .kkt import THEOREMS, KktPoint, certify, solve_multipliers, verify_kkt_point
from .pareto import GridSpec, dump_csv, e_minimizer_check, grid_oracle, is_weak_pareto
from .problem import (SampleConfig, _jsonable, box_region, einvex_set_check, feasible_region,
                      load_problem, point_slacks, require_in_box)

DEFAULT_SEED = 42
EXIT_BY_CONCLUSION = {
    "holds": 0, "pass": 0, "certified": 0,
    "fails": 1, "fail": 1, "not-established": 1, "infeasible": 1,
    "inconclusive": 2,
}

PREINVEX_KINDS = tuple(k.value for k in PreinvexKind)
INVEX_KINDS = tuple(k.value for k in InvexKind)
MONOTONE_KINDS = ("monotone-gradient", "strict-monotone-gradient")
CHECK_KINDS = PREINVEX_KINDS + INVEX_KINDS + MONOTONE_KINDS + ("epigraph", "level-set", "invex-set")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 3, not 2."""

    def error(self, message):
        raise CliUsageError(message)


def _eps(text):
    """--eps: a finite slack >= 0; a negative one would let a point beat itself."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="einvex", description=__doc__.splitlines()[0] if __doc__ else "")
    p.add_argument("--version", action="version", version=f"einvex {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, sampling=True):
        sp.add_argument("problem", help="problem JSON file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--eps", type=_eps, default=1e-9,
                        help="slack for non-strict comparisons (default 1e-9)")
        if sampling:
            sp.add_argument("--seed", type=int, default=None,
                            help="sampling seed (default: EINVEX_SEED or 42)")
            sp.add_argument("--pairs", type=int, default=10000)
            sp.add_argument("--tau", type=int, default=8,
                            help="mixture weights per pair, anchors 0, 1/2, 1 included")
            sp.add_argument("--delta", type=float, default=1e-7,
                            help="required margin for strict comparisons (default 1e-7)")

    sp = sub.add_parser("parse", help="parse and echo a problem file")
    common(sp, sampling=False)

    sp = sub.add_parser("check", help="run one sampled definition check")
    common(sp)
    sp.add_argument("--function", help="f1/g1/h1-style name (not needed for invex-set)")
    sp.add_argument("--kind", required=True, choices=CHECK_KINDS)
    sp.add_argument("--at", help="candidate name or comma-separated coordinates for the base point")
    sp.add_argument("--region", choices=("box", "feasible"), default="box")
    sp.add_argument("--naive", action="store_true",
                    help="exponential-domain evaluation (cross-check mode)")
    sp.add_argument("--levels", help="comma-separated positive thresholds for level-set checks")

    sp = sub.add_parser("kkt", help="solve or verify first-order multipliers")
    common(sp)
    sp.add_argument("--candidate", required=True)
    sp.add_argument("--verify-supplied", action="store_true",
                    help="verify the multipliers stored on the candidate instead of solving")

    sp = sub.add_parser("certify", help="check the hypotheses of a sufficiency theorem")
    common(sp)
    sp.add_argument("--candidate", required=True)
    sp.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    sp.add_argument("--use-supplied", action="store_true",
                    help="take multipliers from the candidate instead of solving")

    sp = sub.add_parser("oracle", help="brute-force grid enumeration of (weak) Pareto sets")
    common(sp, sampling=False)
    sp.add_argument("--grid", default="33", help="points per axis, e.g. 41x41 or 33")
    sp.add_argument("--query", help="candidate name or coordinates: is this point weak Pareto?")
    sp.add_argument("--csv", help="write per-point classification to this CSV file")
    sp.add_argument("--minimizer", metavar="FUNC",
                    help="check that --at globally minimizes FUNC over the box grid")
    sp.add_argument("--at", help="point for --minimizer (candidate name or coordinates)")
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


def _sample_config(ns) -> SampleConfig:
    return SampleConfig(seed=ns.seed, n_pairs=ns.pairs, n_tau=ns.tau,
                        tol=ns.eps, strict_margin=ns.delta)


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _base_report(ns, extra_config):
    cfgd = {"eps": ns.eps, "format": ns.format}
    for key in ("seed", "pairs", "tau", "delta"):
        if hasattr(ns, key):
            cfgd[key] = getattr(ns, key)
    cfgd.update(extra_config)
    return {
        "tool": {"name": "einvex", "version": __version__},
        "command": ns.command,
        "problem": {"path": ns.problem, "sha256": _digest(ns.problem)},
        "config": cfgd,
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
        "objectives": [{"name": f.name, "raw": str(f.raw), "composed": str(f.composed),
                        "override": f.has_override} for f in problem.objectives],
        "ineq": [{"name": f.name, "raw": str(f.raw), "composed": str(f.composed),
                  "override": f.has_override} for f in problem.ineq],
        "eq": [{"name": f.name, "raw": str(f.raw), "composed": str(f.composed),
                "override": f.has_override} for f in problem.eq],
        "box": {"lo": problem.lo.tolist(), "hi": problem.hi.tolist()},
        "candidates": [{"name": c.name, "x": c.x.tolist()} for c in problem.candidates],
    }
    rep = _base_report(ns, {})
    rep.update({"conclusion": "pass", **payload})
    return rep


def _cmd_check(ns):
    kind = ns.kind
    # a flag the chosen kind would ignore is refused, not dropped
    if ns.function and kind == "invex-set":
        raise CliUsageError("invex-set checks the region itself and takes no --function")
    if ns.at and kind not in INVEX_KINDS + MONOTONE_KINDS:
        raise CliUsageError(f"--at pins the base point of the gradient family; {kind} has none")
    if ns.naive and kind not in PREINVEX_KINDS:
        raise CliUsageError("--naive applies to the four *-preinvex kinds only")
    if ns.levels and kind != "level-set":
        raise CliUsageError("--levels applies to kind level-set only")
    problem = load_problem(ns.problem)
    cfg = _sample_config(ns)
    region = feasible_region(problem, cfg.tol) if ns.region == "feasible" else box_region(problem, cfg.tol)
    at = require_in_box(problem, _resolve_point(problem, ns.at), "--at point") if ns.at else None
    if at is not None and ns.region == "feasible":  # the rule of the region sampled
        point_slacks(problem, at, cfg.tol, "--at point")
    extra = {"kind": kind, "function": ns.function, "at": None if at is None else list(map(float, at)),
             "region": ns.region, "naive": bool(ns.naive)}

    if kind == "invex-set":
        verdict = einvex_set_check(problem, cfg, region=region)
    else:
        if not ns.function:
            raise CliUsageError(f"--function is required for kind {kind}")
        fn = problem.function(ns.function)
        mode = "naive" if ns.naive else "log"
        if kind in PREINVEX_KINDS:
            verdict = check_preinvex(fn, problem, PreinvexKind(kind), cfg, region=region, mode=mode)
        elif kind in INVEX_KINDS:
            verdict = check_invex(fn, problem, InvexKind(kind), cfg, at=at, region=region)
        elif kind in MONOTONE_KINDS:
            verdict = gradient_monotonicity(fn, problem, cfg, strict=kind.startswith("strict"),
                                            region=region, at=at)
        elif kind == "epigraph":
            verdict = epigraph_invex_check(fn, problem, cfg, region=region)
        elif kind == "level-set":
            levels = None
            if ns.levels:
                levels = [float(v) for v in ns.levels.split(",")]
                extra["levels"] = levels
            verdict = level_set_invex_check(fn, problem, levels=levels, cfg=cfg, region=region)
        else:  # pragma: no cover - choices guard this
            raise CliUsageError(f"unhandled kind {kind}")

    rep = _base_report(ns, extra)
    rep.update({"conclusion": verdict.status, "verdict": verdict.to_dict()})
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
    cfg = _sample_config(ns)
    cand = problem.candidate(ns.candidate)
    rep = _base_report(ns, {"candidate": ns.candidate, "verify_supplied": bool(ns.verify_supplied)})

    if ns.verify_supplied:
        point = _kkt_point_from_candidate(problem, cand)
        res = verify_kkt_point(problem, point, cfg.tol)
        payload = {"point": point.to_dict(), "residual": res.to_dict()}
        if res.passes:
            rep.update({"conclusion": "pass", **payload})
            return rep
        # surface the discrepancy: do consistent multipliers exist at all?
        try:
            alt = solve_multipliers(problem, cand.x, cfg.tol)
            alt_res = verify_kkt_point(problem, alt, cfg.tol)
            payload["solved_alternative"] = {"point": alt.to_dict(), "residual": alt_res.to_dict()}
            payload["note"] = ("supplied multipliers fail the first-order system, but a "
                               "consistent multiplier vector exists at this point")
        except (EinvexError, InfeasibleMultipliersError):
            payload["solved_alternative"] = None
            payload["note"] = "no alternative multipliers exist at this point either"
        rep.update({"conclusion": "fail", **payload})
        return rep

    try:
        point = solve_multipliers(problem, cand.x, cfg.tol)
    except InfeasibleMultipliersError as e:
        rep.update({"conclusion": "infeasible",
                    "best_residual": _jsonable(e.best_residual), "note": str(e)})
        return rep
    res = verify_kkt_point(problem, point, cfg.tol)
    rep.update({"conclusion": "pass", "point": point.to_dict(), "residual": res.to_dict()})
    return rep


def _cmd_certify(ns):
    problem = load_problem(ns.problem)
    cfg = _sample_config(ns)
    cand = problem.candidate(ns.candidate)
    rep = _base_report(ns, {"candidate": ns.candidate, "theorem": ns.theorem,
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
    rep.update({"conclusion": cert.conclusion, "certificate": cert.to_dict()})
    return rep


def _cmd_oracle(ns):
    problem = load_problem(ns.problem)
    grid = _parse_grid(ns.grid, problem.n)
    rep = _base_report(ns, {"grid": "x".join(str(c) for c in grid.counts)})
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
                    "minimizer": res.to_dict()})
        return rep

    if ns.query:
        point = _resolve_point(problem, ns.query)
        ok, witness = is_weak_pareto(problem, point, grid, tol=ns.eps)
        rep["config"]["query"] = list(map(float, point))
        rep.update({"conclusion": "pass" if ok else "fails",
                    "weak_pareto": ok, "witness": _jsonable(witness) if witness else None})
        return rep

    report = grid_oracle(problem, grid, tol=ns.eps)
    payload = report.to_dict()
    if ns.csv:
        rows = dump_csv(problem, report, ns.csv)
        payload["csv"] = {"path": ns.csv, "rows": rows}
    rep.update({"conclusion": "pass", **payload})
    return rep


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
    digest = rep["problem"].get("sha256")
    short = digest[:12] if digest else "?"
    lines.append(f"einvex {rep['tool']['version']} {rep['command']} - "
                 f"{rep['problem']['path']} (sha256 {short})")
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
            if v.get("witness"):
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
        lines.append(f"grid: {rep['grid_points']} points, {rep['feasible_points']} feasible; "
                     f"pareto {rep['pareto_count']}, weak pareto {rep['weak_pareto_count']}")
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
    if fmt == "json":
        return json.dumps(_jsonable(rep), indent=2, sort_keys=True)
    return _render_text(rep)


HANDLERS = {"parse": _cmd_parse, "check": _cmd_check, "kkt": _cmd_kkt,
            "certify": _cmd_certify, "oracle": _cmd_oracle}


def run(argv=None):
    """Execute one CLI invocation; returns (exit_code, rendered_report)."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except CliUsageError as e:
        return 3, f"error: {e}"
    started = time.perf_counter()
    try:
        if getattr(ns, "seed", 0) is None:  # only sampling commands take --seed
            ns.seed = int(os.environ.get("EINVEX_SEED", DEFAULT_SEED))
        rep = HANDLERS[ns.command](ns)
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
