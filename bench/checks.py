"""Correctness gate for one CLI command, independent of the seed.

Each command must exit with the code of its expected conclusion.  Beyond
that the gate re-derives what the report claims instead of pinning report
bytes, sample counts or multiplier values, which planned changes alter on
purpose:

* every "fails" witness is replayed through ``invexity.invex_sides`` or
  ``preinvex_sides`` and its violation must exceed the tolerance;
* the oracle must find pareto == weak pareto == {the candidate}, and the
  CSV must hold one row per grid point;
* solved multipliers must pass ``verify_kkt_point``, and their smallest
  objective weight must match a max-min linear program solved by
  ``scipy.optimize.linprog`` on central-difference gradients.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

EXIT_CODES = {"holds": 0, "pass": 0, "certified": 0, "fails": 1, "fail": 1,
              "not-established": 1, "infeasible": 1, "inconclusive": 2}
LP_MATCH = 1e-6
# The bisection accepts multipliers whose stationarity residual is within
# eps, so its answer sits on that boundary, and recomputing the residual
# after the report renormalizes tau differs from eps by rounding (seen up
# to 1e-15).  The gate allows 1e-12 on top of eps: a thousand times the
# rounding, a thousandth of the tolerance.
ROUNDING = 1e-12
FD_STEP = 1e-6


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


class Gate:
    """Checks command outputs with the untraced einvex functions."""

    def __init__(self, mods):
        from scipy.optimize import linprog
        self.linprog = linprog
        self.expr = mods["expr"]
        self.invexity = mods["invexity"]
        self.kkt = mods["kkt"]
        self.load_problem = mods["problem"].load_problem
        self._problems = {}
        self.boundary_residuals = 0   # solved multipliers the report itself marks as failing

    def problem(self, path):
        if path not in self._problems:
            self._problems[path] = self.load_problem(path)
        return self._problems[path]

    def check(self, cmd, argv, code, out):
        """List of problems with one command's output; empty when correct."""
        if code == 3:
            return [f"exit 3: {out.strip()[:200]}"]
        try:
            rep = json.loads(out)
        except json.JSONDecodeError as e:
            return [f"report is not JSON: {e}"]
        errors = []
        if rep.get("conclusion") != cmd.expect:
            errors.append(f"conclusion {rep.get('conclusion')!r}, expected {cmd.expect!r}")
        if code != EXIT_CODES[cmd.expect]:
            errors.append(f"exit code {code}, expected {EXIT_CODES[cmd.expect]}")
        if errors:
            return errors
        handler = {"check": self._check, "certify": self._certify,
                   "oracle": self._oracle, "kkt": self._kkt}[argv[0]]
        try:
            return handler(cmd, argv, rep)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            return [f"gate could not check the report: {e!r}"]

    # -- sampled checks -----------------------------------------------------

    def violation(self, problem, fn, kind, w, eps):
        """How far the witness violates its inequality (> eps means refuted)."""
        inv = self.invexity
        if kind in ("preinvex", "quasi-preinvex"):
            s = inv.preinvex_sides(fn, problem, w["x"], w["x0"], w["tau"])
            return s["c"] - (s["mix_log"] if kind == "preinvex" else s["max_log"])
        s = inv.invex_sides(fn, problem, w["x"], w["x0"])
        a, b, d = s["a"], s["b"], s["d"]
        if kind == "invex":
            return s["norm_right"] - s["norm_left"]
        if kind == "pseudo-invex":
            return d if a < b - eps else -math.inf
        if kind == "quasi-invex":
            return d if a <= b + eps else -math.inf
        if kind == "monotone-gradient":
            gx = inv.invex_sides(fn, problem, w["x0"], w["x"])["grad0"]
            m = max(a, b)
            term = float(np.dot(gx, s["eta"])) * math.exp(a - m) - d * math.exp(b - m)
            return -term
        raise ValueError(f"no replay for kind {kind}")

    def _replay(self, problem, fn_name, kind, verdict, eps):
        if verdict["status"] != "fails":
            return []
        w = verdict["witness"]
        v = self.violation(problem, problem.function(fn_name), kind, w, eps)
        if not v > eps:
            return [f"{fn_name} {kind} witness does not replay (violation {v!r})"]
        return []

    def _check(self, cmd, argv, rep):
        problem = self.problem(argv[1])
        return self._replay(problem, _flag(argv, "--function"), _flag(argv, "--kind"),
                            rep["verdict"], rep["config"]["eps"])

    def _certify(self, cmd, argv, rep):
        problem = self.problem(argv[1])
        eps = rep["config"]["eps"]
        cert = rep["certificate"]
        y = problem.candidate(_flag(argv, "--candidate")).x
        expected = {f.name for f in (*problem.objectives, *self._active(problem, y, eps))}
        targets = {h["target"] for h in cert["hypotheses"]}
        errors = [] if targets == expected else [f"hypotheses on {sorted(targets)}, "
                                                 f"expected {sorted(expected)}"]
        for h in cert["hypotheses"]:
            errors += self._replay(problem, h["target"], h["kind"], h["verdict"], eps)
        return errors

    # -- grid oracle --------------------------------------------------------

    def _oracle(self, cmd, argv, rep):
        problem = self.problem(argv[1])
        eps = rep["config"]["eps"]
        if "--minimizer" in argv:
            fn = problem.function(_flag(argv, "--minimizer"))
            xbar = problem.candidate(_flag(argv, "--at")).x
            w = rep["minimizer"]["witness"]
            at_w = self._value(problem, fn, w["x"])
            at_xbar = self._value(problem, fn, xbar)
            if not at_w < at_xbar - eps:
                return [f"minimizer witness {w['x']} is not lower ({at_w} vs {at_xbar})"]
            return []
        if "--query" in argv:
            if cmd.expect == "pass":
                if rep["weak_pareto"] is not True or rep["witness"] is not None:
                    return [f"query point reported dominated by {rep['witness']}"]
                return []
            query = [float(v) for v in _flag(argv, "--query").split(",")]
            w = rep["witness"]["x"]
            if not all(self._value(problem, f, w) < self._value(problem, f, query) - eps
                       for f in problem.objectives):
                return [f"query witness {w} does not dominate {query} strictly"]
            return []
        origin = [problem.candidates[0].x.tolist()]
        size = math.prod(int(c) for c in _flag(argv, "--grid").split("x"))
        errors = []
        if rep["grid_points"] != size:
            errors.append(f"grid_points {rep['grid_points']}, expected {size}")
        if rep["pareto_points"] != origin or rep["weak_pareto_points"] != origin:
            errors.append(f"pareto {rep['pareto_points'][:3]} / weak {rep['weak_pareto_points'][:3]},"
                          f" expected {origin}")
        if "--csv" in argv:
            with open(_flag(argv, "--csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            pareto_rows = [r for r in rows if r["pareto"] == "1"]
            if len(rows) != size or rep["csv"]["rows"] != size:
                errors.append(f"CSV has {len(rows)} rows (report {rep['csv']['rows']}), expected {size}")
            if [[float(r[v]) for v in problem.vars] for r in pareto_rows] != origin:
                errors.append("CSV pareto rows differ from the candidate")
        return errors

    # -- multipliers --------------------------------------------------------

    def _kkt(self, cmd, argv, rep):
        problem = self.problem(argv[1])
        eps = rep["config"]["eps"]
        y = problem.candidate(_flag(argv, "--candidate")).x
        if problem.eq:
            return ["equality constraints are outside this benchmark"]
        best = self.maxmin_weight(problem, y, eps)
        if cmd.expect == "infeasible":
            if best is not None:
                return [f"report says infeasible, the LP finds max-min weight {best}"]
            if not rep["best_residual"] > eps:
                return [f"best_residual {rep['best_residual']} within tolerance"]
            return []
        if best is None:
            return ["the max-min LP is infeasible but the report found multipliers"]
        errors = []
        if cmd.bisects and not 0.0 < best < 1.0 / len(problem.objectives) - LP_MATCH:
            errors.append(f"max-min weight {best}: uniform weights would fit, no bisection")
        if cmd.expect == "fail":
            cand = problem.candidate(_flag(argv, "--candidate"))
            supplied = self.kkt.KktPoint(y, cand.tau, cand.rho, np.zeros(0))
            if self.kkt.verify_kkt_point(problem, supplied, eps).passes or rep["residual"]["passes"]:
                errors.append("supplied multipliers pass, but the report says fail")
            alt = rep["solved_alternative"]
            if alt is None:
                return errors + ["no solved alternative"]
            point = alt["point"]
        else:
            point = rep["point"]
            self.boundary_residuals += int(not rep["residual"]["passes"])
        solved = self.kkt.KktPoint(*(np.asarray(point[k], float) for k in ("y", "tau", "rho", "xi")))
        if not self.kkt.verify_kkt_point(problem, solved, eps + ROUNDING).passes:
            errors.append(f"solved multipliers fail verify_kkt_point: {point}")
        if abs(min(point["tau"]) - best) > LP_MATCH:
            errors.append(f"min(tau) {min(point['tau'])} vs max-min LP {best}")
        return errors

    def _value(self, problem, fn, x):
        return self.expr.evaluate(fn.composed, dict(zip(problem.vars, map(float, x))))

    def _active(self, problem, y, eps):
        return [g for g in problem.ineq if abs(self._value(problem, g, y)) <= eps]

    def _gradients(self, problem, fns, y):
        cols = []
        for fn in fns:
            col = []
            for j in range(problem.n):
                step = np.zeros(problem.n)
                step[j] = FD_STEP
                col.append((self._value(problem, fn, y + step)
                            - self._value(problem, fn, y - step)) / (2 * FD_STEP))
            cols.append(col)
        return np.asarray(cols, float).T.reshape(problem.n, len(fns))

    def maxmin_weight(self, problem, y, eps):
        """max t s.t. sum tau_i grad f_i + sum rho_k grad g_k = 0, sum tau = 1,
        tau_i >= t, rho >= 0 over the active g_k; None when infeasible."""
        active = self._active(problem, y, eps)
        gf = self._gradients(problem, problem.objectives, y)
        gg = self._gradients(problem, active, y)
        p, ma = gf.shape[1], gg.shape[1]
        cost = np.zeros(p + ma + 1)
        cost[-1] = -1.0
        a_eq = np.vstack([np.hstack([gf, gg, np.zeros((problem.n, 1))]),
                          np.concatenate([np.ones(p), np.zeros(ma + 1)])])
        b_eq = np.concatenate([np.zeros(problem.n), [1.0]])
        a_ub = np.hstack([-np.eye(p), np.zeros((p, ma)), np.ones((p, 1))])
        res = self.linprog(cost, A_ub=a_ub, b_ub=np.zeros(p), A_eq=a_eq, b_eq=b_eq,
                           bounds=[(0, None)] * (p + ma) + [(None, None)], method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise ValueError(f"max-min LP: {res.message}")
        return -float(res.fun)
