"""Problem container: an E-composed multiobjective program loaded from JSON.

A problem bundles the distortion map E, the kernel eta, objectives f_i,
inequality constraints g_k (g <= 0), equality constraints h_j (h = 0), a
domain box, and named candidate points.  Every function is kept in two
forms: raw (over the image variables y1..yn) and composed (over the
problem variables), with hand-supplied composed forms validated against
direct substitution at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import (ComposeMismatchError, DomainEvalError, InfeasiblePointError, ParseError,
                     ProblemFormatError, SamplingStarvedError)
from .rng import SampleStream


@dataclass(frozen=True)
class SampleConfig:
    """Shared knobs for every sampling-based verdict."""

    seed: int = 42
    n_pairs: int = 10000
    n_tau: int = 8
    tol: float = 1e-9          # slack for non-strict comparisons and ties
    strict_margin: float = 1e-7  # required gap for strict comparisons

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be positive")
        if self.n_tau < 3:
            raise ValueError("n_tau must be at least 3")
        if not (self.tol > 0.0 and self.strict_margin > 0.0):
            raise ValueError("tolerances must be positive")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):  # before int: bool is a subclass
        return bool(v)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(t) for t in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(t) for t in v]
    if isinstance(v, dict):
        return {k: _jsonable(t) for k, t in v.items()}
    return v


@dataclass
class Witness:
    """A concrete sample violating (or failing the margin of) an inequality."""

    x: list
    x0: Optional[list] = None
    tau: Optional[float] = None
    left: Optional[float] = None
    right: Optional[float] = None
    comparison: str = ""
    index: int = -1
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"x": _jsonable(self.x), "comparison": self.comparison, "index": self.index}
        if self.x0 is not None:
            out["x0"] = _jsonable(self.x0)
        if self.tau is not None:
            out["tau"] = _jsonable(self.tau)
        if self.left is not None:
            out["left"] = _jsonable(self.left)
        if self.right is not None:
            out["right"] = _jsonable(self.right)
        if self.extra:
            out["extra"] = _jsonable(self.extra)
        return out


@dataclass
class Verdict:
    """Outcome of one sampled check.

    "holds" is a sampling claim: no violation among `checked` samples, of
    which `nonvacuous` actually exercised the inequality.  "fails" carries a
    re-verified witness.  "inconclusive" explains itself in `reason`.
    """

    status: str  # holds | fails | inconclusive
    checked: int = 0
    nonvacuous: Optional[int] = None
    witness: Optional[Witness] = None
    reason: Optional[str] = None

    @staticmethod
    def holds(checked, nonvacuous=None):
        return Verdict("holds", checked=checked, nonvacuous=nonvacuous)

    @staticmethod
    def fails(witness, checked):
        return Verdict("fails", checked=checked, witness=witness)

    @staticmethod
    def inconclusive(reason, checked=0):
        return Verdict("inconclusive", checked=checked, reason=reason)

    def __bool__(self):
        return self.status == "holds"

    def to_dict(self):
        out = {"status": self.status, "checked": self.checked}
        if self.nonvacuous is not None:
            out["nonvacuous"] = self.nonvacuous
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# ---------------------------------------------------------------------------
# Problem functions
# ---------------------------------------------------------------------------


def eval_columns(exprs: Sequence[ex.Expr], env: dict):
    """One column per expression: (values (N,k), failed (N,)).

    A row fails when any expression leaves its domain or is not finite.
    """
    # the mask is allocated before the columns: allocated after them, it
    # raised the peak RSS of an 801x801 oracle query by 5.5 MB
    cols, failed = [], np.zeros(ex._batch_shape(env), dtype=bool)
    for e in exprs:
        r = ex.eval_many(e, env)
        cols.append(r.values)
        failed |= r.invalid | ~np.isfinite(r.values)
    return np.stack(cols, axis=-1), failed


@dataclass
class ProblemFunction:
    """One scalar function of the program, in raw and composed form."""

    name: str        # f1.., g1.., h1..
    raw: ex.Expr     # over y1..yn
    composed: ex.Expr  # over the problem variables
    has_override: bool = False

    def negated(self) -> "ProblemFunction":
        return ProblemFunction(f"-{self.name}", ex.Unary("neg", self.raw),
                               ex.Unary("neg", self.composed), self.has_override)


@dataclass
class Candidate:
    name: str
    x: np.ndarray
    tau: Optional[np.ndarray] = None
    rho: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None


@dataclass
class EProblem:
    n: int
    vars: list
    e_ops: list          # Expr components of E, over vars
    eta: list            # Expr components of eta, over u1..un / v1..vn
    objectives: list     # ProblemFunction
    ineq: list
    eq: list
    lo: np.ndarray
    hi: np.ndarray
    candidates: list
    source_path: Optional[str] = None

    # -- lookup helpers ----------------------------------------------------

    def function(self, name: str) -> ProblemFunction:
        for fn in (*self.objectives, *self.ineq, *self.eq):
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r} (have "
                       f"{[f.name for f in (*self.objectives, *self.ineq, *self.eq)]})")

    def candidate(self, name: str) -> Candidate:
        for c in self.candidates:
            if c.name == name:
                return c
        raise KeyError(f"no candidate named {name!r}")

    def env_x(self, X: np.ndarray) -> dict:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return {name: X[:, j] for j, name in enumerate(self.vars)}

    def env_y(self, Z: np.ndarray) -> dict:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return {f"y{j + 1}": Z[:, j] for j in range(self.n)}

    # -- vectorized evaluation ---------------------------------------------

    def e_map(self, X: np.ndarray):
        """E(X) for rows of X; returns (values (N,n), invalid mask (N,))."""
        return eval_columns(self.e_ops, self.env_x(X))

    def eta_map(self, U: np.ndarray, V: np.ndarray):
        """eta(U, V) rowwise for points already in the image space."""
        U, V = np.atleast_2d(U), np.atleast_2d(V)
        env = {f"u{j + 1}": U[:, j] for j in range(self.n)}
        env.update({f"v{j + 1}": V[:, j] for j in range(self.n)})
        return eval_columns(self.eta, env)

    def composed_values(self, fn: ProblemFunction, X: np.ndarray) -> ex.EvalResult:
        return ex.eval_many(fn.composed, self.env_x(X))

    def composed_grads(self, fn: ProblemFunction, X: np.ndarray) -> ex.GradResult:
        return ex.grad_many(fn.composed, self.env_x(X), self.vars)

    def raw_values(self, fn: ProblemFunction, Z: np.ndarray) -> ex.EvalResult:
        return ex.eval_many(fn.raw, self.env_y(Z))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _expect(cond, location, message):
    if not cond:
        raise ProblemFormatError(location, message)


def _parse_at(source, variables, location):
    _expect(isinstance(source, str), location, f"expected an expression string, got {type(source).__name__}")
    try:
        return ex.parse(source, variables)
    except ParseError as e:
        raise ProblemFormatError(location, str(e)) from e


def load_problem(source) -> EProblem:
    """Load a problem from a JSON file path or a plain dict."""
    path = None
    if isinstance(source, (str, Path)):
        path = str(source)
        try:
            data = json.loads(Path(source).read_text())
        except OSError as e:
            raise ProblemFormatError(path, f"cannot read file: {e}") from e
        except json.JSONDecodeError as e:
            raise ProblemFormatError(path, f"invalid JSON: {e}") from e
    elif isinstance(source, dict):
        data = source
    else:
        raise ProblemFormatError("problem", f"unsupported source type {type(source).__name__}")

    _expect(isinstance(data, dict), "problem", "top level must be an object")
    n = data.get("n")
    _expect(isinstance(n, int) and n >= 1, "n", "must be a positive integer")
    vars = data.get("vars", [f"x{j + 1}" for j in range(n)])
    _expect(isinstance(vars, list) and len(vars) == n and all(isinstance(v, str) for v in vars),
            "vars", f"must list {n} variable names")
    y_names = [f"y{j + 1}" for j in range(n)]
    uv_names = [f"u{j + 1}" for j in range(n)] + [f"v{j + 1}" for j in range(n)]

    box = data.get("box")
    _expect(isinstance(box, dict) and "lo" in box and "hi" in box, "box", "must carry 'lo' and 'hi' arrays")
    lo = np.asarray(box["lo"], dtype=float)
    hi = np.asarray(box["hi"], dtype=float)
    _expect(lo.shape == (n,) and hi.shape == (n,), "box", f"'lo' and 'hi' must have length {n}")
    _expect(bool(np.all(lo <= hi)), "box", "'lo' must be componentwise <= 'hi'")

    e_src = data.get("E")
    _expect(isinstance(e_src, list) and len(e_src) == n, "E", f"must list {n} component expressions")
    e_ops = [_parse_at(s, vars, f"E[{j}]") for j, s in enumerate(e_src)]

    eta_src = data.get("eta")
    _expect(isinstance(eta_src, list) and len(eta_src) == n, "eta", f"must list {n} component expressions")
    eta = [_parse_at(s, uv_names, f"eta[{j}]") for j, s in enumerate(eta_src)]

    def build_group(key, prefix, required):
        entries = data.get(key, [])
        _expect(isinstance(entries, list), key, "must be a list")
        if required:
            _expect(len(entries) >= 1, key, "must contain at least one function")
        out = []
        for idx, entry in enumerate(entries):
            loc = f"{key}[{idx}]"
            if isinstance(entry, str):
                entry = {"raw": entry}
            _expect(isinstance(entry, dict) and "raw" in entry, loc, "expected {'raw': ..., 'composed'?: ...}")
            raw = _parse_at(entry["raw"], y_names, f"{loc}.raw")
            override = None
            if entry.get("composed") is not None:
                override = _parse_at(entry["composed"], vars, f"{loc}.composed")
            try:
                composed = ex.compose(raw, e_ops, vars, lo, hi, override=override)
            except ComposeMismatchError as e:
                raise ProblemFormatError(f"{loc}.composed", str(e)) from e
            out.append(ProblemFunction(f"{prefix}{idx + 1}", raw, composed, override is not None))
        return out

    objectives = build_group("objectives", "f", required=True)
    ineq = build_group("ineq", "g", required=False)
    eq = build_group("eq", "h", required=False)

    candidates = []
    for idx, entry in enumerate(data.get("candidates", [])):
        loc = f"candidates[{idx}]"
        _expect(isinstance(entry, dict) and "x" in entry, loc, "expected {'name': ..., 'x': [...]}")
        x = np.asarray(entry["x"], dtype=float)
        _expect(x.shape == (n,), f"{loc}.x", f"must have length {n}")
        name = entry.get("name", f"c{idx + 1}")

        def opt_vec(key, length):
            if entry.get(key) is None:
                return None
            v = np.asarray(entry[key], dtype=float)
            _expect(v.shape == (length,), f"{loc}.{key}", f"must have length {length}")
            return v

        candidates.append(Candidate(name, x, opt_vec("tau", len(objectives)),
                                    opt_vec("rho", len(ineq)), opt_vec("xi", len(eq))))

    return EProblem(n=n, vars=list(vars), e_ops=e_ops, eta=eta, objectives=objectives,
                    ineq=ineq, eq=eq, lo=lo, hi=hi, candidates=candidates, source_path=path)


# ---------------------------------------------------------------------------
# Feasibility and active sets
# ---------------------------------------------------------------------------


@dataclass
class FeasibilityReport:
    feasible: bool
    g_values: np.ndarray  # g_k(E(x)); feasible when <= tol
    h_values: np.ndarray  # h_j(E(x)); feasible when |.| <= tol
    worst: float          # largest violation, 0 when feasible

    def to_dict(self):
        return {"feasible": self.feasible, "g_values": _jsonable(self.g_values),
                "h_values": _jsonable(self.h_values), "worst": _jsonable(self.worst)}


def constraint_slacks(problem: EProblem, X):
    """Every composed constraint at the rows of X, each evaluated once.

    Returns (g, h, worst, node): g and h hold one value column (N,) per
    inequality and equality; worst is each row's largest violation
    max(g, |h|), -inf without constraints and +inf where a constraint
    leaves its domain or is nan; node is the first constraint node that
    left its domain, or None.
    """
    env = problem.env_x(X)
    g = [ex.eval_many(fn.composed, env) for fn in problem.ineq]
    h = [ex.eval_many(fn.composed, env) for fn in problem.eq]
    worst = np.full(np.atleast_2d(X).shape[0], -np.inf)
    for r, violation in [(r, r.values) for r in g] + [(r, np.abs(r.values)) for r in h]:
        np.maximum(worst, violation, out=worst)  # a nan propagates
        if r.invalid_node is not None:  # set exactly when some row left the domain
            worst[r.invalid] = np.inf
    worst[np.isnan(worst)] = np.inf
    node = next((r.invalid_node for r in g + h if r.invalid_node is not None), None)
    return [r.values for r in g], [r.values for r in h], worst, node


def feasible(problem: EProblem, x, tol: float = 1e-9) -> FeasibilityReport:
    """Constraint slacks of a single point (evaluated through composed forms)."""
    x = np.asarray(x, dtype=float).reshape(1, problem.n)
    g, h, worst, node = constraint_slacks(problem, x)
    if node is not None:
        raise DomainEvalError(node, point=list(map(float, x[0])))
    worst = max(0.0, float(worst[0]))
    return FeasibilityReport(worst <= tol, np.array([c[0] for c in g], dtype=float),
                             np.array([c[0] for c in h], dtype=float), worst)


@dataclass
class ActiveSets:
    """0-based index sets; report labels are 1-based names like g2."""

    active_ineq: list   # k with |g_k(E(y))| <= tol
    eq_plus: list       # j with xi_j > tol
    eq_minus: list      # j with xi_j < -tol

    def to_dict(self):
        return {"active_ineq": self.active_ineq, "eq_plus": self.eq_plus, "eq_minus": self.eq_minus}


def active_sets(problem: EProblem, y, tol: float = 1e-9, xi=None) -> ActiveSets:
    rep = feasible(problem, y, tol)
    if not rep.feasible:
        raise InfeasiblePointError(
            f"point {list(map(float, np.asarray(y, float)))} infeasible (worst violation {rep.worst:.3g})")
    active = [k for k, v in enumerate(rep.g_values) if abs(v) <= tol]
    plus, minus = [], []
    if xi is not None:
        for j, v in enumerate(np.asarray(xi, dtype=float)):
            if v > tol:
                plus.append(j)
            elif v < -tol:
                minus.append(j)
    return ActiveSets(active, plus, minus)


# ---------------------------------------------------------------------------
# Regions and rejection sampling
# ---------------------------------------------------------------------------


@dataclass
class Region:
    """A membership predicate over row-stacked points."""

    name: str
    contains: Callable[[np.ndarray], np.ndarray]


def box_region(problem: EProblem, tol: float = 1e-9) -> Region:
    lo, hi = problem.lo, problem.hi

    def contains(P):
        P = np.atleast_2d(P)
        return np.all((P >= lo - tol) & (P <= hi + tol), axis=1)

    return Region("box", contains)


def feasible_region(problem: EProblem, tol: float = 1e-9) -> Region:
    """Box intersected with the constraint system (composed forms)."""
    box = box_region(problem, tol)

    def contains(P):
        P = np.atleast_2d(P)
        return box.contains(P) & (constraint_slacks(problem, P)[2] <= tol)

    return Region("feasible", contains)


def sample_region(problem: EProblem, stream: SampleStream, count: int, region: Region,
                  max_rounds: int = 64) -> np.ndarray:
    """Uniform points of the box kept when region accepts them.

    Deterministic given the stream; raises SamplingStarvedError when the
    acceptance rate is too low to collect `count` points.
    """
    got = []
    have = 0
    chunk = max(count, 1024)
    for _ in range(max_rounds):
        pts = stream.box(problem.lo, problem.hi, chunk)
        keep = pts[region.contains(pts)]
        if keep.size:
            got.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(got, axis=0)[:count]
    raise SamplingStarvedError(
        f"could not draw {count} points from region '{region.name}' "
        f"({have} accepted after {max_rounds * chunk} proposals)")


# ---------------------------------------------------------------------------
# Invex set membership
# ---------------------------------------------------------------------------


def einvex_set_check(problem: EProblem, cfg: SampleConfig = SampleConfig(),
                     region: Optional[Region] = None) -> Verdict:
    """Sampled membership check of E(x0) + tau*eta(E(x), E(x0)) in the region.

    The default region is the domain box with +/- tol slack on each face.
    Points x, x0 are drawn from the region itself.
    """
    from .rng import tau_grid  # local import to keep module load cheap

    region = region or box_region(problem, cfg.tol)
    try:
        X = sample_region(problem, SampleStream(cfg.seed, "pairs-x"), cfg.n_pairs, region)
        X0 = sample_region(problem, SampleStream(cfg.seed, "pairs-x0"), cfg.n_pairs, region)
    except SamplingStarvedError as e:
        return Verdict.inconclusive(str(e))
    T = tau_grid(SampleStream(cfg.seed, "tau"), cfg.n_pairs, cfg.n_tau)

    U, bad_u = problem.e_map(X)
    V, bad_v = problem.e_map(X0)
    H, bad_h = problem.eta_map(U, V)
    bad = bad_u | bad_v | bad_h
    if bad.any():
        i = int(np.argmax(bad))
        return Verdict.inconclusive(
            f"map evaluation failed at x={X[i].tolist()}, x0={X0[i].tolist()}")

    Z = V[:, None, :] + T[:, :, None] * H[:, None, :]   # (N, T, n)
    member = region.contains(Z.reshape(-1, problem.n)).reshape(T.shape)
    if not member.all():
        flat = int(np.argmax(~member))
        i, t = divmod(flat, cfg.n_tau)
        w = Witness(x=X[i].tolist(), x0=X0[i].tolist(), tau=float(T[i, t]),
                    comparison="combined point left the region", index=flat,
                    extra={"combined": Z[i, t].tolist()})
        return Verdict.fails(w, checked=member.size)
    return Verdict.holds(checked=member.size)
