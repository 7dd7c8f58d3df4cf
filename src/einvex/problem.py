"""Problem container: an E-composed multiobjective program loaded from JSON.

A problem bundles the distortion map E, the kernel eta, objectives f_i,
inequality constraints g_k (g <= 0), equality constraints h_j (h = 0), a
domain box, and named candidate points.  Every function is kept in two
forms: raw (over the image variables y1..yn) and composed (over the
problem variables), with hand-supplied composed forms validated against
direct substitution at load time.  A single point judged on its own is
admitted by point_slacks; sampled and grid points are filtered instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import (ComposeMismatchError, DomainEvalError, InfeasiblePointError, ParseError,
                     ProblemFormatError, SamplingStarvedError)
from .rng import SampleStream, tau_grid


MAX_ROUNDS = 64  # proposal rounds of sample_region before it reports starvation


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
        failed |= ~np.isfinite(r.values)
        if r.invalid_node is not None:  # set exactly when some row left the domain
            failed |= r.invalid
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
# Constraint slacks and the single-point admission gate
# ---------------------------------------------------------------------------


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


def require_in_box(problem: EProblem, x, role: str = "point") -> np.ndarray:
    """x as an (n,) array; InfeasiblePointError unless lo <= x <= hi, with no
    tolerance (a nan coordinate lies outside).  ``role`` names the point."""
    x = np.asarray(x, dtype=float).reshape(problem.n)
    if not np.all((problem.lo <= x) & (x <= problem.hi)):
        raise InfeasiblePointError(f"{role} {x.tolist()} lies outside the box "
                                   f"[{problem.lo.tolist()}, {problem.hi.tolist()}]")
    return x


def point_slacks(problem: EProblem, x, tol: float = 1e-9, role: str = "point"):
    """The slacks g (m,), h (q,) of a single point judged on its own, from one
    constraint_slacks call, once it lies in the box (require_in_box).  Raises
    DomainEvalError where a constraint leaves its domain, and
    InfeasiblePointError where g > tol or |h| > tol (nan included).
    """
    x = require_in_box(problem, x, role)
    g, h, worst, node = constraint_slacks(problem, x[None, :])
    if node is not None:
        raise DomainEvalError(node, point=x.tolist())
    if worst[0] > tol:
        raise InfeasiblePointError(f"{role} {x.tolist()} infeasible (worst violation {worst[0]:.3g})")
    return np.array([c[0] for c in g], dtype=float), np.array([c[0] for c in h], dtype=float)


# ---------------------------------------------------------------------------
# Regions, sampling and sampled verdicts
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


def sample_region(problem: EProblem, stream: SampleStream, count: int, region: Region) -> np.ndarray:
    """Uniform points of the box kept when region accepts them.

    Deterministic given the stream; raises SamplingStarvedError when the
    acceptance rate is too low to collect `count` points in MAX_ROUNDS
    proposal rounds.
    """
    got = []
    have = 0
    chunk = max(count, 1024)
    for _ in range(MAX_ROUNDS):
        pts = stream.box(problem.lo, problem.hi, chunk)
        keep = pts[region.contains(pts)]
        if keep.size:
            got.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(got, axis=0)[:count]
    raise SamplingStarvedError(
        f"could not draw {count} points from region '{region.name}' "
        f"({have} accepted after {MAX_ROUNDS * chunk} proposals)")


def sample_pairs(problem: EProblem, cfg: SampleConfig, region: Region, at=None):
    """The seeded pairs (X, X0), each (N, n), that every sampled checker draws.

    X and X0 come from the region through one named stream each, so the same
    seed yields the same pairs in every checker; that makes the definitional
    cross-checks (epigraph vs mixture inequality, level sets vs the max
    form) sample-exact.  ``at`` pins the base point: X0 is then that single
    row and no x0 stream is drawn.
    """
    X = sample_region(problem, SampleStream(cfg.seed, "pairs-x"), cfg.n_pairs, region)
    if at is not None:
        return X, np.asarray(at, dtype=float).reshape(1, problem.n)
    return X, sample_region(problem, SampleStream(cfg.seed, "pairs-x0"), cfg.n_pairs, region)


@dataclass
class MixtureSamples:
    """Seeded triples (x, x0, tau) through E and eta: the mixture-family
    checks evaluate f at their combined points E(x0) + tau*eta(E(x), E(x0)),
    the invex-set check tests those for membership."""

    X: np.ndarray       # (N, n)
    X0: np.ndarray
    T: np.ndarray       # (N, k) mixture weights
    U: np.ndarray       # E(X)
    V: np.ndarray       # E(X0)
    H: np.ndarray       # eta(U, V)
    bad: np.ndarray     # (N,) pairs whose evaluation failed
    invalid_comb: Optional[np.ndarray] = None  # (N, k) failed triples, bad pairs included
    nondiff = None  # no gradients taken: every bad pair is a failed evaluation

    def combined(self) -> np.ndarray:
        """The (N, k, n) combined points."""
        return self.V[:, None, :] + self.T[:, :, None] * self.H[:, None, :]


def mixture_samples(problem: EProblem, cfg: SampleConfig, region: Region) -> MixtureSamples:
    """The shared pairs with their "tau" weights, through E and eta."""
    X, X0 = sample_pairs(problem, cfg, region)
    T = tau_grid(SampleStream(cfg.seed, "tau"), cfg.n_pairs, cfg.n_tau)
    U, bad_u = problem.e_map(X)
    V, bad_v = problem.e_map(X0)
    H, bad_h = problem.eta_map(U, V)
    return MixtureSamples(X, X0, T, U, V, H, bad_u | bad_v | bad_h)


def _point_list(row):
    return [float(v) for v in np.atleast_1d(row)]


class Judgement(NamedTuple):
    """What a checker's definition says about samples free of bad rows."""

    sat: np.ndarray                      # False at a violation
    witness: Callable[[int], Witness]    # the witness of a flat index into sat
    nonvac: Optional[np.ndarray] = None  # samples that exercised the inequality; None: not counted
    vacuous: Optional[str] = None        # why the samples show nothing, by the checker's own rule


def sampled_verdict(draw, judge, vacuous_policy: str = "holds", failed: str = "evaluation",
                    weight: int = 1) -> Verdict:
    """The one path from sampled pairs to a Verdict, in this order:

    1. inconclusive when ``draw()`` raises SamplingStarvedError;
    2. inconclusive at the first row of the samples' ``bad`` (N,), else of
       ``invalid_comb`` (N, k) (None without mixture weights T), naming
       the failed quantity: "gradient" at a kink (the samples' ``nondiff``),
       else ``failed``;
    3. fails at the first violation of ``judge(samples)``, a Judgement;
    4. inconclusive when the samples are vacuous: by the judge's own rule,
       or, under vacuous_policy "inconclusive", when none is nonvacuous;
    5. holds.

    ``checked`` counts the judged instances drawn, whatever the status:
    ``weight`` per pair, or per (pair, tau) with T.
    """
    try:
        s = draw()
    except SamplingStarvedError as e:
        return Verdict.inconclusive(str(e))
    checked = weight * (s.X.shape[0] if s.T is None else s.T.size)
    tail = None
    if s.bad.any():
        i, tail = int(np.argmax(s.bad)), ""
        if s.nondiff is not None and s.nondiff[i]:
            failed = "gradient"
    elif s.invalid_comb is not None and s.invalid_comb.any():
        i, t = divmod(int(np.argmax(s.invalid_comb)), s.T.shape[1])
        tail = f", tau={float(s.T[i, t])}"
    if tail is not None:
        return Verdict.inconclusive(
            f"{failed} failed at x={_point_list(s.X[i])}, x0={_point_list(s.X0[i])}{tail}",
            checked=checked)

    j = judge(s)
    viol = ~j.sat
    if viol.any():
        return Verdict.fails(j.witness(int(np.argmax(viol))), checked=checked)
    nv = None if j.nonvac is None else int(np.count_nonzero(j.nonvac))
    vacuous = j.vacuous
    if vacuous is None and vacuous_policy == "inconclusive" and nv == 0:
        vacuous = "all samples were vacuous for this definition"
    if vacuous is not None:
        return Verdict.inconclusive(vacuous, checked=checked)
    return Verdict.holds(checked=checked, nonvacuous=nv)


def einvex_set_check(problem: EProblem, cfg: SampleConfig = SampleConfig(),
                     region: Optional[Region] = None) -> Verdict:
    """Sampled membership check of E(x0) + tau*eta(E(x), E(x0)) in the region.

    The default region is the domain box with +/- tol slack on each face.
    Points x, x0 are drawn from the region itself.
    """
    region = region or box_region(problem, cfg.tol)

    def judge(s):
        Z = s.combined()
        member = region.contains(Z.reshape(-1, problem.n)).reshape(s.T.shape)

        def witness(flat):
            i, t = divmod(flat, cfg.n_tau)
            return Witness(x=_point_list(s.X[i]), x0=_point_list(s.X0[i]), tau=float(s.T[i, t]),
                           comparison="combined point left the region", index=flat,
                           extra={"combined": Z[i, t].tolist()})

        return Judgement(member, witness)

    return sampled_verdict(lambda: mixture_samples(problem, cfg, region), judge,
                           failed="map evaluation")
