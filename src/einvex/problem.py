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

import hashlib
import io
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import (ComposeMismatchError, DomainEvalError, InfeasiblePointError, ParseError,
                     ProblemFormatError)
from .rng import SampleStream, tau_grid


MAX_ROUNDS = 64  # a region draw may spend MAX_ROUNDS * max(N, 1024) proposals on N points
BLOCK_PAIRS = 8192  # pairs drawn and judged at a time; no verdict depends on it


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
        if not (0.0 < self.tol < math.inf and 0.0 < self.strict_margin < math.inf):
            raise ValueError("tolerances must be finite and positive")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _jsonable(v):
    """Plain JSON data: a dataclass becomes the dict of its fields, except
    that a field declared ``= None`` is left out while it is None; nonfinite
    floats become their repr."""
    if is_dataclass(v):
        return {f.name: _jsonable(getattr(v, f.name)) for f in fields(v)
                if not (f.default is None and getattr(v, f.name) is None)}
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
    extra: Optional[dict] = None


@dataclass
class Verdict:
    """Outcome of one sampled check.

    "holds" is a sampling claim: no violation among `checked` samples, of
    which `nonvacuous` actually exercised the inequality.  "fails" carries a
    witness, and `checked` counts the samples up to and including its pair,
    in the canonical order of sampled_verdicts.  Every witness reports the
    values of the block that judged it; invexity.preinvex_sides and
    invex_sides replay a witness independently.
    "inconclusive" explains itself in `reason`; after a failed evaluation
    `checked` counts as for "fails", after a starved draw the samples before
    the pair that could not be drawn.
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
        failed |= r.failed
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
    sha256: Optional[str] = None  # of the bytes loaded from source_path

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


def _known_keys(entry, keys, location):
    """Refuse a key the loader does not read: a misspelled one would drop its data."""
    unknown = [k for k in entry if k not in keys]
    if unknown:
        raise ProblemFormatError(location, f"unknown key {unknown[0]!r} (known: {', '.join(keys)})")


def _parse_at(source, variables, location):
    _expect(isinstance(source, str), location, f"expected an expression string, got {type(source).__name__}")
    try:
        return ex.parse(source, variables)
    except ParseError as e:
        raise ProblemFormatError(location, str(e)) from e


def load_problem(source) -> EProblem:
    """Load a problem from a JSON file path, read once and hashed as read
    (``sha256``), or from a plain dict."""
    path = digest = None
    if isinstance(source, (str, Path)):
        path = str(source)
        try:
            raw = Path(source).read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            # decoded as read_text() decodes a file: UTF-8, universal newlines
            data = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
        except OSError as e:
            raise ProblemFormatError(path, f"cannot read file: {e}") from e
        except UnicodeDecodeError as e:
            raise ProblemFormatError(path, f"cannot decode file as UTF-8: {e}") from e
        except json.JSONDecodeError as e:
            raise ProblemFormatError(path, f"invalid JSON: {e}") from e
    elif isinstance(source, dict):
        data = source
    else:
        raise ProblemFormatError("problem", f"unsupported source type {type(source).__name__}")

    _expect(isinstance(data, dict), "problem", "top level must be an object")
    _known_keys(data, ("n", "vars", "box", "E", "eta", "objectives", "ineq", "eq", "candidates"),
                "problem")
    n = data.get("n")
    _expect(isinstance(n, int) and n >= 1, "n", "must be a positive integer")
    vars = data.get("vars", [f"x{j + 1}" for j in range(n)])
    _expect(isinstance(vars, list) and len(vars) == n and all(isinstance(v, str) for v in vars),
            "vars", f"must list {n} variable names")
    _expect(len(set(vars)) == n, "vars", f"names must be distinct, got {vars}")
    y_names = [f"y{j + 1}" for j in range(n)]
    uv_names = [f"u{j + 1}" for j in range(n)] + [f"v{j + 1}" for j in range(n)]

    box = data.get("box")
    _expect(isinstance(box, dict) and "lo" in box and "hi" in box, "box", "must carry 'lo' and 'hi' arrays")
    _known_keys(box, ("lo", "hi"), "box")
    lo = np.asarray(box["lo"], dtype=float)
    hi = np.asarray(box["hi"], dtype=float)
    _expect(lo.shape == (n,) and hi.shape == (n,), "box", f"'lo' and 'hi' must have length {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(hi - lo).all()  # nan or inf in lo or hi makes the width non-finite
    _expect(bool(finite), "box", "'lo', 'hi' and their difference must be finite")
    _expect(bool(np.all(lo <= hi)), "box", "'lo' must be componentwise <= 'hi'")

    e_src = data.get("E")
    _expect(isinstance(e_src, list) and len(e_src) == n, "E", f"must list {n} component expressions")
    e_ops = [_parse_at(s, vars, f"E[{j}]") for j, s in enumerate(e_src)]

    eta_src = data.get("eta")
    _expect(isinstance(eta_src, list) and len(eta_src) == n, "eta", f"must list {n} component expressions")
    eta = [_parse_at(s, uv_names, f"eta[{j}]") for j, s in enumerate(eta_src)]

    points = None  # compose's validation points, drawn at the first override

    def build_group(key, prefix, required):
        nonlocal points
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
            _known_keys(entry, ("raw", "composed"), loc)
            raw = _parse_at(entry["raw"], y_names, f"{loc}.raw")
            override = None
            if entry.get("composed") is not None:
                override = _parse_at(entry["composed"], vars, f"{loc}.composed")
                if points is None:
                    points = ex.validation_points(lo, hi)
            try:
                composed = ex.compose(raw, e_ops, vars, override, points)
            except ComposeMismatchError as e:
                raise ProblemFormatError(f"{loc}.composed", str(e)) from e
            out.append(ProblemFunction(f"{prefix}{idx + 1}", raw, composed, override is not None))
        return out

    objectives = build_group("objectives", "f", required=True)
    ineq = build_group("ineq", "g", required=False)
    eq = build_group("eq", "h", required=False)

    entries = data.get("candidates", [])
    _expect(isinstance(entries, list), "candidates", "must be a list")
    candidates = []
    for idx, entry in enumerate(entries):
        loc = f"candidates[{idx}]"
        _expect(isinstance(entry, dict) and "x" in entry, loc, "expected {'name': ..., 'x': [...]}")
        _known_keys(entry, ("name", "x", "tau", "rho", "xi"), loc)
        x = np.asarray(entry["x"], dtype=float)
        _expect(x.shape == (n,), f"{loc}.x", f"must have length {n}")
        name = entry.get("name", f"c{idx + 1}")
        _expect(isinstance(name, str), f"{loc}.name", "must be a string")
        # a second candidate of one name could never be reached by name
        _expect(all(c.name != name for c in candidates), f"{loc}.name", f"duplicate name {name!r}")

        def opt_vec(key, length):
            if entry.get(key) is None:
                return None
            v = np.asarray(entry[key], dtype=float)
            _expect(v.shape == (length,), f"{loc}.{key}", f"must have length {length}")
            return v

        candidates.append(Candidate(name, x, opt_vec("tau", len(objectives)),
                                    opt_vec("rho", len(ineq)), opt_vec("xi", len(eq))))

    return EProblem(n=n, vars=list(vars), e_ops=e_ops, eta=eta, objectives=objectives,
                    ineq=ineq, eq=eq, lo=lo, hi=hi, candidates=candidates, source_path=path, sha256=digest)


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

    def contains(P):  # one pass per coordinate: reducing over the short point axis was 10x slower
        return np.logical_and.reduce([(p >= l - tol) & (p <= h + tol)
                                      for p, l, h in zip(np.atleast_2d(P).T, lo, hi)])

    return Region("box", contains)


def feasible_region(problem: EProblem, tol: float = 1e-9) -> Region:
    """Box intersected with the constraint system (composed forms)."""
    box = box_region(problem, tol)

    def contains(P):
        P = np.atleast_2d(P)
        return box.contains(P) & (constraint_slacks(problem, P)[2] <= tol)

    return Region("feasible", contains)


@dataclass
class RegionDraw:
    """The points of one region, handed out in order by sample_region.

    The proposals are the stream's uniform box points, in stream order, and
    the accepted ones form one sequence: any split of it into calls gives
    the same bits.  All calls share one budget of MAX_ROUNDS * max(total,
    1024) proposals, ``total`` being the number of points drawn for.
    """

    stream: SampleStream
    region: Region
    total: int
    proposals: int = 0                    # drawn so far
    accepted: int = 0                     # accepted so far, pending ones included
    pending: Optional[np.ndarray] = None  # accepted, not yet handed out

    @property
    def budget(self) -> int:
        return MAX_ROUNDS * max(self.total, 1024)

    def starved(self) -> str:
        return (f"could not draw {self.total} points from region '{self.region.name}' "
                f"({self.accepted} accepted after {self.budget} proposals)")


def sample_region(problem: EProblem, draw: RegionDraw, count: int) -> np.ndarray:
    """The next ``count`` accepted points of ``draw``; shape (count, n).

    Rounds of max(count, 1024) proposals run until enough are accepted, and
    what a round accepts beyond ``count`` waits for the next call.  Fewer
    rows come back only once the whole budget is spent without them;
    ``draw.starved()`` then says so.
    """
    got = [] if draw.pending is None else [draw.pending]
    have = sum(g.shape[0] for g in got)
    while have < count and draw.proposals < draw.budget:
        chunk = min(max(count, 1024), draw.budget - draw.proposals)
        pts = draw.stream.box(problem.lo, problem.hi, chunk)
        inside = draw.region.contains(pts)
        keep = pts if inside.all() else pts[inside]
        draw.proposals += chunk
        draw.accepted += keep.shape[0]
        got.append(keep)
        have += keep.shape[0]
    rows = np.concatenate(got, axis=0) if got else np.empty((0, problem.n))
    draw.pending = rows[count:]
    return rows[:count]


class PairDraw:
    """The seeded pairs (x, x0) of one sampled check, drawn in pair order.

    X and X0 come from the region through one named stream each, so the same
    seed yields the same pairs in every checker.  ``at`` pins the base
    point: every x0 is then that single row and no x0 stream is drawn.
    """

    def __init__(self, problem: EProblem, cfg: SampleConfig, region: Region, at=None):
        self.problem, self.region = problem, region
        self.x = RegionDraw(SampleStream(cfg.seed, "pairs-x"), region, cfg.n_pairs)
        self.x0 = None if at is not None else RegionDraw(SampleStream(cfg.seed, "pairs-x0"),
                                                         region, cfg.n_pairs)
        self.at = None if at is None else np.asarray(at, dtype=float).reshape(1, problem.n)
        self.taken = 0  # pairs handed out
        self.centers = np.empty((0, problem.n))  # the first base points, kept by invex_block


def sample_pairs(pairs: PairDraw, lo: int, hi: int):
    """Pairs lo..hi-1 as (X, X0, starved): X (b, n), X0 (b, n) or the pinned row.

    Ranges are drawn in order, each from where the last one ended.  b is
    hi - lo unless a stream spends its budget before pair lo + b; ``starved``
    is then that stream's message (the x stream's when both stop there),
    else None.
    """
    if lo != pairs.taken:
        raise ValueError(f"pairs from {lo} asked for after {pairs.taken} were drawn")
    X = sample_region(pairs.problem, pairs.x, hi - lo)
    starved = pairs.x.starved() if X.shape[0] < hi - lo else None
    X0 = pairs.at
    if X0 is None:
        X0 = sample_region(pairs.problem, pairs.x0, X.shape[0])
        if X0.shape[0] < X.shape[0]:
            X, starved = X[:X0.shape[0]], pairs.x0.starved()
    pairs.taken = lo + X.shape[0]
    return X, X0, starved


@dataclass
class MixtureSamples:
    """Seeded triples (x, x0, tau) of pairs lo.. through E and eta: the
    mixture-family checks evaluate f at their combined points
    E(x0) + tau*eta(E(x), E(x0)), the invex-set check tests those for
    membership.  One row per pair."""

    X: np.ndarray       # (N, n)
    X0: np.ndarray
    T: np.ndarray       # (N, k) mixture weights
    U: np.ndarray       # E(X)
    V: np.ndarray       # E(X0)
    H: np.ndarray       # eta(U, V)
    bad: np.ndarray     # (N,) pairs whose evaluation failed
    invalid_comb: Optional[np.ndarray] = None  # (N, k) failed triples, bad pairs included
    lo: int = 0                                # the first pair
    starved: Optional[str] = None              # why no pair after these could be drawn
    nondiff = None  # no gradients taken: every bad pair is a failed evaluation

    @property
    def unit(self) -> np.ndarray:   # each row is a pair of its own
        return np.arange(self.X.shape[0])

    @property
    def index(self) -> np.ndarray:  # the global index of each row: its pair
        return self.lo + self.unit

    def combined(self) -> np.ndarray:
        """The (N, k, n) combined points."""
        return self.V[:, None, :] + self.T[:, :, None] * self.H[:, None, :]


def mixture_samples(problem: EProblem, cfg: SampleConfig, pairs: PairDraw,
                    lo: int, hi: int) -> MixtureSamples:
    """Pairs lo..hi-1 with their "tau" weights, through E and eta."""
    X, X0, starved = sample_pairs(pairs, lo, hi)
    T = tau_grid(SampleStream(cfg.seed, "tau"), lo, lo + X.shape[0], cfg.n_tau)
    U, bad_u = problem.e_map(X)
    V, bad_v = problem.e_map(X0)
    H, bad_h = problem.eta_map(U, V)
    return MixtureSamples(X, X0, T, U, V, H, bad_u | bad_v | bad_h, lo=lo, starved=starved)


def _point_list(row):
    return [float(v) for v in np.atleast_1d(row)]


class Judgement(NamedTuple):
    """What a checker's definition says about a block of samples free of
    failed evaluations."""

    sat: np.ndarray                      # (rows, ...) False at a violation; flat order is canonical
    witness: Callable[..., dict]         # (row, *instance) -> the kind's Witness fields at sat[row, *instance]
    nonvac: Optional[np.ndarray] = None  # like sat: samples that exercised the inequality; None: not counted


def all_vacuous(counts) -> Optional[str]:
    """The vacuity rule of a definition that some sample must exercise."""
    return None if np.any(counts) else "all samples were vacuous for this definition"


def sample_rows(s, rows):
    """The samples of ``rows``, a slice or a boolean mask."""
    return replace(s, **{f.name: v[rows] for f in fields(s)
                         if isinstance(v := getattr(s, f.name), np.ndarray)})


def _failure(s, i: int, failed: str) -> str:
    tail = ""
    if not s.bad[i]:  # only a combined point failed
        tail = f", tau={float(s.T[i, int(np.argmax(s.invalid_comb[i]))])}"
    elif s.nondiff is not None and s.nondiff[i]:
        failed = "gradient"
    return f"{failed} failed at x={_point_list(s.X[i])}, x0={_point_list(s.X0[i])}{tail}"


class Hypothesis(NamedTuple):
    """One definition judged on a shared draw."""

    judge: Callable[..., Judgement]           # its samples -> their Judgement
    samples: Callable = lambda block: block   # a drawn block -> its samples of it
    vacuous: Optional[Callable] = None        # its vacuity rule, see sampled_verdicts
    failed: str = "evaluation"                # the quantity a failed evaluation names


@dataclass
class _Tally:
    """One hypothesis so far: instances judged, nonvacuous counts, its verdict once decided."""

    checked: int = 0
    counts: Optional[np.ndarray] = None
    verdict: Optional[Verdict] = None


def sampled_verdicts(n_pairs: int, draw, hypotheses: Sequence[Hypothesis]) -> list:
    """The one path from sampled pairs to Verdicts, one per hypothesis.

    ``draw(lo, hi)`` returns the block of pairs lo..hi-1, at most
    BLOCK_PAIRS of them at a time, and every hypothesis is judged on the
    same blocks: ``samples(block)`` gives its samples, with rows in
    canonical order (the samples' ``index`` is the global index of each row
    and ``unit`` its pair, counted in the block; it may skip pairs), and
    ``judge(samples)`` their Judgement.  For each hypothesis the first
    pair, in this order, that does one of the following decides, and that
    hypothesis is judged on no later block:

    1. fails to evaluate: inconclusive at its first row of the samples'
       ``bad``, else of ``invalid_comb`` (None without mixture weights T),
       naming the failed quantity: "gradient" at a kink (the samples'
       ``nondiff``), else ``failed``.  This wins over a violation at the
       same pair;
    2. violates: fails, with the witness of its first violation in the flat
       order of ``sat``;
    3. cannot be drawn within the proposal budget: inconclusive, with the
       sampler's message.

    No block is drawn once every hypothesis is decided, and none is kept
    past the next.

    The witness frame is built here.  A violation at sat[row, *instance]
    has x = X[row], x0 = X0[row] and index = index[row] * per_row + flat %
    per_row, where flat is its position in the flat order of ``sat`` and
    per_row = prod(sat.shape[1:]) the instances per row;
    ``witness(row, *instance)`` of the judgement adds the fields of its kind
    (tau, left, right, comparison, extra).

    With no deciding pair the verdict is inconclusive when
    ``vacuous(counts)`` gives a reason, ``counts`` being the nonvacuous
    samples summed over the pairs (one count per instance of a pair), and
    holds otherwise.

    ``checked`` counts judged instances, the entries of a row's judgement
    (one per tau, level or lift it tests): all of them for holds and vacuous
    verdicts, those up to and including the deciding pair for fails and
    failed evaluations, and those before the pair that could not be drawn
    for a starved draw.  The judgement of a head with no rows still gives
    the instances per row.
    """
    tallies = [_Tally() for _ in hypotheses]
    for lo in range(0, n_pairs, BLOCK_PAIRS):
        live = [(h, t) for h, t in zip(hypotheses, tallies) if t.verdict is None]
        if not live:
            break
        block = draw(lo, min(lo + BLOCK_PAIRS, n_pairs))
        for h, t in live:
            t.verdict = _decide(h, h.samples(block), t)
    for h, t in zip(hypotheses, tallies):
        if t.verdict is None:
            reason = None if h.vacuous is None else h.vacuous(t.counts)
            nv = None if t.counts is None else int(np.sum(t.counts))
            t.verdict = (Verdict.holds(t.checked, nv) if reason is None
                         else Verdict.inconclusive(reason, t.checked))
    return [t.verdict for t in tallies]


def _decide(h: Hypothesis, s, t: _Tally) -> Optional[Verdict]:
    """The verdict that the block's samples ``s`` decide for ``h``, or None
    with their instances and nonvacuous counts added to ``t``."""
    rows = s.bad.shape[0]
    failing = s.bad if s.invalid_comb is None else s.invalid_comb.any(axis=1)
    f = int(np.argmax(failing)) if failing.any() else rows
    r = f if f == rows else int(np.searchsorted(s.unit, s.unit[f]))
    j = h.judge(s if r == rows else sample_rows(s, slice(0, r)))
    per_row = math.prod(j.sat.shape[1:])
    if not j.sat.all():
        flat = int(np.argmax(~j.sat))
        row, *instance = map(int, np.unravel_index(flat, j.sat.shape))
        witness = Witness(_point_list(s.X[row]), _point_list(s.X0[row]),
                          index=int(s.index[row]) * per_row + flat % per_row,
                          **j.witness(row, *instance))
        return Verdict.fails(witness, t.checked + per_row * _through(s, row))
    if f < rows:
        return Verdict.inconclusive(_failure(s, f, h.failed), t.checked + per_row * _through(s, f))
    t.checked += per_row * rows
    if j.nonvac is not None:
        part = np.count_nonzero(j.nonvac, axis=0)
        t.counts = part if t.counts is None else t.counts + part
    if s.starved is not None:
        return Verdict.inconclusive(s.starved, t.checked)
    return None


def _through(s, row: int) -> int:
    """The rows up to and including the pair of ``row``."""
    return int(np.searchsorted(s.unit, s.unit[row], side="right"))
