"""Brute-force grid oracle for (weak) Pareto sets of the composed program.

Completely independent of the invexity machinery: it enumerates a finite
grid of the domain box, filters by the constraints, and classifies the
objective vectors.  Its job is to confirm or refute what the certificates
claim, so it shares nothing with them except the problem file.

Dominance uses the package-wide tie tolerance: z strictly dominates y when
every objective of z is below that of y by more than tol; z dominates y
(for the strict Pareto order) when every objective is within tol of being
no worse and at least one is better by more than tol.

Classification is a skyline reduction (Kung, Luccio and Preparata 1975;
Borzsonyi, Kossmann and Stocker 2001).  First the minimal set M of the N
objective rows under the plain product order, found by a lexicographic
presort and a block filter; then every row is tested against M alone with
the tolerance rules, N |M| comparisons instead of N^2.  The guard caps
N |M| at MAX_COMPARISONS, checked while M grows.

The grid is the box lattice plus the candidates and the query point that
are not lattice points; a point outside the box has no verdict and is
refused (problem.require_in_box), and a query point must also be feasible
(problem.point_slacks).  A point query and the minimizer check walk the
grid in grid order, one block at a time: a block is a run of whole slabs of
the leading axis, and the off-lattice points follow the lattice as one last
block.  The first lattice block holds at least _QUERY_ROWS // 32 points and
each next one twice as many slabs, up to _QUERY_ROWS points but always at
least one slab, so a witness near the front of the grid costs a small
block.  Before a block is filled, the interval enclosures of its functions
over the block's box (expr.enclose) may rule it out: the block is then
skipped, unfilled and unevaluated.  Each skip test is the walk's own float
comparison applied to an enclosure end, so no answer changes.  A query
stops at the first block that holds a dominating point; neither check
holds more than one block of points and values at once.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from .errors import GridGuardError, InfeasiblePointError
from .problem import (EProblem, ProblemFunction, constraint_slacks, eval_columns, point_slacks,
                      require_in_box)

MAX_GRID_POINTS = 10_000_000
MAX_COMPARISONS = 20_000 ** 2  # feasible points times minimal objective rows
_BLOCK = 256                   # sorted rows per block of the minimal-set filter
_CHUNK = 1 << 22               # comparison cells per block of the final test
_CSV_ROWS = 1 << 16            # grid rows formatted per write of dump_csv
_QUERY_ROWS = 1 << 15          # grid points per block of a query or minimizer check
LIST_CAP = 1000                # points listed per set in a grid report


@dataclass(frozen=True)
class GridSpec:
    """Points per axis; axes span the problem box exactly (corners included)."""

    counts: tuple

    def __post_init__(self):
        if not self.counts or any(int(c) < 1 for c in self.counts):
            raise GridGuardError("grid needs at least one point per axis")
        total = math.prod(int(c) for c in self.counts)
        if total > MAX_GRID_POINTS:
            raise GridGuardError(f"grid of {total} points exceeds the guard of {MAX_GRID_POINTS}")

    @staticmethod
    def uniform(count: int, n: int) -> "GridSpec":
        return GridSpec(tuple([count] * n))


def _counts(problem: EProblem, grid: GridSpec) -> list:
    if len(grid.counts) != problem.n:
        raise GridGuardError(f"grid has {len(grid.counts)} axes, problem has {problem.n}")
    return [int(c) for c in grid.counts]


def _scaled(y, lo, hi, count: int):
    """The indices y (an array, scaled in place, or a float) as values of
    np.linspace(lo, hi, count), with linspace's arithmetic: index * step + lo.
    linspace then sets its last value to hi; the callers do."""
    delta = hi - lo
    if count > 1:
        step = delta / (count - 1)
        if step == 0:  # the step underflows: linspace divides, then scales
            y /= count - 1
            y *= delta
        else:
            y *= step
    else:
        y *= delta
    y += lo
    return y


def _span(lo, hi, count: int, first: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """np.linspace(lo, hi, count)[first:stop], computed for those values alone."""
    stop = count if stop is None else stop
    y = _scaled(np.arange(first, stop, dtype=float), lo, hi, count)
    if count > 1 and stop == count:
        y[-1] = hi
    return y


def _at(lo, hi, count: int, i: int) -> float:
    """np.linspace(lo, hi, count)[i]."""
    if count > 1 and i == count - 1:
        return float(hi)
    return _scaled(float(i), float(lo), float(hi), count)


def _on_axis(lo, hi, count: int, v) -> bool:
    """v equals some value of the axis, found by bisection: the values are
    non-decreasing, so O(log count)."""
    i = bisect.bisect_left(range(count), v, key=lambda k: _at(lo, hi, count, k))
    return i < count and _at(lo, hi, count, i) == v


def _admit(problem: EProblem, counts: list, extra_points=None) -> np.ndarray:
    """The candidates and extra_points that are not lattice points, each once,
    as rows (k, n).

    A point is a lattice point when each coordinate equals some value of its
    axis (_on_axis), O(sum of log counts) per point.  Each point is admitted by
    require_in_box: one outside the box, or with a nan coordinate, raises
    InfeasiblePointError.
    """
    snap = [c.x for c in problem.candidates]
    if extra_points is not None:
        snap += list(np.atleast_2d(extra_points))
    add = []
    for s in snap:
        s = require_in_box(problem, s)
        on_lattice = all(map(_on_axis, problem.lo, problem.hi, counts, s))
        if not (on_lattice or any((a == s).all() for a in add)):
            add.append(s)
    return np.array(add).reshape(len(add), problem.n)


def _fill(out: np.ndarray, axes: list) -> np.ndarray:
    """Fill the C-contiguous rows of out with the product of the axes in C
    order, one broadcast assignment per axis."""
    n = len(axes)
    lattice = out.reshape(*(a.size for a in axes), n)
    for j, a in enumerate(axes):
        lattice[..., j] = a.reshape((-1,) + (1,) * (n - 1 - j))
    return out


def build_grid(problem: EProblem, grid: GridSpec, extra_points=None) -> np.ndarray:
    """Cartesian grid over the box in C order, then the candidates and
    extra_points that are not lattice points, each once (see _admit)."""
    counts = _counts(problem, grid)
    add = _admit(problem, counts, extra_points)
    size = math.prod(counts)
    pts = np.empty((size + len(add), problem.n))
    _fill(pts[:size], list(map(_span, problem.lo, problem.hi, counts)))
    pts[size:] = add
    return pts


def _admitted(problem: EProblem, grid: Optional[GridSpec], point: np.ndarray):
    """(counts, off-lattice rows) of build_grid(problem, grid, point), admitted
    in the order of build_grid, so errors come in its order."""
    counts = _counts(problem, grid or GridSpec.uniform(33, problem.n))
    return counts, _admit(problem, counts, point[None, :])


def _blocks(problem: EProblem, counts: list, add: np.ndarray, ruled_out):
    """The rows of build_grid in blocks, in grid order, leaving out every
    block whose box ruled_out(box) rejects.

    A box maps each variable to the (lo, hi) of the block's values; it is
    asked for before the block is filled, and after the previous block was
    taken.  The lattice blocks are runs of whole leading-axis slabs.  The
    first holds at least _QUERY_ROWS // 32 points, and each next one twice
    as many slabs, up to _QUERY_ROWS points, but always at least one slab.
    They are filled into one buffer: a block is valid until the next is
    taken.  The off-lattice points follow as one last block.  Only the
    trailing axes and one block are ever held, never the whole leading axis.
    """
    lo, hi, lead = problem.lo[0], problem.hi[0], counts[0]
    rest = list(map(_span, problem.lo[1:], problem.hi[1:], counts[1:]))
    rest_box = [(a[0], a[-1]) for a in rest]  # the axis values are non-decreasing
    slab = math.prod(counts[1:])
    cap = max(1, _QUERY_ROWS // slab)
    step = min(cap, math.ceil(max(1, _QUERY_ROWS // 32) / slab))  # slabs in the first block
    buf = np.empty((min(cap, lead) * slab, problem.n))
    first = 0
    while first < lead:
        stop = min(first + step, lead)
        ends = (_at(lo, hi, lead, first), _at(lo, hi, lead, stop - 1))
        if not ruled_out(dict(zip(problem.vars, [ends] + rest_box))):
            axis = _span(lo, hi, lead, first, stop)
            yield _fill(buf[:axis.size * slab], [axis] + rest)
        first, step = stop, min(2 * step, cap)
    if len(add) and not ruled_out(dict(zip(problem.vars, zip(add.min(axis=0), add.max(axis=0))))):
        yield add


def _objective_matrix(problem: EProblem, pts: np.ndarray):
    return eval_columns([fn.composed for fn in problem.objectives], problem.env_x(pts))


def _below(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i, j]: row j of A is <= row i of B in every column."""
    out = A[None, :, 0] <= B[:, None, 0]
    for k in range(1, A.shape[1]):  # one 2-D pass per column beats a 3-D reduction
        out &= A[None, :, k] <= B[:, None, k]
    return out


def _minimal_rows(F: np.ndarray) -> np.ndarray:
    """One row per distinct minimal row of F under the plain product order.

    The rows are presorted lexicographically, so a row can only be dominated
    by rows before it.  Each block of sorted rows is tested against the
    minimal rows found so far, then its survivors against each other.  The
    comparison guard is checked as the minimal set grows, so the filter never
    does more than MAX_COMPARISONS comparisons plus one block per row.
    """
    N = F.shape[0]
    S = F[np.lexsort(F.T[::-1])]
    distinct = np.ones(N, dtype=bool)
    distinct[1:] = (S[1:] != S[:-1]).any(axis=1)
    S = S[distinct]
    M = S[:0]
    for start in range(0, S.shape[0], _BLOCK):
        blk = S[start:start + _BLOCK]
        if M.shape[0]:
            blk = blk[~_below(M, blk).any(axis=1)]
        below = _below(blk, blk)
        np.fill_diagonal(below, False)  # rows are distinct: <= elsewhere is domination
        M = np.concatenate([M, blk[~below.any(axis=1)]])
        if N * M.shape[0] > MAX_COMPARISONS:
            raise GridGuardError(
                f"{N} feasible points times at least {M.shape[0]} minimal objective rows "
                f"exceed the comparison guard of {MAX_COMPARISONS}; coarsen the grid or "
                f"use a point query")
    return M


def skyline_masks(F: np.ndarray, tol: float):
    """(weak_pareto, pareto) membership masks for the rows of F.

    Every row is tested against the minimal set M only, O(N |M| p).  This is
    exact: when some row z beats y under the tolerance rules, some m in M has
    m <= z, and m beats y as well.
    """
    M = _minimal_rows(F)
    N = F.shape[0]
    weak = np.ones(N, dtype=bool)
    pareto = np.ones(N, dtype=bool)
    step = max(1, _CHUNK // max(M.shape[0], 1))
    for start in range(0, N, step):
        blk = F[start:start + step]
        lo, hi = blk - tol, blk + tol
        strictly = np.ones((blk.shape[0], M.shape[0]), dtype=bool)  # [i, j]: M[j] vs row i
        better = np.zeros_like(strictly)
        for k in range(F.shape[1]):
            lt = M[None, :, k] < lo[:, None, k]
            strictly &= lt
            better |= lt
        dominates = _below(M, hi) & better
        weak[start:start + step] = ~strictly.any(axis=1)
        pareto[start:start + step] = ~dominates.any(axis=1)
    return weak, pareto


@dataclass
class GridReport:
    grid: np.ndarray          # every grid point
    feasible: np.ndarray      # constraint mask over the grid
    values: np.ndarray        # objective rows over the grid
    failed: np.ndarray        # some objective failed to evaluate
    weak_mask: np.ndarray     # over the grid, false outside the compared points
    pareto_mask: np.ndarray
    tol: float

    @property
    def compared(self):
        # a feasible point where an objective fails to evaluate is kept out
        # of the comparison rather than poisoning it
        return self.feasible & ~self.failed

    @property
    def grid_points(self):
        return self.grid.shape[0]

    @property
    def feasible_points(self):
        return int(np.count_nonzero(self.feasible))

    @property
    def failed_points(self):
        return int(np.count_nonzero(self.feasible & self.failed))

    @property
    def weak_points(self):
        return self.grid[self.weak_mask]

    @property
    def pareto_points(self):
        return self.grid[self.pareto_mask]

    def to_dict(self):
        d = {"grid_points": self.grid_points, "feasible_points": self.feasible_points,
             "failed_points": self.failed_points,
             "weak_pareto_count": int(np.count_nonzero(self.weak_mask)),
             "pareto_count": int(np.count_nonzero(self.pareto_mask)),
             "weak_pareto_points": self.weak_points[:LIST_CAP],
             "pareto_points": self.pareto_points[:LIST_CAP]}
        if max(d["weak_pareto_count"], d["pareto_count"]) > LIST_CAP:
            d["truncated_at"] = LIST_CAP
        return d


def grid_oracle(problem: EProblem, grid: Optional[GridSpec] = None, tol: float = 1e-9) -> GridReport:
    """Enumerate the grid and classify every feasible point."""
    pts = build_grid(problem, grid or GridSpec.uniform(33, problem.n))
    keep = constraint_slacks(problem, pts)[2] <= tol
    F, bad = _objective_matrix(problem, pts)
    if not keep.any():
        raise InfeasiblePointError("no feasible grid point at this resolution; refine the grid")
    report = GridReport(pts, keep, F, bad, np.zeros_like(keep), np.zeros_like(keep), tol)
    cmp = report.compared
    if not cmp.any():  # a pass with no point compared would claim nothing
        raise InfeasiblePointError("the objectives fail to evaluate at every feasible grid point; "
                                   "nothing to compare")
    report.weak_mask[cmp], report.pareto_mask[cmp] = skyline_masks(F[cmp], tol)
    return report


def _surely_infeasible(problem: EProblem, box: dict, tol: float) -> bool:
    """Some constraint is violated by more than tol on the whole box: an
    inequality's lower end, or an equality's |h|, is above tol."""
    return (any(ex.enclose(fn.composed, box)[0] > tol for fn in problem.ineq)
            or any(max(lo, -hi) > tol
                   for lo, hi in (ex.enclose(fn.composed, box) for fn in problem.eq)))


def is_weak_pareto(problem: EProblem, y, grid: Optional[GridSpec] = None, tol: float = 1e-9):
    """(verdict, witness): the witness is the first feasible grid point, in
    grid order, whose objectives all evaluate and are all below those of y
    by more than tol.  The queried point itself always joins the grid.

    y is admitted by point_slacks first, so a query outside the box or
    infeasible raises InfeasiblePointError; then the grid's other points are
    admitted, then y's objectives must evaluate.  The grid is walked in
    blocks (_blocks), and the walk stops at the first block that holds a
    witness.  A block is skipped unfilled where an enclosure (ex.enclose)
    shows no point of its box can be a witness: some objective's lower end
    is not below f_k(y) - tol, or some constraint fails on the whole box.
    A block that is filled is judged in one pass, every objective and
    constraint at every point of it.
    """
    y = np.asarray(y, dtype=float).reshape(problem.n)
    point_slacks(problem, y, tol, "query point")
    counts, add = _admitted(problem, grid, y)
    fy, bady = _objective_matrix(problem, y[None, :])
    if bady.any():
        raise InfeasiblePointError(f"objectives do not evaluate at {y.tolist()}")
    bound = fy[0] - tol

    def ruled_out(box):
        return (any(ex.enclose(fn.composed, box)[0] >= b
                    for fn, b in zip(problem.objectives, bound))
                or _surely_infeasible(problem, box, tol))

    for pts in _blocks(problem, counts, add, ruled_out):
        F, bad = _objective_matrix(problem, pts)
        better = ~bad & (F < bound).all(axis=1) & (constraint_slacks(problem, pts)[2] <= tol)
        i = int(np.argmax(better))
        if better[i]:
            return False, {"x": pts[i].tolist(), "objectives": F[i].tolist(),
                           "query_objectives": fy[0].tolist()}
    return True, None


@dataclass
class MinimizerReport:
    gradient: np.ndarray
    gradient_inf_norm: float
    value: float
    is_minimizer: bool
    witness: Optional[dict]


def e_minimizer_check(fn: ProblemFunction, problem: EProblem, xbar,
                      grid: Optional[GridSpec] = None, tol: float = 1e-9) -> MinimizerReport:
    """Stationarity plus a grid check that xbar minimizes (fn o E) on the box.

    xbar is admitted by require_in_box before fn is evaluated there.  The
    grid is walked in blocks (_blocks) with a running verdict and a running
    argmin that a later block replaces only when strictly lower, so the
    witness is the first grid point, in grid order, of least value.  Once
    the argmin is set, a block is skipped unfilled where the lower end lo of
    fn's enclosure over its box is at least the argmin's value: no point of
    it is strictly lower, and while the verdict holds, value(xbar) <= argmin
    + tol <= lo + tol, so it holds on the block too.
    """
    xbar = require_in_box(problem, xbar)
    env = {name: float(v) for name, v in zip(problem.vars, xbar)}
    grad = ex.gradient(fn.composed, env, problem.vars)
    value = ex.evaluate(fn.composed, env)
    is_min, best, at = True, None, None

    def ruled_out(box):
        return best is not None and ex.enclose(fn.composed, box)[0] >= best

    for pts in _blocks(problem, *_admitted(problem, grid, xbar), ruled_out):
        r = problem.composed_values(fn, pts)
        vals = np.where(r.failed, np.inf, r.values)
        is_min &= bool(np.all(value <= vals + tol))
        i = int(np.argmin(vals))
        if best is None or vals[i] < best:
            best, at = float(vals[i]), pts[i].tolist()
    witness = None if is_min else {"x": at, "value": best, "value_at_xbar": value}
    return MinimizerReport(grad, float(np.max(np.abs(grad))) if grad.size else 0.0,
                           value, is_min, witness)


def dump_csv(problem: EProblem, report: GridReport, path) -> int:
    """Write every grid point of a grid_oracle report with objectives and flags.

    The bytes are those of csv.writer: %.12g floats, blank objective cells
    where an objective failed, 0/1 flags, \\r\\n line ends.  Cells are
    formatted a column at a time, _CSV_ROWS rows at a time; a grid column
    repeats few values, so each distinct one is formatted once, keyed by its
    bits (a -0.0 keeps its "-0").
    """
    r = report
    num = "%.12g".__mod__
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(problem.vars) + [f.name for f in problem.objectives]
                                + ["feasible", "weak_pareto", "pareto"])
        for start in range(0, r.grid_points, _CSV_ROWS):
            rows = slice(start, start + _CSV_ROWS)
            cols = []
            for c in r.grid[rows].T:
                keys, at = np.unique(c.view(np.int64), return_inverse=True)
                distinct = np.array(list(map(num, keys.view(float).tolist())), dtype=object)
                cols.append(distinct[at].tolist())
            failed = np.flatnonzero(r.failed[rows]).tolist()
            for c in r.values[rows].T.tolist():
                cells = list(map(num, c))
                for i in failed:
                    cells[i] = ""
                cols.append(cells)
            cols += [np.where(m[rows], "1", "0").tolist()
                     for m in (r.feasible, r.weak_mask, r.pareto_mask)]
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
    return r.grid_points
