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
(problem.point_slacks).  A point query is one masked pass over the whole
grid, with no copies of the point or objective rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import GridGuardError, InfeasiblePointError
from .problem import (EProblem, ProblemFunction, _jsonable, constraint_slacks, eval_columns,
                      point_slacks, require_in_box)

MAX_GRID_POINTS = 10_000_000
MAX_COMPARISONS = 20_000 ** 2  # feasible points times minimal objective rows
_BLOCK = 256                   # sorted rows per block of the minimal-set filter
_CHUNK = 1 << 22               # comparison cells per block of the final test
_CSV_ROWS = 1 << 16            # grid rows formatted per write of dump_csv


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


def build_grid(problem: EProblem, grid: GridSpec, extra_points=None) -> np.ndarray:
    """Cartesian grid over the box in C order, then the candidates and
    extra_points that are not lattice points, each once.

    The lattice is filled in place, one broadcast assignment per axis.  A
    point is a lattice point when each coordinate equals some value of its
    axis, O(sum of counts) per point.  Each point is admitted by
    require_in_box: one outside the box, or with a nan coordinate, raises
    InfeasiblePointError.
    """
    n = problem.n
    if len(grid.counts) != n:
        raise GridGuardError(f"grid has {len(grid.counts)} axes, problem has {n}")
    axes = [np.linspace(problem.lo[j], problem.hi[j], int(grid.counts[j])) for j in range(n)]
    snap = [c.x for c in problem.candidates]
    if extra_points is not None:
        snap += list(np.atleast_2d(extra_points))
    add = []
    for s in snap:
        s = require_in_box(problem, s)
        on_lattice = all((a == v).any() for a, v in zip(axes, s))
        if not (on_lattice or any((a == s).all() for a in add)):
            add.append(s)
    size = math.prod(a.size for a in axes)
    pts = np.empty((size + len(add), n))
    lattice = pts[:size].reshape(*(a.size for a in axes), n)
    for j, a in enumerate(axes):
        lattice[..., j] = a.reshape((-1,) + (1,) * (n - 1 - j))
    if add:
        pts[size:] = add
    return pts


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
        return int(np.count_nonzero(self.compared))

    @property
    def objectives(self):
        """Objective rows of the compared points."""
        return self.values[self.compared]

    @property
    def weak_points(self):
        return self.grid[self.weak_mask]

    @property
    def pareto_points(self):
        return self.grid[self.pareto_mask]

    def to_dict(self, list_cap: int = 1000):
        def capped(P):
            out = _jsonable(P[:list_cap])
            return out
        d = {"grid_points": self.grid_points, "feasible_points": self.feasible_points,
             "weak_pareto_count": int(np.count_nonzero(self.weak_mask)),
             "pareto_count": int(np.count_nonzero(self.pareto_mask)),
             "weak_pareto_points": capped(self.weak_points),
             "pareto_points": capped(self.pareto_points)}
        if np.count_nonzero(self.weak_mask) > list_cap or np.count_nonzero(self.pareto_mask) > list_cap:
            d["truncated_at"] = list_cap
        return d


def _grid_values(problem: EProblem, grid: Optional[GridSpec], tol: float, extra_points=None):
    """(points, feasible mask, objective rows, failed mask) over the whole grid."""
    pts = build_grid(problem, grid or GridSpec.uniform(33, problem.n), extra_points)
    keep = constraint_slacks(problem, pts)[2] <= tol
    F, bad = _objective_matrix(problem, pts)
    return pts, keep, F, bad


def grid_oracle(problem: EProblem, grid: Optional[GridSpec] = None, tol: float = 1e-9) -> GridReport:
    """Enumerate the grid and classify every feasible point."""
    pts, keep, F, bad = _grid_values(problem, grid, tol)
    if not keep.any():
        raise InfeasiblePointError("no feasible grid point at this resolution; refine the grid")
    report = GridReport(pts, keep, F, bad, np.zeros_like(keep), np.zeros_like(keep), tol)
    cmp = report.compared
    report.weak_mask[cmp], report.pareto_mask[cmp] = skyline_masks(F[cmp], tol)
    return report


def is_weak_pareto(problem: EProblem, y, grid: Optional[GridSpec] = None, tol: float = 1e-9):
    """(verdict, witness): the witness is the first feasible grid point, in
    grid order, whose objectives all evaluate and are all below those of y
    by more than tol.  The queried point itself always joins the grid.

    y is admitted by point_slacks first, so a query outside the box or
    infeasible raises InfeasiblePointError.  One masked pass over the grid:
    no point or objective rows are copied.
    """
    y = np.asarray(y, dtype=float).reshape(problem.n)
    point_slacks(problem, y, tol, "query point")
    pts, better, F, bad = _grid_values(problem, grid, tol, extra_points=y[None, :])
    fy, bady = _objective_matrix(problem, y[None, :])
    if bady.any():
        raise InfeasiblePointError(f"objectives do not evaluate at {y.tolist()}")
    better &= ~bad
    for k in range(F.shape[1]):  # one pass per column beats a reduction over a short axis
        better &= F[:, k] < fy[0, k] - tol
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

    def to_dict(self):
        return {"gradient": _jsonable(self.gradient),
                "gradient_inf_norm": _jsonable(self.gradient_inf_norm),
                "value": _jsonable(self.value), "is_minimizer": self.is_minimizer,
                "witness": _jsonable(self.witness) if self.witness else None}


def e_minimizer_check(fn: ProblemFunction, problem: EProblem, xbar,
                      grid: Optional[GridSpec] = None, tol: float = 1e-9) -> MinimizerReport:
    """Stationarity plus a grid check that xbar minimizes (fn o E) on the box."""
    xbar = np.asarray(xbar, dtype=float).reshape(problem.n)
    env = {name: float(v) for name, v in zip(problem.vars, xbar)}
    grad = ex.gradient(fn.composed, env, problem.vars)
    value = ex.evaluate(fn.composed, env)
    grid = grid or GridSpec.uniform(33, problem.n)
    pts = build_grid(problem, grid, extra_points=xbar[None, :])
    r = problem.composed_values(fn, pts)
    ok = ~r.invalid & np.isfinite(r.values)
    vals = np.where(ok, r.values, np.inf)
    is_min = bool(np.all(value <= vals + tol))
    witness = None
    if not is_min:
        i = int(np.argmin(vals))
        witness = {"x": pts[i].tolist(), "value": float(vals[i]), "value_at_xbar": value}
    return MinimizerReport(grad, float(np.max(np.abs(grad))) if grad.size else 0.0,
                           value, is_min, witness)


def dump_csv(problem: EProblem, report: GridReport, path) -> int:
    """Write every grid point of a grid_oracle report with objectives and flags.

    The bytes are those of csv.writer: %.12g floats, blank objective cells
    where an objective failed, 0/1 flags, \\r\\n line ends.  Cells are
    formatted a column at a time, _CSV_ROWS rows at a time.
    """
    r = report
    num = "%.12g".__mod__
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(problem.vars) + [f.name for f in problem.objectives]
                                + ["feasible", "weak_pareto", "pareto"])
        for start in range(0, r.grid_points, _CSV_ROWS):
            rows = slice(start, start + _CSV_ROWS)
            cols = [list(map(num, c)) for c in r.grid[rows].T.tolist()]
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
