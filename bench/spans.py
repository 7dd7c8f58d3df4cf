"""Outside-in span tracer for the einvex modules.

The benchmark times each layer by wrapping public functions of the package
from here, not from inside the program.  A wrapped call opens a span; when
it returns, its duration is added to the enclosing span's child time, and
its self time is the duration minus that child time.  Spans are aggregated
per name as they close (calls, self seconds, counters), so a pass with tens
of thousands of ``lstsq`` calls keeps a few dozen numbers, not a span list.

A function imported by name into another module is a separate binding, so
``install`` replaces every binding of the original object in every einvex
module (and the class attribute for methods); otherwise calls made through
the other name would escape the trace.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-name aggregates for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []   # open frames: [name, start, child seconds]
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)   # (span name, counter) -> total

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span named name.

        count(args, result, parent_name) yields (key, value) pairs; a plain
        key counts on this span, a (span, key) tuple on another one.
        """
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, tracer.clock(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - frame[1]
                tracer.stack.pop()
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][2] += duration
            if count is not None:
                parent = tracer.stack[-1][0] if tracer.stack else None
                for key, value in count(args, result, parent):
                    tracer.counts[key if isinstance(key, tuple) else (name, key)] += value
            return result

        traced.__wrapped__ = fn
        return traced


def _env_rows(args, result, parent):
    for value in args[1].values():
        size = getattr(value, "size", 1)
        if getattr(value, "ndim", 0):
            return [("rows", int(size))]
    return [("rows", 1)]


def _point_rows(args, result, parent):
    arr = args[1]
    return [("rows", int(arr.shape[0]) if getattr(arr, "ndim", 0) >= 2 else 1)]


def _box_rows(args, result, parent):
    rows = int(args[3])
    if parent == "problem.sample_region":
        return [("rows", rows), (("problem.sample_region", "proposals"), rows)]
    return [("rows", rows)]


def _accepted(args, result, parent):
    return [("accepted", int(result.shape[0]))]


def targets(mods):
    """(span name, owner, attribute, counter) for every traced function."""
    import numpy as np
    cli, expr, invexity, kkt, pareto, problem, rng = (
        mods[k] for k in ("cli", "expr", "invexity", "kkt", "pareto", "problem", "rng"))
    return [
        ("cli.run", cli, "run", None),
        ("problem.load_problem", problem, "load_problem", None),
        ("expr.load", expr, "parse", None),
        ("expr.load", expr, "compose", None),
        ("expr.eval_many", expr, "eval_many", _env_rows),
        ("expr.grad_many", expr, "grad_many", _env_rows),
        ("problem.sample_region", problem, "sample_region", _accepted),
        ("problem.e_map", problem.EProblem, "e_map", _point_rows),
        ("problem.eta_map", problem.EProblem, "eta_map", _point_rows),
        ("rng.box", rng.SampleStream, "box", _box_rows),
        ("rng.tau_grid", rng, "tau_grid", None),
        ("invexity.check", invexity, "check_invex", None),
        ("invexity.check", invexity, "check_preinvex", None),
        ("invexity.check", invexity, "gradient_monotonicity", None),
        ("invexity.invex_pairs", invexity, "invex_pairs", None),
        ("invexity.invex_masks", invexity, "invex_masks", None),
        ("invexity.preinvex_pairs", invexity, "preinvex_pairs", None),
        ("invexity.preinvex_masks", invexity, "preinvex_masks", None),
        ("invexity.witness", invexity, "invex_sides", None),
        ("invexity.witness", invexity, "preinvex_sides", None),
        ("kkt.certify", kkt, "certify", None),
        ("kkt.solve_multipliers", kkt, "solve_multipliers", None),
        ("kkt.verify_kkt_point", kkt, "verify_kkt_point", None),
        # kkt looks up np.linalg.lstsq at call time and is its only caller
        # in the package, so the numpy.linalg binding is the one kkt sees.
        ("kkt.lstsq", np.linalg, "lstsq", None),
        ("pareto.grid_oracle", pareto, "grid_oracle", None),
        ("pareto.dump_csv", pareto, "dump_csv", None),
        ("pareto.is_weak_pareto", pareto, "is_weak_pareto", None),
        ("pareto.e_minimizer_check", pareto, "e_minimizer_check", None),
        ("pareto.build_grid", pareto, "build_grid", None),
    ]


def install(tracer, mods):
    """Patch every binding of each traced function; return the undo list."""
    undo = []
    modules = [m for k, m in sys.modules.items() if k == "einvex" or k.startswith("einvex.")]
    for name, owner, attr, count in targets(mods):
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, count)
        for holder in [owner] + [m for m in modules if m is not owner]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapped)
    return undo


def uninstall(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def self_check():
    """Self time = duration - children, on a toy nested call with a fake clock.

    outer [0, 10] holds mid [1, 4] (which holds leaf [1.5, 3]) and a
    second leaf [4.25, 6].
    """
    ticks = iter([0.0, 1.0, 1.5, 3.0, 4.0, 4.25, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (mid(), leaf()))
    outer()
    expect = {"outer": 10.0 - 3.0 - 1.75, "mid": 3.0 - 1.5, "leaf": 1.5 + 1.75}
    got = dict(tracer.self_s)
    if any(abs(got[k] - v) > 1e-12 for k, v in expect.items()) or tracer.stack:
        raise AssertionError(f"tracer self times {got} != {expect}")
    if dict(tracer.calls) != {"leaf": 2, "mid": 1, "outer": 1}:
        raise AssertionError(f"tracer call counts {dict(tracer.calls)}")
