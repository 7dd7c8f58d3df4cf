"""Fixed function corpus for the cross-check and agreement suites.

Twenty single-function problems mixing convex, monotone, bimodal, and
composed shapes, over one and two variables, with identity and non-identity
distortion maps and two eta kernels.  `small` marks entries whose |f| stays
within 50 on the box, the regime where exponential-domain arithmetic is
still finite and must agree with the log-domain path sample by sample;
`naive_preinvex_masks` below is that exponential-domain reference.

`preinvex` / `quasi` are the expected verdict statuses of the mixture
inequality and its max form under CFG below.  They were frozen from the
checkers themselves only after the shape of each entry forced the status by
construction (convex exponential -> holds, disconnected sublevel sets or a
mid-segment bump -> fails with a fat witness region the sampler cannot
miss), so they act as anchors against regressions, not as circular oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from einvex.invexity import PreinvexKind, mixture_samples, preinvex_pairs
from einvex.problem import EProblem, PairDraw, SampleConfig, box_region, load_problem

CFG = SampleConfig(seed=42, n_pairs=800, n_tau=6)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: dict
    small: bool      # |f| <= 50 over the box (naive exponentials stay finite)
    preinvex: str    # expected status of check(..., [(f1, "preinvex")], CFG)
    quasi: str       # expected status of check(..., [(f1, "quasi-preinvex")], CFG)


def _one(name, f, box, small=True, preinvex="holds", quasi="holds",
         E=None, eta=None, composed=None, n=1):
    lo, hi = box
    spec = {
        "n": n,
        "vars": [f"x{j + 1}" for j in range(n)],
        "E": E or [f"x{j + 1}" for j in range(n)],
        "eta": eta or [f"u{j + 1} - v{j + 1}" for j in range(n)],
        "objectives": [{"raw": f} if composed is None else {"raw": f, "composed": composed}],
        "ineq": [],
        "eq": [],
        "box": {"lo": lo if isinstance(lo, list) else [lo] * n,
                "hi": hi if isinstance(hi, list) else [hi] * n},
    }
    return CorpusEntry(name, spec, small, preinvex, quasi)


ENTRIES = [
    # Convex exponentials: the mixture inequality is Jensen's inequality.
    _one("square", "y1^2", (-1.0, 1.0)),
    _one("affine", "2*y1 + 0.5", (-2.0, 2.0)),
    _one("constant", "1.5", (-1.0, 1.0)),
    _one("exp-of-exp", "exp(y1)", (-1.0, 1.0)),
    _one("affine-under-log", "log(y1 + 2)", (-1.5, 2.0)),
    _one("hyperbola", "sqrt(y1^2 + 1)", (-2.0, 2.0)),
    _one("bowl-2d", "y1^2 + y2^2", (-1.0, 1.0), n=2),
    _one("affine-2d", "y1 + y2", (0.0, 1.0), n=2),

    # Monotone but non-convex exponentials: mixture fails, max form holds
    # because every sublevel set is a ray.
    _one("shifted-cube", "(y1 + 3)^3", (-4.0, -3.0), preinvex="fails", quasi="holds"),
    _one("plain-cube", "y1^3", (-1.5, 1.5), preinvex="fails", quasi="holds"),
    _one("falling-exp", "-exp(y1)", (-1.0, 1.0), preinvex="fails", quasi="holds"),

    # Bimodal / disconnected sublevel sets: both forms fail on a fat region.
    _one("double-well", "(y1^2 - 1)^2", (-1.5, 1.5), preinvex="fails", quasi="fails"),
    _one("quartic-two-min", "y1^4 - 2*y1^2", (-2.0, 2.0), preinvex="fails", quasi="fails"),
    _one("cap", "-(y1^2)", (-1.0, 1.0), preinvex="fails", quasi="fails"),
    _one("saddle-2d", "y1^2 - y2^2", (-1.0, 1.0), preinvex="fails", quasi="fails", n=2),

    # Non-identity distortion maps.
    _one("square-image", "y1", (-1.0, 1.0), E=["x1^2"]),
    _one("cube-image-root", "cbrt(y1)", (-1.0, 1.0), E=["x1^3"], composed="x1",
         preinvex="fails", quasi="holds"),
    _one("deep-power-chain", "cbrt(y1 + 3)", (-6.0, 0.0), E=["(x1+3)^9 - 3"],
         composed="(x1+3)^3", eta=["cbrt(cbrt(u1+3)) - cbrt(cbrt(v1+3))"],
         preinvex="fails", quasi="fails"),

    # Saturating eta kernel (combined point is not the straight segment).
    _one("saturating-eta", "y1", (0.0, 2.0), eta=["1 - exp(v1 - u1)"]),

    # Large exponent scale: naive exponentials overflow, log path must not.
    _one("steep-affine", "500*y1", (-1.0, 1.0), small=False),
]

assert len(ENTRIES) == 20

_CACHE = {}


def problem(entry: CorpusEntry) -> EProblem:
    if entry.name not in _CACHE:
        _CACHE[entry.name] = load_problem(entry.spec)
    return _CACHE[entry.name]


def by_name(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(name)


def preinvex_block(fn, p: EProblem, cfg: SampleConfig = CFG):
    """The mixture samples of all cfg.n_pairs box pairs of fn, as one block."""
    pairs = PairDraw(p, cfg, box_region(p, cfg.tol))
    return preinvex_pairs(fn, p, mixture_samples(p, cfg, pairs, 0, cfg.n_pairs))


def naive_preinvex_masks(s, kind, cfg: SampleConfig):
    """Reference for ``invexity.preinvex_masks`` in the exponential domain.

    The thresholds of the log path are applied to exponentials directly: the
    slack tol becomes the factor exp(tol), a margin the factor exp(-margin).
    Wherever the exponentials are finite the masks must agree with the log
    path sample by sample.
    """
    tol, margin = cfg.tol, cfg.strict_margin
    interior = (s.T > tol) & (s.T < 1.0 - tol)
    with np.errstate(over="ignore"):
        ea, eb, c = np.exp(s.A), np.exp(s.B), np.exp(s.C)
        mix = s.T * ea[:, None] + (1.0 - s.T) * eb[:, None]
        mx = np.maximum(ea, eb)[:, None]
    kind = PreinvexKind(kind)
    if kind == PreinvexKind.EXP:
        sat = c <= mix * math.exp(tol)
        nonvac = np.ones_like(sat)
    elif kind == PreinvexKind.STRICT:
        cond = interior & (np.max(np.abs(s.U - s.V), axis=1) > tol)[:, None]
        sat = ~cond | (c <= mix * math.exp(-margin))
        nonvac = cond
    elif kind == PreinvexKind.QUASI:
        sat = c <= mx * math.exp(tol)
        nonvac = np.ones_like(sat)
    else:
        cond = interior & (np.max(np.abs(s.X - s.X0), axis=1) > tol)[:, None]
        sat = ~cond | (c <= mx * math.exp(-margin))
        nonvac = cond
    return sat, nonvac
