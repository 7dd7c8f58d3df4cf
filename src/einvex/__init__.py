"""Verification lab for E-composed multiobjective programs.

Sampling checkers for the exponential generalized-invexity family, a
first-order (KKT-type) solver/verifier, sufficiency-theorem certificates
for (weak) Pareto claims, and an independent brute-force grid oracle.
"""

__version__ = "0.1.0"

from .errors import EinvexError, ParseError  # noqa: F401
from .expr import Expr, compose, evaluate, gradient, parse, to_source  # noqa: F401
from .invexity import InvexKind, PreinvexKind, check  # noqa: F401
from .kkt import Certificate, KktPoint, certify, solve_multipliers, verify_kkt_point  # noqa: F401
from .pareto import GridSpec, e_minimizer_check, grid_oracle, is_weak_pareto  # noqa: F401
from .problem import EProblem, SampleConfig, Verdict, load_problem, point_slacks  # noqa: F401
