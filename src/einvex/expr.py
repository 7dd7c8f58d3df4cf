"""A small closed expression language for problem functions.

Grammar (tightest first): unary minus, ``^`` (right associative), ``*`` ``/``,
``+`` ``-``.  Unary minus directly on a ``^`` base, as in ``-x^2``, is a parse
error: write ``-(x^2)`` or ``(-x)^2``.
Function calls are ``exp``, ``log``, ``sqrt`` and ``cbrt``; ``cbrt`` is the
total real cube root, so odd roots of negative values are first-class and
never go through ``pow``.

Evaluation is vectorized: environment values may be floats or equally shaped
numpy arrays.  One walker, ``_walk``, evaluates every tree: each node
carries its value and, when asked, a derivative array whose leading axis
runs over the requested variables, shape (k, *batch) (forward mode, one
sweep).

A sibling of the walker, ``enclose``, bounds a tree over a box of variable
intervals (see its docstring).  It is the one rounding model of the
package: on a point box it bounds the rounding error of the walk, which is
how ``compose`` judges a hand-supplied composed form.  The point and
gradient walks do not use it.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ComposeMismatchError, DomainEvalError, NonDifferentiableError, ParseError
from .rng import SampleStream

UNARY_FUNCTIONS = ("exp", "log", "sqrt", "cbrt")

# Number of probe points, relative tolerance and probe seed used when
# validating a hand-supplied composed form against direct substitution.
OVERRIDE_SAMPLES = 256
OVERRIDE_TOL = 1e-9
OVERRIDE_SEED = 42

# The deepest tree an expression may have, counted in nodes from the root
# to a leaf.  A quarter of it bounds the parentheses, calls, minus signs and
# ``^`` that may be open at once in its source.  Every walk of a tree
# recurses about once per level and the parser up to five times per open
# parenthesis, so at this bound all of them stay well under Python's default
# recursion limit (1000).
MAX_DEPTH = 256


class Expr:
    """Base class for immutable expression nodes."""

    __slots__ = ()
    depth = 1  # nodes on the longest path down to a leaf: 1 for a number or a variable

    def variables(self) -> frozenset:
        out = set()
        _collect_vars(self, out)
        return frozenset(out)

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_source(self)!r})"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, repr=False)
class Unary(Expr):
    op: str  # "neg" or one of UNARY_FUNCTIONS
    arg: Expr

    def __post_init__(self):
        object.__setattr__(self, "depth", self.arg.depth + 1)


@dataclass(frozen=True, repr=False)
class Binary(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        object.__setattr__(self, "depth", max(self.lhs.depth, self.rhs.depth) + 1)


def _collect_vars(node, out):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Unary):
        _collect_vars(node.arg, out)
    elif isinstance(node, Binary):
        _collect_vars(node.lhs, out)
        _collect_vars(node.rhs, out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One token after optional whitespace; token classes are ASCII only, and any
# other character ("bad") ends the tokens.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>\S))""", re.VERBOSE)


class _Lexer:
    """The tokens of one source, cut in one pass: (kind, text, 0-based
    offset), an operator's kind being the operator itself.  They end at
    "eof" or at the first character that starts no token, which raises
    ParseError only when the parser reaches it, so an earlier syntax error
    wins."""

    def __init__(self, source: str):
        self.tokens = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            text = m.group(kind)
            self.tokens.append((text if kind == "op" else kind, text, m.start(kind)))
            if kind == "bad":
                break
        else:
            self.tokens.append(("eof", "", len(source)))
        self.next = 0

    def peek(self):
        token = self.tokens[self.next]
        if token[0] == "bad":
            raise ParseError(f"unexpected character {token[1]!r}", token[2] + 1)
        return token

    def take(self):
        token = self.peek()
        self.next += 1
        return token


# Distinct (source, variables) pairs whose trees parse keeps; a problem file
# holds a few dozen sources.
PARSE_MEMO = 1024


def parse(source: str, variables: Sequence[str]) -> Expr:
    """Parse ``source`` over the declared variable names.

    Raises ParseError with a 1-based character offset on malformed input, on
    a character outside the ASCII grammar, on any name that is neither a
    declared variable nor a known function, or where the expression's tree
    crosses MAX_DEPTH or its nesting a quarter of it.

    Each source is parsed once per process under the same variables, in
    their order, and every later call returns the same tree: nodes are
    frozen, so sharing one is safe.  An error is raised on every call.
    """
    if not isinstance(source, str):  # fails below as it always did, and is no memo key
        return _parse(source, variables)
    return _parse_once(source, tuple(variables))


def _parse(source, variables):
    if not source.strip():
        raise ParseError("empty expression", 1)
    lex = _Lexer(source)
    declared = set(variables)

    def within(node, pos):  # node, unless its tree crosses MAX_DEPTH at the token at pos
        if node.depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", pos + 1)
        return node

    def expect(kind):
        got, text, pos = lex.take()
        if got != kind:
            shown = text if text else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", pos + 1)

    # level: the parentheses, calls, minus signs and ^ open around the next token
    def parse_expr(level):
        node = parse_term(level)
        while True:
            kind, _, pos = lex.peek()
            if kind in ("+", "-"):
                lex.take()
                node = within(Binary(kind, node, parse_term(level)), pos)
            else:
                return node

    def parse_term(level):
        node = parse_power(level)
        while True:
            kind, _, pos = lex.peek()
            if kind in ("*", "/"):
                lex.take()
                node = within(Binary(kind, node, parse_power(level)), pos)
            else:
                return node

    def parse_power(level):
        first, _, pos = lex.peek()
        base = parse_signed(level)
        kind, _, at = lex.peek()
        if kind == "^":
            if first == "-":
                raise ParseError("unary minus on a '^' base is ambiguous; "
                                 "write -(a^b) or (-a)^b", pos + 1)
            lex.take()
            return within(Binary("^", base, parse_power(level + 1)), at)
        return base

    def parse_signed(level):  # every recursion of the parser passes here
        kind, _, pos = lex.peek()
        if level > MAX_DEPTH // 4:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH // 4} levels", pos + 1)
        if kind == "-":
            lex.take()
            return within(Unary("neg", parse_signed(level + 1)), pos)
        return parse_atom(level)

    def parse_atom(level):
        kind, text, pos = lex.take()
        if kind == "num":
            value = float(text)
            if not np.isfinite(value):  # 1e999 reads as inf, which to_source cannot print back
                raise ParseError(f"number {text!r} overflows to {value}", pos + 1)
            return Const(value)
        if kind == "name":
            nxt, _, _ = lex.peek()
            if nxt == "(":
                if text not in UNARY_FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos + 1)
                lex.take()
                inner = parse_expr(level + 1)
                expect(")")
                return within(Unary(text, inner), pos)
            if text in UNARY_FUNCTIONS:
                raise ParseError(f"function {text!r} requires parentheses", pos + 1)
            if text not in declared:
                raise ParseError(f"undeclared variable {text!r}", pos + 1)
            return Var(text)
        if kind == "(":
            inner = parse_expr(level + 1)
            expect(")")
            return inner
        shown = text if text else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", pos + 1)

    node = parse_expr(0)
    kind, text, pos = lex.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", pos + 1)
    return node


_parse_once = functools.lru_cache(maxsize=PARSE_MEMO)(_parse)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_NEG, _LVL_ATOM = 1, 2, 3, 4, 5


def _level(node) -> int:
    if isinstance(node, Const):
        return _LVL_NEG if node.value < 0 else _LVL_ATOM
    if isinstance(node, Var):
        return _LVL_ATOM
    if isinstance(node, Unary):
        return _LVL_NEG if node.op == "neg" else _LVL_ATOM
    return {"+": _LVL_ADD, "-": _LVL_ADD, "*": _LVL_MUL, "/": _LVL_MUL, "^": _LVL_POW}[node.op]


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node: Expr) -> str:
    """Render a tree so that re-parsing evaluates identically."""

    def fmt(n, min_level):
        if isinstance(n, Const):
            s = _fmt_const(n.value)
        elif isinstance(n, Var):
            s = n.name
        elif isinstance(n, Unary):
            if n.op == "neg":
                s = "-" + fmt(n.arg, _LVL_NEG)
            else:
                s = f"{n.op}({fmt(n.arg, 0)})"
        else:
            if n.op in ("+", "-"):
                s = f"{fmt(n.lhs, _LVL_ADD)} {n.op} {fmt(n.rhs, _LVL_MUL)}"
            elif n.op in ("*", "/"):
                s = f"{fmt(n.lhs, _LVL_MUL)}{n.op}{fmt(n.rhs, _LVL_POW)}"
            else:  # ^ is right associative; a signed base needs parentheses
                s = f"{fmt(n.lhs, _LVL_ATOM)}^{fmt(n.rhs, _LVL_POW)}"
        return f"({s})" if _level(n) < min_level else s

    return fmt(node, 0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _Flags:
    """Accumulates per-sample domain and differentiability violations."""

    __slots__ = ("invalid", "invalid_node", "nondiff", "nondiff_node")

    def __init__(self):
        self.invalid = np.bool_(False)
        self.invalid_node = None
        self.nondiff = np.bool_(False)
        self.nondiff_node = None

    def flag_invalid(self, mask, node) -> bool:
        """Record the rows of mask; True when there is one."""
        if not np.any(mask):
            return False
        if self.invalid_node is None:
            self.invalid_node = node
        self.invalid = self.invalid | mask
        return True

    def flag_nondiff(self, mask, node):
        if np.any(mask):
            if self.nondiff_node is None:
                self.nondiff_node = node
            self.nondiff = self.nondiff | mask


def _seeds(wrt, ndim) -> dict:
    """The derivative seeds of one evaluation, each of shape (k, 1, ..., 1)
    with ndim ones: one-hot per variable of wrt, all zeros under None."""
    shape = (len(wrt),) + (1,) * ndim
    seeds = {name: np.array([float(w == name) for w in wrt]).reshape(shape) for name in wrt}
    seeds[None] = np.zeros(shape)
    return seeds


def _signed_power(a, b):
    """a^b for an integral constant b, as +-|a|^b: numpy's power is many
    times slower on negative bases.  Exactly odd in a for odd b."""
    p = np.power(np.abs(a), b)
    return np.copysign(p, a) if b % 2 else p


def _walk(node, env, flags, wrt):
    """Return (value, derivative).  wrt maps each variable to its seed (see
    _seeds) or is None; the derivative's leading axis runs over its
    variables, so a node of batch shape S has a derivative of shape (k, *S)
    (or (k, 1, ...) where S broadcasts), None when wrt is None."""
    want_d = wrt is not None
    if isinstance(node, Const):
        return np.float64(node.value), (wrt[None] if want_d else None)
    if isinstance(node, Var):
        try:
            v = env[node.name]
        except KeyError:
            raise DomainEvalError(node) from None
        if type(v) is not np.ndarray or v.dtype != np.float64:  # a float64 array is used as is
            v = np.asarray(v, dtype=float) if not np.isscalar(v) else np.float64(v)
        return v, (wrt.get(node.name, wrt[None]) if want_d else None)

    if isinstance(node, Unary):
        a, ad = _walk(node.arg, env, flags, wrt)
        if node.op == "neg":
            return -a, (-ad if want_d else None)
        if node.op == "exp":
            v = np.exp(a)
            return v, (np.where(ad == 0.0, 0.0, v * ad) if want_d else None)
        if node.op == "log":
            bad = a <= 0.0
            v = np.log(np.where(bad, np.nan, a) if flags.flag_invalid(bad, node) else a)
            return v, (ad / a if want_d else None)
        if node.op == "sqrt":
            bad = a < 0.0
            v = np.sqrt(np.where(bad, np.nan, a) if flags.flag_invalid(bad, node) else a)
        elif node.op == "cbrt":
            v = np.cbrt(a)
        else:
            raise AssertionError(f"unknown unary op {node.op}")
        if not want_d:
            return v, None
        slope = 2.0 * v if node.op == "sqrt" else 3.0 * v * v
        # A zero argument is a kink, or hides the derivative whatever the
        # argument's own (cbrt(x1^3) is x1, sqrt(x1^2) is |x1|): flag it
        # wherever the argument depends on wrt.
        if not node.arg.variables().isdisjoint(wrt):
            flags.flag_nondiff(a == 0.0, node)
        return v, np.where(ad == 0.0, 0.0, ad / slope)

    a, ad = _walk(node.lhs, env, flags, wrt)
    b, bd = _walk(node.rhs, env, flags, wrt)
    if node.op == "+":
        return a + b, (ad + bd if want_d else None)
    if node.op == "-":
        return a - b, (ad - bd if want_d else None)
    if node.op == "*":
        return a * b, (ad * b + a * bd if want_d else None)
    if node.op == "/":
        bad = b == 0.0
        v = a / (np.where(bad, np.nan, b) if flags.flag_invalid(bad, node) else b)
        return v, ((ad * b - a * bd) / (b * b) if want_d else None)
    if node.op == "^":
        # A constant integral exponent leaves only 0^negative out of the domain.
        integral = not node.rhs.variables() and float(b).is_integer()  # False at inf and nan
        if integral:
            if b < 0.0:
                flags.flag_invalid(a == 0.0, node)
            v = _signed_power(a, b)
        else:
            nonint = (b != np.floor(b)) | ~np.isfinite(b)
            flags.flag_invalid(((a < 0.0) & nonint) | ((a == 0.0) & (b < 0.0)), node)
            v = np.power(a, b)
            v = np.where((a < 0.0) & nonint, np.nan, v)
        if not want_d:
            return v, None
        slope = b * (_signed_power(a, b - 1.0) if integral else np.power(a, b - 1.0))
        # The rule is chosen per row and variable, so no row depends on
        # the others in the batch.  Where the exponent does not move, the
        # plain power rule holds, also for negative bases at integral
        # exponents; elsewhere the log form needs a positive base.
        d = np.where((ad == 0.0) | (b == 0.0), 0.0, slope * ad)
        if integral:
            flags.flag_nondiff(~np.isfinite(d).all(axis=0) & np.isfinite(a) & np.isfinite(v), node)
            return v, d
        moving = bd != 0.0
        flags.flag_nondiff((~np.isfinite(d) & ~moving).any(axis=0)
                           & np.isfinite(a) & np.isfinite(v), node)
        if moving.any():
            flags.flag_invalid((a <= 0.0) & moving.any(axis=0), node)
            la = np.log(np.where(a > 0.0, a, np.nan))
            d = np.where(moving, v * (bd * la + b * ad / a), d)
        return v, d
    raise AssertionError(f"unknown binary op {node.op}")


@dataclass
class EvalResult:
    values: np.ndarray
    invalid: np.ndarray  # bool mask of domain violations
    invalid_node: Optional[Expr]

    @property
    def failed(self) -> np.ndarray:
        """Rows that left the domain or whose value is not finite."""
        failed = ~np.isfinite(self.values)
        if self.invalid_node is not None:  # set exactly when some row left the domain
            failed |= self.invalid
        return failed


@dataclass
class GradResult:
    values: np.ndarray
    grads: np.ndarray  # shape (len(wrt), ...): the variable axis leads
    invalid: np.ndarray
    invalid_node: Optional[Expr]
    nondiff: np.ndarray
    nondiff_node: Optional[Expr]


def _batch_shape(env) -> tuple:
    """Common leading shape of the environment arrays (constants broadcast)."""
    for val in env.values():
        a = np.asarray(val)
        if a.shape:
            return a.shape
    return ()


def _evaluate(node: Expr, env, wrt=None):
    """One walk of node over env, broadcast to the batch shape: (EvalResult,
    derivative, flags)."""
    flags, shape = _Flags(), _batch_shape(env)
    seeds = None if wrt is None else _seeds(wrt, len(shape))
    with np.errstate(all="ignore"):  # domain violations are flagged, not warned about
        v, d = _walk(node, env, flags, seeds)
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        v = np.broadcast_to(v, shape)
    elif isinstance(node, Var):  # the caller's own array: hand it back read-only
        v = v.view()
        v.flags.writeable = False
    invalid = flags.invalid
    if flags.invalid_node is None:  # no row failed
        invalid = np.zeros(shape, dtype=bool)
    elif np.shape(invalid) != shape:  # a mask of another shape: flagged on a constant
        invalid = np.broadcast_to(invalid, shape)
    return EvalResult(v, invalid, flags.invalid_node), d, flags


def eval_many(node: Expr, env: Mapping[str, np.ndarray]) -> EvalResult:
    """Vectorized evaluation; domain violations are masked, not raised."""
    return _evaluate(node, env)[0]


def grad_many(node: Expr, env: Mapping[str, np.ndarray], wrt: Sequence[str]) -> GradResult:
    """Vectorized forward-mode gradient: one sweep carries every variable in wrt."""
    res, d, flags = _evaluate(node, env, tuple(wrt))
    shape = (len(wrt),) + res.values.shape
    grads = d if d.shape == shape else np.broadcast_to(d, shape)
    nondiff = flags.nondiff | ~np.isfinite(grads).all(axis=0)
    if flags.invalid_node is not None:  # set exactly when some row left the domain
        nondiff = nondiff & ~res.invalid
    return GradResult(res.values, grads, res.invalid, res.invalid_node, nondiff, flags.nondiff_node)


def evaluate(node: Expr, env: Mapping[str, float]) -> float:
    """Scalar evaluation; raises DomainEvalError outside the domain."""
    res = eval_many(node, env)
    if np.any(res.invalid):
        raise DomainEvalError(res.invalid_node, point=dict(env))
    return float(res.values)


def gradient(node: Expr, env: Mapping[str, float], wrt: Sequence[str]) -> np.ndarray:
    """Scalar gradient; raises on domain or differentiability failures."""
    res = grad_many(node, env, wrt)
    if np.any(res.invalid):
        raise DomainEvalError(res.invalid_node, point=dict(env))
    if np.any(res.nondiff):
        raise NonDifferentiableError(res.nondiff_node or node, point=dict(env))
    return np.asarray(res.grads, dtype=float).reshape(len(wrt))


# ---------------------------------------------------------------------------
# Interval enclosures
# ---------------------------------------------------------------------------

# exp, log, cbrt and power are not correctly rounded: their ends are widened
# by 2^-40 relative (thousands of ulps, far beyond numpy's few) plus 2^-1064
# for results below the normal range, where the relative bound fails.
_LOOSE = 2.0 ** -40
_PAD = 2.0 ** -1064
UNDECIDED = (-math.inf, math.inf)


def enclose(node: Expr, box: Mapping[str, tuple]) -> tuple:
    """(lo, hi) holding the value of node at every point of box, a mapping
    from each variable to the (lo, hi) of its values; UNDECIDED, (-inf, inf),
    where the box may leave a domain of the walk or some point may be nan.

    Both the float value eval_many returns and the exact value lie in
    [lo, hi].  The rules are the textbook ones (Moore, Kearfott and Cloud,
    *Introduction to Interval Analysis*, SIAM 2009): + - * / take their
    extreme corners, exp log sqrt cbrt are monotone, a constant exponent of ^
    goes by its parity and a moving one through exp(b log a) over a positive
    base.  Every end then steps one ulp outward, which bounds the exact value
    and, rounding being monotone, the float one; exp, log, cbrt and ^ widen
    further (_LOOSE, _PAD).  Rounding modes are not touched.
    """
    with np.errstate(all="ignore"):
        out = _enclose(node, box)
    return UNDECIDED if out is None else out


def _out(lo, hi, loose=False):
    """[lo, hi] stepped outward; None where an end is nan."""
    if loose:
        lo = lo * (1.0 - _LOOSE if lo > 0.0 else 1.0 + _LOOSE) - _PAD
        hi = hi * (1.0 + _LOOSE if hi > 0.0 else 1.0 - _LOOSE) + _PAD
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return None if math.isnan(lo) or math.isnan(hi) else (lo, hi)


def _corners(op, a, b):
    """The extreme corners of op over the boxes a and b; None where one is nan."""
    c = [op(x, y) for x in a for y in b]
    return None if any(map(math.isnan, c)) else _out(min(c), max(c))


def _product(a, b):
    """a * b, None where 0 * inf is nan at a point that need not be a corner."""
    if any(u[0] <= 0.0 <= u[1] and (math.isinf(v[0]) or math.isinf(v[1]))
           for u, v in ((a, b), (b, a))):
        return None
    return _corners(operator.mul, a, b)


def _unary(f, a, loose):
    """The ends of the monotone non-decreasing f over a."""
    return _out(float(f(a[0])), float(f(a[1])), loose)


def _power(a, b: float):
    """a^b for the constant exponent b, as the walk computes it."""
    lo, hi = a
    integral = math.isfinite(b) and b == math.floor(b)
    if (not integral and lo < 0.0) or (b < 0.0 and lo <= 0.0 <= hi):
        return None  # a root of a negative base, or 0^negative
    if integral and b % 2:  # odd: monotone in a, the sign copied
        ends = [math.copysign(float(np.power(abs(x), b)), x) for x in a]
    else:  # monotone in |a|
        small = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        ends = [float(np.power(x, b)) for x in (small, max(abs(lo), abs(hi)))]
    return _out(min(ends), max(ends), True)


def _enclose(node, box):
    if isinstance(node, Const):
        return node.value, node.value
    if isinstance(node, Var):
        try:
            lo, hi = box[node.name]
        except KeyError:
            raise DomainEvalError(node) from None
        return float(lo), float(hi)
    if isinstance(node, Unary):
        a = _enclose(node.arg, box)
        if a is None:
            return None
        if node.op == "neg":
            return -a[1], -a[0]
        if node.op == "exp":
            return _unary(np.exp, a, True)
        if node.op == "log":
            return None if a[0] <= 0.0 else _unary(np.log, a, True)
        if node.op == "sqrt":
            return None if a[0] < 0.0 else _unary(math.sqrt, a, False)
        if node.op == "cbrt":
            return _unary(np.cbrt, a, True)
        raise AssertionError(f"unknown unary op {node.op}")

    a = _enclose(node.lhs, box)
    if a is None:
        return None
    if node.op == "^" and not node.rhs.variables():
        flags = _Flags()  # the exponent exactly as the walk takes it
        b = float(_walk(node.rhs, {}, flags, None)[0])
        return None if flags.invalid_node is not None else _power(a, b)
    b = _enclose(node.rhs, box)
    if b is None:
        return None
    if node.op == "+":
        return _corners(operator.add, a, b)
    if node.op == "-":
        return _corners(operator.sub, a, b)
    if node.op == "*":
        return _product(a, b)
    if node.op == "/":
        return None if b[0] <= 0.0 <= b[1] else _corners(operator.truediv, a, b)
    if node.op == "^":  # a moving exponent: exp(b log a), then pow's own rounding
        m = None if a[0] <= 0.0 else _product(_unary(np.log, a, True), b)
        e = m and _unary(np.exp, m, True)
        return e and _out(*e, True)
    raise AssertionError(f"unknown binary op {node.op}")


# ---------------------------------------------------------------------------
# Substitution and composition
# ---------------------------------------------------------------------------

def substitute(node: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by whole subtrees."""
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Unary):
        return Unary(node.op, substitute(node.arg, mapping))
    if isinstance(node, Binary):
        return Binary(node.op, substitute(node.lhs, mapping), substitute(node.rhs, mapping))
    return node


def validation_points(box_lo, box_hi) -> np.ndarray:
    """The OVERRIDE_SAMPLES points of the box, drawn with OVERRIDE_SEED, on
    which compose validates an override; shape (OVERRIDE_SAMPLES, n)."""
    stream = SampleStream(OVERRIDE_SEED, "compose-validate")
    return stream.box(np.asarray(box_lo, float), np.asarray(box_hi, float), OVERRIDE_SAMPLES)


def compose(f: Expr, inner: Sequence[Expr], inner_vars: Sequence[str],
            override: Optional[Expr] = None, points: Optional[np.ndarray] = None) -> Expr:
    """Build f after the substitution y_i := inner_i(x).

    ``f`` is written over y1..yn; each ``inner[i]`` is written over the
    problem variables.  When ``override`` is given it is validated against
    the direct substitution on ``points``, the validation_points of the box,
    and then used verbatim.  Both forms are walked at every point; a
    comparable point (both values evaluate and are finite) is within
    tolerance when the values differ by at most OVERRIDE_TOL * (1 +
    |override value|).  The others are taken in order of decreasing gap and
    both forms are enclosed on the point box: the point is reconciled when
    both enclosures are decided and come within that tolerance of each
    other.  A decided enclosure holds the float and the exact value, so an
    exact override of a badly conditioned substitution (cancellation inside
    E) is not rejected for float noise.  The first point not reconciled
    raises ComposeMismatchError, naming it, and so does a substitution
    deeper than MAX_DEPTH, since it is walked.
    """
    mapping = {f"y{i + 1}": inner[i] for i in range(len(inner))}
    for name in f.variables():
        if name not in mapping:
            raise ComposeMismatchError(f"function over unknown variable {name!r}; expected y1..y{len(inner)}")
    substituted = substitute(f, mapping)
    if substituted.depth > MAX_DEPTH:
        raise ComposeMismatchError(f"the function composed with E is {substituted.depth} levels deep, "
                                   f"more than {MAX_DEPTH}")
    if override is None:
        return substituted
    if points is None:
        raise ValueError("an override is validated on validation_points(lo, hi); pass them as points")
    extra = override.variables() - set(inner_vars)
    if extra:
        raise ComposeMismatchError(f"composed form uses undeclared variables {sorted(extra)}")

    env = {name: points[:, j] for j, name in enumerate(inner_vars)}
    sub, ovr = _evaluate(substituted, env)[0], _evaluate(override, env)[0]
    ok = ~(sub.failed | ovr.failed)
    if not ok.any():
        raise ComposeMismatchError("composed form could not be validated: no comparable sample points")
    tol = OVERRIDE_TOL * (1.0 + np.abs(ovr.values))
    gap = np.abs(sub.values - ovr.values)
    rows = np.flatnonzero(ok & (gap > tol))
    for i in rows[np.argsort(-gap[rows], kind="stable")]:
        box = {name: (points[i, j], points[i, j]) for j, name in enumerate(inner_vars)}
        s, o = enclose(substituted, box), enclose(override, box)
        if UNDECIDED in (s, o) or max(s[0] - o[1], o[0] - s[1]) > tol[i]:
            point = {name: float(points[i, j]) for j, name in enumerate(inner_vars)}
            raise ComposeMismatchError(
                f"composed form disagrees with substitution at {point}: "
                f"substituted {sub.values[i]:.12g}, supplied {ovr.values[i]:.12g}",
                point=point, substituted=float(sub.values[i]), supplied=float(ovr.values[i]))
    return override
