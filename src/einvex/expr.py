"""A small closed expression language for problem functions.

Grammar (tightest first): unary minus, ``^`` (right associative), ``*`` ``/``,
``+`` ``-``.  Unary minus directly on a ``^`` base, as in ``-x^2``, is a parse
error: write ``-(x^2)`` or ``(-x)^2``.
Function calls are ``exp``, ``log``, ``sqrt`` and ``cbrt``; ``cbrt`` is the
total real cube root, so odd roots of negative values are first-class and
never go through ``pow``.

Evaluation is vectorized: environment values may be floats or equally shaped
numpy arrays.  Differentiation is forward mode in a single sweep: each node
carries its value and a derivative array with one trailing column per
requested variable.
"""

from __future__ import annotations

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


class Expr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

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


@dataclass(frozen=True, repr=False)
class Binary(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr


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

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Lexer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0  # 0-based; reported offsets are 1-based

    def skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.source):
            return ("eof", "", self.pos)
        ch = self.source[self.pos]
        if ch.isdigit() or ch == ".":
            m = _NUM_RE.match(self.source, self.pos)
            if m:
                return ("num", m.group(0), self.pos)
        if ch.isalpha() or ch == "_":
            m = _NAME_RE.match(self.source, self.pos)
            return ("name", m.group(0), self.pos)
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos + 1)

    def take(self):
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


def parse(source: str, variables: Sequence[str]) -> Expr:
    """Parse ``source`` over the declared variable names.

    Raises ParseError with a 1-based byte offset on malformed input or on
    any name that is neither a declared variable nor a known function.
    """
    if not source.strip():
        raise ParseError("empty expression", 1)
    lex = _Lexer(source)
    declared = set(variables)

    def expect(kind):
        got, text, pos = lex.take()
        if got != kind:
            shown = text if text else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", pos + 1)

    def parse_expr():
        node = parse_term()
        while True:
            kind, _, _ = lex.peek()
            if kind in ("+", "-"):
                lex.take()
                node = Binary(kind, node, parse_term())
            else:
                return node

    def parse_term():
        node = parse_power()
        while True:
            kind, _, _ = lex.peek()
            if kind in ("*", "/"):
                lex.take()
                node = Binary(kind, node, parse_power())
            else:
                return node

    def parse_power():
        first, _, pos = lex.peek()
        base = parse_signed()
        kind, _, _ = lex.peek()
        if kind == "^":
            if first == "-":
                raise ParseError("unary minus on a '^' base is ambiguous; "
                                 "write -(a^b) or (-a)^b", pos + 1)
            lex.take()
            return Binary("^", base, parse_power())
        return base

    def parse_signed():
        kind, _, _ = lex.peek()
        if kind == "-":
            lex.take()
            return Unary("neg", parse_signed())
        return parse_atom()

    def parse_atom():
        kind, text, pos = lex.take()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nxt, _, _ = lex.peek()
            if nxt == "(":
                if text not in UNARY_FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos + 1)
                lex.take()
                inner = parse_expr()
                expect(")")
                return Unary(text, inner)
            if text in UNARY_FUNCTIONS:
                raise ParseError(f"function {text!r} requires parentheses", pos + 1)
            if text not in declared:
                raise ParseError(f"undeclared variable {text!r}", pos + 1)
            return Var(text)
        if kind == "(":
            inner = parse_expr()
            expect(")")
            return inner
        shown = text if text else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", pos + 1)

    node = parse_expr()
    kind, text, pos = lex.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", pos + 1)
    return node


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

    def flag_invalid(self, mask, node):
        if np.any(mask):
            if self.invalid_node is None:
                self.invalid_node = node
            self.invalid = self.invalid | mask

    def flag_nondiff(self, mask, node):
        if np.any(mask):
            if self.nondiff_node is None:
                self.nondiff_node = node
            self.nondiff = self.nondiff | mask


def _walk(node, env, flags, wrt):
    """Return (value, derivative); the derivative has one trailing column per
    variable in wrt (one-hot at a Var) and is None when wrt is None."""
    want_d = wrt is not None
    if isinstance(node, Const):
        return np.float64(node.value), (np.zeros(len(wrt)) if want_d else None)
    if isinstance(node, Var):
        try:
            v = env[node.name]
        except KeyError:
            raise DomainEvalError(node) from None
        v = np.asarray(v, dtype=float) if not np.isscalar(v) else np.float64(v)
        if not want_d:
            return v, None
        return v, np.array([float(name == node.name) for name in wrt])

    if isinstance(node, Unary):
        a, ad = _walk(node.arg, env, flags, wrt)
        with np.errstate(all="ignore"):
            if node.op == "neg":
                return -a, (-ad if want_d else None)
            if node.op == "exp":
                v = np.exp(a)
                if not want_d:
                    return v, None
                return v, np.where(ad == 0.0, 0.0, v[..., None] * ad)
            if node.op == "log":
                flags.flag_invalid(a <= 0.0, node)
                v = np.log(np.where(a > 0.0, a, np.nan))
                return v, (ad / a[..., None] if want_d else None)
            if node.op == "sqrt":
                flags.flag_invalid(a < 0.0, node)
                v = np.sqrt(np.where(a >= 0.0, a, np.nan))
            elif node.op == "cbrt":
                v = np.cbrt(a)
            else:
                raise AssertionError(f"unknown unary op {node.op}")
            if not want_d:
                return v, None
            # A zero argument is a kink, or hides the derivative whatever the
            # argument's own (cbrt(x1^3) is x1, sqrt(x1^2) is |x1|): flag it
            # wherever the argument depends on wrt.
            if not node.arg.variables().isdisjoint(wrt):
                flags.flag_nondiff(a == 0.0, node)
            slope = 2.0 * v if node.op == "sqrt" else 3.0 * v * v
            return v, np.where(ad == 0.0, 0.0, ad / slope[..., None])

    a, ad = _walk(node.lhs, env, flags, wrt)
    b, bd = _walk(node.rhs, env, flags, wrt)
    with np.errstate(all="ignore"):
        if node.op == "+":
            return a + b, (ad + bd if want_d else None)
        if node.op == "-":
            return a - b, (ad - bd if want_d else None)
        if node.op == "*":
            return a * b, (ad * b[..., None] + a[..., None] * bd if want_d else None)
        if node.op == "/":
            flags.flag_invalid(b == 0.0, node)
            v = a / np.where(b == 0.0, np.nan, b)
            return v, ((ad * b[..., None] - a[..., None] * bd) / (b * b)[..., None]
                       if want_d else None)
        if node.op == "^":
            nonint = (b != np.floor(b)) | ~np.isfinite(b)
            flags.flag_invalid(((a < 0.0) & nonint) | ((a == 0.0) & (b < 0.0)), node)
            v = np.power(a, b)
            v = np.where((a < 0.0) & nonint, np.nan, v)
            if not want_d:
                return v, None
            # The rule is chosen per row and variable, so no row depends on
            # the others in the batch.  Where the exponent does not move, the
            # plain power rule holds, also for negative bases at integral
            # exponents; elsewhere the log form needs a positive base.
            moving = bd != 0.0
            d = (b * np.power(a, b - 1.0))[..., None] * ad
            d = np.where((ad == 0.0) | (b == 0.0)[..., None], 0.0, d)
            flags.flag_nondiff((~np.isfinite(d) & ~moving).any(axis=-1)
                               & np.isfinite(a) & np.isfinite(v), node)
            if moving.any():
                flags.flag_invalid((a <= 0.0) & moving.any(axis=-1), node)
                la = np.log(np.where(a > 0.0, a, np.nan))
                d_log = v[..., None] * (bd * la[..., None] + b[..., None] * ad / a[..., None])
                d = np.where(moving, d_log, d)
            return v, d
    raise AssertionError(f"unknown binary op {node.op}")


@dataclass
class EvalResult:
    values: np.ndarray
    invalid: np.ndarray  # bool mask of domain violations
    invalid_node: Optional[Expr]


@dataclass
class GradResult:
    values: np.ndarray
    grads: np.ndarray  # shape (..., len(wrt))
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


def eval_many(node: Expr, env: Mapping[str, np.ndarray]) -> EvalResult:
    """Vectorized evaluation; domain violations are masked, not raised."""
    flags = _Flags()
    v, _ = _walk(node, env, flags, None)
    v = np.asarray(np.broadcast_to(np.asarray(v, dtype=float), _batch_shape(env)))
    invalid = np.broadcast_to(np.asarray(flags.invalid, dtype=bool), v.shape)
    return EvalResult(v, invalid, flags.invalid_node)


def grad_many(node: Expr, env: Mapping[str, np.ndarray], wrt: Sequence[str]) -> GradResult:
    """Vectorized forward-mode gradient: one sweep carries every variable in wrt."""
    flags = _Flags()
    v, d = _walk(node, env, flags, tuple(wrt))
    vals = np.asarray(np.broadcast_to(np.asarray(v, dtype=float), _batch_shape(env)))
    grads = np.broadcast_to(np.asarray(d, dtype=float), vals.shape + (len(wrt),))
    invalid = np.broadcast_to(np.asarray(flags.invalid, dtype=bool), vals.shape)
    nondiff = np.broadcast_to(np.asarray(flags.nondiff, dtype=bool), vals.shape)
    nondiff = (nondiff | ~np.isfinite(grads).all(axis=-1)) & ~invalid
    return GradResult(vals, grads, invalid, flags.invalid_node, nondiff, flags.nondiff_node)


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
# Substitution and composition
# ---------------------------------------------------------------------------

_HALF_ULP = 0.5 * float(np.finfo(float).eps)


def eval_with_error(node: Expr, env: Mapping[str, np.ndarray]):
    """Evaluate with a running forward rounding-error bound.

    Returns (values, bound) where bound overestimates the accumulated
    floating-point error of this particular evaluation order (first-order
    running error analysis: each operation adds half an ulp of its result
    and propagates input uncertainty through its derivative magnitude).
    Domain violations surface as nan values with infinite bounds.
    """

    def ulp(v):
        return np.abs(v) * _HALF_ULP

    def walk(n):
        if isinstance(n, Const):
            return np.float64(n.value), np.float64(0.0)
        if isinstance(n, Var):
            return np.asarray(env[n.name], dtype=float), np.float64(0.0)
        with np.errstate(all="ignore"):
            if isinstance(n, Unary):
                a, ea = walk(n.arg)
                if n.op == "neg":
                    return -a, ea
                if n.op == "exp":
                    v = np.exp(a)
                    return v, v * ea + ulp(v)
                if n.op == "log":
                    v = np.log(np.where(a > 0.0, a, np.nan))
                    return v, ea / np.abs(a) + ulp(v)
                if n.op == "sqrt":
                    v = np.sqrt(np.where(a >= 0.0, a, np.nan))
                    return v, np.where(v > 0.0, ea / (2.0 * v), np.where(ea > 0.0, np.inf, 0.0)) + ulp(v)
                if n.op == "cbrt":
                    v = np.cbrt(a)
                    return v, np.where(v != 0.0, ea / np.abs(3.0 * v * v),
                                       np.where(ea > 0.0, np.inf, 0.0)) + ulp(v)
            a, ea = walk(n.lhs)
            b, eb = walk(n.rhs)
            if n.op == "+":
                v = a + b
                return v, ea + eb + ulp(v)
            if n.op == "-":
                v = a - b
                return v, ea + eb + ulp(v)
            if n.op == "*":
                v = a * b
                return v, ea * np.abs(b) + eb * np.abs(a) + ulp(v)
            if n.op == "/":
                v = a / np.where(b == 0.0, np.nan, b)
                return v, (ea + eb * np.abs(v)) / np.abs(b) + ulp(v)
            # pow: |d/da| = |b a^(b-1)|, |d/db| = |v log a| (log term only
            # meaningful for positive bases, where general exponents live)
            nonint = (b != np.floor(b)) | ~np.isfinite(b)
            v = np.power(a, b)
            v = np.where((a < 0.0) & nonint, np.nan, v)
            da = np.abs(b * np.power(a, b - 1.0)) * ea
            da = np.where(ea == 0.0, 0.0, da)
            la = np.abs(np.log(np.where(a > 0.0, a, 1.0)))
            db = np.where(eb == 0.0, 0.0, np.abs(v) * la * eb)
            return v, da + db + ulp(v)
        raise AssertionError(f"unknown node {n!r}")

    v, e = walk(node)
    v = np.asarray(np.broadcast_to(np.asarray(v, dtype=float), _batch_shape(env)))
    e = np.broadcast_to(np.asarray(e, dtype=float), v.shape)
    return v, np.where(np.isfinite(v), e, np.inf)


def substitute(node: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by whole subtrees."""
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Unary):
        return Unary(node.op, substitute(node.arg, mapping))
    if isinstance(node, Binary):
        return Binary(node.op, substitute(node.lhs, mapping), substitute(node.rhs, mapping))
    return node


def compose(f: Expr, inner: Sequence[Expr], inner_vars: Sequence[str], box_lo, box_hi,
            override: Optional[Expr] = None) -> Expr:
    """Build f after the substitution y_i := inner_i(x).

    ``f`` is written over y1..yn; each ``inner[i]`` is written over the
    problem variables.  When ``override`` is given it is validated against
    the direct substitution on OVERRIDE_SAMPLES points of the box, drawn
    with OVERRIDE_SEED (relative tolerance OVERRIDE_TOL), and then used
    verbatim; a mismatch raises
    ComposeMismatchError carrying the worst point.
    """
    mapping = {f"y{i + 1}": inner[i] for i in range(len(inner))}
    for name in f.variables():
        if name not in mapping:
            raise ComposeMismatchError(f"function over unknown variable {name!r}; expected y1..y{len(inner)}")
    substituted = substitute(f, mapping)
    if override is None:
        return substituted
    extra = override.variables() - set(inner_vars)
    if extra:
        raise ComposeMismatchError(f"composed form uses undeclared variables {sorted(extra)}")
    stream = SampleStream(OVERRIDE_SEED, "compose-validate")
    pts = stream.box(np.asarray(box_lo, float), np.asarray(box_hi, float), OVERRIDE_SAMPLES)
    env = {name: pts[:, j] for j, name in enumerate(inner_vars)}
    sub = eval_many(substituted, env)
    ovr = eval_many(override, env)
    ok = ~sub.invalid & ~ovr.invalid & np.isfinite(sub.values) & np.isfinite(ovr.values)
    if not ok.any():
        raise ComposeMismatchError("composed form could not be validated: no comparable sample points")
    # The budget pairs the relative tolerance with a running rounding-error
    # bound of both evaluations, so exact overrides of badly conditioned
    # substitutions (catastrophic cancellation inside E) are not rejected
    # for float noise while genuinely different functions still are.
    _, err_sub = eval_with_error(substituted, env)
    _, err_ovr = eval_with_error(override, env)
    budget = OVERRIDE_TOL * (1.0 + np.abs(ovr.values)) + 8.0 * (err_sub + err_ovr)
    excess = np.abs(sub.values - ovr.values) - budget
    excess = np.where(ok & np.isfinite(excess), excess, -np.inf)
    worst = int(np.argmax(excess))
    if excess[worst] > 0.0:
        point = {name: float(pts[worst, j]) for j, name in enumerate(inner_vars)}
        raise ComposeMismatchError(
            f"composed form disagrees with substitution at {point}: "
            f"substituted {sub.values[worst]:.12g}, supplied {ovr.values[worst]:.12g}",
            point=point, substituted=float(sub.values[worst]), supplied=float(ovr.values[worst]))
    return override
