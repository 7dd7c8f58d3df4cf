"""A 60-digit mpmath evaluator of expression trees: the reference for float evaluation.

``mp_eval(node, point)`` evaluates a tree at one point, given as a mapping
from variable names to floats, which mpmath takes exactly, and
``mp_grad(node, point, names)`` takes its partial derivatives there.  It follows the
domain rules of ``einvex.expr`` and returns None where the exact value is
undefined: log of a non-positive number, sqrt of a negative one, division
by zero, a negative base under a non-integral exponent, zero under a
negative exponent.  ``cbrt`` is the real cube root.  It also returns None
where an exponential or a power would pass exp(+-REACH), far beyond the
float range, where mpmath would need about REACH bits to go on.
"""

import mpmath

from einvex.expr import Binary, Const, Unary, Var

DPS = 60
REACH = 1e9


def mp_eval(node, point):
    with mpmath.workdps(DPS):
        return _mp(node, point)


def mp_grad(node, point, names):
    """The partial derivatives of node at point in each of names, by
    mpmath.diff, which raises the working precision above DPS digits for the
    difference quotients; node must be defined near point."""
    with mpmath.workdps(DPS):
        xs = [mpmath.mpf(point[name]) for name in names]

        def f(*v):
            return _mp(node, {**point, **dict(zip(names, v))})

        return [mpmath.diff(f, xs, tuple(int(i == j) for i in range(len(names))))
                for j in range(len(names))]


def _mp(node, point):
    if isinstance(node, Const):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return mpmath.mpf(point[node.name])
    if isinstance(node, Unary):
        a = _mp(node.arg, point)
        if a is None:
            return None
        if node.op == "neg":
            return -a
        if node.op == "exp":
            return mpmath.exp(a) if abs(a) <= REACH else None
        if node.op == "log":
            return mpmath.log(a) if a > 0 else None
        if node.op == "sqrt":
            return mpmath.sqrt(a) if a >= 0 else None
        if node.op == "cbrt":
            return mpmath.cbrt(a) if a >= 0 else -mpmath.cbrt(-a)
        raise AssertionError(f"unknown unary op {node.op}")
    assert isinstance(node, Binary)
    a, b = _mp(node.lhs, point), _mp(node.rhs, point)
    if a is None or b is None:
        return None
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b if b != 0 else None
    if node.op == "^":
        if a == 0:
            return None if b < 0 else mpmath.mpf(1 if b == 0 else 0)
        if (a < 0 and not mpmath.isint(b)) or abs(b * mpmath.log(abs(a))) > REACH:
            return None
        v = mpmath.power(abs(a), b)
        return -v if a < 0 and int(b) % 2 else v
    raise AssertionError(f"unknown binary op {node.op}")
