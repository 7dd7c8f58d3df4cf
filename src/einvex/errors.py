"""Exception types shared across the package."""


class EinvexError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EinvexError):
    """Expression source could not be parsed.

    Carries a 1-based byte offset into the source string.
    """

    def __init__(self, message, offset):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class DomainEvalError(EinvexError):
    """An expression was evaluated outside its mathematical domain."""

    def __init__(self, node, point=None):
        self.node = node
        self.point = point
        at = f" at {point}" if point is not None else ""
        super().__init__(f"domain error in subexpression '{node}'{at}")


class NonDifferentiableError(EinvexError):
    """A derivative does not exist (or is not finite) at the requested point."""

    def __init__(self, node, point=None):
        self.node = node
        self.point = point
        at = f" at {point}" if point is not None else ""
        super().__init__(f"non-differentiable subexpression '{node}'{at}")


class ComposeMismatchError(EinvexError):
    """A hand-supplied composed form disagrees with direct substitution."""

    def __init__(self, message, point=None, substituted=None, supplied=None):
        self.point = point
        self.substituted = substituted
        self.supplied = supplied
        super().__init__(message)


class ProblemFormatError(EinvexError):
    """A problem file (or dict) violates the expected schema."""

    def __init__(self, location, message):
        self.location = location
        super().__init__(f"{location}: {message}")


class InfeasiblePointError(EinvexError):
    """A candidate point violates the problem constraints."""


class InfeasibleMultipliersError(EinvexError):
    """No multiplier vector satisfies the first-order system within tolerance."""

    def __init__(self, best_residual):
        self.best_residual = best_residual
        super().__init__(f"no multipliers within residual tolerance "
                         f"(best stationarity residual {best_residual:.6g})")


class GridGuardError(EinvexError):
    """A requested grid exceeds the enumeration size guard."""


class CliUsageError(EinvexError):
    """Bad command line arguments."""
