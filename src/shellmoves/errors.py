"""Exception types shared across the package."""


class ShellmovesError(Exception):
    """Base class for all errors raised by this package."""


class GaussCodeError(ShellmovesError):
    """Malformed Gauss-code text."""


class UnknownChordId(GaussCodeError):
    pass


class DuplicateEndpoint(GaussCodeError):
    pass


class MissingEndpoint(GaussCodeError):
    pass


class BadSign(GaussCodeError):
    pass


class CircleCountMismatch(GaussCodeError):
    pass


class WrongComponentCount(ShellmovesError):
    """Operation requires a specific number of circles."""


class NotADiagram(ShellmovesError):
    """An argument that must be a GaussDiagram is not one."""


class UnsupportedComponentCount(ShellmovesError):
    """Invariants are only implemented for one- and two-circle diagrams."""


class ComponentCountMismatch(ShellmovesError):
    """The two diagrams being compared have different circle counts."""


class NotASelfChord(ShellmovesError):
    pass


class NotANonselfChord(ShellmovesError):
    pass


class StaleSite(ShellmovesError):
    """A move site no longer matches the diagram it is applied to."""


class MalformedSnailForm(ShellmovesError):
    """A snail form with data that are not ints, or whose nonself
    coefficients do not give its lambda."""


class BadSupport(MalformedSnailForm):
    """Self-snail coefficients supported on slot 0 or 1."""


class InconsistentProfile(ShellmovesError):
    """Hand-built invariant profile violates the linking congruence."""


class NotRealizable(ShellmovesError):
    """No virtual knot has the requested writhe polynomial."""


class ConstraintViolated(ShellmovesError):
    """A realization target violates one of its admissibility constraints."""


class NegativeLambda(ShellmovesError):
    """Link realization expects a nonnegative virtual linking number."""


class BudgetExceeded(ShellmovesError):
    """The bounded move-graph search hit its node budget before finishing."""
