"""Exception hierarchy shared by all spinnet modules."""


class SpinnetError(Exception):
    """Base class for all library errors."""


class InvalidSpin(SpinnetError):
    """A spin label is malformed (negative twice-value or unparsable)."""


class IncompatibleRadicands(SpinnetError):
    """Sum of two sqrt-rational values with different radicands."""


class InvalidTriads(SpinnetError):
    """A required triple of spins violates the triangle/parity rules."""

    def __init__(self, message, triads=()):
        super().__init__(message)
        self.triads = tuple(triads)


class PhaseParityError(SpinnetError):
    """(-1)**n requested for a half-integer exponent n."""


class NegativeSpinAfterTransform(SpinnetError):
    """A Regge map produced a negative entry (inconsistent input)."""


class UnrealizableQuadrangle(SpinnetError):
    """No diagonal pair (x, y) is compatible with the four given sides."""


class InvalidInstance(SpinnetError):
    """A nine-spin pentagon-identity instance has an invalid fixed triad."""

    def __init__(self, message, triads=()):
        super().__init__(message)
        self.triads = tuple(triads)


class TriadViolation(SpinnetError):
    """A spin labeling violates triads; carries the failing locations."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class MissingSymbol(SpinnetError, KeyError):
    """A spin labeling leaves one of its named symbols unassigned."""

    __str__ = SpinnetError.__str__  # the message, without KeyError's quotes


class LabelTransferMismatch(SpinnetError):
    """Combinatorial tags of a labeling and a complex do not line up."""


class MalformedLabels(SpinnetError):
    """A structure lacks the two-color/bracket tagging an operation needs."""


class CeilingExceeded(SpinnetError):
    """A grid verification was asked to exceed its configured ceiling."""
