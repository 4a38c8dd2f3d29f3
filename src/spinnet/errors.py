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
    """A spin labeling violates triads; carries the failing locations.

    TriadViolation.deferred(report) raises cheaply where a rejection is
    usually dropped: its message and violations are report(), called
    when violations, args, str, repr or __reduce__ (pickle, copy) is
    first read, and every such read returns what the eager
    TriadViolation(message, violations) returns.  copy.deepcopy shares
    violations, which a report fills with immutable values only, and
    deep-copies every other attribute.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)

    @classmethod
    def deferred(cls, report):
        """A TriadViolation whose (message, violations) is report()."""
        exc = cls.__new__(cls)
        exc._report = report
        return exc

    def _resolve(self):
        # assign before dropping the pending report, so that a reader
        # always finds one or the other; a second resolution is harmless
        report = self.__dict__.get("_report")
        if report is not None:
            self.__init__(*report())
            self.__dict__.pop("_report", None)

    def __getattr__(self, name):
        # normal lookup failed: a deferred exception's violations is
        # built here, any other name stays missing
        if name == "violations" and "_report" in self.__dict__:
            self._resolve()
            return self.violations
        return object.__getattribute__(self, name)

    @property
    def args(self):
        self._resolve()
        return BaseException.args.__get__(self)

    @args.setter
    def args(self, value):
        self._resolve()
        BaseException.args.__set__(self, value)

    def __str__(self):
        self._resolve()
        return super().__str__()

    def __repr__(self):
        self._resolve()
        return super().__repr__()

    def __reduce__(self):
        self._resolve()
        return super().__reduce__()

    def __deepcopy__(self, memo):
        # the default deep copy rebuilt from __reduce__, except that the
        # copy shares violations: a report of strings, tuples and Spins
        # is immutable, and copying it was most of the cost; every other
        # attribute, such as a __notes__ list, is deep-copied as before
        from copy import deepcopy

        cls, args, *state = self.__reduce__()
        dup = memo[id(self)] = cls(*deepcopy(args, memo))
        for name, value in (state[0] if state else {}).items():
            setattr(dup, name, value if name == "violations"
                    else deepcopy(value, memo))
        return dup


class MissingSymbol(SpinnetError, KeyError):
    """A spin labeling leaves one of its named symbols unassigned."""

    __str__ = SpinnetError.__str__  # the message, without KeyError's quotes


class LabelTransferMismatch(SpinnetError):
    """Combinatorial tags of a labeling and a complex do not line up."""


class MalformedLabels(SpinnetError):
    """A structure lacks the two-color/bracket tagging an operation needs."""


class CeilingExceeded(SpinnetError):
    """A grid verification was asked to exceed its configured ceiling."""
