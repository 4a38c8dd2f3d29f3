"""Exact arithmetic substrate: spins, rationals and c*sqrt(r) values.

Spins are stored as twice-values (2j) so that all triangle and parity
arguments reduce to integer comparisons and evenness tests.  Rational is
the stdlib Fraction, which already guarantees lowest terms and a positive
denominator.  SqrtRational is the closure needed by exact recoupling
coefficients: a rational multiple of the square root of a square-free
non-negative integer.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from fractions import Fraction
from functools import total_ordering

from .errors import IncompatibleRadicands, InvalidSpin, PhaseParityError

# The exact-rational substrate is the stdlib Fraction: reduced, den > 0.
Rational = Fraction

__all__ = [
    "Rational",
    "Spin",
    "SqrtRational",
    "spin_from_twice",
    "sqrt_rational_add",
    "sqrt_rational_mul",
    "factorial",
    "phase_from_twice",
    "square_free_split",
]


@total_ordering
class Spin:
    """An SU(2) irrep label j, stored exactly as the integer 2j."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise InvalidSpin(f"twice-value must be an integer, got {twice!r}")
        if twice < 0:
            raise InvalidSpin(f"twice-value must be non-negative, got {twice}")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("Spin is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # default reconstruction assigns the slot through __setattr__
        return (type(self), (self.twice,))

    @classmethod
    def parse(cls, text: str) -> "Spin":
        """Parse 'n' or 'n/2' (e.g. '2', '3/2') into a Spin."""
        s = text.strip()
        m = re.fullmatch(r"(\d+)\s*/\s*2", s)
        try:
            if m:
                return cls(int(m.group(1)))
            if re.fullmatch(r"\d+", s):
                return cls(2 * int(s))
        except ValueError:
            pass  # more digits than int() converts
        raise InvalidSpin(f"cannot parse spin {text!r} (expected 'n' or 'n/2')")

    @property
    def j(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def dimension(self) -> int:
        """Dimension 2j + 1 of the irrep."""
        return self.twice + 1

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __eq__(self, other):
        return isinstance(other, Spin) and self.twice == other.twice

    def __lt__(self, other):
        if not isinstance(other, Spin):
            return NotImplemented
        return self.twice < other.twice

    def __hash__(self):
        return hash(("Spin", self.twice))

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"Spin({self.twice})"


def spin_from_twice(t: int) -> Spin:
    """Build the spin j = t/2; rejects negative t with InvalidSpin."""
    return Spin(t)


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = s*s*r with r square-free; returns (s, r).  Requires n >= 1.

    Trial division; exact for any input, fast for the factorial-smooth
    numbers produced by recoupling coefficients.
    """
    if n < 1:
        raise ValueError(f"square_free_split needs n >= 1, got {n}")
    s, r = 1, 1
    for p in _trial_divisors():
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                r *= p
    # remaining cofactor is 1 or a single prime (its square would have
    # been caught inside the loop)
    if n > 1:
        r *= n
    return s, r


def _trial_divisors():
    # 6k+-1 candidates; composites are harmless for trial division
    yield 2
    yield 3
    p = 5
    while True:
        yield p
        yield p + 2
        p += 6


class SqrtRational:
    """The exact value coeff * sqrt(radicand).

    Canonical form: coeff is a Fraction and radicand a square-free positive
    int (denominators are lifted into the coefficient), with radicand == 1
    whenever coeff == 0.  Equal values therefore have equal fields.

    The constructor accepts any rational radicand and splits off its
    square part; the arithmetic keeps the form without splitting again.
    Two square-free radicands r1, r2 with g = gcd(r1, r2) multiply to
    g**2 * (r1/g) * (r2/g), and (r1/g) * (r2/g) is square-free.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        c = Fraction(coeff)
        r = Fraction(radicand)
        if r < 0:
            raise ValueError(f"radicand must be non-negative, got {r}")
        if c == 0 or r == 0:
            # sqrt(0) collapses to the canonical zero as well
            object.__setattr__(self, "coeff", Fraction(0))
            object.__setattr__(self, "radicand", 1)
            return
        # coeff * sqrt(n/d) == (coeff/d) * sqrt(n*d)
        n, d = r.numerator, r.denominator
        s, rad = square_free_split(n * d)
        object.__setattr__(self, "coeff", c * Fraction(s, d))
        object.__setattr__(self, "radicand", rad)

    @classmethod
    def _canonical(cls, coeff: Fraction, radicand: int) -> "SqrtRational":
        """coeff * sqrt(radicand) for a square-free radicand, unsplit."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeff", coeff)
        object.__setattr__(out, "radicand", radicand if coeff else 1)
        return out

    @classmethod
    def _from_triple(cls, num: int, den: int, rad: int) -> "SqrtRational":
        """(num/den) * sqrt(rad) for den > 0 and a square-free rad >= 1."""
        return cls._canonical(Fraction(num, den), rad)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtRational is immutable")

    def __reduce__(self):
        # the fields are already canonical, so nothing is factored again
        return (self._canonical, (self.coeff, self.radicand))

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0)

    @classmethod
    def one(cls) -> "SqrtRational":
        return cls(1)

    @classmethod
    def sqrt(cls, q) -> "SqrtRational":
        """Exact square root of a non-negative rational."""
        return cls(1, Fraction(q))

    @classmethod
    def parse(cls, text: str) -> "SqrtRational":
        """Parse the textual form 'p/q*sqrt(r/s)' (also bare 'p/q' or 'p')."""
        s = text.strip().replace(" ", "")
        m = re.fullmatch(
            r"(?P<c>[+-]?\d+(?:/\d+)?)(?:\*sqrt\((?P<r>\d+(?:/\d+)?)\))?", s)
        if not m:
            raise ValueError(f"cannot parse sqrt-rational {text!r}")
        coeff = Fraction(m.group("c"))
        rad = Fraction(m.group("r")) if m.group("r") else Fraction(1)
        return cls(coeff, rad)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_rational(self) -> Fraction:
        if self.radicand != 1:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def __bool__(self):
        return self.coeff != 0

    def __eq__(self, other):
        if isinstance(other, SqrtRational):
            return (self.coeff == other.coeff
                    and self.radicand == other.radicand)
        if isinstance(other, (int, Fraction)):
            return self.radicand == 1 and self.coeff == other
        return NotImplemented

    def __hash__(self):
        # rational values hash like their Fraction so == and hash agree
        if self.radicand == 1:
            return hash(self.coeff)
        return hash((self.coeff, self.radicand))

    def __neg__(self):
        return SqrtRational._canonical(-self.coeff, self.radicand)

    def __add__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.radicand != other.radicand:
            raise IncompatibleRadicands(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand}) terms")
        return SqrtRational._canonical(self.coeff + other.coeff, self.radicand)

    def __sub__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SqrtRational._canonical(self.coeff * other, self.radicand)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        g = math.gcd(self.radicand, other.radicand)
        return SqrtRational._canonical(
            self.coeff * other.coeff * g,
            (self.radicand // g) * (other.radicand // g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return SqrtRational._canonical(self.coeff / other, self.radicand)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero SqrtRational")
        # c1*sqrt(g*u) / (c2*sqrt(g*v)) == c1/(c2*v) * sqrt(u*v)
        g = math.gcd(self.radicand, other.radicand)
        v = other.radicand // g
        return SqrtRational._canonical(self.coeff / (other.coeff * v),
                                       (self.radicand // g) * v)

    def to_float(self) -> float:
        """Floating approximation, for display only."""
        c = self.coeff
        try:
            fc = float(c)
            if not c or abs(fc) >= sys.float_info.min:
                return fc * math.sqrt(float(self.radicand))
        except OverflowError:
            pass
        # the coefficient or the radicand is outside the normal float
        # range, though the value need not be: scale the exact square
        # n**2 * rad / d**2 by 4**k so that its integer root has about 64
        # bits, then take the power of two back off
        n, d = abs(c.numerator), c.denominator
        sq_num, sq_den = n * n * self.radicand, d * d
        k = (sq_den.bit_length() - sq_num.bit_length()) // 2 + 64
        if k >= 0:
            root = math.isqrt((sq_num << 2 * k) // sq_den)
        else:
            root = math.isqrt(sq_num // (sq_den << -2 * k))
        value = math.ldexp(root, -k)
        return -value if c < 0 else value

    __float__ = to_float

    def __str__(self):
        c = self.coeff
        try:
            return f"{c.numerator}/{c.denominator}*sqrt({self.radicand}/1)"
        except ValueError:  # a part longer than the int-string limit
            return (f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
                    f"*sqrt({_decimal(self.radicand)}/1)")

    def __repr__(self):
        return f"SqrtRational({self.coeff!r}, {self.radicand!r})"


# digits per piece in _decimal: under 640, the least int-string limit
# sys.set_int_max_str_digits accepts, so any setting converts a piece
_PIECE_DIGITS = 600
_PIECE = 10 ** _PIECE_DIGITS


def _decimal(n: int) -> str:
    """str(n) at any size, converted in pieces under the int-string limit.

    The limit stays in force for parsing, where it bounds outside input.
    """
    if n < 0:
        return "-" + _decimal(-n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    return str(n) + "".join(reversed(pieces))


def sqrt_rational_mul(u: SqrtRational, v: SqrtRational) -> SqrtRational:
    """Exact normalized product of two sqrt-rational values."""
    return u * v


def sqrt_rational_add(u: SqrtRational, v: SqrtRational) -> SqrtRational:
    """Exact sum; defined only for equal radicands or a zero operand."""
    return u + v


class FactorialCache:
    """Memoized arbitrary-precision factorials.

    The table grows on demand under a lock, so concurrent readers are
    safe.  It keeps at most max_size entries (DEFAULT_SIZE unless given);
    larger arguments are still computed exactly, just not stored.
    """

    DEFAULT_SIZE = 10_000

    def __init__(self, max_size: int = DEFAULT_SIZE):
        self.max_size = max(max_size, 2)
        self._table = [1, 1]
        self._lock = threading.Lock()

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"factorial of negative {n}")
        table = self._table
        if n < len(table):
            return table[n]
        if n >= self.max_size:
            return math.factorial(n)
        with self._lock:
            table = self._table
            while len(table) <= n:
                table.append(table[-1] * len(table))
        return table[n]


factorial = FactorialCache()


def phase_from_twice(twice: int) -> int:
    """(-1)**(twice/2); raises PhaseParityError for half-integer exponents."""
    if twice % 2:
        raise PhaseParityError(
            f"(-1)**({twice}/2) has half-integer exponent")
    return -1 if (twice // 2) % 2 else 1
