"""Exact arithmetic substrate: spins, rationals and c*sqrt(r) values.

Spins are stored as twice-values (2j) so that all triangle and parity
arguments reduce to integer comparisons and evenness tests.  SqrtRational
is the closure needed by exact recoupling coefficients: a rational
multiple of the square root of a square-free non-negative integer.
Inside the library the same value travels as a (num, den, rad) triple,
and the triple helpers below are the one place where values are
multiplied, added and reduced.

_frozen_record, at the end, makes the library's record classes frozen
dataclasses in all but the import: dataclasses, and the inspect, ast,
dis and tokenize it imports, load only when its API is called on a
record.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from .errors import IncompatibleRadicands, InvalidSpin, PhaseParityError

__all__ = [
    "Spin",
    "SqrtRational",
    "ZERO_TRIPLE",
    "factorial_exponents",
    "factorial_primes",
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
        """Parse 'n' or 'n/2' (e.g. '2', '3/2') into a Spin.

        n is ASCII digits only; int() would read other scripts' digits.
        """
        s = text.strip()
        m = re.fullmatch(r"([0-9]+)\s*/\s*2", s)
        try:
            if m:
                return cls(int(m.group(1)))
            if re.fullmatch(r"[0-9]+", s):
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


# Exact values inside the library are (num, den, rad) triples, the
# kernel's own form: (num/den)*sqrt(rad) with rad square-free.  A
# product multiplies radicands by the gcd rule r1*r2 = g**2*(r1/g)*(r2/g),
# g = gcd(r1, r2), so no radicand is ever factored again.

ZERO_TRIPLE = (0, 1, 1)


def _product(values, weight=1):
    """weight * prod(values), unreduced: (num, den, rad) with den > 0."""
    num, den, rad = weight, 1, 1
    for n, d, r in values:
        if not n:
            return ZERO_TRIPLE
        g = gcd(rad, r)
        num *= n * g
        den *= d
        rad = (rad // g) * (r // g)
    return num, den, rad


def _reduce(num, den, rad):
    """The canonical triple of (num/den)*sqrt(rad)."""
    if not num:
        return ZERO_TRIPLE
    g = gcd(num, den)
    return num // g, den // g, rad


def _sum(terms):
    """Canonical triple of a sum of unreduced triples.

    The terms are accumulated over a common denominator and reduced once.
    Raises IncompatibleRadicands when two nonzero terms have different
    radicands.
    """
    num, den, rad = 0, 1, None
    for n, d, r in terms:
        if not n:
            continue
        if rad is None:
            rad = r
        elif r != rad:
            raise IncompatibleRadicands(
                f"cannot add sqrt({rad}) and sqrt({r}) terms")
        if den % d:
            m = lcm(den, d)
            num = num * (m // den) + n * (m // d)
            den = m
        else:
            num += n * (den // d)
    return _reduce(num, den, rad)


def _triple(v):
    """The (num, den, rad) triple of an int, Fraction or SqrtRational."""
    if isinstance(v, SqrtRational):
        return v.coeff.numerator, v.coeff.denominator, v.radicand
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator, 1
    return None


class SqrtRational:
    """The exact value coeff * sqrt(radicand).

    Canonical form: coeff is a Fraction and radicand a square-free positive
    int (denominators are lifted into the coefficient), with radicand == 1
    whenever coeff == 0.  Equal values therefore have equal fields.

    The constructor accepts any rational radicand and splits off its
    square part; the arithmetic runs on the (num, den, rad) triple helpers
    above, which keep the form without splitting again.
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
    def parse(cls, text: str) -> "SqrtRational":
        """Parse the textual form 'p/q*sqrt(r/s)' (also bare 'p/q' or 'p')."""
        s = text.strip().replace(" ", "")
        m = re.fullmatch(
            r"(?P<c>[+-]?\d+(?:/\d+)?)(?:\*sqrt\((?P<r>\d+(?:/\d+)?)\))?", s)
        try:
            if m:
                return cls(Fraction(m.group("c")), Fraction(m.group("r") or 1))
        except ZeroDivisionError:
            pass  # a zero denominator
        raise ValueError(f"cannot parse sqrt-rational {text!r}")

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
        return SqrtRational._from_triple(*_sum((_triple(self),
                                                _triple(other))))

    def __sub__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        factor = _triple(other)
        if factor is None:
            return NotImplemented
        return self._times(factor)

    __rmul__ = __mul__

    def __truediv__(self, other):
        factor = _triple(other)
        if factor is None:
            return NotImplemented
        n, d, r = factor
        if not n:
            raise ZeroDivisionError("division by zero SqrtRational")
        # 1/((n/d)*sqrt(r)) == (d/(n*r))*sqrt(r), with a positive den
        return self._times((d, n * r, r) if n > 0 else (-d, -n * r, r))

    def _times(self, factor):
        return SqrtRational._from_triple(
            *_reduce(*_product((_triple(self), factor))))

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


# Prime-exponent vectors of factorials, each packed into one int: field
# i, _EXPONENT_BITS wide, holds the exponent of the i-th prime.  Integer
# addition is linear, so a sum of packed vectors is the packed vector of
# the field-wise sums: a product or quotient of factorials costs a few
# big-int additions, and its vector reads off exactly wherever every
# field of the result lies in [0, 2**_EXPONENT_BITS).  Entries for n
# below _FACTORIAL_MEMO_SIZE are stored.  A larger one is built on from
# the nearest entry at or below it, among the last stored one and the
# last _ABOVE_MEMO_KEEP built above the memo, which are kept in place of
# the oldest, so a run of large arguments adds only what is new.
_FACTORIAL_MEMO_SIZE = 10_000
_EXPONENT_BITS = 16
_factorial_exponents = [0, 0]
_factorial_exponents_lock = threading.Lock()
# n -> vector of n! for the vectors last built above the memo, oldest
# first
_ABOVE_MEMO_KEEP = 8
_above_memo = {}
# (least prime factor of each m <= limit, the primes <= limit in field
# order, the bit offset of each such prime's field), grown by doubling;
# it is kept at any size, one int per m and one offset per prime
_sieve = ([0, 1], [], {})


def _sieve_upto(limit: int):
    """The sieve table covering every m <= limit."""
    global _sieve
    table = _sieve
    if limit < len(table[0]):
        return table
    size = max(limit, 2 * len(table[0]))
    if limit < _FACTORIAL_MEMO_SIZE:
        size = min(size, _FACTORIAL_MEMO_SIZE - 1)
    lpf = list(range(size + 1))
    # descending, so that the least divisor d >= 2 of m with d*d <= m,
    # which is prime, is the last to write lpf[m]
    for d in range(math.isqrt(size), 1, -1):
        lpf[d * d::d] = [d] * len(range(d * d, size + 1, d))
    primes = [m for m in range(2, size + 1) if lpf[m] == m]
    offset = {p: i * _EXPONENT_BITS for i, p in enumerate(primes)}
    _sieve = table = lpf, primes, offset
    return table


def factorial_primes(n: int) -> list[int]:
    """The primes in field order of factorial_exponents, up to n at least."""
    return _sieve_upto(n)[1]


def factorial_exponents(n: int) -> int:
    """The prime-exponent vector of n!, packed into one int.

    Field i, bits 16*i to 16*i + 15, holds the exponent of
    factorial_primes(n)[i] in n!; every exponent fits while n is below
    2**16, and a sum of vectors reads off exactly wherever its own
    fields fit.  The memo grows one n at a time under a lock, adding
    the packed factorization of each new n, so concurrent readers are
    safe.
    """
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    vectors = _factorial_exponents
    if n < len(vectors):
        return vectors[n]
    with _factorial_exponents_lock:
        if n < len(vectors):
            return vectors[n]
        lpf, _, offset = _sieve_upto(n)
        m, v = len(vectors) - 1, vectors[-1]
        if len(vectors) == _FACTORIAL_MEMO_SIZE:
            # a plain loop: a comprehension here would make n a cell
            # variable, which every call, the memo hits too, would pay for
            for k in _above_memo:
                if m < k <= n:
                    m = k
            v = _above_memo.get(m, v)
        for m in range(m + 1, n + 1):
            k = m
            while k > 1:
                p = lpf[k]
                v += 1 << offset[p]
                k //= p
            if m < _FACTORIAL_MEMO_SIZE:
                vectors.append(v)
        if n >= _FACTORIAL_MEMO_SIZE:
            _above_memo.pop(n, None)
            _above_memo[n] = v
            if len(_above_memo) > _ABOVE_MEMO_KEEP:
                del _above_memo[next(iter(_above_memo))]
    return v


def phase_from_twice(twice: int) -> int:
    """(-1)**(twice/2); raises PhaseParityError for half-integer exponents."""
    if twice % 2:
        raise PhaseParityError(
            f"(-1)**({twice}/2) has half-integer exponent")
    return -1 if (twice // 2) % 2 else 1


# dataclasses imports inspect, ast, dis and tokenize, which once cost a
# first 6j value or a CLI command most of its start-up.  The methods
# dataclass(frozen=True) compiles, in its source form, but for the body
# of __init__ (see _frozen_record).
_RECORD_SOURCE = """\
def __init__(self, {args}):
{body}
def __eq__(self, other):
 if other.__class__ is self.__class__:
  return ({own},) == ({other},)
 return NotImplemented
def __hash__(self):
 return hash(({own},))
"""


def _frozen_record(cls):
    """Make cls a frozen record, as dataclass(frozen=True) makes it.

    The fields are the names annotated in the class body, in order; the
    class has no defaults, field() or base class, and defines none of
    the methods added here.  __init__, __eq__ and __hash__ are compiled
    from the source dataclasses generates, but __init__ stores each field
    in the instance __dict__, one item store per field under a dunder
    local no field name takes, in place of one object.__setattr__ call
    per field, then runs __post_init__ when the class has one.  On
    Python 3.11 and later, reading self.__dict__ gives each instance a
    real dict where object.__setattr__ kept inline values.  __repr__, the
    frozen __setattr__ and __delattr__ (which import FrozenInstanceError
    only to raise it), __match_args__ and, from Python 3.13,
    __replace__ behave as dataclass's.  __dataclass_fields__ and
    __dataclass_params__ are built on first read, so fields, asdict,
    astuple, replace and is_dataclass work and load dataclasses only
    when called.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    body = [" __dataclass_self_dict__ = self.__dict__"]
    body += [f" __dataclass_self_dict__[{n!r}] = {n}" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    namespace = {}
    exec(_RECORD_SOURCE.format(
        args=", ".join(names), body="\n".join(body),
        own=", ".join(f"self.{n}" for n in names),
        other=", ".join(f"other.{n}" for n in names)),
        {"__name__": cls.__module__}, namespace)
    init, eq, hash_ = (namespace[n] for n in ("__init__", "__eq__",
                                              "__hash__"))
    init.__annotations__ = {**annotations, "return": None}
    running = set()

    def __repr__(self):
        key = id(self), threading.get_ident()
        if key in running:
            return "..."
        running.add(key)
        try:
            return (f"{self.__class__.__qualname__}("
                    + ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
                    + ")")
        finally:
            running.discard(key)

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __replace__(self, /, **changes):
        from dataclasses import replace
        return replace(self, **changes)

    methods = [init, eq, hash_, __repr__, __setattr__, __delattr__]
    if sys.version_info >= (3, 13):
        methods.append(__replace__)
    for fn in methods:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = names
    cls.__dataclass_fields__ = _DataclassAttribute(cls, "__dataclass_fields__")
    cls.__dataclass_params__ = _DataclassAttribute(cls, "__dataclass_params__")
    return cls


class _DataclassAttribute:
    """A record's dataclasses attribute, built when first read.

    dataclass(frozen=True) runs on a twin class holding only the
    record's annotations, and the twin's __dataclass_fields__ and
    __dataclass_params__ replace both descriptors on the record.
    """

    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, obj, owner=None):
        from dataclasses import dataclass
        cls = self.cls
        twin = dataclass(frozen=True)(type(cls.__name__, (), {
            "__module__": cls.__module__,
            "__qualname__": cls.__qualname__,
            "__annotations__": dict(cls.__dict__["__annotations__"])}))
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(cls, self.name)
