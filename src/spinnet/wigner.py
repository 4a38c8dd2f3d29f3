"""Triads and exact Wigner 6j symbols.

A 6j symbol {a b x; c d y} couples the four triads (abx), (bcy), (cdx),
(ady).  Values are computed by the exact single-sum evaluation over
arbitrary-precision integers (see spinnet.kernel); an out-of-triad
symbol raises InvalidTriads rather than returning 0, so enumeration bugs
in identity verifiers cannot hide behind silent zeros.  sixj_or_zero is
the wrapper meant for delta-constrained sum-style formulas.

The value cache holds the kernel's own (num, den, rad) triple.  The
identity sums read it through sixj_triple_or_zero_twice; the functions
returning a value wrap it in a SqrtRational without factoring again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernel
from .errors import InvalidTriads
from .exactnum import Spin, SqrtRational

__all__ = [
    "Triad",
    "SixJ",
    "triad_valid",
    "triad_valid_twice",
    "sixj_admissible_x",
    "sixj_value",
    "sixj_or_zero",
    "sixj_dimension_weight",
]


def triad_valid_twice(t1: int, t2: int, t3: int) -> bool:
    """Triangle inequality plus integer perimeter, on twice-values."""
    return (
        (t1 + t2 + t3) % 2 == 0
        and abs(t1 - t2) <= t3 <= t1 + t2
    )


def triad_valid(j1: Spin, j2: Spin, j3: Spin) -> bool:
    """True iff (j1, j2, j3) is a coupling triad."""
    return triad_valid_twice(j1.twice, j2.twice, j3.twice)


@dataclass(frozen=True)
class Triad:
    """An unordered coupling triple of spins."""

    j1: Spin
    j2: Spin
    j3: Spin

    def __post_init__(self):
        if not triad_valid(self.j1, self.j2, self.j3):
            raise InvalidTriads(
                f"({self.j1}, {self.j2}, {self.j3}) is not a triad",
                triads=[(self.j1, self.j2, self.j3)])

    def spins(self) -> tuple[Spin, Spin, Spin]:
        return (self.j1, self.j2, self.j3)

    def _key(self):
        return tuple(sorted((self.j1.twice, self.j2.twice, self.j3.twice)))

    def __eq__(self, other):
        return isinstance(other, Triad) and self._key() == other._key()

    def __hash__(self):
        return hash(("Triad", self._key()))

    def __str__(self):
        return f"({self.j1}, {self.j2}, {self.j3})"


# slots of (a, b, x, c, d, y) forming the four triads of the symbol
TRIAD_SLOTS = ((0, 1, 2), (1, 3, 5), (3, 4, 2), (0, 4, 5))


@dataclass(frozen=True)
class SixJ:
    """The symbol {a b x; c d y}; construction validates all four triads."""

    a: Spin
    b: Spin
    x: Spin
    c: Spin
    d: Spin
    y: Spin

    def __post_init__(self):
        bad = invalid_triads_twice(self.twice_tuple())
        if bad:
            raise InvalidTriads(
                f"invalid triads in {self}: "
                + ", ".join(str(t) for t in bad),
                triads=bad)

    @classmethod
    def from_twice(cls, t: tuple[int, int, int, int, int, int]) -> "SixJ":
        return cls(*(Spin(v) for v in t))

    def twice_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.a.twice, self.b.twice, self.x.twice,
                self.c.twice, self.d.twice, self.y.twice)

    def entries(self) -> tuple[Spin, Spin, Spin, Spin, Spin, Spin]:
        return (self.a, self.b, self.x, self.c, self.d, self.y)

    def __str__(self):
        return (f"{{{self.a} {self.b} {self.x}; "
                f"{self.c} {self.d} {self.y}}}")


def invalid_triads_twice(t) -> list[tuple[Fraction, ...]]:
    """Failing triads of a twice-value 6-tuple, as spin-value triples."""
    bad = []
    for i, j, k in TRIAD_SLOTS:
        if not triad_valid_twice(t[i], t[j], t[k]):
            bad.append((Fraction(t[i], 2), Fraction(t[j], 2), Fraction(t[k], 2)))
    return bad


def sixj_admissible_x(a: Spin, b: Spin, c: Spin, d: Spin) -> list[Spin]:
    """All x with (abx) and (cdx) valid, ascending; may be empty."""
    return [Spin(t) for t in admissible_x_twice(a.twice, b.twice,
                                                c.twice, d.twice)]


def admissible_x_twice(ta, tb, tc, td) -> range:
    """Twice-values of the admissible x range (empty on parity mismatch)."""
    if (ta + tb) % 2 != (tc + td) % 2:
        return range(0)
    lo = max(abs(ta - tb), abs(tc - td))
    hi = min(ta + tb, tc + td)
    return range(lo, hi + 2, 2) if lo <= hi else range(0)


@lru_cache(maxsize=None)
def _sixj_cached(t: tuple[int, ...]) -> tuple[int, int, int]:
    # the kernel's canonical (num, den, rad) triple of a valid symbol
    return kernel.sixj_raw(*t)


def sixj_value(s: SixJ) -> SqrtRational:
    """Exact value of a valid symbol."""
    return SqrtRational._from_triple(*_sixj_cached(s.twice_tuple()))


def sixj_value_twice(t: tuple[int, int, int, int, int, int]) -> SqrtRational:
    """Exact value from twice-values; validates triads."""
    bad = invalid_triads_twice(t)
    if bad:
        raise InvalidTriads(
            "invalid triads " + ", ".join(str(x) for x in bad), triads=bad)
    return SqrtRational._from_triple(*_sixj_cached(t))


ZERO_TRIPLE = (0, 1, 1)


def sixj_or_zero(a: Spin, b: Spin, x: Spin, c: Spin, d: Spin,
                 y: Spin) -> SqrtRational:
    """Value if all four triads hold, else exact zero (for sum formulas)."""
    return sixj_or_zero_twice((a.twice, b.twice, x.twice,
                               c.twice, d.twice, y.twice))


def sixj_or_zero_twice(t) -> SqrtRational:
    return SqrtRational._from_triple(*sixj_triple_or_zero_twice(t))


def sixj_triple_or_zero_twice(t) -> tuple[int, int, int]:
    """(num, den, rad) of the value if all four triads hold, else ZERO_TRIPLE.

    The triple is the exact (num/den)*sqrt(rad) in canonical form:
    gcd(num, den) == 1, den > 0, rad square-free (1 for zero).
    """
    for i, j, k in TRIAD_SLOTS:
        if not triad_valid_twice(t[i], t[j], t[k]):
            return ZERO_TRIPLE
    return _sixj_cached(tuple(t))


def sixj_dimension_weight(j: Spin) -> Fraction:
    """The weight 2j + 1 as an exact rational."""
    return Fraction(j.twice + 1)
