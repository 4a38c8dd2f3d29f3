"""Triads and exact Wigner 6j symbols.

A 6j symbol {a b x; c d y} couples the four triads (abx), (bcy), (cdx),
(ady).  Values are computed by the exact single-sum evaluation over
arbitrary-precision integers (see spinnet.kernel); an out-of-triad
symbol raises InvalidTriads rather than returning 0, so enumeration bugs
in identity verifiers cannot hide behind silent zeros.

The value cache holds the kernel's own (num, den, rad) triple, in two
levels.  _sixj_cached is keyed on the exact twice tuple, so a repeated
symbol costs one tuple hash.  On a miss it looks the symbol up by its
Regge orbit: the sorted four triad sums (alpha) and three opposite-pair
sums (beta) of the Regge array.  The 144 symmetries act on these as
S4 x S3, so the sorted (alpha, beta) names the orbit exactly (Regge,
Nuovo Cimento 11 (1959) 116), and _sixj_orbit runs the kernel once per
orbit, on a representative rebuilt from the key.  Both levels are
module-level functools caches, so cache_clear empties each of them.

The identity sums read values straight from _sixj_cached, because every
symbol they look up is admissible by construction; the functions
returning a value wrap it in a SqrtRational without factoring again.
SixJ is a frozen record (exactnum._frozen_record), so a first value
loads errors, exactnum, kernel and wigner and no dataclasses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import kernel
from .errors import InvalidSpin, InvalidTriads
from .exactnum import Spin, SqrtRational, _frozen_record

__all__ = [
    "SixJ",
    "admissible_x_twice",
    "triad_valid_twice",
    "sixj_value",
    "sixj_value_twice",
]


def triad_valid_twice(t1: int, t2: int, t3: int) -> bool:
    """Triangle inequality plus integer perimeter, on twice-values."""
    return (
        (t1 + t2 + t3) % 2 == 0
        and abs(t1 - t2) <= t3 <= t1 + t2
    )


# slots of (a, b, x, c, d, y) forming the four triads of the symbol
TRIAD_SLOTS = ((0, 1, 2), (1, 3, 5), (3, 4, 2), (0, 4, 5))


@_frozen_record
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
            raise _triads_error(bad, f" in {self}")

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


def _triads_error(bad, where="") -> InvalidTriads:
    """InvalidTriads listing each failing triad as (j1, j2, j3)."""
    return InvalidTriads(
        f"invalid triads{where}: " + ", ".join(
            "(" + ", ".join(map(str, triad)) + ")" for triad in bad),
        triads=bad)


def admissible_x_twice(*twice) -> range:
    """Twice-values x, ascending, with every (u v x) a triad.

    twice lists the (u, v) pairs as consecutive twice-values, u1, v1,
    u2, v2, ...; the range is empty when the pairs' parities clash or
    their intervals miss each other.  Raises TypeError unless twice
    holds at least one pair and no unpaired value.
    """
    if not twice or len(twice) % 2:
        raise TypeError("admissible_x_twice takes (u, v) pairs of "
                        f"twice-values, got {len(twice)} arguments")
    lo, hi = 0, twice[0] + twice[1]
    pairs = iter(twice)
    for u, v in zip(pairs, pairs):
        s, d = u + v, abs(u - v)
        if (s - hi) % 2:
            return range(0)
        if s < hi:
            hi = s
        if d > lo:
            lo = d
    # one parity throughout, so lo > hi means lo >= hi + 2: empty
    return range(lo, hi + 2, 2)


@lru_cache(maxsize=None)
def _sixj_cached(t: tuple[int, ...]) -> tuple[int, int, int]:
    # the kernel's (num, den, rad) triple of a valid symbol, canonical:
    # gcd(num, den) == 1, den > 0, rad square-free (1 for zero).  A miss
    # sorts the doubled triad sums and pair sums by compare-exchange
    # networks, which build no list, into the orbit key; the partial sums
    # ab, cd and xy are shared because the miss path is the whole of a
    # cold item's overhead.
    ta, tb, tx, tc, td, ty = t
    ab = ta + tb
    cd = tc + td
    xy = tx + ty
    a1, a2, a3, a4 = ab + tx, ta + td + ty, tc + tb + ty, cd + tx
    b1, b2, b3 = ab + cd, tb + td + xy, ta + tc + xy
    if a1 > a2:
        a1, a2 = a2, a1
    if a3 > a4:
        a3, a4 = a4, a3
    if a1 > a3:
        a1, a3 = a3, a1
    if a2 > a4:
        a2, a4 = a4, a2
    if a2 > a3:
        a2, a3 = a3, a2
    if b1 > b2:
        b1, b2 = b2, b1
    if b2 > b3:
        b2, b3 = b3, b2
    if b1 > b2:
        b1, b2 = b2, b1
    return _sixj_orbit((a1, a2, a3, a4, b1, b2, b3))


@lru_cache(maxsize=None)
def _sixj_orbit(key: tuple[int, ...]) -> tuple[int, int, int]:
    # key = (A1..A4, B1..B3), both ascending: twice the Regge array
    # (a, b) that sixj_raw computes once and all of the kernel below it
    # reads.  The representative inverts those sums, so the kernel sees
    # the key's a and b up to order, and takes the path of every member.
    a1, a2, a3, a4, b1, b2, b3 = key
    b12 = b1 + b2
    b13 = b1 + b3
    b23 = b2 + b3
    return kernel.sixj_raw((b13 - a3 - a4) >> 1, (b12 - a2 - a4) >> 1,
                           (b23 - a2 - a3) >> 1, (b13 - a1 - a2) >> 1,
                           (b12 - a1 - a3) >> 1, (b23 - a1 - a4) >> 1)


def sixj_value(s: SixJ) -> SqrtRational:
    """Exact value of a valid symbol."""
    return SqrtRational._from_triple(*_sixj_cached(s.twice_tuple()))


def sixj_value_twice(t: tuple[int, int, int, int, int, int]) -> SqrtRational:
    """Exact value from six twice-values in any sequence; validates them.

    Raises InvalidSpin unless t holds exactly six non-negative ints (bools
    excluded), and InvalidTriads for a symbol outside the triads.
    """
    try:
        t = tuple(t)
    except TypeError:
        raise InvalidSpin(
            f"a symbol needs six twice-values, got {t!r}") from None
    if len(t) != 6 or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0
            for v in t):
        raise InvalidSpin(
            f"a symbol needs six non-negative integer twice-values, got {t!r}")
    bad = invalid_triads_twice(t)
    if bad:
        raise _triads_error(bad)
    return SqrtRational._from_triple(*_sixj_cached(t))

