"""Independent slow oracles used only by the test suite.

The production path evaluates 6j symbols through the Racah single sum;
here the same values are rebuilt from first principles by contracting
Wigner 3j symbols over all magnetic quantum numbers.  Everything is
exact (SqrtRational all the way down), and nothing below imports the
production kernel.  sixj_direct_sum keeps the kernel's former
term-by-term single sum as a reference for the nested (Horner) one, and
the *_sides_split functions keep the former identity sums, which did
every product and sum on SqrtRational values and renormalised each
result through the public constructor (square_free_split), as a
reference for the integer-triple sums of spinnet.identities.
legendre_triangle_sqrt keeps the kernel's former triangle coefficients,
a fresh prime sieve and Legendre's formula per call, as a reference for
the packed factorial exponent vectors of spinnet.exactnum.
horner_sixj_raw is the kernel's former evaluation for every size, the
Horner z-sum and the multiplied-out factorial prefactor, with the
triangle coefficients by Legendre's formula: the exact reference for
the kernel's large path (binary splitting and a packed prefactor),
whose triples must equal it.
sixj_or_zero_twice, the former library helper returning exact zero off
the triads, serves the *_sides_split sums.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

from spinnet.exactnum import SqrtRational, factorial, phase_from_twice
from spinnet.errors import IncompatibleRadicands, PhaseParityError
from spinnet.wigner import (invalid_triads_twice, sixj_value_twice,
                            triad_valid_twice)

__all__ = ["threej", "sixj_via_threej", "sixj_one_zero", "sixj_direct_sum",
           "horner_sixj_raw", "sixj_or_zero_twice",
           "split_mul", "split_add", "orthogonality_sides_split",
           "pentagon_sides_split", "pachner_14_sides_split",
           "legendre_triangle_sqrt", "legendre_factorial_exponents"]


def _triangle_sq(tj1, tj2, tj3) -> Fraction:
    # squared triangle coefficient of a valid triad
    return Fraction(
        factorial((tj1 + tj2 - tj3) // 2)
        * factorial((tj1 - tj2 + tj3) // 2)
        * factorial((-tj1 + tj2 + tj3) // 2),
        factorial((tj1 + tj2 + tj3) // 2 + 1))


def threej(tj1, tj2, tj3, tm1, tm2, tm3) -> SqrtRational:
    """Exact Wigner 3j symbol from twice-values of spins and projections."""
    if tm1 + tm2 + tm3 != 0:
        return SqrtRational.zero()
    if not triad_valid_twice(tj1, tj2, tj3):
        return SqrtRational.zero()
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj + tm) % 2:
            return SqrtRational.zero()

    tmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    tmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if tmin > tmax:
        return SqrtRational.zero()
    total = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (factorial(t)
               * factorial((tj1 + tj2 - tj3) // 2 - t)
               * factorial((tj1 - tm1) // 2 - t)
               * factorial((tj2 + tm2) // 2 - t)
               * factorial((tj3 - tj2 + tm1) // 2 + t)
               * factorial((tj3 - tj1 - tm2) // 2 + t))
        total += Fraction(-1 if t % 2 else 1, den)
    if total == 0:
        return SqrtRational.zero()

    rad = _triangle_sq(tj1, tj2, tj3)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        rad *= factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
    sign = phase_from_twice(tj1 - tj2 - tm3)
    return SqrtRational(sign * total, 1) * SqrtRational.sqrt(rad)


def _projections(tj):
    return range(-tj, tj + 1, 2)


def sixj_via_threej(t6) -> SqrtRational:
    """{j1 j2 j3; j4 j5 j6} by contracting four 3j symbols.

    Sums over all magnetic quantum numbers:

        sum (-1)^{sum_k (j_k - m_k)}
            (j1 j2 j3; -m1 -m2 -m3) (j1 j5 j6; m1 -m5 m6)
            (j4 j2 j6; m4 m2 -m6)   (j4 j5 j3; -m4 m5 m3)

    The phase runs over all six pairs; as m1+m2+m3 = 0 the first triad
    contributes the constant (-1)^(j1+j2+j3).

    Independent of the single-sum production path.
    """
    tj1, tj2, tj3, tj4, tj5, tj6 = t6
    total = SqrtRational.zero()
    for tm1 in _projections(tj1):
        for tm2 in _projections(tj2):
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            first = threej(tj1, tj2, tj3, -tm1, -tm2, -tm3)
            if first.is_zero():
                continue
            for tm6 in _projections(tj6):
                tm5 = tm1 + tm6
                tm4 = tm6 - tm2
                if abs(tm5) > tj5 or abs(tm4) > tj4:
                    continue
                term = (first
                        * threej(tj1, tj5, tj6, tm1, -tm5, tm6)
                        * threej(tj4, tj2, tj6, tm4, tm2, -tm6)
                        * threej(tj4, tj5, tj3, -tm4, tm5, tm3))
                if term.is_zero():
                    continue
                sign = phase_from_twice(
                    (tj1 + tj2 + tj3)
                    + (tj4 - tm4) + (tj5 - tm5) + (tj6 - tm6))
                total = total + term * sign
    return total


def sixj_one_zero(ta, tb, tc) -> SqrtRational:
    """Closed form for {a b c; 0 c b}: (-1)^(a+b+c)/sqrt((2b+1)(2c+1))."""
    sign = phase_from_twice(ta + tb + tc)
    return SqrtRational(sign) * SqrtRational.sqrt(
        Fraction(1, (tb + 1) * (tc + 1)))


def _falling(top, bottom):
    # top! / bottom! for top >= bottom >= 0
    r = 1
    for v in range(bottom + 1, top + 1):
        r *= v
    return r


def sixj_direct_sum(ta, tb, tx, tc, td, ty) -> tuple[Fraction, Fraction]:
    """{a b x; c d y} = s*sqrt(tri) from the Racah single sum, term by term.

    s is the alternating z-sum, each term rebuilt from falling factorials
    over the common denominator; tri is the unreduced product of the four
    squared triangle coefficients.  Triads must be valid.
    """
    a = ((ta + tb + tx) // 2, (ta + td + ty) // 2,
         (tc + tb + ty) // 2, (tc + td + tx) // 2)
    b = ((ta + tb + tc + td) // 2, (tb + tx + td + ty) // 2,
         (tx + ta + ty + tc) // 2)
    zmin, zmax = max(a), min(b)
    num = 0
    for z in range(zmin, zmax + 1):
        t = factorial(z + 1)
        for ai in a:
            t *= _falling(zmax - ai, z - ai)
        for bj in b:
            t *= _falling(bj - zmin, bj - z)
        num = num - t if z % 2 else num + t
    den = 1
    for ai in a:
        den *= factorial(zmax - ai)
    for bj in b:
        den *= factorial(bj - zmin)
    tri = (_triangle_sq(ta, tb, tx) * _triangle_sq(ta, td, ty)
           * _triangle_sq(tc, tb, ty) * _triangle_sq(tc, td, tx))
    return Fraction(num, den), tri


def horner_sixj_raw(ta, tb, tx, tc, td, ty):
    """The canonical (num, den, rad) triple of a valid symbol, by Horner.

    The z-sum is nested from the last term down, and its factorial
    prefactor is multiplied out and reduced by one gcd.
    """
    a1 = (ta + tb + tx) // 2
    a2 = (ta + td + ty) // 2
    a3 = (tc + tb + ty) // 2
    a4 = (tc + td + tx) // 2
    b1 = (ta + tb + tc + td) // 2
    b2 = (tb + tx + td + ty) // 2
    b3 = (tx + ta + ty + tc) // 2
    zmin = max(a1, a2, a3, a4)
    zmax = min(b1, b2, b3)
    n = d = 1
    for z in range(zmax - 1, zmin - 1, -1):
        q = (z + 1 - a1) * (z + 1 - a2) * (z + 1 - a3) * (z + 1 - a4)
        n = q * d - (z + 2) * (b1 - z) * (b2 - z) * (b3 - z) * n
        d *= q
    if n == 0:
        return 0, 1, 1
    num = factorial(zmin + 1) * (-n if zmin % 2 else n)
    den = (factorial(zmax - a1) * factorial(zmax - a2)
           * factorial(zmax - a3) * factorial(zmax - a4)
           * factorial(b1 - zmin) * factorial(b2 - zmin)
           * factorial(b3 - zmin))
    # sqrt(1/D), D the product of (n+1)!/(g1! g2! g3!) over the triads
    exponents = Counter()
    for triad in ((ta, tb, tx), (ta, td, ty), (tc, tb, ty), (tc, td, tx)):
        exponents.update(_triad_legendre(*triad))
    rad = 1
    for p, e in exponents.items():
        if e % 2:
            rad *= p
        den *= p ** ((e + 1) // 2)
    g = gcd(num, den)
    return num // g, den // g, rad


@lru_cache(maxsize=4096)
def _triad_legendre(t1, t2, t3):
    # {p: exponent of p in (n+1)!/(g1! g2! g3!)}, n the perimeter
    n = (t1 + t2 + t3) // 2
    out = {}
    for p in _primes_upto(n + 1):
        e = (_legendre(n + 1, p) - _legendre(n - t1, p)
             - _legendre(n - t2, p) - _legendre(n - t3, p))
        if e:
            out[p] = e
    return out


def sixj_or_zero_twice(t) -> SqrtRational:
    """Value if all four triads hold, else exact zero."""
    if invalid_triads_twice(t):
        return SqrtRational.zero()
    return sixj_value_twice(t)


def split_mul(u: SqrtRational, v: SqrtRational) -> SqrtRational:
    """u * v renormalised by factoring the product of the radicands."""
    return SqrtRational(u.coeff * v.coeff, u.radicand * v.radicand)


def split_add(u: SqrtRational, v: SqrtRational) -> SqrtRational:
    """u + v as the former SqrtRational.__add__ computed it."""
    if u.coeff == 0:
        return v
    if v.coeff == 0:
        return u
    if u.radicand != v.radicand:
        raise IncompatibleRadicands(
            f"cannot add sqrt({u.radicand}) and sqrt({v.radicand}) terms")
    return SqrtRational(u.coeff + v.coeff, u.radicand)


def _x_twices(*pairs):
    # twice-values x with (u v x) a triad for every pair (u, v)
    hi = min(u + v for u, v in pairs)
    return [tx for tx in range(hi + 1)
            if all(triad_valid_twice(u, v, tx) for u, v in pairs)]


def orthogonality_sides_split(ta, tb, tc, td, ty, typ):
    """(lhs, rhs) of the completeness relation on SqrtRational values."""
    lhs = SqrtRational.zero()
    for tx in _x_twices((ta, tb), (tc, td)):
        term = split_mul(sixj_or_zero_twice((ta, tb, tx, tc, td, ty)),
                         sixj_or_zero_twice((tc, td, tx, ta, tb, typ)))
        lhs = split_add(lhs, split_mul(term, SqrtRational(tx + 1)))
    if (ty == typ and triad_valid_twice(ta, td, ty)
            and triad_valid_twice(tb, tc, ty)):
        rhs = SqrtRational(Fraction(1, typ + 1))
    else:
        rhs = SqrtRational.zero()
    return lhs, rhs


def pentagon_sides_split(t9, literal_form=False):
    """(lhs, rhs) of the pentagon identity on SqrtRational values.

    t9 holds the twice-values of (a, b, c, d, e, f, p, q, r).
    """
    ta, tb, tc, td, te, tf, tp, tq, tr = t9
    phi = sum(t9)
    lhs = SqrtRational.zero()
    for tx in _x_twices((ta, tb), (tc, td), (te, tf)):
        if (phi + tx) % 2:
            raise PhaseParityError(f"phi + x is half-integral at x={tx}/2")
        weight = phase_from_twice(phi + tx)
        if not literal_form:
            weight *= tx + 1
        term = split_mul(
            split_mul(sixj_or_zero_twice((ta, tb, tx, tc, td, tp)),
                      sixj_or_zero_twice((tc, td, tx, te, tf, tq))),
            sixj_or_zero_twice((te, tf, tx, tb, ta, tr)))
        lhs = split_add(lhs, split_mul(term, SqrtRational(weight)))
    rhs = split_mul(sixj_or_zero_twice((tp, tq, tr, tf, tb, tc)),
                    sixj_or_zero_twice((tp, tq, tr, te, ta, td)))
    return lhs, rhs


def pachner_14_sides_split(t9, tpp):
    """(lhs, rhs) of the 1-4 contraction on SqrtRational values."""
    ta, tb, tc, td, te, tf, tp, tq, tr = t9
    ortho, delta = orthogonality_sides_split(ta, tb, tc, td, tp, tpp)
    lhs = split_mul(ortho, pentagon_sides_split(t9)[0])
    rhs = split_mul(
        split_mul(sixj_or_zero_twice((tpp, tq, tr, tf, tb, tc)),
                  sixj_or_zero_twice((tpp, tq, tr, te, ta, td))),
        delta)
    return lhs, rhs


def _legendre(n, p):
    # exponent of prime p in n!
    e = 0
    while n:
        n //= p
        e += n
    return e


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            step = bytearray(len(range(p * p, n + 1, p)))
            sieve[p * p:: p] = step
    return [p for p in range(2, n + 1) if sieve[p]]


def legendre_triangle_sqrt(triads):
    """(den, rad) of the kernel's product of four triangle coefficients.

    sqrt of prod over triads of (g1)!(g2)!(g3)!/(perim+1)! is
    sqrt(rad)/den, with rad square-free; every prime exponent comes from
    Legendre's formula over a fresh sieve.
    """
    args_plus = []
    args_minus = []
    for t1, t2, t3 in triads:
        args_plus.append((t1 + t2 - t3) // 2)
        args_plus.append((t1 - t2 + t3) // 2)
        args_plus.append((-t1 + t2 + t3) // 2)
        args_minus.append((t1 + t2 + t3) // 2 + 1)
    den, rad = 1, 1
    for p in _primes_upto(max(args_minus)):
        e = 0
        for n in args_plus:
            e += _legendre(n, p)
        for n in args_minus:
            e -= _legendre(n, p)
        half, odd = divmod(e, 2)
        if odd:
            rad *= p
        if half:
            den *= p ** (-half)
    return den, rad


def legendre_factorial_exponents(n, bits=16):
    """The prime-exponent vector of n!, packed field by field, by Legendre."""
    return sum(_legendre(n, p) << (i * bits)
               for i, p in enumerate(_primes_upto(max(n, 1))))
