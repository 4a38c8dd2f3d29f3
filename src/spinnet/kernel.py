"""Racah kernel: the exact single-sum 6j evaluation in pure Python.

Inputs are twice-values of a symbol {a b x; c d y} whose four triads
(abx), (bcy), (cdx), (ady) have already been validated by the caller.
The value is returned as (num, den, rad): the exact number
(num/den)*sqrt(rad) with gcd(num, den) == 1, den > 0 and rad a
square-free positive integer.

The z-sum runs along the term ratios c_{z+1}/c_z, each a quotient of
two products of four small integers, so no term rebuilds a factorial.
Small symbols nest it by Horner's rule.  A symbol with at least
_SPLIT_STEPS ratio steps takes the large path instead: binary splitting
of the same sum (Haible & Papanikolaou, 1998), whose products of big
integers are balanced.

The four triangle coefficients contribute only a denominator and a
radicand.  Their product is one over an integer D, read off the packed
prime-exponent vectors of factorials that exactnum memoizes: sixteen
big-int additions give D's vector, decoded once, with no prime sieve
per call and no per-prime loop over the factorials.  Small symbols
multiply the z-sum's factorial prefactor out of the factorial memo; the
large path reads the prefactor's exponents off the same vectors, in the
same pass over primes as D's, builds its numerator and denominator
prime powers with balanced products, and reduces by one gcd.  Both
paths return the same triple.
"""

import sys
from array import array
from bisect import bisect_right
from math import gcd

from .exactnum import (ZERO_TRIPLE, _reduce, factorial, factorial_exponents,
                       factorial_primes)

# symbols with at least this many ratio steps zmax - zmin take the large
# path; below it the Horner loop and the factorial memo are faster
_SPLIT_STEPS = 100
# the binary splitting runs each block of at most this many steps as
# one plain loop
_BLOCK = 16
# The large path decodes the prefactor's exponent vector with this bias
# in every 16-bit field.  With S = zmax - zmin and m_k the seven
# factorial arguments of the denominator (each at most zmin, and
# summing to 4*zmax - 3*zmin), Legendre's formula gives p's exponent in
# (zmin+1)!/prod m_k! as (1 - 4*S - s(zmin+1) + sum s(m_k))/(p - 1),
# s the base-p digit sum, at most p - 1 per digit.  So the exponent
# lies above -4*S - 36 and at most 1 + 7*36 = 253 whenever zmin < 2**36
# (beyond that (zmin+1)! alone has over 2**41 bits, so no path can
# evaluate the symbol): every biased field lies in [0, 2**16) for
# S < _PACKED_STEPS.  Larger symbols keep the Horner path.
_BIAS = 0xFF00
_PACKED_STEPS = 16_000


def backend() -> str:
    """Name of the kernel implementation (always 'python')."""
    return "python"


def sixj_raw(ta, tb, tx, tc, td, ty):
    """Exact {a b x; c d y} from twice-values with valid triads."""
    # triad perimeters and the three four-spin sums, in integer units
    a1 = (ta + tb + tx) // 2
    a2 = (ta + td + ty) // 2
    a3 = (tc + tb + ty) // 2
    a4 = (tc + td + tx) // 2
    b1 = (ta + tb + tc + td) // 2
    b2 = (tb + tx + td + ty) // 2
    b3 = (tx + ta + ty + tc) // 2

    zmin = max(a1, a2, a3, a4)
    zmax = min(b1, b2, b3)
    if _SPLIT_STEPS <= zmax - zmin < _PACKED_STEPS:
        return _sixj_large(ta, tb, tx, tc, td, ty)

    # sum_z (-1)^z (z+1)! / (prod_i (z-a_i)! prod_j (b_j-z)!) nested from
    # the last term down: c_{z+1}/c_z = -P(z)/Q(z), and n/d is the bracket
    # 1 + (c_{z+1}/c_z)(1 + ...) opened at z.  d telescopes to
    # prod_i (zmax-a_i)!/(zmin-a_i)!, so the sum is
    # (-1)^zmin (zmin+1)! n / den with den the common denominator below.
    n = d = 1
    for z in range(zmax - 1, zmin - 1, -1):
        q = (z + 1 - a1) * (z + 1 - a2) * (z + 1 - a3) * (z + 1 - a4)
        n = q * d - (z + 2) * (b1 - z) * (b2 - z) * (b3 - z) * n
        d *= q
    if n == 0:
        return ZERO_TRIPLE
    num = factorial(zmin + 1) * (-n if zmin % 2 else n)
    den = (factorial(zmax - a1) * factorial(zmax - a2)
           * factorial(zmax - a3) * factorial(zmax - a4)
           * factorial(b1 - zmin) * factorial(b2 - zmin)
           * factorial(b3 - zmin))

    # sqrt of the product of the four squared triangle coefficients,
    # via prime exponents of the factorials involved
    den2, rad = _triangle_sqrt(
        ((ta, tb, tx), (ta, td, ty), (tc, tb, ty), (tc, td, tx)))
    return _reduce(num, den * den2, rad)


def _sixj_large(ta, tb, tx, tc, td, ty):
    """sixj_raw's triple by binary splitting and a packed prefactor.

    Exact for any valid symbol with zmax - zmin < _PACKED_STEPS;
    sixj_raw calls it from _SPLIT_STEPS steps up.
    """
    a = ((ta + tb + tx) // 2, (ta + td + ty) // 2,
         (tc + tb + ty) // 2, (tc + td + tx) // 2)
    b = ((ta + tb + tc + td) // 2, (tb + tx + td + ty) // 2,
         (tx + ta + ty + tc) // 2)
    zmin = max(a)
    zmax = min(b)
    n = _zsum(zmin, zmax, a, b)
    if n == 0:
        return ZERO_TRIPLE

    # the sum is (-1)^zmin F n with F = (zmin+1)!/(prod_i (zmax-a_i)!
    # prod_j (b_j-zmin)!), and the triangle coefficients give sqrt(1/D):
    # p's exponent in the value is f - ceil(e/2), f its exponent in F
    # and e in D, and p joins the radicand when e is odd
    top = zmin + 1
    primes = factorial_primes(top)
    nbytes = 2 * bisect_right(primes, top)
    fe = factorial_exponents
    f_vec = (fe(top) - fe(zmax - a[0]) - fe(zmax - a[1]) - fe(zmax - a[2])
             - fe(zmax - a[3]) - fe(b[0] - zmin) - fe(b[1] - zmin)
             - fe(b[2] - zmin)
             + int.from_bytes(_BIAS.to_bytes(2, sys.byteorder)
                              * (nbytes // 2), sys.byteorder))
    # D's vector as in _triangle_sqrt, whose bound keeps every field small
    d_vec = 0
    for t1, t2, t3 in ((ta, tb, tx), (ta, td, ty),
                       (tc, tb, ty), (tc, td, tx)):
        h = (t1 + t2 + t3) // 2
        d_vec += fe(h + 1) - fe(h - t1) - fe(h - t2) - fe(h - t3)
    ups, downs, rad = [], [], 1
    for p, f, e in zip(primes,
                       array("H", f_vec.to_bytes(nbytes, sys.byteorder)),
                       array("H", d_vec.to_bytes(nbytes, sys.byteorder))):
        k = f - _BIAS - ((e + 1) >> 1)
        if e & 1:
            rad *= p
        if k > 0:
            ups.append(p ** k)
        elif k < 0:
            downs.append(p ** -k)
    down = _balanced_product(downs)
    g = gcd(n, down)
    num = n // g * _balanced_product(ups)
    return (-num if zmin % 2 else num), down // g, rad


def _zsum(zmin, zmax, a, b):
    """The Horner loop's n: Q + T over the ratio steps z in [zmin, zmax).

    Step z has ratio -p(z)/q(z), p(z) = (z+2) prod_j (b_j-z) and
    q(z) = prod_i (z+1-a_i).  Over a run of steps, P = prod -p,
    Q = prod q and T/Q is the sum of the partial ratio products, so
    T/Q + 1 is the z-sum over its first term; two adjacent runs combine
    as (P1 P2, Q1 Q2, T1 Q2 + P1 T2).
    """
    a1, a2, a3, a4 = a
    b1, b2, b3 = b

    def split(lo, hi):
        if hi - lo <= _BLOCK:
            p = q = 1
            t = 0
            for z in range(lo, hi):
                p *= -(z + 2) * (b1 - z) * (b2 - z) * (b3 - z)
                s = (z + 1 - a1) * (z + 1 - a2) * (z + 1 - a3) * (z + 1 - a4)
                q *= s
                t = t * s + p
            return p, q, t
        mid = (lo + hi) // 2
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    # Q + T of the whole range, without its unused P
    mid = (zmin + zmax) // 2
    p1, q1, t1 = split(zmin, mid)
    _, q2, t2 = split(mid, zmax)
    return (q1 + t1) * q2 + p1 * t2


def _balanced_product(factors):
    """prod(factors), multiplied pairwise so that operands stay balanced."""
    while len(factors) > 1:
        paired = [x * y for x, y in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _triangle_sqrt(triads):
    """sqrt of prod over triads of (g1)!(g2)!(g3)!/(n+1)!, exactly.

    Each factor is 1/((n+1) * n!/(g1! g2! g3!)), n the perimeter, one
    over an integer D_t.  Returns (den, rad): the value sqrt(rad)/den,
    with rad the square-free part of D = prod D_t.
    """
    # the packed prime-exponent vector of D, from sixteen memo entries
    vec = 0
    top = 0
    for t1, t2, t3 in triads:
        n = (t1 + t2 + t3) // 2
        vec += (factorial_exponents(n + 1) - factorial_exponents(n - t1)
                - factorial_exponents(n - t2) - factorial_exponents(n - t3))
        if n >= top:
            top = n + 1
    # vec reads off exactly when each exponent in D is below 2**16.  By
    # Kummer's theorem p's exponent in n!/(g1! g2! g3!) is the number of
    # carries, at most two per base-p digit, in adding g1 + g2 + g3 = n;
    # with p's exponent in n + 1 that is at most 3*log2(n+1) + 2 per
    # triad, so at most 4*(3*log2(n+1) + 2) in D: under 800 even at
    # n = 2**64, far below 2**16.
    fields = array("H", vec.to_bytes(-(-vec.bit_length() // 16) * 2,
                                     sys.byteorder))
    den = rad = 1
    for p, e in zip(factorial_primes(top), fields):
        if e:
            if e & 1:
                rad *= p
            den *= p ** ((e + 1) >> 1)
    return den, rad
