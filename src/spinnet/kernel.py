"""Racah kernel: the exact single-sum 6j evaluation in pure Python.

Inputs are twice-values of a symbol {a b x; c d y} whose four triads
(abx), (bcy), (cdx), (ady) have already been validated by the caller.
The value is returned as (num, den, rad): the exact number
(num/den)*sqrt(rad) with gcd(num, den) == 1, den > 0 and rad a
square-free positive integer.

The z-sum is nested by term ratios (Horner's rule), so each step costs
a few multiplications by small integers rather than a rebuild of the
falling factorials of every term.

The four triangle coefficients contribute only a denominator and a
radicand.  Their product is one over an integer D, read off the packed
prime-exponent vectors of factorials that exactnum memoizes: sixteen
big-int additions give D's vector, decoded once, with no prime sieve
per call and no per-prime loop over the factorials.
"""

import sys
from array import array

from .exactnum import (ZERO_TRIPLE, _reduce, factorial, factorial_exponents,
                       factorial_primes)


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
