"""Racah kernel: the exact single-sum 6j evaluation in pure Python.

Inputs are twice-values of a symbol {a b x; c d y} whose four triads
(abx), (bcy), (cdx), (ady) have already been validated by the caller.
The value is returned as (num, den, rad): the exact number
(num/den)*sqrt(rad) with gcd(num, den) == 1, den > 0 and rad a
square-free positive integer.  sixj_raw turns the entries into the
Regge array once: the four triad perimeters a_i and the three four-spin
sums b_j, on which the 144 symmetries act by permutation (Regge, Nuovo
Cimento 11 (1959) 116).  Everything below it reads only these seven.

The z-sum runs along the term ratios c_{z+1}/c_z, each a quotient of
two products of four small integers, so no term rebuilds a factorial.
Small symbols nest it by Horner's rule, and the first term c_zmin, a
product of six binomials, scales the nested bracket.  A symbol whose
largest triad perimeter zmin = max a_i is at least _LARGE_ZMIN takes
the large path instead: binary splitting of the same bracket (Haible &
Papanikolaou, 1998), whose products of big integers are balanced, with
no factorial ever multiplied out.  Each merge first cancels the factor
its left half's ratio numerator shares with its right half's ratio
denominator, as in the factor-reduced binary splitting of Cheng,
Hanrot, Thomé, Zima & Zimmermann (ISSAC 2007); the ratios are products
of runs of consecutive integers, so that factor holds most of their
bits.  zmin is invariant under the 144 symmetries, so a Regge orbit
takes one path, and every symbol with many ratio steps is large, since
zmax - zmin <= zmin/3.

The four triangle coefficients contribute only a denominator and a
radicand: their product is one over D = prod_i (a_i+1)!/prod_ij
(b_j-a_i)!, as the twelve entries b_j - a_i are the twelve triangle
arguments.  One function builds D's packed prime-exponent vector for
both paths from sixteen factorial vectors exactnum memoizes, with no
prime sieve per call.  Small symbols decode it prime by prime.  The
large path subtracts ceil(e/2) of each exponent e in it from c_zmin's
packed exponent vector: one signed vector of the value's prime
exponents, whose positive fields give the numerator's and whose
negative fields the denominator's prime powers, as in the
prime-factorized factorials of Johansson & Forssén (SIAM J. Sci.
Comput. 38, 2016); one gcd against the bracket's reduced n/d is left.
Each prime-power product is read off bit planes of its vector,
squaring from the high bit down, with no loop per prime.  Both paths
return the same triple.
"""

import sys
from array import array
from bisect import bisect_right
from itertools import compress
from math import comb, gcd, prod

from .exactnum import (ZERO_TRIPLE, _reduce, factorial_exponents,
                       factorial_primes)

# symbols whose largest triad perimeter zmin is at least this take the
# large path: the two paths cross between zmin 200 and 300, and no
# larger switch keeps every symbol of 100 ratio steps or more on the
# large path (zmax - zmin <= zmin/3)
_LARGE_ZMIN = 300
# the binary splitting runs each block of at most this many steps as
# one plain loop
_BLOCK = 16


def backend() -> str:
    """Name of the kernel implementation (always 'python')."""
    return "python"


def sixj_raw(ta, tb, tx, tc, td, ty):
    """Exact {a b x; c d y} from twice-values with valid triads."""
    # the Regge array: triad perimeters and the three four-spin sums, in
    # integer units
    a = ((ta + tb + tx) // 2, (ta + td + ty) // 2,
         (tc + tb + ty) // 2, (tc + td + tx) // 2)
    b = ((ta + tb + tc + td) // 2, (tb + tx + td + ty) // 2,
         (tx + ta + ty + tc) // 2)
    zmin = max(a)
    zmax = min(b)
    if zmin >= _LARGE_ZMIN:
        return _sixj_large(a, b)

    # sum_z (-1)^z c_z, c_z = (z+1)!/(prod_i (z-a_i)! prod_j (b_j-z)!),
    # nested from the last term down: c_{z+1}/c_z = -P(z)/Q(z), and n/d
    # is the bracket 1 + (c_{z+1}/c_z)(1 + ...) opened at z, so the sum
    # is (-1)^zmin c_zmin n / d
    a1, a2, a3, a4 = a
    b1, b2, b3 = b
    n = d = 1
    for z in range(zmax - 1, zmin - 1, -1):
        q = (z + 1 - a1) * (z + 1 - a2) * (z + 1 - a3) * (z + 1 - a4)
        n = q * d - (z + 2) * (b1 - z) * (b2 - z) * (b3 - z) * n
        d *= q
    if n == 0:
        return ZERO_TRIPLE
    # c_zmin is zmin + 1 times a multinomial, since its seven factorial
    # arguments sum to zmin (sum a_i = sum b_j): six binomials
    c, m = zmin + 1, zmin
    for k in (zmin - a1, zmin - a2, zmin - a3, zmin - a4, b1 - zmin,
              b2 - zmin):
        c *= comb(m, k)
        m -= k
    den2, rad = _triangle_sqrt(a, b)
    return _reduce(c * (-n if zmin % 2 else n), d * den2, rad)


def _sixj_large(a, b):
    """sixj_raw's triple, from its Regge array (a, b), by binary splitting.

    Exact for any valid symbol; sixj_raw calls it when zmin is at least
    _LARGE_ZMIN.
    """
    zmin = max(a)
    zmax = min(b)
    n, d = _zsum(zmin, zmax, a, b)
    if n == 0:
        return ZERO_TRIPLE

    # the sum is (-1)^zmin c_zmin n/d, c_zmin = (zmin+1)!/(prod_i
    # (zmin-a_i)! prod_j (b_j-zmin)!), and the triangle coefficients give
    # sqrt(1/D): p's exponent in the value is k = f - ceil(e/2), f its
    # exponent in c_zmin and e in D, and p joins the radicand when e is
    # odd.  The seven factorial arguments of c_zmin sum to zmin, so by
    # Legendre's formula f = (1 - s(zmin+1) + sum s(m))/(p - 1), s the
    # base-p digit sum: 0 <= f <= 7*36 while zmin < 2**36 (beyond that
    # (zmin+1)! alone has over 2**41 bits).  With ceil(e/2) < 2**9 (see
    # _triangle_vector), every field of k biased by 0x8000 lies in
    # [0, 2**16), and has bit 15 set exactly where k >= 0
    top = zmin + 1
    primes = factorial_primes(top)
    count = bisect_right(primes, top)
    # 1 in every field; a multiple of it fills every field alike
    ones = int.from_bytes((1).to_bytes(2, sys.byteorder) * count,
                          sys.byteorder)
    fe = factorial_exponents
    d_vec = _triangle_vector(a, b)
    net = (fe(top) - fe(zmin - a[0]) - fe(zmin - a[1]) - fe(zmin - a[2])
           - fe(zmin - a[3]) - fe(b[0] - zmin) - fe(b[1] - zmin)
           - fe(b[2] - zmin) + 0x8000 * ones
           - (((d_vec + ones) >> 1) & (0x7FFF * ones)))
    up = (net >> 15) & ones
    down = ones - up
    num = n * _prime_powers(primes, net & (0x7FFF * up), ones)
    den = d * _prime_powers(primes, 0x8000 * down - (net & (0xFFFF * down)),
                            ones)
    g = gcd(num, den)
    rad = _plane_product(primes, d_vec & ones)
    return (-num if zmin % 2 else num) // g, den // g, rad


def _prime_powers(primes, vec, ones):
    """prod p**v_p over the 16-bit fields v_p of the packed vector vec.

    Reads bit planes from the high bit down, acc = acc**2 times the
    product of the primes whose field has the bit set, so every prime
    power is built by squaring and no loop runs per prime.
    """
    acc = 1
    for bit in range(15, -1, -1):
        acc *= acc
        plane = (vec >> bit) & ones
        if plane:
            acc *= _plane_product(primes, plane)
    return acc


def _plane_product(primes, plane):
    """The product of the primes whose field in plane, a 0/1 vector, is 1."""
    # the fields up to the last 1 only
    return prod(compress(primes, array("H", plane.to_bytes(
        (plane.bit_length() + 15) >> 4 << 1, sys.byteorder))))


def _zsum(zmin, zmax, a, b):
    """(n, d), n/d the Horner loop's bracket over the steps in [zmin, zmax).

    Step z has ratio -p(z)/q(z), p(z) = (z+2) prod_j (b_j-z) and
    q(z) = prod_i (z+1-a_i).  A run of steps is (P, Q, T) with P/Q its
    ratio product and T/Q the sum of its partial ratio products, so
    1 + T/Q is the z-sum over its first term.  Two adjacent runs combine
    as (P1 P2, Q1 Q2, T1 Q2 + P1 T2), with g = gcd(P1, Q2) first
    divided out of P1 and Q2, as in factor-reduced binary splitting
    (Cheng, Hanrot, Thomé, Zima & Zimmermann, ISSAC 2007): p and q are
    products of runs of consecutive integers, so g holds most of the
    bits of both.  d divides prod_i (zmax-a_i)!/(zmin-a_i)!.
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
        g = gcd(p1, q2)
        p1 //= g
        q2 //= g
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(zmin, zmax)
    return q + t, q


def _triangle_vector(a, b):
    """The packed prime-exponent vector of D, the triangle denominators.

    D = prod_i (a_i+1)!/prod_ij (b_j-a_i)!: triad i's coefficient is
    1/((a_i+1) * a_i!/(g1! g2! g3!)), one over an integer, and its three
    g are the b_j - a_i.  Sixteen memo entries give the vector.  Each
    field reads off exactly, since each exponent in D is below 2**16: by
    Kummer's theorem p's exponent in a_i!/(g1! g2! g3!) is the number of
    carries, at most two per base-p digit, in adding g1 + g2 + g3 = a_i;
    with p's exponent in a_i + 1 that is at most 3*log2(a_i+1) + 2 per
    triad, so at most 4*(3*log2(a_i+1) + 2) in D: under 800 even at
    a_i = 2**64.
    """
    fe = factorial_exponents
    a1, a2, a3, a4 = a
    vec = fe(a1 + 1) + fe(a2 + 1) + fe(a3 + 1) + fe(a4 + 1)
    for bj in b:
        vec -= fe(bj - a1) + fe(bj - a2) + fe(bj - a3) + fe(bj - a4)
    return vec


def _triangle_sqrt(a, b):
    """(den, rad) with sqrt(1/D) = sqrt(rad)/den, rad square-free."""
    vec = _triangle_vector(a, b)
    fields = array("H", vec.to_bytes(-(-vec.bit_length() // 16) * 2,
                                     sys.byteorder))
    den = rad = 1
    for p, e in zip(factorial_primes(max(a) + 1), fields):
        if e:
            if e & 1:
                rad *= p
            den *= p ** ((e + 1) >> 1)
    return den, rad
