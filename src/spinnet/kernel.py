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
the large path instead: binary splitting of the same sum (Haible &
Papanikolaou, 1998), whose products of big integers are balanced, with
no factorial ever multiplied out.  zmin is invariant under the 144
symmetries, so a Regge orbit takes one path, and every symbol with
many ratio steps is large, since zmax - zmin <= zmin/3.

The four triangle coefficients contribute only a denominator and a
radicand: their product is one over D = prod_i (a_i+1)!/prod_ij
(b_j-a_i)!, as the twelve entries b_j - a_i are the twelve triangle
arguments.  One function builds D's packed prime-exponent vector for
both paths from sixteen factorial vectors exactnum memoizes, with no
prime sieve per call.  Small symbols decode it prime by prime.  The
large path keeps the z-sum's prefactor as a packed exponent vector too,
and splits it by masks into its numerator's and its denominator's
exponents, as in the prime-factorized factorials of Johansson & Forssén
(SIAM J. Sci. Comput. 38, 2016).  Every term of the z-sum is an
integer, so the prefactor's denominator divides the sum exactly; what
is left against D is a small exponent vector, reduced by one small gcd.
Each prime-power product is read off bit planes of its vector, squaring
from the high bit down, with no loop per prime.  Both paths return the
same triple.
"""

import sys
from array import array
from bisect import bisect_right
from itertools import compress
from math import comb, gcd, prod

from .exactnum import (ZERO_TRIPLE, _reduce, factorial_exponents,
                       factorial_primes)

# symbols whose largest triad perimeter zmin is at least this take the
# large path: the two paths cross between zmin 200 and 400, and no
# larger switch keeps every symbol of 100 ratio steps or more on the
# large path (zmax - zmin <= zmin/3)
_LARGE_ZMIN = 300
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
    # the Regge array: triad perimeters and the three four-spin sums, in
    # integer units
    a = ((ta + tb + tx) // 2, (ta + td + ty) // 2,
         (tc + tb + ty) // 2, (tc + td + tx) // 2)
    b = ((ta + tb + tc + td) // 2, (tb + tx + td + ty) // 2,
         (tx + ta + ty + tc) // 2)
    zmin = max(a)
    zmax = min(b)
    if zmin >= _LARGE_ZMIN and zmax - zmin < _PACKED_STEPS:
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

    The prefactor stays a packed exponent vector.  Exact for any valid
    symbol with zmax - zmin < _PACKED_STEPS; sixj_raw calls it when zmin
    is at least _LARGE_ZMIN.
    """
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
    count = bisect_right(primes, top)
    # 1 in every field; a multiple of it fills every field alike
    ones = int.from_bytes((1).to_bytes(2, sys.byteorder) * count,
                          sys.byteorder)
    fe = factorial_exponents
    f_vec = (fe(top) - fe(zmax - a[0]) - fe(zmax - a[1]) - fe(zmax - a[2])
             - fe(zmax - a[3]) - fe(b[0] - zmin) - fe(b[1] - zmin)
             - fe(b[2] - zmin) + _BIAS * ones)
    # f <= 253, so a field holds f >= 0 exactly when its top byte is 0xFF,
    # and then its low byte is f; fneg holds -f where f < 0
    pos = ((((f_vec >> 8) & (0xFF * ones)) + ones) >> 8) & ones
    neg = ones - pos
    fpos = f_vec & (0xFF * pos)
    fneg = _BIAS * neg - (f_vec & (0xFFFF * neg))
    d_vec = _triangle_vector(a, b)
    # n F = sum_z c_z with every term c_z = (z+1)!/(prod_i (z-a_i)!
    # prod_j (b_j-z)!) an integer, its seven arguments summing to z; F's
    # denominator A = prod p^fneg is prime to its numerator, so A divides
    # n, and the value is (-1)^zmin (n/A) sqrt(rad) over prod p^k with
    # k = ceil(e/2) - fpos, both terms below 2**9 by the bounds of
    # _triangle_vector and _BIAS.  Biased by 0x8000, a field of k has bit
    # 15 set exactly where k >= 0: those fields give the denominator, the
    # others the numerator's factor prod p^-k.  rad is the primes with e
    # odd
    quotient = n // _prime_powers(primes, fneg, ones)
    net = ((((d_vec + ones) >> 1) & (0x7FFF * ones)) + 0x8000 * ones
           - fpos)
    down = (net >> 15) & ones
    up = ones - down
    den = _prime_powers(primes, net & (0x7FFF * down), ones)
    g = gcd(quotient, den)
    num = quotient // g * _prime_powers(
        primes, 0x8000 * up - (net & (0xFFFF * up)), ones)
    rad = _plane_product(primes, d_vec & ones)
    return (-num if zmin % 2 else num), den // g, rad


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
