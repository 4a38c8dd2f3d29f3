"""Racah kernel: the exact single-sum 6j evaluation in pure Python.

Inputs are twice-values of a symbol {a b x; c d y} whose four triads
(abx), (bcy), (cdx), (ady) have already been validated by the caller.
The value is returned as (num, den, rad): the exact number
(num/den)*sqrt(rad) with gcd(num, den) == 1, den > 0 and rad a
square-free positive integer.

The z-sum is nested by term ratios (Horner's rule), so each step costs
a few multiplications by small integers rather than a rebuild of the
falling factorials of every term.
"""

from .exactnum import ZERO_TRIPLE, _reduce, factorial


def backend() -> str:
    """Name of the kernel implementation (always 'python')."""
    return "python"


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
    """sqrt of prod over triads of (g1)!(g2)!(g3)!/(perim+1)!, exactly.

    Each factor is 1/((perim+1) * perim!/(g1! g2! g3!)), one over an
    integer, so no prime has a positive exponent.  Returns (den, rad):
    the value sqrt(rad)/den, with rad a square-free integer.
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
