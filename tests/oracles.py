"""Slow oracles and old-path references used only by the test suite.

Everything here is exact.  The functions fall into three tiers, by how
much of the production path they share.

Independent oracles read no 6j value, no kernel code and no value
cache; they use only SqrtRational, phase_from_twice and
triad_valid_twice of the library.  threej and sixj_via_threej rebuild
6j symbols from first principles by contracting Wigner 3j symbols over
all magnetic quantum numbers, and sixj_one_zero is the closed form of
{a b c; 0 c b}.  The former z-sums share the kernel's Racah single-sum
formula, but none of its code: sixj_direct_sum keeps the term-by-term
sum as a reference for the nested (Horner) one; horner_sixj_raw is the
kernel's former evaluation for every size, the Horner z-sum and the
multiplied-out factorial prefactor, with the triangle coefficients by
Legendre's formula, the exact reference for the kernel's large path
(factor-reduced binary splitting and one signed exponent vector), whose
triples must equal it; unreduced_zsum is the large path's former z-sum,
binary splitting with no factor cancelled at a merge, so the Horner
loop's bracket is its n over the full Q = prod_i (zmax-a_i)!/(zmin-a_i)!,
the reference for the reduced (n, d) of spinnet.kernel._zsum.
legendre_triangle_sqrt (the kernel's former triangle coefficients, a
fresh prime sieve and Legendre's formula per call),
legendre_factorial_exponents and legendre_prefactor_denominator check
the packed factorial exponent vectors of spinnet.exactnum the same way.

Old-path references keep a former production path, to be compared with
the one that replaced it; they share the rest of the library.  Those
that sum 6j values read them through spinnet.wigner, that is from the
production kernel and its value cache: sixj_or_zero_twice, the former
library helper returning exact zero off the triads; the *_sides_split
sums (orthogonality, pentagon and 1-4), which did every product and sum
on SqrtRational values and renormalised each result through the public
constructor (square_free_split), as the reference for the integer-triple
sums of spinnet.identities; and be_sides_by_admissible_range, the former
pentagon x-sum on triples, x drawn from wigner.admissible_x_twice over
the three pairs and the phase read at each x, as the reference for the
inline range and flipped sign of spinnet.identities._be_sides.  The
others read no value.  gcd_prefactor_triple is the large path's former
prefactor step: from the unreduced n it reads the prefactor's and the
triangle part's exponents off exactnum's packed factorial vectors one
prime at a time, builds the numerator and denominator prime powers
with balanced products and reduces by gcd(n, denominator), as the
reference for the signed exponent vector and bit planes of
spinnet.kernel._sixj_large.  label_desargues_by_triads is the former
label_desargues (a dict of the ten spins, then one triad_valid_twice
call per point triad), the reference for the slot-table check of
spinnet.labeling.  be_fixed_triads_by_slot_table is the former
BEInstance check, one triad_valid_twice call per x-free triad over a
table of slot indices, giving the failing triads and InvalidInstance's
message, the reference for the one inline test of
spinnet.identities.BEInstance.  be_grid_by_triad_calls is the former
iter_be_grid (nested loops over the capped coupling ranges, with r drawn
from (ear) and kept when triad_valid_twice passes (fbr) and (pqr)), the
reference for the table-driven ranges of spinnet.identities.iter_be_grid.

Identity checkers test kernel values at spins the 3j contraction cannot
reach.  racah_sum reads the Racah z-sum S back from a value and the
exact triangle coefficients, and schulten_gordon_residual requires three
values along an x-column to satisfy the Schulten-Gordon three-term
recurrence, which relates three different symmetry orbits and owes
nothing to the single sum.
"""

import sys
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt

from spinnet.exactnum import (SqrtRational, _product, _reduce, _sum,
                              factorial_exponents, factorial_primes,
                              phase_from_twice)
from spinnet.errors import (IncompatibleRadicands, MissingSymbol,
                            PhaseParityError, TriadViolation)
from spinnet.labeling import (DESARGUES, LINE_SYMBOLS, POINT_TRIADS, SYMBOLS,
                              DesarguesSpinLabeling)
from spinnet.identities import BE_SYMBOL_NAMES, X_FREE_TRIADS
from spinnet.wigner import (_sixj_cached, admissible_x_twice,
                            invalid_triads_twice, sixj_value_twice,
                            triad_valid_twice)

__all__ = ["threej", "sixj_via_threej", "sixj_one_zero", "sixj_direct_sum",
           "horner_sixj_raw", "unreduced_zsum", "gcd_prefactor_triple",
           "legendre_prefactor_denominator", "sixj_or_zero_twice",
           "split_mul", "split_add", "orthogonality_sides_split",
           "pentagon_sides_split", "pachner_14_sides_split",
           "legendre_triangle_sqrt", "legendre_factorial_exponents",
           "label_desargues_by_triads", "be_fixed_triads_by_slot_table",
           "be_sides_by_admissible_range", "be_grid_by_triad_calls",
           "racah_sum",
           "schulten_gordon_residual"]


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
        return SqrtRational(0)
    if not triad_valid_twice(tj1, tj2, tj3):
        return SqrtRational(0)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj + tm) % 2:
            return SqrtRational(0)

    tmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    tmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if tmin > tmax:
        return SqrtRational(0)
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
        return SqrtRational(0)

    rad = _triangle_sq(tj1, tj2, tj3)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        rad *= factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
    sign = phase_from_twice(tj1 - tj2 - tm3)
    return SqrtRational(sign * total, 1) * SqrtRational(1, rad)


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

    Independent of the single-sum production path.  Each distinct 3j
    symbol is computed once per call: the m sums ask for most of them
    many times.
    """
    tj1, tj2, tj3, tj4, tj5, tj6 = t6
    threej_once = lru_cache(maxsize=None)(threej)
    total = SqrtRational(0)
    for tm1 in _projections(tj1):
        for tm2 in _projections(tj2):
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            first = threej_once(tj1, tj2, tj3, -tm1, -tm2, -tm3)
            if not first:
                continue
            for tm6 in _projections(tj6):
                tm5 = tm1 + tm6
                tm4 = tm6 - tm2
                if abs(tm5) > tj5 or abs(tm4) > tj4:
                    continue
                term = (first
                        * threej_once(tj1, tj5, tj6, tm1, -tm5, tm6)
                        * threej_once(tj4, tj2, tj6, tm4, tm2, -tm6)
                        * threej_once(tj4, tj5, tj3, -tm4, tm5, tm3))
                if not term:
                    continue
                sign = phase_from_twice(
                    (tj1 + tj2 + tj3)
                    + (tj4 - tm4) + (tj5 - tm5) + (tj6 - tm6))
                total = total + term * sign
    return total


def sixj_one_zero(ta, tb, tc) -> SqrtRational:
    """Closed form for {a b c; 0 c b}: (-1)^(a+b+c)/sqrt((2b+1)(2c+1))."""
    sign = phase_from_twice(ta + tb + tc)
    return SqrtRational(sign) * SqrtRational(
        1, Fraction(1, (tb + 1) * (tc + 1)))


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


def _regge_array(t6):
    # the four triad perimeters a_i and the three four-spin sums b_j
    ta, tb, tx, tc, td, ty = t6
    return ((ta + tb + tx) // 2, (ta + td + ty) // 2,
            (tc + tb + ty) // 2, (tc + td + tx) // 2,
            (ta + tb + tc + td) // 2, (tb + tx + td + ty) // 2,
            (tx + ta + ty + tc) // 2)


def _prefactor_args(t6):
    # zmin, and the arguments of the z-sum's prefactor
    # F = (zmin+1)!/(prod_i (zmax-a_i)! prod_j (b_j-zmin)!): zmin + 1,
    # then the seven of its denominator
    regge = _regge_array(t6)
    a, b = regge[:4], regge[4:]
    zmin, zmax = max(a), min(b)
    return zmin, (zmin + 1, *(zmax - x for x in a), *(x - zmin for x in b))


def _balanced_product(factors):
    # prod(factors), multiplied pairwise so that operands stay balanced
    while len(factors) > 1:
        paired = [x * y for x, y in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def unreduced_zsum(t6):
    """n of t6, the Horner loop's bracket times its full Q, unreduced.

    Step z has ratio -p(z)/q(z), p(z) = (z+2) prod_j (b_j-z) and
    q(z) = prod_i (z+1-a_i).  Over a run of steps, P = prod -p,
    Q = prod q and T/Q is the sum of the partial ratio products; two
    adjacent runs combine as (P1 P2, Q1 Q2, T1 Q2 + P1 T2), and Q + T of
    the whole range is n.
    """
    a1, a2, a3, a4, b1, b2, b3 = _regge_array(t6)

    def split(lo, hi):
        if hi - lo <= 16:
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

    _, q, t = split(max(a1, a2, a3, a4), min(b1, b2, b3))
    return q + t


# the former large path's bias of the prefactor's 16-bit fields
_GCD_PATH_BIAS = 0xFF00


def gcd_prefactor_triple(t6, n):
    """The large path's former (num, den, rad) of t6 from unreduced_zsum.

    The value is (-1)^zmin F n sqrt(1/D), F the z-sum's factorial
    prefactor and D the product of the four triangle denominators.  p's
    exponent f in F and e in D are read off packed factorial vectors,
    one prime at a time; the powers p^(f - ceil(e/2)) go to a numerator
    or a denominator, each multiplied in a balanced tree, and the
    denominator is cancelled against n by one gcd.
    """
    ta, tb, tx, tc, td, ty = t6
    if n == 0:
        return 0, 1, 1
    zmin, (top, *args) = _prefactor_args(t6)
    primes = factorial_primes(top)
    nbytes = 2 * bisect_right(primes, top)
    fe = factorial_exponents
    f_vec = (fe(top) - sum(fe(m) for m in args)
             + int.from_bytes(_GCD_PATH_BIAS.to_bytes(2, sys.byteorder)
                              * (nbytes // 2), sys.byteorder))
    d_vec = 0
    for t1, t2, t3 in ((ta, tb, tx), (ta, td, ty),
                       (tc, tb, ty), (tc, td, tx)):
        h = (t1 + t2 + t3) // 2
        d_vec += fe(h + 1) - fe(h - t1) - fe(h - t2) - fe(h - t3)
    ups, downs, rad = [], [], 1
    for p, f, e in zip(primes,
                       array("H", f_vec.to_bytes(nbytes, sys.byteorder)),
                       array("H", d_vec.to_bytes(nbytes, sys.byteorder))):
        k = f - _GCD_PATH_BIAS - ((e + 1) >> 1)
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


def legendre_prefactor_denominator(t6):
    """The denominator of the z-sum's prefactor F of t6, by Legendre.

    prod p^-f over the primes whose exponent f in F is negative, F in
    lowest terms.
    """
    _, (top, *args) = _prefactor_args(t6)
    den = 1
    for p in _primes_upto(top):
        f = _legendre(top, p) - sum(_legendre(m, p) for m in args)
        if f < 0:
            den *= p ** -f
    return den


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
        return SqrtRational(0)
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
    lhs = SqrtRational(0)
    for tx in _x_twices((ta, tb), (tc, td)):
        term = split_mul(sixj_or_zero_twice((ta, tb, tx, tc, td, ty)),
                         sixj_or_zero_twice((tc, td, tx, ta, tb, typ)))
        lhs = split_add(lhs, split_mul(term, SqrtRational(tx + 1)))
    if (ty == typ and triad_valid_twice(ta, td, ty)
            and triad_valid_twice(tb, tc, ty)):
        rhs = SqrtRational(Fraction(1, typ + 1))
    else:
        rhs = SqrtRational(0)
    return lhs, rhs


def pentagon_sides_split(t9, literal_form=False):
    """(lhs, rhs) of the pentagon identity on SqrtRational values.

    t9 holds the twice-values of (a, b, c, d, e, f, p, q, r).
    """
    ta, tb, tc, td, te, tf, tp, tq, tr = t9
    phi = sum(t9)
    lhs = SqrtRational(0)
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


def _require_all_symbols(spins):
    missing = [s for s in SYMBOLS if s not in spins]
    if missing:
        raise MissingSymbol(f"missing spin symbols: {', '.join(missing)}")
    return {s: spins[s] for s in SYMBOLS}


def label_desargues_by_triads(spins):
    """The former label_desargues, one triad_valid_twice call per point."""
    symbol_spins = _require_all_symbols(spins)
    twice = {s: spin.twice for s, spin in symbol_spins.items()}
    violations = [(tag, (i, j, k),
                   (symbol_spins[i], symbol_spins[j], symbol_spins[k]))
                  for tag, (i, j, k) in POINT_TRIADS
                  if not triad_valid_twice(twice[i], twice[j], twice[k])]
    if violations:
        raise TriadViolation(
            "triads fail at points "
            + ", ".join(v[0] for v in violations), violations)
    line_spins = {l: symbol_spins[s] for l, s in LINE_SYMBOLS}
    return DesarguesSpinLabeling(DESARGUES, line_spins, symbol_spins)


# (x-free triad, its three slot indices into BE_SYMBOL_NAMES)
_X_FREE_SLOTS = tuple((names, *map(BE_SYMBOL_NAMES.index, names))
                      for names in X_FREE_TRIADS)


def be_fixed_triads_by_slot_table(t):
    """The former BEInstance check on twice tuple t: (failing triads,
    InvalidInstance message), or None when all seven x-free triads hold."""
    bad = [names for names, i, j, k in _X_FREE_SLOTS
           if not triad_valid_twice(t[i], t[j], t[k])]
    if not bad:
        return None
    return bad, ("invalid fixed triads: "
                 + ", ".join("(" + "".join(names) + ")" for names in bad))


def be_sides_by_admissible_range(t, literal_form):
    """The former pentagon x-sum of valid twice tuple t, as triples."""
    ta, tb, tc, td, te, tf, tp, tq, tr = t
    phi = sum(t)
    terms = []
    for tx in admissible_x_twice(ta, tb, tc, td, te, tf):
        sign = -1 if ((phi + tx) // 2) % 2 else 1
        terms.append(_product(
            (_sixj_cached((ta, tb, tx, tc, td, tp)),
             _sixj_cached((tc, td, tx, te, tf, tq)),
             _sixj_cached((te, tf, tx, tb, ta, tr))),
            sign if literal_form else sign * (tx + 1)))
    rhs = _reduce(*_product(
        (_sixj_cached((tp, tq, tr, tf, tb, tc)),
         _sixj_cached((tp, tq, tr, te, ta, td)))))
    return _sum(terms), rhs


def be_grid_by_triad_calls(max_twice):
    """The former iter_be_grid, two triad_valid_twice calls per r drawn."""
    rng = range(max_twice + 1)

    def couple(t1, t2):
        lo = abs(t1 - t2)
        hi = min(t1 + t2, max_twice)
        return range(lo, hi + 2, 2) if lo <= hi else range(0)

    for ta in rng:
        for td in rng:
            for tp in couple(ta, td):                # (adp)
                for tb in rng:
                    for tc in couple(tb, tp):        # (bcp)
                        for te in rng:
                            for tq in couple(td, te):        # (deq)
                                for tf in couple(tc, tq):    # (cfq)
                                    for tr in couple(te, ta):    # (ear)
                                        if not triad_valid_twice(tf, tb, tr):
                                            continue
                                        if not triad_valid_twice(tp, tq, tr):
                                            continue
                                        yield (ta, tb, tc, td, te,
                                               tf, tp, tq, tr)


def racah_sum(t6, triple) -> Fraction:
    """The Racah z-sum S of {a b x; c d y}, read back from its value.

    triple is (num, den, rad), the value (num/den)*sqrt(rad) =
    D(abx) D(bcy) D(cdx) D(ady) S with D the triangle coefficients, so
    S^2 = value^2 / prod D^2.  S is rational: ValueError when S^2 is not
    the square of a rational, as when the triangle part of the value is
    wrong.
    """
    ta, tb, tx, tc, td, ty = t6
    num, den, rad = triple
    tri = (_triangle_sq(ta, tb, tx) * _triangle_sq(tb, tc, ty)
           * _triangle_sq(tc, td, tx) * _triangle_sq(ta, td, ty))
    square = Fraction(num * num * rad, den * den) / tri
    top, bottom = isqrt(square.numerator), isqrt(square.denominator)
    if top * top != square.numerator or bottom * bottom != square.denominator:
        raise ValueError(f"S^2 of {t6} is not a rational square")
    return Fraction(-top if num < 0 else top, bottom)


def schulten_gordon_residual(t6, s_below, s_at, s_above) -> Fraction:
    """x P1(x) S(x+1) + F(x) S(x) + (x+1) P2(x-1) S(x-1) on {a b x; c d y}.

    s_below, s_at and s_above are the Racah sums at x - 1, x and x + 1;
    the residual is zero exactly when all three are right.  With spins
    a..y and C(j) = j(j+1) (Schulten & Gordon, J. Math. Phys. 16 (1975)
    1961, written for S, whose column ratios of triangle coefficients
    are absorbed into P1 and P2):
    P1(x) = (x+1-a+b)(x+1+a-b)(x+1-c+d)(x+1+c-d),
    P2(x) = (a+b-x)(a+b+x+2)(c+d-x)(c+d+x+2),
    F(x) = (2x+1)(C(x)[-C(x)+C(a)+C(b)-2C(y)] + C(d)[C(x)-C(a)+C(b)]
           + C(c)[C(x)+C(a)-C(b)]).
    """
    a, b, x, c, d, y = (Fraction(t, 2) for t in t6)

    def cas(j):
        return j * (j + 1)

    p1 = (x + 1 - a + b) * (x + 1 + a - b) * (x + 1 - c + d) * (x + 1 + c - d)
    p2 = (a + b - x + 1) * (a + b + x + 1) * (c + d - x + 1) * (c + d + x + 1)
    f = (2 * x + 1) * (
        cas(x) * (-cas(x) + cas(a) + cas(b) - 2 * cas(y))
        + cas(d) * (cas(x) - cas(a) + cas(b))
        + cas(c) * (cas(x) + cas(a) - cas(b)))
    return x * p1 * s_above + f * s_at + (x + 1) * p2 * s_below
