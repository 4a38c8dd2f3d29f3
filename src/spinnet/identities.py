"""Exact verifiers for the defining 6j identities and the Pachner moves.

The orthogonality condition

    sum_x (2x+1) {a b x; c d y} {c d x; a b y'}
        = delta_{yy'} delta_(ady) delta_(bcy) / (2y'+1)

and the pentagon identity

    sum_x (-1)^(phi+x) (2x+1) {a b x; c d p} {c d x; e f q} {e f x; b a r}
        = {p q r; f b c} {p q r; e a d},    phi = a+b+c+d+e+f+p+q+r

are evaluated exactly on both sides.  NOTE: the (2x+1) weight in the
pentagon sum is required for the identity to hold (it is false already
for the all-ones instance without it); the weighted form is therefore
the default.  The unweighted variant stays available through
literal_form=True so the discrepancy is observable rather than
silently patched.

The 2-3 move check is the pentagon identity rephrased in tetrahedral
terms; the 1-4 move check contracts the pentagon with the orthogonality
kernel in the p slot, which keeps every sum finite (no divergent volume
factor is ever introduced).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import IncompatibleRadicands, InvalidInstance, PhaseParityError
from .exactnum import Spin, SqrtRational
from .wigner import (
    TRIAD_SLOTS,
    ZERO_TRIPLE,
    _sixj_cached,
    admissible_x_twice,
    triad_valid_twice,
)

__all__ = [
    "BEInstance",
    "ExactCheckResult",
    "FIVE_SYMBOLS",
    "X_FREE_TRIADS",
    "orthogonality_check",
    "be_check",
    "pachner_23_check",
    "pachner_14_check",
    "pachner_14_checks",
    "iter_orthogonality_grid",
    "iter_be_grid",
]

BE_SYMBOL_NAMES = ("a", "b", "c", "d", "e", "f", "p", "q", "r")

# the five symbols of the pentagon identity / the five quadrangles,
# each as (A, B, X, C, D, Y) slot names
FIVE_SYMBOLS = (
    ("a", "b", "x", "c", "d", "p"),
    ("c", "d", "x", "e", "f", "q"),
    ("e", "f", "x", "b", "a", "r"),
    ("p", "q", "r", "f", "b", "c"),
    ("p", "q", "r", "e", "a", "d"),
)


def _derive_triads():
    seen = {}
    for sym in FIVE_SYMBOLS:
        for i, j, k in TRIAD_SLOTS:
            names = (sym[i], sym[j], sym[k])
            seen.setdefault(frozenset(names), names)
    return tuple(sorted(seen.values()))


ALL_TRIADS = _derive_triads()
X_FREE_TRIADS = tuple(t for t in ALL_TRIADS if "x" not in t)
assert len(ALL_TRIADS) == 10 and len(X_FREE_TRIADS) == 7


@dataclass(frozen=True)
class BEInstance:
    """The nine fixed spins of the pentagon identity."""

    a: Spin
    b: Spin
    c: Spin
    d: Spin
    e: Spin
    f: Spin
    p: Spin
    q: Spin
    r: Spin

    def __post_init__(self):
        bad = []
        for names in X_FREE_TRIADS:
            tv = tuple(getattr(self, n).twice for n in names)
            if not triad_valid_twice(*tv):
                bad.append(names)
        if bad:
            raise InvalidInstance(
                "invalid fixed triads: "
                + ", ".join("(" + "".join(t) + ")" for t in bad),
                triads=bad)

    @classmethod
    def from_twice(cls, t: tuple[int, ...]) -> "BEInstance":
        return cls(*(Spin(v) for v in t))

    def twice_tuple(self) -> tuple[int, ...]:
        return tuple(getattr(self, n).twice for n in BE_SYMBOL_NAMES)

    @property
    def phi_twice(self) -> int:
        return sum(self.twice_tuple())

    def __str__(self):
        return ("(" + ", ".join(f"{n}={getattr(self, n)}"
                                for n in BE_SYMBOL_NAMES) + ")")


@dataclass(frozen=True)
class ExactCheckResult:
    """Both sides of an exact identity check, plus their comparison."""

    lhs: SqrtRational
    rhs: SqrtRational
    equal: bool
    form: str
    detail: str = ""

    @property
    def diff(self) -> SqrtRational | None:
        """lhs - rhs when representable in one radicand, else None."""
        try:
            return self.lhs - self.rhs
        except IncompatibleRadicands:
            return None

    def to_json_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
            "form": self.form,
        }


def _result(lhs, rhs, form, detail="") -> ExactCheckResult:
    # lhs, rhs: canonical triples, so equal values have equal triples
    return ExactCheckResult(SqrtRational._from_triple(*lhs),
                            SqrtRational._from_triple(*rhs),
                            lhs == rhs, form, detail)


# Exact values inside the verifiers are (num, den, rad) triples, the
# kernel's own form: (num/den)*sqrt(rad) with rad square-free.  A
# product multiplies radicands by the gcd rule r1*r2 = g**2*(r1/g)*(r2/g),
# g = gcd(r1, r2), so no radicand is ever factored again.

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


def _orthogonality_sides(ta, tb, tc, td, ty, typ):
    """Both sides of the completeness relation, as canonical triples."""
    # (ady) (bcy) (ady') (bcy') are the y-triads of the two symbols: if
    # one fails, every term has a zero factor and the delta is zero
    if not (triad_valid_twice(ta, td, ty) and triad_valid_twice(tb, tc, ty)
            and triad_valid_twice(ta, td, typ)
            and triad_valid_twice(tb, tc, typ)):
        return ZERO_TRIPLE, ZERO_TRIPLE
    # x runs over (abx) and (cdx), so both symbols are admissible
    lhs = _sum(
        _product((_sixj_cached((ta, tb, tx, tc, td, ty)),
                  _sixj_cached((tc, td, tx, ta, tb, typ))),
                 tx + 1)
        for tx in admissible_x_twice(ta, tb, tc, td))
    return lhs, ((1, typ + 1, 1) if ty == typ else ZERO_TRIPLE)


def orthogonality_check(a: Spin, b: Spin, c: Spin, d: Spin,
                        y: Spin, yp: Spin) -> ExactCheckResult:
    """Exact check of the dimension-weighted completeness relation."""
    lhs, rhs = _orthogonality_sides(a.twice, b.twice, c.twice, d.twice,
                                    y.twice, yp.twice)
    return _result(lhs, rhs, "orthogonality")


def _be_sides(inst: BEInstance, literal_form: bool):
    ta, tb, tc, td, te, tf, tp, tq, tr = inst.twice_tuple()
    phi = inst.phi_twice
    terms = []
    # BEInstance holds the seven fixed triads and x runs over (abx) (cdx)
    # (efx), so all ten triads of the five symbols hold
    for tx in admissible_x_twice(ta, tb, tc, td, te, tf):
        if (phi + tx) % 2:
            raise PhaseParityError(
                f"phi + x is half-integral for {inst} at x={tx}/2")
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


def be_check(inst: BEInstance, literal_form: bool = False) -> ExactCheckResult:
    """Exact pentagon-identity check; literal_form drops the (2x+1) weight."""
    lhs, rhs = _be_sides(inst, literal_form)
    form = "pentagon-unweighted" if literal_form else "pentagon"
    return _result(lhs, rhs, form)


def pachner_23_check(inst: BEInstance,
                     literal_form: bool = False) -> ExactCheckResult:
    """The 2-3 move: three tetrahedra glued along x against two sharing a face."""
    lhs, rhs = _be_sides(inst, literal_form)
    form = "pachner-2-3" + ("-unweighted" if literal_form else "")
    return _result(
        lhs, rhs, form,
        detail="x-sum of the three x-tetrahedra vs the two-tetrahedron product")


def pachner_14_check(inst: BEInstance, p_prime: Spin) -> ExactCheckResult:
    """The 1-4 move as a finite contraction.

    Multiplies the pentagon x-sum by the orthogonality kernel pairing p
    with p_prime; the product collapses to the delta_{p p'}-filtered
    two-symbol product:

        [sum_x (2x+1) {a b x; c d p}{c d x; a b p'}] * [pentagon x-sum]
            = delta_{pp'} {p' q r; f b c}{p' q r; e a d}
              * delta_(adp') delta_(bcp') / (2p'+1)
    """
    return pachner_14_checks(inst, (p_prime,))[0]


def pachner_14_checks(inst: BEInstance, p_primes) -> list[ExactCheckResult]:
    """pachner_14_check for each p' in p_primes, sharing one pentagon x-sum."""
    ta, tb, tc, td, _, _, tp, _, _ = inst.twice_tuple()
    pentagon, two_symbols = _be_sides(inst, literal_form=False)
    out = []
    for p_prime in p_primes:
        # delta is the orthogonality rhs, delta_{pp'} ... / (2p'+1); it
        # is nonzero only at p' = p, where the right-hand symbols are the
        # pentagon's own two
        ortho, delta = _orthogonality_sides(ta, tb, tc, td, tp, p_prime.twice)
        lhs = _reduce(*_product((ortho, pentagon)))
        rhs = _reduce(*_product((two_symbols, delta)))
        out.append(_result(
            lhs, rhs, "pachner-1-4",
            detail=f"p'={p_prime}, contraction over x and the p slot"))
    return out


def iter_orthogonality_grid(max_twice: int):
    """All (a, b, c, d, y, y') twice-tuples with entries <= max_twice."""
    rng = range(max_twice + 1)
    for ta in rng:
        for tb in rng:
            for tc in rng:
                for td in rng:
                    for ty in rng:
                        for typ in rng:
                            yield (ta, tb, tc, td, ty, typ)


def iter_be_grid(max_twice: int):
    """All valid nine-spin twice-tuples with entries <= max_twice.

    Enumerates constructively through the seven fixed triads, so every
    yielded tuple already satisfies the instance invariants.
    """
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
