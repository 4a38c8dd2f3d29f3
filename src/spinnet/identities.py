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

from .errors import (
    IncompatibleRadicands,
    InvalidInstance,
    PhaseParityError,
    SpinnetError,
)
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
    "iter_be_grid_checks",
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


# slot indices into BE_SYMBOL_NAMES of each x-free triad
_X_FREE_SLOTS = tuple(tuple(BE_SYMBOL_NAMES.index(n) for n in names)
                      for names in X_FREE_TRIADS)


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
        t = (self.a.twice, self.b.twice, self.c.twice, self.d.twice,
             self.e.twice, self.f.twice, self.p.twice, self.q.twice,
             self.r.twice)
        bad = [names for names, (i, j, k) in zip(X_FREE_TRIADS, _X_FREE_SLOTS)
               if not triad_valid_twice(t[i], t[j], t[k])]
        if bad:
            raise InvalidInstance(
                "invalid fixed triads: "
                + ", ".join("(" + "".join(names) + ")" for names in bad),
                triads=bad)
        # the nine twice-values, kept outside the dataclass fields so
        # that fields, equality, hash and repr stay those of the spins
        object.__setattr__(self, "_twice", t)

    @classmethod
    def from_twice(cls, t: tuple[int, ...]) -> "BEInstance":
        return cls(*map(Spin, t))

    def twice_tuple(self) -> tuple[int, ...]:
        return self._twice

    @property
    def phi_twice(self) -> int:
        return sum(self._twice)

    def __str__(self):
        return _instance_str(self._twice)


def _instance_str(t) -> str:
    return ("(" + ", ".join(f"{n}={Spin(v)}"
                            for n, v in zip(BE_SYMBOL_NAMES, t)) + ")")


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


def _be_sides(t, literal_form: bool):
    """Both sides of the pentagon identity for a valid twice tuple t."""
    ta, tb, tc, td, te, tf, tp, tq, tr = t
    phi = sum(t)
    terms = []
    # t holds the seven fixed triads and x runs over (abx) (cdx) (efx),
    # so all ten triads of the five symbols hold
    for tx in admissible_x_twice(ta, tb, tc, td, te, tf):
        if (phi + tx) % 2:
            raise PhaseParityError(
                f"phi + x is half-integral for {_instance_str(t)} "
                f"at x={tx}/2")
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


_PACHNER_23_DETAIL = \
    "x-sum of the three x-tetrahedra vs the two-tetrahedron product"


def _be_result(t, literal_form: bool) -> ExactCheckResult:
    lhs, rhs = _be_sides(t, literal_form)
    return _result(lhs, rhs,
                   "pentagon-unweighted" if literal_form else "pentagon")


def _pachner_23_result(t, literal_form: bool) -> ExactCheckResult:
    lhs, rhs = _be_sides(t, literal_form)
    return _result(lhs, rhs,
                   "pachner-2-3" + ("-unweighted" if literal_form else ""),
                   detail=_PACHNER_23_DETAIL)


def be_check(inst: BEInstance, literal_form: bool = False) -> ExactCheckResult:
    """Exact pentagon-identity check; literal_form drops the (2x+1) weight."""
    return _be_result(inst._twice, literal_form)


def pachner_23_check(inst: BEInstance,
                     literal_form: bool = False) -> ExactCheckResult:
    """The 2-3 move: three tetrahedra glued along x against two sharing a face."""
    return _pachner_23_result(inst._twice, literal_form)


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
    return _pachner_14_results(inst._twice, p_primes)


def _pachner_14_results(t, p_primes) -> list[ExactCheckResult]:
    """The 1-4 checks of valid twice tuple t, one for each Spin p'."""
    ta, tb, tc, td, _, _, tp, _, _ = t
    pentagon, two_symbols = _be_sides(t, literal_form=False)
    out = []
    for p_prime in p_primes:
        # delta is the orthogonality rhs, delta_{pp'} ... / (2p'+1); it
        # is nonzero only at p' = p, where the right-hand symbols are the
        # pentagon's own two
        ortho, delta = _orthogonality_sides(ta, tb, tc, td, tp, p_prime.twice)
        out.append(_result(
            _reduce(*_product((ortho, pentagon))),
            _reduce(*_product((two_symbols, delta))),
            "pachner-1-4",
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
    """Valid nine-spin twice-tuples with a, b, d, e <= max_twice.

    Enumerates constructively through the seven fixed triads, so every
    yielded tuple already satisfies the instance invariants.  A coupled
    entry (c, f, p, q, r) steps by 2 up to max_twice and can end at
    max_twice + 1 when its parity differs: at 4, 7508 of the 15772
    tuples have an entry of 5.
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


def iter_be_grid_checks(max_twice: int, move: str,
                        literal_form: bool = False):
    """(twice tuple, result) for every tuple of iter_be_grid(max_twice).

    move is 'be' (the pentagon identity), 'pachner-23' or 'pachner-14';
    literal_form applies to the first two.  The 1-4 move yields one result
    for each p' with twice-value <= max_twice, its twice-value appended
    to the tuple.  Grid tuples are valid by construction, so the sums run
    on them directly and no BEInstance is built.
    """
    if move == "pachner-14":
        p_primes = [Spin(v) for v in range(max_twice + 1)]
        for t in iter_be_grid(max_twice):
            rows = _pachner_14_results(t, p_primes)
            for p_prime, res in zip(p_primes, rows):
                yield t + (p_prime.twice,), res
        return
    if move == "be":
        check = _be_result
    elif move == "pachner-23":
        check = _pachner_23_result
    else:
        raise SpinnetError(f"unknown verification grid {move!r}")
    for t in iter_be_grid(max_twice):
        yield t, check(t, literal_form)
