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

BEInstance and ExactCheckResult are frozen records
(exactnum._frozen_record): the dataclasses API reads them, but
importing this module does not load dataclasses.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .errors import InvalidInstance, SpinnetError
from .exactnum import (
    ZERO_TRIPLE,
    Spin,
    SqrtRational,
    _frozen_record,
    _product,
    _reduce,
    _sum,
)
from .wigner import (
    TRIAD_SLOTS,
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
# the ten spins of the network: the nine fixed ones and the running x
SYMBOLS = BE_SYMBOL_NAMES + ("x",)

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


# (x-free triad, its three slot indices into BE_SYMBOL_NAMES)
_X_FREE_SLOTS = tuple((names, *map(BE_SYMBOL_NAMES.index, names))
                      for names in X_FREE_TRIADS)

# one shared Spin for each twice-value below 64; the bound covers the
# pentagon grids the benchmark builds (entries <= 5) with room to spare,
# not a measured library caller
_SPINS = tuple(map(Spin, range(64)))


@_frozen_record
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
        ta, tb, tc, td, te, tf, tp, tq, tr = t
        # the seven x-free triads in one expression: every perimeter
        # even (no odd sum sets bit 0 of their or), then each triangle
        # inequality; the failing triads are listed only on failure
        if ((ta + td + tp | tb + tc + tp | tc + tf + tq | td + te + tq
             | te + ta + tr | tf + tb + tr | tp + tq + tr) & 1
                or not (abs(ta - td) <= tp <= ta + td
                        and abs(tb - tc) <= tp <= tb + tc
                        and abs(tc - tf) <= tq <= tc + tf
                        and abs(td - te) <= tq <= td + te
                        and abs(te - ta) <= tr <= te + ta
                        and abs(tf - tb) <= tr <= tf + tb
                        and abs(tp - tq) <= tr <= tp + tq)):
            bad = [names for names, i, j, k in _X_FREE_SLOTS
                   if not triad_valid_twice(t[i], t[j], t[k])]
            raise InvalidInstance(
                "invalid fixed triads: "
                + ", ".join("(" + "".join(names) + ")" for names in bad),
                triads=bad)
        # the nine twice-values, kept outside the record fields so
        # that fields, equality, hash and repr stay those of the spins
        object.__setattr__(self, "_twice", t)

    @classmethod
    def from_twice(cls, t: tuple[int, ...]) -> "BEInstance":
        """The instance BEInstance(*map(Spin, t)), validated the same way.

        Twice-values below 64 reuse one shared Spin each; any other
        entry, bool and negative int included, goes through Spin(v) and
        is accepted or rejected exactly as there.
        """
        shared = len(_SPINS)
        return cls(*[_SPINS[v] if type(v) is int and 0 <= v < shared
                     else Spin(v) for v in t])

    def twice_tuple(self) -> tuple[int, ...]:
        return self._twice

    @property
    def phi_twice(self) -> int:
        return sum(self._twice)

    def __str__(self):
        return ("(" + ", ".join(f"{n}={getattr(self, n)}"
                                for n in BE_SYMBOL_NAMES) + ")")


@_frozen_record
class ExactCheckResult:
    """Both sides of an exact identity check, plus their comparison."""

    lhs: SqrtRational
    rhs: SqrtRational
    equal: bool
    form: str

    def to_json_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
            "form": self.form,
        }


def _result(lhs, rhs, form) -> ExactCheckResult:
    # lhs, rhs: canonical triples, so equal values have equal triples
    return ExactCheckResult(SqrtRational._from_triple(*lhs),
                            SqrtRational._from_triple(*rhs),
                            lhs == rhs, form)


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
    # t holds the seven fixed triads and x runs over (abx) (cdx) (efx),
    # so all ten triads hold: from the largest of the three differences
    # to the smallest of the three sums.  The fixed triads give
    # a + b = c + d = e + f mod 2, so no parity test is needed, and
    # |a - b| <= |a - p| + |p - b| <= d + c (alike through p, q and r
    # for each pair), so the range is never empty
    lo = abs(ta - tb)
    if abs(tc - td) > lo:
        lo = abs(tc - td)
    if abs(te - tf) > lo:
        lo = abs(te - tf)
    hi = ta + tb
    if tc + td < hi:
        hi = tc + td
    if te + tf < hi:
        hi = te + tf
    # phi + x = (abx) + (cdx) + (efx) + (pqr) - 2x, all even perimeters,
    # so the phase is read once at the lowest x and flips as x steps by 2
    sign = -1 if ((sum(t) + lo) // 2) % 2 else 1
    terms = []
    for tx in range(lo, hi + 2, 2):
        terms.append(_product(
            (_sixj_cached((ta, tb, tx, tc, td, tp)),
             _sixj_cached((tc, td, tx, te, tf, tq)),
             _sixj_cached((te, tf, tx, tb, ta, tr))),
            sign if literal_form else sign * (tx + 1)))
        sign = -sign
    rhs = _reduce(*_product(
        (_sixj_cached((tp, tq, tr, tf, tb, tc)),
         _sixj_cached((tp, tq, tr, te, ta, td)))))
    return _sum(terms), rhs


# the two readings of one pentagon x-sum: move -> form
_PENTAGON_FORMS = {"be": "pentagon", "pachner-23": "pachner-2-3"}


def _pentagon_result(t, move: str, literal_form: bool) -> ExactCheckResult:
    form = _PENTAGON_FORMS[move]
    lhs, rhs = _be_sides(t, literal_form)
    if literal_form:
        form += "-unweighted"
    return _result(lhs, rhs, form)


def be_check(inst: BEInstance, literal_form: bool = False) -> ExactCheckResult:
    """Exact pentagon-identity check; literal_form drops the (2x+1) weight."""
    return _pentagon_result(inst._twice, "be", literal_form)


def pachner_23_check(inst: BEInstance,
                     literal_form: bool = False) -> ExactCheckResult:
    """The 2-3 move: three tetrahedra glued along x against two sharing a face."""
    return _pentagon_result(inst._twice, "pachner-23", literal_form)


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
    return _pachner_14_results(inst._twice, [p.twice for p in p_primes])


def _pachner_14_results(t, tp_primes) -> list[ExactCheckResult]:
    """The 1-4 checks of valid twice tuple t, one for each twice-value p'."""
    ta, tb, tc, td, _, _, tp, _, _ = t
    pentagon, two_symbols = _be_sides(t, literal_form=False)
    out = []
    for tpp in tp_primes:
        # delta is the orthogonality rhs, delta_{pp'} ... / (2p'+1); it
        # is nonzero only at p' = p, where the right-hand symbols are the
        # pentagon's own two
        ortho, delta = _orthogonality_sides(ta, tb, tc, td, tp, tpp)
        out.append(_result(
            _reduce(*_product((ortho, pentagon))),
            _reduce(*_product((two_symbols, delta))),
            "pachner-1-4"))
    return out


def iter_orthogonality_grid(max_twice: int):
    """All (a, b, c, d, y, y') twice-tuples with entries <= max_twice."""
    return product(range(max_twice + 1), repeat=6)


def iter_be_grid(max_twice: int):
    """Valid nine-spin twice-tuples with a, b, d, e <= max_twice.

    Enumerates constructively through the seven fixed triads, so every
    yielded tuple already satisfies the instance invariants.  A coupled
    entry (c, f, p, q, r) steps by 2 up to max_twice and can end at
    max_twice + 1 when its parity differs: at 4, 7508 of the 15772
    tuples have an entry of 5, and at 6 the grid has 204023 tuples.

    Every loop runs over a range read from three tables, each indexed
    by two twice-values up to max_twice + 1: the capped coupling range,
    |t1 - t2| and t1 + t2 + 2 (the stop of the uncapped range).  The
    tables belong to the call, and a row is built when a loop first
    reaches its value, so memory grows with the part of the grid walked.
    c, f, p and q each run over one coupling range; r runs over the
    intersection of (ear), (fbr) and (pqr), from the largest of the three
    lower ends to the smallest stop.  No parity test is needed: (adp),
    (bcp), (deq) and (cfq) give e + a = f + b = p + q mod 2.  So no
    drawn candidate is rejected, and the order is that of the plain
    nested loops that draw r from (ear) and keep it when (fbr) and (pqr)
    hold.
    """
    rng = range(max_twice + 1)
    span = range(max_twice + 2)

    @cache
    def rows(t1):
        # t1's row of each table: couple, diff, stop
        return ([range(abs(t1 - t2), min(t1 + t2, max_twice) + 2, 2)
                 if abs(t1 - t2) <= max_twice else range(0) for t2 in span],
                [abs(t1 - t2) for t2 in span],
                [t1 + t2 + 2 for t2 in span])

    for ta in rng:
        couple_a = rows(ta)[0]
        for td in rng:
            couple_d = rows(td)[0]
            for tp in couple_a[td]:                  # (adp)
                couple_p, diff_p, stop_p = rows(tp)
                for tb in rng:
                    _, diff_b, stop_b = rows(tb)
                    for tc in couple_p[tb]:          # (bcp)
                        couple_c = rows(tc)[0]
                        for te in rng:
                            ear = couple_a[te]       # (ear)
                            lo_e, stop_e = ear.start, ear.stop
                            for tq in couple_d[te]:          # (deq)
                                # (ear) and (pqr); comparisons, not
                                # max/min calls, in the two inner loops
                                lo_q = diff_p[tq]
                                if lo_q < lo_e:
                                    lo_q = lo_e
                                stop_q = stop_p[tq]
                                if stop_q > stop_e:
                                    stop_q = stop_e
                                for tf in couple_c[tq]:      # (cfq)
                                    # and (fbr)
                                    lo = diff_b[tf]
                                    stop = stop_b[tf]
                                    for tr in range(
                                            lo if lo > lo_q else lo_q,
                                            stop if stop < stop_q else stop_q,
                                            2):
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
        return _iter_pachner_14_grid_checks(max_twice)
    if move not in _PENTAGON_FORMS:
        raise SpinnetError(f"unknown verification grid {move!r}")
    return ((t, _pentagon_result(t, move, literal_form))
            for t in iter_be_grid(max_twice))


def _iter_pachner_14_grid_checks(max_twice):
    tp_primes = range(max_twice + 1)
    for t in iter_be_grid(max_twice):
        rows = _pachner_14_results(t, tp_primes)
        for tpp, res in zip(tp_primes, rows):
            yield t + (tpp,), res
