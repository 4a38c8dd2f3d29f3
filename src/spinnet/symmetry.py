"""Tetrahedral and Regge symmetries of the 6j symbol.

The classical group (column permutations plus upper/lower exchanges in
any two columns) has order 24.  Adjoining the three semi-perimeter maps
of the form (a,b,c,d) -> (s-a, s-b, s-c, s-d), one per pair of opposite
entries held fixed, yields a group of order 144.  Elements act linearly
on the entry vector (a, b, x, c, d, y), so they are represented by
exact 6x6 matrices (stored doubled, making every entry an integer); the
144 count is established by explicit closure, not assumed.

Also provided: the canonical ordering of a realizable quadruple (the
smallest of the eight parameters a,b,c,d,s-a,s-b,s-c,s-d goes first,
its opposite third, the larger of the rest fourth), the running ranges
of the two diagonal entries, and the root-of-unity style regularization
report derived from the canonical form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import NegativeSpinAfterTransform, UnrealizableQuadrangle
from .exactnum import Spin, _frozen_record
from .wigner import SixJ, admissible_x_twice

__all__ = [
    "SixJSymmetryElement",
    "CanonicalQuadruple",
    "RegularizationReport",
    "regge_transform",
    "symmetry_group",
    "classical_group",
    "symmetry_orbit",
    "canonicalize_quadruple",
    "running_range",
    "regularization_bounds",
]

# entry vector order: (a, b, x, c, d, y); columns pair up as
# (a,c) (b,d) (x,y), i.e. upper slots (0,1,2) over lower slots (3,4,5)
_UPPER = (0, 1, 2)
_LOWER = (3, 4, 5)

Matrix2 = tuple  # 6 rows of 6 ints, each the doubled exact coefficient


def _identity2() -> Matrix2:
    return tuple(tuple(2 if i == j else 0 for j in range(6))
                 for i in range(6))


def _compose2(m1: Matrix2, m2: Matrix2) -> Matrix2:
    # (m1/2) @ (m2/2), doubled again; group elements keep entries integral
    rows = []
    for i in range(6):
        row = []
        r1 = m1[i]
        for j in range(6):
            v = sum(r1[k] * m2[k][j] for k in range(6))
            assert v % 2 == 0
            row.append(v // 2)
        rows.append(tuple(row))
    return tuple(rows)


def _apply2(m: Matrix2, t: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for i in range(6):
        v = sum(m[i][k] * t[k] for k in range(6))
        if v % 2 or v < 0:
            raise NegativeSpinAfterTransform(
                f"symmetry image of {t} has entry {v}/2 at slot {i}")
        out.append(v // 2)
    return tuple(out)


def _classical_matrix(column_perm, flips) -> Matrix2:
    # new column j carries old column column_perm[j], flipped iff j in flips
    rows = [[0] * 6 for _ in range(6)]
    for j in range(3):
        src = column_perm[j]
        up, lo = _UPPER[src], _LOWER[src]
        if j in flips:
            up, lo = lo, up
        rows[_UPPER[j]][up] = 2
        rows[_LOWER[j]][lo] = 2
    return tuple(tuple(r) for r in rows)


def _regge_matrix() -> Matrix2:
    # (a,b,c,d) -> (s-a, s-b, s-c, s-d) with x, y fixed
    quad = (0, 1, 3, 4)
    rows = [[0] * 6 for _ in range(6)]
    for i in quad:
        for j in quad:
            rows[i][j] = -1 if i == j else 1
    rows[2][2] = rows[5][5] = 2
    return tuple(tuple(r) for r in rows)


_FLIP_SETS = (frozenset(), frozenset({0, 1}), frozenset({0, 2}),
              frozenset({1, 2}))


@_frozen_record
class SixJSymmetryElement:
    """One of the 144 symmetries, factored as regge-coset o classical."""

    column_perm: tuple[int, int, int]
    flips: frozenset[int]
    regge_component: int
    matrix2: Matrix2

    def apply_twice(self, t: tuple[int, ...]) -> tuple[int, ...]:
        return _apply2(self.matrix2, t)


@lru_cache(maxsize=1)
def _group_data():
    classical = {}
    for perm in permutations(range(3)):
        for flips in _FLIP_SETS:
            classical[_classical_matrix(perm, flips)] = (perm, flips)
    assert len(classical) == 24

    generators = list(classical) + [_regge_matrix()]
    seen = set(classical)
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                c = _compose2(g, m)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    assert len(seen) == 144, f"closure produced {len(seen)} elements"

    # left cosets of the classical subgroup; representative = smallest
    # matrix, except the classical coset itself which keeps the identity
    remaining = set(seen)
    reps = []
    while remaining:
        g = min(remaining)
        coset = {_compose2(g, k) for k in classical}
        if _identity2() in coset:
            g = _identity2()
        reps.append(g)
        remaining -= coset
    reps.sort(key=lambda m: (m != _identity2(), m))
    assert reps[0] == _identity2() and len(reps) == 6

    elements = []
    for idx, rep in enumerate(reps):
        for kmat, (perm, flips) in classical.items():
            elements.append(SixJSymmetryElement(
                column_perm=perm, flips=flips, regge_component=idx,
                matrix2=_compose2(rep, kmat)))
    assert len({e.matrix2 for e in elements}) == 144
    return tuple(elements), tuple(reps), classical


def symmetry_group() -> tuple[SixJSymmetryElement, ...]:
    """All 144 symmetry elements (classical subgroup first coset)."""
    return _group_data()[0]


def classical_group() -> tuple[SixJSymmetryElement, ...]:
    """The 24 classical elements (column perms and paired flips)."""
    return tuple(e for e in symmetry_group() if e.regge_component == 0)


def regge_transform(s: SixJ) -> SixJ:
    """{a b x; c d y} -> {s-a s-b x; s-c s-d y} with s the semi-perimeter."""
    ta, tb, tx, tc, td, ty = s.twice_tuple()
    # (abx) and (cdx) make a+b+c+d even and each of a, b, c, d at most
    # the sum of the other three, so s is a spin and every s - j >= 0
    h = (ta + tb + tc + td) // 2
    return SixJ.from_twice((h - ta, h - tb, tx, h - tc, h - td, ty))


def symmetry_orbit(s: SixJ) -> frozenset[SixJ]:
    """Orbit of a valid symbol under the full 144-element group."""
    t = s.twice_tuple()
    return frozenset(SixJ.from_twice(e.apply_twice(t))
                     for e in symmetry_group())


# dihedral relabelings of (a, b, c, d) preserving the opposite pairs
# {a,c} and {b,d}; new[i] = old[_D4[k][i]]
_D4_PERMS = (
    (0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1),
    (1, 0, 3, 2), (3, 2, 1, 0), (3, 0, 1, 2), (1, 2, 3, 0),
)


@_frozen_record
class CanonicalQuadruple:
    """A quadruple in the canonical ordering, with its semi-perimeter.

    Invariants: a <= b <= d <= s and d-(b-a) <= c <= d+(b-a), with
    s = (a+b+c+d)/2 a genuine spin (even twice-sum).  These bounds are
    exactly the condition that a is the least of the eight parameters
    (a, b, c, d, s-a, s-b, s-c, s-d).
    """

    a: Spin
    b: Spin
    c: Spin
    d: Spin
    s: Spin

    def __post_init__(self):
        ta, tb, tc, td = (self.a.twice, self.b.twice,
                          self.c.twice, self.d.twice)
        total = ta + tb + tc + td
        if total % 2 or self.s.twice != total // 2:
            raise UnrealizableQuadrangle(
                f"semi-perimeter of ({self.a},{self.b},{self.c},{self.d}) "
                "is not a spin")
        ts = self.s.twice
        if not (ta <= tb <= td <= ts):
            raise UnrealizableQuadrangle(
                f"({self.a},{self.b},{self.c},{self.d}) violates a<=b<=d<=s")
        if not (td - (tb - ta) <= tc <= td + (tb - ta)):
            raise UnrealizableQuadrangle(
                f"({self.a},{self.b},{self.c},{self.d}) has c out of range")

    @classmethod
    def from_twice(cls, ta, tb, tc, td) -> "CanonicalQuadruple":
        return cls(Spin(ta), Spin(tb), Spin(tc), Spin(td),
                   Spin((ta + tb + tc + td) // 2))

    def twice_tuple(self):
        return (self.a.twice, self.b.twice, self.c.twice, self.d.twice)

    def __str__(self):
        return f"({self.a}, {self.b}, {self.c}, {self.d}; s={self.s})"


def _realizable(ta, tb, tc, td) -> bool:
    return (len(admissible_x_twice(ta, tb, tc, td)) > 0
            and len(admissible_x_twice(ta, td, tb, tc)) > 0)


def canonicalize_quadruple(a: Spin, b: Spin, c: Spin,
                           d: Spin) -> CanonicalQuadruple:
    """Canonical relabeling of a realizable quadruple.

    Searches the sixteen images under the dihedral relabelings and the
    semi-perimeter conjugation, keeps those satisfying the canonical
    ordering, and breaks ties by the lexicographically smallest
    twice-value tuple.
    """
    base = (a.twice, b.twice, c.twice, d.twice)
    if not _realizable(*base):
        raise UnrealizableQuadrangle(
            f"({a}, {b}, {c}, {d}) admits no diagonal pair (x, y)")
    total = sum(base)  # realizability forces an even twice-sum
    h = total // 2
    conj = tuple(h - t for t in base)
    least = min(min(base), min(conj))

    best = None
    for quad in (base, conj):
        for perm in _D4_PERMS:
            img = tuple(quad[perm[i]] for i in range(4))
            if img[0] == least and img[1] <= img[3]:
                if best is None or img < best:
                    best = img
    assert best is not None
    return CanonicalQuadruple.from_twice(*best)


def running_range(q: CanonicalQuadruple) -> tuple[Spin, Spin, Spin, Spin]:
    """(x_min, x_max, y_min, y_max) for the two running entries.

    x couples through (abx) and (cdx), y through (ady) and (bcy); for a
    canonical quadruple neither range is empty and both widths equal 2a.
    """
    ta, tb, tc, td = q.twice_tuple()
    xs = admissible_x_twice(ta, tb, tc, td)
    ys = admissible_x_twice(ta, td, tb, tc)
    return (Spin(xs[0]), Spin(xs[-1]), Spin(ys[0]), Spin(ys[-1]))


@_frozen_record
class RegularizationReport:
    """Outcome of the semi-perimeter and root-of-unity bound checks.

    rsym3_holds: s <= b + d, the canonical-compatibility inequality.
    max_r: largest integer level r >= 3 whose deformation shift
        kappa = (r-2)/2 stays within s - a; None when even r = 3 fails.
    kappa_twice: twice-value of kappa at that level (equals 2(s-a)).
    rsym5_holds: whether that r respects r <= (2*x_min+1) + (2*y_min+1).
    """

    rsym3_holds: bool
    max_r: int | None
    kappa_twice: int | None
    rsym5_holds: bool | None

    def to_json_dict(self) -> dict:
        return {
            "rsym3_holds": self.rsym3_holds,
            "max_r": self.max_r,
            "kappa_twice": self.kappa_twice,
            "rsym5_holds": self.rsym5_holds,
        }


def regularization_bounds(q: CanonicalQuadruple) -> RegularizationReport:
    """Evaluate the regularization inequality chain on a canonical quadruple."""
    ta, tb, _tc, td = q.twice_tuple()
    ts = q.s.twice
    rsym3 = ts <= tb + td

    r_star = (ts - ta) + 2
    if r_star < 3:
        return RegularizationReport(rsym3, None, None, None)
    x_min, _, y_min, _ = running_range(q)
    bound = (x_min.twice + 1) + (y_min.twice + 1)
    return RegularizationReport(rsym3, r_star, ts - ta, r_star <= bound)
