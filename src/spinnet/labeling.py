"""Spin labelings of the ten-point configuration and of the 4-simplex.

Ten spins {a,...,f,p,q,r,x} sit on the ten lines; each of the ten
points sees three lines, and those three spins must couple.  The five
quadrangles then carry exactly the five symbols of the pentagon
identity, and transporting the labels through the space dual (line to
line, so edge {k,l} inherits the spin of line [kl]) puts the same five
symbols on the five tetrahedra, with triads now sitting on triangular
faces.

The symbol-to-line binding is read off identities.FIVE_SYMBOLS: the
k-th symbol omits exactly the four spins on lines through k, so
tetrahedron k (the six edges avoiding vertex k) carries the k-th
symbol by construction.  Every labeling shares the one configuration
built at import, and checks the ten point-triads read off it: they are
the ten triads of the pentagon identity.

The point triads are checked from a slot table built at import: each
point's tag, its three symbols and their indices into SYMBOLS.  A
labeling's ten spins are read once, in SYMBOLS order, and all ten
triads are tested in one pass on their twice-values, with the parity
and triangle arithmetic written inline rather than called per triad.
transfer_labeling tests the ten face triads the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .errors import LabelTransferMismatch, MissingSymbol, TriadViolation
from .exactnum import Spin, SqrtRational, _product, _reduce
from .identities import BE_SYMBOL_NAMES, FIVE_SYMBOLS
from .projective import (
    IncidenceStructure,
    SimplicialComplex4,
    build_desargues,
    space_dual_desargues,
)
from .symmetry import CanonicalQuadruple, running_range
from .wigner import SixJ, _sixj_cached

__all__ = [
    "SYMBOLS",
    "LINE_TAG_OF_SYMBOL",
    "DesarguesSpinLabeling",
    "SimplexSpinLabeling",
    "label_desargues",
    "transfer_labeling",
    "network_amplitude",
    "regularized_enumeration",
    "iter_regularized_enumeration",
]

SYMBOLS = BE_SYMBOL_NAMES + ("x",)

# symbol s sits on line [kl], where k and l are the two quadrangles
# whose symbols omit s
LINE_TAG_OF_SYMBOL = {
    s: "[" + "".join(str(k) for k, names in enumerate(FIVE_SYMBOLS, 1)
                     if s not in names) + "]"
    for s in SYMBOLS}
SYMBOL_OF_LINE_TAG = {v: k for k, v in LINE_TAG_OF_SYMBOL.items()}

DESARGUES = build_desargues()
# (line, symbol) in line order
LINE_SYMBOLS = tuple((l, SYMBOL_OF_LINE_TAG[DESARGUES.line_labels[l]])
                     for l in DESARGUES.lines)
# (point tag, symbols of the three lines through it), in point/line order
POINT_TRIADS = tuple(
    (DESARGUES.point_labels[p],
     tuple(SYMBOL_OF_LINE_TAG[DESARGUES.line_labels[l]]
           for l in DESARGUES.lines_through(p)))
    for p in DESARGUES.points)
# (point tag, its three symbols, their three indices into SYMBOLS)
_POINT_SLOTS = tuple((tag, names, *map(SYMBOLS.index, names))
                     for tag, names in POINT_TRIADS)
# (line, index into SYMBOLS of its symbol), in line order
_LINE_SLOTS = tuple((l, SYMBOLS.index(s)) for l, s in LINE_SYMBOLS)
_read_symbols = itemgetter(*SYMBOLS)
_SIMPLEX = space_dual_desargues(DESARGUES)
# (triangle tag, its three edges), in triangle order; every
# SimplicialComplex4 has these faces
FACE_EDGES = tuple(
    (_SIMPLEX.triangle_labels[t], _SIMPLEX.edges_of_triangle(t))
    for t in _SIMPLEX.triangles)


def _five_symbols(self) -> tuple[SixJ, ...]:
    """The five 6j symbols, one per quadrangle or tetrahedron."""
    return tuple(SixJ(*(self.symbol_spins[n] for n in names))
                 for names in FIVE_SYMBOLS)


def _to_json_dict(self) -> dict:
    return {"symbol_spins": {s: str(self.symbol_spins[s]) for s in SYMBOLS}}


@dataclass(frozen=True)
class DesarguesSpinLabeling:
    """A validated assignment of the ten spins to the ten lines."""

    structure: IncidenceStructure
    line_spins: dict
    symbol_spins: dict

    quadrangle_symbols = _five_symbols
    to_json_dict = _to_json_dict


@dataclass(frozen=True)
class SimplexSpinLabeling:
    """Edge spins on the 4-simplex with triads on triangular faces."""

    complex4: SimplicialComplex4
    edge_spins: dict
    symbol_spins: dict

    tetrahedron_symbols = _five_symbols
    to_json_dict = _to_json_dict


def label_desargues(spins: Mapping[str, Spin]) -> DesarguesSpinLabeling:
    """Attach the ten spins to the configuration and validate all triads.

    Raises TriadViolation carrying every failing point (its tag, the
    three symbols meeting there and their spins).
    """
    # membership first, so that nothing is read (and a defaultdict is
    # not filled) unless every symbol is there
    missing = [s for s in SYMBOLS if s not in spins]
    if missing:
        raise MissingSymbol(f"missing spin symbols: {', '.join(missing)}")
    values = _read_symbols(spins)
    t = [spin.twice for spin in values]
    # a triad couples when its perimeter is even and the triangle
    # inequalities hold
    violations = [(tag, names, (values[i], values[j], values[k]))
                  for tag, names, i, j, k in _POINT_SLOTS
                  for a, b, c in ((t[i], t[j], t[k]),)
                  if (a + b + c) % 2 or not abs(a - b) <= c <= a + b]
    if violations:
        raise TriadViolation(
            "triads fail at points "
            + ", ".join(v[0] for v in violations), violations)
    line_spins = {l: values[i] for l, i in _LINE_SLOTS}
    return DesarguesSpinLabeling(DESARGUES, line_spins,
                                 dict(zip(SYMBOLS, values)))


def transfer_labeling(d: DesarguesSpinLabeling,
                      c: SimplicialComplex4) -> SimplexSpinLabeling:
    """Transport line spins to the dual edges through matching tags."""
    edge_spins = {}
    for line, spin in d.line_spins.items():
        tag = d.structure.line_labels[line]
        try:
            edge = c.edge_by_label(tag)
        except KeyError:
            raise LabelTransferMismatch(
                f"no edge of the complex carries tag {tag!r}") from None
        edge_spins[edge] = spin

    t = {e: spin.twice for e, spin in edge_spins.items()}
    violations = [(tag, (), (edge_spins[i], edge_spins[j], edge_spins[k]))
                  for tag, (i, j, k) in FACE_EDGES
                  for a, b, c in ((t[i], t[j], t[k]),)
                  if (a + b + c) % 2 or not abs(a - b) <= c <= a + b]
    if violations:
        raise TriadViolation(
            "face triads fail at "
            + ", ".join(v[0] for v in violations), violations)
    return SimplexSpinLabeling(c, edge_spins, dict(d.symbol_spins))


def network_amplitude(d: DesarguesSpinLabeling) -> SqrtRational:
    """Product of the five quadrangle 6j values (no internal summation)."""
    return SqrtRational._from_triple(*_reduce(*_product(
        _sixj_cached(s.twice_tuple()) for s in d.quadrangle_symbols())))


def regularized_enumeration(q: CanonicalQuadruple,
                            others: Mapping[str, Spin]):
    """Amplitudes over the finite running range of the reference quadrangle.

    q fixes the spins (a, b, c, d); others fixes e, f, p, q, r.  The
    running spin x sweeps its admissible interval of width 2a, so at
    most 2a+1 states appear; x values that break one of the remaining
    triads are skipped.  Raises TriadViolation when no x survives.
    """
    return list(iter_regularized_enumeration(q, others))


def iter_regularized_enumeration(q: CanonicalQuadruple,
                                 others: Mapping[str, Spin]):
    """The (x, amplitude) pairs of regularized_enumeration, one at a time.

    Raises MissingSymbol before the first pair, and TriadViolation in
    place of one when no x survives.
    """
    fixed = {"a": q.a, "b": q.b, "c": q.c, "d": q.d}
    for name in ("e", "f", "p", "q", "r"):
        if name not in others:
            raise MissingSymbol(f"missing spin symbol: {name}")
        fixed[name] = others[name]

    x_min, x_max, _, _ = running_range(q)
    states = 0
    for tx in range(x_min.twice, x_max.twice + 2, 2):
        assignment = dict(fixed)
        assignment["x"] = Spin(tx)
        try:
            labeling = label_desargues(assignment)
        except TriadViolation:
            continue
        yield Spin(tx), network_amplitude(labeling)
        states += 1
    if not states:
        raise TriadViolation(
            f"no admissible running spin for {q} with the given symbols")
