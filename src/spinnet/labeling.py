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
labeling's ten spins are read once, in SYMBOLS order, and the triads
are tested in one pass on their twice-values, with the parity and
triangle arithmetic written inline rather than called per triad.  The
pass stops at the first failing point: most labelings fail, and most
callers drop the rejection, so the TriadViolation's report of every
failing point is built only when first read (_point_report).  An
accepted labeling has passed all ten.  transfer_labeling tests the ten
face triads from a slot table of the same form and reports them
eagerly; it and the deferred point report share one routine.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Mapping

from .errors import LabelTransferMismatch, MissingSymbol, TriadViolation
from .exactnum import Spin, SqrtRational, _frozen_record, _product, _reduce
from .identities import FIVE_SYMBOLS, SYMBOLS
from .projective import (
    IncidenceStructure,
    SimplicialComplex4,
    build_desargues,
    space_dual_desargues,
)
from .symmetry import CanonicalQuadruple, running_range
from .wigner import SixJ, _sixj_cached, triad_valid_twice

__all__ = [
    "SYMBOLS",
    "LINE_TAG_OF_SYMBOL",
    "DesarguesSpinLabeling",
    "SimplexSpinLabeling",
    "label_desargues",
    "transfer_labeling",
    "network_amplitude",
    "iter_regularized_enumeration",
]

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
_POINT_INDICES = tuple(slot[2:] for slot in _POINT_SLOTS)
# (line, index into SYMBOLS of its symbol), in line order
_LINE_SLOTS = tuple((l, SYMBOLS.index(s)) for l, s in LINE_SYMBOLS)
_read_symbols = itemgetter(*SYMBOLS)
_SYMBOL_SET = frozenset(SYMBOLS)
_SIMPLEX = space_dual_desargues(DESARGUES)
# (triangle tag, no symbols, its three edges), in triangle order; every
# SimplicialComplex4 has these faces
_FACE_SLOTS = tuple(
    (_SIMPLEX.triangle_labels[t], (), *_SIMPLEX.edges_of_triangle(t))
    for t in _SIMPLEX.triangles)


def _five_symbols(self) -> tuple[SixJ, ...]:
    """The five 6j symbols, one per quadrangle or tetrahedron."""
    return tuple(SixJ(*(self.symbol_spins[n] for n in names))
                 for names in FIVE_SYMBOLS)


def _to_json_dict(self) -> dict:
    return {"symbol_spins": {s: str(self.symbol_spins[s]) for s in SYMBOLS}}


@_frozen_record
class DesarguesSpinLabeling:
    """A validated assignment of the ten spins to the ten lines."""

    structure: IncidenceStructure
    line_spins: dict
    symbol_spins: dict

    quadrangle_symbols = _five_symbols
    to_json_dict = _to_json_dict


@_frozen_record
class SimplexSpinLabeling:
    """Edge spins on the 4-simplex with triads on triangular faces."""

    complex4: SimplicialComplex4
    edge_spins: dict
    symbol_spins: dict

    tetrahedron_symbols = _five_symbols
    to_json_dict = _to_json_dict


def _violations(spins, slots):
    """(tag, names, its three spins) of each slot (tag, names, i, j, k)
    whose triad spins[i], spins[j], spins[k] fails, in slot order."""
    return [(tag, names, (spins[i], spins[j], spins[k]))
            for tag, names, i, j, k in slots
            if not triad_valid_twice(spins[i].twice, spins[j].twice,
                                     spins[k].twice)]


def _point_report(values):
    """(message, violations) of a rejected labeling, in point order."""
    violations = _violations(values, _POINT_SLOTS)
    return ("triads fail at points "
            + ", ".join(v[0] for v in violations), violations)


def label_desargues(spins: Mapping[str, Spin]) -> DesarguesSpinLabeling:
    """Attach the ten spins to the configuration and validate all triads.

    Stops at the first failing point and raises TriadViolation.  Its
    report, built when first read, carries every failing point (its
    tag, the three symbols meeting there and their spins).
    """
    # membership first, so that nothing is read (and a defaultdict is
    # not filled) unless every symbol is there: the set difference
    # reads keys only, and the ordered list is built for the message
    if _SYMBOL_SET.difference(spins):
        missing = [s for s in SYMBOLS if s not in spins]
        raise MissingSymbol(f"missing spin symbols: {', '.join(missing)}")
    values = _read_symbols(spins)
    # a triad couples when its perimeter is even and the triangle
    # inequalities hold; twice-values are read per check, since most
    # labelings fail at an early point
    for i, j, k in _POINT_INDICES:
        a = values[i].twice
        b = values[j].twice
        c = values[k].twice
        if (a + b + c) % 2 or not abs(a - b) <= c <= a + b:
            raise TriadViolation.deferred(partial(_point_report, values))
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

    violations = _violations(edge_spins, _FACE_SLOTS)
    if violations:
        raise TriadViolation(
            "face triads fail at "
            + ", ".join(v[0] for v in violations), violations)
    return SimplexSpinLabeling(c, edge_spins, dict(d.symbol_spins))


def network_amplitude(d: DesarguesSpinLabeling) -> SqrtRational:
    """Product of the five quadrangle 6j values (no internal summation)."""
    return SqrtRational._from_triple(*_reduce(*_product(
        _sixj_cached(s.twice_tuple()) for s in d.quadrangle_symbols())))


def iter_regularized_enumeration(q: CanonicalQuadruple,
                                 others: Mapping[str, Spin]):
    """Amplitudes over the finite running range of the reference quadrangle.

    q fixes the spins (a, b, c, d); others fixes e, f, p, q, r.  The
    running spin x sweeps its admissible interval of width 2a, so at
    most 2a+1 states appear; x values that break one of the remaining
    triads are skipped.  Yields one (x, amplitude) pair at a time.
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
