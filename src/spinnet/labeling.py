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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import LabelTransferMismatch, MissingSymbol, TriadViolation
from .exactnum import Spin, SqrtRational
from .identities import BE_SYMBOL_NAMES, FIVE_SYMBOLS
from .projective import (
    IncidenceStructure,
    SimplicialComplex4,
    build_desargues,
)
from .symmetry import CanonicalQuadruple, running_range
from .wigner import SixJ, sixj_value, triad_valid_twice

__all__ = [
    "SYMBOLS",
    "LINE_TAG_OF_SYMBOL",
    "DesarguesSpinLabeling",
    "SimplexSpinLabeling",
    "label_desargues",
    "transfer_labeling",
    "network_amplitude",
    "regularized_enumeration",
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


def _require_all_symbols(spins: Mapping[str, Spin]) -> dict[str, Spin]:
    missing = [s for s in SYMBOLS if s not in spins]
    if missing:
        raise MissingSymbol(f"missing spin symbols: {', '.join(missing)}")
    return {s: spins[s] for s in SYMBOLS}


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

    violations = []
    for tri in c.triangles:
        triple = tuple(edge_spins[e] for e in c.edges_of_triangle(tri))
        if not triad_valid_twice(*(s.twice for s in triple)):
            violations.append((c.triangle_labels[tri], (), triple))
    if violations:
        raise TriadViolation(
            "face triads fail at "
            + ", ".join(v[0] for v in violations), violations)
    return SimplexSpinLabeling(c, edge_spins, dict(d.symbol_spins))


def network_amplitude(d: DesarguesSpinLabeling) -> SqrtRational:
    """Product of the five quadrangle 6j values (no internal summation)."""
    amp = SqrtRational.one()
    for symbol in d.quadrangle_symbols():
        amp = amp * sixj_value(symbol)
    return amp


def regularized_enumeration(q: CanonicalQuadruple,
                            others: Mapping[str, Spin]):
    """Amplitudes over the finite running range of the reference quadrangle.

    q fixes the spins (a, b, c, d); others fixes e, f, p, q, r.  The
    running spin x sweeps its admissible interval of width 2a, so at
    most 2a+1 states appear; x values that break one of the remaining
    triads are skipped.  Raises TriadViolation when no x survives.
    """
    fixed = {"a": q.a, "b": q.b, "c": q.c, "d": q.d}
    for name in ("e", "f", "p", "q", "r"):
        if name not in others:
            raise MissingSymbol(f"missing spin symbol: {name}")
        fixed[name] = others[name]

    x_min, x_max, _, _ = running_range(q)
    out = []
    for tx in range(x_min.twice, x_max.twice + 2, 2):
        assignment = dict(fixed)
        assignment["x"] = Spin(tx)
        try:
            labeling = label_desargues(assignment)
        except TriadViolation:
            continue
        out.append((Spin(tx), network_amplitude(labeling)))
    if not out:
        raise TriadViolation(
            f"no admissible running spin for {q} with the given symbols")
    return out
