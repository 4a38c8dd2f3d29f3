"""Finite incidence structures, dualities, and the ten-point pipeline.

Everything here is purely combinatorial: structures are points, lines
and an incidence relation, with optional human-readable tags.  The
ten-point ten-line configuration is assembled from five quadrangles
indexed 1..5: its points are the unordered pairs (ij) where quadrangles
i and j meet, its lines the pairs [kl] whose three points avoid both k
and l, and incidence is disjointness of the index pairs.  The space
dual trades points for triangles and quadrangles for vertices, giving
the boundary complex of a 4-simplex, and an arbitrary cross-section of
that complex folds back to the original configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

from .errors import MalformedLabels

__all__ = [
    "IncidenceStructure",
    "ConfigurationSignature",
    "SimplicialComplex4",
    "validate_configuration",
    "build_quadrangle",
    "plane_dual",
    "build_desargues",
    "space_dual_desargues",
    "cross_section",
    "isomorphic",
    "canonical_form",
]

QUADRANGLE_INDICES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class ConfigurationSignature:
    """(p_gamma, l_pi): p points on gamma lines, l lines through pi points."""

    p: int
    gamma: int
    l: int
    pi: int

    def __post_init__(self):
        if min(self.p, self.gamma, self.l, self.pi) <= 0:
            raise ValueError("signature entries must be positive")
        if self.p * self.gamma != self.l * self.pi:
            raise ValueError(
                f"counting identity fails: {self.p}*{self.gamma} "
                f"!= {self.l}*{self.pi}")

    def is_symmetric(self) -> bool:
        return self.p == self.l and self.gamma == self.pi

    def __str__(self):
        if self.is_symmetric():
            return f"({self.p}_{self.gamma})"
        return f"({self.p}_{self.gamma}, {self.l}_{self.pi})"


class IncidenceStructure:
    """Finite points and lines with an incidence relation and read-only tags."""

    def __init__(self, points, lines, incidence,
                 point_labels=None, line_labels=None):
        pts = tuple(points)
        lns = tuple(lines)
        if len(set(pts)) != len(pts) or len(set(lns)) != len(lns):
            raise ValueError("repeated point or line ids")
        pset, lset = set(pts), set(lns)
        inc = frozenset((p, l) for p, l in incidence)
        for p, l in inc:
            if p not in pset or l not in lset:
                raise ValueError(f"incidence ({p}, {l}) references unknown id")
        self.points = pts
        self.lines = lns
        self.incidence = inc
        self.point_labels = MappingProxyType(dict(point_labels or {}))
        self.line_labels = MappingProxyType(dict(line_labels or {}))

    def lines_through(self, p) -> tuple:
        return tuple(l for l in self.lines if (p, l) in self.incidence)

    def points_on(self, l) -> tuple:
        return tuple(p for p in self.points if (p, l) in self.incidence)

    def point_degree(self, p) -> int:
        return sum(1 for l in self.lines if (p, l) in self.incidence)

    def line_degree(self, l) -> int:
        return sum(1 for p in self.points if (p, l) in self.incidence)

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "lines": list(self.lines),
            "incidence": sorted([p, l] for p, l in self.incidence),
            "labels": {
                "points": {str(k): v for k, v in
                           sorted(self.point_labels.items())},
                "lines": {str(k): v for k, v in
                          sorted(self.line_labels.items())},
            },
        }

    @classmethod
    def from_json_dict(cls, data) -> "IncidenceStructure":
        return cls(
            data["points"], data["lines"],
            [(p, l) for p, l in data["incidence"]],
            {int(k): v for k, v in data.get("labels", {})
             .get("points", {}).items()},
            {int(k): v for k, v in data.get("labels", {})
             .get("lines", {}).items()},
        )

    def to_dot(self, bipartite: bool = True) -> str:
        """DOT rendering; bipartite shows lines as box nodes, the
        alternative draws each line as a clique over its points."""
        out = ["graph incidence {"]
        for p in self.points:
            tag = self.point_labels.get(p, str(p))
            out.append(f'  p{p} [label="{tag}" shape=circle];')
        if bipartite:
            for l in self.lines:
                tag = self.line_labels.get(l, str(l))
                out.append(f'  l{l} [label="{tag}" shape=box];')
            for p, l in sorted(self.incidence):
                out.append(f"  p{p} -- l{l};")
        else:
            for l in self.lines:
                pts = self.points_on(l)
                for u, v in combinations(pts, 2):
                    out.append(f"  p{u} -- p{v};")
        out.append("}")
        return "\n".join(out) + "\n"

    def __repr__(self):
        return (f"IncidenceStructure({len(self.points)} points, "
                f"{len(self.lines)} lines)")


def validate_configuration(s: IncidenceStructure,
                           sig: ConfigurationSignature) -> bool:
    """True iff s is a (p_gamma, l_pi) configuration for the given signature."""
    if len(s.points) != sig.p or len(s.lines) != sig.l:
        return False
    if any(s.point_degree(p) != sig.gamma for p in s.points):
        return False
    return all(s.line_degree(l) == sig.pi for l in s.lines)


def build_quadrangle() -> IncidenceStructure:
    """The complete quadrangle (4_3, 6_2): four points joined in pairs."""
    points = list(range(4))
    pairs = list(combinations(points, 2))
    lines = list(range(len(pairs)))
    incidence = [(p, l) for l, pair in enumerate(pairs) for p in pair]
    return IncidenceStructure(
        points, lines, incidence,
        point_labels={p: str(p + 1) for p in points},
        line_labels={l: f"{{{a + 1}{b + 1}}}" for l, (a, b) in
                     enumerate(pairs)})


def plane_dual(s: IncidenceStructure) -> IncidenceStructure:
    """Interchange points and lines, transposing the incidence relation."""
    return IncidenceStructure(
        s.lines, s.points,
        [(l, p) for p, l in s.incidence],
        point_labels=dict(s.line_labels),
        line_labels=dict(s.point_labels))


def _pairs5():
    return list(combinations(QUADRANGLE_INDICES, 2))


def build_desargues() -> IncidenceStructure:
    """The ten-point ten-line configuration from five glued quadrangles.

    Point (ij) is the single intersection of quadrangles i and j; line
    [kl] is shared by the three quadrangles other than k and l, and
    passes through the three points (ij) with {i,j} disjoint from
    {k,l}.  Each quadrangle thus contributes four points and six lines,
    and every point lies on exactly three lines.
    """
    pairs = _pairs5()
    points = list(range(10))
    lines = list(range(10))
    incidence = []
    for pi, ppair in enumerate(pairs):
        for li, lpair in enumerate(pairs):
            if not (set(ppair) & set(lpair)):
                incidence.append((pi, li))
    return IncidenceStructure(
        points, lines, incidence,
        point_labels={i: f"({a}{b})" for i, (a, b) in enumerate(pairs)},
        line_labels={i: f"[{a}{b}]" for i, (a, b) in enumerate(pairs)})


_POINT_TAG = re.compile(r"\((\d)(\d)\)")
_LINE_TAG = re.compile(r"\[(\d)(\d)\]")


def _parse_tag(tag, pattern, kind):
    m = pattern.fullmatch(tag or "")
    if not m:
        raise MalformedLabels(f"{kind} tag {tag!r} is not two-colored")
    pair = (int(m.group(1)), int(m.group(2)))
    if pair[0] >= pair[1] or not set(pair) <= set(QUADRANGLE_INDICES):
        raise MalformedLabels(f"{kind} tag {tag!r} is not a valid pair")
    return pair


class SimplicialComplex4:
    """Boundary combinatorics of the 4-simplex on vertices 1..5.

    f-vector (5, 10, 10, 5); faces are subsets, so the face maps are
    subset inclusion.  Tetrahedron i is the 4-set avoiding vertex i,
    matching the dual labeling where quadrangle i becomes vertex i.
    The label maps are read-only, so one complex can be shared.
    """

    def __init__(self):
        self.vertices = QUADRANGLE_INDICES
        self.edges = tuple(frozenset(e) for e in
                           combinations(self.vertices, 2))
        self.triangles = tuple(frozenset(t) for t in
                               combinations(self.vertices, 3))
        self.tetrahedra = tuple(
            frozenset(set(self.vertices) - {i}) for i in self.vertices)
        self.vertex_labels = MappingProxyType({
            v: "{" + "".join(str(w) for w in self.vertices if w != v) + "}"
            for v in self.vertices})
        self.edge_labels = MappingProxyType({
            e: "[" + "".join(str(v) for v in sorted(e)) + "]"
            for e in self.edges})
        self.triangle_labels = MappingProxyType({
            t: "<" + "".join(str(v) for v in sorted(t)) + ">"
            for t in self.triangles})
        self.tetra_labels = MappingProxyType(
            {tet: i + 1 for i, tet in enumerate(self.tetrahedra)})
        self._edge_of_label = {t: e for e, t in self.edge_labels.items()}

    def f_vector(self) -> tuple[int, int, int, int]:
        return (len(self.vertices), len(self.edges),
                len(self.triangles), len(self.tetrahedra))

    def edges_of_triangle(self, t) -> tuple:
        return tuple(e for e in self.edges if e <= t)

    def triangles_of_tetrahedron(self, tet) -> tuple:
        return tuple(t for t in self.triangles if t <= tet)

    def edges_of_tetrahedron(self, tet) -> tuple:
        return tuple(e for e in self.edges if e <= tet)

    def tetrahedra_containing(self, t) -> tuple:
        return tuple(tet for tet in self.tetrahedra if t <= tet)

    def edge_by_label(self, tag) -> frozenset:
        return self._edge_of_label[tag]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "label": self.vertex_labels[v]}
                         for v in self.vertices],
            "edges": [{"vertices": sorted(e), "label": self.edge_labels[e]}
                      for e in self.edges],
            "triangles": [{"vertices": sorted(t),
                           "label": self.triangle_labels[t]}
                          for t in self.triangles],
            "tetrahedra": [{"vertices": sorted(tet),
                            "index": self.tetra_labels[tet]}
                           for tet in self.tetrahedra],
        }


_SIMPLEX = SimplicialComplex4()


def space_dual_desargues(d: IncidenceStructure) -> SimplicialComplex4:
    """Space dual of the labeled ten-point configuration.

    Quadrangle i becomes a vertex (tagged with the complementary four
    indices), each line [kl] stays a line and becomes the edge {k,l},
    and each two-colored point (ij) becomes the triangle <klm> on the
    complementary indices.  Every valid d has the same dual, so the one
    complex built at import is returned.  Raises MalformedLabels unless
    d carries the two-color/bracket tagging produced by build_desargues.
    """
    if len(d.points) != 10 or len(d.lines) != 10:
        raise MalformedLabels("expected a ten-point, ten-line structure")
    point_pairs = {p: _parse_tag(d.point_labels.get(p), _POINT_TAG, "point")
                   for p in d.points}
    line_pairs = {l: _parse_tag(d.line_labels.get(l), _LINE_TAG, "line")
                  for l in d.lines}
    if (len(set(point_pairs.values())) != 10
            or len(set(line_pairs.values())) != 10):
        raise MalformedLabels("tags must cover all ten index pairs")

    # consistency of the labeling with the dual face relations:
    # point (ij) on line [kl] must become triangle <klm> containing
    # edge {k,l}, i.e. the pairs must be disjoint exactly when incident
    for p, l in ((p, l) for p in d.points for l in d.lines):
        disjoint = not (set(point_pairs[p]) & set(line_pairs[l]))
        if ((p, l) in d.incidence) != disjoint:
            raise MalformedLabels(
                "incidence does not match the two-color tagging")
    return _SIMPLEX


def cross_section(c: SimplicialComplex4) -> IncidenceStructure:
    """Slice the complex: one point per edge, one line per triangle.

    Incidence is inherited from the face maps; the result is again the
    ten-point configuration, tagged so that the edge {k,l} becomes the
    point (kl) and a triangle becomes the line bracketed by the two
    missing indices.
    """
    edges = list(c.edges)
    tris = list(c.triangles)
    incidence = [(pi, li)
                 for pi, e in enumerate(edges)
                 for li, t in enumerate(tris)
                 if e <= t]
    point_labels = {pi: "(" + "".join(str(v) for v in sorted(e)) + ")"
                    for pi, e in enumerate(edges)}
    line_labels = {}
    for li, t in enumerate(tris):
        rest = sorted(set(c.vertices) - t)
        line_labels[li] = "[" + "".join(str(v) for v in rest) + "]"
    return IncidenceStructure(range(len(edges)), range(len(tris)),
                              incidence, point_labels, line_labels)


def canonical_form(s: IncidenceStructure) -> tuple:
    """Ordering-independent encoding of the incidence data.

    Minimizes, over all point orderings, the trace of sorted line
    bitmasks restricted to each prefix of the ordering.  Depth-by-depth
    minimization prunes the search to the automorphism classes, which
    keeps the tiny structures used here cheap.
    """
    n = len(s.points)
    masks = []
    index = {p: i for i, p in enumerate(s.points)}
    for l in s.lines:
        m = 0
        for p in s.points_on(l):
            m |= 1 << index[p]
        masks.append(m)

    prefixes = [((), 0)]  # (ordering tuple of original indices, used-mask)
    trace = []
    for _depth in range(n):
        best_key = None
        best = {}
        for order, used in prefixes:
            for nxt in range(n):
                bit = 1 << nxt
                if used & bit:
                    continue
                sel = used | bit
                placed = order + (nxt,)
                # each line restricted to the placed points, re-indexed
                # by placement order; the sorted multiset is the
                # ordering-invariant component of the canonical trace
                restriction = tuple(
                    tuple(i for i, p in enumerate(placed)
                          if m & (1 << p))
                    for m in masks)
                key = tuple(sorted(restriction))
                if best_key is None or key < best_key:
                    best_key = key
                    best = {(sel, restriction): placed}
                elif key == best_key:
                    # prefixes with equal used sets and equal per-line
                    # restrictions have identical completions
                    best.setdefault((sel, restriction), placed)
        trace.append(best_key)
        prefixes = [(placed, sel) for (sel, _), placed in best.items()]
    return (n, len(s.lines), tuple(trace))


def isomorphic(s1: IncidenceStructure, s2: IncidenceStructure) -> bool:
    """True iff an incidence-preserving point/line bijection exists."""
    if (len(s1.points), len(s1.lines)) != (len(s2.points), len(s2.lines)):
        return False
    return canonical_form(s1) == canonical_form(s2)
