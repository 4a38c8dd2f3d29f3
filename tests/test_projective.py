import copy
import pickle
from itertools import combinations

import pytest

from spinnet.errors import MalformedLabels
from spinnet.projective import (
    ConfigurationSignature,
    IncidenceStructure,
    SimplicialComplex4,
    build_desargues,
    build_quadrangle,
    canonical_form,
    cross_section,
    isomorphic,
    plane_dual,
    space_dual_desargues,
    validate_configuration,
)

SIG_10_3 = ConfigurationSignature(10, 3, 10, 3)
SIG_QUADRANGLE = ConfigurationSignature(4, 3, 6, 2)


def triangle():
    return IncidenceStructure(
        [0, 1, 2], [0, 1, 2],
        [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])


class TestSignature:
    def test_counting_identity_enforced(self):
        with pytest.raises(ValueError):
            ConfigurationSignature(10, 3, 10, 2)

    def test_symmetric(self):
        assert SIG_10_3.is_symmetric()
        assert str(SIG_10_3) == "(10_3)"
        assert str(SIG_QUADRANGLE) == "(4_3, 6_2)"


class TestValidate:
    def test_triangle_is_3_2(self):
        assert validate_configuration(triangle(), ConfigurationSignature(3, 2, 3, 2))

    def test_quadrangle(self):
        assert validate_configuration(build_quadrangle(), SIG_QUADRANGLE)

    def test_quadrangle_is_not_10_3(self):
        assert not validate_configuration(build_quadrangle(), SIG_10_3)

    def test_degree_mismatch(self):
        s = IncidenceStructure([0, 1], [0], [(0, 0)])
        assert not validate_configuration(s, ConfigurationSignature(2, 1, 1, 2))


class TestStructureBasics:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            IncidenceStructure([0, 0], [0], [])

    def test_unknown_incidence_rejected(self):
        with pytest.raises(ValueError):
            IncidenceStructure([0], [0], [(1, 0)])

    def test_json_roundtrip(self):
        d = build_desargues()
        again = IncidenceStructure.from_json_dict(d.to_json_dict())
        assert again.incidence == d.incidence
        assert again.point_labels == d.point_labels
        assert isomorphic(d, again)

    def test_equal_by_value(self):
        d = build_desargues()
        again = IncidenceStructure.from_json_dict(d.to_json_dict())
        assert again is not d and again == d and hash(again) == hash(d)
        assert d != plane_dual(d) and d != triangle() and d != object()
        retagged = IncidenceStructure(d.points, d.lines, d.incidence,
                                      d.point_labels, {})
        assert retagged != d

    def test_pickles_and_copies_by_value(self):
        d = build_desargues()
        for back in (pickle.loads(pickle.dumps(d)), copy.copy(d),
                     copy.deepcopy(d)):
            assert type(back) is IncidenceStructure and back == d
            assert dict(back.point_labels) == dict(d.point_labels)
            with pytest.raises(TypeError):
                back.line_labels[0] = "[12]"

    def test_dot_modes(self):
        d = build_desargues()
        bip = d.to_dot(bipartite=True)
        assert "shape=box" in bip and "p0 -- l" in bip
        cliques = d.to_dot(bipartite=False)
        assert "shape=box" not in cliques and "--" in cliques


class TestPlaneDuality:
    def test_quadrangle_dual_is_quadrilateral(self):
        dual = plane_dual(build_quadrangle())
        assert validate_configuration(dual, ConfigurationSignature(6, 2, 4, 3))

    def test_double_dual_isomorphic(self):
        q = build_quadrangle()
        assert isomorphic(plane_dual(plane_dual(q)), q)

    def test_quadrangle_not_isomorphic_to_dual(self):
        q = build_quadrangle()
        assert not isomorphic(q, plane_dual(q))

    def test_ten_point_self_duality(self):
        d = build_desargues()
        dual = plane_dual(d)
        assert validate_configuration(dual, SIG_10_3)
        assert isomorphic(d, dual)


class TestDesargues:
    def test_validates_10_3(self):
        assert validate_configuration(build_desargues(), SIG_10_3)

    def test_quadrangle_pair_intersections(self):
        d = build_desargues()
        # quadrangle i owns the points whose tag contains i; two
        # quadrangles meet in exactly the point (ij)
        points_of = {
            i: {p for p in d.points
                if str(i) in d.point_labels[p].strip("()")}
            for i in range(1, 6)}
        for i, j in combinations(range(1, 6), 2):
            common = points_of[i] & points_of[j]
            assert len(common) == 1
            assert d.point_labels[common.pop()] == f"({i}{j})"

    def test_quadrangles_are_4_3_6_2_substructures(self):
        d = build_desargues()
        for i in range(1, 6):
            pts = [p for p in d.points
                   if str(i) in d.point_labels[p].strip("()")]
            lines = [l for l in d.lines
                     if str(i) not in d.line_labels[l].strip("[]")]
            assert len(pts) == 4 and len(lines) == 6
            for p in pts:
                on = [l for l in lines if (p, l) in d.incidence]
                assert len(on) == 3

    def test_two_points_of_a_quadrangle_join_in_one_line(self):
        d = build_desargues()
        for i in range(1, 6):
            pts = [p for p in d.points
                   if str(i) in d.point_labels[p].strip("()")]
            for p1, p2 in combinations(pts, 2):
                joins = [l for l in d.lines
                         if (p1, l) in d.incidence and (p2, l) in d.incidence]
                assert len(joins) == 1

    def test_line_tags_complementary(self):
        d = build_desargues()
        for l in d.lines:
            tag = d.line_labels[l].strip("[]")
            on_line = {d.point_labels[p].strip("()")
                       for p in d.points_on(l)}
            for point_tag in on_line:
                assert not (set(tag) & set(point_tag))


class TestSpaceDual:
    def test_f_vector(self):
        c = space_dual_desargues(build_desargues())
        assert c.f_vector() == (5, 10, 10, 5)

    def test_labels(self):
        c = space_dual_desargues(build_desargues())
        assert c.vertex_labels[1] == "{2345}"
        assert c.triangle_labels[frozenset({3, 4, 5})] == "<345>"
        assert c.tetra_labels[frozenset({2, 3, 4, 5})] == 1

    @pytest.mark.parametrize("labels", ["vertex_labels", "edge_labels",
                                        "triangle_labels", "tetra_labels"])
    def test_one_shared_read_only_complex(self, labels):
        c = space_dual_desargues(build_desargues())
        assert space_dual_desargues(build_desargues()) is c
        face = next(iter(getattr(c, labels)))
        with pytest.raises(TypeError):
            getattr(c, labels)[face] = "[99]"
        assert getattr(c, labels)[face] != "[99]"

    def test_edge_by_label(self):
        c = space_dual_desargues(build_desargues())
        for e in c.edges:
            assert c.edge_by_label(c.edge_labels[e]) is e
        with pytest.raises(KeyError):
            c.edge_by_label("[99]")

    def test_each_triangle_in_two_tetrahedra(self):
        c = space_dual_desargues(build_desargues())
        for t in c.triangles:
            assert len(c.tetrahedra_containing(t)) == 2

    def test_each_edge_in_three_triangles_per_tetrahedron(self):
        c = space_dual_desargues(build_desargues())
        for tet in c.tetrahedra:
            tris = c.triangles_of_tetrahedron(tet)
            for e in c.edges_of_tetrahedron(tet):
                assert sum(1 for t in tris if e <= t) == 2
            # within the whole complex each edge lies in three triangles
        for e in c.edges:
            assert sum(1 for t in c.triangles if e <= t) == 3

    def test_requires_labels(self):
        bare = IncidenceStructure(range(10), range(10),
                                  build_desargues().incidence)
        with pytest.raises(MalformedLabels):
            space_dual_desargues(bare)

    def test_rejects_inconsistent_tags(self):
        d = build_desargues()
        labels = dict(d.point_labels)
        # swap two point tags; incidence no longer matches the coloring
        labels[0], labels[1] = labels[1], labels[0]
        broken = IncidenceStructure(d.points, d.lines, d.incidence,
                                    labels, d.line_labels)
        with pytest.raises(MalformedLabels):
            space_dual_desargues(broken)


class TestSimplexValue:
    def test_every_instance_is_equal(self):
        c = space_dual_desargues(build_desargues())
        fresh = SimplicialComplex4()
        assert fresh is not c and fresh == c and hash(fresh) == hash(c)
        assert c != build_desargues() and c != object()

    def test_pickles_and_copies_to_an_equal_complex(self):
        c = SimplicialComplex4()
        for back in (pickle.loads(pickle.dumps(c)), copy.copy(c),
                     copy.deepcopy(c)):
            assert type(back) is SimplicialComplex4 and back == c
            assert back.edge_by_label("[45]") == frozenset({4, 5})


class TestCrossSection:
    def test_counts_and_signature(self):
        section = cross_section(space_dual_desargues(build_desargues()))
        assert len(section.points) == 10 and len(section.lines) == 10
        assert validate_configuration(section, SIG_10_3)

    def test_round_trip_isomorphism(self):
        d = build_desargues()
        section = cross_section(space_dual_desargues(d))
        assert isomorphic(section, d)


class TestIsomorphism:
    def test_self(self):
        d = build_desargues()
        assert isomorphic(d, d)

    def test_respects_relabeling(self):
        d = build_desargues()
        # permute point ids
        mapping = {p: (p * 7) % 10 for p in d.points}
        permuted = IncidenceStructure(
            sorted(mapping.values()), d.lines,
            [(mapping[p], l) for p, l in d.incidence])
        assert isomorphic(d, permuted)

    def test_counts_disagree(self):
        assert not isomorphic(build_quadrangle(), build_desargues())

    def test_same_counts_different_structure(self):
        # a (3_2) triangle against a 3-point near-pencil with equal counts
        tri = triangle()
        other = IncidenceStructure(
            [0, 1, 2], [0, 1, 2],
            [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 2)])
        assert not isomorphic(tri, other)

    def test_canonical_form_invariant(self):
        d = build_desargues()
        assert canonical_form(d) == canonical_form(plane_dual(d))
