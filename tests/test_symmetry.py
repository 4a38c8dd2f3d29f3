from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet.errors import NegativeSpinAfterTransform, UnrealizableQuadrangle
from spinnet.exactnum import Spin
from spinnet.symmetry import (
    CanonicalQuadruple,
    canonicalize_quadruple,
    classical_group,
    regge_transform,
    regularization_bounds,
    running_range,
    symmetry_group,
    symmetry_orbit,
    _compose2,
    _identity2,
)
from spinnet.wigner import SixJ, sixj_value
from test_wigner import iter_valid_sixj


def _matrix_set():
    return {e.matrix2 for e in symmetry_group()}


class TestGroupStructure:
    def test_order_144(self):
        assert len(symmetry_group()) == 144
        assert len(_matrix_set()) == 144

    def test_classical_subgroup_order_24(self):
        assert len(classical_group()) == 24

    def test_closure_identity_inverses(self):
        mats = _matrix_set()
        ident = _identity2()
        assert ident in mats
        for m in mats:
            assert all(_compose2(m, n) in mats for n in mats)
        for m in mats:
            assert any(_compose2(m, n) == ident for n in mats)

    def test_element_fields(self):
        for e in symmetry_group():
            assert sorted(e.column_perm) == [0, 1, 2]
            assert len(e.flips) in (0, 2)
            assert 0 <= e.regge_component < 6

    def _orders(self, mats):
        ident = _identity2()
        orders = []
        for m in mats:
            k, acc = 1, m
            while acc != ident:
                acc = _compose2(acc, m)
                k += 1
            orders.append(k)
        return Counter(orders)

    def test_isomorphic_to_s3_x_s4(self):
        # order profile of S3 x S4
        s3 = list(permutations(range(3)))
        s4 = list(permutations(range(4)))

        def perm_order(p):
            k, acc = 1, p
            ident = tuple(range(len(p)))
            while acc != ident:
                acc = tuple(p[i] for i in acc)
                k += 1
            return k

        import math
        expected = Counter(
            math.lcm(perm_order(p3), perm_order(p4))
            for p3 in s3 for p4 in s4)
        assert self._orders(_matrix_set()) == expected

        # constructive isomorphism: every element permutes the four
        # triad perimeters and, independently, the three four-entry
        # sums; the induced pair of permutations is a bijection onto
        # S3 x S4 (and tautologically multiplicative), so the group is
        # the direct product
        alphas = ((1, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 1),
                  (0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 1, 0))
        betas = ((1, 1, 0, 1, 1, 0), (0, 1, 1, 0, 1, 1),
                 (1, 0, 1, 1, 0, 1))

        def act_on_forms(m, forms):
            perm = []
            for form in forms:
                image = tuple(
                    sum(form[i] * m[i][j] for i in range(6)) for j in range(6))
                halved = tuple(v // 2 for v in image)
                assert all(v % 2 == 0 for v in image)
                perm.append(forms.index(halved))
            return tuple(perm)

        images = set()
        for m in _matrix_set():
            images.add((act_on_forms(m, betas), act_on_forms(m, alphas)))
        assert len(images) == 144
        assert images == {(p3, p4) for p3 in s3 for p4 in s4}


class TestReggeTransform:
    def test_fixed_point(self):
        s = SixJ.from_twice((2,) * 6)
        assert regge_transform(s) == s

    def test_example(self):
        s = SixJ.from_twice((4, 4, 4, 2, 2, 2))
        image = regge_transform(s)
        assert image.twice_tuple() == (2, 2, 4, 4, 4, 2)
        assert sixj_value(image) == sixj_value(s)

    def test_involution(self):
        s = SixJ.from_twice((4, 2, 2, 2, 4, 2))
        assert regge_transform(s) != s
        assert regge_transform(regge_transform(s)) == s

    def test_value_invariance_grid(self):
        for t in iter_valid_sixj(4):
            s = SixJ.from_twice(t)
            assert sixj_value(regge_transform(s)) == sixj_value(s)


def _first_bad_entry(m, t):
    """(slot, doubled entry) of the first image entry of t under m that
    is odd or negative, or None when every entry is a twice-value."""
    for i, row in enumerate(m):
        v = sum(c * e for c, e in zip(row, t))
        if v % 2 or v < 0:
            return i, v
    return None


def _raised(t):
    """{element: (slot, doubled entry, message)} over the elements whose
    image of t is not a spin tuple; every other element maps t."""
    out = {}
    for g in symmetry_group():
        bad = _first_bad_entry(g.matrix2, t)
        if bad is None:
            assert len(g.apply_twice(t)) == 6
            continue
        with pytest.raises(NegativeSpinAfterTransform) as err:
            g.apply_twice(t)
        out[g] = (*bad, str(err.value))
    return out


class TestImageNotASpin:
    """apply_twice rejects an image entry that is negative or odd."""

    def test_a_negative_image(self):
        # (ady) = (4, 0, 0) fails, so no symbol has these entries
        raised = _raised((4, 0, 4, 0, 0, 0))
        assert len(raised) == 96
        assert all(v < 0 and v % 2 == 0 for _, v, _ in raised.values())

    def test_a_half_integer_image(self):
        # (abx) = (1, 2, 0) has an odd perimeter, so a Regge image entry
        # such as (b + c + d - a)/2 is half an odd number, not a
        # twice-value
        raised = _raised((1, 2, 0, 2, 2, 0))
        assert len(raised) == 96
        assert all(v % 2 for _, v, _ in raised.values())
        assert sum(v > 0 for _, v, _ in raised.values()) == 84
        assert {g.regge_component for g in raised} == {1, 2, 3, 4, 5}

    def test_the_message_names_the_slot(self):
        slots = set()
        for t in ((4, 0, 4, 0, 0, 0), (1, 2, 0, 2, 2, 0)):
            for slot, v, message in _raised(t).values():
                assert message == (
                    f"symmetry image of {t} has entry {v}/2 at slot {slot}")
                slots.add(slot)
        assert slots == set(range(6))


class TestOrbit:
    def test_total_fixed_points(self):
        assert len(symmetry_orbit(SixJ.from_twice((0,) * 6))) == 1
        assert len(symmetry_orbit(SixJ.from_twice((2,) * 6))) == 1

    def test_shared_value_and_size(self):
        s = SixJ.from_twice((4, 2, 2, 2, 2, 2))
        orbit = symmetry_orbit(s)
        assert 144 % len(orbit) == 0
        assert len({sixj_value(m) for m in orbit}) == 1

    def test_orbit_contains_symbol(self):
        s = SixJ.from_twice((3, 1, 2, 1, 3, 2))
        assert s in symmetry_orbit(s)


def iter_realizable_quadruples(max_twice):
    from spinnet.wigner import admissible_x_twice
    for t in product(range(max_twice + 1), repeat=4):
        ta, tb, tc, td = t
        if (len(admissible_x_twice(ta, tb, tc, td)) > 0
                and len(admissible_x_twice(ta, td, tb, tc)) > 0):
            yield t


class TestCanonicalize:
    def test_all_equal(self):
        q = canonicalize_quadruple(*(Spin(2),) * 4)
        assert q.twice_tuple() == (2, 2, 2, 2)
        assert q.s == Spin(4)

    def test_dihedral_relabeling_invariance(self):
        # the quadrangle's own symmetries (side relabelings preserving
        # the opposite pairs) all map to one canonical form; arbitrary
        # position swaps change the quadrangle and need not
        from spinnet.symmetry import _D4_PERMS
        base = (2, 4, 4, 6)
        results = {
            canonicalize_quadruple(
                *(Spin(base[perm[i]]) for i in range(4))).twice_tuple()
            for perm in _D4_PERMS}
        assert results == {(2, 4, 4, 6)}

    def test_idempotent(self):
        for t in iter_realizable_quadruples(6):
            q = canonicalize_quadruple(*(Spin(v) for v in t))
            again = canonicalize_quadruple(q.a, q.b, q.c, q.d)
            assert again.twice_tuple() == q.twice_tuple()

    def test_constant_on_quadruple_orbit(self):
        # dihedral relabelings and the semi-perimeter conjugate all
        # canonicalize to the same quadruple
        from spinnet.symmetry import _D4_PERMS
        for t in iter_realizable_quadruples(5):
            q = canonicalize_quadruple(*(Spin(v) for v in t))
            h = sum(t) // 2
            conj = tuple(h - v for v in t)
            for perm in _D4_PERMS:
                for img in (t, conj):
                    relabeled = tuple(img[perm[i]] for i in range(4))
                    q2 = canonicalize_quadruple(
                        *(Spin(v) for v in relabeled))
                    assert q2.twice_tuple() == q.twice_tuple()

    def test_minimum_of_eight_parameters(self):
        for t in iter_realizable_quadruples(5):
            q = canonicalize_quadruple(*(Spin(v) for v in t))
            ta, tb, tc, td = q.twice_tuple()
            ts = q.s.twice
            eight = [ta, tb, tc, td, ts - ta, ts - tb, ts - tc, ts - td]
            assert ta == min(eight)
            assert tb <= td

    def test_unrealizable_raises(self):
        with pytest.raises(UnrealizableQuadrangle):
            canonicalize_quadruple(Spin(0), Spin(0), Spin(0), Spin(4))
        with pytest.raises(UnrealizableQuadrangle):
            # odd twice-sum can never couple
            canonicalize_quadruple(Spin(1), Spin(0), Spin(0), Spin(0))

    def test_invariants_enforced_by_type(self):
        with pytest.raises(UnrealizableQuadrangle):
            CanonicalQuadruple(Spin(2), Spin(1), Spin(1), Spin(1), Spin(2))


@settings(max_examples=200)
@given(st.tuples(*(st.integers(min_value=0, max_value=10),) * 4))
def test_canonicalize_satisfies_ordering(t):
    try:
        q = canonicalize_quadruple(*(Spin(v) for v in t))
    except UnrealizableQuadrangle:
        return
    ta, tb, tc, td = q.twice_tuple()
    ts = q.s.twice
    assert ta <= tb <= td <= ts
    assert td - (tb - ta) <= tc <= td + (tb - ta)


class TestRunningRange:
    def test_equal_spins(self):
        q = canonicalize_quadruple(*(Spin(2),) * 4)
        x_min, x_max, y_min, y_max = running_range(q)
        assert (x_min.twice, x_max.twice) == (0, 4)
        assert (y_min.twice, y_max.twice) == (0, 4)

    def test_zero(self):
        q = canonicalize_quadruple(*(Spin(0),) * 4)
        x_min, x_max, _, _ = running_range(q)
        assert (x_min.twice, x_max.twice) == (0, 0)

    def test_example_widths(self):
        # canonical (1, 2, 2, 3): both running widths equal 2a = 2
        q = canonicalize_quadruple(Spin(2), Spin(4), Spin(4), Spin(6))
        x_min, x_max, y_min, y_max = running_range(q)
        assert x_max.j - x_min.j == 2 * q.a.j == 2
        assert y_max.j - y_min.j == 2

    def test_width_law_small_grid(self):
        for t in iter_realizable_quadruples(6):
            q = canonicalize_quadruple(*(Spin(v) for v in t))
            x_min, x_max, y_min, y_max = running_range(q)
            assert x_max.twice - x_min.twice == 2 * q.a.twice
            assert y_max.twice - y_min.twice == 2 * q.a.twice


class TestRegularization:
    def test_degenerate_zero_quadruple(self):
        rep = regularization_bounds(canonicalize_quadruple(*(Spin(0),) * 4))
        assert rep.rsym3_holds
        assert rep.max_r is None
        assert rep.kappa_twice is None
        assert rep.rsym5_holds is None

    def test_unit_quadruple(self):
        rep = regularization_bounds(canonicalize_quadruple(*(Spin(2),) * 4))
        assert rep.rsym3_holds          # s = 2 <= b + d = 2
        assert rep.max_r == 4
        assert rep.kappa_twice == 2
        assert rep.rsym5_holds is False  # 4 > (2*0+1) + (2*0+1)

    def test_full_report_1223(self):
        q = canonicalize_quadruple(Spin(2), Spin(4), Spin(4), Spin(6))
        rep = regularization_bounds(q)
        assert rep.to_json_dict() == {
            "rsym3_holds": True,
            "max_r": 8,
            "kappa_twice": 6,
            "rsym5_holds": True,
        }

    def test_json_schema_fields(self):
        rep = regularization_bounds(canonicalize_quadruple(*(Spin(2),) * 4))
        assert set(rep.to_json_dict()) == {
            "rsym3_holds", "max_r", "kappa_twice", "rsym5_holds"}
