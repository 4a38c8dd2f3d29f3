import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sixj_direct_sum, sixj_one_zero, sixj_via_threej
from spinnet import kernel
from spinnet.errors import InvalidTriads
from spinnet.exactnum import Spin, SqrtRational
from spinnet.wigner import (
    SixJ,
    TRIAD_SLOTS,
    Triad,
    admissible_x_twice,
    invalid_triads_twice,
    sixj_admissible_x,
    sixj_dimension_weight,
    sixj_or_zero,
    sixj_value,
    sixj_value_twice,
    triad_valid,
    triad_valid_twice,
)


def iter_valid_sixj(max_twice):
    for t in product(range(max_twice + 1), repeat=6):
        if all(triad_valid_twice(t[i], t[j], t[k])
               for i, j, k in TRIAD_SLOTS):
            yield t


class TestTriads:
    @pytest.mark.parametrize("triple,ok", [
        ((0, 0, 0), True),
        ((1, 1, 2), True),     # (1/2, 1/2, 1)
        ((1, 1, 1), False),    # half-integer perimeter
        ((2, 2, 6), False),    # triangle violated
        ((3, 2, 1), True),
    ])
    def test_examples(self, triple, ok):
        assert triad_valid_twice(*triple) is ok
        assert triad_valid(*(Spin(t) for t in triple)) is ok

    def test_triad_type_unordered(self):
        t1 = Triad(Spin(1), Spin(2), Spin(3))
        t2 = Triad(Spin(3), Spin(1), Spin(2))
        assert t1 == t2 and hash(t1) == hash(t2)

    def test_triad_type_rejects(self):
        with pytest.raises(InvalidTriads):
            Triad(Spin(1), Spin(1), Spin(1))


class TestAdmissibleX:
    def test_equal_integers(self):
        xs = sixj_admissible_x(Spin(2), Spin(2), Spin(2), Spin(2))
        assert [x.twice for x in xs] == [0, 2, 4]

    def test_equal_halves(self):
        xs = sixj_admissible_x(Spin(1), Spin(1), Spin(1), Spin(1))
        assert [x.twice for x in xs] == [0, 2]

    def test_mixed(self):
        # brute-force oracle over the triangle rule
        a, b, c, d = Spin(4), Spin(2), Spin(3), Spin(1)
        brute = [t for t in range(0, 9)
                 if triad_valid_twice(4, 2, t) and triad_valid_twice(3, 1, t)]
        assert [x.twice for x in sixj_admissible_x(a, b, c, d)] == brute == [2, 4]

    def test_parity_mismatch_empty(self):
        assert sixj_admissible_x(Spin(1), Spin(0), Spin(0), Spin(0)) == []

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=1, max_size=3))
    def test_any_number_of_pairs_matches_brute_force(self, pairs):
        brute = [x for x in range(26)
                 if all(triad_valid_twice(u, v, x) for u, v in pairs)]
        flat = [v for pair in pairs for v in pair]
        assert list(admissible_x_twice(*flat)) == brute


def _sq(t):
    return SixJ.from_twice(t)


class TestSixJValue:
    def test_all_zero(self):
        assert sixj_value(_sq((0,) * 6)) == SqrtRational(1)

    def test_regular_unit(self):
        # independently pinned by the 3j-contraction oracle
        v = sixj_value(_sq((2,) * 6))
        assert v == SqrtRational(Fraction(1, 6))
        assert v == sixj_via_threej((2,) * 6)

    def test_one_zero_entry_closed_form(self):
        # {a b c; 0 c b} for (a, b, c) = (1, 1, 1)
        v = sixj_value(_sq((2, 2, 2, 0, 2, 2)))
        assert v == SqrtRational(Fraction(-1, 3))
        assert v == sixj_one_zero(2, 2, 2)

    def test_irrational_value(self):
        assert sixj_value(_sq((4, 4, 4, 2, 2, 2))) == \
            SqrtRational(Fraction(1, 30), 21)

    def test_invalid_triads_raise_not_zero(self):
        with pytest.raises(InvalidTriads):
            SixJ.from_twice((1, 1, 1, 1, 1, 1))
        with pytest.raises(InvalidTriads):
            sixj_value_twice((2, 0, 0, 0, 0, 0))

    def test_or_zero_wrapper(self):
        assert sixj_or_zero(*(Spin(v) for v in (2, 0, 0, 0, 0, 0))) \
            == SqrtRational(0)
        assert sixj_or_zero(*(Spin(v) for v in (2,) * 6)) \
            == SqrtRational(Fraction(1, 6))

    def test_classical_symmetries_exhaustive_twice_5(self):
        from spinnet.symmetry import classical_group
        group = classical_group()
        for t in iter_valid_sixj(5):
            base = sixj_value_twice(t)
            for el in group:
                assert sixj_value_twice(el.apply_twice(t)) == base

    def test_radicand_is_triangle_square_free_part(self):
        from oracles import _triangle_sq
        for t in iter_valid_sixj(4):
            v = sixj_value_twice(t)
            if v.is_zero():
                continue
            ta, tb, tx, tc, td, ty = t
            prod = (_triangle_sq(ta, tb, tx) * _triangle_sq(ta, td, ty)
                    * _triangle_sq(tc, tb, ty) * _triangle_sq(tc, td, tx))
            assert v.radicand == SqrtRational.sqrt(prod).radicand


class TestDimensionWeight:
    @pytest.mark.parametrize("twice,weight", [(0, 1), (1, 2), (6, 7)])
    def test_values(self, twice, weight):
        w = sixj_dimension_weight(Spin(twice))
        assert w == Fraction(weight)
        assert isinstance(w, Fraction)


class TestKernelParity:
    """The nested (Horner) z-sum against the term-by-term direct sum."""

    @staticmethod
    def assert_matches_direct_sum(t):
        num, den, rad = kernel.sixj_raw(*t)
        s, tri = sixj_direct_sum(*t)
        assert den > 0 and rad > 0 and gcd(num, den) == 1
        assert (num > 0) - (num < 0) == (s > 0) - (s < 0)
        assert Fraction(num, den) ** 2 * rad == s * s * tri

    def test_all_small(self):
        count = 0
        for t in iter_valid_sixj(5):
            self.assert_matches_direct_sum(t)
            count += 1
        assert count > 1000

    def test_random_below_40(self):
        rng = random.Random(20160428)
        count = 0
        while count < 2000:
            ta, tb, tc, td = (rng.randrange(40) for _ in range(4))
            xs = [v for v in admissible_x_twice(ta, tb, tc, td) if v < 40]
            ys = [v for v in admissible_x_twice(tb, tc, ta, td) if v < 40]
            if xs and ys:
                self.assert_matches_direct_sum(
                    (ta, tb, rng.choice(xs), tc, td, rng.choice(ys)))
                count += 1

    @pytest.mark.parametrize("t", [
        (200,) * 6,
        (201, 201, 200, 201, 201, 200),
        (300, 302, 298, 300, 302, 304),
        (399, 401, 400, 399, 401, 398),
        (400,) * 6,
    ])
    def test_near_regular_large(self, t):
        assert not invalid_triads_twice(t)
        self.assert_matches_direct_sum(t)
