import copy
import math
import pickle
import sys
from dataclasses import astuple
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import exactnum
from spinnet.errors import IncompatibleRadicands, InvalidSpin, PhaseParityError
from spinnet.exactnum import (
    FactorialCache,
    Spin,
    SqrtRational,
    factorial,
    phase_from_twice,
    spin_from_twice,
    sqrt_rational_add,
    sqrt_rational_mul,
    square_free_split,
)
from spinnet.wigner import SixJ, sixj_value_twice


class TestSpin:
    def test_from_twice(self):
        assert spin_from_twice(0).j == 0
        assert spin_from_twice(1).j == Fraction(1, 2)
        assert spin_from_twice(4).j == 2

    def test_negative_rejected(self):
        with pytest.raises(InvalidSpin):
            spin_from_twice(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidSpin):
            Spin(1.5)

    def test_dimension(self):
        assert Spin(0).dimension == 1
        assert Spin(3).dimension == 4

    @pytest.mark.parametrize("text,twice", [
        ("0", 0), ("2", 4), ("3/2", 3), ("1/2", 1), (" 5/2 ", 5),
    ])
    def test_parse(self, text, twice):
        assert Spin.parse(text).twice == twice

    @pytest.mark.parametrize("text", ["-1", "3/4", "x", "1.5", "",
                                      "9" * 5000, "9" * 5000 + "/2"])
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidSpin):
            Spin.parse(text)

    def test_str_roundtrip(self):
        for t in range(12):
            s = Spin(t)
            assert Spin.parse(str(s)) == s

    def test_ordering_and_hash(self):
        assert Spin(1) < Spin(2)
        assert len({Spin(2), Spin(2), Spin(3)}) == 2


class TestSquareFreeSplit:
    @pytest.mark.parametrize("n,expected", [
        (1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (30, (1, 30)),
        (360, (6, 10)), (7 ** 4, (49, 1)),
    ])
    def test_values(self, n, expected):
        assert square_free_split(n) == expected

    @given(st.integers(min_value=1, max_value=50_000))
    def test_reconstructs(self, n):
        s, r = square_free_split(n)
        assert s * s * r == n
        # r square-free: no prime square divides it
        for p in range(2, int(math.isqrt(r)) + 1):
            assert r % (p * p) != 0


class TestSqrtRational:
    def test_mul_like_radicals(self):
        two = sqrt_rational_mul(SqrtRational(1, 2), SqrtRational(1, 2))
        assert two == SqrtRational(2, 1)

    def test_mul_zero_absorbs(self):
        z = sqrt_rational_mul(SqrtRational(Fraction(3, 2)), SqrtRational(0))
        assert z == SqrtRational(0)
        assert z.radicand == 1

    def test_mul_rational_radicand(self):
        # sqrt(2/3) * sqrt(6) = sqrt(4) = 2
        prod = sqrt_rational_mul(SqrtRational(1, Fraction(2, 3)),
                                 SqrtRational(1, 6))
        assert prod == SqrtRational(2)

    def test_add_like_terms(self):
        total = sqrt_rational_add(SqrtRational(Fraction(1, 2), 3),
                                  SqrtRational(Fraction(1, 3), 3))
        assert total == SqrtRational(Fraction(5, 6), 3)

    def test_add_zero_identity(self):
        x = SqrtRational(Fraction(7, 3), 5)
        assert sqrt_rational_add(x, SqrtRational(0)) == x
        assert sqrt_rational_add(SqrtRational(0), x) == x

    def test_add_unlike_radicals_rejected(self):
        with pytest.raises(IncompatibleRadicands):
            sqrt_rational_add(SqrtRational(1, 2), SqrtRational(1, 3))

    def test_normalization_perfect_square(self):
        assert SqrtRational(1, Fraction(9, 4)) == SqrtRational(Fraction(3, 2))
        assert SqrtRational(1, 16).radicand == 1

    def test_normalization_unique(self):
        # same value built through different radicand presentations
        a = SqrtRational(1, Fraction(2, 3))
        b = SqrtRational(Fraction(1, 3), 6)
        assert (a.coeff, a.radicand) == (b.coeff, b.radicand)

    def test_radicand_denominator_lifted(self):
        v = SqrtRational(1, Fraction(1, 2))
        assert v.radicand.denominator == 1
        assert v == SqrtRational(Fraction(1, 2), 2)

    def test_radicand_is_int(self):
        v = SqrtRational(Fraction(3, 4), Fraction(27, 8))
        assert type(v.radicand) is int and v.radicand == 6
        assert repr(v) == "SqrtRational(Fraction(9, 16), 6)"
        assert type((v * v).radicand) is int
        assert repr(SqrtRational(0, 5)) == "SqrtRational(Fraction(0, 1), 1)"

    @pytest.mark.parametrize("power", [600, 4400, 9000])
    def test_str_beyond_the_int_string_limit(self, power):
        v = SqrtRational._from_triple(-(10**power) - 1, 7**power, 2)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            c = v.coeff
            expected = f"{c.numerator}/{c.denominator}*sqrt(2/1)"
            # pieces convert under the least limit the interpreter allows
            sys.set_int_max_str_digits(640)
            assert str(v) == expected
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(v) == expected

    def test_from_triple_keeps_canonical_fields(self):
        v = SqrtRational._from_triple(-3, 70, 21)
        assert _fields(v) == (Fraction(-3, 70), 21)
        assert str(v) == "-3/70*sqrt(21/1)"
        assert SqrtRational._from_triple(0, 1, 1) == SqrtRational(0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            SqrtRational(1, -2)

    def test_division(self):
        v = SqrtRational(Fraction(3, 2), 5)
        assert v / v == SqrtRational(1)
        assert (v / SqrtRational(1, 5)) == SqrtRational(Fraction(3, 2))

    def test_str_parse_roundtrip(self):
        v = SqrtRational(Fraction(-1, 6))
        assert str(v) == "-1/6*sqrt(1/1)"
        assert SqrtRational.parse(str(v)) == v
        w = SqrtRational(Fraction(1, 30), 21)
        assert SqrtRational.parse(str(w)) == w

    def test_parse_fixture_forms(self):
        assert SqrtRational.parse("2") == SqrtRational(2)
        assert SqrtRational.parse("1*sqrt(2/3)") == SqrtRational(1, Fraction(2, 3))
        with pytest.raises(ValueError):
            SqrtRational.parse("sqrt(2)")

    def test_float_helper(self):
        assert SqrtRational(1, 2).to_float() == pytest.approx(math.sqrt(2))
        assert SqrtRational(0).to_float() == 0.0

    @staticmethod
    def _primorial(top):
        # a square-free radicand: the product of the primes <= top
        out = 1
        for n in range(2, top + 1):
            if all(n % p for p in range(2, math.isqrt(n) + 1)):
                out *= n
        return out

    @pytest.mark.parametrize("num, den, top", [
        # a radicand beyond the float range under a tiny coefficient: the
        # value itself, about 5e-246, is an ordinary float
        (1, 10 ** 400, 750),
        (-1, 10 ** 400, 750),
        # a subnormal coefficient under an ordinary radicand
        (3, 10 ** 320, 100),
        # a radicand beyond the float range, the value about 7e-9
        (1, 2 ** 541, 750),
    ])
    def test_float_outside_the_float_range(self, num, den, top):
        rad = self._primorial(top)
        value = SqrtRational._from_triple(num, den, rad).to_float()
        with localcontext() as ctx:
            ctx.prec = 60
            expected = float(Decimal(num) * Decimal(rad).sqrt() / Decimal(den))
        assert math.isclose(value, expected, rel_tol=1e-15)
        assert abs(value) >= sys.float_info.min


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


class TestCopyAndPickle:
    @pytest.mark.parametrize("how", ROUND_TRIPS)
    @pytest.mark.parametrize("value", [
        Spin(0), Spin(3), SqrtRational(0), SqrtRational(Fraction(-3, 70), 21),
        sixj_value_twice((4, 4, 4, 2, 2, 2)),
    ], ids=repr)
    def test_round_trip(self, how, value, monkeypatch):
        # the canonical fields are rebuilt as they are, never re-split
        def no_split(n):
            raise AssertionError(f"square_free_split({n}) called")
        monkeypatch.setattr(exactnum, "square_free_split", no_split)
        again = ROUND_TRIPS[how](value)
        assert again == value and type(again) is type(value)
        assert str(again) == str(value)

    def test_sixj_fields(self):
        sym = SixJ.from_twice((4, 4, 4, 2, 2, 2))
        assert astuple(sym) == tuple(Spin(t) for t in (4, 4, 4, 2, 2, 2))
        assert copy.deepcopy(sym) == sym


_coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=12)
_radicands = st.fractions(min_value=0, max_value=30, max_denominator=10)


@given(_coeffs, _radicands)
def test_normalization_idempotent(c, r):
    v = SqrtRational(c, r)
    again = SqrtRational(v.coeff, v.radicand)
    assert (again.coeff, again.radicand) == (v.coeff, v.radicand)


@given(_coeffs, _radicands, _coeffs, _radicands)
def test_mul_commutative(c1, r1, c2, r2):
    u, v = SqrtRational(c1, r1), SqrtRational(c2, r2)
    assert u * v == v * u


@settings(max_examples=60)
@given(_coeffs, _radicands, _coeffs, _radicands, _coeffs, _radicands)
def test_mul_associative(c1, r1, c2, r2, c3, r3):
    u, v, w = SqrtRational(c1, r1), SqrtRational(c2, r2), SqrtRational(c3, r3)
    assert (u * v) * w == u * (v * w)


def _fields(v):
    assert type(v.radicand) is int
    return v.coeff, v.radicand


@settings(derandomize=True, max_examples=300)
@given(_coeffs, _radicands, _coeffs, _radicands)
def test_gcd_rule_matches_split_construction(c1, r1, c2, r2):
    # products, quotients and sums keep the canonical form without
    # factoring; the public constructor factors the unreduced radicand
    u, v = SqrtRational(c1, r1), SqrtRational(c2, r2)
    assert _fields(u * v) == _fields(
        SqrtRational(u.coeff * v.coeff, u.radicand * v.radicand))
    if v:
        assert _fields(u / v) == _fields(SqrtRational(
            u.coeff / v.coeff, Fraction(u.radicand, v.radicand)))
    w = SqrtRational(c2, u.radicand)
    assert _fields(u + w) == _fields(
        SqrtRational(u.coeff + w.coeff, u.radicand))
    assert _fields(u - w) == _fields(
        SqrtRational(u.coeff - w.coeff, u.radicand))
    assert _fields(u * c2) == _fields(SqrtRational(u.coeff * c2, u.radicand))


class TestFactorial:
    def test_matches_math(self):
        for n in (0, 1, 2, 5, 13, 40):
            assert factorial(n) == math.factorial(n)

    def test_cap_does_not_change_values(self):
        small = FactorialCache(max_size=4)
        assert small(10) == math.factorial(10)
        assert len(small._table) <= 4

    def test_negative(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestPhase:
    def test_integer_exponents(self):
        assert phase_from_twice(0) == 1
        assert phase_from_twice(2) == -1
        assert phase_from_twice(4) == 1
        assert phase_from_twice(-2) == -1

    def test_half_integer_raises(self):
        with pytest.raises(PhaseParityError):
            phase_from_twice(3)
