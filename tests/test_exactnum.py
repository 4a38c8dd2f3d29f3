import copy
import math
import pickle
import sys
import threading
from dataclasses import astuple
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import exactnum
from spinnet.errors import IncompatibleRadicands, InvalidSpin, PhaseParityError
from spinnet.exactnum import (
    Spin,
    SqrtRational,
    factorial,
    factorial_exponents,
    factorial_primes,
    phase_from_twice,
    square_free_split,
)
from spinnet.wigner import SixJ, sixj_value_twice

from oracles import legendre_factorial_exponents


class TestSpin:
    def test_from_twice(self):
        assert Spin(0).j == 0
        assert Spin(1).j == Fraction(1, 2)
        assert Spin(4).j == 2

    def test_negative_rejected(self):
        with pytest.raises(InvalidSpin):
            Spin(-1)

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
                                      "9" * 5000, "9" * 5000 + "/2",
                                      # digits outside ASCII, and
                                      # underscores, which int() reads
                                      "\u0663", "\u0663/2", "\uff11",
                                      "1_0", "1_0/2", "+2"])
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
        two = SqrtRational(1, 2) * SqrtRational(1, 2)
        assert two == SqrtRational(2, 1)

    def test_mul_zero_absorbs(self):
        z = SqrtRational(Fraction(3, 2)) * SqrtRational(0)
        assert z == SqrtRational(0)
        assert z.radicand == 1

    def test_mul_rational_radicand(self):
        # sqrt(2/3) * sqrt(6) = sqrt(4) = 2
        prod = SqrtRational(1, Fraction(2, 3)) * SqrtRational(1, 6)
        assert prod == SqrtRational(2)

    def test_add_like_terms(self):
        total = SqrtRational(Fraction(1, 2), 3) + SqrtRational(Fraction(1, 3), 3)
        assert total == SqrtRational(Fraction(5, 6), 3)

    def test_add_zero_identity(self):
        x = SqrtRational(Fraction(7, 3), 5)
        assert x + SqrtRational(0) == x
        assert SqrtRational(0) + x == x

    def test_add_unlike_radicals_rejected(self):
        with pytest.raises(IncompatibleRadicands):
            SqrtRational(1, 2) + SqrtRational(1, 3)

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
        assert v / SqrtRational(-2, 15) == SqrtRational(Fraction(-1, 4), 3)
        assert v / Fraction(-3, 4) == SqrtRational(-2, 5)
        assert 2 * v / 3 == SqrtRational(1, 5)
        for zero in (0, Fraction(0), SqrtRational(0)):
            with pytest.raises(ZeroDivisionError):
                v / zero

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

    @pytest.mark.parametrize("text", [
        "1/0", "0/0", "1*sqrt(1/0)", "0*sqrt(0/0)", "-3/0*sqrt(2)"])
    def test_parse_rejects_with_value_error(self, text):
        # a zero denominator is malformed text like any other, not a
        # ZeroDivisionError from Fraction
        with pytest.raises(ValueError, match="cannot parse sqrt-rational"):
            SqrtRational.parse(text)

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
        size = exactnum._FACTORIAL_MEMO_SIZE
        for k in (0, 1, 7):
            assert factorial(size + k) == math.factorial(size + k)

    def test_negative(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestFactorialExponents:
    """Packed prime-exponent vectors of n!, field i the i-th prime's."""

    def test_matches_legendre(self):
        for n in (0, 1, 2, 3, 10, 97, 360, 1801):
            assert factorial_exponents(n) == legendre_factorial_exponents(n)

    def test_fields_decode_to_the_factorial(self):
        for n in (0, 1, 6, 40):
            v, out = factorial_exponents(n), 1
            for p in factorial_primes(n):
                out *= p ** (v & 0xFFFF)
                v >>= 16
            assert v == 0 and out == math.factorial(n)

    def test_cap_does_not_change_values(self):
        size = exactnum._FACTORIAL_MEMO_SIZE
        for k in (0, 1, 7):
            assert (factorial_exponents(size + k)
                    == legendre_factorial_exponents(size + k))
        assert len(exactnum._factorial_exponents) <= size
        # the sieve behind the memo is kept past it, so a larger
        # argument does not sieve again
        assert len(exactnum._sieve[0]) > size + 7

    def test_vectors_above_the_memo_are_built_on(self, monkeypatch):
        # an argument above the memo is built on from the nearest kept
        # vector at or below it; the sieve lookups of arguments >= size
        # count the factorizations
        size = exactnum._FACTORIAL_MEMO_SIZE
        factorial_exponents(size - 1)
        lpf, primes, offset = exactnum._sieve_upto(size + 400)
        looked_up = []

        class Counting(list):
            def __getitem__(self, k):
                if k >= size:
                    looked_up.append(k)
                return list.__getitem__(self, k)

        table = Counting(lpf), primes, offset
        monkeypatch.setattr(exactnum, "_sieve_upto", lambda n: table)
        monkeypatch.setattr(exactnum, "_above_memo", {})
        for n, built in ((size + 100, 101), (size + 50, 51),
                         (size + 120, 20), (size + 100, 0)):
            looked_up.clear()
            assert factorial_exponents(n) == legendre_factorial_exponents(n)
            assert len(looked_up) == built, n
        keep = exactnum._ABOVE_MEMO_KEEP
        for i in range(keep):
            factorial_exponents(size + 200 + i)
        assert list(exactnum._above_memo) == [
            size + 200 + i for i in range(keep)]

    def test_negative(self):
        with pytest.raises(ValueError):
            factorial_exponents(-1)

    def test_concurrent_growth(self, monkeypatch):
        # four threads grow an empty memo at once, one n at a time; a
        # lost or doubled append would shift every later entry
        top = 3000
        expected = [legendre_factorial_exponents(n) for n in range(top + 1)]
        monkeypatch.setattr(exactnum, "_factorial_exponents", [0, 0])
        monkeypatch.setattr(exactnum, "_sieve", ([0, 1], [], {}))
        start = threading.Barrier(4)
        results = []

        def grow():
            start.wait()
            results.append([factorial_exponents(n) for n in range(top + 1)])

        threads = [threading.Thread(target=grow) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert exactnum._factorial_exponents == expected
        assert results == [expected] * 4

    def test_concurrent_above_the_memo(self, monkeypatch):
        # four threads ask for arguments above the memo in different
        # orders; each is built on from a kept vector, and a vector kept
        # under the wrong n would shift every value built on it
        size = exactnum._FACTORIAL_MEMO_SIZE
        factorial_exponents(size - 1)
        monkeypatch.setattr(exactnum, "_above_memo", {})
        ns = [size + k for k in range(0, 400, 13)]
        expected = {n: legendre_factorial_exponents(n) for n in ns}
        start = threading.Barrier(4)
        results = []

        def ask(order):
            start.wait()
            results.append({n: factorial_exponents(n) for n in order})

        orders = [ns, ns[::-1], ns[::2] + ns[1::2], ns[1::2] + ns[::2]]
        threads = [threading.Thread(target=ask, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4
        assert len(exactnum._above_memo) == exactnum._ABOVE_MEMO_KEEP


class TestPhase:
    def test_integer_exponents(self):
        assert phase_from_twice(0) == 1
        assert phase_from_twice(2) == -1
        assert phase_from_twice(4) == 1
        assert phase_from_twice(-2) == -1

    def test_half_integer_raises(self):
        with pytest.raises(PhaseParityError):
            phase_from_twice(3)
