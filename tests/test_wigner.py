import math
import random
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    horner_sixj_raw,
    legendre_triangle_sqrt,
    sixj_direct_sum,
    sixj_one_zero,
    sixj_or_zero_twice,
    sixj_via_threej,
)
from spinnet import exactnum, kernel, wigner
from spinnet.errors import InvalidSpin, InvalidTriads
from spinnet.exactnum import Spin, SqrtRational
from spinnet.wigner import (
    SixJ,
    admissible_x_twice,
    invalid_triads_twice,
    sixj_value,
    sixj_value_twice,
    triad_valid_twice,
)
from spinnet.symmetry import symmetry_orbit


def iter_valid_sixj(max_twice):
    # every valid symbol with all twice-values <= max_twice, in the
    # lexicographic order of the six-tuple: y runs over the range that
    # (b c y) and (a d y) admit, so the full product is never filtered
    r = range(max_twice + 1)
    for ta, tb, tx in product(r, r, r):
        if triad_valid_twice(ta, tb, tx):
            for tc, td in product(r, r):
                if triad_valid_twice(tc, td, tx):
                    for ty in admissible_x_twice(tb, tc, ta, td):
                        if ty > max_twice:
                            break
                        yield ta, tb, tx, tc, td, ty


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


class TestAdmissibleX:
    def test_equal_integers(self):
        assert list(admissible_x_twice(2, 2, 2, 2)) == [0, 2, 4]

    def test_equal_halves(self):
        assert list(admissible_x_twice(1, 1, 1, 1)) == [0, 2]

    def test_mixed(self):
        # brute-force oracle over the triangle rule
        brute = [t for t in range(0, 9)
                 if triad_valid_twice(4, 2, t) and triad_valid_twice(3, 1, t)]
        assert list(admissible_x_twice(4, 2, 3, 1)) == brute == [2, 4]

    def test_parity_mismatch_empty(self):
        assert list(admissible_x_twice(1, 0, 0, 0)) == []

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
        assert sixj_or_zero_twice((2, 0, 0, 0, 0, 0)) == SqrtRational(0)
        assert sixj_or_zero_twice((2,) * 6) == SqrtRational(Fraction(1, 6))

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


class TestSixJValueTwiceInput:
    """sixj_value_twice takes any sequence of six non-negative ints."""

    def test_any_sequence_of_six_ints(self):
        expected = SqrtRational(Fraction(1, 6))
        assert sixj_value_twice([2] * 6) == expected
        assert sixj_value_twice(v for v in (2,) * 6) == expected

    def test_float_entry_rejected_even_when_cached(self):
        bad = (2, 2, 2, 2, 2, 2.0)
        with pytest.raises(InvalidSpin):
            sixj_value_twice(bad)
        sixj_value_twice((2,) * 6)
        with pytest.raises(InvalidSpin):
            sixj_value_twice(bad)

    @pytest.mark.parametrize("t", [
        (2, 2, 2, 2, 2),                   # five entries
        (2,) * 7,                          # seven entries
        (True, True, 0, True, True, 0),    # bools are not twice-values
        (1, 1, 0, 1, 1, -2),               # negative
        "222222",
        None,
        6,
    ])
    def test_rejected_as_invalid_spin(self, t):
        with pytest.raises(InvalidSpin):
            sixj_value_twice(t)


def _triads(t):
    ta, tb, tx, tc, td, ty = t
    return (ta, tb, tx), (ta, td, ty), (tc, tb, ty), (tc, td, tx)


def _near_regular(rng, twice, count):
    # symbols with every entry within a few units of twice, x and y
    # drawn from their admissible ranges
    out = []
    while len(out) < count:
        ta, tb, tc, td = (max(0, twice + rng.randrange(-3, 4))
                          for _ in range(4))
        xs = [v for v in admissible_x_twice(ta, tb, tc, td)
              if abs(v - twice) <= 6]
        ys = [v for v in admissible_x_twice(tb, tc, ta, td)
              if abs(v - twice) <= 6]
        if xs and ys:
            out.append((ta, tb, rng.choice(xs), tc, td, rng.choice(ys)))
    return out


class TestTriangleSqrt:
    """The kernel's (den, rad) of the four triangle coefficients, read off
    packed factorial exponent vectors, against Legendre's formula."""

    @staticmethod
    def assert_matches_legendre(symbols):
        for t in symbols:
            triads = _triads(t)
            assert (kernel._triangle_sqrt(triads)
                    == legendre_triangle_sqrt(triads)), t

    def test_every_symbol_to_twice_8(self):
        symbols = list(iter_valid_sixj(8))
        assert len(symbols) == 13691
        self.assert_matches_legendre(symbols)

    def test_near_regular_to_twice_1200(self):
        rng = random.Random(1504)
        self.assert_matches_legendre(
            _near_regular(rng, rng.randrange(1, 1201), 1)[0]
            for _ in range(150))

    def test_twice_4000(self):
        self.assert_matches_legendre(
            [(4000,) * 6, (4000, 3999, 3999, 4000, 3999, 3999)]
            + _near_regular(random.Random(4000), 4000, 3))

    def test_powers_of_two(self):
        # every g is 2048 and n + 1 = 6145, which maximizes the exponent
        # of 2 among the symbols of its size
        self.assert_matches_legendre([(4096,) * 6])

    def test_past_the_memo_cap(self):
        t = (6700,) * 6
        assert 3 * 6700 // 2 + 1 >= exactnum._FACTORIAL_MEMO_SIZE
        self.assert_matches_legendre([t])


def _steps(t):
    # zmax - zmin, the number of ratio steps of the z-sum
    ta, tb, tx, tc, td, ty = t
    return (min(ta + tb + tc + td, tb + tx + td + ty, tx + ta + ty + tc) // 2
            - max(ta + tb + tx, ta + td + ty, tc + tb + ty, tc + td + tx) // 2)


def _regular_with_steps(s):
    # two symbols with exactly s ratio steps: {s s s; s s s} in spins,
    # and one with half-integer a, b, c, d
    return [(2 * s,) * 6, (2 * s + 1, 2 * s + 1, 2 * s, 2 * s + 1, 2 * s + 1,
                           2 * s)]


def _tree_product(factors):
    # the product, halving the list each round; a running product of
    # thousands of prime powers would take quadratic time
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2])
                   for i in range(0, len(factors), 2)]
    return math.prod(factors)


def _skewed(rng, twice):
    # a, b, c, d drawn from [twice/4, twice], x and y from their ranges
    while True:
        ta, tb, tc, td = (rng.randint(twice // 4, twice) for _ in range(4))
        xs = admissible_x_twice(ta, tb, tc, td)
        ys = admissible_x_twice(tb, tc, ta, td)
        if xs and ys:
            return ta, tb, rng.choice(xs), tc, td, rng.choice(ys)


class TestLargePath:
    """The kernel's large path, binary splitting of the z-sum and the
    prefactor read off packed exponent vectors, against the Horner z-sum
    with the multiplied-out factorial prefactor: equal triples."""

    def test_every_symbol_to_twice_10(self):
        count = zeros = 0
        for t in iter_valid_sixj(10):
            expected = horner_sixj_raw(*t)
            assert kernel.sixj_raw(*t) == expected, t
            # the large routine directly, on symbols far below its size,
            # n == 0 among them
            assert kernel._sixj_large(*t) == expected, t
            count += 1
            zeros += expected[0] == 0
        assert (count, zeros) == (42393, 202)

    @pytest.mark.parametrize("steps", sorted({
        0, 1, kernel._BLOCK - 1, kernel._BLOCK, kernel._BLOCK + 1,
        2 * kernel._BLOCK, 2 * kernel._BLOCK + 1, 2 * kernel._BLOCK + 2,
        4 * kernel._BLOCK + 3}))
    def test_block_boundaries(self, steps):
        # the split halves the range at its root, so runs shorter than,
        # equal to and longer than a block reach the plain loop
        for t in _regular_with_steps(steps):
            assert _steps(t) == steps
            assert kernel._sixj_large(*t) == horner_sixj_raw(*t), t

    def test_path_switches_at_the_size_constant(self, monkeypatch):
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        below = _regular_with_steps(kernel._SPLIT_STEPS - 1)
        above = _regular_with_steps(kernel._SPLIT_STEPS)
        for t in below + above:
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t
        assert ran == above
        # from _PACKED_STEPS up the Horner path runs again; its real
        # value puts the symbols past twice 32000, so it is lowered here
        monkeypatch.setattr(kernel, "_PACKED_STEPS", kernel._SPLIT_STEPS + 1)
        ran.clear()
        beyond = _regular_with_steps(kernel._SPLIT_STEPS + 1)
        for t in above + beyond:
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t
        assert ran == above

    def test_seeded_symbols_200_to_4000(self):
        rng = random.Random(2011)
        symbols = []
        for _ in range(12):
            twice = round(200 * 20 ** rng.random())
            symbols += _near_regular(rng, twice, 1)
            symbols.append(_skewed(rng, twice))
        large = sum(_steps(t) >= kernel._SPLIT_STEPS for t in symbols)
        assert 0 < large < len(symbols)
        for t in symbols:
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t

    @pytest.mark.parametrize("twice", [4096, 6700, 8000])
    def test_large_regular(self, twice):
        # 4096: every factorial argument a power of two; 6700 and 8000:
        # perimeters past the exponent memo's cap
        t = (twice,) * 6
        assert kernel.sixj_raw(*t) == horner_sixj_raw(*t)

    def test_worst_case_prefactor_fields(self, monkeypatch):
        # The prefactor's exponent of 2 is the most negative field: about
        # -4 * steps.  At the largest step count the packed path admits it
        # comes within 2**11 of -_BIAS and still decodes exactly; the
        # z-sum is replaced by n = 1, so only the prefactor is checked.
        from oracles import _legendre, _primes_upto
        steps = kernel._PACKED_STEPS - 1
        assert 4 * steps + 36 <= kernel._BIAS
        assert 1 + 7 * 36 < 2**16 - kernel._BIAS
        t = (2 * steps,) * 6
        zmin, zmax = 3 * steps, 4 * steps
        args = [steps] * 7     # zmax - a_i and b_j - zmin
        triads = _triads(t)
        monkeypatch.setattr(kernel, "_zsum", lambda *_: 1)
        ups, downs, rad = [], [], 1
        for p in _primes_upto(zmin + 1):
            f = _legendre(zmin + 1, p) - sum(_legendre(m, p) for m in args)
            if p == 2:
                assert -kernel._BIAS <= f < -kernel._BIAS + 2**11
            e = 0
            for t1, t2, t3 in triads:
                n = (t1 + t2 + t3) // 2
                e += _legendre(n + 1, p) - sum(
                    _legendre(n - g, p) for g in (t1, t2, t3))
            k = f - (e + 1) // 2
            if e % 2:
                rad *= p
            (ups if k > 0 else downs).append(p ** abs(k))
        assert zmin % 2 == 1
        assert kernel._sixj_large(*t) == (-_tree_product(ups),
                                          _tree_product(downs), rad)


def _thin_with_steps(twice, s):
    # {j j s; j j s} and a near-thin neighbour {j j+1/2 s+1/2; j j+1/2
    # s+1/2}, in twice-values, each with exactly s ratio steps and
    # zmin = j + s/2 (+ 1/2), so twice fixes where zmin + 1 lies
    return [(twice, twice, 2 * s, twice, twice, 2 * s),
            (twice, twice + 1, 2 * s + 1, twice, twice + 1, 2 * s + 1)]


class TestThinAboveTheMemo:
    """Symbols with few steps whose (zmin+1)! lies past the factorial
    memo take the large path, which never multiplies a factorial out;
    their triples equal the Horner reference."""

    @pytest.mark.parametrize("twice", [9998, 10001, 12000])
    @pytest.mark.parametrize("steps", [0, 1, 2, 99])
    def test_against_horner(self, twice, steps):
        for t in _thin_with_steps(twice, steps):
            assert _steps(t) == steps
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t

    def test_path_switches_at_the_memo(self, monkeypatch):
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        # zmin + 1 is 9999 and 10000: one below the memo's size, one at it
        below = (9998, 9998, 0, 9998, 9998, 0)
        at = (9998, 9998, 2, 9998, 9998, 2)
        assert exactnum._FACTORIAL_MEMO_SIZE == 10_000
        for t in (below, at):
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t
        assert ran == [at]


def _clear_spinnet_caches():
    # every module-level object of a spinnet module with a cache_clear,
    # the sweep the benchmark makes before each pass
    for name, module in list(sys.modules.items()):
        if name == "spinnet" or name.startswith("spinnet."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


class TestOrbitCache:
    """The value cache's second level, keyed by the sorted triad and pair
    sums: the key names a Regge orbit exactly, and the kernel's value on
    the orbit's representative is the value of every member."""

    def test_key_classes_are_the_regge_orbits(self):
        key_of = wigner._sixj_cached.__wrapped__
        rep_of = wigner._sixj_orbit.__wrapped__
        classes = defaultdict(set)
        with pytest.MonkeyPatch.context() as mp:
            # the key a miss hands _sixj_orbit, and the symbol _sixj_orbit
            # hands the kernel
            mp.setattr(wigner, "_sixj_orbit", lambda key: key)
            mp.setattr(kernel, "sixj_raw", lambda *t: t)
            for t in iter_valid_sixj(6):
                classes[key_of(t)].add(t)
            reps = {key: rep_of(key) for key in classes}
            # the representative may leave the window, but not its class
            assert all(key_of(rep) == key for key, rep in reps.items())
        assert sum(map(len, classes.values())) == 3418
        assert len(classes) == 217
        for key, members in classes.items():
            orbit = {s.twice_tuple()
                     for s in symmetry_orbit(SixJ.from_twice(reps[key]))}
            assert {t for t in orbit if max(t) <= 6} == members, key

    def test_every_symbol_to_twice_8(self):
        _clear_spinnet_caches()
        for t in iter_valid_sixj(8):
            assert wigner._sixj_cached(t) == kernel.sixj_raw(*t), t
        assert wigner._sixj_orbit.cache_info().currsize == 630

    def test_large_symbols_on_both_paths(self):
        rng = random.Random(2000)
        symbols = []
        for _ in range(25):
            twice = rng.randint(200, 2000)
            symbols += _near_regular(rng, twice, 1) + [_skewed(rng, twice)]
            symbols += _thin_with_steps(twice, rng.randrange(6))
        paths = {_steps(t) >= kernel._SPLIT_STEPS for t in symbols}
        assert paths == {False, True}
        _clear_spinnet_caches()
        for t in symbols:
            assert wigner._sixj_cached(t) == kernel.sixj_raw(*t), t

    def test_a_cleared_cache_runs_the_kernel_again(self, monkeypatch):
        calls = []
        raw = kernel.sixj_raw
        monkeypatch.setattr(kernel, "sixj_raw",
                            lambda *t: calls.append(t) or raw(*t))
        t, image = (2, 3, 3, 4, 3, 1), (3, 2, 3, 3, 4, 1)
        _clear_spinnet_caches()
        value = wigner._sixj_cached(t)
        assert len(calls) == 1
        # the image swaps two columns: an exact miss, but an orbit hit
        assert wigner._sixj_cached(t) == wigner._sixj_cached(image) == value
        assert len(calls) == 1
        _clear_spinnet_caches()
        assert wigner._sixj_cached(image) == value
        assert len(calls) == 2


class TestDimensionWeight:
    # the weight 2j + 1 of the identity sums is the irrep dimension
    @pytest.mark.parametrize("twice,weight", [(0, 1), (1, 2), (6, 7)])
    def test_values(self, twice, weight):
        w = Spin(twice).dimension
        assert w == weight
        assert type(w) is int


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
