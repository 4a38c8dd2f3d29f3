import math
import random
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gcd_prefactor_triple,
    horner_sixj_raw,
    legendre_prefactor_denominator,
    legendre_triangle_sqrt,
    racah_sum,
    schulten_gordon_residual,
    sixj_direct_sum,
    sixj_one_zero,
    sixj_or_zero_twice,
    sixj_via_threej,
    unreduced_zsum,
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
from spinnet.symmetry import symmetry_group, symmetry_orbit


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

    @pytest.mark.parametrize("args", [(), (1,), (1, 1, 2), (2, 2, 2, 2, 2)],
                             ids=len)
    def test_no_pair_or_an_unpaired_value_raises_type_error(self, args):
        # an unpaired value is not dropped, and () is no IndexError
        with pytest.raises(TypeError, match=f"got {len(args)} arguments"):
            admissible_x_twice(*args)


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

    @pytest.mark.parametrize("t", [(24,) * 6, (24, 20, 22, 18, 26, 24),
                                   (40,) * 6])
    def test_threej_oracle_at_twice_24_to_40(self, t):
        # the independent 3j contraction, well above criterion 10's grid
        assert sixj_value_twice(t) == sixj_via_threej(t)

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
            if not v:
                continue
            ta, tb, tx, tc, td, ty = t
            prod = (_triangle_sq(ta, tb, tx) * _triangle_sq(ta, td, ty)
                    * _triangle_sq(tc, tb, ty) * _triangle_sq(tc, td, tx))
            assert v.radicand == SqrtRational(1, prod).radicand


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
            assert (kernel._triangle_sqrt(*_racah_args(t))
                    == legendre_triangle_sqrt(_triads(t))), t

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


def _racah_args(t):
    # the four triad perimeters a_i and three four-spin sums b_j of t
    ta, tb, tx, tc, td, ty = t
    return (((ta + tb + tx) // 2, (ta + td + ty) // 2,
             (tc + tb + ty) // 2, (tc + td + tx) // 2),
            ((ta + tb + tc + td) // 2, (tb + tx + td + ty) // 2,
             (tx + ta + ty + tc) // 2))


def _steps(t):
    # zmax - zmin, the number of ratio steps of the z-sum
    a, b = _racah_args(t)
    return min(b) - max(a)


def _zmin(t):
    # the largest triad perimeter, on which sixj_raw picks its path
    return max(_racah_args(t)[0])


def _large(t):
    # whether sixj_raw sends t to the large path
    return _zmin(t) >= kernel._LARGE_ZMIN


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


def _seeded_200_to_4000():
    # near-regular and skewed symbols, twice 200 to 4000 log-uniform
    rng = random.Random(2011)
    symbols = []
    for _ in range(12):
        twice = round(200 * 20 ** rng.random())
        symbols += _near_regular(rng, twice, 1)
        symbols.append(_skewed(rng, twice))
    return symbols


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
            assert kernel._sixj_large(*_racah_args(t)) == expected, t
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
            assert (kernel._sixj_large(*_racah_args(t))
                    == horner_sixj_raw(*t)), t

    def test_path_switches_at_the_size_constant(self, monkeypatch):
        # zmin is _LARGE_ZMIN - 1 or _LARGE_ZMIN, whatever the number of
        # ratio steps: thin symbols with 0 to 3 steps and regular ones
        # with 99 and 100
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        top = kernel._LARGE_ZMIN
        symbols = [t for s in range(4)
                   for t in _thin_with_steps(top - 1 - s, s)]
        symbols += _regular_with_steps(99) + _regular_with_steps(100)
        assert {_zmin(t) for t in symbols} >= {top - 1, top}
        for t in symbols:
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t
        above = [t for t in symbols if _zmin(t) >= top]
        assert 0 < len(above) < len(symbols)
        assert ran == [_racah_args(t) for t in above]
        # no step count sends a symbol back to the Horner path: the
        # column through {16001 x6} has 16000 and 16001 ratio steps
        ran.clear()
        t = (2 * 16001,) * 6
        assert _steps(t) == 16001
        assert _column_residual(t) == 0
        assert len(ran) == 3
        assert sorted(min(b) - max(a) for a, b in ran) == [16000, 16000,
                                                           16001]

    def test_seeded_symbols_200_to_4000(self):
        symbols = _seeded_200_to_4000()
        large = sum(map(_large, symbols))
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
        # The signed vector's fields are k = f - ceil(e/2), f p's exponent
        # in c_zmin and e in the triangle part.  With the bracket replaced
        # by 1, the value is prod p^k times sqrt(rad), so the triple gives
        # every field: each must be Legendre's, with f in 0..253 and
        # ceil(e/2) below 2**9, so that k + 0x8000 decodes.  Twice 4096:
        # every factorial argument a power of two; 2 * 16001: the largest
        # step count tested
        from oracles import _legendre, _primes_upto
        monkeypatch.setattr(kernel, "_zsum", lambda *_: (1, 1))
        for t in [(4096,) * 6, (4097, 4095, 4096, 4097, 4095, 4096),
                  (2 * 16001,) * 6]:
            a, b = _racah_args(t)
            zmin = max(a)
            args = [zmin - x for x in a] + [x - zmin for x in b]
            fs, halves, ups, downs, rad = [], [], [], [], 1
            for p in _primes_upto(zmin + 1):
                f = _legendre(zmin + 1, p) - sum(_legendre(m, p)
                                                 for m in args)
                e = 0
                for t1, t2, t3 in _triads(t):
                    n = (t1 + t2 + t3) // 2
                    e += _legendre(n + 1, p) - sum(
                        _legendre(n - g, p) for g in (t1, t2, t3))
                fs.append(f)
                halves.append((e + 1) // 2)
                k = f - (e + 1) // 2
                if e % 2:
                    rad *= p
                (ups if k > 0 else downs).append(p ** abs(k))
            assert 0 <= min(fs) and max(fs) <= 253, t
            assert 0 <= min(halves) and max(halves) < 2**9, t
            num = _tree_product(ups)
            assert kernel._sixj_large(a, b) == (
                -num if zmin % 2 else num, _tree_product(downs), rad), t


class TestReducedZsum:
    """The large path's z-sum cancels a common factor at every merge:
    its (n, d) is the unreduced binary-split n over the full
    Q = prod_i (zmax-a_i)!/(zmin-a_i)!, and d divides Q."""

    @staticmethod
    def assert_matches_unreduced(symbols):
        for t in symbols:
            a, b = _racah_args(t)
            zmin, zmax = max(a), min(b)
            n, d = kernel._zsum(zmin, zmax, a, b)
            full = 1
            for x in a:
                full *= math.factorial(zmax - x) // math.factorial(zmin - x)
            assert full % d == 0, t
            assert n * full == unreduced_zsum(t) * d, t

    def test_every_symbol_to_twice_10(self):
        self.assert_matches_unreduced(iter_valid_sixj(10))

    def test_seeded_symbols_200_to_4000(self):
        self.assert_matches_unreduced(_seeded_200_to_4000())


class TestPrefactorAgainstTheGcdPath:
    """The large path, a reduced z-sum and one signed exponent vector read
    by bit planes, against the former per-prime loop, balanced products
    and gcd on the unreduced z-sum: equal triples."""

    @staticmethod
    def assert_matches_gcd_path(symbols):
        for t in symbols:
            n = unreduced_zsum(t)
            # the prefactor's denominator divides n exactly
            assert n % legendre_prefactor_denominator(t) == 0, t
            assert (kernel._sixj_large(*_racah_args(t))
                    == gcd_prefactor_triple(t, n)), t

    def test_seeded_symbols_200_to_4000(self):
        rng = random.Random(1702)
        symbols = []
        for _ in range(10):
            twice = round(200 * 20 ** rng.random())
            symbols += _near_regular(rng, twice, 1)
            symbols.append(_skewed(rng, twice))
        symbols += _near_regular(rng, 4000, 1)
        assert max(map(max, symbols)) >= 3800
        self.assert_matches_gcd_path(symbols)

    @pytest.mark.parametrize("steps", [99, 100, 101])
    def test_across_the_split_switch(self, steps):
        # 99 to 101 steps; zmin is 297 to 304, across _LARGE_ZMIN
        symbols = _regular_with_steps(steps)
        assert {_steps(t) for t in symbols} == {steps}
        self.assert_matches_gcd_path(symbols)

    @pytest.mark.parametrize("twice", [9999, 10001, 12000])
    def test_thin_past_the_memo(self, twice):
        symbols = [t for s in (0, 1, 2, 99)
                   for t in _thin_with_steps(twice, s)]
        # zmin + 1 at or past the exponent-vector memo's size
        assert min(max(_racah_args(t)[0]) for t in symbols) + 1 >= 10_000
        self.assert_matches_gcd_path(symbols)


class TestReggeArray:
    """Below sixj_raw the kernel reads only the Regge array (a, b), whose
    a_i and b_j the 144 symmetries permute: the large path and the
    triangle part give sixj_raw's value and Legendre's (den, rad) on
    shuffles of a and b."""

    SHUFFLES = list(product(permutations(range(4)), permutations(range(3))))

    def assert_shuffles_agree(self, symbols, per_symbol):
        rng = random.Random(144)
        for t in symbols:
            value = kernel.sixj_raw(*t)
            tri = legendre_triangle_sqrt(_triads(t))
            a, b = _racah_args(t)
            for pa, pb in rng.sample(self.SHUFFLES, per_symbol):
                sa = tuple(a[i] for i in pa)
                sb = tuple(b[j] for j in pb)
                assert kernel._sixj_large(sa, sb) == value, (t, sa, sb)
                assert kernel._triangle_sqrt(sa, sb) == tri, (t, sa, sb)

    def test_every_symbol_to_twice_8(self):
        symbols = list(iter_valid_sixj(8))
        assert len(symbols) == 13691
        self.assert_shuffles_agree(symbols, 2)

    def test_seeded_symbols_200_to_4000(self):
        symbols = _seeded_200_to_4000()
        assert set(map(_large, symbols)) == {False, True}
        self.assert_shuffles_agree(symbols, 6)


def _thin_with_steps(twice, s):
    # {j j s; j j s} and a near-thin neighbour {j j+1/2 s+1/2; j j+1/2
    # s+1/2}, in twice-values, each with exactly s ratio steps and
    # zmin = j + s/2 (+ 1/2), so twice fixes where zmin + 1 lies
    return [(twice, twice, 2 * s, twice, twice, 2 * s),
            (twice, twice + 1, 2 * s + 1, twice, twice + 1, 2 * s + 1)]


class TestThinAboveTheMemo:
    """Symbols with few steps whose zmin + 1 lies past the exponent-vector
    memo take the large path, as every symbol with zmin >= _LARGE_ZMIN
    does; their triples equal the Horner reference."""

    @pytest.mark.parametrize("twice", [9998, 10001, 12000])
    @pytest.mark.parametrize("steps", [0, 1, 2, 99])
    def test_against_horner(self, twice, steps):
        for t in _thin_with_steps(twice, steps):
            assert _steps(t) == steps
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t

    def test_one_path_across_the_memo(self, monkeypatch):
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        # zmin + 1 is 9999 and 10000: one below the memo's size, one at
        # it, and both on the large path
        below = (9998, 9998, 0, 9998, 9998, 0)
        at = (9998, 9998, 2, 9998, 9998, 2)
        assert exactnum._FACTORIAL_MEMO_SIZE == 10_000
        for t in (below, at):
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t
        assert ran == [_racah_args(below), _racah_args(at)]


def _column_residual(t, image=None):
    # the Schulten-Gordon residual at x of the column through t, from the
    # kernel's values at x - 1, x and x + 1, each read through image
    ta, tb, tx, tc, td, ty = t
    sums = []
    for v in (tx - 2, tx, tx + 2):
        s = (ta, tb, v, tc, td, ty)
        sums.append(racah_sum(s, kernel.sixj_raw(*(image or tuple)(s))))
    return schulten_gordon_residual(t, *sums)


def _interior(t):
    # t with x - 1 and x + 1 also on its column
    xs = admissible_x_twice(t[0], t[1], t[3], t[4])
    return t[2] in xs[1:-1]


class TestSchultenGordonOracle:
    """Kernel values on three orbits, at x - 1, x and x + 1 of a column,
    satisfy the three-term recurrence exactly: an oracle independent of
    the Racah sum, at spins the 3j contraction cannot reach.  Each value
    must first give back a rational Racah sum."""

    def test_every_interior_point_to_twice_6(self):
        count = 0
        for t in iter_valid_sixj(6):
            if _interior(t) and t[2] + 2 <= 6:
                assert _column_residual(t) == 0, t
                count += 1
        assert count == 533

    def test_a_wrong_value_fails(self):
        # a wrong radicand leaves no rational Racah sum; a wrong sign or
        # scale on one value of the three breaks the recurrence
        t = (400, 400, 200, 400, 400, 400)
        num, den, rad = kernel.sixj_raw(*t)
        with pytest.raises(ValueError):
            racah_sum(t, (num, den, 2 * rad))
        below, at, above = (racah_sum(s, kernel.sixj_raw(*s)) for s in (
            (400, 400, 198, 400, 400, 400), t, (400, 400, 202, 400, 400, 400)))
        assert at != 0
        assert schulten_gordon_residual(t, below, at, above) == 0
        assert schulten_gordon_residual(t, below, -at, above) != 0
        assert schulten_gordon_residual(t, below, 2 * at, above) != 0

    @pytest.mark.parametrize("column", [(200, 200, 200, 200, 20),
                                        (201, 201, 201, 201, 40)])
    def test_across_the_split_switch(self, column, monkeypatch):
        # zmin = (a + b + x)/2 along these columns once x is large, so
        # two centres put one or two of their three symbols on each path
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        ta, tb, tc, td, ty = column
        centres = 0
        for tx in admissible_x_twice(ta, tb, tc, td)[1:-1]:
            zmins = [_zmin((ta, tb, v, tc, td, ty))
                     for v in (tx - 2, tx, tx + 2)]
            if min(zmins) < kernel._LARGE_ZMIN <= max(zmins):
                t = (ta, tb, tx, tc, td, ty)
                ran.clear()
                assert _column_residual(t) == 0, t
                assert 0 < len(ran) < 3
                centres += 1
        assert centres == 2

    @pytest.mark.parametrize("t", [(9998, 9998, 2, 9998, 9998, 0),
                                   (9997, 9997, 4, 9997, 9997, 0)])
    def test_across_the_memo_switch(self, t, monkeypatch):
        # no ratio steps; zmin + 1 is 9999, 10000 and 10001 along x,
        # across the exponent-vector memo's size, and all three symbols
        # take the large path
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        assert exactnum._FACTORIAL_MEMO_SIZE == 10_000
        assert _column_residual(t) == 0
        assert len(ran) == 3

    def test_seeded_columns_200_to_1200(self):
        # near-regular and skewed symbols at the sizes of the sixj_cold
        # benchmark; each column is checked directly and again through a
        # Regge image of each of its symbols, whose triads differ but whose
        # value must not
        rng = random.Random(1975)
        regge = [e for e in symmetry_group() if e.regge_component]
        symbols = []
        for _ in range(16):
            twice = round(200 * 6 ** rng.random())
            t = _near_regular(rng, twice, 1)[0]
            while not _interior(t):
                t = _near_regular(rng, twice, 1)[0]
            symbols.append(t)
            ta, tb, _, tc, td, ty = _skewed(rng, twice)
            xs = admissible_x_twice(ta, tb, tc, td)
            if len(xs) > 2:
                symbols.append((ta, tb, rng.choice(xs[1:-1]), tc, td, ty))
        assert sum(map(_large, symbols)) >= 8
        for t in symbols:
            assert _column_residual(t) == 0, t
            assert _column_residual(t, rng.choice(regge).apply_twice) == 0, t

    def test_near_regular_columns_at_twice_4000(self):
        # the size limit of the CLI, about 2000 ratio steps
        rng = random.Random(4000)
        regge = [e for e in symmetry_group() if e.regge_component]
        for t in [(4000,) * 6] + _near_regular(rng, 4000, 2):
            assert _interior(t), t
            assert _column_residual(t) == 0, t
            assert _column_residual(t, rng.choice(regge).apply_twice) == 0, t


def _thin_one_small(rng, twice):
    # a, b, c, d and x near twice, y among the three smallest it admits:
    # few ratio steps and a large multinomial prefactor
    while True:
        ta, tb, tx, tc, td, _ = _near_regular(rng, twice, 1)[0]
        ys = admissible_x_twice(tb, tc, ta, td)
        if ys:
            return ta, tb, tx, tc, td, rng.choice(ys[:3])


class TestAcrossTheZminSwitch:
    """Seeded symbols of four shapes with zmin within 40 of _LARGE_ZMIN,
    on both sides of it: each takes the path its zmin names, equals the
    Horner reference, and satisfies the column recurrence."""

    SHAPES = {
        "near-regular": lambda rng, z: _near_regular(rng, 2 * z // 3, 1)[0],
        "skewed": lambda rng, z: _skewed(rng, rng.randint(z // 2, z)),
        "thin": lambda rng, z: _thin_one_small(rng, 2 * z // 3),
        "two small spins": lambda rng, z: _thin_with_steps(
            z - 3, rng.randrange(4))[rng.randrange(2)],
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_seeded_symbols(self, shape, monkeypatch):
        rng = random.Random(300)
        top = kernel._LARGE_ZMIN
        below, above = [], []
        while len(below) < 4 or len(above) < 4:
            t = self.SHAPES[shape](rng, rng.randint(top - 40, top + 40))
            if top - 40 <= _zmin(t) < top and len(below) < 4:
                below.append(t)
            elif top <= _zmin(t) < top + 40 and len(above) < 4:
                above.append(t)
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *t: ran.append(t) or large(*t))
        for t in below + above:
            assert kernel.sixj_raw(*t) == horner_sixj_raw(*t), t
        assert ran == [_racah_args(t) for t in above]
        interior = [t for t in below + above if _interior(t)]
        assert len(interior) >= 4
        for t in interior:
            assert _column_residual(t) == 0, t


def _from_regge(a, b):
    # the symbol, in twice-values, whose Regge array is (a, b): each
    # entry is a sum of two triangle arguments b_j - a_i
    a1, a2, a3, a4 = a
    b1, b2, b3 = b
    return (a1 + a2 - b2, a1 + a3 - b3, a1 + a4 - b1,
            a3 + a4 - b2, a2 + a4 - b3, a2 + a3 - b1)


def _one_step(u, v):
    # the Regge array with u_i = zmin + 1 - a_i (u_4 = 1) and
    # v_j = b_j - zmin (v_1 = 1), from u = (u1, u2, u3), v = (v2, v3):
    # sum a = sum b makes zmin = u1 + u2 + u3 + v2 + v3 - 2
    zmin = sum(u) + sum(v) - 2
    a = tuple(zmin + 1 - ui for ui in (*u, 1))
    b = tuple(zmin + vj for vj in (1, *v))
    t = _from_regge(a, b)
    assert _racah_args(t) == (a, b)
    return zmin, t


class TestOneStepZeros:
    """A symbol with one ratio step is zero exactly when its two terms
    cancel: (u1 + u2 + u3 + v2 + v3) v2 v3 = u1 u2 u3.  Solving for u3
    gives exact zeros at any size, far beyond every acceptance grid; the
    neighbours u3 - 1 and u3 + 1 are not zeros.  All take the large
    path."""

    # (u1, u2, v2, v3); zmin from 310 to 9761201
    SEEDS = [(12, 13, 11, 12), (9, 59, 27, 17), (49, 22, 33, 31),
             (88, 65, 63, 88), (84, 45, 93, 40), (91, 109, 38, 260),
             (610, 936, 850, 670), (538, 3799, 1334, 1531)]

    @staticmethod
    def solve(u1, u2, v2, v3):
        # the u3 that cancels the two terms
        top = (u1 + u2 + v2 + v3) * v2 * v3
        u3, rest = divmod(top, u1 * u2 - v2 * v3)
        assert rest == 0
        return u3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zeros(self, seed, monkeypatch):
        u1, u2, v2, v3 = seed
        zmin, t = _one_step((u1, u2, self.solve(*seed)), (v2, v3))
        assert _steps(t) == 1
        assert _zmin(t) == zmin >= kernel._LARGE_ZMIN
        assert all(triad_valid_twice(*triad) for triad in _triads(t))
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *a: ran.append(a) or large(*a))
        assert kernel.sixj_raw(*t) == (0, 1, 1)
        assert ran == [_racah_args(t)]

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_near_misses(self, seed, monkeypatch):
        u1, u2, v2, v3 = seed
        u3 = self.solve(*seed)
        large = kernel._sixj_large
        ran = []
        monkeypatch.setattr(kernel, "_sixj_large",
                            lambda *a: ran.append(a) or large(*a))
        for miss in (u3 - 1, u3 + 1):
            zmin, t = _one_step((u1, u2, miss), (v2, v3))
            assert zmin <= 20_000 and _steps(t) == 1
            value = kernel.sixj_raw(*t)
            assert value[0] != 0
            assert value == horner_sixj_raw(*t), t
        assert len(ran) == 2


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
        # every draw above has zmin >= 300, so the Horner path gets
        # symbols of its own, just below the switch
        for s in range(6):
            twice = kernel._LARGE_ZMIN - 1 - s
            symbols += _near_regular(rng, 2 * twice // 3, 1)
            symbols += [_skewed(rng, twice), _thin_with_steps(twice, s)[0]]
        assert set(map(_large, symbols)) == {False, True}
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
