import copy
import pickle
import random
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields, replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    be_fixed_triads_by_slot_table,
    be_grid_by_triad_calls,
    be_sides_by_admissible_range,
    orthogonality_sides_split,
    pachner_14_sides_split,
    pentagon_sides_split,
)
from spinnet import identities
from spinnet.errors import (
    IncompatibleRadicands,
    InvalidInstance,
    InvalidSpin,
    SpinnetError,
)
from spinnet.exactnum import ZERO_TRIPLE, Spin, SqrtRational, _sum
from spinnet.identities import (
    BE_SYMBOL_NAMES,
    BEInstance,
    FIVE_SYMBOLS,
    X_FREE_TRIADS,
    be_check,
    iter_be_grid,
    iter_be_grid_checks,
    iter_orthogonality_grid,
    orthogonality_check,
    pachner_14_check,
    pachner_14_checks,
    pachner_23_check,
)
from spinnet.symmetry import regge_transform
from spinnet.wigner import SixJ, admissible_x_twice, invalid_triads_twice
from test_wigner import iter_valid_sixj


def S(*twices):
    return [Spin(t) for t in twices]


class TestTriadDerivation:
    def test_seven_fixed_triads(self):
        assert len(X_FREE_TRIADS) == 7
        as_sets = {frozenset(t) for t in X_FREE_TRIADS}
        assert as_sets == {
            frozenset("adp"), frozenset("bcp"), frozenset("cfq"),
            frozenset("deq"), frozenset("aer"), frozenset("bfr"),
            frozenset("pqr")}

    def test_five_symbols_shape(self):
        assert len(FIVE_SYMBOLS) == 5
        assert FIVE_SYMBOLS[0] == ("a", "b", "x", "c", "d", "p")


class TestBEInstance:
    def test_valid(self):
        BEInstance(*S(*(2,) * 9))

    def test_invalid_triad_listed(self):
        with pytest.raises(InvalidInstance) as err:
            BEInstance(*S(2, 0, 0, 0, 0, 0, 0, 0, 0))
        assert err.value.triads

    def test_phi(self):
        assert BEInstance(*S(*(2,) * 9)).phi_twice == 18


class TestOrthogonality:
    def test_all_zero(self):
        res = orthogonality_check(*S(0, 0, 0, 0, 0, 0))
        assert res.equal and res.lhs == SqrtRational(1)

    def test_ones_diagonal(self):
        res = orthogonality_check(*S(2, 2, 2, 2, 2, 2))
        assert res.equal
        assert res.rhs == SqrtRational(Fraction(1, 3))

    def test_ones_off_diagonal(self):
        res = orthogonality_check(*S(2, 2, 2, 2, 0, 2))
        assert res.equal
        assert res.lhs == SqrtRational(0) == res.rhs

    def test_invalid_y_triad_gives_zero_both_sides(self):
        res = orthogonality_check(*S(4, 0, 0, 0, 1, 1))
        assert res.equal and res.rhs == SqrtRational(0)

    def test_grid_twice_2(self):
        from spinnet.identities import iter_orthogonality_grid
        for t in iter_orthogonality_grid(2):
            assert orthogonality_check(*S(*t)).equal

    @pytest.mark.parametrize("twice", [40, 80, 120])
    @pytest.mark.parametrize("dy", [0, 2])
    def test_large_spin(self, twice, dy):
        # long nested z-sums at every x, checked against the identity alone
        res = orthogonality_check(*S(twice, twice, twice, twice,
                                     twice, twice + dy))
        assert res.equal
        assert res.rhs == (SqrtRational(Fraction(1, twice + 1)) if dy == 0
                           else SqrtRational(0))


class TestPentagon:
    def test_all_zero(self):
        res = be_check(BEInstance(*S(*(0,) * 9)))
        assert res.equal and res.lhs == SqrtRational(1)

    def test_all_ones(self):
        res = be_check(BEInstance(*S(*(2,) * 9)))
        assert res.equal
        assert res.lhs == SqrtRational(Fraction(1, 36))

    def test_literal_paper_form_fails_reproducibly(self):
        # recorded discrepancy artifact: without the (2x+1) weight the
        # all-ones instance gives 1/27 against 1/36
        res = be_check(BEInstance(*S(*(2,) * 9)), literal_form=True)
        assert not res.equal
        assert res.lhs == SqrtRational(Fraction(1, 27))
        assert res.rhs == SqrtRational(Fraction(1, 36))
        assert res.form == "pentagon-unweighted"

    def test_grid_twice_2(self):
        count = 0
        for t in iter_be_grid(2):
            assert be_check(BEInstance.from_twice(t)).equal
            count += 1
        assert count > 100

    def test_regge_transformed_instance_still_passes(self):
        # transform the reference symbol {a b x; c d p} of a passing
        # instance and check the relabeled instance passes as well
        inst = BEInstance(*S(2, 4, 2, 4, 2, 4, 4, 4, 4))
        assert be_check(inst).equal
        image = regge_transform(SixJ(inst.a, inst.b, Spin(2),
                                     inst.c, inst.d, inst.p))
        relabeled = BEInstance(image.a, image.b, image.c, image.d,
                               inst.e, inst.f, image.y, inst.q, inst.r)
        assert be_check(relabeled).equal

    def test_regge_on_each_symbol_quadruple(self):
        # transforming any one symbol's quadruple relabels four of the
        # nine fixed spins; whenever the relabeled tuple is still a
        # valid instance, the identity keeps holding
        def transform(vals, quad):
            h = sum(vals[i] for i in quad)
            if h % 2:
                return None
            h //= 2
            out = list(vals)
            for i in quad:
                out[i] = h - vals[i]
            return None if min(out) < 0 else tuple(out)

        # quadruple slots per symbol, as indices into (a..f, p, q, r);
        # symbols 1..3 transform around x, symbols 4..5 around r and q
        quadruples = ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 1, 0),
                      (6, 7, 5, 1), (6, 7, 4, 0))
        checked = 0
        for t in iter_be_grid(3):
            for quad in quadruples:
                relabeled = transform(t, quad)
                if relabeled is None:
                    continue
                try:
                    inst = BEInstance.from_twice(relabeled)
                except InvalidInstance:
                    continue
                assert be_check(inst).equal, (t, quad)
                checked += 1
        assert checked > 1000

    def test_sampled_grid_twice_6(self):
        import random
        rng = random.Random(77)
        instances = list(iter_be_grid(6))
        for t in rng.sample(instances, 150):
            assert be_check(BEInstance.from_twice(t)).equal, t


def test_triads_fix_the_pentagon_phase_and_the_regge_semi_perimeter():
    # _be_sides and regge_transform rely on these and test neither:
    # phi + x is even over every pentagon x-sum, and (abx) (cdx) make s
    # a spin at least each of a, b, c, d, so every Regge image is valid
    for t in iter_be_grid(5):
        phi = sum(t)
        assert all((phi + tx) % 2 == 0
                   for tx in admissible_x_twice(*t[:6])), t
    for t in iter_valid_sixj(8):
        ta, tb, _, tc, td, _ = t
        total = ta + tb + tc + td
        assert total % 2 == 0 and 2 * max(ta, tb, tc, td) <= total, t
        image = regge_transform(SixJ.from_twice(t))
        assert invalid_triads_twice(image.twice_tuple()) == [], t


class TestPachner:
    def test_23_alias(self):
        res = pachner_23_check(BEInstance(*S(*(2,) * 9)))
        assert res.equal and res.form == "pachner-2-3"

    def test_23_invalid_instance_surface(self):
        with pytest.raises(InvalidInstance):
            pachner_23_check(BEInstance(*S(2, 0, 0, 0, 0, 0, 0, 0, 0)))

    def test_14_zeros(self):
        res = pachner_14_check(BEInstance(*S(*(0,) * 9)), Spin(0))
        assert res.equal and res.lhs == SqrtRational(1)

    def test_14_ones_diagonal(self):
        res = pachner_14_check(BEInstance(*S(*(2,) * 9)), Spin(2))
        assert res.equal
        assert res.lhs == SqrtRational(Fraction(1, 108))

    def test_14_delta_mismatch_both_sides_zero(self):
        res = pachner_14_check(BEInstance(*S(*(2,) * 9)), Spin(0))
        assert res.equal
        assert res.lhs == SqrtRational(0) == res.rhs

    def test_14_grid_twice_2(self):
        for t in iter_be_grid(2):
            inst = BEInstance.from_twice(t)
            for tpp in range(0, 3):
                assert pachner_14_check(inst, Spin(tpp)).equal


class TestTripleSum:
    def test_unlike_radicands_rejected(self):
        with pytest.raises(IncompatibleRadicands):
            _sum([(1, 2, 2), (1, 3, 3)])

    def test_zero_terms_skipped_and_result_reduced(self):
        assert _sum([(0, 1, 1), (1, 4, 3), (1, 12, 3)]) == (1, 3, 3)
        assert _sum([(1, 2, 2), (0, 1, 1), (-3, 6, 2)]) == ZERO_TRIPLE


class TestResultShape:
    def test_json_record(self):
        res = orthogonality_check(*S(2, 2, 2, 2, 2, 2))
        rec = res.to_json_dict()
        assert set(rec) == {"lhs", "rhs", "equal", "form"}
        assert rec["lhs"] == str(res.lhs)

    def test_diff(self):
        # the sides' difference, as a caller takes it
        res = be_check(BEInstance(*S(*(2,) * 9)), literal_form=True)
        assert not res.equal
        assert res.lhs - res.rhs == SqrtRational(Fraction(1, 27)
                                                 - Fraction(1, 36))
        ok = be_check(BEInstance(*S(*(2,) * 9)))
        assert ok.equal and ok.lhs - ok.rhs == SqrtRational(0)


class TestCopyAndPickle:
    ROUND_TRIPS = (copy.copy, copy.deepcopy,
                   lambda v: pickle.loads(pickle.dumps(v)))

    def test_instance_and_result(self):
        inst = BEInstance(*S(0, 1, 1, 0, 2, 3, 0, 2, 2))
        res = be_check(inst)
        for round_trip in self.ROUND_TRIPS:
            again = round_trip(inst)
            assert again == inst
            assert again.twice_tuple() == inst.twice_tuple()
            assert round_trip(res) == res

    def test_fields_as_tuple_and_dict(self):
        inst = BEInstance(*S(0, 1, 1, 0, 2, 3, 0, 2, 2))
        assert astuple(inst) == tuple(S(0, 1, 1, 0, 2, 3, 0, 2, 2))
        assert asdict(inst) == dict(zip("abcdefpqr", astuple(inst)))


@contextmanager
def admissible_lookups():
    """Assert that every symbol the identity sums look up is admissible.

    The sums read the value cache with no triad filter; yields the set
    of symbols looked up.
    """
    seen = set()
    cached = identities._sixj_cached

    def checked(t):
        assert invalid_triads_twice(t) == [], t
        seen.add(t)
        return cached(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "_sixj_cached", checked)
        yield seen


class TestLookupsAreAdmissible:
    def test_orthogonality_grid_twice_4(self):
        with admissible_lookups() as seen:
            for t in iter_orthogonality_grid(4):
                orthogonality_check(*S(*t))
        assert len(seen) > 500

    def test_pentagon_grid_twice_3(self):
        with admissible_lookups() as seen:
            for t in iter_be_grid(3):
                inst = BEInstance.from_twice(t)
                be_check(inst)
                be_check(inst, literal_form=True)
        assert len(seen) > 500

    def test_pachner_14_grid_twice_2(self):
        p_primes = S(0, 1, 2)
        with admissible_lookups() as seen:
            for t in iter_be_grid(2):
                pachner_14_checks(BEInstance.from_twice(t), p_primes)
        assert len(seen) > 100


@pytest.fixture(scope="class")
def checked_lookups():
    with admissible_lookups() as seen:
        yield seen


# Differential tests against the former SqrtRational-arithmetic sums
# (tests/oracles.py), on random instances beyond the exhaustive grids,
# with every cache lookup checked as in TestLookupsAreAdmissible.

MAX_RANDOM_TWICE = 20
_twices = st.integers(min_value=0, max_value=MAX_RANDOM_TWICE)
_differential = settings(derandomize=True, deadline=None, max_examples=150)


def _couple(*pairs, top=MAX_RANDOM_TWICE):
    # twice-values v <= top with (u w v) a triad for each pair
    return [v for v in range(top + 1)
            if all((u + w + v) % 2 == 0 and abs(u - w) <= v <= u + w
                   for u, w in pairs)]


@st.composite
def be_instances(draw, top=MAX_RANDOM_TWICE):
    """Valid (a, b, c, d, e, f, p, q, r) <= top, built through the fixed
    triads."""
    twices = st.integers(min_value=0, max_value=top)

    def couple(*pairs):
        return draw(st.sampled_from(_couple(*pairs, top=top) or [None]))

    tp, tq = draw(twices), draw(twices)
    tr = couple((tp, tq))
    ta = draw(twices)
    td = couple((ta, tp))
    assume(tr is not None and td is not None)
    te = couple((ta, tr), (td, tq))
    tb = draw(twices)
    tc = couple((tb, tp))
    assume(te is not None and tc is not None)
    tf = couple((tc, tq), (tb, tr))
    assume(tf is not None)
    return (ta, tb, tc, td, te, tf, tp, tq, tr)


@st.composite
def orthogonality_tuples(draw):
    """(a, b, c, d, y, y'), mostly with y and y' admissible for a, b, c, d."""
    if draw(st.integers(0, 4)) == 0:
        return tuple(draw(_twices) for _ in range(6))
    ta, tb, tc = draw(_twices), draw(_twices), draw(_twices)
    ty = draw(st.sampled_from(_couple((tb, tc))))
    td = draw(st.sampled_from(_couple((ta, ty)) or [None]))
    assume(td is not None)
    typ = draw(st.sampled_from(_couple((tb, tc), (ta, td))))
    return (ta, tb, tc, td, ty, typ)


def _same(res, lhs, rhs):
    assert (res.lhs.coeff, res.lhs.radicand) == (lhs.coeff, lhs.radicand)
    assert (res.rhs.coeff, res.rhs.radicand) == (rhs.coeff, rhs.radicand)
    assert res.equal == (lhs == rhs)


@pytest.mark.usefixtures("checked_lookups")
class TestOldPathDifferential:
    @_differential
    @given(orthogonality_tuples())
    def test_orthogonality(self, t):
        res = orthogonality_check(*S(*t))
        _same(res, *orthogonality_sides_split(*t))
        assert res.equal

    @_differential
    @given(be_instances(), st.booleans())
    def test_pentagon(self, t, literal_form):
        res = be_check(BEInstance.from_twice(t), literal_form=literal_form)
        _same(res, *pentagon_sides_split(t, literal_form))
        if not literal_form:
            assert res.equal

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(be_instances(), st.booleans(), _twices)
    def test_pachner_14(self, t, diagonal, tpp):
        if diagonal:
            tpp = t[6]
        res = pachner_14_check(BEInstance.from_twice(t), Spin(tpp))
        _same(res, *pachner_14_sides_split(t, tpp))
        assert res.equal

    def test_pachner_14_checks_share_one_pentagon_sum(self):
        inst = BEInstance(*S(2, 4, 2, 4, 2, 4, 4, 4, 4))
        p_primes = S(0, 2, 4, 6)
        rows = pachner_14_checks(inst, p_primes)
        assert rows == [pachner_14_check(inst, pp) for pp in p_primes]
        assert [r.equal for r in rows] == [True] * 4
        assert [bool(r.rhs) for r in rows] == [False, False, True, False]


def _fixed_triads_failing(t):
    """The x-free triads of twice tuple t that fail, in X_FREE_TRIADS order."""
    tw = dict(zip("abcdefpqr", t))
    return [names for names in X_FREE_TRIADS
            if not ((sum(tw[n] for n in names)) % 2 == 0
                    and abs(tw[names[0]] - tw[names[1]]) <= tw[names[2]]
                    <= tw[names[0]] + tw[names[1]])]


class TestBEInstanceTwiceTuple:
    """BEInstance keeps its twice tuple without changing its public face."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(be_instances(top=8), be_instances(top=8))
    def test_valid_instances(self, t, other):
        inst = BEInstance.from_twice(t)
        assert inst.twice_tuple() == t == tuple(
            getattr(inst, n).twice for n in "abcdefpqr")
        assert inst.phi_twice == sum(t)
        direct = BEInstance(*S(*t))
        assert direct == inst and hash(direct) == hash(inst)
        # the generated hash covers the nine spins and nothing else
        assert hash(inst) == hash(tuple(S(*t)))
        assert repr(inst) == "BEInstance(" + ", ".join(
            f"{n}=Spin({v})" for n, v in zip("abcdefpqr", t)) + ")"
        assert str(inst) == "(" + ", ".join(
            f"{n}={Spin(v)}" for n, v in zip("abcdefpqr", t)) + ")"
        # the kept tuple is no dataclass field
        assert [f.name for f in fields(inst)] == list("abcdefpqr")
        assert replace(inst) == inst
        moved = replace(inst, **dict(zip("abcdefpqr", S(*other))))
        assert moved == BEInstance.from_twice(other)
        assert moved.twice_tuple() == other
        assert moved.phi_twice == sum(other)
        assert (moved == inst) == (other == t)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.tuples(*[st.integers(0, 8)] * 9))
    def test_any_tuple_reports_its_failing_triads(self, t):
        bad = _fixed_triads_failing(t)
        if not bad:
            assert BEInstance.from_twice(t).twice_tuple() == t
            return
        with pytest.raises(InvalidInstance) as err:
            BEInstance.from_twice(t)
        assert err.value.triads == tuple(bad)

    def test_every_tuple_up_to_twice_2_matches_the_constructor(self):
        # from_twice reuses shared Spin objects; on each of the 3**9
        # tuples it must still build what BEInstance(*map(Spin, t))
        # builds, or fail the same way
        valid = 0
        for t in product(range(3), repeat=9):
            try:
                direct = BEInstance(*map(Spin, t))
            except InvalidInstance as expected:
                with pytest.raises(InvalidInstance) as err:
                    BEInstance.from_twice(t)
                assert str(err.value) == str(expected)
                assert err.value.triads == expected.triads
                continue
            inst = BEInstance.from_twice(t)
            assert [getattr(inst, f.name) for f in fields(inst)] == \
                [getattr(direct, f.name) for f in fields(direct)]
            assert inst == direct and hash(inst) == hash(direct)
            assert repr(inst) == repr(direct)
            assert inst.twice_tuple() == direct.twice_tuple() == t
            again = pickle.loads(pickle.dumps(inst))
            assert again == inst and again.twice_tuple() == t
            valid += 1
        assert valid == 205

    def test_small_spins_are_shared_and_large_ones_built(self):
        one, other = BEInstance.from_twice((2,) * 9), \
            BEInstance.from_twice((2,) * 9)
        assert one.a is other.a is one.r
        big = BEInstance.from_twice((64,) * 9)
        assert big.a == Spin(64) and big.a is not big.b

    @pytest.mark.parametrize("bad", [True, False, -1, -64, -65, 2.0, "2",
                                     None], ids=repr)
    def test_non_spin_entries_still_raise(self, bad):
        # True == 1 and 2.0 == 2: neither may reach a shared Spin(1) or
        # Spin(2), which the first call below has just used; -64 and -65
        # would index the shared spins from the end
        assert BEInstance.from_twice((0, 1, 1, 0, 2, 3, 0, 2, 2)).b == Spin(1)
        with pytest.raises(InvalidSpin) as expected:
            Spin(bad)
        for slot in range(9):
            t = list((2,) * 9)
            t[slot] = bad
            with pytest.raises(InvalidSpin) as err:
                BEInstance.from_twice(tuple(t))
            assert str(err.value) == str(expected.value)

    # for each x-free triad, a twice tuple on which it alone fails
    ONE_TRIAD_BROKEN = {
        ("a", "d", "p"): (2, 0, 0, 0, 1, 1, 0, 1, 1),
        ("b", "c", "p"): (0, 2, 0, 0, 1, 1, 0, 1, 1),
        ("c", "f", "q"): (0, 1, 2, 1, 1, 0, 1, 0, 1),
        ("d", "e", "q"): (1, 0, 1, 2, 0, 1, 1, 0, 1),
        ("e", "a", "r"): (2, 0, 1, 1, 0, 0, 1, 1, 0),
        ("f", "b", "r"): (0, 2, 1, 1, 0, 0, 1, 1, 0),
        ("p", "q", "r"): (1, 1, 1, 1, 1, 1, 2, 0, 0),
    }

    @pytest.mark.parametrize("names", X_FREE_TRIADS,
                             ids=["".join(n) for n in X_FREE_TRIADS])
    def test_each_fixed_triad_broken_alone(self, names):
        t = self.ONE_TRIAD_BROKEN[names]
        assert _fixed_triads_failing(t) == [names]
        for build in (BEInstance.from_twice, lambda t: BEInstance(*S(*t))):
            with pytest.raises(InvalidInstance) as err:
                build(t)
            assert err.value.triads == (names,)
            assert str(err.value) == \
                f"invalid fixed triads: ({''.join(names)})"
        with pytest.raises(InvalidInstance) as err:
            replace(BEInstance(*S(*(0,) * 9)),
                    **dict(zip("abcdefpqr", S(*t))))
        assert err.value.triads == (names,)


def _random_valid_tuple(rng, top):
    """A valid (a, b, c, d, e, f, p, q, r) <= top, built through the fixed
    triads from seeded draws."""
    while True:
        tp, tq, ta, tb = (rng.randint(0, top) for _ in range(4))
        tr = rng.choice(_couple((tp, tq), top=top) or [None])
        td = rng.choice(_couple((ta, tp), top=top) or [None])
        tc = rng.choice(_couple((tb, tp), top=top) or [None])
        if None in (tr, td, tc):
            continue
        te = rng.choice(_couple((ta, tr), (td, tq), top=top) or [None])
        tf = rng.choice(_couple((tc, tq), (tb, tr), top=top) or [None])
        if None not in (te, tf):
            return (ta, tb, tc, td, te, tf, tp, tq, tr)


def _same_as_slot_table(tuples):
    """from_twice accepts exactly the tuples the former slot-table check
    accepts, and rejects the others with its triads and message; returns
    the number accepted."""
    from_twice = BEInstance.from_twice
    valid = 0
    for t in tuples:
        expected = be_fixed_triads_by_slot_table(t)
        try:
            from_twice(t)
        except InvalidInstance as err:
            assert (list(err.triads), str(err)) == expected, t
        else:
            assert expected is None, t
            valid += 1
    return valid


class TestFixedTriadsAgainstTheSlotTable:
    """BEInstance's inline triad test against the former slot-table pass
    (tests/oracles.py)."""

    def test_every_tuple_up_to_twice_3(self):
        assert _same_as_slot_table(product(range(4), repeat=9)) == \
            sum(1 for t in iter_be_grid(3) if max(t) <= 3)

    def test_seeded_tuples_up_to_twice_40(self):
        rng = random.Random(30)
        valid = [_random_valid_tuple(rng, 40) for _ in range(1000)]
        raw = [tuple(rng.randint(0, 40) for _ in range(9))
               for _ in range(2000)]
        # one entry of a valid tuple moved by 1 or 2: a near miss
        moved = []
        for t in valid:
            slot, step = rng.randrange(9), rng.choice((-2, -1, 1, 2))
            moved.append(t[:slot] + (abs(t[slot] + step),) + t[slot + 1:])
        assert _same_as_slot_table(valid) == len(valid)
        assert 50 < _same_as_slot_table(raw + moved) < 1000


class TestXSumAgainstTheAdmissibleRange:
    """_be_sides's inline x-range and flipped sign against the former sum
    over admissible_x_twice (tests/oracles.py)."""

    def test_every_grid_tuple_to_twice_5(self):
        for t in iter_be_grid(5):
            for literal_form in (False, True):
                assert identities._be_sides(t, literal_form) == \
                    be_sides_by_admissible_range(t, literal_form), t

    def test_seeded_valid_tuples_up_to_twice_20(self):
        # the fixed triads keep the joint x-range of (ab), (cd) and (ef)
        # from being empty: |a - b| <= |a - p| + |p - b| <= d + c, and
        # alike through p, q and r for every pair of the three
        rng = random.Random(20)
        for _ in range(400):
            t = _random_valid_tuple(rng, 20)
            assert admissible_x_twice(*t[:6]), t
            for literal_form in (False, True):
                assert identities._be_sides(t, literal_form) == \
                    be_sides_by_admissible_range(t, literal_form), t


class TestBEGridChecks:
    """iter_be_grid_checks runs the instance checks on the grid tuples."""

    @pytest.mark.parametrize("move, check, literal_form", [
        ("be", be_check, False), ("be", be_check, True),
        ("pachner-23", pachner_23_check, False)])
    def test_matches_the_instance_checks(self, move, check, literal_form):
        rows = list(iter_be_grid_checks(2, move, literal_form))
        forms = {"literal_form": True} if literal_form else {}
        assert [t for t, _ in rows] == list(iter_be_grid(2))
        assert [res for _, res in rows] == [
            check(BEInstance.from_twice(t), **forms)
            for t in iter_be_grid(2)]

    @pytest.mark.parametrize("move", ["pachner-23", "pachner-14"])
    def test_no_unweighted_form_raises_at_the_call(self, move):
        # only the pentagon grid has an unweighted form; the others
        # refuse the request rather than yield weighted results
        with pytest.raises(SpinnetError, match="has no unweighted form"):
            iter_be_grid_checks(1, move, literal_form=True)

    def test_pachner_14_appends_p_prime(self):
        rows = list(iter_be_grid_checks(2, "pachner-14"))
        p_primes = S(0, 1, 2)
        expected = [(t + (pp.twice,), res)
                    for t in iter_be_grid(2)
                    for pp, res in zip(p_primes, pachner_14_checks(
                        BEInstance.from_twice(t), p_primes))]
        assert rows == expected

    def test_unknown_move(self):
        with pytest.raises(SpinnetError, match="unknown verification grid"):
            next(iter_be_grid_checks(1, "pachner-33"))

    def test_unknown_move_raises_at_the_call(self):
        with pytest.raises(SpinnetError, match="unknown verification grid"):
            iter_be_grid_checks(2, "foo")


class TestBEGridRanges:
    """iter_be_grid against the former loops with triad calls on each r."""

    @pytest.mark.parametrize("max_twice", range(7))
    def test_same_sequence_as_triad_calls(self, max_twice):
        assert (list(iter_be_grid(max_twice))
                == list(be_grid_by_triad_calls(max_twice)))

    def test_counts(self):
        grid = list(iter_be_grid(4))
        assert len(grid) == 15772
        assert sum(5 in t for t in grid) == 7508
        assert sum(1 for _ in iter_be_grid(6)) == 204023

    def test_first_tuple_builds_one_row(self):
        # the tables are read row by row as the loops reach a value, so
        # the first tuple at twice 1000 costs one row, not 10**6 entries
        tracemalloc.start()
        try:
            assert next(iter_be_grid(1000)) == (0,) * 9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestPentagonSymbolLookups:
    def test_be_sides_reads_the_five_symbols_slot_for_slot(
            self, monkeypatch):
        # _be_sides spells the five symbols out as literal twice tuples;
        # its lookups must be those of FIVE_SYMBOLS, slot for slot: for
        # each x the three symbols carrying x, then the two fixed ones.
        # Nine distinct twice-values and x = 6 tell every slot apart.
        t = (5, 1, 3, 7, 4, 8, 2, 11, 9)
        looked_up = []
        cached = identities._sixj_cached
        monkeypatch.setattr(identities, "_sixj_cached",
                            lambda s: looked_up.append(s) or cached(s))
        lhs, rhs = identities._be_sides(t, literal_form=False)
        assert lhs == rhs
        twice = dict(zip(BE_SYMBOL_NAMES, t))

        def symbol(names, tx=None):
            return tuple(tx if n == "x" else twice[n] for n in names)

        with_x = [names for names in FIVE_SYMBOLS if "x" in names]
        fixed = [names for names in FIVE_SYMBOLS if "x" not in names]
        assert len(with_x) == 3 and len(fixed) == 2
        assert looked_up == (
            [symbol(names, tx) for tx in (4, 6) for names in with_x]
            + [symbol(names) for names in fixed])
