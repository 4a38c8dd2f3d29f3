from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    orthogonality_sides_split,
    pachner_14_sides_split,
    pentagon_sides_split,
)
from spinnet.errors import IncompatibleRadicands, InvalidInstance
from spinnet.exactnum import Spin, SqrtRational
from spinnet.identities import (
    BEInstance,
    FIVE_SYMBOLS,
    X_FREE_TRIADS,
    _sum,
    be_check,
    iter_be_grid,
    orthogonality_check,
    pachner_14_check,
    pachner_14_checks,
    pachner_23_check,
)
from spinnet.symmetry import regge_transform
from spinnet.wigner import ZERO_TRIPLE, SixJ


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


class TestPachner:
    def test_23_alias(self):
        res = pachner_23_check(BEInstance(*S(*(2,) * 9)))
        assert res.equal and res.form == "pachner-2-3"
        assert "tetrahedra" in res.detail

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
        res = be_check(BEInstance(*S(*(2,) * 9)), literal_form=True)
        assert res.diff == SqrtRational(Fraction(1, 27) - Fraction(1, 36))
        ok = be_check(BEInstance(*S(*(2,) * 9)))
        assert ok.diff == SqrtRational(0)


# Differential tests against the former SqrtRational-arithmetic sums
# (tests/oracles.py), on random instances beyond the exhaustive grids.

MAX_RANDOM_TWICE = 20
_twices = st.integers(min_value=0, max_value=MAX_RANDOM_TWICE)
_differential = settings(derandomize=True, deadline=None, max_examples=150)


def _couple(*pairs):
    # twice-values v <= MAX_RANDOM_TWICE with (u w v) a triad for each pair
    return [v for v in range(MAX_RANDOM_TWICE + 1)
            if all((u + w + v) % 2 == 0 and abs(u - w) <= v <= u + w
                   for u, w in pairs)]


@st.composite
def be_instances(draw):
    """Valid (a, b, c, d, e, f, p, q, r), built through the fixed triads."""
    tp, tq = draw(_twices), draw(_twices)
    tr = draw(st.sampled_from(_couple((tp, tq)) or [None]))
    ta = draw(_twices)
    td = draw(st.sampled_from(_couple((ta, tp)) or [None]))
    assume(tr is not None and td is not None)
    te = draw(st.sampled_from(_couple((ta, tr), (td, tq)) or [None]))
    tb = draw(_twices)
    tc = draw(st.sampled_from(_couple((tb, tp)) or [None]))
    assume(te is not None and tc is not None)
    tf = draw(st.sampled_from(_couple((tc, tq), (tb, tr)) or [None]))
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
