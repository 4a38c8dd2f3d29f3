import random
from fractions import Fraction

import pytest

from spinnet.errors import LabelTransferMismatch, TriadViolation
from spinnet.exactnum import Spin, SqrtRational
from spinnet.identities import (
    ALL_TRIADS,
    FIVE_SYMBOLS,
    BEInstance,
    be_check,
    iter_be_grid,
)
from spinnet.labeling import (
    LINE_TAG_OF_SYMBOL,
    POINT_TRIADS,
    SYMBOLS,
    label_desargues,
    network_amplitude,
    regularized_enumeration,
    transfer_labeling,
)
from spinnet.projective import build_desargues, space_dual_desargues
from spinnet.symmetry import canonicalize_quadruple
from spinnet.wigner import sixj_value


def constant_map(twice):
    return {s: Spin(twice) for s in SYMBOLS}


def the_complex():
    return space_dual_desargues(build_desargues())


class TestDictionary:
    def test_ten_symbols_ten_lines(self):
        assert len(SYMBOLS) == 10
        assert sorted(LINE_TAG_OF_SYMBOL) == sorted(SYMBOLS)
        assert len(set(LINE_TAG_OF_SYMBOL.values())) == 10

    def test_x_on_the_line_avoiding_the_two_rhs_quadrangles(self):
        assert LINE_TAG_OF_SYMBOL["x"] == "[45]"

    def test_binding_read_off_the_five_symbols(self):
        assert LINE_TAG_OF_SYMBOL == {
            "a": "[24]", "b": "[25]", "c": "[35]", "d": "[34]",
            "e": "[14]", "f": "[15]", "p": "[23]", "q": "[13]",
            "r": "[12]", "x": "[45]",
        }

    @pytest.mark.parametrize("k", range(1, 6))
    def test_tetrahedron_k_carries_symbol_k(self, k):
        c = the_complex()
        tet = next(t for t, i in c.tetra_labels.items() if i == k)
        assert {c.edge_labels[e] for e in c.edges_of_tetrahedron(tet)} == \
            {LINE_TAG_OF_SYMBOL[n] for n in FIVE_SYMBOLS[k - 1]}

    def test_point_triads_are_the_pentagon_triads(self):
        # each point of the configuration is one triad of the pentagon
        # identity, and each of those triads is met exactly once
        assert len(POINT_TRIADS) == 10
        assert {frozenset(syms) for _, syms in POINT_TRIADS} == \
            {frozenset(t) for t in ALL_TRIADS}

    def test_point_triads_follow_the_configuration(self):
        d = build_desargues()
        assert [tag for tag, _ in POINT_TRIADS] == \
            [d.point_labels[p] for p in d.points]
        for p, (_, syms) in zip(d.points, POINT_TRIADS):
            assert tuple(LINE_TAG_OF_SYMBOL[s] for s in syms) == \
                tuple(d.line_labels[l] for l in d.lines_through(p))


class TestLabelDesargues:
    def test_zero_labeling(self):
        lab = label_desargues(constant_map(0))
        assert all(s.twice == 0 for s in lab.line_spins.values())

    def test_ones_labeling(self):
        lab = label_desargues(constant_map(2))
        assert len(lab.quadrangle_symbols()) == 5

    def test_single_spin_violates_three_points(self):
        spins = constant_map(0)
        spins["a"] = Spin(2)
        with pytest.raises(TriadViolation) as err:
            label_desargues(spins)
        points = {v[0] for v in err.value.violations}
        # line a = [24] passes through the three points avoiding 2 and 4
        assert points == {"(13)", "(15)", "(35)"}
        # reported in point order, each with its lines in line order
        assert [v[:2] for v in err.value.violations] == [
            ("(13)", ("a", "b", "x")), ("(15)", ("p", "a", "d")),
            ("(35)", ("r", "e", "a"))]

    def test_violation_detail_is_exact(self):
        spins = constant_map(2)
        spins["a"] = Spin(0)
        spins["x"] = Spin(0)
        with pytest.raises(TriadViolation) as err:
            label_desargues(spins)
        assert err.value.violations == (
            ("(13)", ("a", "b", "x"), (Spin(0), Spin(2), Spin(0))),)
        assert str(err.value) == "triads fail at points (13)"

    def test_structure_is_shared_and_read_only(self):
        first = label_desargues(constant_map(0)).structure
        second = label_desargues(constant_map(2)).structure
        assert first is second
        with pytest.raises(TypeError):
            second.line_labels[0] = "[99]"
        with pytest.raises(TypeError):
            second.point_labels[0] = "(99)"
        assert second.line_labels[0] == "[12]"

    def test_missing_symbol(self):
        spins = constant_map(0)
        del spins["x"]
        with pytest.raises(KeyError):
            label_desargues(spins)

    def test_quadrangle_symbols_match_identity_arrangement(self):
        lab = label_desargues(constant_map(2))
        inst = BEInstance(*(Spin(2),) * 9)
        assert be_check(inst).equal
        values = {str(sixj_value(s)) for s in lab.quadrangle_symbols()}
        assert values == {"1/6*sqrt(1/1)"}

    def test_json(self):
        lab = label_desargues(constant_map(2))
        data = lab.to_json_dict()
        assert data == {"symbol_spins": {s: "1" for s in SYMBOLS}}

    def test_half_integer_labeling(self):
        # halves on the six quadrangle sides, integers on p, q, r, x
        spins = {s: Spin(1) for s in ("a", "b", "c", "d", "e", "f")}
        spins |= {s: Spin(2) for s in ("p", "q", "r", "x")}
        lab = label_desargues(spins)
        assert lab.symbol_spins["a"].j == Fraction(1, 2)
        assert lab.to_json_dict()["symbol_spins"]["a"] == "1/2"


class TestTransfer:
    def test_zero_transfer(self):
        lab = label_desargues(constant_map(0))
        sl = transfer_labeling(lab, the_complex())
        assert all(s.twice == 0 for s in sl.edge_spins.values())

    def test_uniform_transfer_symbols(self):
        lab = label_desargues(constant_map(2))
        sl = transfer_labeling(lab, the_complex())
        tets = sl.tetrahedron_symbols()
        quads = lab.quadrangle_symbols()
        assert [t.twice_tuple() for t in tets] == \
            [q.twice_tuple() for q in quads]

    def test_edge_inherits_line_spin(self):
        spins = constant_map(2)
        spins["x"] = Spin(4)
        spins["p"] = Spin(4)  # keep the triads at (12), (14), (15) valid
        lab = label_desargues(spins)
        sl = transfer_labeling(lab, the_complex())
        edge = the_complex().edge_by_label("[45]")
        assert sl.edge_spins[edge].twice == 4

    def test_mismatched_complex(self):
        class Hollow:
            def edge_by_label(self, tag):
                raise KeyError(tag)
        lab = label_desargues(constant_map(0))
        with pytest.raises(LabelTransferMismatch):
            transfer_labeling(lab, Hollow())


class TestAmplitude:
    def test_zeros(self):
        assert network_amplitude(label_desargues(constant_map(0))) == \
            SqrtRational(1)

    def test_ones_fifth_power(self):
        # sixj({1..1}) = 1/6, so the five-symbol product is 6**-5
        amp = network_amplitude(label_desargues(constant_map(2)))
        assert amp == SqrtRational(Fraction(1, 7776))

    def test_invalid_labeling_refused(self):
        spins = constant_map(0)
        spins["r"] = Spin(2)
        with pytest.raises(TriadViolation):
            label_desargues(spins)


class TestRegularizedEnumeration:
    def test_zeros_single_state(self):
        q = canonicalize_quadruple(*(Spin(0),) * 4)
        entries = regularized_enumeration(
            q, {k: Spin(0) for k in ("e", "f", "p", "q", "r")})
        assert entries == [(Spin(0), SqrtRational(1))]

    def test_ones_three_states(self):
        q = canonicalize_quadruple(*(Spin(2),) * 4)
        entries = regularized_enumeration(
            q, {k: Spin(2) for k in ("e", "f", "p", "q", "r")})
        assert [x.twice for x, _ in entries] == [0, 2, 4]
        assert entries[2][1] == SqrtRational(Fraction(1, 7776))

    def test_state_count_bounded_by_width(self):
        q = canonicalize_quadruple(*(Spin(4),) * 4)
        entries = regularized_enumeration(
            q, {k: Spin(4) for k in ("e", "f", "p", "q", "r")})
        assert 1 <= len(entries) <= q.a.twice + 1
        assert len(entries) == 5  # uniform labels keep every x in range

    def test_no_admissible_x_raises(self):
        q = canonicalize_quadruple(*(Spin(0),) * 4)
        with pytest.raises(TriadViolation):
            regularized_enumeration(
                q, {"e": Spin(2), "f": Spin(0), "p": Spin(0),
                    "q": Spin(0), "r": Spin(0)})

    def test_missing_symbol(self):
        q = canonicalize_quadruple(*(Spin(0),) * 4)
        with pytest.raises(KeyError):
            regularized_enumeration(q, {"e": Spin(0)})


class TestInducedPentagonInstance:
    def test_labeling_satisfies_pentagon_identity(self):
        # the nine non-running spins of any valid labeling form a valid
        # pentagon instance, and the identity relates the x-sum of the
        # first three tetrahedra to the product of the last two
        spins = {s: Spin(2) for s in SYMBOLS}
        spins["x"] = Spin(4)
        lab = label_desargues(spins)
        inst = BEInstance(*(lab.symbol_spins[n] for n in
                            ("a", "b", "c", "d", "e", "f", "p", "q", "r")))
        res = be_check(inst)
        assert res.equal
        quads = lab.quadrangle_symbols()
        assert res.rhs == sixj_value(quads[3]) * sixj_value(quads[4])


class TestRandomTransferAgreement:
    def test_sampled_labelings(self):
        rng = random.Random(20240512)
        complex4 = the_complex()
        instances = list(iter_be_grid(4))
        checked = 0
        for _ in range(200):
            nine = rng.choice(instances)
            spins = dict(zip(("a", "b", "c", "d", "e", "f", "p", "q", "r"),
                             (Spin(t) for t in nine)))
            tx = rng.randrange(0, 5)
            spins["x"] = Spin(tx)
            try:
                lab = label_desargues(spins)
            except TriadViolation:
                continue
            sl = transfer_labeling(lab, complex4)
            for quad_sym, tet_sym in zip(lab.quadrangle_symbols(),
                                         sl.tetrahedron_symbols()):
                assert sixj_value(quad_sym) == sixj_value(tet_sym)
            checked += 1
        assert checked > 20
