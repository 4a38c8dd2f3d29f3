import copy
import itertools
import pickle
import random
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction

import pytest

from spinnet import labeling
from spinnet.errors import LabelTransferMismatch, MissingSymbol, TriadViolation
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
    DesarguesSpinLabeling,
    label_desargues,
    network_amplitude,
    regularized_enumeration,
    transfer_labeling,
)
from spinnet.projective import build_desargues, space_dual_desargues
from spinnet.symmetry import canonicalize_quadruple
from spinnet.wigner import sixj_value

from oracles import label_desargues_by_triads


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

    def test_every_missing_symbol_listed_in_symbol_order(self):
        spins = {s: Spin(0) for s in ("r", "b", "p", "e", "a")}
        with pytest.raises(MissingSymbol) as err:
            label_desargues(spins)
        assert str(err.value) == "missing spin symbols: c, d, f, q, x"

    def test_defaultdict_missing_symbol_is_not_filled(self):
        spins = defaultdict(lambda: Spin(0), constant_map(2))
        del spins["c"]
        with pytest.raises(MissingSymbol) as err:
            label_desargues(spins)
        assert str(err.value) == "missing spin symbols: c"
        assert list(spins) == [s for s in SYMBOLS if s != "c"]

    def test_a_mapping_that_is_not_a_dict(self):
        class Spins(Mapping):
            def __init__(self, data):
                self.data = data

            def __getitem__(self, key):
                return self.data[key]

            def __iter__(self):
                return iter(self.data)

            def __len__(self):
                return len(self.data)

        for spins in (constant_map(2), TestDeferredReport.SPINS):
            assert (_outcome(label_desargues, Spins(spins))
                    == _outcome(label_desargues, spins))
        spins = constant_map(2)
        del spins["x"], spins["c"]
        with pytest.raises(MissingSymbol) as err:
            label_desargues(Spins(spins))
        assert str(err.value) == "missing spin symbols: c, x"

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


def _rejection(label, spins):
    """The TriadViolation label(spins) raises."""
    try:
        label(spins)
    except TriadViolation as exc:
        return exc
    raise AssertionError("accepted on a second call")


def _shown(exc):
    """Everything an exception shows: type, args, message, repr, report."""
    return type(exc), exc.args, str(exc), repr(exc), exc.violations


# each read is made first, on a fresh exception
_FIRST_READS = (
    lambda exc: exc.violations,
    lambda exc: exc.args,
    str,
    repr,
    lambda exc: exc.__reduce__(),
    lambda exc: _shown(pickle.loads(pickle.dumps(exc))),
    lambda exc: _shown(copy.copy(exc)),
    lambda exc: _shown(copy.deepcopy(exc)),
)


def _outcome(label, spins):
    """Everything label(spins) shows: each read of its rejection, or dicts."""
    try:
        d = label(spins)
    except TriadViolation:
        return False, tuple(read(_rejection(label, spins))
                            for read in _FIRST_READS)
    return (True, d.structure, list(d.symbol_spins.items()),
            list(d.line_spins.items()))


class TestSlotTableAgainstTriadCalls:
    """label_desargues against the former one-call-per-triad check."""

    SPINS = [Spin(t) for t in range(7)]

    def check(self, draws):
        accepted = 0
        for draw in draws:
            spins = dict(zip(SYMBOLS, (self.SPINS[t] for t in draw)))
            got = _outcome(label_desargues, spins)
            assert got == _outcome(label_desargues_by_triads, spins), draw
            accepted += got[0]
        return accepted

    def test_every_draw_up_to_twice_2(self):
        # all 3**10 draws, 227 of them valid labelings
        assert self.check(itertools.product(range(3), repeat=10)) == 227

    def test_seeded_draws_up_to_twice_6(self):
        rng = random.Random(20260)
        draws = [tuple(rng.randrange(7) for _ in SYMBOLS)
                 for _ in range(20000)]
        assert self.check(draws) > 0


class TestDeferredReport:
    """A rejection's report is built on first read, once."""

    # fails at (12), (13) and (23)
    SPINS = dict(zip(SYMBOLS, map(Spin, (0, 0, 0, 0, 1, 1, 0, 1, 1, 3))))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        report = labeling._point_report

        def counted(values):
            calls.append(values)
            return report(values)

        monkeypatch.setattr(labeling, "_point_report", counted)
        return calls

    def test_dropped_rejection_builds_no_report(self, calls):
        for spins in (self.SPINS, constant_map(1)):
            try:
                label_desargues(spins)
            except TriadViolation:
                pass
        assert calls == []

    def test_every_read_builds_the_report_once(self, calls):
        exc = _rejection(label_desargues, self.SPINS)
        assert type(exc) is TriadViolation
        for read in _FIRST_READS:
            read(exc)
        assert len(calls) == 1
        assert [v[0] for v in exc.violations] == ["(12)", "(13)", "(23)"]
        assert str(exc) == "triads fail at points (12), (13), (23)"
        # the pending report is dropped once resolved
        assert vars(exc) == vars(_rejection(label_desargues_by_triads,
                                            self.SPINS))

    def test_args_set_before_any_read(self):
        exc = _rejection(label_desargues, self.SPINS)
        exc.args = ("replaced",)
        assert str(exc) == "replaced" and len(exc.violations) == 3

    def test_other_attributes_still_missing(self):
        exc = _rejection(label_desargues, self.SPINS)
        with pytest.raises(AttributeError):
            exc.triads
        assert getattr(exc, "__notes__", None) is None
        assert exc.violations

    @pytest.mark.parametrize("label", [label_desargues,
                                       label_desargues_by_triads])
    def test_deepcopy_shares_the_report_and_copies_notes(self, label):
        # deferred and eager rejections alike: the copy shows the same,
        # holds the very violations tuple and its own copy of the notes
        exc = _rejection(label, self.SPINS)
        exc.__notes__ = ["drawn in a test"]
        dup = copy.deepcopy(exc)
        assert _shown(dup) == _shown(exc)
        assert dup.violations is exc.violations
        assert dup.__notes__ == exc.__notes__
        assert dup.__notes__ is not exc.__notes__

    def test_overlapping_reads_agree(self):
        # every reader that finds the report pending builds it, and
        # readers arriving while it is built see the same result
        eager = _rejection(label_desargues_by_triads, self.SPINS)
        values = labeling._read_symbols(self.SPINS)
        start = threading.Barrier(4)

        def slow_report():
            time.sleep(0.01)
            return labeling._point_report(values)

        exc = TriadViolation.deferred(slow_report)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append(_shown(exc))

        threads = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert seen == [_shown(eager)] * 4
        assert vars(exc) == vars(eager)


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

    def test_broken_face_triad(self):
        # label_desargues rejects this labeling at a point, so it is built
        # by hand: twice-value 0 on [12] and [13] breaks the face <123>
        # alone, the faces through only one of them read (0, 2, 2)
        lab = label_desargues(constant_map(2))
        tags = lab.structure.line_labels
        line_spins = {l: Spin(0) if tags[l] in ("[12]", "[13]") else s
                      for l, s in lab.line_spins.items()}
        broken = DesarguesSpinLabeling(lab.structure, line_spins,
                                       lab.symbol_spins)
        with pytest.raises(TriadViolation) as err:
            transfer_labeling(broken, the_complex())
        assert str(err.value) == "face triads fail at <123>"
        assert err.value.violations == (
            ("<123>", (), (Spin(0), Spin(0), Spin(2))),)


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
