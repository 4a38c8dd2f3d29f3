"""The nine record classes against real frozen dataclasses.

Each record class is built by exactnum._frozen_record, not by
dataclasses.  For one valid instance of each, every part of the
dataclass API a caller can see is compared with a twin made by
dataclass(frozen=True) from the same class body, holding the same
field values.
"""

import copy
import dataclasses
import inspect
import pickle
import sys
from dataclasses import (
    FrozenInstanceError,
    asdict,
    astuple,
    fields,
    is_dataclass,
    replace,
)

import pytest

from spinnet.errors import (
    InvalidInstance,
    InvalidTriads,
    UnrealizableQuadrangle,
)
from spinnet.exactnum import Spin, SqrtRational
from spinnet.identities import BEInstance, ExactCheckResult
from spinnet.labeling import (
    DesarguesSpinLabeling,
    SimplexSpinLabeling,
    label_desargues,
    transfer_labeling,
)
from spinnet.projective import ConfigurationSignature, space_dual_desargues
from spinnet.symmetry import (
    CanonicalQuadruple,
    RegularizationReport,
    SixJSymmetryElement,
    canonicalize_quadruple,
    regularization_bounds,
    symmetry_group,
)
from spinnet.wigner import SixJ


def _desargues():
    return label_desargues({k: Spin(2) for k in "abcdefpqrx"})


def _simplex():
    d = _desargues()
    return transfer_labeling(d, space_dual_desargues(d.structure))


# class -> (a valid instance, valid changes for replace, changes that
# __post_init__ rejects and the error it raises, or None)
CASES = {
    SixJ: (lambda: SixJ.from_twice((2,) * 6), {"x": Spin(0)},
           ({"a": Spin(20)}, InvalidTriads)),
    BEInstance: (lambda: BEInstance.from_twice((2,) * 9), {"p": Spin(0)},
                 ({"p": Spin(20)}, InvalidInstance)),
    ExactCheckResult: (
        lambda: ExactCheckResult(SqrtRational.parse("1/6*sqrt(1/1)"),
                                 SqrtRational.parse("1/6*sqrt(1/1)"),
                                 True, "be"),
        {"equal": False, "form": "pachner-23"}, None),
    ConfigurationSignature: (lambda: ConfigurationSignature(10, 3, 10, 3),
                             {"p": 6, "l": 6}, ({"p": 0}, ValueError)),
    SixJSymmetryElement: (lambda: symmetry_group()[1],
                          {"regge_component": 2}, None),
    CanonicalQuadruple: (
        lambda: canonicalize_quadruple(Spin(2), Spin(4), Spin(2), Spin(4)),
        {"c": Spin(4), "s": Spin(7)},
        ({"s": Spin(0)}, UnrealizableQuadrangle)),
    RegularizationReport: (
        lambda: regularization_bounds(
            canonicalize_quadruple(Spin(2), Spin(4), Spin(4), Spin(2))),
        {"max_r": None}, None),
    DesarguesSpinLabeling: (_desargues, {"line_spins": {}}, None),
    SimplexSpinLabeling: (_simplex, {"edge_spins": {}}, None),
}

ids = [cls.__name__ for cls in CASES]


# what _frozen_record or the class statement adds to a record class
ADDED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
         "__delattr__", "__match_args__", "__replace__",
         "__dataclass_fields__", "__dataclass_params__", "__dict__",
         "__weakref__"}


def twin_of(cls):
    """dataclass(frozen=True) on the class body cls was made from."""
    namespace = {k: v for k, v in vars(cls).items() if k not in ADDED}
    namespace["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, (), namespace))


@pytest.fixture(params=list(CASES), ids=ids)
def case(request):
    """(record class, its twin, an instance, its twin instance, changes,
    rejected changes)."""
    cls = request.param
    build, changes, rejected = CASES[cls]
    rec = build()
    twin = twin_of(cls)
    values = [getattr(rec, name) for name in vars(cls)["__annotations__"]]
    return cls, twin, rec, twin(*values), changes, rejected


def outcome(fn, *args, **kwargs):
    """What a call gives: ("ok", result) or (error type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


def same_copy(fn, obj):
    """outcome of fn(obj), a result read as (same type, ==, same dict)."""
    kind, result = outcome(fn, obj)
    if kind != "ok":
        return kind, result
    return kind, (type(result) is type(obj), result == obj,
                  vars(result) == vars(obj))


def test_dataclass_introspection(case):
    cls, twin, rec, tw, _, _ = case
    assert is_dataclass(cls) and is_dataclass(rec)
    assert not isinstance(rec, type) and isinstance(cls, type)
    assert ([(f.name, f.type) for f in fields(rec)]
            == [(f.name, f.type) for f in fields(tw)])
    assert repr(fields(cls)) == repr(fields(twin))
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert outcome(asdict, rec) == outcome(asdict, tw)
    assert outcome(astuple, rec) == outcome(astuple, tw)


def test_replace_runs_post_init(case):
    cls, _, rec, tw, changes, rejected = case
    assert replace(rec) == rec
    moved, twin_moved = replace(rec, **changes), replace(tw, **changes)
    assert type(moved) is cls and moved != rec
    assert vars(moved) == vars(twin_moved)
    if rejected:
        bad, error = rejected
        with pytest.raises(error) as raised:
            replace(rec, **bad)
        with pytest.raises(error) as twin_raised:
            replace(tw, **bad)
        assert str(raised.value) == str(twin_raised.value)
    with pytest.raises(TypeError) as raised:
        replace(rec, no_such_field=1)
    with pytest.raises(TypeError) as twin_raised:
        replace(tw, no_such_field=1)
    assert str(raised.value) == str(twin_raised.value)


def test_a_replace_the_pentagon_triads_reject():
    inst = BEInstance.from_twice((2,) * 9)
    with pytest.raises(InvalidInstance, match=r"\(adp\), \(bcp\), \(pqr\)"):
        replace(inst, p=Spin(20))


def test_equality_hash_and_repr(case):
    cls, _, rec, tw, _, _ = case
    again = cls(*astuple(rec)) if cls not in (
        DesarguesSpinLabeling, SimplexSpinLabeling) else copy.copy(rec)
    assert rec == again and not rec != again
    assert rec != tw and tw != rec and not rec == tw
    assert rec.__eq__(tw) is NotImplemented
    assert rec != object()
    assert vars(rec) == vars(tw)
    assert outcome(hash, rec) == outcome(hash, tw)
    assert repr(rec) == repr(tw)


def test_a_record_holding_itself_reprs_as_a_dataclass_does():
    rec = _desargues()
    tw = twin_of(DesarguesSpinLabeling)(rec.structure, dict(rec.line_spins),
                                        rec.symbol_spins)
    rec.line_spins[0], tw.line_spins[0] = rec, tw
    assert repr(rec) == repr(tw)
    assert "line_spins={0: ..., 1: Spin(2)" in repr(rec)


def test_init_fills_the_dict_in_the_twins_order(case):
    cls, _, rec, tw, _, _ = case
    # the fields in declaration order, then what __post_init__ adds
    assert list(vars(rec)) == list(vars(tw))
    assert list(vars(rec))[:len(fields(cls))] == [f.name for f in fields(cls)]


def test_frozen(case):
    cls, _, rec, tw, _, _ = case
    before = dict(vars(rec))
    for name in [f.name for f in fields(cls)] + ["not_a_field"]:
        for obj in (rec, tw):
            with pytest.raises(FrozenInstanceError) as assigned:
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError) as deleted:
                delattr(obj, name)
            assert (str(assigned.value), str(deleted.value)) == (
                f"cannot assign to field {name!r}",
                f"cannot delete field {name!r}")
    assert vars(rec) == before


def test_pickle_and_copies(case):
    _, _, rec, tw, _, _ = case
    for fn in (copy.copy, copy.deepcopy):
        assert same_copy(fn, rec) == same_copy(fn, tw)
    # a twin, found under the record's name, does not pickle; every
    # record that deep-copies pickles to an equal record with the same
    # dict, and the labelings' mapping proxies stop both alike
    assert same_copy(lambda o: pickle.loads(pickle.dumps(o)), rec) == \
        same_copy(copy.deepcopy, rec)
    assert "__slots__" not in vars(type(rec))
    # a copy that is made keeps the dict's key order
    for fn in (copy.copy, copy.deepcopy,
               lambda o: pickle.loads(pickle.dumps(o))):
        kind, back = outcome(fn, rec)
        if kind == "ok":
            assert list(vars(back)) == list(vars(rec))


def test_pentagon_instance_keeps_its_twice_tuple():
    inst = BEInstance.from_twice((0, 1, 1, 0, 2, 3, 0, 2, 2))
    for back in (pickle.loads(pickle.dumps(inst)), copy.copy(inst),
                 copy.deepcopy(inst)):
        assert back.twice_tuple() == inst.twice_tuple() \
            == (0, 1, 1, 0, 2, 3, 0, 2, 2)
        assert back.phi_twice == 11


def test_match_args_and_signature(case):
    cls, twin, _, _, _, _ = case
    assert cls.__match_args__ == twin.__match_args__
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__init__.__annotations__ == twin.__init__.__annotations__
    assert hasattr(cls, "__replace__") == hasattr(twin, "__replace__")


def test_class_pattern_reads_match_args():
    match SixJ.from_twice((2, 2, 0, 2, 2, 4)):
        case SixJ(a, b, Spin(twice=0), y=y):
            assert (a, b, y) == (Spin(2), Spin(2), Spin(4))
        case _:
            pytest.fail("no case matched")


@pytest.mark.skipif(sys.version_info < (3, 13),
                    reason="copy.replace is new in Python 3.13")
def test_copy_replace(case):
    _, _, rec, tw, changes, rejected = case
    assert vars(copy.replace(rec, **changes)) == \
        vars(copy.replace(tw, **changes))
    if rejected:
        bad, error = rejected
        with pytest.raises(error):
            copy.replace(rec, **bad)
