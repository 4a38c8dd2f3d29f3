"""Acceptance suite: one test per criterion, each printing a PASS line,
and one for the S5 invariance of the network amplitude.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Everything is exact arithmetic; no tolerances appear anywhere.
"""

from functools import cache, reduce
from itertools import product

import pytest
from oracles import sixj_one_zero, sixj_via_threej, split_mul
from spinnet.errors import TriadViolation
from spinnet.exactnum import Spin
from spinnet.identities import (
    ALL_TRIADS,
    BEInstance,
    be_check,
    iter_be_grid,
    iter_be_grid_checks,
    iter_orthogonality_grid,
    orthogonality_check,
)
from spinnet.labeling import (
    LINE_TAG_OF_SYMBOL,
    SYMBOL_OF_LINE_TAG,
    SYMBOLS,
    label_desargues,
    network_amplitude,
    transfer_labeling,
)
from spinnet.projective import (
    ConfigurationSignature,
    build_desargues,
    cross_section,
    isomorphic,
    space_dual_desargues,
    validate_configuration,
)
from spinnet.symmetry import (
    CanonicalQuadruple,
    classical_group,
    regularization_bounds,
    running_range,
    symmetry_group,
    symmetry_orbit,
)
from spinnet.wigner import (
    SixJ,
    TRIAD_SLOTS,
    sixj_value,
    sixj_value_twice,
    triad_valid_twice,
)


def all_valid_sixj(max_twice):
    out = []
    for t in product(range(max_twice + 1), repeat=6):
        if all(triad_valid_twice(t[i], t[j], t[k])
               for i, j, k in TRIAD_SLOTS):
            out.append(t)
    return out


def all_canonical_quadruples(max_twice):
    out = []
    for t in product(range(max_twice + 1), repeat=4):
        try:
            out.append(CanonicalQuadruple.from_twice(*t))
        except Exception:
            continue
    return out


def test_criterion_01_classical_symmetry_suite():
    symbols = all_valid_sixj(4)
    group = classical_group()
    assert len(group) == 24
    for t in symbols:
        value = sixj_value_twice(t)
        for el in group:
            assert sixj_value_twice(el.apply_twice(t)) == value
    print(f"\nPASS criterion 1: 24 classical symmetries exact on "
          f"{len(symbols)} symbols (twice <= 4)")


def test_criterion_02_regge_suite():
    symbols = all_valid_sixj(4)
    assert len(symmetry_group()) == 144
    for t in symbols:
        value = sixj_value_twice(t)
        orbit = symmetry_orbit(SixJ.from_twice(t))
        assert 144 % len(orbit) == 0
        for member in orbit:
            assert sixj_value(member) == value
    print(f"PASS criterion 2: 144-element group exact on "
          f"{len(symbols)} orbits, orbit sizes divide 144")


def test_criterion_03_orthogonality():
    count = 0
    for t in iter_orthogonality_grid(6):
        assert orthogonality_check(*(Spin(v) for v in t)).equal, t
        count += 1
    print(f"PASS criterion 3: orthogonality exact on {count} "
          f"instances (twice <= 6)")


def test_criterion_04_pentagon():
    count = 0
    literal_failures = 0
    top = 0
    for t in iter_be_grid(4):
        inst = BEInstance.from_twice(t)
        assert be_check(inst).equal, t
        if not be_check(inst, literal_form=True).equal:
            literal_failures += 1
        count += 1
        top = max(top, *t)
    assert literal_failures > 0
    # the same identity on the twice <= 6 grid, on its twice tuples
    wide = 0
    for t, res in iter_be_grid_checks(6, "be"):
        assert res.equal, t
        wide += 1
    assert wide == 204023
    print(f"PASS criterion 4: pentagon identity exact on {count} "
          f"instances of the twice <= 4 grid (coupled entries reach "
          f"{top}) and on {wide} tuples of the twice <= 6 grid; "
          f"comparison report: literal unweighted form fails on "
          f"{literal_failures}/{count}")


def test_criterion_05_range_law():
    quads = all_canonical_quadruples(8)
    for q in quads:
        x_min, x_max, y_min, y_max = running_range(q)
        assert x_max.twice - x_min.twice == 2 * q.a.twice, q
        assert y_max.twice - y_min.twice == 2 * q.a.twice, q
    print(f"PASS criterion 5: running-range width law on "
          f"{len(quads)} canonical quadruples (twice <= 8)")


def test_criterion_06_regularization_chain():
    quads = all_canonical_quadruples(8)
    rsym5_true = rsym5_false = no_level = 0
    for q in quads:
        rep = regularization_bounds(q)
        assert rep.rsym3_holds, q
        if rep.max_r is None:
            no_level += 1
        elif rep.rsym5_holds:
            rsym5_true += 1
        else:
            rsym5_false += 1
    print(f"PASS criterion 6: zero semi-perimeter bound violations on "
          f"{len(quads)} canonical quadruples; root-of-unity bound holds "
          f"{rsym5_true}, fails {rsym5_false}, no level {no_level}")


def test_criterion_07_desargues_structure():
    d = build_desargues()
    assert validate_configuration(d, ConfigurationSignature(10, 3, 10, 3))
    pairs = 0
    for i in range(1, 6):
        for j in range(i + 1, 6):
            common = [p for p in d.points
                      if {str(i), str(j)} <=
                      set(d.point_labels[p].strip("()"))]
            assert len(common) == 1
            assert d.point_labels[common[0]] == f"({i}{j})"
            pairs += 1
    assert pairs == 10
    print("PASS criterion 7: ten-point configuration validates (10_3); "
          "all 10 quadrangle pair intersections tagged (ij)")


def test_criterion_08_space_dual_round_trip():
    d = build_desargues()
    c = space_dual_desargues(d)
    assert c.f_vector() == (5, 10, 10, 5)
    for t in c.triangles:
        assert len(c.tetrahedra_containing(t)) == 2
    section = cross_section(c)
    assert isomorphic(section, d)
    print("PASS criterion 8: space dual has f-vector (5,10,10,5), "
          "triangles in 2 tetrahedra, cross-section isomorphic")


@cache
def all_valid_labelings(max_twice=4):
    """Every ten-spin twice-labeling, in SYMBOLS order, with all entries
    <= max_twice and all ten triads of the pentagon identity coupling.

    Each triad is checked as soon as the last of its spins is placed.
    """
    slots = [tuple(SYMBOLS.index(n) for n in names) for names in ALL_TRIADS]
    due = [[t for t in slots if max(t) == k] for k in range(len(SYMBOLS))]
    out = []

    def extend(prefix):
        if len(prefix) == len(SYMBOLS):
            out.append(prefix)
            return
        for v in range(max_twice + 1):
            t = prefix + (v,)
            if all(triad_valid_twice(*(t[i] for i in tri))
                   for tri in due[len(prefix)]):
                extend(t)

    extend(())
    return tuple(out)


def spins_of(t):
    return {n: Spin(v) for n, v in zip(SYMBOLS, t)}


# for each point, the two spins whose zeroing, with every other spin 1,
# breaks that point's triad alone: two lines meet in one point only
ONE_POINT_BROKEN = {
    "(12)": "cd", "(13)": "ab", "(14)": "bc", "(15)": "ad", "(23)": "ef",
    "(24)": "cf", "(25)": "de", "(34)": "bf", "(35)": "ae", "(45)": "pq",
}


def test_criterion_09_labeling_transfer():
    complex4 = space_dual_desargues(build_desargues())
    labelings = all_valid_labelings()
    assert len(labelings) == 12375
    for t in labelings:
        lab = label_desargues(spins_of(t))
        sl = transfer_labeling(lab, complex4)
        quad_vals = [sixj_value(s) for s in lab.quadrangle_symbols()]
        tet_vals = [sixj_value(s) for s in sl.tetrahedron_symbols()]
        assert quad_vals == tet_vals, t
    d = build_desargues()
    assert sorted(ONE_POINT_BROKEN) == sorted(d.point_labels.values())
    for tag, zeroed in ONE_POINT_BROKEN.items():
        spins = {n: Spin(0 if n in zeroed else 2) for n in SYMBOLS}
        with pytest.raises(TriadViolation) as err:
            label_desargues(spins)
        assert [v[0] for v in err.value.violations] == [tag]
    print(f"PASS criterion 9: all {len(labelings)} valid labelings with "
          f"twice <= 4 transfer with symbol-by-symbol value equality; "
          f"each of the {len(ONE_POINT_BROKEN)} point triads broken alone "
          f"is rejected at that point only")


def test_network_amplitude_matches_the_split_product():
    # the former path: the five symbol values multiplied one by one,
    # each product renormalised by factoring its radicand
    labelings = all_valid_labelings()
    for t in labelings:
        lab = label_desargues(spins_of(t))
        expected = reduce(split_mul,
                          (sixj_value(s) for s in lab.quadrangle_symbols()))
        assert network_amplitude(lab) == expected, t
    print(f"PASS amplitude: the five-symbol product equals the split "
          f"product of the five values on all {len(labelings)} valid "
          f"labelings with twice <= 4")


def _vertex_map_on_symbols(perm):
    """Slot of the symbol each symbol moves to when vertex k goes to
    perm[k]: the edge of line [kl] goes to the edge {perm[k], perm[l]}."""
    def image(tag):
        k, l = int(tag[1]), int(tag[2])
        return "[" + "".join(str(v) for v in sorted((perm[k], perm[l]))) + "]"
    return tuple(SYMBOLS.index(SYMBOL_OF_LINE_TAG[image(LINE_TAG_OF_SYMBOL[s])])
                 for s in SYMBOLS)


def test_network_amplitude_s5_invariance():
    # S5 acts on the 4-simplex by permuting its vertices, i.e. on the
    # configuration by its automorphisms; (12) and (12345) generate it
    labelings = all_valid_labelings()
    amplitudes = {t: network_amplitude(label_desargues(spins_of(t)))
                  for t in labelings}
    generators = ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5},
                  {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    for perm in generators:
        target = _vertex_map_on_symbols(perm)
        assert sorted(target) == list(range(len(SYMBOLS)))
        for t, amp in amplitudes.items():
            moved = [0] * len(t)
            for i, v in zip(target, t):
                moved[i] = v
            # a valid labeling moves to a valid one, of equal amplitude
            assert amplitudes.get(tuple(moved)) == amp, (perm, t)
    print(f"PASS S5 invariance: network amplitude unchanged under the "
          f"vertex permutations (12) and (12345) on all {len(labelings)} "
          f"valid labelings with twice <= 4")


def test_criterion_10_oracle_equivalence():
    symbols = all_valid_sixj(4)
    for t in symbols:
        assert sixj_value_twice(t) == sixj_via_threej(t), t
    closed = 0
    for ta, tb, tc in product(range(7), repeat=3):
        if not triad_valid_twice(ta, tb, tc):
            continue
        # {a b c; 0 c b} wherever the zero-entry form applies
        t = (ta, tb, tc, 0, tc, tb)
        assert sixj_value_twice(t) == sixj_one_zero(ta, tb, tc), t
        closed += 1
    print(f"PASS criterion 10: production values match the 3j-contraction "
          f"oracle on {len(symbols)} symbols and the zero-entry closed "
          f"form on {closed} triads")
