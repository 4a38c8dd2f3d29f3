import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import pytest

import spinnet.cli
from spinnet.cli import MAX_SINGLE_TWICE, main, verify_grid
from spinnet.errors import CeilingExceeded, InvalidSpin, SpinnetError
from spinnet.exactnum import Spin, SqrtRational
from spinnet.identities import iter_be_grid
from spinnet.labeling import SYMBOLS, label_desargues, network_amplitude


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSixj:
    def test_regular_symbol(self, capsys):
        code, out, _ = run(capsys, "sixj", "1", "1", "1", "1", "1", "1")
        assert code == 0
        assert out == "1/6*sqrt(1/1)\n"

    def test_twice_mode(self, capsys):
        code, out, _ = run(capsys, "sixj", "--twice", "2", "2", "2",
                           "2", "2", "2")
        assert out == "1/6*sqrt(1/1)\n"

    def test_half_integers(self, capsys):
        code, out, _ = run(capsys, "sixj", "1/2", "1/2", "1",
                           "1/2", "1/2", "1")
        assert code == 0 and out == "1/6*sqrt(1/1)\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sixj", "--format", "json",
                           "2", "1", "2", "1", "2", "2")
        data = json.loads(out)
        assert code == 0
        assert data["entries"] == ["2", "1", "2", "1", "2", "2"]
        assert data["value"].endswith("*sqrt(1/1)") or "sqrt" in data["value"]

    def test_invalid_symbol_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sixj", "1", "0", "0", "0", "0", "0")
        assert code == 2 and "triads" in err

    def test_bad_spin_string(self, capsys):
        code, _, err = run(capsys, "sixj", "[offset]", "0", "0", "0", "0", "0")
        assert code == 2

    def test_bad_twice_value_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sixj", "--twice", "1", "x",
                             "1", "1", "1", "1")
        assert code == 2 and out == ""
        assert err.startswith("spinnet: ") and "'x'" in err

    def test_bad_twice_p_prime_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-pachner", "--move", "14",
                             "--twice", "--p-prime", "x", *(["2"] * 9))
        assert code == 2 and out == ""
        assert err.startswith("spinnet: ") and "'x'" in err

    def test_size_limit_is_usage_error_before_any_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "sixj", "--twice",
                             *(["100000"] * 6))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == ("spinnet: twice-value 100000 exceeds the "
                       f"single-symbol limit {MAX_SINGLE_TWICE}\n")

    def test_size_limit_is_inclusive(self, capsys):
        top = str(MAX_SINGLE_TWICE)
        code, out, _ = run(capsys, "sixj", "--twice", top, top, "0",
                           "0", "0", top)
        # {j j 0; 0 0 j} = 1/sqrt(2j+1)
        expected = SqrtRational.sqrt(Fraction(1, MAX_SINGLE_TWICE + 1))
        assert code == 0 and out == f"{expected}\n"
        over = str(MAX_SINGLE_TWICE + 2)
        code, out, _ = run(capsys, "sixj", "--twice", over, over, "0",
                           "0", "0", over)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ("sixj", "50000", "50000", "50000", "50000", "50000", "50000"),
        ("orbit", "--twice", "2", "2", "2", "2", "2", "100000"),
        ("verify-orth", "--twice", "2", "2", "2", "2", "2", "100000"),
        ("verify-be", "--twice", *(["100000"] * 9)),
        ("verify-pachner", "--move", "23", "--twice", *(["100000"] * 9)),
        ("verify-pachner", "--move", "14", "--twice",
         "--p-prime", "100000", *(["2"] * 9)),
    ])
    def test_size_limit_single_commands(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "exceeds the single-symbol limit" in err

    def test_size_limit_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert str(MAX_SINGLE_TWICE) in capsys.readouterr().out

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "sixj", "--format", "json",
                         "1", "1", "1", "1", "1", "1")
        _, out2, _ = run(capsys, "sixj", "--format", "json",
                         "1", "1", "1", "1", "1", "1")
        assert out1 == out2


class TestOrbit:
    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, "orbit", "--format", "json",
                           "1", "1", "1", "1", "1", "1")
        data = json.loads(out)
        assert code == 0 and data["orbit_size"] == 1

    def test_text(self, capsys):
        code, out, _ = run(capsys, "orbit", "2", "1", "1", "1", "1", "1")
        assert code == 0 and out.startswith("orbit size ")


class TestVerify:
    def test_be_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify-be", "--all", "--max-twice", "2")
        assert code == 0
        assert "0 failures" in out

    def test_be_literal_form_fails(self, capsys):
        code, out, _ = run(capsys, "verify-be", "--all", "--max-twice", "2",
                           "--literal-paper-form")
        assert code == 1
        assert "0 failures" not in out

    def test_be_single_instance(self, capsys):
        code, out, _ = run(capsys, "verify-be", *(["1"] * 9))
        assert code == 0 and "holds" in out

    def test_orth_grid_json_records(self, capsys):
        code, out, _ = run(capsys, "verify-orth", "--all", "--max-twice", "1",
                           "--format", "json", "--sorted")
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        assert code == 0
        assert summary["failures"] == 0
        assert summary["instances"] == len(lines) - 1
        record = json.loads(lines[0])
        assert set(record) >= {"instance", "lhs", "rhs", "equal", "form"}

    def test_orth_single(self, capsys):
        code, out, _ = run(capsys, "verify-orth", "1", "1", "1", "1", "1", "1")
        assert code == 0

    def test_pachner_23(self, capsys):
        code, out, _ = run(capsys, "verify-pachner", "--move", "23",
                           *(["1"] * 9))
        assert code == 0

    def test_pachner_14(self, capsys):
        code, out, _ = run(capsys, "verify-pachner", "--move", "14",
                           "--p-prime", "1", *(["1"] * 9))
        assert code == 0

    def test_pachner_14_needs_p_prime(self, capsys):
        code, _, err = run(capsys, "verify-pachner", "--move", "14",
                           *(["1"] * 9))
        assert code == 2

    def test_ceiling(self, capsys):
        code, _, err = run(capsys, "verify-orth", "--all",
                           "--max-twice", "9")
        assert code == 2 and "ceiling" in err

    def test_verify_grid_api(self):
        records = list(verify_grid(1, "be"))
        assert all(r["equal"] for r in records)
        assert len(records) == len(list(iter_be_grid(1)))
        with pytest.raises(CeilingExceeded):
            verify_grid(7, "be")

    def test_verify_grid_degenerate(self, capsys):
        records = list(verify_grid(0, "be"))
        assert len(records) == 1 and records[0]["equal"]
        code, out, _ = run(capsys, "verify-be", "--all", "--max-twice", "0",
                           "--format", "json")
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {
            "instances": 1, "failures": 0, "which": "be"}

    def test_verify_grid_streams(self, monkeypatch):
        calls = []
        check = spinnet.cli.orthogonality_check
        monkeypatch.setattr(spinnet.cli, "orthogonality_check",
                            lambda *spins: calls.append(spins) or check(*spins))
        records = verify_grid(2, "orthogonality")
        assert calls == []
        first = next(records)
        assert len(calls) == 1 and first["equal"]
        assert first["instance"] == dict.fromkeys(
            ("a", "b", "c", "d", "y", "y'"), "0")

    def test_cli_writes_each_record_as_checked(self, capsys, monkeypatch):
        # the output seen at each check: records before it, no summary
        seen = []
        check = spinnet.cli.orthogonality_check

        def spy(*spins):
            seen.append(capsys.readouterr().out)
            return check(*spins)

        monkeypatch.setattr(spinnet.cli, "orthogonality_check", spy)
        code, out, _ = run(capsys, "verify-orth", "--all", "--max-twice",
                           "1", "--format", "json")
        lines = "".join(seen + [out]).splitlines()
        assert code == 0 and len(seen) == len(lines) - 1 == 64
        assert seen[0] == "" and seen[1] == lines[0] + "\n"
        assert all(s.count("\n") == 1 for s in seen[1:])
        assert json.loads(lines[-1])["instances"] == 64

    def test_verify_grid_negative_is_error(self):
        with pytest.raises(SpinnetError, match="negative"):
            verify_grid(-1, "be")

    @pytest.mark.parametrize("command, max_twice",
                             [("verify-orth", "-1"), ("verify-be", "-3")])
    def test_empty_grid_is_usage_error(self, capsys, command, max_twice):
        code, out, err = run(capsys, command, "--all",
                             "--max-twice", max_twice)
        assert code == 2 and out == ""
        assert err == f"spinnet: max twice-value {max_twice} is negative\n"

    def test_verify_grid_pachner_14(self):
        records = list(verify_grid(1, "pachner-14"))
        assert records and all(r["equal"] for r in records)


class TestStructures:
    def test_build_desargues_json(self, capsys):
        code, out, _ = run(capsys, "build-desargues", "--format", "json")
        data = json.loads(out)
        assert len(data["points"]) == 10 and len(data["lines"]) == 10
        assert len(data["incidence"]) == 30

    def test_build_desargues_json_roundtrips(self, capsys):
        from spinnet.projective import (
            ConfigurationSignature, IncidenceStructure, build_desargues,
            isomorphic, validate_configuration)
        _, out, _ = run(capsys, "build-desargues", "--format", "json")
        rebuilt = IncidenceStructure.from_json_dict(json.loads(out))
        assert validate_configuration(rebuilt,
                                      ConfigurationSignature(10, 3, 10, 3))
        assert isomorphic(rebuilt, build_desargues())

    def test_build_desargues_dot(self, capsys):
        code, out, _ = run(capsys, "build-desargues", "--format", "dot")
        assert out.startswith("graph incidence {")

    def test_space_dual(self, capsys):
        code, out, _ = run(capsys, "space-dual")
        data = json.loads(out)
        assert [len(data[k]) for k in
                ("vertices", "edges", "triangles", "tetrahedra")] == \
            [5, 10, 10, 5]

    def test_cross_section(self, capsys):
        code, out, _ = run(capsys, "cross-section")
        data = json.loads(out)
        assert data["validates_10_3"] and data["isomorphic_to_original"]

    def test_export_quadrilateral(self, capsys):
        code, out, _ = run(capsys, "export", "quadrilateral")
        data = json.loads(out)
        assert len(data["points"]) == 6 and len(data["lines"]) == 4

    def test_export_dot_cliques(self, capsys):
        code, out, _ = run(capsys, "export", "desargues", "--format", "dot",
                           "--cliques")
        assert "shape=box" not in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "d.json"
        code, out, _ = run(capsys, "build-desargues", "-o", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["points"]


class TestLabelAmplitude:
    SPINS = ",".join(f"{s}=1" for s in
                     ("a", "b", "c", "d", "e", "f", "p", "q", "r", "x"))

    def test_label_valid(self, capsys):
        code, out, _ = run(capsys, "label", "--spins", self.SPINS,
                           "--transfer")
        data = json.loads(out)
        assert code == 0 and data["valid"]
        assert data["tetrahedra"]["T1"] == "{1 1 1; 1 1 1}"

    def test_label_violation_exit_1(self, capsys):
        bad = self.SPINS.replace("x=1", "x=0").replace("a=1", "a=0")
        code, out, _ = run(capsys, "label", "--spins", bad)
        data = json.loads(out)
        assert code == 1 and not data["valid"]
        assert data["violations"]

    def test_amplitude(self, capsys):
        code, out, _ = run(capsys, "amplitude", "--spins", self.SPINS)
        assert code == 0 and out == "1/7776*sqrt(1/1)\n"

    def test_regularize(self, capsys):
        code, out, _ = run(capsys, "regularize", "1", "1", "1", "1")
        data = json.loads(out)
        assert data["report"] == {"rsym3_holds": True, "max_r": 4,
                                  "kappa_twice": 2, "rsym5_holds": False}
        assert data["running_range"]["x_max"] == "2"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "1", "1", "1",
                           "--others", "e=1,f=1,p=1,q=1,r=1")
        data = json.loads(out)
        assert code == 0 and data["states"] == 3

    @pytest.mark.parametrize("argv", [
        ("amplitude", "--spins", SPINS.replace("a=1", "a=4001/2")),
        ("enumerate", "--twice", "4001", "2", "2", "2",
         "--others", "e=1,f=1,p=1,q=1,r=1"),
        ("enumerate", "1", "1", "1", "1",
         "--others", "e=1,f=1,p=1,q=1,r=4001/2"),
        ("enumerate", "5000", "5000", "5000", "5000",
         "--others", "e=5000,f=5000,p=5000,q=5000,r=5000"),
    ])
    def test_size_limit_is_usage_error_before_any_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "exceeds the single-symbol limit" in err

    def test_amplitude_at_the_limit_prints_in_full(self, capsys):
        top = {s: Spin(MAX_SINGLE_TWICE) for s in SYMBOLS}
        argv = ("amplitude", "--spins",
                ",".join(f"{s}={v}" for s, v in top.items()))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out) > 15000
        expected = network_amplitude(label_desargues(top))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert SqrtRational.parse(out) == expected
        finally:
            sys.set_int_max_str_digits(limit)
        code, out, _ = run(capsys, *argv, "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["amplitude"] == str(expected)
        assert math.isclose(data["approx"], expected.to_float())
        # printing in full leaves the int-string limit that bounds parsing
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(InvalidSpin):
            Spin.parse("9" * 5000)

    @pytest.mark.parametrize("argv", [
        ("label", "--spins", "a=1"),
        ("amplitude", "--spins", "a=1"),
        ("enumerate", "1", "1", "1", "1", "--others", "e=1"),
    ])
    def test_missing_symbol_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("spinnet: missing spin symbol")

    @pytest.mark.parametrize("argv", [
        ("label", "--spins", SPINS + ",zz=3"),
        ("amplitude", "--spins", SPINS + ",zz=3"),
        ("enumerate", "1", "1", "1", "1",
         "--others", "e=1,f=1,p=1,q=1,r=1,zz=3"),
        ("enumerate", "1", "1", "1", "1",
         "--others", "a=1,e=1,f=1,p=1,q=1,r=1"),
    ])
    def test_unknown_symbol_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("spinnet: unknown spin symbol ")

    @pytest.mark.parametrize("argv", [
        ("label", "--spins", "a=1,a=2," + SPINS[4:]),
        ("amplitude", "--spins", SPINS + ",x=1"),
        ("enumerate", "1", "1", "1", "1",
         "--others", "e=1,f=1,p=1,q=1,r=1,e=2"),
    ])
    def test_repeated_symbol_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("spinnet: repeated spin symbol ")


# sha256 of stdout, and the exit code, of grid and symbol commands,
# recorded before the identity sums moved to integer triples
GOLDEN = [
    (("verify-orth", "--all", "--max-twice", "3", "--format", "json"), 0,
     "032430819bf7e1731545c9405b7ee6c2422b0670fc8b0694e0941ca7173fc07a"),
    (("verify-be", "--all", "--max-twice", "2", "--format", "json"), 0,
     "3d0efe6b96aa3427816da928a28f501112059ab365dc2f6710a891d0635195ff"),
    (("verify-be", "--all", "--max-twice", "2", "--literal-paper-form"), 1,
     "d8024c29934abc4aab3d5535967f32b79f20d04d1e30e7587d83ef617e5f31a7"),
    (("verify-pachner", "--move", "14", "--all", "--max-twice", "2",
      "--format", "json"), 0,
     "0669892719cb89aa628625a1b7b13c65928c7714a9725b3e7d44de037b7535b0"),
    (("sixj", "--twice", "4", "4", "4", "4", "4", "4", "--format", "json"), 0,
     "c2e8055f9103ba98a4d653034a1e8234bdd4dae1f5a472b72690c8edc325f072"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_bytes(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
