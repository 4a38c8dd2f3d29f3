import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import spinnet.cli
import spinnet.identities
import spinnet.labeling
from spinnet.cli import MAX_SINGLE_TWICE, main, verify_grid
from spinnet.errors import CeilingExceeded, InvalidSpin, SpinnetError
from spinnet.exactnum import Spin, SqrtRational
from spinnet.identities import BEInstance, iter_be_grid
from spinnet.labeling import (SYMBOLS, iter_regularized_enumeration,
                              label_desargues, network_amplitude)
from spinnet.symmetry import canonicalize_quadruple
from spinnet.wigner import SixJ, sixj_value


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

    @pytest.mark.parametrize("argv, triads", [
        (("--twice", *["1"] * 6),
         "in {1/2 1/2 1/2; 1/2 1/2 1/2}: " + ", ".join(
             ["(1/2, 1/2, 1/2)"] * 4)),
        (("1", "0", "0", "0", "0", "0"),
         "in {1 0 0; 0 0 0}: (1, 0, 0), (1, 0, 0)"),
    ])
    def test_invalid_triads_print_as_spins(self, capsys, argv, triads):
        code, out, err = run(capsys, "sixj", *argv)
        assert code == 2 and out == ""
        assert err == f"spinnet: invalid triads {triads}\n"

    def test_bad_spin_string(self, capsys):
        code, _, err = run(capsys, "sixj", "[offset]", "0", "0", "0", "0", "0")
        assert code == 2

    def test_bad_twice_value_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sixj", "--twice", "1", "x",
                             "1", "1", "1", "1")
        assert code == 2 and out == ""
        assert err.startswith("spinnet: ") and "'x'" in err

    @pytest.mark.parametrize("argv", [
        ("٣", "3", "3", "3", "3", "3"),
        ("٣/2", "3/2", "3", "3/2", "3/2", "3"),
        ("--twice", "٣", "3", "4", "3", "3", "4"),
        ("--twice", "1_0", "10", "10", "10", "10", "10"),
        ("--twice", "+2", "2", "2", "2", "2", "2"),
    ])
    def test_non_ascii_digits_are_usage_errors(self, capsys, argv):
        # int() reads these as numbers; a spin argument is ASCII digits
        code, out, err = run(capsys, "sixj", *argv)
        assert code == 2 and out == ""
        assert err.startswith("spinnet: cannot parse ")

    def test_negative_twice_value_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sixj", "--twice", "-1", *["2"] * 5)
        assert code == 2 and out == ""
        assert err == "spinnet: twice-value must be non-negative, got -1\n"

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
        expected = SqrtRational(1, Fraction(1, MAX_SINGLE_TWICE + 1))
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

    def test_json_approx_beyond_float_radicand(self, capsys):
        # the radicand of this symbol has 2830 bits, beyond the float range
        twice = (3715, 3876, 3139, 3888, 3315, 2204)
        code, out, err = run(capsys, "sixj", "--twice", *map(str, twice),
                             "--format", "json")
        assert code == 0 and err == ""
        approx = json.loads(out)["approx"]
        value = sixj_value(SixJ.from_twice(twice))
        assert value.radicand.bit_length() > 1024
        square = Fraction(value.coeff.numerator ** 2 * value.radicand,
                          value.coeff.denominator ** 2)
        assert math.isfinite(approx) and approx != 0
        assert math.isclose(approx ** 2, float(square), rel_tol=1e-12)

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

    @pytest.mark.parametrize("argv, per_instance", [
        (("verify-be",), 1),
        (("verify-pachner", "--move", "14"), 3),
    ])
    def test_be_grids_build_no_instance_and_stream(
            self, capsys, monkeypatch, argv, per_instance):
        built = []
        post_init = BEInstance.__post_init__
        monkeypatch.setattr(
            BEInstance, "__post_init__",
            lambda inst: built.append(1) or post_init(inst))
        BEInstance.from_twice((0,) * 9)
        assert built == [1]
        built.clear()
        # the output seen as each instance's pentagon sides are summed,
        # which both moves do once per instance
        seen = []
        sides = spinnet.identities._be_sides

        def spy(*args, **kwargs):
            seen.append(capsys.readouterr().out)
            return sides(*args, **kwargs)

        monkeypatch.setattr(spinnet.identities, "_be_sides", spy)
        code, out, _ = run(capsys, *argv, "--all", "--max-twice", "2",
                           "--format", "json")
        lines = "".join(seen + [out]).splitlines()
        assert code == 0 and built == []
        assert len(seen) == len(list(iter_be_grid(2)))
        assert len(lines) == len(seen) * per_instance + 1
        assert seen[0] == ""
        assert seen[1] == "".join(line + "\n"
                                  for line in lines[:per_instance])

    def test_verify_grid_negative_is_error(self):
        with pytest.raises(SpinnetError, match="negative"):
            verify_grid(-1, "be")

    def test_verify_grid_unknown_kind_is_error_at_the_call(self):
        with pytest.raises(SpinnetError, match="unknown verification grid"):
            verify_grid(2, "foo")

    @pytest.mark.parametrize("which",
                             ["orthogonality", "pachner-23", "pachner-14"])
    def test_verify_grid_unweighted_form_of_another_grid_is_error(self,
                                                                  which):
        # only the pentagon grid has an unweighted form
        with pytest.raises(SpinnetError, match="has no unweighted form"):
            verify_grid(1, which, literal_form=True)

    @pytest.mark.parametrize("command, max_twice",
                             [("verify-orth", "-1"), ("verify-be", "-3")])
    def test_empty_grid_is_usage_error(self, capsys, command, max_twice):
        code, out, err = run(capsys, command, "--all",
                             "--max-twice", max_twice)
        assert code == 2 and out == ""
        assert err == f"spinnet: max twice-value {max_twice} is negative\n"

    @pytest.mark.parametrize("option, value", [
        ("--max-twice", "\u0661"), ("--max-twice", "0_1"),
        ("--max-twice", "+1"), ("--max-twice", "abc"),
        ("--ceiling", "\u0663"), ("--ceiling", "1_0")])
    def test_malformed_grid_integers_are_usage_errors(self, capsys, option,
                                                      value):
        # int() reads other scripts' digits, underscores and a plus sign;
        # a grid bound is ASCII digits, a minus sign at most
        argv = ["verify-orth", "--all", "--max-twice", "1", option, value]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"spinnet: cannot parse {option} {value!r} "
                       "(expected an integer)\n")

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

    def test_export_simplex_dot_is_usage_error(self, capsys):
        code, out, err = run(capsys, "export", "simplex", "--format", "dot")
        assert code == 2 and out == ""
        assert err == "spinnet: the 4-simplex exports as json only\n"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "d.json"
        code, out, _ = run(capsys, "build-desargues", "-o", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["points"]

    @pytest.mark.parametrize("target, reason", [
        (("missing", "x"), "No such file or directory"),
        ((), "Is a directory"),
    ])
    def test_output_that_cannot_be_opened_is_usage_error(
            self, tmp_path, capsys, target, reason):
        path = str(tmp_path.joinpath(*target))
        code, out, err = run(capsys, "sixj", "-o", path,
                             "1", "1", "1", "1", "1", "1")
        assert code == 2 and out == ""
        assert err == f"spinnet: cannot write {path}: {reason}\n"


def spinnet_process(argv, **kwargs):
    """The spinnet command as a child process, reading this checkout."""
    src = str(Path(spinnet.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "spinnet.cli", *argv],
                            stderr=subprocess.PIPE, env=env, **kwargs)


class TestOutputErrors:
    """A failed write ends in one message and exit 2, not a traceback."""

    def test_closed_pipe(self):
        proc = spinnet_process(["verify-orth", "--all", "--max-twice", "4",
                                "--format", "json"], stdout=subprocess.PIPE)
        with proc:
            first = proc.stdout.readline()
            proc.stdout.close()  # the reader goes away, as `| head -1` does
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert json.loads(first)["equal"]
        assert code == 2
        assert err == "spinnet: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the /dev/full device")
    @pytest.mark.parametrize("target", ["/dev/full", "stdout"])
    def test_full_device(self, target):
        argv = ["sixj", "1", "1", "1", "1", "1", "1"]
        with open("/dev/full", "w") as full:
            if target == "stdout":
                proc = spinnet_process(argv, stdout=full)
            else:
                proc = spinnet_process(argv + ["-o", target],
                                       stdout=subprocess.DEVNULL)
            with proc:
                err = proc.stderr.read().decode()
                code = proc.wait(timeout=60)
        assert code == 2
        assert err == (f"spinnet: cannot write {target}: "
                       "No space left on device\n")


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
        ("--twice", "11", "9", "8", "10", "--others", "e=6,f=9/2,p=5,q=4,r=5"),
        ("--twice", "10", "9", "8", "9",
         "--others", "e=9/2,f=6,p=1/2,q=5,r=11/2"),
        ("--twice", "6", "12", "12", "10", "--others", "e=6,f=6,p=6,q=6,r=6"),
    ])
    def test_enumerate_streams_the_whole_document(self, argv, monkeypatch):
        # the streamed JSON equals the document dumped whole, and each
        # entry is written before the next amplitude is computed
        args = spinnet.cli.build_parser().parse_args(("enumerate",) + argv)
        quad = canonicalize_quadruple(*(Spin(int(v)) for v in argv[1:5]))
        others = {k: Spin.parse(v) for k, v in
                  (kv.split("=") for kv in argv[-1].split(","))}
        entries = list(iter_regularized_enumeration(quad, others))
        written = []
        amplitude = spinnet.labeling.network_amplitude
        buf = io.StringIO()
        monkeypatch.setattr(spinnet.labeling, "network_amplitude",
                            lambda lab: written.append(buf.tell())
                            or amplitude(lab))
        assert args.fn(args, buf) == 0
        assert buf.getvalue() == spinnet.cli._dump({
            "canonical": str(quad),
            "states": len(entries),
            "entries": [{"x": str(x), "amplitude": str(a)}
                        for x, a in entries],
        }) + "\n"
        assert len(written) == len(entries) >= 5
        assert written[0] == 0 and all(
            u < v for u, v in zip(written, written[1:]))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_enumerate_without_a_running_spin_writes_nothing(self, capsys,
                                                             fmt):
        code, out, err = run(capsys, "enumerate", "--twice", "2", "2", "2",
                             "2", "--others", "e=0,f=10,p=0,q=0,r=0",
                             "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("spinnet: no admissible running spin")

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


NINE_ONES = ("1",) * 9

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
    # recorded before the be and Pachner grids ran on twice tuples
    (("verify-be", "--all", "--max-twice", "3"), 0,
     "43517d4ac66596147297adce4fb941e7ce84054c5711d7a397e470994081300d"),
    (("verify-be", "--all", "--max-twice", "3", "--format", "json",
      "--sorted"), 0,
     "3018ea6a12658e42d123d0c994f41f3e390df35dfc5d0615d5b562f84eac7ec2"),
    (("verify-pachner", "--move", "23", "--all", "--max-twice", "3",
      "--format", "json"), 0,
     "be1c169994c4109ebb9f70004cd839f9d8ad973006fdc2a9d5d4217089284d3f"),
    (("verify-pachner", "--move", "14", "--all", "--max-twice", "3",
      "--format", "json", "--sorted"), 0,
     "69f5b56ede215d4bf128f4c04af96b3ff56ba41b31210cbd8eb46311dd5b4f59"),
    # the pentagon and 2-3 grids at twice <= 4
    (("verify-be", "--all", "--max-twice", "4", "--format", "json"), 0,
     "508d8632f3550018e60b9437636fbd1a7f8702a7f29950f6854f0891665d1dad"),
    (("verify-pachner", "--move", "23", "--all", "--max-twice", "4",
      "--format", "json"), 0,
     "091cd4523b253fdc6b3db65164024d7c8201e9ad6899a418bc2bafd2a22744e4"),
    # the kernel's large path, recorded before it read only the Regge
    # array: a regular symbol at the size limit, a skewed one with 620
    # ratio steps, and a column whose x crosses _SPLIT_STEPS
    (("sixj", "--twice", "4000", "4000", "4000", "4000", "4000", "4000",
      "--format", "json"), 0,
     "8c21de20a1d08d7bbce049283e7d85ee2eae8f4f03eec977b9e217a704e08a5b"),
    (("sixj", "--twice", "3001", "2203", "2900", "2594", "1780", "2461",
      "--format", "json"), 0,
     "eb52a80ff4476fdf7564def3a06ef475ea1fca33e0fb4236e5d84c4de760aec3"),
    (("verify-orth", "--twice", "--format", "json",
      "400", "400", "400", "400", "400", "400"), 0,
     "9e555403f4488cccae7d7049382c0a8bf1d488c4cd6324e6941c58feb317e759"),
    # recorded before the kernel chose its path by zmin alone: a thin
    # symbol at the size limit (zmin 6000, one ratio step) and a skewed
    # one with zmin 3234 and 61 ratio steps, both on the Horner path then
    (("sixj", "--twice", "4000", "4000", "4000", "4000", "4000", "2",
      "--format", "json"), 0,
     "0dfa01b59cf5e8a7791a5dd092658677e13d0a13eddc40c2ba14faaedfc11a52"),
    (("sixj", "--twice", "1437", "1712", "3027", "1181", "2260", "1879",
      "--format", "json"), 0,
     "5507c21eefa738dc6714f81403b2c5335f98cce1a77f6a3de9c0431e6da14c61"),
    # recorded before the large path cancelled a common factor at each
    # merge of its binary splitting: near-regular symbols at twice about
    # 1200, the largest of the sixj_cold benchmark, one with integer
    # spins (zmin 1806, 595 ratio steps) and one with half-integer a, b,
    # c, d (zmin 1802, 597 ratio steps)
    (("sixj", "--twice", "1200", "1204", "1198", "1202", "1196", "1206",
      "--format", "json"), 0,
     "51769a72d81b2743c33618333f1b12f3da6afc34f19d42133a4578e38fa05558"),
    (("sixj", "--twice", "1201", "1199", "1200", "1203", "1197", "1202",
      "--format", "json"), 0,
     "6d82423c84bb25af0870150a0c34be0b4bd66260a0ce30d2e4d7590f6b624dab"),
    # recorded before the cli gave each job one code path: the json
    # records of single-instance checks, the text of the structure and
    # enumeration commands, a failing amplitude and the exports
    (("verify-orth", "--format", "json", "1", "1", "1", "1", "1", "1"), 0,
     "58647182b92b5462c2011c81e8c601c2eef03d100a2dffbc3dc1069536dde854"),
    (("verify-orth", "--format", "json", "1", "1", "1", "1", "1", "0"), 0,
     "091ad88f753def0e226d4ee2bf1bfa595ded45cc2fd1b66716e4268529e2ae57"),
    (("verify-be", "--format", "json", *NINE_ONES), 0,
     "4a3f16cdb11f0b4517ab46d6f2acf789d849c8f9d15e50a0007d7e122df67c44"),
    (("verify-be", "--format", "json", "--literal-paper-form", *NINE_ONES), 1,
     "fa8886b9c8a78cb69c0d774a91a78f7cd939b625d9faabc9be627eb9472875e7"),
    (("verify-pachner", "--move", "23", "--format", "json", *NINE_ONES), 0,
     "6ed10ecc4174e737eca840fe90271a451dc170921eaede637aeec62e5f3c5f3f"),
    (("verify-pachner", "--move", "14", "--p-prime", "1", "--format", "json",
      *NINE_ONES), 0,
     "7cdeecf59493c0362374f340e96a55fce34d285d500f4d2682b485eeed99fc5d"),
    (("verify-pachner", "--move", "14", "--p-prime", "0", "--format", "json",
      *NINE_ONES), 0,
     "c5aa315c3e46d095ecf1a6417085d85bbe875cf1a11de5685b800e6b4781f201"),
    (("build-desargues", "--format", "text"), 0,
     "58abecc8dcf650674f516a1fbbd3ad0f10fd6539cabfd03685e6db51f4597ac7"),
    (("space-dual", "--format", "text"), 0,
     "79294ff4f8d80a35496b8944939941b8c54ac7d32b484991bad8d36c0ba3e8f4"),
    (("cross-section", "--format", "text"), 0,
     "b2c4a94fd67df1842889bae8cf26560ea642b60e6dfab2e715722afdc4c7f114"),
    (("regularize", "--format", "text", "1", "1", "1", "1"), 0,
     "0b27558b2882de7f1cf001f5101255dc48ed72092c2c30fe929db3a0c08fea6c"),
    (("enumerate", "--format", "text", "1", "1", "1", "1",
      "--others", "e=1,f=1,p=1,q=1,r=1"), 0,
     "12d1ffadc304d1fecf719fbcdea24b4cb562559fd0b4a8eaa53e6c7113bc98a4"),
    (("enumerate", "--twice", "11", "9", "8", "10",
      "--others", "e=6,f=9/2,p=5,q=4,r=5"), 0,
     "2520e2d430f19458084ddaf1312417e2b824492fd3ddc3c14eebf68a89ba6df1"),
    (("enumerate", "--twice", "2", "2", "2", "2",
      "--others", "e=0,f=10,p=0,q=0,r=0"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("amplitude", "--spins", "a=0,b=1,c=1,d=1,e=1,f=1,p=1,q=1,r=1,x=0"), 1,
     "ec93f49c4fd20c549d3f39297ae871308fb91f73876bc2e76a6c600c2cc8ab93"),
    # the full violation report: fails at (12), (13) and (23)
    (("label", "--spins",
      "a=0,b=0,c=0,d=0,e=1/2,f=1/2,p=0,q=1/2,r=1/2,x=3/2"), 1,
     "9b3eb0e9a0a9f05cd3399dbf0ae92481219d7203e808ef18c8cacf4c160e2ddd"),
    (("amplitude", "--spins",
      "a=0,b=0,c=0,d=0,e=1/2,f=1/2,p=0,q=1/2,r=1/2,x=3/2"), 1,
     "4b5a4c9d95ffecb997dc7f7dd86d00b2760d9f85a651e15cf5ea9ab89385633e"),
    (("export", "quadrangle"), 0,
     "71d3a92be225d53b7a5f6582e4ede3918a07203a41945a9f6fa1b53d26afbbab"),
    (("export", "desargues"), 0,
     "6176b756313773dd5fd1f3ce900e9c1c3796a15900346f1019d12f84758f588c"),
    (("export", "simplex"), 0,
     "9ac0e6d9c592b8c89e2de69d504f107280f19fb45eee513300e55798b1d67be9"),
    (("export", "cross-section"), 0,
     "994a02d17cafbeb292a653fe26bdc274febdf38e519e0a67a57a2fa43d83a767"),
    (("export", "simplex", "--format", "dot"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # help text, recorded with Python 3.11's argparse at 80 columns
    (("--help",), 0,
     "2ca2b5bf22c81d25923803b86696ce24a35b3e15069ef5102e46aa3db7ee9a36"),
    (("sixj", "--help"), 0,
     "e0bc4b0c3da760fa01cd3e6f751632fe9203c58e4b96429de162825bf77e5d27"),
    (("orbit", "--help"), 0,
     "b929f85a1cbd44141ec6c87ef9366a6fba26e441525a854800be761d4720517d"),
    (("verify-orth", "--help"), 0,
     "6f88ac3a8ebf7207c03302e1879a2ca095a84539acefc85e830685bdb2d93867"),
    (("verify-be", "--help"), 0,
     "dce869b92fdc7455cef15f4ae4bee3afa34762a29103ecc593c2e8e684df2e09"),
    (("verify-pachner", "--help"), 0,
     "920cc3926c502cbebe2a92b9fe871d3caa53c730edf331eb175850805208d97d"),
    (("build-desargues", "--help"), 0,
     "bf68de523637c6c173b90034f95031c821c800d0f1af04baae52b2ec7e1b9b9f"),
    (("space-dual", "--help"), 0,
     "229a420128f0ccc3b00599e1618af14136d43098aec2f7006b5c598ef8967791"),
    (("cross-section", "--help"), 0,
     "dbb8f6f6e64f3d3e3baf3425d951954cb29fa49ea179b5c3cbed30c81ba60215"),
    (("label", "--help"), 0,
     "6e8bfe296d07daff3cdf1cdc71af580da7d567185fcdb6eeb6d0a728feeee018"),
    (("amplitude", "--help"), 0,
     "31eebe4c0d4f2475487bd035b8a209157ba79f137bf5296f3119e106dd1e9c79"),
    (("regularize", "--help"), 0,
     "421ca29f0fffc6c893f33490c098d7237b12f9c03699a91c32b699373da0fc94"),
    (("enumerate", "--help"), 0,
     "9fb1301a62ce92b609fa37188f0e7d866d12000711d26aba408e89019582d145"),
    (("export", "--help"), 0,
     "11c744a0aef5a56e519d95d7701b9a0f737d4f332290feb74e1c73c9d0da1c7d"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_bytes(capsys, monkeypatch, argv, code, digest):
    if argv[-1] == "--help":
        if sys.version_info[:2] != (3, 11):
            pytest.skip("help text differs between argparse versions")
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        got, out = exc.value.code, capsys.readouterr().out
    else:
        got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(section, lang):
    """The first ```lang code block under the README heading section."""
    text = README.read_text()
    fence = f"```{lang}\n"
    start = text.index(fence, text.index(f"\n## {section}\n")) + len(fence)
    return text[start:text.index("```", start)]


_README_CLI = [line for line in _readme_block("CLI", "sh").splitlines()
               if line.startswith("spinnet ")]


@pytest.mark.parametrize("line", _README_CLI)
def test_readme_cli_examples(capsys, line):
    command, _, note = line.partition("#")
    note = note.strip()
    code, out, _ = run(capsys, *command.split()[1:])
    assert code == (1 if note == "exit 1" else 0)
    if note.startswith("-> "):
        assert out.splitlines()[-1] == note[3:]


def test_readme_library_example(capsys):
    exec(_readme_block("Library example", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert [lines[0], lines[1], lines[3]] == [
        "1/30*sqrt(21/1)", "4", "1/7776*sqrt(1/1)"]
