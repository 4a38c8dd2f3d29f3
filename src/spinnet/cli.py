"""Command-line surface.

Exit codes: 0 on success (and identities holding), 1 when a requested
verification finds a violation or a labeling fails its triads, 2 for
usage errors and for output that cannot be written.  Output is
byte-for-byte deterministic for fixed inputs; verification records
stream as JSON lines.

A command loads only the spinnet modules it runs, and none of them
loads dataclasses or inspect: the record classes are built by
exactnum._frozen_record.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import starmap

# labeling, projective and symmetry are read through the package's lazy
# exports (spinnet.label_desargues and so on), so each loads when a
# command that uses it runs; the verify-* commands load none of them
import spinnet

from . import kernel
from .errors import CeilingExceeded, InvalidSpin, SpinnetError, TriadViolation
from .exactnum import Spin
from .identities import (
    BE_SYMBOL_NAMES,
    SYMBOLS,
    BEInstance,
    be_check,
    iter_be_grid_checks,
    iter_orthogonality_grid,
    orthogonality_check,
    pachner_14_check,
    pachner_23_check,
)
from .wigner import SixJ, sixj_value

DEFAULT_CEILING = 6

# largest twice-value the commands that take given spins (sixj, orbit,
# amplitude, enumerate and the single-instance verify-* checks) accept,
# checked before any evaluation; a symbol at the limit takes well under
# a second, an identity check or an enumeration at the limit evaluates
# thousands of symbols.  The library itself has no limit.
MAX_SINGLE_TWICE = 4000

ORTH_NAMES = ("a", "b", "c", "d", "y", "y'")

GRID_KINDS = ("orthogonality", "be", "pachner-23", "pachner-14")

# the pentagon grid bounds its free spins a, b, d, e; a coupled spin
# runs to the parity-matched top of its triad and can reach one more
_PENTAGON_MAX_TWICE_HELP = ("largest twice-value of the grid's free spins; "
                            "coupled spins reach MAX_TWICE + 1")

# the built-in structures, in the order export lists them
_STRUCTURES = {
    "desargues": lambda: spinnet.build_desargues(),
    "quadrangle": lambda: spinnet.build_quadrangle(),
    "quadrilateral": lambda: spinnet.plane_dual(spinnet.build_quadrangle()),
    "simplex":
        lambda: spinnet.space_dual_desargues(spinnet.build_desargues()),
    "cross-section": lambda: spinnet.cross_section(
        spinnet.space_dual_desargues(spinnet.build_desargues())),
}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2)


def _line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_spins(args, names, twice_mode):
    if len(args) != len(names):
        raise SpinnetError(
            f"expected {len(names)} spins ({' '.join(names)}), "
            f"got {len(args)}")
    if twice_mode:
        return [Spin(_twice_int(a)) for a in args]
    return [Spin.parse(a) for a in args]


def _parse_single(args, names):
    """_parse_spins for a single-symbol command, within MAX_SINGLE_TWICE."""
    spins = _parse_spins(args.spins, names, args.twice)
    _check_single_size(spins)
    return spins


def _check_single_size(spins):
    for s in spins:
        if s.twice > MAX_SINGLE_TWICE:
            raise SpinnetError(
                f"twice-value {s.twice} exceeds the single-symbol limit "
                f"{MAX_SINGLE_TWICE}")


def _twice_int(text, what="twice-value", error=InvalidSpin) -> int:
    # ASCII digits only: int() also reads other scripts' digits and
    # underscores.  A minus sign passes, so that the caller names the
    # error
    s = text.strip()
    if re.fullmatch(r"-?[0-9]+", s):
        try:
            return int(s)
        except ValueError:
            pass  # more digits than int() converts
    raise error(f"cannot parse {what} {text!r} (expected an integer)")


def _spin_map_arg(text, allowed) -> dict[str, Spin]:
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise SpinnetError(f"bad spin assignment {item!r} (use sym=value)")
        k, v = item.split("=", 1)
        k = k.strip()
        if k not in allowed:
            raise SpinnetError(f"unknown spin symbol {k!r} "
                               f"(expected one of {', '.join(allowed)})")
        if k in out:
            raise SpinnetError(f"repeated spin symbol {k!r}")
        out[k] = Spin.parse(v)
    return out


def _instance_dict(names, spins) -> dict:
    return {n: str(s) for n, s in zip(names, spins)}


def _record(instance, res) -> dict:
    """The json record of one checked instance."""
    return {"instance": instance, **res.to_json_dict()}


def _grid_checks(max_twice, which, literal_form):
    """(instance record, check result) for every instance of one grid."""
    if which == "orthogonality":
        for t in iter_orthogonality_grid(max_twice):
            spins = [Spin(v) for v in t]
            yield (_instance_dict(ORTH_NAMES, spins),
                   orthogonality_check(*spins))
    else:
        # the be and Pachner grids yield twice tuples, p' appended for the
        # 1-4 move; a coupled slot of iter_be_grid can reach max_twice + 1
        names = [str(Spin(v)) for v in range(max_twice + 2)]
        for t, res in iter_be_grid_checks(max_twice, which, literal_form):
            yield dict(zip(BE_SYMBOL_NAMES + ("p'",),
                           map(names.__getitem__, t))), res


def verify_grid(max_twice: int, which: str, literal_form: bool = False,
                ceiling: int = DEFAULT_CEILING):
    """Exhaustive verification: an iterator of records in grid order.

    which is one of GRID_KINDS.  Each record is checked as it is drawn.
    Raises CeilingExceeded when max_twice overshoots the runtime guard,
    and SpinnetError when it is negative (an empty grid) or which is
    unknown, all before the first record.
    """
    if which not in GRID_KINDS:
        raise SpinnetError(f"unknown verification grid {which!r}")
    if max_twice < 0:
        raise SpinnetError(f"max twice-value {max_twice} is negative")
    if max_twice > ceiling:
        raise CeilingExceeded(
            f"max twice-value {max_twice} exceeds ceiling {ceiling} "
            "(raise it with --ceiling)")
    return starmap(_record, _grid_checks(max_twice, which, literal_form))


def _verify_all(args, out, which, literal_form=False):
    """Run one grid; write the records as they come (json), then the summary."""
    records = verify_grid(
        _twice_int(args.max_twice, "--max-twice", SpinnetError), which,
        literal_form, _twice_int(args.ceiling, "--ceiling", SpinnetError))
    fmt = args.format
    if args.sorted and fmt == "json":
        records = sorted(records, key=lambda r: sorted(r["instance"].items()))
    instances = failures = 0
    for rec in records:
        instances += 1
        failures += not rec["equal"]
        if fmt == "json":
            out.write(_line(rec) + "\n")
    if fmt == "json":
        out.write(_line({"instances": instances, "failures": failures,
                         "which": which}) + "\n")
    else:
        out.write(f"{instances} instances, {failures} failures\n")
    return 1 if failures else 0


def _single_result(out, res, instance, fmt):
    if fmt == "json":
        out.write(_line(_record(instance, res)) + "\n")
    else:
        status = "holds" if res.equal else "VIOLATED"
        out.write(f"{res.form} {status}: lhs = {res.lhs}, rhs = {res.rhs}\n")
    return 0 if res.equal else 1


def _cmd_sixj(args, out):
    spins = _parse_single(args, ("a", "b", "x", "c", "d", "y"))
    value = sixj_value(SixJ(*spins))
    if args.format == "json":
        out.write(_dump({
            "entries": [str(s) for s in spins],
            "value": str(value),
            "approx": value.to_float(),
        }) + "\n")
    else:
        out.write(str(value) + "\n")
    return 0


def _cmd_orbit(args, out):
    spins = _parse_single(args, ("a", "b", "x", "c", "d", "y"))
    symbol = SixJ(*spins)
    orbit = sorted(spinnet.symmetry_orbit(symbol),
                   key=lambda s: s.twice_tuple())
    value = sixj_value(symbol)
    if args.format == "json":
        out.write(_dump({
            "symbol": [str(s) for s in spins],
            "value": str(value),
            "orbit_size": len(orbit),
            "orbit": [[str(e) for e in member.entries()]
                      for member in orbit],
        }) + "\n")
    else:
        out.write(f"orbit size {len(orbit)} (value {value})\n")
        for member in orbit:
            out.write(f"  {member}\n")
    return 0


def _cmd_verify_orth(args, out):
    if args.all:
        return _verify_all(args, out, "orthogonality")
    spins = _parse_single(args, ORTH_NAMES)
    res = orthogonality_check(*spins)
    return _single_result(out, res, _instance_dict(ORTH_NAMES, spins),
                          args.format)


def _cmd_verify_be(args, out):
    if args.all:
        return _verify_all(args, out, "be", args.literal_paper_form)
    spins = _parse_single(args, BE_SYMBOL_NAMES)
    res = be_check(BEInstance(*spins),
                   literal_form=args.literal_paper_form)
    return _single_result(out, res, _instance_dict(BE_SYMBOL_NAMES, spins),
                          args.format)


def _cmd_verify_pachner(args, out):
    which = "pachner-23" if args.move == "23" else "pachner-14"
    if args.all:
        return _verify_all(args, out, which)
    spins = _parse_single(args, BE_SYMBOL_NAMES)
    inst = BEInstance(*spins)
    if args.move == "23":
        res = pachner_23_check(inst)
        instance = _instance_dict(BE_SYMBOL_NAMES, spins)
    else:
        if args.p_prime is None:
            raise SpinnetError("--move 14 needs --p-prime")
        pp = Spin(_twice_int(args.p_prime)) if args.twice \
            else Spin.parse(args.p_prime)
        _check_single_size([pp])
        res = pachner_14_check(inst, pp)
        instance = _instance_dict(BE_SYMBOL_NAMES + ("p'",),
                                  list(spins) + [pp])
    return _single_result(out, res, instance, args.format)


def _structure_out(out, structure, fmt, bipartite=True):
    if fmt == "dot":
        out.write(structure.to_dot(bipartite=bipartite))
    elif fmt == "json":
        out.write(_dump(structure.to_json_dict()) + "\n")
    else:
        out.write(f"{len(structure.points)} points, "
                  f"{len(structure.lines)} lines\n")
        for p in structure.points:
            tags = [structure.line_labels.get(l, str(l))
                    for l in structure.lines_through(p)]
            out.write(f"  {structure.point_labels.get(p, p)} on "
                      + " ".join(tags) + "\n")
    return 0


def _cmd_build_desargues(args, out):
    return _structure_out(out, _STRUCTURES["desargues"](), args.format)


def _cmd_space_dual(args, out):
    complex4 = _STRUCTURES["simplex"]()
    if args.format == "json":
        _structure_out(out, complex4, "json")
    else:
        v, e, t, tt = complex4.f_vector()
        out.write(f"f-vector ({v}, {e}, {t}, {tt})\n")
        for tet in complex4.tetrahedra:
            tags = [complex4.edge_labels[x]
                    for x in complex4.edges_of_tetrahedron(tet)]
            out.write(f"  T{complex4.tetra_labels[tet]}: "
                      + " ".join(sorted(tags)) + "\n")
    return 0


def _cmd_cross_section(args, out):
    section = _STRUCTURES["cross-section"]()
    if args.format == "json":
        data = section.to_json_dict()
        data["validates_10_3"] = spinnet.validate_configuration(
            section, spinnet.ConfigurationSignature(10, 3, 10, 3))
        data["isomorphic_to_original"] = spinnet.isomorphic(
            section, _STRUCTURES["desargues"]())
        out.write(_dump(data) + "\n")
        return 0
    return _structure_out(out, section, args.format)


def _cmd_label(args, out):
    spins = _spin_map_arg(args.spins, SYMBOLS)
    try:
        lab = spinnet.label_desargues(spins)
    except TriadViolation as err:
        out.write(_dump({
            "valid": False,
            "violations": [
                {"point": tag, "symbols": list(syms),
                 "spins": [str(s) for s in triple]}
                for tag, syms, triple in err.violations],
        }) + "\n")
        return 1
    data = lab.to_json_dict()
    data["valid"] = True
    if args.transfer:
        sl = spinnet.transfer_labeling(lab, _STRUCTURES["simplex"]())
        data["tetrahedra"] = {
            f"T{i + 1}": str(sym)
            for i, sym in enumerate(sl.tetrahedron_symbols())}
    out.write(_dump(data) + "\n")
    return 0


def _cmd_amplitude(args, out):
    spins = _spin_map_arg(args.spins, SYMBOLS)
    _check_single_size(spins.values())
    try:
        lab = spinnet.label_desargues(spins)
    except TriadViolation as err:
        out.write(_dump({
            "valid": False,
            "violations": [v[0] for v in err.violations],
        }) + "\n")
        return 1
    amp = spinnet.network_amplitude(lab)
    if args.format == "json":
        out.write(_dump({"amplitude": str(amp),
                         "approx": amp.to_float()}) + "\n")
    else:
        out.write(str(amp) + "\n")
    return 0


def _cmd_regularize(args, out):
    spins = _parse_spins(args.spins, ("a", "b", "c", "d"), args.twice)
    quad = spinnet.canonicalize_quadruple(*spins)
    x_min, x_max, y_min, y_max = spinnet.running_range(quad)
    report = spinnet.regularization_bounds(quad)
    data = {
        "canonical": {"a": str(quad.a), "b": str(quad.b),
                      "c": str(quad.c), "d": str(quad.d),
                      "s": str(quad.s)},
        "running_range": {"x_min": str(x_min), "x_max": str(x_max),
                          "y_min": str(y_min), "y_max": str(y_max)},
        "report": report.to_json_dict(),
    }
    if args.format == "json":
        out.write(_dump(data) + "\n")
    else:
        out.write(f"canonical {quad}\n")
        out.write(f"x in [{x_min}, {x_max}], y in [{y_min}, {y_max}]\n")
        out.write(f"report {report.to_json_dict()}\n")
    return 0


def _cmd_export(args, out):
    if args.what == "simplex" and args.format == "dot":
        raise SpinnetError("the 4-simplex exports as json only")
    return _structure_out(out, _STRUCTURES[args.what](), args.format,
                          bipartite=not args.cliques)


def _cmd_amplitudes_enumerate(args, out):
    spins = _parse_spins(args.spins, ("a", "b", "c", "d"), args.twice)
    others = _spin_map_arg(args.others, ("e", "f", "p", "q", "r"))
    _check_single_size(spins + list(others.values()))
    quad = spinnet.canonicalize_quadruple(*spins)
    # each entry is written as it is produced; when no x survives the
    # iterator raises before the first write
    entries = spinnet.iter_regularized_enumeration(quad, others)
    if args.format == "text":
        for x, a in entries:
            out.write(f"x={x}: {a}\n")
        return 0
    # the layout of _dump({"canonical", "entries", "states"}): its sorted
    # keys put the count last
    head = '{\n  "canonical": ' + json.dumps(str(quad)) + ',\n  "entries": [\n'
    states = 0
    for x, a in entries:
        entry = _dump({"amplitude": str(a), "x": str(x)})
        out.write((",\n" if states else head)
                  + "    " + entry.replace("\n", "\n    "))
        states += 1
    out.write(f'\n  ],\n  "states": {states}\n}}\n')
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnet",
        description="Exact 6j symbols and projective spin networks "
                    f"(kernel backend: {kernel.backend()})",
        epilog="limits: sixj, orbit, amplitude, enumerate and the "
               "single-instance verify-* checks accept twice-values up "
               f"to {MAX_SINGLE_TWICE}; larger ones exit 2")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--output", "-o", default=None,
                       help="write to a file instead of stdout")
        return p

    def spin_opts(p):
        p.add_argument("--twice", action="store_true",
                       help="spin arguments are twice-value integers")

    def grid_opts(p, max_twice_help=None):
        p.add_argument("--all", action="store_true",
                       help="run the exhaustive grid")
        # read by _twice_int when the grid runs, so that a malformed
        # value is one usage line
        p.add_argument("--max-twice", default="2", help=max_twice_help)
        p.add_argument("--ceiling", default=str(DEFAULT_CEILING))
        p.add_argument("--sorted", action="store_true",
                       help="canonical record order")

    p = add("sixj", _cmd_sixj, help="evaluate one 6j symbol exactly")
    p.add_argument("spins", nargs="*")
    p.add_argument("--format", choices=("text", "json"), default="text")
    spin_opts(p)

    p = add("orbit", _cmd_orbit,
            help="orbit under the 144-element symmetry group")
    p.add_argument("spins", nargs="*")
    p.add_argument("--format", choices=("text", "json"), default="text")
    spin_opts(p)

    p = add("verify-orth", _cmd_verify_orth,
            help="check the orthogonality condition")
    p.add_argument("spins", nargs="*")
    p.add_argument("--format", choices=("text", "json"), default="text")
    spin_opts(p)
    grid_opts(p)

    p = add("verify-be", _cmd_verify_be, help="check the pentagon identity")
    p.add_argument("spins", nargs="*")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--literal-paper-form", action="store_true",
                   help="drop the (2x+1) weight from the x-sum")
    spin_opts(p)
    grid_opts(p, _PENTAGON_MAX_TWICE_HELP)

    p = add("verify-pachner", _cmd_verify_pachner,
            help="check a Pachner move identity")
    p.add_argument("--move", choices=("23", "14"), required=True)
    p.add_argument("--p-prime", default=None,
                   help="the spin p' for the 1-4 contraction")
    p.add_argument("spins", nargs="*")
    p.add_argument("--format", choices=("text", "json"), default="text")
    spin_opts(p)
    grid_opts(p, _PENTAGON_MAX_TWICE_HELP)

    p = add("build-desargues", _cmd_build_desargues,
            help="emit the ten-point configuration")
    p.add_argument("--format", choices=("json", "dot", "text"),
                   default="json")

    p = add("space-dual", _cmd_space_dual,
            help="emit the space-dual 4-simplex complex")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = add("cross-section", _cmd_cross_section,
            help="slice the 4-simplex back to the configuration")
    p.add_argument("--format", choices=("json", "dot", "text"),
                   default="json")

    p = add("label", _cmd_label, help="validate a ten-spin labeling")
    p.add_argument("--spins", required=True,
                   help="comma list a=1,b=3/2,...,x=1 over "
                        + ",".join(SYMBOLS))
    p.add_argument("--transfer", action="store_true",
                   help="also transport the labels to the 4-simplex")

    p = add("amplitude", _cmd_amplitude,
            help="five-symbol product amplitude of a labeling")
    p.add_argument("--spins", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("regularize", _cmd_regularize,
            help="canonical quadruple, running ranges and bounds report")
    p.add_argument("spins", nargs="*")
    p.add_argument("--format", choices=("text", "json"), default="json")
    spin_opts(p)

    p = add("enumerate", _cmd_amplitudes_enumerate,
            help="amplitudes over the running range of a reference "
                 "quadrangle")
    p.add_argument("spins", nargs="*", help="the quadruple a b c d")
    p.add_argument("--others", required=True,
                   help="comma list e=..,f=..,p=..,q=..,r=..")
    p.add_argument("--format", choices=("text", "json"), default="json")
    spin_opts(p)

    p = add("export", _cmd_export, help="export a built-in structure")
    p.add_argument("what", choices=tuple(_STRUCTURES))
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--cliques", action="store_true",
                   help="dot: draw lines as point cliques instead of "
                        "bipartite nodes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    target = args.output or "stdout"
    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as err:
        print(f"spinnet: cannot write {target}: {err.strerror}",
              file=sys.stderr)
        return 2
    try:
        try:
            return args.fn(args, out)
        finally:
            # flushed here, so that a write that fails is reported below
            if out is sys.stdout:
                out.flush()
            else:
                out.close()
    except SpinnetError as err:
        print(f"spinnet: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        if out is sys.stdout:
            _discard_stdout()
        print(f"spinnet: cannot write {target}: {err.strerror}",
              file=sys.stderr)
        return 2


def _discard_stdout():
    """Point stdout at the null device after a failed write.

    The interpreter flushes stdout again at exit, and the output still
    buffered would fail a second time.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # not a file descriptor, so not flushed to one at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
