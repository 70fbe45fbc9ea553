"""Command-line front end: deterministic JSON reports on stdout.

Exit codes: 0 success, 1 validation failure (structured "error" object in
the JSON), 2 usage / argument-domain error.  A command signals the last by
raising ValueError (the engines' domain errors, such as
`hyperbolic.AreaOutOfRange` and `classify.ScaleExceeded`, are ValueErrors);
`main` prints its message on stderr and nothing on stdout.  Floats are
printed with 12 significant digits and rationals as "p/q" (plain integer
when q = 1), so reports are byte-identical across runs.

Fixed cost: `main` builds the argparse tree of `build_parser` on its first
call and reuses it for every later call in the process, and looks the
handler `cmd_<command>` up in this module when the call runs.  When the
first argument names a command and every later token is a plain "--opt
value" or "--opt=value" of that command's subparser (`_plain_args` has the
rules), `main` builds the namespace from the subparser's own actions,
their types and defaults, without argparse; any other tokens go to that
command's subparser, which is what the full parse does once it has read the
name, and any other argv (help, no command, an unknown or abbreviated one,
a leading "--") to the full parser, so argparse writes its own help and
errors.  In process (timeit, best of 7, 2-vCPU host), a `classify` request
takes 31 µs and a `polygon` request 41 µs, against 59 and 67 µs when the
subparser read every argv.  `_put` rounds a report and writes its JSON in
one walk, with json's C string escape, and finds each value's writer by its
type in one dict lookup; `json.dumps(indent=2)` would run json's
pure-Python encoder.  `formcalc`, and with it numpy, is imported by
`cmd_forms` only, so the other commands start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, classify, hyperbolic, multicurve

USAGE_ERROR = 2
VALIDATION_ERROR = 1


def _fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


#: the JSON names of the rounded floats that are no number, as `json` writes them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _put(obj, out: list, pad: str) -> None:
    """Append to `out` the text `json.dumps(obj, indent=2, sort_keys=True)`
    writes, with each float first rounded to 12 significant digits and each
    Fraction written as its quoted `_fmt_fraction` text.  `pad` is the newline
    and indentation of the line that `obj` starts on.  The writer is looked up
    by `type(obj)`, and for a subclass (numpy's float64) by its first base
    that has one.  A type `json` cannot write, or a key that is no str,
    raises TypeError."""
    writer = _WRITERS.get(type(obj))
    if writer is None:
        writer = next((_WRITERS[t] for t in type(obj).__mro__ if t in _WRITERS), _put_unknown)
    writer(obj, out, pad)


def _put_float(obj: float, out: list, pad: str) -> None:
    text = f"{obj:.12g}"
    out.append(_NON_FINITE.get(text) or repr(float(text)))


def _put_dict(obj: dict, out: list, pad: str) -> None:
    inner = pad + "  "
    comma, sep = "," + inner, "{" + inner
    for key in sorted(obj):
        out += (sep, _quote(key), ": ")
        _put(obj[key], out, inner)
        sep = comma
    out.append(pad + "}" if obj else "{}")


def _put_list(obj, out: list, pad: str) -> None:
    inner = pad + "  "
    comma, sep = "," + inner, "[" + inner
    for item in obj:
        out.append(sep)
        _put(item, out, inner)
        sep = comma
    out.append(pad + "]" if obj else "[]")


def _put_unknown(obj, out: list, pad: str) -> None:
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: the writer of each type a report holds
_WRITERS = {
    str: lambda obj, out, pad: out.append(_quote(obj)),
    float: _put_float,
    int: lambda obj, out, pad: out.append(int.__repr__(obj)),
    bool: lambda obj, out, pad: out.append("true" if obj else "false"),
    type(None): lambda obj, out, pad: out.append("null"),
    dict: _put_dict,
    list: _put_list,
    tuple: _put_list,
    Fraction: lambda obj, out, pad: out.append(_quote(_fmt_fraction(obj))),
}


#: A float printed to 12 significant digits (`_put`) lies within 5e-12 of
#: itself, relatively, plus a double's rounding.  A printed bound adds this
#: share of the value it bounds, so that comparing two printed values of that
#: size (|rho| and A/2pi, |trace| and its expected value) stays within it.
PRINT_SLACK = 1.1e-11


def _emit(command: str, inputs: dict, outputs: dict, error: dict = None) -> int:
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "deterministic": True,
    }
    if error:
        report["error"] = error
    out = []
    _put(report, out, "\n")
    out.append("\n")
    sys.stdout.write("".join(out))
    return 0 if not error else VALIDATION_ERROR


def _parse_area(text: str) -> float:
    """Accept a float or a multiple of pi such as '4pi', '0.5pi', 'pi/2', '-pi'."""
    s = text.strip().lower()
    try:
        if s.endswith("pi"):
            num, den = s[:-2], "1"
        elif "pi/" in s:
            num, _, den = s.partition("pi/")
        else:
            return float(s)
        num = num.strip()  # a bare sign, or nothing, stands for 1
        return float(num + "1" if num in ("", "+", "-") else num) * math.pi / float(den)
    except (ValueError, ArithmeticError):
        raise ValueError(f"cannot parse area {text!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    chiS, euler = args.chi_s, args.euler
    te = classify.transverse_exists(chiS, euler)
    out = {
        "transverse_exists": te,
        "flat_exists": classify.flat_exists(chiS, euler),
        "confoliation_ok": classify.confoliation_bound(chiS, euler),
        "tangent_degree": classify.tangent_exists(chiS, euler),
        "enrollment_spectrum": None,
        "conjugacy_classes": None,
        "vot_bound": classify.virtually_overtwisted_bound(chiS, euler),
        "boundary_slope": None,
        "whitney_class": None,
    }
    tangent_n = None
    if euler != 0 and (-chiS) % euler == 0 and (-chiS) // euler > 0:
        tangent_n = (-chiS) // euler
    if te:
        if chiS == 2:
            e = classify.sphere_enrollment(euler)
            out["enrollment_spectrum"] = [int(-e)]
            out["conjugacy_classes"] = 1
        else:
            spec = classify.transverse_enrollment_spectrum(chiS, euler)
            if spec.all_n:
                out["enrollment_spectrum"] = "all n >= 1"
                out["conjugacy_classes"] = None  # conjugation moves the fibration on the 3-torus
            else:
                out["enrollment_spectrum"] = spec.sorted_values()
                out["conjugacy_classes"] = (
                    classify.count_tangent_conjugacy_classes(tangent_n)
                    if tangent_n else 1)
    n_slope = tangent_n or 1
    (cls_vec, mu) = classify.boundary_slope(n_slope, euler, chiS)
    out["boundary_slope"] = {"n": n_slope, "class": list(cls_vec), "mu": Fraction(mu)}
    d = out["tangent_degree"]
    if d:
        e = classify.legendrian_fibration_enrollment(d)
        out["whitney_class"] = list(classify.whitney_singular_class(e, chiS))
    return _emit("classify", {"chi_s": chiS, "euler": euler}, out)


def cmd_holonomy(args) -> int:
    area = _parse_area(args.area)
    g = args.genus
    radius = hyperbolic.radius_for_area(g, area)
    if args.iters < 1:
        raise ValueError("iterations must be >= 1")
    rho, rho_bound, trace, trace_bound = hyperbolic.relator_rotation(
        g, hyperbolic.polygon_vertices(g, radius, 5), *hyperbolic.side_pairings(g, radius, 1))
    trace_bound += PRINT_SLACK * abs(trace)
    target = area / (2.0 * math.pi)
    out = {
        "genus": g,
        "area": area,
        "circumradius": radius,
        "commutator_trace": trace,
        "commutator_trace_bound": trace_bound,
        # exactly the rotation about s_1 by (4g-2)*pi - area: elliptic or the identity
        "commutator_class": "elliptic" if abs(trace) < 2.0 - trace_bound else "undecided",
        "rho": rho,
        "abs_rho": abs(rho),
        "target_abs_rho": target,
        "residual": abs(abs(rho) - target),
        # 1 / N of two ints, so an N beyond the float range gives 0.0, not OverflowError
        "error_bound": 1 / args.iters + rho_bound + PRINT_SLACK * abs(rho),
        "iterations": args.iters,
    }
    return _emit("holonomy", {"genus": g, "area": args.area, "iters": args.iters}, out)


def cmd_polygon(args) -> int:
    area = _parse_area(args.area)
    g = args.genus
    radius = hyperbolic.radius_for_area(g, area)
    # handle i + 1 is handle i turned by Rot(-2*pi/g): measure the first, bound them all
    vertices = hyperbolic.polygon_vertices(g, radius, 5)
    s1, s2, s3, s4, s5 = vertices
    phi_1, phi_2 = hyperbolic.side_pairings(g, radius, 1)
    _, _, trace, trace_bound = hyperbolic.relator_rotation(g, vertices, phi_1, phi_2)
    residuals = (
        hyperbolic.image_distance(phi_1, s3, s2),
        hyperbolic.image_distance(phi_1, s4, s1),
        hyperbolic.image_distance(phi_2, s2, s5),
        hyperbolic.image_distance(phi_2, s3, s4),
    )
    expected = 2.0 * abs(math.cos(((4 * g - 2) * math.pi - area) / 2.0))
    out = {
        "genus": g,
        "requested_area": area,
        "circumradius": radius,
        "computed_area": hyperbolic.polygon_area(g, radius),
        "side_length": hyperbolic.hdistance(s1, s2),
        "pairing_residual_max": max(residuals),
        "pairing_residual_bound": hyperbolic.pairing_residual_bound(g, radius),
        "commutator_trace": trace,
        "commutator_trace_bound": trace_bound + PRINT_SLACK * abs(trace),
        "expected_abs_trace": expected,
    }
    return _emit("polygon", {"genus": g, "area": args.area}, out)


#: what reading an input file raises for a file that is missing, a
#: directory, unreadable or not UTF-8 text: a validation failure, exit 1
READ_ERRORS = (OSError, UnicodeDecodeError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _error(e: Exception) -> dict:
    return {"type": type(e).__name__, "message": str(e)}


def cmd_forms(args) -> int:
    from . import formcalc as fc
    fc.grid_counts(args.grid, 3)  # contact_sign samples 3-dimensional charts
    if args.library:
        entries = {}
        for key, entry in fc.model_library().items():
            rec = {
                "description": entry.description,
                "chart": list(entry.form.chart.names),
                "form": entry.form.text(),
                "expected_sign": entry.expected_sign,
                "enrollment": Fraction(entry.enrollment) if entry.enrollment is not None else None,
            }
            if entry.expected_sign is not None:
                rep = fc.contact_sign(entry.form, grid=args.grid)
                rec["sign"] = rep.sign
                rec["min_abs"] = rep.min_abs
                rec["samples"] = rep.samples
            entries[key] = rec
        return _emit("forms", {"library": True, "grid": args.grid}, {"library": entries})
    if not args.form_file:
        raise ValueError("provide --form-file or --library")
    try:
        form = fc.parse_form_file(_read(args.form_file))
        rep = fc.contact_sign(form, grid=args.grid)
        out = {
            "chart": list(form.chart.names),
            "form": form.text(),
            "sign": rep.sign,
            "min_abs": rep.min_abs,
            "samples": rep.samples,
            "witnesses": [list(w) for w in rep.witnesses],
        }
    except (*READ_ERRORS, ValueError, ArithmeticError) as e:
        return _emit("forms", {"form_file": args.form_file, "grid": args.grid}, {},
                     error=_error(e))
    return _emit("forms", {"form_file": args.form_file, "grid": args.grid}, out)


def cmd_multicurve(args) -> int:
    inputs = {"file": args.file}
    if args.compare:
        inputs["compare"] = args.compare
    try:
        dec = multicurve.parse_decomposition(_read(args.file))
    except (*READ_ERRORS, multicurve.InvalidDecomposition) as e:
        return _emit("multicurve", inputs, {}, error=_error(e))
    ok, diags = multicurve.validate(dec)
    out = {"valid": ok, "diagnostics": diags}
    if ok:
        out["essential"] = multicurve.is_essential(dec)
        out["universal_tightness"] = multicurve.universal_tightness(dec, args.euler).value
        out["convex_neighborhood_tight"] = multicurve.convex_neighborhood_tight(dec)
        out["euler"] = args.euler
    if args.compare:
        try:
            dec2 = multicurve.parse_decomposition(_read(args.compare))
            out["isotopy_equal"] = multicurve.isotopy_equal(dec, dec2)
        except (*READ_ERRORS, multicurve.InvalidDecomposition) as e:
            return _emit("multicurve", inputs, out, error=_error(e))
    if not ok:
        return _emit("multicurve", inputs, out,
                     error={"type": "InvalidDecomposition", "message": "; ".join(diags)})
    return _emit("multicurve", inputs, out)


def cmd_covers(args) -> int:
    orbits = classify.cohomology_orbit_count(args.genus, args.n)
    tau = classify.count_tangent_conjugacy_classes(args.n)
    out = {
        "genus": args.genus,
        "n": args.n,
        "orbit_count": orbits,
        "divisor_count": tau,
        "agree": orbits == tau,
    }
    return _emit("covers", {"genus": args.genus, "n": args.n}, out)


def build_parser() -> tuple:
    """The top-level parser, and a table from each command's name to its
    subparser."""
    ap = argparse.ArgumentParser(prog="contactbundles",
                                 description="circle-bundle contact structure computations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="existence / counting / bound formulas")
    p.add_argument("--chi-s", type=int, required=True)
    p.add_argument("--euler", type=int, required=True)

    p = sub.add_parser("holonomy", help="translation number of the polygon holonomy relator")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--area", type=str, required=True, help="float or multiple of pi, e.g. 4pi")
    p.add_argument("--iters", type=int, default=100000)

    p = sub.add_parser("polygon", help="symmetric polygon data and pairing residuals")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--area", type=str, required=True)

    p = sub.add_parser("forms", help="contact sign of a 1-form file or the model library")
    p.add_argument("--form-file", type=str)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--library", action="store_true")

    p = sub.add_parser("multicurve", help="validate / compare multicurve decompositions")
    p.add_argument("--file", type=str, required=True)
    p.add_argument("--compare", type=str)
    p.add_argument("--euler", type=int, default=0)

    p = sub.add_parser("covers", help="cohomology orbit count vs divisor count")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return ap, sub.choices


#: the parser and command table of this process, built by the first `main` call
_parser = functools.cache(build_parser)


def _plain_args(command: argparse.ArgumentParser, argv: list):
    """The namespace of `argv`, a command's name and its tokens, when each
    token is "--opt value" or "--opt=value" for an option of the command's
    subparser that stores its one value (or "--opt" alone for a store-true
    one), no option comes twice, each value converts by its option's type and
    every required option is given; None otherwise.  A value in the token
    after its option may start with "-" only where argparse reads it as a
    negative number, and a value "--" is none: argparse drops it."""
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        opt, eq, text = token.partition("=")
        action = command._option_string_actions.get(opt)
        if action in given:
            return None
        if type(action) is argparse._StoreTrueAction and not eq:
            given[action] = action.const
            continue
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        if not eq:
            text = next(tokens, None)
            if text is None or (text.startswith("-")
                                and not command._negative_number_matcher.match(text)):
                return None
        elif text == "--":
            return None
        try:
            given[action] = action.type(text)
        except (TypeError, ValueError):
            return None
    if any(action.required and action not in given for action in command._actions):
        return None
    args = argparse.Namespace()
    for action in command._actions:
        if action.default is not argparse.SUPPRESS:
            setattr(args, action.dest, given.get(action, action.default))
    args.command = argv[0]
    return args


def _parse(parser: argparse.ArgumentParser, command, argv: list) -> argparse.Namespace:
    """argparse's namespace of `argv`: `command`'s subparser reads the tokens
    after a command's name, which is what the full parse does once it has
    read the name, and the full parser reads any other argv (help, a missing
    or unknown command and a leading "--"), so argparse writes its own text."""
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    for name, value in vars(args).items():
        if value == []:  # argparse drops the value of "--opt=--" and leaves []
            raise ValueError(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def main(argv=None) -> int:
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    args = _plain_args(command, argv) if command else None
    try:
        if args is None:
            args = _parse(parser, command, argv)
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as e:
        # every argument outside its command's domain raises ValueError
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
