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
handler `cmd_<command>` up in this module when the call runs.  `formcalc`,
and with it numpy, is imported by `cmd_forms` only, so the other commands
start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import __version__, circle_dynamics, classify, hyperbolic, multicurve

USAGE_ERROR = 2
VALIDATION_ERROR = 1


def _fmt_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return _fmt_fraction(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(command: str, inputs: dict, outputs: dict, error: dict = None) -> int:
    report = {
        "command": command,
        "inputs": _round12(inputs),
        "outputs": _round12(outputs),
        "version": __version__,
        "deterministic": True,
    }
    if error:
        report["error"] = error
    # one write: json.dump would write each encoder chunk separately
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    radius = hyperbolic.radius_for_area(args.genus, area)
    relator = hyperbolic.symmetric_relator(args.genus, radius)
    est = circle_dynamics.translation_number(relator, args.iters)
    trace = relator.iso.trace()
    target = area / (2.0 * math.pi)
    out = {
        "genus": args.genus,
        "area": area,
        "circumradius": radius,
        "commutator_trace": trace,
        # exactly the rotation about s_1 by (4g-2)*pi - area: elliptic or the identity
        "commutator_class": ("elliptic" if abs(trace) < 2.0 - circle_dynamics.trace_slack(relator)
                             else "undecided"),
        "rho": float(est.value),
        "abs_rho": abs(float(est.value)),
        "target_abs_rho": target,
        "residual": abs(abs(float(est.value)) - target),
        "error_bound": est.error_bound,
        "iterations": est.iterations,
    }
    return _emit("holonomy", {"genus": args.genus, "area": args.area, "iters": args.iters}, out)


def cmd_polygon(args) -> int:
    area = _parse_area(args.area)
    g = args.genus
    radius = hyperbolic.radius_for_area(g, area)
    # handle i + 1 is handle i turned by Rot(-2*pi/g): measure the first, bound them all
    s1, s2, s3, s4, s5 = hyperbolic.polygon_vertices(g, radius, 5)
    phi_1, phi_2 = hyperbolic.side_pairings(g, radius, 1)
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
        "computed_area": hyperbolic.polygon_area(g, s1, s2),
        "side_length": hyperbolic.hdistance(s1, s2),
        "pairing_residual_max": max(residuals),
        "pairing_residual_bound": hyperbolic.pairing_residual_bound(g, radius),
        "commutator_trace": hyperbolic.relator_matrix(g, phi_1, phi_2).trace(),
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
    except (*READ_ERRORS, ValueError, ArithmeticError) as e:
        return _emit("forms", {"form_file": args.form_file, "grid": args.grid}, {},
                     error=_error(e))
    out = {
        "chart": list(form.chart.names),
        "form": form.text(),
        "sign": rep.sign,
        "min_abs": rep.min_abs,
        "samples": rep.samples,
        "witnesses": [list(w) for w in rep.witnesses],
    }
    return _emit("forms", {"form_file": args.form_file, "grid": args.grid}, out)


def cmd_multicurve(args) -> int:
    try:
        dec = multicurve.parse_decomposition(_read(args.file))
    except (*READ_ERRORS, multicurve.InvalidDecomposition) as e:
        return _emit("multicurve", {"file": args.file}, {}, error=_error(e))
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
            return _emit("multicurve", {"file": args.file, "compare": args.compare}, out,
                         error=_error(e))
    inputs = {"file": args.file}
    if args.compare:
        inputs["compare"] = args.compare
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


def build_parser() -> argparse.ArgumentParser:
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
    return ap


#: the parser of this process, built by the first `main` call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if value == []:  # argparse drops the value of "--opt=--" and leaves []
                raise ValueError(f"argument --{name.replace('_', '-')}: expected one argument")
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as e:
        # every argument outside its command's domain raises ValueError
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
