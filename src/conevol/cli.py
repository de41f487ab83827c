"""Command-line front end.

Cone descriptions use the grammar of conevol.cones.parse_cone_spec.

Artifacts go to stdout, or to --out PATH; --format picks json or csv
where a subcommand supports both.  All floats in CSV artifacts are
printed with 17 significant digits, and identical command lines produce
byte-identical artifacts regardless of the worker count.

Exit codes: 0 success, 2 malformed cone/flags, a Monte Carlo run of fewer
than two samples (or a reservoir thinned to one), or unwritable --out, 3
numerical guard tripped (JSON artifacts never carry NaN or Infinity), 4
an identity check (steiner, product-check) found a row with |formula - mc|
> 4*se + 0.01; wills prints both of its sides without that rule.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from .bounds import TailBoundReport
from .cones import (Product, ambient_dim, cone_to_spec, parse_cone_spec,
                    supports_face_dim)
from .exceptions import (ConeSpecError, NumericalGuardError,
                         UnsupportedConeError)
from .profiles import (estimate_profile_biorthogonal, estimate_profile_face,
                       estimate_profile_mixture, exact_profile,
                       intrinsic_variance, statistical_dimension)
from .sampling import MonteCarloConfig, run_summary
from .special import beta_cdf_family, chi_square_cdf_family
from .steiner import (empirical_steiner_cdf, master_phi, phi_mc,
                      preset_functionals, wills_functional, wills_mc)


def _fmt(x):
    return "%.17g" % float(x)


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ConeSpecError(f"{out_path}: cannot write artifact: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _json_text(payload):
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise NumericalGuardError(f"artifact holds a number that is not finite ({e})") from None


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    return buf.getvalue()


# a --lambda-grid may have at most this many points
_MAX_GRID_POINTS = 10 ** 6


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConeSpecError(f"grid must be start:stop:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ConeSpecError(f"grid must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ConeSpecError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0.0 or b < a:
        raise ConeSpecError(f"grid needs stop >= start and step > 0, got {text!r}")
    # inf when (b - a) / step overflows
    span = (b - a) / step + 1e-9
    if span >= _MAX_GRID_POINTS:
        raise ConeSpecError(f"grid has more than {_MAX_GRID_POINTS} points, got {text!r}")
    return [a + i * step for i in range(int(span) + 1)]


def _mc_config(args):
    return MonteCarloConfig(seed=args.seed, total_samples=args.samples,
                            reservoir_cap=getattr(args, "reservoir_cap", 100_000))


_ESTIMATORS = {
    "face": estimate_profile_face,
    "biorth": estimate_profile_biorthogonal,
    "mixture": estimate_profile_mixture,
}


def _estimate(cone, config, workers):
    """Face estimate for polyhedral cones, else the mixture fit."""
    estimator = estimate_profile_face if supports_face_dim(cone) else estimate_profile_mixture
    return estimator(cone, config, workers=workers)


def _profile_for(cone, args, seed_shift=0):
    """Exact profile when supported, else _estimate at the shifted seed."""
    try:
        return exact_profile(cone)
    except UnsupportedConeError:
        config = dataclasses.replace(_mc_config(args), seed=args.seed + seed_shift)
        return _estimate(cone, config, args.workers)


def _check(header, rows, out_path):
    """Write rows of (label, formula, mc, se) as CSV, with diff = |formula - mc|
    inserted before se; return 4 if any diff exceeds 4*se + 0.01, else 0."""
    table = [[label, formula, mc, abs(formula - mc), se] for label, formula, mc, se in rows]
    _emit(_csv_text(header, table), out_path)
    return 4 if any(diff > 4.0 * se + 0.01 for *_, diff, se in table) else 0


def _cmd_profile(args, parser):
    cone = parse_cone_spec(args.cone)
    if args.method == "exact":
        prof = exact_profile(cone)
    else:
        prof = _ESTIMATORS[args.method](cone, _mc_config(args), workers=args.workers)
    stderr = None if prof.stderr is None else [float(x) for x in prof.stderr]
    if args.format == "json":
        payload = {"cone": cone_to_spec(cone), "d": int(prof.d),
                   "v": [float(x) for x in prof.v], "stderr": stderr,
                   "provenance": prof.provenance}
        _emit(_json_text(payload), args.out)
    else:
        rows = [[str(k), float(prof.v[k]),
                 "" if stderr is None else stderr[k]]
                for k in range(prof.d + 1)]
        _emit(_csv_text(["k", "v", "stderr"], rows), args.out)
    return 0


def _cmd_point_estimate(args, parser, which):
    cone = parse_cone_spec(args.cone)
    summary = run_summary(cone, _mc_config(args), workers=args.workers)
    if which == "sdim":
        value, se = statistical_dimension(summary)
        quantity = "statistical_dimension"
    else:
        value, se = intrinsic_variance(summary)
        quantity = "intrinsic_variance"
    payload = {"cone": cone_to_spec(cone), "quantity": quantity,
               "estimate": float(value), "se": float(se),
               "samples": args.samples, "seed": args.seed}
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_tail(args, parser):
    cone = parse_cone_spec(args.cone)
    d = ambient_dim(cone)
    grid = _parse_grid(args.lambda_grid)
    delta, delta_polar = args.delta, args.delta_polar
    for flag, value in (("--delta", delta), ("--delta-polar", delta_polar)):
        if value is not None and not 0.0 <= value <= d:
            raise ConeSpecError(f"{flag} must lie in [0, {d}], got {value}")
    if delta is None and delta_polar is None:
        if args.samples < 2:
            parser.error("tail with fewer than 2 samples needs --delta/--delta-polar")
        delta, _ = statistical_dimension(run_summary(cone, _mc_config(args),
                                                     workers=args.workers))
    if delta is None:
        delta = d - delta_polar
    elif delta_polar is None:
        delta_polar = d - delta
    reports = [TailBoundReport.evaluate(lam, delta, delta_polar).as_dict() for lam in grid]
    _emit(_csv_text(list(reports[0]), [list(r.values()) for r in reports]), args.out)
    return 0


def _profile_se(profile, coeff):
    if profile.stderr is None:
        return 0.0
    return math.sqrt(float(np.sum((coeff * profile.stderr) ** 2)))


_DEFAULT_GRIDS = {"gaussian": [0.5, 1.0, 2.0, 4.0, 8.0], "spherical": [0.25, 0.5, 0.75, 1.0]}


def _cmd_steiner(args, parser):
    cone = parse_cone_spec(args.cone)
    prof = _profile_for(cone, args, seed_shift=1)
    config = _mc_config(args)
    if args.check == "master":
        presets = sorted(preset_functionals().items())
        # one pass over the stream for every functional
        direct = phi_mc(cone, [f for _, f in presets], config, workers=args.workers)
        rows = []
        for (name, f), (dval, dse) in zip(presets, direct):
            mval, mse = master_phi(f, prof, config, workers=args.workers)
            rows.append([name, mval, dval, math.hypot(mse, dse)])
        return _check(["functional", "mixture", "mc", "diff", "se"], rows, args.out)
    grid = _parse_grid(args.lambda_grid) if args.lambda_grid else _DEFAULT_GRIDS[args.check]
    emp, emp_se = empirical_steiner_cdf(cone, grid, config, kind=args.check,
                                        workers=args.workers)
    rows = []
    for lam, mc, mc_se in zip(grid, emp, emp_se):
        # the mixture row of gaussian_steiner_cdf or spherical_steiner_cdf
        if args.check == "gaussian":
            coeff = chi_square_cdf_family(prof.d, lam)[::-1]
        else:
            coeff = beta_cdf_family(prof.d, lam)
        rows.append([lam, float(np.dot(coeff, prof.v)), float(mc),
                     math.hypot(float(mc_se), _profile_se(prof, coeff))])
    return _check(["lambda", "mixture", "mc", "diff", "se"], rows, args.out)


def _cmd_wills(args, parser):
    cone = parse_cone_spec(args.cone)
    prof = _profile_for(cone, args, seed_shift=1)
    poly = wills_functional(prof, args.lam)
    mc, se = wills_mc(cone, args.lam, _mc_config(args), workers=args.workers)
    payload = {"cone": cone_to_spec(cone), "lambda": args.lam,
               "polynomial": float(poly), "mc": float(mc), "mc_se": float(se),
               "samples": args.samples, "seed": args.seed}
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_product_check(args, parser):
    if len(args.cone) != 2:
        parser.error("product-check needs exactly two --cone flags")
    left = parse_cone_spec(args.cone[0])
    right = parse_cone_spec(args.cone[1])
    prof_l = _profile_for(left, args, seed_shift=1)
    prof_r = _profile_for(right, args, seed_shift=2)
    conv = np.convolve(prof_l.v, prof_r.v)
    direct = _estimate(Product(left, right), _mc_config(args), args.workers)
    se = np.zeros(direct.d + 1) if direct.stderr is None else direct.stderr
    rows = [[str(k), float(conv[k]), float(direct.v[k]), float(se[k])]
            for k in range(direct.d + 1)]
    return _check(["k", "convolution", "direct", "diff", "se"], rows, args.out)


def _cmd_report(args, parser):
    from .report import format_results, run_battery
    _emit("", args.out)   # an unwritable --out exits 2 before the battery runs
    results = run_battery(seed=args.seed, scale=args.scale, workers=args.workers)
    _emit(format_results(results), args.out)
    return 0 if all(r.passed for r in results) else 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conevol",
        description="Numerical toolkit for conic intrinsic volumes.",
        epilog="Cone grammar: orthant:D  subspace:K:D  circ:D:ALPHA  soc:D  "
               "psd:N  trivial:D  gens:PATH  polar(cone)  prod(cone,cone). "
               "Angles in radians; pi fractions like pi/6 are accepted.")
    sub = parser.add_subparsers(dest="command", required=True)

    def run_flags(p):
        p.add_argument("--samples", type=int, default=100_000,
                       help="Monte Carlo sample count (default 100000)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: CONEVOL_THREADS or 1); "
                            "never changes output values")
        p.add_argument("--out", default=None, help="write the artifact to PATH "
                       "instead of stdout")

    def common(p):
        p.add_argument("--cone", required=True, help="cone description (see grammar)")
        run_flags(p)

    p = sub.add_parser("profile", help="intrinsic volume profile",
                       description="Profile artifact columns (csv): k, v, stderr.")
    common(p)
    p.add_argument("--method", choices=("exact", "face", "biorth", "mixture"),
                   default="exact")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--reservoir-cap", type=int, default=100_000,
                   help="retained-sample cap for biorth/mixture (default 100000)")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("sdim", help="statistical dimension estimate")
    common(p)
    p.set_defaults(handler=lambda a, pr: _cmd_point_estimate(a, pr, "sdim"))

    p = sub.add_parser("var", help="intrinsic volume variance estimate")
    common(p)
    p.set_defaults(handler=lambda a, pr: _cmd_point_estimate(a, pr, "var"))

    p = sub.add_parser(
        "tail", help="tail bound table",
        description="CSV columns: lambda, upper_bennett, lower_bennett, "
                    "combined, variance_bound, chebyshev, delta, delta_polar.")
    common(p)
    p.add_argument("--lambda-grid", required=True, metavar="A:B:STEP",
                   help="deviation grid start:stop:step, endpoints included")
    p.add_argument("--delta", type=float, default=None,
                   help="statistical dimension (skips sampling)")
    p.add_argument("--delta-polar", type=float, default=None,
                   help="polar statistical dimension (default: ambient - delta)")
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser(
        "steiner", help="expansion identity check",
        description="CSV columns: lambda (or functional), mixture, mc, diff, "
                    "se.  Exits 4 if any |diff| > 4*se + 0.01.")
    common(p)
    p.add_argument("--check", choices=("gaussian", "spherical", "master"),
                   required=True)
    p.add_argument("--lambda-grid", default=None, metavar="A:B:STEP",
                   help="override the default grid (" + "; ".join(
                       f"{check} {','.join(f'{lam:g}' for lam in grid)}"
                       for check, grid in _DEFAULT_GRIDS.items()) + ")")
    p.set_defaults(handler=_cmd_steiner)

    p = sub.add_parser("wills", help="conic Wills functional")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="scale parameter (> 0)")
    p.set_defaults(handler=_cmd_wills)

    p = sub.add_parser(
        "product-check", help="profile convolution vs direct product estimate",
        description="CSV columns: k, convolution, direct, diff, se.  Exits 4 "
                    "if any |diff| > 4*se + 0.01.")
    p.add_argument("--cone", action="append", required=True,
                   help="factor cone; give the flag exactly twice")
    run_flags(p)
    p.set_defaults(handler=_cmd_product_check)

    p = sub.add_parser("report", help="full acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("quick", "full"), default="full",
                   help="quick shrinks sample counts for smoke runs")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ConeSpecError, UnsupportedConeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalGuardError as e:
        print(f"numerical guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
