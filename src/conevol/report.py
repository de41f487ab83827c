"""Regression battery: one function per advertised guarantee.

run_battery evaluates every criterion at a fixed seed and returns the
results; format_results renders the pass/fail table emitted by the
`report` subcommand.  Progress and timings go to stderr so the stdout
artifact stays byte-identical across reruns and worker counts.
"""

import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import (bennett_tails, circular_approximations, circular_interlacing_tail,
                     combined_tail, exp_moment_bound, goe_variance_asymptotics)
from .cones import (Circular, Generators, Orthant, Polar, Product, Psd,
                    Subspace, ambient_dim, second_order_cone)
from .exceptions import ConeVolError
from .profiles import (biorthogonal_coefficients,
                       estimate_profile_biorthogonal, estimate_profile_face,
                       exact_profile, intrinsic_variance,
                       statistical_dimension)
from .sampling import MonteCarloConfig, run_summary
from .special import binomial_tail
from .steiner import (chi_bar_squared, empirical_steiner_cdf,
                      gaussian_steiner_cdf, master_phi, phi_mc,
                      preset_functionals, spherical_steiner_cdf,
                      wills_functional, wills_mc)

_SCALES = {
    "full": dict(c1=200_000, c2=1_000_000, c3=100_000, c5=200_000,
                 c6=1_000_000, c7=1_000_000, c8=1_000_000, c9=200_000,
                 c10=200_000, c11=250_000, c13=400_000, c14=30_000,
                 gens=100_000),
    "quick": dict(c1=50_000, c2=150_000, c3=20_000, c5=30_000,
                  c6=200_000, c7=200_000, c8=100_000, c9=50_000,
                  c10=50_000, c11=50_000, c13=100_000, c14=20_000,
                  gens=50_000),
}

# cones exercised by the polarity / variance-bound regressions.  The
# biorthogonal estimator is the only one with per-coordinate standard
# errors on non-polyhedral cones, and it takes d <= 20.  Its standard
# errors grow with d: on the 1e5-sample reservoirs of the full scale the
# largest polar one is 0.41 on subspace:3:8, 2.5 on the d = 10 cones and
# 7e2-8e2 on circ:16 and soc:16, so the d = 16 profile checks catch only
# gross errors
REGRESSION_CONES = (
    ("orthant:10", Orthant(10)),
    ("subspace:3:8", Subspace(3, 8)),
    ("circ:16:pi/6", Circular(16, math.pi / 6)),
    ("soc:16", second_order_cone(16)),
    ("psd:4", Psd(4)),
    ("prod(orthant:4,orthant:6)", Product(Orthant(4), Orthant(6))),
)

# exact cones of the Steiner, master and Wills identity checks.  Orthant
# profiles are palindromic (v_k = v_{d-k}), so only the product can show
# a reversed profile index
_IDENTITY_CONES = (
    ("orthant:8", Orthant(8)),
    ("prod(orthant:3,subspace:2:5)", Product(Orthant(3), Subspace(2, 5))),
)

# the same cones in generator form: the orthant as the cone of I_8, the
# subspace as the cone of +-e_1, +-e_2 in R^5.  Sampled orthant and
# subspace leaves draw their norms from the master Steiner law itself; a
# generator cone is sampled as full Gaussian rows and projected by
# nnls_solve, so its checks compare the formulas with real projections.
# NNLS costs about 5 us a row, so they run on ns["gens"] samples
_GENERATOR_FORMS = (
    Generators(np.eye(8)),
    Product(Generators(np.eye(3)), Generators(np.vstack([np.eye(2, 5), -np.eye(2, 5)]))),
)


def _identity_cases(ns, key, seeds, generator_seeds):
    """(label, exact cone, sampled cone, seed, samples) for each identity
    cone, sampled as it is on ns[key] samples, then in generator form."""
    cases = [(label, cone, cone, seed, ns[key])
             for (label, cone), seed in zip(_IDENTITY_CONES, seeds)]
    cases += [(f"{label} as generators", cone, form, seed, ns["gens"])
              for (label, cone), form, seed in zip(_IDENTITY_CONES, _GENERATOR_FORMS,
                                                   generator_seeds)]
    return cases


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _config(seed, n):
    return MonteCarloConfig(seed=seed, total_samples=n)


def abs_z(diff, se):
    """|diff| / se elementwise; where se is 0 the z-score is 0 if diff is
    exactly 0 and inf otherwise, so a zero standard error cannot turn a
    difference into a NaN that every |z| <= tol comparison skips."""
    diff = np.abs(np.asarray(diff, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0.0, 0.0, diff / np.asarray(se, dtype=float))


def _c01_orthant_profile(base, ns, workers, cache):
    prof = exact_profile(Orthant(10))
    truth = np.array([math.comb(10, k) for k in range(11)]) / 1024.0
    exact_err = float(np.max(np.abs(prof.v - truth)))
    est = estimate_profile_face(Orthant(10), _config(base + 101, ns["c1"]),
                                workers=workers)
    mc_err = float(np.max(np.abs(est.v - truth)))
    passed = exact_err <= 1e-15 and mc_err <= 0.005
    return passed, (f"exact profile max err {exact_err:.1e} (tol 1e-15); "
                    f"face estimate max err {mc_err:.2e} (tol 5e-3)")


def _c02_circular_moments(base, ns, workers, cache):
    summary = run_summary(Circular(64, math.pi / 6),
                          _config(base + 202, ns["c2"]), workers=workers)
    sdim, _ = statistical_dimension(summary)
    var, _ = intrinsic_variance(summary)
    # the paper's approximations: 16.5 and 23.25, up to rounding
    sdim_ref, var_ref, _, _ = circular_approximations(64, math.pi / 6)
    passed = abs(sdim - sdim_ref) <= 0.15 and abs(var - var_ref) <= 2.0
    return passed, (f"sdim {sdim:.4f} ({sdim_ref:g} +- 0.15), "
                    f"var {var:.3f} ({var_ref:g} +- 2.0)")


def _c03_psd_sdim(base, ns, workers, cache):
    summary = run_summary(Psd(6), _config(base + 303, ns["c3"]), workers=workers)
    sdim, se = statistical_dimension(summary)
    passed = abs(sdim - 10.5) <= 0.2
    return passed, f"sdim {sdim:.4f} +- {se:.4f} (10.5 +- 0.2)"


def _c04_goe_integral(base, ns, workers, cache):
    kernel, _, ratio = goe_variance_asymptotics(1)
    target = 1.0 + 16.0 / math.pi ** 2
    err = abs(kernel - target)
    return err <= 1e-3, (f"kernel integral {kernel:.6f} vs {target:.6f} "
                         f"(err {err:.1e}, tol 1e-3); ratio limit {ratio:.5f}")


def _c05_psd_variance_ratio(base, ns, workers, cache):
    summary = run_summary(Psd(12), _config(base + 505, ns["c5"]), workers=workers)
    sdim, _ = statistical_dimension(summary)
    var, _ = intrinsic_variance(summary)
    ratio = var / sdim
    passed = 0.45 <= ratio <= 0.80
    return passed, (f"var/sdim {ratio:.4f} in [0.45, 0.80] "
                    f"(limit 0.62114; var {var:.2f}, sdim {sdim:.2f})")


def _c06_steiner_cdfs(base, ns, workers, cache):
    grid_g = [0.5, 1.0, 2.0, 4.0, 8.0]
    grid_s = [0.25, 0.5, 0.75, 1.0]
    ok, parts = True, []
    for label, exact, cone, seed, n in _identity_cases(ns, "c6", (606, 609), (620, 623)):
        prof = exact_profile(exact)
        emp_g, _ = empirical_steiner_cdf(cone, grid_g, _config(base + seed, n),
                                         workers=workers)
        worst_g = max(abs(gaussian_steiner_cdf(prof, lam) - float(emp_g[i]))
                      for i, lam in enumerate(grid_g))
        emp_s, _ = empirical_steiner_cdf(cone, grid_s, _config(base + seed + 1, n),
                                         kind="spherical", workers=workers)
        worst_s = max(abs(spherical_steiner_cdf(prof, lam) - float(emp_s[i]))
                      for i, lam in enumerate(grid_s))
        ok = ok and worst_g <= 0.01 and worst_s <= 0.01
        parts.append(f"{label} gaussian max |mixture - mc| {worst_g:.2e}, "
                     f"spherical {worst_s:.2e}")
    # ||proj_C(g)||^2 is dist^2(g, polar C), so the chi-bar-squared law of the
    # product is the Gaussian Steiner CDF of its polar
    label, exact = _IDENTITY_CONES[1]
    law = chi_bar_squared(exact_profile(exact))
    for name, cone, seed, n in ((label, exact, 612, ns["c6"]),
                                (f"{label} as generators", _GENERATOR_FORMS[1], 626,
                                 ns["gens"])):
        emp_c, _ = empirical_steiner_cdf(Polar(cone), grid_g, _config(base + seed, n),
                                         workers=workers)
        worst_c = max(abs(law.cdf(lam) - float(emp_c[i])) for i, lam in enumerate(grid_g))
        ok = ok and worst_c <= 0.01
        parts.append(f"{name} chi-bar-squared {worst_c:.2e}")
    return ok, "; ".join(parts) + " (tol 0.01)"


def _c07_master_functionals(base, ns, workers, cache):
    presets = preset_functionals()
    # min_a_10 is Monte Carlo on both sides, so the product, the second of
    # each pair of cases, runs the quadrature presets only
    names = (("a", "a2", "exp_a4", "min_a_10"), ("a", "a2", "exp_a4"))
    worst_name, worst_z = "", 0.0
    for i, (label, exact, cone, seed, n) in enumerate(
            _identity_cases(ns, "c7", (707, 709), (720, 722))):
        prof = exact_profile(exact)
        # every functional of a case reads one pass over the same stream
        fs = [presets[name] for name in names[i % 2]]
        direct = phi_mc(cone, fs, _config(base + seed + 1, n), workers=workers)
        for name, f, (dval, dse) in zip(names[i % 2], fs, direct):
            mval, mse = master_phi(f, prof, _config(base + seed, n), workers=workers)
            z = float(abs_z(mval - dval, math.hypot(mse, dse)))
            if z >= worst_z:
                worst_name, worst_z = f"{name} on {label}", z
    return worst_z <= 4.0, f"worst |z| {worst_z:.2f} at {worst_name} (tol 4)"


def _legendre_moments(d):
    """Exact E[P*_n(theta) | V = k] for n, k = 0..d, from E[theta^m | V = k] =
    prod_{j<m} (k + 2j) / (d + 2j) and the monomial coefficients
    (-1)^(n+m) C(n, m) C(n+m, m) of the shifted Legendre P*_n."""
    moment = [[Fraction(math.prod(range(k, k + 2 * m, 2)), math.prod(range(d, d + 2 * m, 2)))
               for k in range(d + 1)] for m in range(d + 1)]
    return [[sum((-1) ** (n + m) * math.comb(n, m) * math.comb(n + m, m) * moment[m][k]
                 for m in range(n + 1)) for k in range(d + 1)] for n in range(d + 1)]


def _c08_biorthogonal(base, ns, workers, cache):
    worst_pair = 0.0
    for d in range(1, 13):
        moments = _legendre_moments(d)
        for j, row in enumerate(biorthogonal_coefficients(d).tolist()):
            coef = [Fraction(c) for c in row]
            for k in range(d + 1):
                val = sum(c * moments[n][k] for n, c in enumerate(coef))
                worst_pair = max(worst_pair, float(abs(val - (j == k))))
    config = MonteCarloConfig(seed=base + 808, total_samples=ns["c8"], reservoir_cap=ns["c8"])
    prof = estimate_profile_biorthogonal(Orthant(8), config, workers=workers)
    truth = exact_profile(Orthant(8)).v
    z = float(np.max(abs_z(prof.raw_v - truth, prof.stderr)))
    passed = worst_pair <= 1e-7 and z <= 4.0
    return passed, (f"max |E h_j(theta) - delta_jk| {worst_pair:.1e} for d <= 12, "
                    f"exact rational (tol 1e-7); orthant raw estimate worst |z| "
                    f"{z:.2f} (tol 4)")


def _c09_product_rule(base, ns, workers, cache):
    conv = np.convolve(exact_profile(Orthant(4)).v, exact_profile(Orthant(6)).v)
    truth = exact_profile(Orthant(10)).v
    conv_err = float(np.max(np.abs(conv - truth)))
    # the sampled product draws its face dimension as Binomial(4, 1/2) +
    # Binomial(6, 1/2); its generator form counts it from NNLS projections
    # of full Gaussian rows
    zs = []
    for cone, seed, n in ((Product(Orthant(4), Orthant(6)), 909, ns["c9"]),
                          (Product(Generators(np.eye(4)), Generators(np.eye(6))), 911,
                           ns["gens"])):
        est = estimate_profile_face(cone, _config(base + seed, n), workers=workers)
        zs.append(float(np.max(abs_z(est.v - truth, est.stderr))))
    passed = conv_err <= 1e-12 and max(zs) <= 4.0
    return passed, (f"convolution err {conv_err:.1e} (tol 1e-12); "
                    f"face estimate worst |z| {zs[0]:.2f}, in generator form "
                    f"{zs[1]:.2f} (tol 4)")


def _regression_summaries(base, ns, workers, cache):
    if "summaries" in cache:
        return cache["summaries"]
    out = {}
    for i, (label, cone) in enumerate(REGRESSION_CONES):
        out[label] = (
            run_summary(cone, _config(base + 1001 + 7 * i, ns["c10"]),
                        workers=workers),
            run_summary(Polar(cone), _config(base + 1004 + 7 * i, ns["c10"]),
                        workers=workers),
        )
    cache["summaries"] = out
    return out


def _c10_polarity_totality(base, ns, workers, cache):
    summaries = _regression_summaries(base, ns, workers, cache)
    worst_delta, worst_prof, worst_label = 0.0, 0.0, ""
    for label, cone in REGRESSION_CONES:
        summary_c, summary_p = summaries[label]
        d = ambient_dim(cone)
        sc, se_c = statistical_dimension(summary_c)
        sp, se_p = statistical_dimension(summary_p)
        z_delta = float(abs_z(sc + sp - d, math.hypot(se_c, se_p)))
        worst_delta = max(worst_delta, z_delta)
        try:
            side = exact_profile(cone)
        except ConeVolError:
            side = estimate_profile_biorthogonal(cone, None, summary=summary_c)
        polar = estimate_profile_biorthogonal(Polar(cone), None, summary=summary_p)
        raw_c = side.v if side.raw_v is None else side.raw_v
        se_side = np.zeros(d + 1) if side.stderr is None else side.stderr
        joint = np.hypot(polar.stderr, se_side[::-1])
        z_prof = float(np.max(abs_z(polar.raw_v - raw_c[::-1], joint)))
        if z_prof >= worst_prof:
            worst_prof, worst_label = z_prof, label
    passed = worst_delta <= 4.0 and worst_prof <= 4.0
    return passed, (f"totality worst |z| {worst_delta:.2f}; polar-profile "
                    f"worst |z| {worst_prof:.2f} at {worst_label} (tol 4)")


def _c11_variance_bound(base, ns, workers, cache):
    summaries = _regression_summaries(base, ns, workers, cache)
    worst_margin, worst_label = -math.inf, ""
    for label, cone in REGRESSION_CONES:
        summary, _ = summaries[label]
        d = ambient_dim(cone)
        sdim, _ = statistical_dimension(summary)
        var, var_se = intrinsic_variance(summary)
        slack = var - 2.0 * min(sdim, d - sdim) - 4.0 * var_se
        if slack >= worst_margin:
            worst_margin, worst_label = slack, label
    alpha = math.asin(math.sqrt(0.05))
    summary = run_summary(Circular(400, alpha), _config(base + 1111, ns["c11"]),
                          workers=workers)
    sdim, sdim_se = statistical_dimension(summary)
    var, var_se = intrinsic_variance(summary)
    ratio = var / sdim
    ratio_se = ratio * math.hypot(var_se / var, sdim_se / sdim)
    passed = worst_margin <= 0.0 and ratio >= 1.8 - 4.0 * ratio_se
    return passed, (f"bound slack worst {worst_margin:.3f} at {worst_label} "
                    f"(needs <= 0); saturation var/sdim {ratio:.4f} "
                    f"+- {ratio_se:.4f} (needs >= 1.8 - 4 se)")


def _c12_tail_validity(base, ns, workers, cache):
    eps = 1e-12
    ok = True
    worst = -math.inf
    # exact binomial law of the orthant profile against every bound
    for lam in (1, 2, 4, 8):
        upper, lower = bennett_tails(float(lam), 5.0, 5.0)
        comb = combined_tail(float(lam), 5.0, 5.0)
        one_sided = binomial_tail(10, 0.5, 5 + lam)
        ok = ok and one_sided <= upper + eps and one_sided <= lower + eps
        ok = ok and 2.0 * one_sided <= comb + eps
        worst = max(worst, one_sided - upper, 2.0 * one_sided - comb)
    # circular interlacing bracket: even-threshold tails of Circ_64(pi/6)
    for lam in (1, 2, 4, 8):
        k = math.ceil((16.5 + lam) / 2.0)
        _, bracket_hi = circular_interlacing_tail(64, math.pi / 6, k)
        dev = 2.0 * k - 16.5
        upper, _ = bennett_tails(dev, 16.5, 47.5)
        comb = combined_tail(dev, 16.5, 47.5)
        ok = ok and bracket_hi <= upper + eps and bracket_hi <= comb + eps
        worst = max(worst, bracket_hi - upper, bracket_hi - comb)
    # exact binomial exponential moments against the bound
    for i in range(-10, 11):
        zeta = i / 10.0
        exact = math.exp(-5.0 * zeta) * ((1.0 + math.exp(zeta)) / 2.0) ** 10
        bound = exp_moment_bound(zeta, 5.0, 5.0)
        ok = ok and exact <= bound + eps
        worst = max(worst, exact - bound)
    return ok, f"worst bound violation {worst:.2e} (needs <= 0)"


def _c13_wills(base, ns, workers, cache):
    # exact W(1/2): (3/4)^8 on orthant:8 and (1/2)^2 (3/4)^3 = 27/256 on the product
    ok, parts = True, []
    cases = _identity_cases(ns, "c13", (1313, 1314), (1320, 1321))
    exacts = (0.1001129150390625, 27 / 256) * 2
    for (label, exact_cone, cone, seed, n), exact in zip(cases, exacts):
        poly = wills_functional(exact_profile(exact_cone), 0.5)
        mc, se = wills_mc(cone, 0.5, _config(base + seed, n), workers=workers)
        poly_err, mc_err = abs(poly - exact), abs(mc - poly)
        ok = ok and poly_err <= 1e-15 and mc_err <= 0.005
        parts.append(f"{label} polynomial err {poly_err:.1e}, mc err {mc_err:.2e} +- {se:.1e}")
    return ok, "; ".join(parts) + " (tol 1e-15, 5e-3)"


def _determinism_blob(seed, workers, n):
    parts = []
    config = MonteCarloConfig(seed=seed, total_samples=n, reservoir_cap=n)
    prof = estimate_profile_face(Orthant(12), config, workers=workers)
    parts.extend("%.17g" % x for x in prof.v)
    summary = run_summary(Circular(16, math.pi / 6), config, workers=workers)
    acc = summary.theta_moments
    parts.extend("%.17g" % x for x in
                 (acc.mean, acc.m2, acc.m3, acc.m4, float(summary.theta_reservoir.sum())))
    prof_b = estimate_profile_biorthogonal(Orthant(8), config, workers=workers)
    parts.extend("%.17g" % x for x in prof_b.raw_v)
    law = chi_bar_squared(exact_profile(Orthant(8)))
    draws = law.sample(MonteCarloConfig(seed=seed, total_samples=min(n, 20_000)))
    parts.append("%.17g" % float(draws.mean()))
    emp, _ = empirical_steiner_cdf(Orthant(8), [0.5, 2.0], config, workers=workers)
    parts.extend("%.17g" % float(x) for x in emp)
    return ",".join(parts)


def _c14_determinism(base, ns, workers, cache):
    n = ns["c14"]
    one = _determinism_blob(base + 1414, 1, n)
    again = _determinism_blob(base + 1414, 1, n)
    four = _determinism_blob(base + 1414, 4, n)
    passed = one == again == four
    return passed, (f"rerun identical: {one == again}; "
                    f"1 vs 4 workers identical: {one == four} "
                    f"({len(one.split(','))} checked values)")


_CRITERIA = (
    (1, "orthant-profile", _c01_orthant_profile),
    (2, "circular-moments", _c02_circular_moments),
    (3, "psd-sdim", _c03_psd_sdim),
    (4, "goe-integral", _c04_goe_integral),
    (5, "psd-variance-ratio", _c05_psd_variance_ratio),
    (6, "steiner-cdfs", _c06_steiner_cdfs),
    (7, "master-functionals", _c07_master_functionals),
    (8, "biorthogonal", _c08_biorthogonal),
    (9, "product-rule", _c09_product_rule),
    (10, "polarity-totality", _c10_polarity_totality),
    (11, "variance-bound", _c11_variance_bound),
    (12, "tail-validity", _c12_tail_validity),
    (13, "wills-functional", _c13_wills),
    (14, "determinism", _c14_determinism),
)


def run_battery(seed=0, scale="full", workers=None):
    """Evaluate all criteria; returns a list of CriterionResult."""
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")
    ns = _SCALES[scale]
    base = int(seed) * 10_000
    cache = {}
    results = []
    for index, name, fn in _CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn(base, ns, workers, cache)
        except ConeVolError as e:
            passed, detail = False, f"raised {type(e).__name__}: {e}"
        print(f"[report] criterion {index:02d} {name}: "
              f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
        results.append(CriterionResult(index, name, passed, detail))
    return results


def format_results(results):
    lines = [f"criterion {r.index:02d} {r.name:<22} "
             f"{'PASS' if r.passed else 'FAIL'}  {r.detail}" for r in results]
    lines.append(f"passed {sum(r.passed for r in results)}/{len(results)}")
    return "\n".join(lines) + "\n"
