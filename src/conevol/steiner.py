"""Steiner-type identities over intrinsic volume profiles.

The central object is the expansion of E f(||proj(g)||^2, dist^2(g, C))
into profile-weighted subspace moments E[f(X_k, X'_{d-k})] with
independent chi-square arguments.  Specializing f gives the Gaussian and
spherical expansion CDFs, the chi-bar-squared law of the squared
projection norm, and the conic Wills functional; this module carries all
of them plus the direct Monte Carlo estimators used to cross-check the
identities.
"""

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .cones import Subspace, ambient_dim
from .exceptions import NumericalGuardError
from .sampling import MomentAccumulator, MonteCarloConfig, map_chunks, unit_rng
from .special import beta_cdf_family, chi_square_cdf_family, gauss_laguerre

GROWTH_TAGS = ("bounded", "poly", "exp")

_DEFAULT_MC = MonteCarloConfig(seed=101, total_samples=10 ** 6)

_PROBE = np.array([0.0, 0.25, 1.0, 4.0, 16.0, 60.0])


@dataclass(frozen=True)
class BivariateFunctional:
    """A functional f(a, b) on the nonnegative quadrant with a growth tag.

    growth is one of "bounded", "poly", "exp"; the exponential tag
    carries the rate xi with f(a,b) = O(exp(xi*(a+b))), and xi must stay
    below 1/2 or the subspace moments diverge.  smooth declares that f is
    regular enough for Gauss-Laguerre quadrature; set it False to force
    the Monte Carlo fallback (kinks, plateaus, indicator-like shapes).
    """
    fn: object
    growth: str = "poly"
    xi: float = 0.0
    smooth: bool = True
    name: str = ""

    def __post_init__(self):
        if self.growth not in GROWTH_TAGS:
            raise ValueError(f"growth must be one of {GROWTH_TAGS}, got {self.growth!r}")
        if self.growth == "exp":
            if not self.xi < 0.5:
                raise ValueError(
                    f"exponential rate xi={self.xi} >= 1/2: subspace moments diverge")
        elif self.xi:
            raise ValueError("xi is only meaningful for the exp growth tag")
        a, b = np.meshgrid(_PROBE, _PROBE)
        vals = np.asarray(self.fn(a.ravel(), b.ravel()), dtype=float)
        if vals.shape != a.ravel().shape:
            raise ValueError("fn must map equal-shape arrays (a, b) to an array of values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("fn produced non-finite values on the probe grid")

    def __call__(self, a, b):
        return self.fn(a, b)


def preset_functionals():
    """The named functionals exercised by the regression battery."""
    return {
        "a": BivariateFunctional(lambda a, b: a, growth="poly", name="a"),
        "b": BivariateFunctional(lambda a, b: b, growth="poly", name="b"),
        "a2": BivariateFunctional(lambda a, b: a * a, growth="poly", name="a2"),
        "min_a_10": BivariateFunctional(lambda a, b: np.minimum(a, 10.0),
                                        growth="bounded", smooth=False,
                                        name="min_a_10"),
        "exp_a4": BivariateFunctional(lambda a, b: np.exp(0.25 * a),
                                      growth="exp", xi=0.25, name="exp_a4"),
    }


@lru_cache(maxsize=1024)
def _scaled_chi_rule(dof, xi, n=96):
    """Nodes, weights and prefactor so that E[g(X_dof)] = pref * sum(w * g(s)).

    Exponential tilting: substituting y = (1 - 2 xi) s / 2 into the
    chi-square density makes the rule exact for g(s) = exp(xi*s) * poly(s),
    which is what the exponential growth tag promises.  dof = 0 is the
    point mass at the origin.  Memoized per (dof, xi, n), as gauss_laguerre
    is; the arrays are read-only.
    """
    if dof == 0:
        s, mult, pref = np.zeros(1), np.ones(1), 1.0
    else:
        sigma = 1.0 - 2.0 * xi
        rule = gauss_laguerre(n, 0.5 * dof - 1.0)
        s = 2.0 * rule.nodes / sigma
        mult = rule.weights * np.exp(-2.0 * xi * rule.nodes / sigma)
        pref = sigma ** (-0.5 * dof)
    s.setflags(write=False)
    mult.setflags(write=False)
    return s, mult, pref


def subspace_moment(f, k, d, config=None, workers=None):
    """(E[f(X_k, X'_{d-k})], stderr) with independent chi-square arguments.

    Smooth functionals integrate on a 96x96 tensorized Gauss-Laguerre
    grid (stderr 0.0); non-smooth ones fall back to Monte Carlo over
    d-dimensional Gaussians with the squared norm split at coordinate k.
    """
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    xi = f.xi if f.growth == "exp" else 0.0
    if f.smooth:
        # A growing tag (xi > 0) needs the exact tilt or the grid corners
        # blow up.  A decaying tag must NOT be tilted all the way: sigma
        # = 1 - 2 xi >= 2 pushes any axis where f is flat outside the
        # weighted L2 space of the rule and the quadrature falls apart.
        # Cap the tilt at sigma = 1.8 and buy accuracy with nodes instead;
        # the residual decay rate c gives a Laguerre coefficient ratio
        # c/(1+c), so the node count below keeps the tail under ~1e-10
        # for xi down to about -15.
        tilt, nodes = xi, 96
        if xi < 0.0:
            tilt = max(xi, -0.4)
            nodes = min(400, 96 + int(math.ceil(48.0 * -xi)))
        sa, wa, ca = _scaled_chi_rule(k, tilt, nodes)
        sb, wb, cb = _scaled_chi_rule(d - k, tilt, nodes)
        A, B = np.meshgrid(sa, sb, indexing="ij")
        W = np.outer(wa, wb)
        if xi > 0.0:
            # far grid corners would overflow exp-tagged functionals; their
            # true contribution is below the untilted Laguerre weight there,
            # which is already ~1e-90 of the total, so zero them out
            safe = xi * (A + B) <= 600.0
            vals = np.zeros_like(A)
            vals[safe] = np.asarray(f(A[safe], B[safe]), dtype=float)
            W = np.where(safe, W, 0.0)
        else:
            vals = np.asarray(f(A, B), dtype=float)
        return float(ca * cb * np.sum(W * vals)), 0.0
    if config is None:
        config = _DEFAULT_MC
    if d == 0:
        return float(np.asarray(f(np.zeros(1), np.zeros(1)))[0]), 0.0
    return phi_mc(Subspace(k, d), f, config, workers)


def master_phi(f, profile, config=None, workers=None):
    """(value, stderr) of the profile-weighted sum of subspace moments.

    The profile is treated as a vector of fixed weights; only Monte
    Carlo moment error enters the stderr.  Non-smooth functionals get an
    independent sample stream per coefficient.
    """
    d = profile.d
    total = 0.0
    var = 0.0
    for k in range(d + 1):
        cfg_k = None
        if config is not None:
            cfg_k = replace(config, seed=config.seed + 7919 * k)
        value, se = subspace_moment(f, k, d, config=cfg_k, workers=workers)
        total += profile.v[k] * value
        var += (profile.v[k] * se) ** 2
    return total, math.sqrt(var)


def phi_mc(cone, f, config, workers=None):
    """Direct Monte Carlo (value, stderr) of E f(s, t) over the cone's
    Gaussian projection stream; the oracle side of the master identity.

    f may also be a sequence of functionals: then the stream is drawn and
    projected once, and the result is a list with one (value, stderr) per
    functional, each the same as phi_mc gives for that functional alone.

    workers is passed to map_chunks, as by every Monte Carlo function
    here: it sets the thread count and never changes the result.
    """
    fs = [f] if callable(f) else list(f)
    parts = map_chunks(cone, config,
                       lambda index, s, t: [MomentAccumulator.from_values(g(s, t)) for g in fs],
                       workers)
    accs = [reduce(MomentAccumulator.merge, column, MomentAccumulator())
            for column in zip(*parts)]
    results = [(acc.mean, acc.se_mean) for acc in accs]
    return results[0] if callable(f) else results


# ---------------------------------------------------------------------------
# expansion CDFs
# ---------------------------------------------------------------------------

def gaussian_steiner_cdf(profile, lam):
    """P{dist^2(g, C) <= lam} as the chi-square mixture of the profile."""
    # coordinate k weighs the chi-square law with d - k degrees of freedom
    return float(np.dot(chi_square_cdf_family(profile.d, lam)[::-1], profile.v))


def spherical_steiner_cdf(profile, lam):
    """P{dist^2(theta, C) <= lam} for theta uniform on the unit sphere.

    Beta mixture with the endpoint conventions: the k = 0 component is a
    point mass at 1 (theta lands at squared distance 1 from a pointed
    cone's polar side) and k = d is the mass at 0.
    """
    return float(np.dot(beta_cdf_family(profile.d, lam), profile.v))


def empirical_steiner_cdf(cone, lam_grid, config, kind="gaussian", workers=None):
    """Monte Carlo estimates of the expansion CDFs on a grid.

    gaussian: fraction of samples with dist^2(g, C) <= lam.
    spherical: same with g normalized to the sphere, dist^2 = t/(s+t).
    Returns (p_hat, stderr) arrays aligned with lam_grid.
    """
    if kind not in ("gaussian", "spherical"):
        raise ValueError(f"kind must be gaussian or spherical, got {kind!r}")
    lam_grid = np.asarray(lam_grid, dtype=float)

    def count_below(index, s, t):
        vals = t if kind == "gaussian" else t / (s + t)
        return (vals[None, :] <= lam_grid[:, None]).sum(axis=1)

    counts = sum(map_chunks(cone, config, count_below, workers))
    n = config.total_samples
    p = counts / n
    return p, np.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# chi-bar-squared law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiBarSquared:
    """Mixture of chi-square laws weighted by an intrinsic volume profile."""
    profile: object

    def cdf(self, lam):
        return float(np.dot(chi_square_cdf_family(self.profile.d, lam), self.profile.v))

    def sample(self, config):
        """Deterministic draws, length config.total_samples.

        Stream unit u of config (sampling.UNIT_ROWS samples) draws from
        unit_rng(seed, u): its mixture indices by inverting the profile's
        CDF at uniforms, then one chi-square variate per sample with a
        positive index.  The draws do not depend on config.chunk_size.
        """
        cum = np.cumsum(np.asarray(self.profile.v, dtype=float))
        cum[-1] = 1.0
        parts = []
        for unit, count in config.units():
            rng = unit_rng(config.seed, unit)
            # side="right" never draws a zero-weight index; u < 1 = cum[-1] keeps dof <= d
            dof = np.searchsorted(cum, rng.random(count), side="right")
            draws = np.zeros(count)
            live = dof > 0
            draws[live] = rng.chisquare(dof[live])
            parts.append(draws)
        return np.concatenate(parts)


def chi_bar_squared(profile):
    return ChiBarSquared(profile)


# ---------------------------------------------------------------------------
# conic Wills functional
# ---------------------------------------------------------------------------

def _lam_power(lam, d):
    """lam ** d for a finite lam > 0; NumericalGuardError if it overflows."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    try:
        return float(lam) ** d
    except OverflowError:
        raise NumericalGuardError(f"lam ** d overflows at lam={lam}, d={d}") from None


def wills_functional(profile, lam):
    """Polynomial form: sum over k of lam^k v_k, for finite lam > 0.

    NumericalGuardError when a power or the sum overflows."""
    _lam_power(lam, profile.d)  # checks lam; lam ** d is the largest power when lam > 1
    powers = lam ** np.arange(profile.d + 1, dtype=float)
    value = float(np.dot(powers, profile.v))
    if not math.isfinite(value):
        raise NumericalGuardError(f"Wills polynomial at lam={lam} is not finite: {value}")
    return value


def wills_mc(cone, lam, config, workers=None):
    """(estimate, stderr) of the Wills functional by Monte Carlo.

    The target is lam^d * E exp(xi * dist^2(g, C)) with xi = (1-lam^2)/2.
    For lam >= 1 the integrand is bounded by 1 and is averaged directly.
    For lam < 1 it has infinite variance (single-coordinate tails give a
    stable index below 2), so the expectation is rewritten under the
    scaled Gaussian N(0, s^2 I) with s^2 = 1/(1 - 2 xi) = 1/lam^2; the
    likelihood ratio cancels the growth exactly and leaves the bounded
    integrand s^d * exp(-xi * ||proj(g)||^2), same mean, finite variance.

    NumericalGuardError when lam^d leaves the normal float range, which
    would overflow the integrand, or when the estimate is not finite.
    """
    d = ambient_dim(cone)
    scale = _lam_power(lam, d)
    if scale < sys.float_info.min:
        raise NumericalGuardError(f"lam ** d underflows at lam={lam}, d={d}")
    xi = 0.5 * (1.0 - lam * lam)
    if xi > 0.0:
        # s^2 = 1/lam^2; projections are positively homogeneous, so the
        # scaled draw's projection norm is s^2 * (standard draw's)
        def integrand(s, t):
            return np.exp(-xi * s / (lam * lam) - d * math.log(lam))
    else:
        def integrand(s, t):
            return np.exp(xi * t)
    mean, se = phi_mc(cone, integrand, config, workers)
    value, err = scale * mean, scale * se
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericalGuardError(
            f"Wills Monte Carlo estimate at lam={lam} is not finite: {value} +- {err}")
    return value, err
