"""Concentration bounds for the intrinsic volume random variable.

Everything here is a closed-form function of the statistical dimension
pair (delta, delta_polar = d - delta): the variance bound, exponential
moment bounds, Bennett-type tails, the simplified combined tail and its
product-cone extension.  The circular-cone helpers give the closed-form
approximations of delta and the variance with explicit error bounds, and
the binomial interlacing brackets.  The PSD-cone variance limit is
evaluated by quadrature of the logarithmic covariance kernel of the GOE
eigenvalue field.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import NonConvergenceError, UnsupportedConeError
from .special import bennett_psi, binomial_tail, tanh_sinh_rule

__all__ = [
    "TailBoundReport", "variance_bound", "exp_moment_bound", "bennett_tails",
    "combined_tail", "product_tail", "circular_approximations",
    "circular_interlacing_tail", "goe_variance_asymptotics",
]


def variance_bound(delta, delta_polar):
    """Upper bound 2*min(delta, delta_polar) on Var[V_C]."""
    if delta < 0.0 or delta_polar < 0.0:
        raise ValueError("statistical dimensions must be nonnegative")
    return 2.0 * min(delta, delta_polar)


def _safe_exp(x):
    return math.exp(x) if x < 709.0 else math.inf


def exp_moment_bound(zeta, delta, delta_polar):
    """Bound on E exp(zeta*(V_C - delta)), the smaller of the two branches.

    The first branch charges the cone side, exp((e^{2z} - 2z - 1)/2 * delta);
    the second charges the polar side with zeta negated.  Both are valid for
    every real zeta, so the min is returned.
    """
    if delta < 0.0 or delta_polar < 0.0:
        raise ValueError("statistical dimensions must be nonnegative")

    def branch(rate, dim):
        # expm1 itself overflows past rate ~ 710; the branch is +inf there
        # unless the dimension factor kills it
        if dim == 0.0:
            return 1.0
        if rate > 709.0:
            return math.inf
        return _safe_exp(0.5 * (math.expm1(rate) - rate) * dim)

    return min(branch(2.0 * zeta, delta), branch(-2.0 * zeta, delta_polar))


def bennett_tails(lam, delta, delta_polar):
    """Bennett-type tail bounds (upper, lower) at deviation lam >= 0.

    upper bounds P{V >= delta + lam}, lower bounds P{V <= delta - lam}.
    Each is exp(-max(...)/2) over the two available exponents; psi is
    infinite below -1, which zeroes the bound (a deviation larger than
    the opposite statistical dimension is impossible).
    """
    if lam < 0.0:
        raise ValueError("deviation must be nonnegative")
    if delta <= 0.0 or delta_polar <= 0.0:
        raise UnsupportedConeError(
            "degenerate cone: V_C is deterministic, tails are exactly 0 or 1")
    up = 0.5 * max(delta * bennett_psi(lam / delta),
                   delta_polar * bennett_psi(-lam / delta_polar))
    lo = 0.5 * max(delta_polar * bennett_psi(lam / delta_polar),
                   delta * bennett_psi(-lam / delta))
    return math.exp(-up) if up < math.inf else 0.0, \
        math.exp(-lo) if lo < math.inf else 0.0


def combined_tail(lam, delta, delta_polar):
    """Two-sided bound 2*exp(-(lam^2/4)/(min(delta, delta_polar) + lam/3))."""
    if lam < 0.0:
        raise ValueError("deviation must be nonnegative")
    if lam == 0.0:
        return 2.0
    return 2.0 * math.exp(-(0.25 * lam * lam) / (min(delta, delta_polar) + lam / 3.0))


def product_tail(lam, deltas):
    """Two-sided tail bound for a product cone.

    deltas is a sequence of (delta_i, delta_polar_i) pairs, one per factor;
    the factor variances add, so the combined bound is reused with
    sigma^2 = sum of min(delta_i, delta_polar_i).
    """
    if lam < 0.0:
        raise ValueError("deviation must be nonnegative")
    sigma2 = 0.0
    for d_i, dp_i in deltas:
        if d_i < 0.0 or dp_i < 0.0:
            raise ValueError("statistical dimensions must be nonnegative")
        sigma2 += min(d_i, dp_i)
    return combined_tail(lam, sigma2, sigma2)


@dataclass(frozen=True)
class TailBoundReport:
    """All tail bounds of the calculus evaluated at one deviation."""
    lam: float
    upper_bennett: float
    lower_bennett: float
    combined: float
    variance_bound: float
    chebyshev: float
    delta: float
    delta_polar: float

    @classmethod
    def evaluate(cls, lam, delta, delta_polar):
        upper, lower = bennett_tails(lam, delta, delta_polar)
        vb = variance_bound(delta, delta_polar)
        # Chebyshev at an absolute deviation: Var/lam^2 <= vb/lam^2
        cheb = vb / (lam * lam) if lam > 0.0 else math.inf
        return cls(lam=float(lam), upper_bennett=upper, lower_bennett=lower,
                   combined=combined_tail(lam, delta, delta_polar),
                   variance_bound=vb, chebyshev=cheb,
                   delta=float(delta), delta_polar=float(delta_polar))

    def as_dict(self):
        return {
            "lambda": self.lam,
            "upper_bennett": self.upper_bennett,
            "lower_bennett": self.lower_bennett,
            "combined": self.combined,
            "variance_bound": self.variance_bound,
            "chebyshev": self.chebyshev,
            "delta": self.delta,
            "delta_polar": self.delta_polar,
        }


def circular_approximations(d, alpha):
    """Closed-form approximations for the circular cone Circ_d(alpha).

    Returns (delta_approx, var_approx, eps1_bound, eps2_bound):
    delta ~ d sin^2(alpha) + cos(2 alpha), Var ~ (d-2)/2 * sin^2(2 alpha),
    with the first- and second-moment error bounds.  Both error bounds
    decay like exp(-(d-1)/2 * gap^2) where gap is the angular distance to
    the nearest degenerate half-angle, so the endpoints are rejected.
    """
    if d < 3:
        raise ValueError("need ambient dimension >= 3")
    if not 0.0 < alpha < 0.5 * math.pi:
        raise ValueError("half-angle must lie strictly inside (0, pi/2)")
    sin_a = math.sin(alpha)
    delta_approx = d * sin_a * sin_a + math.cos(2.0 * alpha)
    var_approx = 0.5 * (d - 2) * math.sin(2.0 * alpha) ** 2
    gap = min(alpha, 0.5 * math.pi - alpha)
    base = math.sqrt(0.125 * math.pi) * d ** 1.5 * math.exp(
        -0.5 * (d - 1) * gap * gap)
    return delta_approx, var_approx, base, base * (d + 2)


def circular_interlacing_tail(d, alpha, k):
    """Binomial bracket (lower, upper) for P{V >= 2k} on Circ_d(alpha).

    With d = 2(n+1) the even-index tail of the profile interlaces the
    binomial(n, sin^2 alpha) tails: P{Y >= k} <= P{V >= 2k} <= P{Y >= k-1}.
    """
    if d < 2 or d % 2:
        raise UnsupportedConeError(
            "interlacing brackets need an even ambient dimension")
    n = d // 2 - 1
    if not 0 <= k <= n + 1:
        raise ValueError(f"need 0 <= k <= {n + 1}, got {k}")
    q = math.sin(alpha) ** 2
    return binomial_tail(n, q, k), binomial_tail(n, q, k - 1)


def _goe_kernel(s, t):
    # logarithmic covariance kernel of the GOE eigenvalue counting field,
    # written with P - Q eliminated: P^2 - Q^2 = 4(s-t)^2, so
    # log((P+Q)/(P-Q)) = 2 log((P+Q)/(2|s-t|)), stable near the diagonal.
    p = 4.0 - s * t
    q = np.sqrt(np.maximum((4.0 - s * s) * (4.0 - t * t), 0.0))
    return np.log((p + q) / (2.0 * np.abs(s - t))) / math.pi ** 2


_GOE_STEP = 0.008     # tanh-sinh step of both integrals of _goe_kernel_integral


@lru_cache(maxsize=None)
def _goe_kernel_integral():
    # double integral of 4st * kernel over [0,2]^2; the inner integral is
    # split at the logarithmic diagonal singularity so tanh-sinh sees it
    # only as an endpoint, which it absorbs.
    nodes_t, weights_t = tanh_sinh_rule(0.0, 2.0, _GOE_STEP)
    total = 0.0
    for t, wt in zip(nodes_t, weights_t):
        parts = 0.0
        for a, b in ((0.0, t), (t, 2.0)):
            if b - a < 1e-14:
                continue
            s, ws = tanh_sinh_rule(a, b, _GOE_STEP)
            # extreme nodes can round to exactly t; their weights are
            # O(1e-16) so dropping them costs nothing
            good = s != t
            s, ws = s[good], ws[good]
            parts += float(ws @ (4.0 * s * t * _goe_kernel(s, t)))
        total += wt * parts
    return total


def goe_variance_asymptotics(n):
    """Large-n variance constants for the PSD cone of n x n matrices.

    Returns (kernel_integral, var_asymptotic, ratio_limit).  The kernel
    integral is computed numerically and checked against the closed form
    1 + 16/pi^2; the variance grows like (n^2/4)(16/pi^2 - 1) and the
    variance / statistical-dimension ratio tends to 16/pi^2 - 1.
    """
    if n < 1:
        raise ValueError("matrix order must be positive")
    kernel = _goe_kernel_integral()
    target = 1.0 + 16.0 / math.pi ** 2
    if abs(kernel - target) > 1e-3:
        raise NonConvergenceError(
            f"kernel quadrature off by {abs(kernel - target):.2e} (target 1e-3)")
    ratio = 16.0 / math.pi ** 2 - 1.0
    return kernel, 0.25 * n * n * ratio, ratio
