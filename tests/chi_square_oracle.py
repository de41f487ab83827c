"""Chi-square oracles: the scalar CDF and expectations by quadrature.

chi_square_cdf is the one-value CDF that special.chi_square_cdf_family
replaced: the ascending series of the lower incomplete gamma function
below lam = dof + 1 and the modified Lentz continued fraction of the
upper one above, on top of the C library gamma functions in ``math``.
chi_expectation_quadrature integrates a function against a chi-square
density with numpy's Gauss-Legendre rule.
"""

import math

import numpy as np

from conevol.exceptions import NonConvergenceError

_CF_EPS = 1e-14
_MAX_ITER = 800
_TINY = 1e-300


def _lower_gamma_series(a, x):
    # P(a, x) by the standard ascending series; good for x < a + 1-ish.
    if x <= 0.0:
        return 0.0
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _CF_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError("incomplete gamma series did not converge", _MAX_ITER)


def _upper_gamma_cf(a, x):
    # Q(a, x) by modified Lentz continued fraction; good for larger x.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError("incomplete gamma fraction did not converge", _MAX_ITER)


def chi_square_cdf(dof, lam):
    """CDF of the chi-square distribution with ``dof`` degrees of freedom.

    ``dof = 0`` denotes the point mass at zero, so the CDF is 1 for every
    lam >= 0.  This convention is what makes the mixed-dimension mixture
    sums over k = 0..d work without special cases at the ends.  lam = inf
    gives 1; a NaN lam is rejected like a negative one.
    """
    if dof < 0:
        raise ValueError(f"dof must be >= 0, got {dof}")
    # NaN fails every comparison, so it would slip past a plain lam < 0 test
    if not lam >= 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if dof == 0 or lam == math.inf:
        return 1.0
    a = 0.5 * dof
    x = 0.5 * lam
    if lam < dof + 1.0:
        return min(1.0, _lower_gamma_series(a, x))
    return min(1.0, max(0.0, 1.0 - _upper_gamma_cf(a, x)))


def chi_expectation_quadrature(fn, k, nodes=400, upper=14.0):
    """E[fn(X)] for X ~ chi-square(k) by Gauss-Legendre after s = x^2.

    The substitution removes the half-integer power at the origin, so
    the rule on 0 <= x <= upper converges geometrically for smooth
    integrands.  k = 0 is the point mass at zero.
    """
    if k == 0:
        return float(fn(np.zeros(1))[0])
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * upper * (t + 1.0)
    log_front = 0.5 * (2 - k) * math.log(2.0) - math.lgamma(0.5 * k)
    density = np.exp(log_front + (k - 1) * np.log(x) - 0.5 * x * x)
    return float(0.5 * upper * np.dot(w, fn(x * x) * density))
