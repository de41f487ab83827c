"""Exact reference values that the benchmark checks answers against.

Nothing here imports conevol: the references come from closed forms, exact
integer arithmetic and numpy's Gauss-Legendre nodes, so a defect in the code
under test cannot cancel out of its own check.

A cone is described by a small tuple tree, the same one the workload
generator turns into conevol objects:

    ("orthant", d)   ("subspace", k, d)   ("circ", d, alpha)   ("psd", n)
    ("gens", matrix, exact_profile_or_None)   ("prod", A, B)   ("polar", A)
"""

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _integrate(log_fn, a, b, panels):
    """Composite 48-node Gauss-Legendre integral of exp(log_fn) over [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * _GL_X[None, :]
    return float(np.sum(half[:, None] * _GL_W[None, :] * np.exp(log_fn(x))))


def chi2_cdf(n, x):
    """P{chi-square(n) <= x}, vectorized over x; n = 0 is the point mass at 0.

    Closed forms of the regularized upper gamma function at integer and
    half-integer shape, summed term by term in log space.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n == 0:
        return np.ones_like(x)
    out = np.zeros_like(x)
    pos = x > 0.0
    h = 0.5 * x[pos]
    log_h = np.log(h)
    if n % 2 == 0:
        upper = np.zeros_like(h)
        offsets = range(n // 2)
    else:
        upper = np.array([math.erfc(math.sqrt(v)) for v in h])
        offsets = [j + 0.5 for j in range(n // 2)]
    for j in offsets:
        upper += np.exp(-h + j * log_h - math.lgamma(j + 1.0))
    out[pos] = np.clip(1.0 - upper, 0.0, 1.0)
    return out


def beta_cdf(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0.

    x = sin^2(phi) turns the integrand into sin^(2a-1) cos^(2b-1), which is
    smooth for the half-integer shapes the spherical identities use.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def log_fn(phi):
        return ((2 * a - 1) * np.log(np.sin(phi)) + (2 * b - 1) * np.log(np.cos(phi))
                + math.log(2.0) - log_b)

    top = math.asin(math.sqrt(x))
    return min(1.0, _integrate(log_fn, 0.0, top, max(1, math.ceil(top / 0.1))))


def ambient(spec):
    kind = spec[0]
    if kind in ("orthant", "circ"):
        return spec[1]
    if kind == "subspace":
        return spec[2]
    if kind == "psd":
        return spec[1] * (spec[1] + 1) // 2
    if kind == "gens":
        return spec[1].shape[1]
    if kind == "prod":
        return ambient(spec[1]) + ambient(spec[2])
    return ambient(spec[1])


def circular_profile(d, alpha):
    """Intrinsic volumes of Circ_d(alpha) (Amelunxen, Lotz, McCoy, Tropp)."""
    v = np.empty(d + 1)
    s, c = math.sin(alpha), math.cos(alpha)
    for k in range(1, d):
        log_v = (math.log(0.5) + math.lgamma(0.5 * d) - math.lgamma(0.5 * (k + 1))
                 - math.lgamma(0.5 * (d - k + 1)))
        v[k] = math.exp(log_v) * s ** (k - 1) * c ** (d - k - 1)
    v[d] = 0.5 * (1.0 - beta_cdf(0.5, 0.5 * (d - 1), c * c))
    v[0] = 0.5 * (1.0 - beta_cdf(0.5, 0.5 * (d - 1), s * s))
    return v


def binomial_profile(d):
    return np.array([math.comb(d, k) / 2 ** d for k in range(d + 1)])


def profile(spec):
    """Exact intrinsic volume profile, or None when no closed form is known."""
    kind = spec[0]
    if kind == "orthant":
        return binomial_profile(spec[1])
    if kind == "subspace":
        v = np.zeros(spec[2] + 1)
        v[spec[1]] = 1.0
        return v
    if kind == "circ":
        return circular_profile(spec[1], spec[2])
    if kind == "gens":
        return spec[2]
    if kind == "prod":
        left, right = profile(spec[1]), profile(spec[2])
        return None if left is None or right is None else np.convolve(left, right)
    if kind == "polar":
        inner = profile(spec[1])
        return None if inner is None else inner[::-1].copy()
    return None


def sdim(spec):
    """Exact statistical dimension, or None.  delta(psd:n) = n(n+1)/4 because
    the cone is self-dual, so its profile is symmetric about d/2."""
    kind = spec[0]
    if kind == "psd":
        return spec[1] * (spec[1] + 1) / 4.0
    if kind == "prod":
        left, right = sdim(spec[1]), sdim(spec[2])
        return None if left is None or right is None else left + right
    if kind == "polar":
        inner = sdim(spec[1])
        return None if inner is None else ambient(spec[1]) - inner
    v = profile(spec)
    return None if v is None else mean(v)


def mean(v):
    return float(np.dot(np.arange(v.size), v))


def variance(v):
    k = np.arange(v.size)
    return float(np.dot((k - mean(v)) ** 2, v))


def chibar_cdf(v, lam):
    """P{||proj(g)||^2 <= lam}: the chi-bar-squared mixture."""
    return sum(vk * chi2_cdf(k, lam) for k, vk in enumerate(v))


def gaussian_cdf(v, lam):
    """P{dist^2(g, C) <= lam}."""
    d = v.size - 1
    return sum(vk * chi2_cdf(d - k, lam) for k, vk in enumerate(v))


def spherical_cdf(v, lam):
    """P{dist^2(theta, C) <= lam} for theta uniform on the sphere."""
    d = v.size - 1
    total = v[d]
    if lam >= 1.0:
        total += v[0]
    for k in range(1, d):
        total += v[k] * beta_cdf(0.5 * (d - k), 0.5 * k, lam)
    return float(total)


def expected_min(v, c):
    """E min(||proj(g)||^2, c), using x f_k(x) = k f_{k+2}(x)."""
    return float(sum(vk * (k * chi2_cdf(k + 2, c)[0] + c * (1.0 - chi2_cdf(k, c)[0]))
                     for k, vk in enumerate(v)))


def upper_tail(v, j):
    """P{V >= j} for an integer j."""
    return float(np.sum(v[max(j, 0):]))


def lower_tail(v, j):
    """P{V <= j} for an integer j."""
    return float(np.sum(v[:j + 1])) if j >= 0 else 0.0
