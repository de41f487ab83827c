"""Exact intrinsic volumes of circular cones, and of the products and
polars built from them, orthants and subspaces.

circular_profile is the closed form of Amelunxen, Lotz, McCoy and Tropp
("Living on the edge", arXiv:1303.6672).  For 1 <= k <= d - 1,

    v_k = 1/2 Gamma(d/2) / (Gamma((k+1)/2) Gamma((d-k+1)/2))
              sin^(k-1)(alpha) cos^(d-k-1)(alpha),

and the end coordinates are the Gaussian measures of the cone and of
its polar, v_d = 1/2 (1 - I_{cos^2 alpha}(1/2, (d-1)/2)) and
v_0 = 1/2 (1 - I_{sin^2 alpha}(1/2, (d-1)/2)).  Those are taken here as
spherical caps: the angle phi between a Gaussian point and e_1 has
density proportional to sin^(d-2)(phi) on [0, pi], so v_d is the mass of
[0, alpha] and v_0 that of [pi/2 + alpha, pi], integrated with numpy's
Gauss-Legendre rule.  profile composes them: a product convolves its
factors' profiles and a polar reverses its cone's.
"""

import math

import numpy as np

from conevol.cones import Circular, Orthant, Polar, Product, Subspace


def _cap(d, angle):
    # P{angle(g, e_1) <= angle} for a standard Gaussian g in R^d
    t, w = np.polynomial.legendre.leggauss(200)
    phi = 0.5 * angle * (t + 1.0)
    log_sphere = 0.5 * math.log(math.pi) + math.lgamma(0.5 * (d - 1)) - math.lgamma(0.5 * d)
    return 0.5 * angle * float(w @ np.sin(phi) ** (d - 2)) / math.exp(log_sphere)


def circular_profile(d, alpha):
    """v_0..v_d of Circular(d, alpha), d >= 2 and 0 <= alpha <= pi/2."""
    v = np.empty(d + 1)
    sa, ca = math.sin(alpha), math.cos(alpha)
    for k in range(1, d):
        log_front = (math.lgamma(0.5 * d) - math.lgamma(0.5 * (k + 1))
                     - math.lgamma(0.5 * (d - k + 1)))
        v[k] = 0.5 * math.exp(log_front) * sa ** (k - 1) * ca ** (d - k - 1)
    v[d] = _cap(d, alpha)
    v[0] = _cap(d, 0.5 * math.pi - alpha)
    return v


def profile(cone):
    """Exact profile of an orthant, subspace or circular cone, or of a
    product or polar of those."""
    if isinstance(cone, Orthant):
        return np.array([math.comb(cone.d, k) for k in range(cone.d + 1)]) / 2.0 ** cone.d
    if isinstance(cone, Subspace):
        return np.eye(cone.ambient + 1)[cone.dim]
    if isinstance(cone, Circular):
        return circular_profile(cone.d, cone.alpha)
    if isinstance(cone, Product):
        return np.convolve(profile(cone.left), profile(cone.right))
    if isinstance(cone, Polar):
        return profile(cone.inner)[::-1]
    raise TypeError(f"no exact profile for {cone!r}")
