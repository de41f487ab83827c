"""Intrinsic volume profiles: exact formulas and Monte Carlo estimators.

The profile of a cone in R^d is the probability vector (v_0, ..., v_d)
of its conic intrinsic volumes.  Exact profiles exist for subspaces,
orthants, psd cones of order n <= 3, products and polars of those, from
the closed forms of the cones module's leaf table; everything else is
estimated from the Gaussian projection stream, either through per-sample face
dimensions (polyhedral cones), through a biorthogonal family of
polynomials in theta = s / (s + t), the share of a Gaussian vector's
squared norm that projects onto the cone, or through a nonnegative least
squares fit of the chi-square mixture CDF.  theta depends on the
direction of the Gaussian vector only, so it carries none of the
chi-square radial noise, and by the spherical Steiner formula it is
Beta(k/2, (d-k)/2) given V = k; the mean and variance of V follow from
its first four moments alone.  The polynomials come from one exact
integer inverse per d and are stored on shifted Legendre polynomials in
float64; they are evaluated as matrix products with Legendre rows built
by Bonnet's recurrence, one row per degree, a block of points at a time.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cones import _fold, ambient_dim
from .exceptions import (ConditioningError, DimensionMismatchError,
                         UnsupportedConeError)
from .sampling import map_chunks, run_summary

BIORTHOGONAL_MAX_DIM = 20
# the biorthogonal functions are evaluated this many points at a time: the
# Legendre rows of one block (8 (d + 2) _EVAL_BLOCK bytes, 1.4 MB at d = 20)
# are reused for the next, so only the function values span the reservoir
_EVAL_BLOCK = 1 << 13


@dataclass(frozen=True)
class IntrinsicVolumeProfile:
    """Probability vector over face/projection dimensions 0..d.

    v is clamped to [0, 1] and normalized; raw_v keeps the estimator
    output before clamping so diagnostic comparisons stay honest.
    stderr is per-coordinate when the estimator provides one.
    """
    d: int
    v: np.ndarray
    stderr: np.ndarray | None
    provenance: str
    raw_v: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.d + 1,):
            raise ValueError(f"profile must have length d+1 = {self.d+1}, got {v.shape}")
        object.__setattr__(self, "v", v)


def profile_from_raw(d, raw, stderr, provenance):
    raw = np.asarray(raw, dtype=float)
    clamped = np.maximum(raw, 0.0)
    total = clamped.sum()
    if not total > 0.0:
        raise ConditioningError("estimated profile has no positive mass")
    return IntrinsicVolumeProfile(
        d=d, v=clamped / total,
        stderr=None if stderr is None else np.asarray(stderr, dtype=float),
        provenance=provenance, raw_v=raw)


def reverse_profile(profile):
    """Profile of the polar cone: coordinates reversed."""
    return IntrinsicVolumeProfile(
        d=profile.d,
        v=profile.v[::-1].copy(),
        stderr=None if profile.stderr is None else profile.stderr[::-1].copy(),
        provenance=profile.provenance + "+reversed",
        raw_v=None if profile.raw_v is None else profile.raw_v[::-1].copy())


def exact_profile(cone):
    """Closed-form profile of a cone whose leaves all have one in the leaf
    table (subspaces, orthants, trivial cones, psd cones of order n <= 3):
    the profile of a product is the convolution of its factors', that of a
    polar its inner profile reversed.  Raises UnsupportedConeError at the
    first leaf without a closed form.
    """
    return _fold(cone, _leaf_profile,
                 lambda left, right: IntrinsicVolumeProfile(
                     left.d + right.d, np.convolve(left.v, right.v), None, "exact"),
                 reverse_profile)


def _leaf_profile(kind, leaf):
    v = kind.profile and kind.profile(leaf)
    if v is None:
        raise UnsupportedConeError(
            f"no closed-form profile for {type(leaf).__name__}; use an estimator")
    return IntrinsicVolumeProfile(len(v) - 1, v, None, "exact")


# ---------------------------------------------------------------------------
# summary-level statistics
# ---------------------------------------------------------------------------

def statistical_dimension(summary):
    """Estimate and standard error of delta = E V from a summary.

    E[d theta] = E V, since theta = s / (s + t) has mean k / d given V = k;
    unlike s = R^2 theta, d theta carries no chi-square radial noise.
    """
    d, acc = summary.dim, summary.theta_moments
    return d * acc.mean, d * acc.se_mean


def intrinsic_variance(summary):
    """Variance of the profile distribution, from the moments of theta.

    Given V = k, theta is Beta(k/2, (d-k)/2) and independent of the
    radius, so X = d theta has
        Var X = Var V * d / (d + 2) + 2 delta (d - delta) / (d + 2),
    which is inverted with the sample mean and variance of X.  The
    standard error is the delta method's on the central moments of X.
    """
    d, acc = summary.dim, summary.theta_moments
    mean, scale = d * acc.mean, (d + 2) / d
    est = scale * d * d * acc.variance - 2.0 * mean * (d - mean) / d
    # the estimate's gradient in the sample variance and the mean of X
    a, b = scale, -2.0 * (d - 2.0 * mean) / d
    mu2, mu3, mu4 = (d ** k * acc.central_moment(k) for k in (2, 3, 4))
    var_est = a * a * (mu4 - mu2 * mu2) + 2.0 * a * b * mu3 + b * b * mu2
    return est, math.sqrt(max(var_est, 0.0) / acc.n)


# ---------------------------------------------------------------------------
# biorthogonal system in theta = s / (s + t)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def biorthogonal_coefficients(d):
    """Shifted Legendre coefficients of the biorthogonal functions h_0..h_d.

    Given V = k, theta = s / (s + t) is Beta(k/2, (d-k)/2), with atoms at
    theta = 0 (k = 0) and theta = 1 (k = d), so E[theta^m | V = k] =
    M[m, k] = prod_{j<m} (k + 2j) / (d + 2j).  h_k = sum_m C[k, m] theta^m
    with C = M^-1 then has E[h_k(theta) | V = l] = delta_kl, and the
    sample mean of h_k(theta) is unbiased for v_k.  M = diag(1 / D) R with
    D[m] = prod_{j<m} (d + 2j) and R[m, k] = prod_{j<m} (k + 2j) integer, so
    R is inverted exactly by fraction-free (Bareiss) Gauss-Jordan
    elimination.  Each h_k is rewritten exactly in the shifted Legendre
    polynomials P*_n(theta) = P_n(2 theta - 1), through theta^m =
    sum_n (2n+1) m!^2 / ((m-n)! (m+n+1)!) P*_n(theta), and rounded to
    float64 once: row k of the returned read-only (d+1, d+1) matrix holds
    h_k's coefficients.  Monomial coefficients would not do (a row's sum
    of magnitudes reaches 2e12 at d = 12 and 8e16 at d = 16); in this basis
    the largest row sum is 7e2, 4e4, 2e6 and 1.2e8 at d = 8, 12, 16 and 20,
    which keeps the float64 evaluation error on [0, 1] below about 1e-8.

    The cap d <= 20 is about standard errors, not conditioning: the
    functions are exact at every d, but the largest per-coordinate standard
    error grows about sevenfold every two dimensions (0.39, 2.5 and 17 on
    orthant:8, 10 and 12 at 1e5 samples), so far past d = 12 an estimate
    carries no information.
    """
    if not 1 <= d <= BIORTHOGONAL_MAX_DIM:
        raise ConditioningError(
            f"biorthogonal system limited to d <= {BIORTHOGONAL_MAX_DIM} "
            f"(requested {d}); use the mixture estimator instead")
    n = d + 1
    # [R | I] becomes [det I | det R^-1]; every division is exact
    rows = [[math.prod(range(k, k + 2 * m, 2)) for k in range(n)]
            + [int(m == k) for k in range(n)] for m in range(n)]
    prev = 1
    for p in range(n):
        pivot = rows[p][p]
        for i in range(n):
            if i != p:
                f = rows[i][p]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], rows[p])]
        prev = pivot
    fact = math.factorial
    scale = [math.prod(range(d, d + 2 * m, 2)) for m in range(n)]
    # (2d+1)! times the Legendre coordinates of theta^m, an integer
    legendre = [[(2 * j + 1) * fact(m) ** 2 * fact(2 * d + 1) // (fact(m - j) * fact(m + j + 1))
                 if j <= m else 0 for j in range(n)] for m in range(n)]
    denom = prev * fact(2 * d + 1)
    # integer / integer is correctly rounded
    coef = np.array([[sum(rows[k][n + m] * scale[m] * legendre[m][j] for m in range(n)) / denom
                      for j in range(n)] for k in range(n)])
    coef.setflags(write=False)
    return coef


# ---------------------------------------------------------------------------
# profile estimators
# ---------------------------------------------------------------------------

def estimate_profile_face(cone, config, workers=None):
    """Profile from per-sample face dimensions (polyhedral cones only).

    v_k is the share of samples whose projection lies in the relative
    interior of a k-dimensional face.  The face dimensions are streamed
    alone (sampling.map_chunks with faces_only, cones.face_dims of the
    Gaussian columns) and counted chunk by chunk: no cone's take a
    chi-square draw, a norms_block call, theta moments or a reservoir, and
    only a generator leaf projects, for its count of weighted generators.
    They come from the same Gaussian stream as run_summary's, so they are
    the face dimensions of the rows run_summary projects.  Any other cone
    raises UnsupportedConeError from map_chunks, before a row is drawn.
    """
    d, n = ambient_dim(cone), config.total_samples
    hist = sum(map_chunks(cone, config, lambda index, fd: np.bincount(fd, minlength=d + 1),
                          workers, faces_only=True))
    v = hist / n
    stderr = np.sqrt(v * (1.0 - v) / n)
    return profile_from_raw(d, v, stderr, "mc_face")


def estimate_profile_biorthogonal(cone, config, workers=None, summary=None):
    """Profile from the biorthogonal functions of the theta reservoir.

    v_k is the mean of h_k(theta), theta = s / (s + t), over the
    summary's theta_reservoir, for the functions of
    biorthogonal_coefficients; samples at the atoms theta = 0 and 1 go
    through the same functions, which need no special case there.
    Standard errors are the sample standard deviations of the function
    values over sqrt(n), n >= 2 the reservoir's samples (a
    MonteCarloConfig's reservoir_cap is at least 2), and never below
    eps * sum_n |c_kn|, the float64 evaluation error of
    h_k = sum_n c_kn P*_n(theta) with |P*_n| <= 1 on [0, 1]: a constant
    theta (a subspace of dimension 0 or d) has zero spread.
    Given summary, run_summary's of an equal cone, it reads that in place
    of a fresh run.
    """
    d = ambient_dim(cone)
    coef = biorthogonal_coefficients(d)
    if summary is None:
        summary = run_summary(cone, config, workers=workers)
    elif summary.dim != d:
        raise DimensionMismatchError(
            f"summary is of a cone in R^{summary.dim}, cone lives in R^{d}")
    elif summary.cone != cone:
        raise UnsupportedConeError(f"summary is of {summary.cone!r}, not of {cone!r}")
    theta = summary.theta_reservoir
    n = theta.size
    x = 2.0 * theta - 1.0
    values = np.empty((d + 1, n))
    # P_0..P_d of one block as contiguous rows, then one spare row
    buffer = np.empty((d + 2) * min(n, _EVAL_BLOCK))
    for start in range(0, n, _EVAL_BLOCK):
        xb = x[start:start + _EVAL_BLOCK]
        m = xb.size
        rows = buffer[:(d + 1) * m].reshape(d + 1, m)
        spare = buffer[(d + 1) * m:(d + 2) * m]
        rows[0] = 1.0
        rows[1] = xb
        # Bonnet's recurrence in legvander's order, so with its bits:
        # P_{j+1} = ((P_j x) (2j+1) - P_{j-1} j) / (j+1)
        for j in range(1, d):
            nxt = rows[j + 1]
            np.multiply(rows[j], xb, out=nxt)
            nxt *= 2 * j + 1
            np.multiply(rows[j - 1], j, out=spare)
            nxt -= spare
            nxt /= j + 1
        np.matmul(coef, rows, out=values[:, start:start + m])
    raw = values.mean(axis=1)
    values -= raw[:, None]
    stderr = np.sqrt(np.einsum("ij,ij->i", values, values) / ((n - 1) * n))
    floor = np.finfo(float).eps * np.abs(coef).sum(axis=1)
    return profile_from_raw(d, raw, np.maximum(stderr, floor), "mc_biorthogonal")


def mixture_design_matrix(d, thresholds):
    from .special import chi_square_cdf_family
    return np.array([chi_square_cdf_family(d, lam) for lam in thresholds])


def estimate_profile_mixture(cone, config, workers=None):
    """Profile from a nonnegative fit of the chi-square mixture CDF.

    The squared projection norms s of the rows config.thin keeps, streamed
    through map_chunks (no run_summary: theta cannot give them), give an
    empirical CDF; it is matched at 4(d+1) empirical quantile thresholds
    by nonnegative least squares over the mixture weights.  Works in any
    dimension but does not come with per-coordinate standard errors.
    """
    from .linalg import nnls_solve
    d = ambient_dim(cone)
    s = np.sort(np.concatenate(map_chunks(cone, config, lambda index, s, t: config.thin(index, s),
                                          workers)))
    m = 4 * (d + 1)
    probs = (np.arange(m) + 1.0) / (m + 1.0)
    thresholds = np.quantile(s, probs)
    cdf_hat = np.searchsorted(s, thresholds, side="right") / s.size
    design = mixture_design_matrix(d, thresholds)
    weights = nnls_solve(design.T, cdf_hat)
    return profile_from_raw(d, weights, None, "mc_mixture")
