"""Intrinsic volume profiles: exact formulas and Monte Carlo estimators.

The profile of a cone in R^d is the probability vector (v_0, ..., v_d)
of its conic intrinsic volumes.  Exact profiles exist for subspaces,
orthants, products and polars of those; everything else is estimated
from the Gaussian projection stream, either through per-sample face
dimensions (polyhedral cones), through a biorthogonal family of
functions dual to the chi-square densities in the squared projection
norm, or through a nonnegative least squares fit of the chi-square
mixture CDF.  The biorthogonal functions are built in 160-digit decimals
and evaluated in float64 on the orthonormal polynomials of their own
weight, where no compensated arithmetic is needed.
"""

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import lru_cache

import numpy as np

from .cones import (Orthant, Polar, Product, Subspace, Trivial, ambient_dim,
                    supports_face_dim)
from .exceptions import (ConditioningError, DimensionMismatchError,
                         UnsupportedConeError)
from .sampling import run_summary
from .special import gauss_legendre

_LN2 = math.log(2.0)

BIORTHOGONAL_MAX_DIM = 20
_DIGITS = 160
# exp(-s/2) is 0 in float64 from s = 1491 on
_S_ZERO_WEIGHT = 1500.0
# biorthogonal functions are evaluated this many points at a time
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

    @property
    def statistical_dimension(self):
        """Mean of the profile distribution, sum k * v_k."""
        return float(np.dot(np.arange(self.d + 1), self.v))

    @property
    def variance(self):
        k = np.arange(self.d + 1)
        mu = self.statistical_dimension
        return float(np.dot((k - mu) ** 2, self.v))


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
    """Closed-form profile for subspaces, orthants, trivial cones, and
    products/polars built from them.  Raises UnsupportedConeError when no
    closed form is available.
    """
    if isinstance(cone, Subspace):
        v = np.zeros(cone.ambient + 1)
        v[cone.dim] = 1.0
        return IntrinsicVolumeProfile(cone.ambient, v, None, "exact")
    if isinstance(cone, Trivial):
        v = np.zeros(cone.d + 1)
        v[0] = 1.0
        return IntrinsicVolumeProfile(cone.d, v, None, "exact")
    if isinstance(cone, Orthant):
        d = cone.d
        v = np.array([math.comb(d, k) / 2.0 ** d for k in range(d + 1)])
        return IntrinsicVolumeProfile(d, v, None, "exact")
    if isinstance(cone, Product):
        left = exact_profile(cone.left)
        right = exact_profile(cone.right)
        v = np.convolve(left.v, right.v)
        return IntrinsicVolumeProfile(left.d + right.d, v, None, "exact")
    if isinstance(cone, Polar):
        return reverse_profile(exact_profile(cone.inner))
    raise UnsupportedConeError(
        f"no closed-form profile for {type(cone).__name__}; use an estimator")


# ---------------------------------------------------------------------------
# summary-level statistics
# ---------------------------------------------------------------------------

def statistical_dimension(summary):
    """Estimate and standard error of E ||proj(g)||^2 from a summary."""
    return summary.mean_s, summary.s_moments.se_mean


def intrinsic_variance(summary):
    """Variance of the profile distribution, from the two projection sides.

    Each side of the decomposition gives an estimate Var[side] - 2 *
    E[side]; the two are combined with precision weights, with standard
    errors from the delta method on the fourth central moments.
    """
    estimates = []
    for acc in (summary.s_moments, summary.t_moments):
        est = acc.variance - 2.0 * acc.mean
        mu2 = acc.central_moment(2)
        mu3 = acc.central_moment(3)
        mu4 = acc.central_moment(4)
        var_est = max(mu4 - mu2 * mu2 + 4.0 * mu2 - 4.0 * mu3, 0.0) / acc.n
        estimates.append((est, math.sqrt(var_est)))
    finite = [(e, se) for e, se in estimates if se > 0.0]
    if not finite:
        return estimates[0][0], 0.0
    if len(finite) == 1:
        return finite[0]
    weights = [1.0 / se ** 2 for _, se in finite]
    total = sum(weights)
    combined = sum(w * e for w, (e, _) in zip(weights, finite)) / total
    return combined, math.sqrt(1.0 / total)


# ---------------------------------------------------------------------------
# biorthogonal system in the squared projection norm
# ---------------------------------------------------------------------------

def _pi():
    """pi to the current decimal precision, by the series in the decimal docs."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return s


def _gamma_half(n2, root_pi):
    """Gamma(n2 / 2) as a Decimal, given sqrt(pi)."""
    if n2 % 2 == 0:
        return Decimal(math.factorial(n2 // 2 - 1))
    m = (n2 - 1) // 2
    return Decimal(math.factorial(2 * m)) / (4 ** m * math.factorial(m)) * root_pi


def _ldlt(g):
    """Unit lower triangular L and pivots D with g = L diag(D) L^T, for a
    symmetric positive definite g."""
    d = len(g)
    L = [[0] * d for _ in range(d)]
    D = [0] * d
    for j in range(d):
        piv = g[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if piv <= 0:
            raise ConditioningError(f"moment matrix not positive definite at pivot {j}")
        D[j] = piv
        L[j][j] = 1
        for i in range(j + 1, d):
            L[i][j] = (g[i][j] - sum(L[i][k] * L[j][k] * D[k]
                                     for k in range(j))) / piv
    return L, D


def _ldlt_inverse(g):
    """Inverse of a symmetric positive definite matrix by LDL^T."""
    d = len(g)
    L, D = _ldlt(g)
    inv = [[0] * d for _ in range(d)]
    for col in range(d):
        y = [0] * d
        for i in range(col, d):
            y[i] = int(i == col) - sum(L[i][k] * y[k] for k in range(i))
        for i in range(d):
            y[i] /= D[i]
        for i in range(d - 1, -1, -1):
            inv[i][col] = y[i] - sum(L[k][i] * inv[k][col] for k in range(i + 1, d))
    return inv


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Functions f_1..f_d with E[f_j(X_k)] = delta_jk for X_k chi-square(k).

    f_j(s) = sum_k c[j-1, k-1] * rho_k(s) with rho_k(s) = s^(k/2)
    e^(-s/2) / (2^(k/2) Gamma(k/2)), the chi-square(k) density times s.
    The coefficient matrix c is the inverse of the moment matrix, which
    is ill-conditioned (condition ~1e8 already at d = 8), so f_j is not
    evaluated from c.  With u = sqrt(s/2), f_j(s) = exp(-s/2) * P_j(u) for
    a polynomial P_j of degree d, stored in the orthonormal polynomials
    q_0..q_d of the weight e^(-2u^2) on [0, inf), which is the weight of
    f_j^2: P_j = sum_n coef[j-1, n] * q_n.  The q_n are those of the
    three-term recurrence with the float64 a and b, q_0 = 1/b[0], q_-1 = 0:

        b[n+1] * q_(n+1) = (u - a[n]) * q_n - b[n] * q_(n-1).

    The sum over this basis is well conditioned, so plain float64
    evaluates it.

    residual is the max-norm of E[f_j(X_k)] - delta_jk over j, k = 1..d
    for the functions exactly as stored (the float64 coef, a and b, with
    q_0 the float64 1/b[0]), computed in 160 significant decimal digits;
    condition is the max-norm condition estimate of the moment matrix.
    Every field is bit for bit what the exact rational build gives (pinned
    by tests).
    """
    d: int
    coef: np.ndarray
    a: np.ndarray
    b: np.ndarray
    condition: float
    residual: float

    def evaluate(self, s, rows=None):
        """Matrix F with F[j-1, i] = f_j(s_i), shape (d, len(s)); given
        rows (indices j-1), only those rows, in that order, are computed.

        Every entry comes from the same float64 operations in the same
        order, whatever rows and the length of s, so the rows asked for
        equal the matching rows of the full matrix bit for bit.
        """
        s = np.asarray(s, dtype=float).ravel()
        if not (s >= 0.0).all():
            raise ValueError("biorthogonal functions take squared norms s >= 0, "
                             "got a negative or NaN value")
        coef = self.coef if rows is None else self.coef[list(rows)]
        a, b = self.a, self.b
        out = np.empty((coef.shape[0], s.size))
        for start in range(0, s.size, _EVAL_BLOCK):
            block = s[start:start + _EVAL_BLOCK]
            # capping s where exp(-s/2) is already 0 keeps q_n finite, so
            # s = inf gives 0 rather than NaN
            u = np.sqrt(0.5 * np.minimum(block, _S_ZERO_WEIGHT))
            prev = np.zeros_like(u)
            cur = np.full_like(u, 1.0 / b[0])
            acc = coef[:, 0:1] * cur
            for n in range(self.d):
                prev, cur = cur, ((u - a[n]) * cur - b[n] * prev) / b[n + 1]
                acc += coef[:, n + 1:n + 2] * cur
            acc *= np.exp(-0.5 * block)
            out[:, start:start + block.size] = acc
        return out


@lru_cache(maxsize=None)
def build_biorthogonal(d):
    """Construct the biorthogonal system for dimensions 1..d (d <= 20).

    All of it runs in _DIGITS = 160 significant decimal digits, in a
    private decimal context (the caller's context is not used).  The
    moment matrix is assembled and inverted by an LDL^T factorization,
    which gives P_j in monomials.  The Hankel matrix of the moments
    Gamma((n+1)/2) / (2 * 2^((n+1)/2)) of e^(-2u^2) on [0, inf) is
    factored the same way, and its factors give the recurrence
    coefficients a and b of the orthonormal q_n (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, section 2.1).  Once
    a and b are rounded to float64, each P_j is rewritten in the
    polynomials that the rounded recurrence defines, and only those
    coordinates are rounded to give coef; rewriting P_j in the exact q_n
    instead leaves a residual of 6.4e-7 at d = 20.  Monomial coefficients
    in float64 are not enough: by d = 12 the best representable inverse
    already leaves a residual above 1e-5, and the moment matrix stops
    being numerically positive definite at d = 16.  The verified residual
    of the stored system stays below 1e-8 through d = 20: there the
    max-norm condition estimate of the moment matrix is 7.3e21 and the
    residual 5.0e-12 (1.6e8 and 1.7e-15 at d = 8).
    """
    if not 1 <= d <= BIORTHOGONAL_MAX_DIM:
        raise ConditioningError(
            f"biorthogonal system limited to d <= {BIORTHOGONAL_MAX_DIM} "
            f"(requested {d}); use the mixture estimator instead")
    with localcontext(Context(prec=_DIGITS, rounding=ROUND_HALF_EVEN)):
        root2, root_pi = Decimal(2).sqrt(), _pi().sqrt()
        gamma = [None] + [_gamma_half(n, root_pi) for n in range(1, 2 * d + 2)]
        half_power = [2 ** (n // 2) * (root2 if n % 2 else 1) for n in range(2 * d + 2)]
        ks = range(1, d + 1)
        # E[rho_k(X_l)] = Gamma((k+l)/2) / (2^((k+l)/2) Gamma(k/2) Gamma(l/2))
        gram = [[gamma[k + l] / (half_power[k + l] * gamma[k] * gamma[l]) for l in ks]
                for k in ks]
        inv = _ldlt_inverse(gram)
        norm_g = max(sum(abs(e) for e in row) for row in gram)
        norm_inv = max(sum(abs(e) for e in row) for row in inv)
        condition = float(norm_g * norm_inv)

        # Hankel matrix of the moments of e^(-2u^2) = L diag(D) L^T; the
        # orthonormal q_n have a[n] = L[n+1][n] - L[n][n-1] and
        # b[n] = sqrt(D[n] / D[n-1]), b[0] = sqrt(D[0])
        mu = [gamma[n + 1] / (2 * half_power[n + 1]) for n in range(2 * d + 1)]
        L, D = _ldlt([[mu[i + j] for j in range(d + 1)] for i in range(d + 1)])
        a = np.array([float(L[n + 1][n] - (L[n][n - 1] if n else 0)) for n in range(d)])
        b = np.array([float(D[0].sqrt())] + [float((D[n] / D[n - 1]).sqrt()) for n in ks])

        # q_0..q_d in monomials, exactly as the float64 recurrence defines
        # them.  Rounding a and b moves them off orthonormal, so P_j is
        # written in these polynomials, and only its coordinates are rounded.
        q_prev, q = [0] * (d + 1), [Decimal(1.0 / b[0])] + [0] * d
        basis = [q]
        for n in range(d):
            an, bn, bnext = Decimal(a[n]), Decimal(b[n]), Decimal(b[n + 1])
            q_prev, q = q, [((q[k - 1] if k else 0) - an * q[k] - bn * q_prev[k]) / bnext
                            for k in range(d + 1)]
            basis.append(q)
        coef = np.empty((d, d + 1))
        for j in range(d):
            rest = [0] + [inv[j][k - 1] / gamma[k] for k in ks]
            for n in range(d, -1, -1):
                x = rest[n] / basis[n][n]
                coef[j, n] = float(x)
                for k in range(n):
                    rest[k] -= x * basis[n][k]

        # residual of the stored system, from E[u^k e^(-s/2)] for s ~
        # chi-square(l) = Gamma((k+l)/2) / (2^((k+l)/2) Gamma(l/2)), k = 0..d
        moment = [[gamma[k + l] / (half_power[k + l] * gamma[l]) for l in ks]
                  for k in range(d + 1)]
        q_moment = [[sum(q[k] * moment[k][l] for k in range(n + 1)) for l in range(d)]
                    for n, q in enumerate(basis)]
        stored = [[Decimal(c) for c in row] for row in coef.tolist()]
        final = float(max(abs(sum(c * q_moment[n][l] for n, c in enumerate(stored[j]))
                              - int(j == l)) for j in range(d) for l in range(d)))
        if final > 1e-8:
            raise ConditioningError(
                f"biorthogonal residual {final:.3e} exceeds 1e-8 at d={d}")

    for arr in (coef, a, b):
        arr.setflags(write=False)
    return BiorthogonalSystem(d=d, coef=coef, a=a, b=b, condition=condition,
                              residual=final)


def chi_expectation_quadrature(fn, k, nodes=400, upper=14.0):
    """E[fn(X)] for X ~ chi-square(k) by Gauss-Legendre after s = x^2.

    The substitution removes the half-integer power at the origin, so
    the rule converges geometrically for the smooth integrands used in
    the biorthogonality checks.  k = 0 is the point mass at zero.
    """
    if k == 0:
        return float(fn(np.zeros(1))[0])
    rule = gauss_legendre(nodes, 0.0, upper)
    x = rule.nodes
    log_front = _LN2 - 0.5 * k * _LN2 - math.lgamma(0.5 * k)
    density = np.exp(log_front + (k - 1) * np.log(x) - 0.5 * x * x)
    return float(np.dot(rule.weights, fn(x * x) * density))


# ---------------------------------------------------------------------------
# profile estimators
# ---------------------------------------------------------------------------

def _summary_for(cone, config, workers, summary):
    """The given summary, checked against the cone, else a fresh run."""
    if summary is None:
        return run_summary(cone, config, workers=workers)
    if summary.dim != ambient_dim(cone):
        raise DimensionMismatchError(
            f"summary is of a cone in R^{summary.dim}, cone lives in R^{ambient_dim(cone)}")
    if summary.cone != cone:
        raise UnsupportedConeError(f"summary is of {summary.cone!r}, not of {cone!r}")
    return summary


def estimate_profile_face(cone, config, workers=None, summary=None):
    """Profile from per-sample face dimensions (polyhedral cones only)."""
    if not supports_face_dim(cone):
        raise UnsupportedConeError(
            f"{type(cone).__name__} has no face-dimension sampler; "
            "use the biorthogonal or mixture estimator")
    summary = _summary_for(cone, config, workers, summary)
    n = summary.count
    v = summary.face_hist.astype(float) / n
    stderr = np.sqrt(v * (1.0 - v) / n)
    return profile_from_raw(summary.dim, v, stderr, "mc_face")


def estimate_profile_biorthogonal(cone, config, workers=None, summary=None):
    """Profile from the biorthogonal functions of the retained stream.

    v_j for j >= 1 is the retained-sample mean of f_j(s); v_0 comes from
    the same functions applied to the residual side, since the top
    coordinate of the polar profile is v_0.  Standard errors are the
    sample standard deviations of the function values.
    """
    d = ambient_dim(cone)
    system = build_biorthogonal(d)
    summary = _summary_for(cone, config, workers, summary)
    s = summary.reservoir_s
    t = summary.reservoir_t
    if s.size == 0:
        raise ValueError("summary has an empty reservoir")
    n = s.size
    fs = system.evaluate(s)
    raw = np.empty(d + 1)
    stderr = np.empty(d + 1)
    raw[1:] = fs.mean(axis=1)
    stderr[1:] = fs.std(axis=1, ddof=1) / math.sqrt(n)
    ft = system.evaluate(t, rows=[d - 1])[0]
    raw[0] = ft.mean()
    stderr[0] = ft.std(ddof=1) / math.sqrt(n)
    return profile_from_raw(d, raw, stderr, "mc_biorthogonal")


def mixture_design_matrix(d, thresholds):
    from .special import chi_square_cdf_family
    return np.array([chi_square_cdf_family(d, lam) for lam in thresholds])


def estimate_profile_mixture(cone, config, workers=None, summary=None):
    """Profile from a nonnegative fit of the chi-square mixture CDF.

    The retained squared projection norms give an empirical CDF; it is
    matched at 4(d+1) empirical quantile thresholds by nonnegative least
    squares over the mixture weights.  Works in any dimension but does
    not come with per-coordinate standard errors.
    """
    from .linalg import nnls_solve
    d = ambient_dim(cone)
    summary = _summary_for(cone, config, workers, summary)
    s = np.sort(summary.reservoir_s)
    if s.size == 0:
        raise ValueError("summary has an empty reservoir")
    m = 4 * (d + 1)
    probs = (np.arange(m) + 1.0) / (m + 1.0)
    thresholds = np.quantile(s, probs)
    cdf_hat = np.searchsorted(s, thresholds, side="right") / s.size
    design = mixture_design_matrix(d, thresholds)
    weights = nnls_solve(design.T, cdf_hat)
    return profile_from_raw(d, weights, None, "mc_mixture")
