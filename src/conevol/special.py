"""Special functions and quadrature rules.

Implements the distribution functions the rest of the toolkit needs
(chi-square, beta, binomial), the normal thresholds that turn one
Gaussian into a Binomial(d, 1/2) draw, Bennett's concentration function, and
generalized Gauss-Laguerre rules: nodes from one LAPACK bidiagonal SVD,
weights from one ratio recurrence.  The scalar beta CDF is a continued
fraction on top of the C library gamma functions exposed through
``math``; it accepts any shape.  The families evaluate a whole
mixture row, every k = 0..d at one lambda, in one numpy pass, and are
what the mixture sums over k use.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import NonConvergenceError

# Convergence knobs of the continued-fraction loop.
_CF_EPS = 1e-14
_MAX_ITER = 800
_TINY = 1e-300


def _check_chi_lambda(lam):
    # NaN fails every comparison, so it would slip past a plain lam < 0 test
    if not lam >= 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")


def _beta_cf(a, b, x):
    # Continued fraction for the incomplete beta (modified Lentz).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NonConvergenceError("incomplete beta fraction did not converge", _MAX_ITER)


def beta_cdf(a, b, lam):
    """Regularized incomplete beta I_lam(a, b) on [0, 1].

    Degenerate shape parameters follow the conventions used by the
    spherical mixture sums: a = 0 is the point mass at 0 (CDF is 1
    everywhere on [0, 1]) and b = 0 is the point mass at 1 (CDF is 0
    below 1 and jumps to 1 there).
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("shape parameters must be >= 0")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if a == 0.0:
        return 1.0
    if b == 0.0:
        return 1.0 if lam >= 1.0 else 0.0
    if lam == 0.0:
        return 0.0
    if lam == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(lam) + b * math.log1p(-lam)
    )
    if lam < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cf(a, b, lam) / a
    else:
        value = 1.0 - front * _beta_cf(b, a, 1.0 - lam) / b
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Mixture rows: the CDFs of every k = 0..d at one lambda
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _half_lgamma_table(size):
    table = np.array([math.inf] + [math.lgamma(0.5 * j) for j in range(1, size)])
    table.setflags(write=False)
    return table


def _half_lgamma(n):
    # lgamma(j/2) for j = 0..n (inf at j = 0), cut from a table that is built
    # on first use and again at the next power of two when outgrown
    return _half_lgamma_table(1 << max(6, n.bit_length()))[:n + 1]


def chi_square_cdf_family(d, lam):
    """P{chi-square(k) <= lam} for every k = 0..d, as one array.

    k = 0 is the point mass at zero, so F_0 = 1 for every lam >= 0; this
    convention is what makes the mixture sums over k = 0..d work without
    special cases at the ends.  lam = inf gives 1; a NaN lam is rejected
    like a negative one.  With x = lam/2
    and t_k = x^(k/2) e^-x / Gamma(k/2 + 1), CDFs two degrees apart differ
    by one term, F_k - F_{k+2} = t_k.  So F_k is the suffix sum
    t_k + t_{k+2} + ... (the lower series), and 1 - F_k is Q_0 plus the t_j
    below k of its parity, with Q_0 = erfc(sqrt x) for odd k and e^-x for
    even k.  Each k takes the suffix when lam < k + 1 and the other side
    otherwise, so every value is a sum of positive terms on the side where
    it is small.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    _check_chi_lambda(lam)
    if lam == math.inf:
        return np.ones(d + 1)
    out = np.zeros(d + 1)
    out[0] = 1.0
    if lam == 0.0 or d == 0:
        return out
    x = 0.5 * lam
    # k = 1..split take the upper side (lam >= k + 1), the rest the lower
    split = min(d, max(0, math.floor(lam) - 1))
    top = d
    if split < d:
        # a lower-side suffix sum runs m terms past d: from its first term
        # the ratio falls below exp(-m^2 / (2(x + m))), under e^-40 here
        top += 2 * math.ceil(40.0 + math.sqrt(1600.0 + 80.0 * x))
    rows = (top + 1) // 2
    half = np.arange(1, 2 * rows + 1) * 0.5
    # row r holds the terms of k = 2r + 1 and k = 2r + 2
    t = np.exp(half * math.log(x) - x - _half_lgamma(2 * rows + 2)[3:]).reshape(rows, 2)
    if split > 0:
        head = [[math.erfc(math.sqrt(x)), math.exp(-x)]]
        upper = np.cumsum(np.concatenate((head, t[:(split - 1) // 2])), axis=0)
        out[1:split + 1] = 1.0 - upper.ravel()[:split]
    if split < d:
        low = split // 2
        lower = np.cumsum(t[low:][::-1], axis=0)[::-1]
        out[split + 1:] = lower.ravel()[split - 2 * low:d - 2 * low]
    return np.clip(out, 0.0, 1.0, out=out)


@lru_cache(maxsize=256)
def _beta_row_constants(d):
    # for k = 0..d, with a = (d - k)/2 and b = k/2: a, b - 1, the log of
    # Gamma(a + b) / (Gamma(a + 1) Gamma(b)) (-inf at k = 0), the lambda from
    # which beta_cdf takes its upper side, and whether k's parity chain ends
    # at k = d, where I = 1
    k = np.arange(d + 1)
    g = _half_lgamma(d + 2)
    consts = (0.5 * (d - k), 0.5 * k - 1.0, g[d] - g[d + 2 - k] - g[k],
              (d - k + 2.0) / (d + 4.0), k % 2 == d % 2)
    for arr in consts:
        arr.setflags(write=False)
    return consts


def beta_cdf_family(d, lam):
    """I_lam((d - k)/2, k/2) for every k = 0..d, as one array.

    Agrees with beta_cdf((d - k)/2, k/2, lam) to rounding and keeps its
    point-mass conventions at k = 0 and k = d.  With a + b = d/2 fixed,
    neighbours two apart differ by one positive term,
    I(a, b) - I(a + 1, b - 1) = Gamma(a + b) / (Gamma(a + 1) Gamma(b))
    x^a (1 - x)^(b - 1).  So each parity chain is a cumulative sum from its
    lower end: I = 0 at k = 0, and one beta_cdf call at k = 1.  The chain
    that ends at k = d, where I = 1, also runs down from there as 1 minus a
    suffix sum; its coordinates take the side beta_cdf takes (the lower one
    when lam < (a + 1)/(a + b + 2)).
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if lam == 1.0:
        return np.ones(d + 1)
    out = np.zeros(d + 1)
    if lam > 0.0 and d > 0:
        a, b_less, log_front, upper_from, ends_at_d = _beta_row_constants(d)
        terms = np.exp(log_front + a * math.log(lam) + b_less * math.log1p(-lam))
        # the odd chain's lower end; unused when every odd k is on the upper side
        terms[1] = (beta_cdf(0.5 * (d - 1), 0.5, lam)
                    if d % 2 == 0 or lam < upper_from[1] else 0.0)
        if d % 2 == 0:
            terms = np.append(terms, 0.0)
        # row r holds k = 2r and k = 2r + 1
        terms = terms.reshape(-1, 2)
        lower = np.cumsum(terms, axis=0).ravel()[:d + 1]
        above = np.cumsum(terms[1:][::-1], axis=0)[::-1].ravel()
        upper = 1.0 - np.append(above, (0.0, 0.0))[:d + 1]
        np.clip(np.where(ends_at_d & (lam >= upper_from), upper, lower), 0.0, 1.0, out=out)
        out[0] = 0.0
    out[d] = 1.0
    return out


def bennett_psi(u):
    """Bennett's function (1+u)*log(1+u) - u, extended by continuity.

    Defined for u >= -1 with the limit value 1 at u = -1; returns +inf for
    u < -1, which encodes that a deviation past the hard support edge has
    probability zero (the exponential bound collapses to 0).
    """
    if u < -1.0:
        return math.inf
    if u == -1.0:
        return 1.0
    return (1.0 + u) * math.log1p(u) - u


def binomial_pmf(n, p, k):
    """P{Binomial(n, p) = k}, computed in log space.  An integer array k
    gives the array of its terms."""
    k = np.asarray(k)
    if k.size and not (k.min() >= 0 and k.max() <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        pmf = (k == (0 if p == 0.0 else n)) * 1.0
    else:
        # log j! = lgamma((2j + 2) / 2) for j = 0..n
        log_fact = _half_lgamma(2 * operator.index(n) + 2)[2::2]
        rest = n - k
        pmf = np.exp(log_fact[n] - log_fact[k] - log_fact[rest]
                     + k * math.log(p) + rest * math.log1p(-p))
    return pmf if pmf.ndim else float(pmf)


def binomial_tail(n, p, k):
    """P{Binomial(n, p) >= k}.  k <= 0 returns 1, k > n returns 0."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return min(1.0, math.fsum(binomial_pmf(n, p, np.arange(k, n + 1)).tolist()))


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_normal_cdf(z):
    # log Phi(z) for z <= 0; below -36 erfc underflows, and the asymptotic
    # series of the Mills ratio is exact to rounding there
    if z > -36.0:
        return math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
    r = 1.0 / (z * z)
    series = 1.0 + r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 + r * (-945.0 + r * 10395.0)))))
    return -0.5 * z * z - math.log(-z) - _LOG_SQRT_2PI + math.log(series)


def _lower_normal_quantile(p, log_p):
    # the z <= 0 with Phi(z) = P, given log P <= log 1/2 and P itself, or 0.0
    # where P is too small to keep.  Newton on log Phi(z) = log P starts at
    # -sqrt(-2 log P), left of the root; log Phi is concave, so the iterates
    # rise to the root.  Where P is a normal float, a last Newton step on
    # Phi(z) = P brings Phi(z) as close to P as a few units in z's last
    # place allow
    z = -math.sqrt(-2.0 * log_p)
    while True:
        log_phi = _log_normal_cdf(z)
        step = (log_p - log_phi) * math.exp(log_phi + 0.5 * z * z + _LOG_SQRT_2PI)
        z, before = z + step, z
        if abs(step) <= 1e-15 * (1.0 + abs(before)):
            break
    if p > 0.0:
        z += (p - 0.5 * math.erfc(-z / math.sqrt(2.0))) * math.exp(0.5 * z * z + _LOG_SQRT_2PI)
    return z


@lru_cache(maxsize=256)
def binomial_normal_thresholds(d):
    """z_k = Phi^-1(P{Binomial(d, 1/2) <= k}) for k = 0..d-1, read-only.

    For a standard normal x, K = searchsorted(z, x), the number of
    thresholds below x, is Binomial(d, 1/2).  The CDF of the lower half
    comes from exact integer sums of binomial coefficients, and each of
    its z_k from Newton's method in scalar floats (_lower_normal_quantile);
    the upper half mirrors it, z_{d-1-k} = -z_k, with z = 0 in the middle
    for odd d.  Memoized per d.
    """
    half = []
    scale = 1 << d
    coef, total = 1, 0
    for k in range(d // 2):
        total += coef
        # below 2**-990 (about 1e-298) only log P is kept
        if total.bit_length() > d - 990:
            p = total / scale
            half.append(_lower_normal_quantile(p, math.log(p)))
        else:
            half.append(_lower_normal_quantile(0.0, math.log(total) - d * math.log(2.0)))
        coef = coef * (d - k) // (k + 1)
    z = np.array(half + ([0.0] if d % 2 else []) + [-x for x in reversed(half)])
    z.setflags(write=False)
    return z


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a Gauss rule, held in read-only arrays."""
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


@lru_cache(maxsize=1024)
def gauss_laguerre(n, alpha=0.0):
    """Generalized Gauss-Laguerre rule, normalized to the gamma density.

    Integrates f against x^alpha e^-x / Gamma(alpha+1) on [0, inf):
    sum(w * f(x)) with sum(w) = 1, so rules stay finite for large alpha.
    Nodes are the eigenvalues of the Jacobi matrix J = B^T B (Golub and
    Welsch, Math. Comp. 1969), B upper bidiagonal with diagonal
    sqrt(i + alpha + 1) and superdiagonal sqrt(i); LAPACK's dqds finds B's
    singular values to full relative accuracy (Fernando and Parlett,
    Numer. Math. 1994).  Weights are the Christoffel numbers
    1 / sum_{k<n} p_k(x)^2 of the orthonormal p_k, from the ratios
    p_k / p_{k-1} so that nothing overflows.  Each is accurate relative to
    itself, as steiner's tilt scales far-tail weights by factors past e^300;
    one below float64's range underflows to 0.  Rules are memoized per
    (n, alpha); every caller shares the one read-only rule.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    i = np.arange(n)
    bidiag = np.diag(np.sqrt(i + alpha + 1.0)) + np.diag(np.sqrt(i[1:]), 1)
    x = np.linalg.svd(bidiag, compute_uv=False)[::-1] ** 2
    if np.any(np.diff(x) <= 0.0) or x[0] <= 0.0:
        raise NonConvergenceError("Laguerre nodes failed to separate")
    # r = p_k / p_{k-1} from b_{k+1} p_{k+1} = (x - a_k) p_k - b_k p_{k-1} with
    # a_k = 2k + alpha + 1 and b_0 = 0; t = sum_{j<=k} p_j^2 / p_k^2, log_p = log|p_k|
    b = np.sqrt(i * (i + alpha))
    r, t, log_p = np.ones(n), np.ones(n), np.zeros(n)
    for k in range(1, n):
        r = (x - (2 * k - 1 + alpha) - b[k - 1] / r) / b[k]
        t = t / (r * r) + 1.0
        log_p += np.log(np.abs(r))
    w = np.exp(-np.log(t) - 2.0 * log_p)
    if not np.all(np.isfinite(w)):
        raise NonConvergenceError("Laguerre weights are not finite")
    return QuadratureRule(x, w)


def tanh_sinh_rule(a, b, step=0.01):
    """Tanh-sinh (double-exponential) nodes and weights on (a, b).

    Robust against integrable endpoint singularities; used for the kernel
    integrals where the integrand blows up logarithmically at an edge.
    Returns (nodes, weights) as flat arrays.
    """
    if not b > a:
        raise ValueError("need b > a")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # cover |u| <= ~4.3; tanh(pi/2*sinh(4.3)) is 1 to within ~1e-250
    m = int(4.3 / step)
    u = step * np.arange(-m, m + 1)
    su = np.sinh(u) * (0.5 * math.pi)
    x = np.tanh(su)
    w = step * (0.5 * math.pi) * np.cosh(u) / np.cosh(su) ** 2
    keep = 1.0 - np.abs(x) > 1e-16
    return mid + half * x[keep], half * w[keep]
