"""Dense linear algebra kernels used by the cone projectors and estimators.

Two pieces: an active-set nonnegative least squares solver for
generator cones, and vectorized double-double arithmetic for the
biorthogonal coefficients.  Dense factorizations come from numpy's
LAPACK bindings: the solver's subproblems use np.linalg.lstsq, and the
cone projectors take eigenvalues and ranks from np.linalg directly.
"""

import math

import numpy as np

from .exceptions import NonConvergenceError

_TINY = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# double-double arithmetic, vectorized
#
# A value is an unevaluated sum hi + lo of two doubles (~32 significant
# digits).  Used where coefficient magnitudes force catastrophic
# cancellation past what float64 can resolve.  Sloppy renormalization
# throughout: relative error stays O(eps^2) of operand magnitude, which
# is all the callers need.
# ---------------------------------------------------------------------------

def two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def two_product(a, b):
    """Dekker/Veltkamp exact product: returns (hi, lo) with hi+lo = a*b."""
    hi = a * b
    split = 134217729.0  # 2**27 + 1
    a1 = a * split
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * split
    bh = b1 - (b1 - b)
    bl = b - bh
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def dd_add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    se = se + (xl + yl)
    rh = sh + se
    return rh, se - (rh - sh)


def dd_mul(xh, xl, yh, yl):
    ph, pe = two_product(xh, yh)
    pe = pe + (xh * yl + xl * yh)
    rh = ph + pe
    return rh, pe - (rh - ph)


def dd_sqrt(x):
    """Double-double square root of a nonnegative float64 array."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x)
    ph, pe = two_product(r, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(r > 0.0, ((x - ph) - pe) / (2.0 * r), 0.0)
    return r, e


# ---------------------------------------------------------------------------
# nonnegative least squares
# ---------------------------------------------------------------------------

def nnls_solve(a, b):
    """Nonnegative least squares over generator combinations.

    Given generators as the rows of ``a`` (m x d) and a target b in R^d,
    finds tau >= 0 minimizing ||a.T @ tau - b||.  Lawson-Hanson active
    set iteration on unit-norm generators; each passive-set subproblem
    is a least squares solve (np.linalg.lstsq), which stays defined when
    the passive generators are linearly dependent, as they must be once
    m > d.

    Returns the coefficient vector tau (length m).  Raises
    NonConvergenceError if the outer iteration cap (3m, at least 12) is
    hit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: a {a.shape}, b {b.shape}")
    m = a.shape[0]
    # the optimum is invariant under positive rescaling of a generator;
    # unit norms keep lstsq's rank cutoff from discarding short generators
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    scale = np.where(norms > 0.0, norms, 1.0)
    a = a / scale[:, None]
    design = a.T  # d x m, columns are generators
    tau = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    max_outer = max(3 * m, 12)
    resid = b - design @ tau
    w = a @ resid
    outer = 0
    stalls = 0
    best_rnorm = math.inf
    best_tau = tau
    while True:
        # dual feasibility tolerance scaled to the float noise of the
        # current gradient, so progress continues even when the residual
        # is orders of magnitude below the data scale
        rnorm = math.sqrt(float(resid @ resid))
        tol = 64.0 * np.finfo(float).eps * rnorm
        if rnorm < best_rnorm * (1.0 - 1e-12):
            best_rnorm = rnorm
            best_tau = tau
            stalls = 0
        else:
            # no meaningful progress: remaining positive gradients are
            # rounding noise around an optimum
            stalls += 1
            if stalls >= 2:
                return best_tau / scale
        candidates = np.where(~passive & (w > tol))[0]
        if candidates.size == 0:
            return tau / scale
        outer += 1
        if outer > max_outer:
            raise NonConvergenceError("nnls active-set iteration cap exceeded", outer)
        passive[candidates[np.argmax(w[candidates])]] = True
        # every pass that does not accept z drops at least one passive
        # index, so the passive-set size bounds the number of passes
        for _ in range(np.count_nonzero(passive) + 1):
            idx = np.where(passive)[0]
            z = np.linalg.lstsq(design[:, idx], b, rcond=None)[0]
            if np.all(z > 0.0):
                break
            # step toward z until the first passive coefficient hits zero;
            # that blocking index leaves the passive set even when rounding
            # keeps its coefficient a hair above zero
            cur = tau[idx]
            blocked = z <= 0.0
            ratios = np.full(idx.size, np.inf)
            ratios[blocked] = cur[blocked] / np.maximum(cur[blocked] - z[blocked], _TINY)
            hit = int(np.argmin(ratios))
            tau = np.zeros(m)
            tau[idx] = np.maximum(cur + ratios[hit] * (z - cur), 0.0)
            passive[idx[hit]] = False
            passive[idx[tau[idx] <= 0.0]] = False
            tau[~passive] = 0.0
        else:
            raise NonConvergenceError("nnls passive-set solve did not settle", outer)
        tau = np.zeros(m)
        tau[idx] = z
        resid = b - design @ tau
        w = a @ resid
