"""Per-row generator-cone projection, kept as an oracle for the block solver.

reference_nnls is the one-target Lawson-Hanson solver that
conevol.linalg.nnls_solve replaced, with np.linalg.lstsq on each passive
set; it also reports how the solve ended.  reference_norms projects a
block one row at a time with it, the way cones.norms_block once did.
pointed_wide_generators builds the pointed cones with more generators
than dimensions that the generator tests sample.
"""

import math

import numpy as np

from conevol.exceptions import NonConvergenceError

_TINY = np.finfo(float).tiny


def reference_nnls(a, b):
    """(tau, outer, stalled): the coefficients, the outer iterations
    taken, and whether the solve ended on the stall rule."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0]
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    scale = np.where(norms > 0.0, norms, 1.0)
    a = a / scale[:, None]
    design = a.T
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
        rnorm = math.sqrt(float(resid @ resid))
        tol = 64.0 * np.finfo(float).eps * rnorm
        if rnorm < best_rnorm * (1.0 - 1e-12):
            best_rnorm = rnorm
            best_tau = tau
            stalls = 0
        else:
            stalls += 1
            if stalls >= 2:
                return best_tau / scale, outer, True
        candidates = np.where(~passive & (w > tol))[0]
        if candidates.size == 0:
            return tau / scale, outer, False
        outer += 1
        if outer > max_outer:
            raise NonConvergenceError("nnls active-set iteration cap exceeded", outer)
        passive[candidates[np.argmax(w[candidates])]] = True
        for _ in range(np.count_nonzero(passive) + 1):
            idx = np.where(passive)[0]
            z = np.linalg.lstsq(design[:, idx], b, rcond=None)[0]
            if np.all(z > 0.0):
                break
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


def reference_norms(gens, X):
    """(s, t, face_dims) of every row of X for the cone generated by the
    rows of gens, one row at a time."""
    s = np.empty(X.shape[0])
    t = np.empty(X.shape[0])
    fd = np.empty(X.shape[0], dtype=np.int64)
    for i, x in enumerate(X):
        tau = reference_nnls(gens, x)[0]
        proj = gens.T @ tau
        resid = x - proj
        s[i] = proj @ proj
        t[i] = resid @ resid
        active = gens[tau > 1e-12 * (1.0 + math.sqrt(float(x @ x)))]
        if active.shape[0] == 0:
            fd[i] = 0
        else:
            sv = np.linalg.svd(active, compute_uv=False)
            fd[i] = int(np.count_nonzero(sv > 1e-10 * sv[0]))
    return s, t, fd


def pointed_wide_generators(m, d, alpha, seed):
    """m generators (cos alpha, sin alpha * u_j) with random unit u_j in
    R^(d-1): all lie in circ:d:alpha, so for alpha < pi/2 the cone they
    span is pointed and has proper faces, unlike m > d Gaussian ones."""
    u = np.random.default_rng(seed).standard_normal((m, d - 1))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.hstack([np.full((m, 1), math.cos(alpha)), math.sin(alpha) * u])
