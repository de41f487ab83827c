"""Dense linear algebra kernels used by the cone projectors and estimators.

Nonnegative least squares for generator cones, which solves a whole
block of targets in lockstep by one of two methods, chosen by
well_conditioned_rows, the singular-value certificate that the
generators' Gram matrix is well conditioned (one np.linalg.svd).
Certified generators take block principal pivoting, which exchanges
every infeasible index of a row at once, each pass one stacked
np.linalg.solve on the Gram matrix.  All others take an active-set
(Lawson-Hanson) solver that adds one generator per pass and keeps each
row's passive generators linearly independent, its subproblems stacked
np.linalg.solve on the Gram matrix, with stacked np.linalg.pinv for
passive sets too ill-conditioned for it.  Either way a row's passive
generators are linearly independent, so the generator projector reads
face dimensions off how many generators a row puts weight on.  The cone
projectors take eigenvalues from np.linalg directly.
"""

import math

import numpy as np

from .exceptions import NonConvergenceError

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

# a slice of solver rows, or of stacked psd matrices in cones, is held to
# about this many values, the budget of drawn values per
# sampling.map_chunks row block
_STACK_VALUES = 1 << 17

# a Lawson-Hanson solve may take this many outer iterations per
# generator, and at least 12
_OUTER_PER_GENERATOR = 3

# block principal pivoting: Kim and Park's backup counter, the number of
# successive full exchanges a row may make that do not leave it fewer
# infeasible indices than ever before; after them it exchanges one index
# a pass
_BACKUPS = 3

# a block pivoting solve may take this many passes per generator, and at
# least 12.  Most rows end within a few passes; Murty's rule always ends,
# but a row that falls back on it takes one pass per exchange.  Among some
# 2e7 Gaussian targets on some 1500 random certified sets of 1 to 24
# Gaussian generators the slowest row took 26 passes, with 5 generators
_PIVOTS_PER_GENERATOR = 50

# a passive subproblem is solved on the Gram matrix of its generators only
# when their singular values lie within this ratio, so that the Gram block
# has condition number at most 1e4 and the normal equations lose at most
# about 4 of float64's 16 digits
_GRAM_RATIO = 1e-2


# ---------------------------------------------------------------------------
# nonnegative least squares
# ---------------------------------------------------------------------------

def nnls_solve(a, b):
    """Nonnegative least squares over generator combinations.

    Given generators as the rows of ``a`` (m x d) and a target b in R^d,
    returns the tau >= 0 (length m) minimizing ||a.T @ tau - b||.  ``b``
    may also be a block of targets, shape (n, d); then tau has shape
    (n, m), row i solving for b[i].  The generators are scaled to unit
    norm, G = a @ a.T is formed once per call and c = a @ b row by row,
    and all rows of a block step through the solver in lockstep.

    When the unit-norm generators pass well_conditioned_rows at
    _GRAM_RATIO (m <= d and singular values within that ratio, so G is
    positive definite with condition number at most 1e4), the rows take
    block principal pivoting on the linear complementarity problem
    y = G tau - c, tau >= 0, y >= 0, tau.y = 0 (Judice and Pires, Comput.
    Oper. Res. 1994; Kim and Park, SIAM J. Sci. Comput. 2011).  Each pass
    moves every infeasible index of a row, a passive coefficient below
    zero or an inactive dual entry below -tol, to the other side at once;
    after _BACKUPS such passes in a row that do not leave fewer infeasible
    indices than any before, it moves only the largest one (Murty's rule),
    which cannot cycle.  A pass is one stacked np.linalg.solve of G with
    the rows and columns of the inactive generators replaced by those of
    the identity, so the inactive coefficients come out exactly 0, and one
    vector-matrix product per row for the dual y.

    Every other set (m > d, near-dependent generators) takes
    Lawson-Hanson active set iteration, which adds one generator per
    outer pass.  Each passive subproblem is solved on the normal
    equations, G_PP z = c_P, by one stacked np.linalg.solve per
    passive-set size (Bro and De Jong, J. Chemometrics 1997), for the
    rows whose own G_PP has eigenvalues within _GRAM_RATIO**2 of each
    other; a row that fails takes the pseudoinverse of its passive
    generators (np.linalg.pinv with lstsq's rank cutoff), which stays
    defined when they are nearly dependent.

    Both methods take tol = 64 eps (||b|| + sum(|tau|)), tau on the
    unit-norm generators, as the dual feasibility tolerance: a generator
    enters the passive set only while its gradient entry c - G tau
    exceeds tol, the rounding level of the computed gradient.  A
    tolerance scaled to the residual itself shrinks with it once a row
    fits exactly, and rounding then lets a dependent (d+1)-th generator
    in; at the rounding level the passive generators stay independent, so
    their number is their rank.  A row's path and arithmetic depend only
    on that row and the generators, so it comes out bit for bit the same
    as ``nnls_solve(a, b[i])``.  Rows are taken in slices whose iteration
    state and Gram blocks hold about _STACK_VALUES values.

    Raises NonConvergenceError if a row hits the cap on pivoting passes
    (50m) or outer iterations (3m, at least 12).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[-1]:
        raise ValueError(f"shape mismatch: a {a.shape}, b {b.shape}")
    m, d = a.shape
    # the optimum is invariant under positive rescaling of a generator;
    # unit norms keep the pseudoinverse's rank cutoff from discarding
    # short generators and give G a unit diagonal
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    scale = np.where(norms > 0.0, norms, 1.0)
    a = a / scale[:, None]
    gram = a @ a.T
    solver = _block_pivoting if well_conditioned_rows(a, _GRAM_RATIO) else _lawson_hanson
    rows = b.reshape(-1, d)
    # per row: the (m,) iteration state and a Gram block, passive or
    # padded, whose size rarely passes d + 1
    step = max(1, _STACK_VALUES // (m + min(m, d + 1) ** 2))
    tau = np.empty((rows.shape[0], m))
    for r0 in range(0, rows.shape[0], step):
        tau[r0:r0 + step] = solver(a, gram, rows[r0:r0 + step])
    return (tau / scale).reshape(b.shape[:-1] + (m,))


def well_conditioned_rows(a, ratio):
    """Whether the m x d matrix ``a`` has m <= d and smallest singular
    value at least ``ratio`` times the largest.  By Cauchy interlacing
    every subset of its rows then has a singular-value ratio at least as
    large."""
    m, d = a.shape
    if m > d:
        return False
    sv = np.linalg.svd(a, compute_uv=False)
    return bool(sv[-1] >= ratio * sv[0])


def _row_products(x, mat):
    """x[i] @ mat for every row of x, as one vector-matrix product per
    row, so a row's bits do not depend on the rows beside it."""
    return np.matmul(x[:, None, :], mat)[:, 0]


def _block_pivoting(a, gram, b):
    """Lockstep block principal pivoting over the rows of b (n x d),
    unit-norm a whose Gram matrix gram is positive definite."""
    n, m = b.shape[0], a.shape[0]
    c = _row_products(b, a.T)
    bnorm = np.sqrt(np.einsum("ij,ij->i", b, b))
    max_passes = max(_PIVOTS_PER_GENERATOR * m, 12)
    tau = np.zeros((n, m))
    y = -c
    passive = np.zeros((n, m), dtype=bool)
    fewest = np.full(n, m + 1)   # fewest infeasible indices seen, per row
    backups = np.full(n, _BACKUPS)
    live = np.arange(n)          # rows of the slice still pivoting
    eye = np.eye(m)
    out = np.empty((n, m))
    passes = 0
    while True:
        # Lawson-Hanson's dual tolerance (see nnls_solve); a passive
        # coefficient may be negative here, so its size counts
        tol = 64.0 * _EPS * (bnorm + np.abs(tau).sum(axis=1))
        infeasible = np.where(passive, tau < 0.0, y < -tol[:, None])
        count = np.count_nonzero(infeasible, axis=1)
        done = count == 0
        out[live[done]] = tau[done]
        if done.any():
            go = ~done
            live, c, bnorm, tau, passive, infeasible, count, fewest, backups = (
                v[go] for v in (live, c, bnorm, tau, passive, infeasible, count,
                                fewest, backups))
            if not live.size:
                return out
        passes += 1
        if passes > max_passes:
            raise NonConvergenceError("nnls block pivoting pass cap exceeded", passes)
        # full exchange on a pass that leaves fewer infeasible indices than
        # any before, which restores the backups, and while backups last;
        # else Murty's rule: exchange the largest infeasible index only
        fewer = count < fewest
        fewest = np.minimum(fewest, count)
        backups = np.where(fewer, _BACKUPS, backups)
        full = backups > 0
        backups = backups - (full & ~fewer)
        murty = np.flatnonzero(~full)
        if murty.size:
            last = m - 1 - np.argmax(infeasible[murty, ::-1], axis=1)
            infeasible[murty] = False
            infeasible[murty, last] = True
        passive ^= infeasible
        # G on passive rows and columns, the identity elsewhere: the
        # inactive coefficients solve to exactly 0
        mats = np.where(passive[:, :, None] & passive[:, None, :], gram, eye)
        rhs = np.where(passive, c, 0.0)[..., None]
        tau = np.linalg.solve(mats, rhs)[..., 0]
        y = np.where(passive, 0.0, _row_products(tau, gram) - c)


def _gram_ok(g, ratio):
    """Which of the stacked passive Gram blocks g (k, p, p) to solve on
    the normal equations: those whose eigenvalues lie within ratio**2 of
    each other.  A block of dependent generators is singular and fails
    the test."""
    lam = np.linalg.eigvalsh(g)
    return lam[:, 0] >= ratio ** 2 * lam[:, -1]


def _passive_solve(a, gram, passive, b, c):
    """Least-squares coefficients of each row of b over its passive
    generators (the True entries of its row of passive), zero elsewhere;
    c = a @ b row by row.

    Rows are grouped by passive-set size only.  Each row solves its own
    G_PP z = c_P, one stacked np.linalg.solve per size; the rows of a size
    whose block _gram_ok turns down take the pseudoinverse of their
    passive generators instead, one stacked np.linalg.pinv per size.
    """
    z = np.zeros(passive.shape)
    sizes = np.count_nonzero(passive, axis=1)
    for p in set(sizes[sizes > 0].tolist()):
        rows = np.flatnonzero(sizes == p)
        cols = np.nonzero(passive[rows])[1].reshape(rows.size, p)
        g = gram[cols[:, :, None], cols[:, None, :]]
        ok = _gram_ok(g, _GRAM_RATIO)
        if not ok.all():
            bad, bad_cols = rows[~ok], cols[~ok]
            # lstsq's cutoff: singular values below max(d, p) * eps of the largest
            ops = np.linalg.pinv(a[bad_cols].transpose(0, 2, 1),
                                 rcond=max(a.shape[1], p) * _EPS)
            z[bad[:, None], bad_cols] = np.matmul(ops, b[bad, :, None])[..., 0]
            rows, cols, g = rows[ok], cols[ok], g[ok]
        rhs = np.take_along_axis(c[rows], cols, axis=1)[..., None]
        z[rows[:, None], cols] = np.linalg.solve(g, rhs)[..., 0]
    return z


def _lawson_hanson(a, gram, b):
    """Lockstep Lawson-Hanson over the rows of b (n x d), unit-norm a
    with Gram matrix gram."""
    n, m = b.shape[0], a.shape[0]
    at = a.T
    c = _row_products(b, at)
    max_outer = max(_OUTER_PER_GENERATOR * m, 12)
    tau = np.zeros((n, m))
    passive = np.zeros((n, m), dtype=bool)
    bnorm = np.sqrt(np.einsum("ij,ij->i", b, b))
    resid = b.copy()
    w = _row_products(resid, at)
    best_rnorm = np.full(n, math.inf)
    best_tau = tau.copy()
    stalls = np.zeros(n, dtype=np.int64)
    live = np.arange(n)         # rows of the slice still iterating
    out = np.empty((n, m))
    outer = 0
    while live.size:
        # dual feasibility tolerance at the rounding level of the computed
        # gradient, not of the residual (see nnls_solve)
        rnorm = np.sqrt(np.einsum("ij,ij->i", resid, resid))
        tol = 64.0 * _EPS * (bnorm + tau.sum(axis=1))
        better = rnorm < best_rnorm * (1.0 - 1e-12)
        best_rnorm[better] = rnorm[better]
        best_tau[better] = tau[better]
        # no meaningful progress twice: remaining positive gradients are
        # rounding noise around an optimum
        stalls = np.where(better, 0, stalls + 1)
        stalled = stalls >= 2
        candidates = ~passive & (w > tol[:, None])
        optimal = ~stalled & ~candidates.any(axis=1)
        out[live[stalled]] = best_tau[stalled]
        out[live[optimal]] = tau[optimal]
        go = ~(stalled | optimal)
        if not go.all():
            live, b, bnorm, c, tau, passive, candidates, w, best_rnorm, best_tau, stalls = (
                v[go] for v in (live, b, bnorm, c, tau, passive, candidates, w,
                                best_rnorm, best_tau, stalls))
            if not live.size:
                break
        outer += 1
        if outer > max_outer:
            raise NonConvergenceError("nnls active-set iteration cap exceeded", outer)
        k = np.arange(live.size)
        passive[k, np.argmax(np.where(candidates, w, -np.inf), axis=1)] = True
        # every pass that does not accept z drops at least one passive
        # index, and an empty passive set is always accepted, so this ends
        pending = k
        while True:
            p = passive[pending]
            z = _passive_solve(a, gram, p, b[pending], c[pending])
            accept = np.all((z > 0.0) | ~p, axis=1)
            tau[pending[accept]] = z[accept]
            if accept.all():
                break
            pending, p, z = pending[~accept], p[~accept], z[~accept]
            # step toward z until the first passive coefficient hits zero;
            # that blocking index leaves the passive set even when rounding
            # keeps its coefficient a hair above zero
            cur = tau[pending]
            blocked = p & (z <= 0.0)
            ratios = np.full(z.shape, np.inf)
            ratios[blocked] = cur[blocked] / np.maximum(cur[blocked] - z[blocked], _TINY)
            hit = np.argmin(ratios, axis=1)
            j = np.arange(pending.size)
            moved = np.maximum(cur + ratios[j, hit][:, None] * (z - cur), 0.0)
            p[j, hit] = False
            p &= moved > 0.0
            passive[pending] = p
            tau[pending] = np.where(p, moved, 0.0)
        resid = b - _row_products(tau, a)
        w = _row_products(resid, at)
    return out
