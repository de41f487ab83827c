"""Full-row projections, kept as the reference for cones.norms_block.

project is the metric projection of full points onto a cone, written from
each cone's definition: the positive part, a coordinate subspace, the
nearest point of a circular cone, the clipped eigenvalues of a symmetric
matrix.  A generator cone is projected a row at a time by
nnls_oracle.reference_nnls, and its face dimension is the active_ranks
rank.  sampled reduces full rows to the few statistics per leaf that
norms_block takes (cones.sampled_layout).  Points of Psd(n) are symmetric
matrices in the isometric coordinates of sym_to_vec.
"""

import math

import numpy as np

from conevol.cones import Circular, Orthant, Polar, Product, Psd, Subspace, Trivial, ambient_dim
from conevol.special import binomial_normal_thresholds
from nnls_oracle import active_ranks, reference_nnls


def _off_diagonal_scale(n):
    iu, ju = np.triu_indices(n)
    return iu, ju, np.where(iu == ju, 1.0, math.sqrt(2.0))


def sym_to_vec(s):
    """The upper triangles of symmetric matrices (the last two axes of s),
    row by row, with the off-diagonal entries times sqrt(2): the Euclidean
    norm of the vector is the Frobenius norm of the matrix."""
    s = np.asarray(s, dtype=float)
    n = s.shape[-1]
    if s.shape[-2:] != (n, n):
        raise ValueError(f"expected square matrices, got shape {s.shape}")
    iu, ju, scale = _off_diagonal_scale(n)
    return scale * s[..., iu, ju]


def vec_to_sym(v, n):
    """Inverse of sym_to_vec for n x n matrices."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (n * (n + 1) // 2,):
        raise ValueError(f"expected vectors of length {n * (n + 1) // 2}, got shape {v.shape}")
    iu, ju, scale = _off_diagonal_scale(n)
    s = np.zeros(v.shape[:-1] + (n, n))
    s[..., iu, ju] = s[..., ju, iu] = v / scale
    return s


def _project_circular(alpha, x):
    # x itself inside the cone, 0 inside its polar, and between them the
    # nearest point of the boundary ray in the plane of e_1 and x, at
    # length rho = x_1 cos(alpha) + r sin(alpha), r = ||x_2..d|| > 0
    ca, sa = math.cos(alpha), math.sin(alpha)
    x1, z = x[..., :1], x[..., 1:]
    r2 = np.sum(z * z, axis=-1, keepdims=True)
    nrm, r = np.sqrt(x1 * x1 + r2), np.sqrt(r2)
    rho = x1 * ca + r * sa
    unit = np.divide(z, r, out=np.zeros_like(z), where=r > 0.0)
    ray = np.concatenate([rho * ca, rho * sa * unit], axis=-1)
    return np.where(x1 >= nrm * ca, x, np.where(x1 <= -nrm * sa, 0.0, ray))


def project(cone, x):
    """(projection, face dimension) of a point x, or of each point along
    the last axis of x.  The face dimension is a subspace's dimension,
    the number of orthant coordinates of the projection above
    1e-12 * (1 + ||x||), or the rank of the generators whose contribution
    is above it; a polar, a circular or a psd cone has none (None), nor
    has a product with such a factor."""
    x = np.asarray(x, dtype=float)
    if isinstance(cone, Product):
        d = ambient_dim(cone.left)
        (p, f), (q, g) = project(cone.left, x[..., :d]), project(cone.right, x[..., d:])
        return np.concatenate([p, q], axis=-1), None if f is None or g is None else f + g
    if isinstance(cone, Polar):
        return x - project(cone.inner, x)[0], None
    if isinstance(cone, Orthant):
        p = np.maximum(x, 0.0)
        thresh = 1e-12 * (1.0 + np.sqrt(np.sum(x * x, axis=-1, keepdims=True)))
        return p, np.count_nonzero(p > thresh, axis=-1)
    if isinstance(cone, (Subspace, Trivial)):
        k = getattr(cone, "dim", 0)
        return np.where(np.arange(x.shape[-1]) < k, x, 0.0), np.full(x.shape[:-1], k)
    if isinstance(cone, Circular):
        return _project_circular(cone.alpha, x), None
    if isinstance(cone, Psd):
        vals, vecs = np.linalg.eigh(vec_to_sym(x, cone.n))
        clipped = (vecs * np.maximum(vals, 0.0)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
        return sym_to_vec(clipped), None
    g = cone.matrix
    rows = x.reshape(-1, g.shape[1])
    tau = np.array([reference_nnls(g, row)[0] for row in rows]).reshape(-1, g.shape[0])
    return (tau @ g).reshape(x.shape), active_ranks(g, rows, tau).reshape(x.shape[:-1])


def sampled(cone, X):
    """(Gaussian columns, chi-square columns) of full rows X, the sampled
    coordinates of cones.sampled_layout, leaf by leaf:

    - Orthant(d): (x) and (||x_+||^2, ||x_-||^2), x the threshold z_K of
      special.binomial_normal_thresholds that stands for the face
      dimension K (z_d = inf);
    - Circular(d, alpha): (x_1) and (||x_2..d||^2);
    - Subspace(k, d), and Trivial(d) as Subspace(0, d): () and
      (||x_1..k||^2, ||x_k+1..d||^2);
    - Psd(n): (lambda) and n - 1 zeros, lambda the eigenvalues of the row's
      matrix, as a diagonal matrix is its own tridiagonal form;
    - Generators: the rows as they are, and no chi-square column.
    """
    X = np.asarray(X, dtype=float)
    if isinstance(cone, Product):
        d = ambient_dim(cone.left)
        (x, z), (y, w) = sampled(cone.left, X[:, :d]), sampled(cone.right, X[:, d:])
        return np.hstack([x, y]), np.hstack([z, w])
    if isinstance(cone, Polar):
        return sampled(cone.inner, X)
    if isinstance(cone, Orthant):
        pos, neg = np.maximum(X, 0.0), np.minimum(X, 0.0)
        z = np.append(binomial_normal_thresholds(cone.d), np.inf)
        return (z[np.count_nonzero(X > 0.0, axis=1)][:, None],
                np.stack([np.sum(pos * pos, axis=1), np.sum(neg * neg, axis=1)], axis=1))
    if isinstance(cone, Circular):
        return X[:, :1], np.sum(X[:, 1:] ** 2, axis=1)[:, None]
    if isinstance(cone, (Subspace, Trivial)):
        k = getattr(cone, "dim", 0)
        return X[:, :0], np.stack([np.sum(X[:, :k] ** 2, axis=1),
                                   np.sum(X[:, k:] ** 2, axis=1)], axis=1)
    if isinstance(cone, Psd):
        return np.linalg.eigvalsh(vec_to_sym(X, cone.n)), np.zeros((X.shape[0], cone.n - 1))
    return X, X[:, :0]
