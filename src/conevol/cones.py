"""Cone descriptors and metric projections.

A cone is described by a small immutable dataclass; composite cones are
built with Product and Polar wrappers.  ``project`` maps a point to the
nearest point of the cone and reports squared norms of the projection
and the residual; the residual is simultaneously the projection onto the
polar cone, so one projection call prices both sides of the
decomposition x = proj_C(x) + proj_polar(x) with proj_C(x) orthogonal to
proj_polar(x).

Ambient points are plain float vectors (anything numpy can coerce).
Points of the semidefinite cone live in the isometric vector coordinates
produced by sym_to_vec, where off-diagonal entries carry a sqrt(2)
factor so that Euclidean norm equals Frobenius norm.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConeSpecError, DimensionMismatchError, UnsupportedConeError
from .linalg import nnls_solve
from .special import binomial_normal_thresholds

MAX_AMBIENT_DIM = 10_000


def _check_dim(d, lo=1):
    if not isinstance(d, (int, np.integer)) or not lo <= d <= MAX_AMBIENT_DIM:
        raise ConeSpecError(f"dimension must be an integer in [{lo}, {MAX_AMBIENT_DIM}], got {d!r}")


@dataclass(frozen=True)
class Subspace:
    """Linear subspace spanned by the first ``dim`` coordinate axes."""
    dim: int
    ambient: int

    def __post_init__(self):
        _check_dim(self.ambient)
        if not isinstance(self.dim, (int, np.integer)) or not 0 <= self.dim <= self.ambient:
            raise ConeSpecError(f"subspace dimension must lie in [0, {self.ambient}], got {self.dim!r}")


@dataclass(frozen=True)
class Orthant:
    """Nonnegative orthant in R^d."""
    d: int

    def __post_init__(self):
        _check_dim(self.d)


@dataclass(frozen=True)
class Circular:
    """Circular cone {x : x_1 >= ||x|| cos(alpha)} with alpha in [0, pi/2]."""
    d: int
    alpha: float

    def __post_init__(self):
        _check_dim(self.d, lo=2)
        if not (isinstance(self.alpha, (int, float)) and 0.0 <= self.alpha <= math.pi / 2):
            raise ConeSpecError(f"alpha must lie in [0, pi/2], got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))


def second_order_cone(d):
    """The cone {x : x_1 >= ||x_2..d||}, i.e. Circular(d, pi/4)."""
    return Circular(d, math.pi / 4)


@dataclass(frozen=True)
class Psd:
    """Positive semidefinite n x n matrices, in sym_to_vec coordinates."""
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ConeSpecError(f"matrix order must be a positive integer, got {self.n!r}")
        _check_dim(self.n * (self.n + 1) // 2)


@dataclass(frozen=True)
class Trivial:
    """The cone containing only the origin of R^d."""
    d: int

    def __post_init__(self):
        _check_dim(self.d)


@dataclass(frozen=True, eq=False)
class Generators:
    """Finitely generated cone {sum tau_i g_i : tau >= 0}, rows = generators."""
    matrix: np.ndarray
    source: str = field(default="", compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ConeSpecError(f"generator matrix must be 2-D and nonempty, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ConeSpecError("generator matrix contains non-finite entries")
        row_norms = np.sqrt(np.sum(m * m, axis=1))
        if np.any(row_norms == 0.0):
            raise ConeSpecError("generator rows must be nonzero")
        if m.shape[0] > 1000:
            raise ConeSpecError("at most 1000 generators supported")
        _check_dim(m.shape[1])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        return (isinstance(other, Generators)
                and self.matrix.shape == other.matrix.shape
                and bool(np.array_equal(self.matrix, other.matrix)))

    __hash__ = None


@dataclass(frozen=True)
class Product:
    """Direct product C1 x C2, coordinates of C1 first."""
    left: object
    right: object


@dataclass(frozen=True)
class Polar:
    """Polar cone {y : <x, y> <= 0 for all x in C}."""
    inner: object


def ambient_dim(cone):
    """Dimension of the space the cone lives in."""
    if isinstance(cone, Subspace):
        return cone.ambient
    if isinstance(cone, (Orthant, Trivial)):
        return cone.d
    if isinstance(cone, Circular):
        return cone.d
    if isinstance(cone, Psd):
        return cone.n * (cone.n + 1) // 2
    if isinstance(cone, Generators):
        return cone.matrix.shape[1]
    if isinstance(cone, Product):
        return ambient_dim(cone.left) + ambient_dim(cone.right)
    if isinstance(cone, Polar):
        return ambient_dim(cone.inner)
    raise UnsupportedConeError(f"not a cone descriptor: {cone!r}")


def supports_face_dim(cone):
    """True when per-sample face dimensions are defined (polyhedral variants)."""
    if isinstance(cone, (Subspace, Orthant, Trivial, Generators)):
        return True
    if isinstance(cone, Product):
        return supports_face_dim(cone.left) and supports_face_dim(cone.right)
    return False


# ---------------------------------------------------------------------------
# symmetric-matrix coordinates
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _triu_indices(n):
    return np.triu_indices(n)


def sym_to_vec(s):
    """Isometric vectorization of a symmetric matrix (off-diagonals * sqrt2)."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {s.shape}")
    iu, ju = _triu_indices(n)
    v = s[iu, ju].copy()
    v[iu != ju] *= _SQRT2
    return v


def vec_to_sym(v, n):
    """Inverse of sym_to_vec."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n * (n + 1) // 2,):
        raise ValueError(f"expected length {n*(n+1)//2}, got {v.shape}")
    iu, ju = _triu_indices(n)
    s = np.zeros((n, n))
    off = iu != ju
    vals = v.copy()
    vals[off] /= _SQRT2
    s[iu, ju] = vals
    s[ju, iu] = vals
    return s


def _vec_to_sym_block(x, n):
    # (B, n(n+1)/2) -> (B, n, n), lower triangles only: eigvalsh reads no
    # other entry.  Dividing by 1 on the diagonal and sqrt 2 below it gives
    # the bits vec_to_sym gives, without a copy of x
    iu, ju = _triu_indices(n)
    s = np.zeros((x.shape[0], n, n))
    s[:, ju, iu] = x
    scale = np.full((n, n), _SQRT2)
    np.fill_diagonal(scale, 1.0)
    s /= scale
    return s


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionOutcome:
    """Nearest point of the cone plus the complementary residual."""
    projection: np.ndarray
    residual: np.ndarray
    sq_norm_proj: float
    sq_norm_residual: float
    face_dim: int | None = None


def _zero_threshold(x_norm):
    # activity threshold shared by projectors and face counting
    return 1e-12 * (1.0 + x_norm)


def project(cone, x):
    """Metric projection of x onto the cone.

    Returns a ProjectionOutcome; face_dim is filled in for polyhedral
    variants (orthant, subspace, trivial, generators, and products of
    those) and left as None otherwise.
    """
    x = np.asarray(x, dtype=float)
    d = ambient_dim(cone)
    if x.shape != (d,):
        raise DimensionMismatchError(f"point has shape {x.shape}, cone lives in R^{d}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point contains non-finite coordinates")
    proj, fd = _project_vector(cone, x)
    resid = x - proj
    return ProjectionOutcome(
        projection=proj,
        residual=resid,
        sq_norm_proj=float(proj @ proj),
        sq_norm_residual=float(resid @ resid),
        face_dim=fd,
    )


def _project_vector(cone, x):
    if isinstance(cone, Subspace):
        proj = np.zeros_like(x)
        proj[:cone.dim] = x[:cone.dim]
        return proj, cone.dim
    if isinstance(cone, Orthant):
        proj = np.maximum(x, 0.0)
        nx = math.sqrt(float(x @ x))
        return proj, int(np.count_nonzero(proj > _zero_threshold(nx)))
    if isinstance(cone, Trivial):
        return np.zeros_like(x), 0
    if isinstance(cone, Circular):
        return _project_circular(cone, x), None
    if isinstance(cone, Psd):
        s = vec_to_sym(x, cone.n)
        s = 0.5 * (s + s.T)
        vals, vecs = np.linalg.eigh(s)
        pos = np.maximum(vals, 0.0)
        proj = (vecs * pos) @ vecs.T
        return sym_to_vec(proj), None
    if isinstance(cone, Generators):
        proj, fd = _project_generators(cone, x[None])
        return proj[0], int(fd[0])
    if isinstance(cone, Product):
        dl = ambient_dim(cone.left)
        pl, fl = _project_vector(cone.left, x[:dl])
        pr, fr = _project_vector(cone.right, x[dl:])
        fd = fl + fr if (fl is not None and fr is not None) else None
        return np.concatenate([pl, pr]), fd
    if isinstance(cone, Polar):
        inner_proj, _ = _project_vector(cone.inner, x)
        return x - inner_proj, None
    raise UnsupportedConeError(f"not a cone descriptor: {cone!r}")


def _project_circular(cone, x):
    ca, sa = math.cos(cone.alpha), math.sin(cone.alpha)
    x1 = x[0]
    z = x[1:]
    nrm = math.sqrt(float(x @ x))
    if x1 >= nrm * ca:
        return x.copy()
    if x1 <= -nrm * sa:
        return np.zeros_like(x)
    r = math.sqrt(float(z @ z))
    rho = x1 * ca + r * sa
    proj = np.empty_like(x)
    proj[0] = rho * ca
    proj[1:] = (rho * sa / r) * z
    return proj


def _subspace_dim(cone):
    # Trivial(d) is sampled as Subspace(0, d)
    return cone.dim if isinstance(cone, Subspace) else 0


def _sq_norms(X):
    # squared norm of each row
    return np.einsum("ij,ij->i", X, X)


def _project_generators(cone, X):
    """Projections of the rows of X onto a generator cone, and the face
    dimension of each: the number of generators it puts weight on.

    nnls_solve keeps its passive generators linearly independent, so that
    count is their rank.  A generator counts when its contribution
    tau_i * ||g_i|| to the projection clears the activity threshold,
    which makes the count independent of the generators' lengths.
    """
    g = cone.matrix
    tau = nnls_solve(g, X)
    # one vector-matrix product per row keeps each row's bits independent
    # of the block it came in
    proj = np.matmul(tau[:, None, :], g)[:, 0]
    thresh = _zero_threshold(np.sqrt(np.einsum("ij,ij->i", X, X)))
    weight = tau * np.sqrt(np.einsum("ij,ij->i", g, g))
    return proj, np.count_nonzero(weight > thresh[:, None], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# vectorized norms for the sampling hot path
# ---------------------------------------------------------------------------

def sampled_layout(cone):
    """(Gaussian columns, chi-square columns) of the sampled coordinates
    of a cone.

    A leaf whose norms depend on a Gaussian point only through a few
    statistics is sampled as those statistics, not as its d coordinates:

    - Circular(d, alpha) through x_1 and ||z||^2 ~ chi-square(d - 1),
      z = x_2..d: one Gaussian column and one chi-square column;
    - Orthant(d) through its face dimension K ~ Binomial(d, 1/2) and, given
      K = k, s ~ chi-square(k) and t ~ chi-square(d - k), independent (the
      master Steiner formula of McCoy and Tropp): one Gaussian column, a
      normal x that stands for K = searchsorted(z, x), z the leaf's
      special.binomial_normal_thresholds, and two chi-square columns;
    - Subspace(k, d) through s ~ chi-square(k) and t ~ chi-square(d - k),
      and Trivial(d) as Subspace(0, d): two chi-square columns.

    Psd and generator leaves keep their full Gaussian rows.  Columns list
    the leaves from left to right.
    """
    if isinstance(cone, Orthant):
        return 1, 2
    if isinstance(cone, Circular):
        return 1, 1
    if isinstance(cone, (Subspace, Trivial)):
        return 0, 2
    if isinstance(cone, Product):
        wl, cl = sampled_layout(cone.left)
        wr, cr = sampled_layout(cone.right)
        return wl + wr, cl + cr
    if isinstance(cone, Polar):
        return sampled_layout(cone.inner)
    return ambient_dim(cone), 0


def _orthant_face_dims(cone, x):
    # K = searchsorted(z, x), the number of the leaf's thresholds
    # special.binomial_normal_thresholds below a normal x: Binomial(d, 1/2)
    return np.searchsorted(binomial_normal_thresholds(cone.d), x)


def chi_square_dofs(cone, X):
    """Degrees of freedom of the chi-square columns of the rows whose
    sampled Gaussian columns are X, as a float array of shape (B, columns).

    An orthant leaf's columns are K and d - K, K the face dimension its
    normal x stands for; a circular leaf's column is d - 1, and a
    subspace's are k and d - k.
    """
    dofs = np.empty((X.shape[0], sampled_layout(cone)[1]))
    _fill_chi_square_dofs(cone, X, dofs)
    return dofs


def _fill_chi_square_dofs(cone, X, dofs):
    if isinstance(cone, Orthant):
        k = _orthant_face_dims(cone, X[:, 0])
        dofs[:, 0] = k
        dofs[:, 1] = cone.d - k
    elif isinstance(cone, Circular):
        dofs[:, 0] = cone.d - 1
    elif isinstance(cone, (Subspace, Trivial)):
        k = _subspace_dim(cone)
        dofs[:, 0] = k
        dofs[:, 1] = ambient_dim(cone) - k
    elif isinstance(cone, Product):
        wl, cl = sampled_layout(cone.left)
        _fill_chi_square_dofs(cone.left, X[:, :wl], dofs[:, :cl])
        _fill_chi_square_dofs(cone.right, X[:, wl:], dofs[:, cl:])
    elif isinstance(cone, Polar):
        _fill_chi_square_dofs(cone.inner, X, dofs)


def norms_block(cone, X, Z=None):
    """Squared projection / residual norms for a block of points.

    X has shape (B, d) and holds full rows.  Given Z, of shape (B, L), it
    holds the sampled coordinates of sampled_layout(cone) instead, as
    map_chunks draws them: X the Gaussian columns and Z the chi-square
    columns.  Full rows are reduced to that form first, so each cone has
    one projection formula: a circular leaf's on (x_1, ||z||^2), an
    orthant's on (x, ||x_+||^2, ||x_-||^2), with x the threshold z_K at
    the top of the bin of its face dimension K (z_d = inf), and a
    subspace's on (||x_1..k||^2, ||x_k+1..d||^2).

    Returns (s, t, face_dims) where s[i] is ||proj_C(x_i)||^2, t[i] =
    ||x_i||^2 - s[i] is the squared distance to the cone, and face_dims
    is an int array or None when the variant has no face structure.
    Matches project() sample by sample.  A generator cone solves the
    whole block with one nnls_solve call and counts each row's active
    generators as its face dimension (see _project_generators); every row
    gets the bits it would get alone, whatever block it comes in.
    """
    X = np.asarray(X, dtype=float)
    if Z is None:
        if X.ndim != 2 or X.shape[1] != ambient_dim(cone):
            raise DimensionMismatchError(f"block shape {X.shape} does not fit R^{ambient_dim(cone)}")
        X, Z = _sampled_coordinates(cone, X)
    else:
        width, columns = sampled_layout(cone)
        Z = np.asarray(Z, dtype=float)
        if X.ndim != 2 or X.shape[1] != width or Z.shape != (X.shape[0], columns):
            raise DimensionMismatchError(
                f"blocks of shape {X.shape} and {Z.shape} do not fit {width} Gaussian "
                f"and {columns} chi-square columns")
    return _norms_block(cone, X, Z)


def _sampled_coordinates(cone, X):
    # full rows -> (sampled Gaussian columns, chi-square columns)
    if isinstance(cone, Circular):
        return X[:, :1], _sq_norms(X[:, 1:])[:, None]
    if isinstance(cone, Orthant):
        # one temporary holds the positive, then the negative part
        part = np.maximum(X, 0.0)
        s = _sq_norms(part)
        np.minimum(X, 0.0, out=part)
        t = _sq_norms(part)
        thresh = _zero_threshold(np.sqrt(s + t))[:, None]
        # thresh > 0, so x > thresh exactly where max(x, 0) > thresh
        k = np.count_nonzero(X > thresh, axis=1)
        x = np.append(binomial_normal_thresholds(cone.d), np.inf)[k]
        return x[:, None], np.stack([s, t], axis=1)
    if isinstance(cone, (Subspace, Trivial)):
        k = _subspace_dim(cone)
        return X[:, :0], np.stack([_sq_norms(X[:, :k]), _sq_norms(X[:, k:])], axis=1)
    if isinstance(cone, Product):
        dl = ambient_dim(cone.left)
        xl, zl = _sampled_coordinates(cone.left, X[:, :dl])
        xr, zr = _sampled_coordinates(cone.right, X[:, dl:])
        return np.hstack([xl, xr]), np.hstack([zl, zr])
    if isinstance(cone, Polar):
        return _sampled_coordinates(cone.inner, X)
    return X, np.empty((X.shape[0], 0))


def _norms_block(cone, X, Z):
    if isinstance(cone, (Subspace, Trivial)):
        return Z[:, 0], Z[:, 1], np.full(X.shape[0], _subspace_dim(cone), dtype=np.int64)
    if isinstance(cone, Orthant):
        return Z[:, 0], Z[:, 1], _orthant_face_dims(cone, X[:, 0])
    if isinstance(cone, Circular):
        # from x_1 and r^2 = ||z||^2 alone: between the cone and its polar,
        # x projects onto the boundary ray of the plane of e_1 and x, along
        # which it has length rho = x_1 cos(alpha) + r sin(alpha)
        ca, sa = math.cos(cone.alpha), math.sin(cone.alpha)
        x1, r2 = X[:, 0], Z[:, 0]
        sq = x1 * x1 + r2
        nrm = np.sqrt(sq)
        rho = x1 * ca + np.sqrt(r2) * sa
        s = np.where(x1 >= nrm * ca, sq, np.where(x1 <= -nrm * sa, 0.0, rho * rho))
        return s, sq - s, None
    if isinstance(cone, Psd):
        mats = _vec_to_sym_block(X, cone.n)
        vals = np.linalg.eigvalsh(mats)
        pos = np.maximum(vals, 0.0)
        neg = vals - pos
        return np.einsum("ij,ij->i", pos, pos), np.einsum("ij,ij->i", neg, neg), None
    if isinstance(cone, Generators):
        proj, fd = _project_generators(cone, X)
        resid = X - proj
        return np.einsum("ij,ij->i", proj, proj), np.einsum("ij,ij->i", resid, resid), fd
    if isinstance(cone, Product):
        wl, cl = sampled_layout(cone.left)
        sl, tl, fl = _norms_block(cone.left, X[:, :wl], Z[:, :cl])
        sr, tr, fr = _norms_block(cone.right, X[:, wl:], Z[:, cl:])
        fd = fl + fr if (fl is not None and fr is not None) else None
        return sl + sr, tl + tr, fd
    if isinstance(cone, Polar):
        s, t, _ = _norms_block(cone.inner, X, Z)
        return t, s, None
    raise UnsupportedConeError(f"not a cone descriptor: {cone!r}")


# ---------------------------------------------------------------------------
# generator matrices from disk
# ---------------------------------------------------------------------------

def load_generators(path):
    """Read a generator matrix from CSV: one generator per row, no header.

    A path that cannot be read (missing, a directory, no permission)
    raises ConeSpecError naming it.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise ConeSpecError(f"{path}: cannot read generator file: {e.strerror or e}") from None
    rows = []
    width = None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ConeSpecError(
                    f"{path}: row {lineno} has {len(cells)} columns, expected {width}")
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ConeSpecError(
                        f"{path}: row {lineno}, column {col}: not a number: {cell.strip()!r}") from None
            rows.append(parsed)
    if not rows:
        raise ConeSpecError(f"{path}: no generator rows found")
    return Generators(np.array(rows), source=str(path))


# ---------------------------------------------------------------------------
# cone descriptions
# ---------------------------------------------------------------------------
#
# Whitespace-insensitive grammar; angles are in radians, and "pi/6"-style
# fractions are allowed in the angle token:
#
#     cone := orthant:D | subspace:K:D | circ:D:ALPHA | soc:D | psd:N
#           | trivial:D | gens:PATH | polar(cone) | prod(cone, cone)

_WORD = re.compile(r"[a-z-]+")
_PI_FORM = re.compile(r"^(\d+(?:\.\d*)?)?pi(?:/(\d+(?:\.\d*)?))?$", re.IGNORECASE)


class _ConeParser:
    """Recursive-descent parser for the cone grammar above."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, msg):
        raise ConeSpecError(f"cone spec error at byte {self.pos}: {msg}")

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def token(self):
        self.ws()
        start = self.pos
        while (self.pos < len(self.text)
               and not self.text[self.pos].isspace()
               and self.text[self.pos] not in ",():"):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a value")
        return self.text[start:self.pos]

    def integer(self):
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.fail(f"expected an integer, got {tok!r}")

    def angle(self):
        tok = self.token()
        m = _PI_FORM.match(tok)
        if m:
            num = float(m.group(1)) if m.group(1) else 1.0
            den = float(m.group(2)) if m.group(2) else 1.0
            return num * math.pi / den
        try:
            return float(tok)
        except ValueError:
            self.fail(f"expected an angle in radians or a pi fraction, got {tok!r}")

    def cone(self):
        self.ws()
        start = self.pos
        m = _WORD.match(self.text, self.pos)
        if not m:
            self.fail("expected a cone keyword")
        head = m.group(0)
        self.pos = m.end()
        try:
            if head == "polar":
                self.expect("(")
                inner = self.cone()
                self.expect(")")
                return Polar(inner)
            if head == "prod":
                self.expect("(")
                left = self.cone()
                self.expect(",")
                right = self.cone()
                self.expect(")")
                return Product(left, right)
            self.expect(":")
            if head == "orthant":
                return Orthant(self.integer())
            if head == "subspace":
                k = self.integer()
                self.expect(":")
                return Subspace(k, self.integer())
            if head == "circ":
                d = self.integer()
                self.expect(":")
                return Circular(d, self.angle())
            if head == "soc":
                return second_order_cone(self.integer())
            if head == "psd":
                return Psd(self.integer())
            if head == "trivial":
                return Trivial(self.integer())
            if head == "gens":
                return load_generators(self.token())
        except ConeSpecError as e:
            if "at byte" in str(e):
                raise
            # constructor-level complaint: annotate with the position
            raise ConeSpecError(f"cone spec error at byte {start}: {e}") from None
        self.pos = start
        self.fail(f"unknown cone keyword {head!r}")


def parse_cone_spec(text):
    """Parse a cone description; raises ConeSpecError with a byte offset."""
    if not isinstance(text, str) or not text.strip():
        raise ConeSpecError("cone spec error at byte 0: empty cone description")
    p = _ConeParser(text)
    cone = p.cone()
    p.ws()
    if p.pos != len(p.text):
        p.fail(f"trailing input {p.text[p.pos:]!r}")
    return cone


def cone_to_spec(cone):
    """Print a cone descriptor so that parse_cone_spec round-trips it."""
    if isinstance(cone, Orthant):
        return f"orthant:{cone.d}"
    if isinstance(cone, Subspace):
        return f"subspace:{cone.dim}:{cone.ambient}"
    if isinstance(cone, Circular):
        return "circ:%d:%.17g" % (cone.d, cone.alpha)
    if isinstance(cone, Psd):
        return f"psd:{cone.n}"
    if isinstance(cone, Trivial):
        return f"trivial:{cone.d}"
    if isinstance(cone, Generators):
        if cone.source:
            return f"gens:{cone.source}"
        raise UnsupportedConeError("generator cone was not loaded from a file")
    if isinstance(cone, Product):
        return f"prod({cone_to_spec(cone.left)},{cone_to_spec(cone.right)})"
    if isinstance(cone, Polar):
        return f"polar({cone_to_spec(cone.inner)})"
    raise UnsupportedConeError(f"cannot print a {type(cone).__name__}")
