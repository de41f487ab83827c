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
from .linalg import masked_ranks, nnls_solve, well_conditioned_rows

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
    left: "Cone"
    right: "Cone"


@dataclass(frozen=True)
class Polar:
    """Polar cone {y : <x, y> <= 0 for all x in C}."""
    inner: "Cone"


Cone = (Subspace, Orthant, Circular, Psd, Trivial, Generators, Product, Polar)


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
    # (B, n(n+1)/2) -> (B, n, n)
    iu, ju = _triu_indices(n)
    off = iu != ju
    vals = x.copy()
    vals[:, off] /= _SQRT2
    s = np.zeros((x.shape[0], n, n))
    s[:, iu, ju] = vals
    s[:, ju, iu] = vals
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


# by Cauchy interlacing, every row subset of a generator matrix whose
# singular values lie within this ratio keeps a ratio above masked_ranks'
# 1e-10 rank cutoff, with room for rounding in the SVD
_INDEPENDENT_RATIO = 1e-8


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


def _project_generators(cone, X):
    """Projections of the rows of X onto a generator cone, and the face
    dimension of each: the rank of the generators it puts weight on.

    When the generator matrix passes well_conditioned_rows at
    _INDEPENDENT_RATIO, every set of its rows is linearly independent with
    singular values above masked_ranks' cutoff, so the rank is the number
    of active generators and is counted without an SVD; the counts are the
    integers masked_ranks would return.  Other cones, including every one
    with more generators than dimensions, keep masked_ranks.
    """
    g = cone.matrix
    tau = nnls_solve(g, X)
    # one vector-matrix product per row keeps each row's bits independent
    # of the block it came in
    proj = np.matmul(tau[:, None, :], g)[:, 0]
    thresh = _zero_threshold(np.sqrt(np.einsum("ij,ij->i", X, X)))
    active = tau > thresh[:, None]
    if well_conditioned_rows(g, _INDEPENDENT_RATIO):
        return proj, np.count_nonzero(active, axis=1).astype(np.int64)
    return proj, masked_ranks(g, active)


# ---------------------------------------------------------------------------
# vectorized norms for the sampling hot path
# ---------------------------------------------------------------------------

def norms_block(cone, X):
    """Squared projection / residual norms for a block of points.

    X has shape (B, d).  Returns (s, t, face_dims) where s[i] is
    ||proj_C(x_i)||^2, t[i] = ||x_i||^2 - s[i] is the squared distance to
    the cone, and face_dims is an int array or None when the variant has
    no face structure.  Matches project() sample by sample.  A generator
    cone solves the whole block with one nnls_solve call and takes its
    face dimensions from one masked_ranks call, or from the active-set
    sizes when its generators are certified independent (see
    _project_generators); every row gets the bits it would get alone,
    whatever block it comes in.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ambient_dim(cone):
        raise DimensionMismatchError(f"block shape {X.shape} does not fit R^{ambient_dim(cone)}")
    return _norms_block(cone, X)


def _norms_block(cone, X):
    if isinstance(cone, Subspace):
        k = cone.dim
        s = np.einsum("ij,ij->i", X[:, :k], X[:, :k])
        t = np.einsum("ij,ij->i", X[:, k:], X[:, k:])
        return s, t, np.full(X.shape[0], k, dtype=np.int64)
    if isinstance(cone, Orthant):
        # one temporary holds the positive, then the negative part
        part = np.maximum(X, 0.0)
        s = np.einsum("ij,ij->i", part, part)
        np.minimum(X, 0.0, out=part)
        t = np.einsum("ij,ij->i", part, part)
        thresh = _zero_threshold(np.sqrt(s + t))[:, None]
        # thresh > 0, so x > thresh exactly where max(x, 0) > thresh
        fd = np.count_nonzero(X > thresh, axis=1).astype(np.int64)
        return s, t, fd
    if isinstance(cone, Trivial):
        t = np.einsum("ij,ij->i", X, X)
        return np.zeros_like(t), t, np.zeros(X.shape[0], dtype=np.int64)
    if isinstance(cone, Circular):
        ca, sa = math.cos(cone.alpha), math.sin(cone.alpha)
        sq = np.einsum("ij,ij->i", X, X)
        nrm = np.sqrt(sq)
        x1 = X[:, 0]
        r = np.sqrt(np.maximum(sq - x1 * x1, 0.0))
        rho = x1 * ca + r * sa
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
        dl = ambient_dim(cone.left)
        sl, tl, fl = _norms_block(cone.left, X[:, :dl])
        sr, tr, fr = _norms_block(cone.right, X[:, dl:])
        fd = fl + fr if (fl is not None and fr is not None) else None
        return sl + sr, tl + tr, fd
    if isinstance(cone, Polar):
        s, t, _ = _norms_block(cone.inner, X)
        return t, s, None
    raise UnsupportedConeError(f"not a cone descriptor: {cone!r}")


# ---------------------------------------------------------------------------
# generator matrices from disk
# ---------------------------------------------------------------------------

def load_generators(path):
    """Read a generator matrix from CSV: one generator per row, no header."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
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
