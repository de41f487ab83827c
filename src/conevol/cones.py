"""Cone descriptors and the squared norms of their projections.

A cone is described by a small immutable dataclass; composite cones are
built with Product and Polar wrappers.  norms_block gives, for a block of
Gaussian points drawn in the sampled coordinates of sampled_layout, the
squared norms s = ||proj_C(x)||^2 and t = dist^2(x, C) of each point.
The residual x - proj_C(x) is the projection onto the polar cone and is
orthogonal to proj_C(x), so the polar cone's pair is (t, s): the pair
(s, t) is all the general Steiner formula of McCoy and Tropp needs.
face_dims gives, for polyhedral cones, the dimension of the face each
projection lies in, a separate statistic, from the Gaussian coordinates
alone.

Everything per family lives in one leaf table, _LEAVES, with one entry
per leaf type: its spec grammar (keyword, field readers, constructor),
which parse_cone_spec reads, its closed-form profile, which
profiles.exact_profile folds over a cone's leaves, and its sampled
coordinates, face dimensions and norms.  _fold is the one recursion
through Product and Polar.
"""

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConeSpecError, DimensionMismatchError, UnsupportedConeError
from .linalg import _STACK_VALUES, nnls_solve
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
    """Positive semidefinite n x n matrices.  A point is a symmetric
    matrix in isometric vector coordinates: its upper triangle, row by
    row, with the off-diagonal entries times sqrt(2), so that the
    Euclidean norm is the Frobenius norm and ambient_dim is n(n+1)/2."""
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
    return _fold(cone, lambda kind, leaf: kind.ambient(leaf), lambda a, b: a + b,
                 lambda inner: inner)


def supports_face_dim(cone):
    """True when per-sample face dimensions are defined (polyhedral variants)."""
    return _fold(cone, lambda kind, leaf: kind.faces is not None, lambda a, b: a and b,
                 lambda inner: False)


# ---------------------------------------------------------------------------
# generator matrices from disk
# ---------------------------------------------------------------------------

def load_generators(path):
    """Read a generator matrix from CSV: one generator per row, no header.

    A path that cannot be read (missing, a directory, no permission, an
    embedded NUL byte) raises ConeSpecError naming it.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as e:   # ValueError: a NUL byte in the path
        reason = getattr(e, "strerror", None) or e
        raise ConeSpecError(f"{path}: cannot read generator file: {reason}") from None
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
# leaf types: grammar, closed forms, and vectorized norms for the sampling
# hot path
# ---------------------------------------------------------------------------

# One leaf type: ambient and spec serve the functions of those names (spec
# cone_to_spec); grammar, (keyword, field readers, constructor), serves
# parse_cone_spec, and profile, the closed-form profile v_0..v_d of a leaf
# or None where it has none, profiles.exact_profile; columns serves its
# sampled coordinates in sampled_layout; faces(cone, x), the face
# dimensions of the rows x of its Gaussian columns, or None for a leaf
# without faces, serves face_dims and supports_face_dim; dofs(cone, x, out)
# writes the degrees of freedom of its chi-square columns to out for
# chi_square_dofs; and norms(cone, x, z), its (s, t) from its Gaussian
# columns x and chi-square columns z, serves norms_block.  Only a generator
# leaf projects to find its faces.
_Leaf = namedtuple("_Leaf", "ambient faces spec grammar profile columns dofs norms")

_PI_FORM = re.compile(r"^(\d+(?:\.\d*)?)?pi(?:/(\d+(?:\.\d*)?))?$", re.IGNORECASE)


def _angle(token):
    # radians, or a pi fraction: pi/6, 0.5pi, 2pi/8
    m = _PI_FORM.match(token)
    if not m:
        return float(token)
    num, den = (float(g) if g else 1.0 for g in m.groups())
    return num * math.pi / den


# field readers: (read, what the token must be); a reader fails with
# ValueError, or ZeroDivisionError for a pi fraction over 0
_INTEGER = (int, "an integer")
_ANGLE = (_angle, "an angle in radians or a pi fraction")
_PATH = (str, "a path")


def _subspace_profile(cone):
    v = np.zeros(ambient_dim(cone) + 1)
    v[getattr(cone, "dim", 0)] = 1.0
    return v


def _psd_profile(cone):
    """Psd(n) for n <= 3, None above.  Psd(1) is the ray R_+.  Psd(2) is
    circ:3:pi/4 up to an isometry: (1 - sin a, cos a, sin a, 1 - cos a) / 2
    at a = pi/4.  Psd(3) is (v0, v1, 1/4 - v0, 1 - 1/sqrt 2, 1/4 - v0, v1,
    v0), with v0 = (pi - 2 sqrt 2) / (4 pi) and v1 = (sqrt 2 - 1) / 4,
    found by integrating theta's moments over the direction of the GOE
    eigenvalue vector, whose density on the sphere is proportional to
    |Vandermonde|.
    """
    r = math.sqrt(0.5)
    v0, v1 = (math.pi - 4.0 * r) / (4.0 * math.pi), (2.0 * r - 1.0) / 4.0
    return {1: [0.5, 0.5],
            2: [0.5 * (1.0 - r), 0.5 * r, 0.5 * r, 0.5 * (1.0 - r)],
            3: [v0, v1, 0.25 - v0, 1.0 - r, 0.25 - v0, v1, v0]}.get(cone.n)


def _orthant_faces(cone, x):
    # K = searchsorted(z, x), the number of the leaf's thresholds
    # special.binomial_normal_thresholds below its normal x: Binomial(d, 1/2)
    return np.searchsorted(binomial_normal_thresholds(cone.d), x[:, 0])


def _split_dofs(cone, x, out):
    # an orthant's or subspace's s ~ chi-square(k) and t ~ chi-square(d - k),
    # k its face dimension
    k = _LEAVES[type(cone)].faces(cone, x)
    out[:, 0], out[:, 1] = k, ambient_dim(cone) - k


def _split_norms(cone, x, z):
    return z[:, 0], z[:, 1]


def _circular_norms(cone, x, z):
    # from x_1 and r^2 = ||z||^2 alone: between the cone and its polar,
    # x projects onto the boundary ray of the plane of e_1 and x, along
    # which it has length rho = x_1 cos(alpha) + r sin(alpha)
    ca, sa = math.cos(cone.alpha), math.sin(cone.alpha)
    x1, r2 = x[:, 0], z[:, 0]
    sq = x1 * x1 + r2
    nrm = np.sqrt(sq)
    rho = x1 * ca + np.sqrt(r2) * sa
    s = np.where(x1 >= nrm * ca, sq, np.where(x1 <= -nrm * sa, 0.0, rho * rho))
    return s, sq - s


def _matrix_slices(count, n):
    # slices of count rows, each with one reused zeroed (rows, n, n) stack of
    # about _STACK_VALUES entries: eigvalsh works matrix by matrix, so
    # slices change no bits, and every slice writes the same entries
    step = max(1, min(count, _STACK_VALUES // (n * n)))
    mats = np.zeros((step, n, n))
    for r0 in range(0, count, step):
        rows = slice(r0, min(r0 + step, count))
        yield rows, mats[:rows.stop - r0]


def _psd_norms(cone, x, z):
    # s and t: squared norms of the positive and negative eigenvalues of the
    # tridiagonal matrices with diagonal x, subdiagonal sqrt(z / 2) (lower only)
    n = cone.n
    s, t = np.empty(x.shape[0]), np.empty(x.shape[0])
    for rows, mats in _matrix_slices(x.shape[0], n):
        flat = mats.reshape(-1, n * n)
        flat[:, ::n + 1] = x[rows]
        flat[:, n::n + 1] = np.sqrt(z[rows] / 2)
        vals = np.linalg.eigvalsh(mats)
        pos = np.maximum(vals, 0.0)
        neg = vals - pos
        s[rows] = np.einsum("ij,ij->i", pos, pos)
        t[rows] = np.einsum("ij,ij->i", neg, neg)
    return s, t


def _generator_faces(cone, x):
    """The face dimension of the projection of each row of x onto a
    generator cone: the number of generators it puts weight on.

    The passive generators of nnls_solve are linearly independent, so
    that count is their rank: block principal pivoting runs only on
    generator sets that well_conditioned_rows certifies independent, and
    Lawson-Hanson's dual tolerance keeps a dependent generator out of the
    passive set of the others.  A generator counts when its contribution
    tau_i * ||g_i|| to the projection exceeds 1e-12 * (1 + ||x||), which
    makes the count independent of the generators' lengths.
    """
    g = cone.matrix
    weight = nnls_solve(g, x) * np.sqrt(np.einsum("ij,ij->i", g, g))
    thresh = 1e-12 * (1.0 + np.sqrt(np.einsum("ij,ij->i", x, x)))
    return np.count_nonzero(weight > thresh[:, None], axis=1).astype(np.int64)


def _generator_norms(cone, x, z):
    # one vector-matrix product per row keeps each row's bits independent
    # of the block it came in
    proj = np.matmul(nnls_solve(cone.matrix, x)[:, None, :], cone.matrix)[:, 0]
    resid = x - proj
    return np.einsum("ij,ij->i", proj, proj), np.einsum("ij,ij->i", resid, resid)


def _generator_spec(cone):
    if not cone.source:
        raise UnsupportedConeError("generator cone was not loaded from a file")
    return f"gens:{cone.source}"


_SUBSPACE = _Leaf(
    ambient=lambda cone: cone.ambient, faces=lambda cone, x: getattr(cone, "dim", 0),
    spec=lambda cone: f"subspace:{cone.dim}:{cone.ambient}",
    grammar=("subspace", (_INTEGER, _INTEGER), Subspace), profile=_subspace_profile,
    columns=lambda cone: (0, 2), dofs=_split_dofs, norms=_split_norms)

_LEAVES = {
    Subspace: _SUBSPACE,
    # Trivial(d) is Subspace(0, d): it has no dim, read as 0
    Trivial: _SUBSPACE._replace(ambient=lambda cone: cone.d,
                                spec=lambda cone: f"trivial:{cone.d}",
                                grammar=("trivial", (_INTEGER,), Trivial)),
    Orthant: _Leaf(
        ambient=lambda cone: cone.d, faces=_orthant_faces, spec=lambda cone: f"orthant:{cone.d}",
        grammar=("orthant", (_INTEGER,), Orthant),
        profile=lambda cone: [math.comb(cone.d, k) / 2.0 ** cone.d for k in range(cone.d + 1)],
        columns=lambda cone: (1, 2), dofs=_split_dofs, norms=_split_norms),
    Circular: _Leaf(
        ambient=lambda cone: cone.d, faces=None,
        spec=lambda cone: "circ:%d:%.17g" % (cone.d, cone.alpha),
        grammar=("circ", (_INTEGER, _ANGLE), Circular), profile=None,
        columns=lambda cone: (1, 1), dofs=lambda cone, x, out: out.fill(cone.d - 1),
        norms=_circular_norms),
    Psd: _Leaf(
        ambient=lambda cone: cone.n * (cone.n + 1) // 2, faces=None,
        spec=lambda cone: f"psd:{cone.n}", grammar=("psd", (_INTEGER,), Psd),
        profile=_psd_profile, columns=lambda cone: (cone.n, cone.n - 1),
        dofs=lambda cone, x, out: np.copyto(out, np.arange(cone.n - 1, 0, -1)),
        norms=_psd_norms),
    Generators: _Leaf(
        ambient=lambda cone: cone.matrix.shape[1], faces=_generator_faces, spec=_generator_spec,
        grammar=("gens", (_PATH,), load_generators), profile=None,
        columns=lambda cone: (cone.matrix.shape[1], 0),
        dofs=lambda cone, x, out: None, norms=_generator_norms),
}

# keyword: (field readers, constructor); soc:D is circ:D:pi/4
_GRAMMAR = {kind.grammar[0]: kind.grammar[1:] for kind in _LEAVES.values()}
_GRAMMAR["soc"] = ((_INTEGER,), second_order_cone)


def _fold(cone, leaf, product, polar):
    """The one Product/Polar recursion: leaf(kind, cone) on each leaf of a
    cone, from left to right, kind its _Leaf, combined by
    product(left, right) and polar(inner)."""
    if isinstance(cone, Product):
        left = _fold(cone.left, leaf, product, polar)
        return product(left, _fold(cone.right, leaf, product, polar))
    if isinstance(cone, Polar):
        return polar(_fold(cone.inner, leaf, product, polar))
    kind = _LEAVES.get(type(cone))
    if kind is None:
        raise UnsupportedConeError(f"not a cone descriptor: {cone!r}")
    return leaf(kind, cone)


def _leaves(cone):
    # (leaf, kind, Gaussian columns, chi-square columns) of each leaf of a
    # cone, from left to right
    placed, g, c = [], 0, 0
    for kind, leaf in _fold(cone, lambda kind, leaf: [(kind, leaf)], list.__add__, list):
        width, columns = kind.columns(leaf)
        placed.append((leaf, kind, slice(g, g + width), slice(c, c + columns)))
        g, c = g + width, c + columns
    return placed


def sampled_layout(cone):
    """(Gaussian columns, chi-square columns) of the sampled coordinates
    of a cone, its leaves listed from left to right.  A leaf is sampled as
    the few statistics its norms depend on, not as its d coordinates:

    - Circular(d, alpha): x_1 and ||z||^2 ~ chi-square(d - 1), z = x_2..d;
    - Orthant(d): its face dimension K ~ Binomial(d, 1/2), then given K = k
      s ~ chi-square(k) and t ~ chi-square(d - k), independent (the master
      Steiner formula of McCoy and Tropp): one Gaussian column, a normal x
      that stands for K = searchsorted(z, x), z the leaf's
      special.binomial_normal_thresholds, and two chi-square columns;
    - Subspace(k, d), and Trivial(d) as Subspace(0, d): s ~ chi-square(k)
      and t ~ chi-square(d - k), two chi-square columns;
    - Psd(n): its eigenvalues follow the GOE law, as do those of the
      symmetric tridiagonal matrix with N(0, 1) diagonal and subdiagonal
      sqrt(chi-square(n - i) / 2), i = 1..n-1 (Dumitriu and Edelman,
      "Matrix models for beta ensembles", J. Math. Phys. 43, 2002): n
      Gaussian columns (the diagonal) and n - 1 chi-square columns with
      degrees of freedom n - 1, ..., 1.

    Generator leaves keep their full Gaussian rows.
    """
    _, _, width, columns = _leaves(cone)[-1]
    return width.stop, columns.stop


def chi_square_dofs(cone, X):
    """The degrees of freedom, of shape (B, columns), of the chi-square
    columns for sampled Gaussian columns X: an orthant leaf's K and d - K,
    a subspace's k and d - k, a circular leaf's d - 1 and a psd leaf's
    n - 1, ..., 1."""
    leaves = _leaves(cone)
    dofs = np.empty((X.shape[0], leaves[-1][3].stop))
    for leaf, kind, g, c in leaves:
        kind.dofs(leaf, X[:, g], dofs[:, c])
    return dofs


def face_dims(cone, X):
    """The dimension of the face of a cone of supports_face_dim that the
    projection of each point lies in, from its sampled Gaussian columns X
    alone: the sum over the leaves of an orthant's K, a subspace's or
    trivial cone's k and a generator leaf's count of weighted generators,
    for which it alone projects (one nnls_solve call per block).  Any other
    cone raises UnsupportedConeError."""
    if not supports_face_dim(cone):
        raise UnsupportedConeError(f"{type(cone).__name__} has no face dimensions")
    return sum((kind.faces(leaf, X[:, g]) for leaf, kind, g, _ in _leaves(cone)),
               np.zeros(X.shape[0], dtype=np.int64))


def norms_block(cone, X, Z=None):
    """Squared projection / residual norms for a block of points.

    The points are given in the sampled coordinates of
    sampled_layout(cone), as map_chunks draws them: X, of shape (B, W),
    the Gaussian columns and Z, of shape (B, L), the chi-square columns,
    which a cone without chi-square columns (generator leaves, Psd(1)) may
    leave out.

    Returns (s, t) where s[i] is ||proj_C(x_i)||^2 and t[i] = ||x_i||^2 -
    s[i] is the squared distance to the cone.  A generator cone solves the
    whole block with one nnls_solve call; every row gets the bits it would
    get alone, whatever block it comes in.
    """
    X = np.asarray(X, dtype=float)
    Z = np.empty(X.shape[:1] + (0,)) if Z is None else np.asarray(Z, dtype=float)
    leaves = _leaves(cone)
    width, columns = (part.stop for part in leaves[-1][2:])
    if X.ndim != 2 or X.shape[1] != width or Z.shape != (X.shape[0], columns):
        raise DimensionMismatchError(
            f"blocks of shape {X.shape} and {Z.shape} do not fit {width} Gaussian "
            f"and {columns} chi-square columns")
    parts = iter([kind.norms(leaf, X[:, g], Z[:, c]) for leaf, kind, g, c in leaves])
    return _fold(cone, lambda kind, leaf: next(parts),
                 lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda inner: inner[::-1])


# ---------------------------------------------------------------------------
# cone descriptions
# ---------------------------------------------------------------------------
#
# Whitespace-insensitive grammar; angles are in radians, and "pi/6"-style
# fractions are allowed in the angle token:
#
#     cone := orthant:D | subspace:K:D | circ:D:ALPHA | soc:D | psd:N
#           | trivial:D | gens:PATH | polar(cone) | prod(cone, cone)
#
# Each leaf keyword, with its fields and constructor, is the grammar of its
# _LEAVES entry.

_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"[a-z-]+")
_TOKEN = re.compile(r"[^\s,():]+")


def parse_cone_spec(text):
    """Parse a cone description; raises ConeSpecError with a byte offset:
    that of a leaf's keyword when its constructor rejects the fields, else
    the byte the parser stopped at."""
    if not isinstance(text, str) or not text.strip():
        raise ConeSpecError("cone spec error at byte 0: empty cone description")
    pos = 0

    def fail(msg, at=None):
        raise ConeSpecError(f"cone spec error at byte {pos if at is None else at}: {msg}") from None

    def take(pattern, what):
        # past whitespace, then past the match of pattern, which must come next
        nonlocal pos
        pos = _SPACE.match(text, pos).end()
        m = pattern.match(text, pos)
        if not m:
            fail(f"expected {what}")
        pos = m.end()
        return m.group()

    def expect(ch):
        take(re.compile(re.escape(ch)), repr(ch))

    def cone():
        head = take(_WORD, "a cone keyword")
        start = pos - len(head)
        if head == "polar":
            expect("(")
            inner = cone()
            expect(")")
            return Polar(inner)
        if head == "prod":
            expect("(")
            left = cone()
            expect(",")
            right = cone()
            expect(")")
            return Product(left, right)
        expect(":")
        if head not in _GRAMMAR:
            fail(f"unknown cone keyword {head!r}", start)
        readers, build = _GRAMMAR[head]
        fields = []
        for read, what in readers:
            if fields:
                expect(":")
            tok = take(_TOKEN, "a value")
            try:
                fields.append(read(tok))
            except (ValueError, ZeroDivisionError):
                fail(f"expected {what}, got {tok!r}")
        try:
            return build(*fields)
        except ConeSpecError as e:
            fail(str(e), start)

    parsed = cone()
    pos = _SPACE.match(text, pos).end()
    if pos != len(text):
        fail(f"trailing input {text[pos:]!r}")
    return parsed


def cone_to_spec(cone):
    """Print a cone descriptor so that parse_cone_spec round-trips it."""
    return _fold(cone, lambda kind, leaf: kind.spec(leaf), "prod({},{})".format, "polar({})".format)
