# Standard libraries
import math
import tracemalloc

# External libraries
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conevol import cones
from conevol.cones import (
    Circular,
    Generators,
    Orthant,
    Polar,
    Product,
    Psd,
    Subspace,
    Trivial,
    ambient_dim,
    chi_square_dofs,
    cone_to_spec,
    load_generators,
    norms_block,
    sampled_layout,
    second_order_cone,
    supports_face_dim,
)
from conevol.exceptions import ConeSpecError, DimensionMismatchError
from conevol.linalg import nnls_solve
from nnls_oracle import active_ranks, pointed_wide_generators, reference_norms
from projection_oracle import project, sampled, sym_to_vec, vec_to_sym


def _vec(d, seed):
    return np.random.default_rng(seed).standard_normal(d)


def _cone_and_dim(label):
    return {
        "orthant": (Orthant(6), 6),
        "subspace": (Subspace(2, 5), 5),
        "circ": (Circular(4, 0.7), 4),
        "soc": (second_order_cone(5), 5),
        "psd": (Psd(3), 6),
        "trivial": (Trivial(3), 3),
        "gens": (Generators(np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5],
                                      [-0.3, 0.0, 1.0]])), 3),
        # more generators than dimensions: linearly dependent rows
        "gens-wide": (Generators(np.random.default_rng(0).standard_normal((8, 4))), 4),
        "product": (Product(Orthant(2), Circular(3, 0.5)), 5),
        "polar": (Polar(Circular(4, 0.7)), 4),
        "double-polar": (Polar(Polar(Orthant(3))), 3),
    }[label]


ALL_LABELS = sorted(
    ["orthant", "subspace", "circ", "soc", "psd", "trivial", "gens", "gens-wide",
     "product", "polar", "double-polar"]
)


# ---------------------------------------------------------------------------
# The projection oracle (tests/projection_oracle.py): invariants shared by
# every cone type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_decomposition(label, seed):
    cone, d = _cone_and_dim(label)
    assert ambient_dim(cone) == d
    x = _vec(d, 17 * seed + 5)
    p = project(cone, x)[0]
    # x splits into the projection and a residual orthogonal to it, the
    # projection of x onto the polar cone
    assert abs(float(p @ (x - p))) < 1e-9
    assert np.allclose(project(Polar(cone), x)[0], x - p, atol=1e-12)
    assert float(p @ p) + float((x - p) @ (x - p)) == pytest.approx(float(x @ x), rel=1e-10)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_projection_idempotent_and_homogeneous(label):
    cone, d = _cone_and_dim(label)
    x = _vec(d, 99)
    p = project(cone, x)[0]
    again = project(cone, p)[0]
    assert np.allclose(again, p, atol=1e-9)
    doubled = project(cone, 2.0 * x)[0]
    assert np.allclose(doubled, 2.0 * p, atol=1e-9)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_residual_is_polar_projection(label):
    # the residual x - p lies in the polar cone: <x - p, c> <= 0 for the
    # points c of the cone, here projections of other points; and the
    # polar of the polar gives p back
    cone, d = _cone_and_dim(label)
    x = _vec(d, 7)
    p = project(cone, x)[0]
    points = project(cone, np.random.default_rng(8).standard_normal((50, d)))[0]
    assert np.all(points @ (x - p) <= 1e-9)
    assert np.allclose(project(Polar(Polar(cone)), x)[0], p, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, 5, elements=st.floats(-50, 50)),
       label=st.sampled_from(["orthant", "soc", "subspace"]))
def test_projection_invariants_property(x, label):
    cone = {"orthant": Orthant(5), "soc": second_order_cone(5),
            "subspace": Subspace(3, 5)}[label]
    p = project(cone, x)[0]
    assert float(p @ (x - p)) == pytest.approx(0.0, abs=1e-7)
    # projection shrinks norms
    assert float(p @ p) <= float(x @ x) + 1e-9


# ---------------------------------------------------------------------------
# Closed-form projections per cone type
# ---------------------------------------------------------------------------

def test_orthant_projection_is_positive_part():
    p, face = project(Orthant(4), np.array([1.5, -2.0, 0.0, 3.0]))
    assert np.allclose(p, [1.5, 0.0, 0.0, 3.0])
    assert face == 2


def test_subspace_projection_zeroes_complement():
    p, face = project(Subspace(2, 4), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(p, [1.0, 2.0, 0.0, 0.0])
    assert face == 2


def test_trivial_projection_is_zero():
    p, face = project(Trivial(2), np.array([1.0, -1.0]))
    assert np.array_equal(p, [0.0, 0.0])
    assert face == 0


def _circular_grid_oracle(alpha, x, steps=200_001):
    # brute-force max of <x, u> over unit directions in the 2-D cone
    theta = np.linspace(-alpha, alpha, steps)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inner = np.maximum(dirs @ x, 0.0)
    return float(np.max(inner) ** 2)


@pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.2])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_circular_projection_against_grid_oracle(alpha, seed):
    x = _vec(2, seed)
    p = project(Circular(2, alpha), x)[0]
    assert float(p @ p) == pytest.approx(_circular_grid_oracle(alpha, x), abs=1e-6)


def test_circular_projection_interior_and_polar_points():
    cone = Circular(3, 0.5)
    inside = np.array([2.0, 0.1, 0.0])   # well inside the cone
    assert np.allclose(project(cone, inside)[0], inside)
    # deep in the polar cone: projection collapses to the apex
    anti = np.array([-5.0, 0.1, 0.1])
    assert np.allclose(project(cone, anti)[0], 0.0, atol=1e-12)


def test_circular_degenerate_angles():
    ray = Circular(3, 0.0)
    x = np.array([2.0, 1.0, -1.0])
    assert np.allclose(project(ray, x)[0], [2.0, 0.0, 0.0])
    half = Circular(3, math.pi / 2)
    # alpha = pi/2 is the halfspace x_1 >= 0
    y = np.array([-2.0, 1.0, -1.0])
    assert np.allclose(project(half, y)[0], [0.0, 1.0, -1.0])


def test_psd_projection_is_eigenvalue_clip():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((3, 3))
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    clipped = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
    assert np.allclose(project(Psd(3), sym_to_vec(s))[0], sym_to_vec(clipped), atol=1e-9)


def test_generators_of_orthant_match_closed_form():
    cone = Generators(np.eye(4))
    x = np.array([1.0, -2.0, 3.0, -0.5])
    p, face = project(cone, x)
    assert np.allclose(p, np.maximum(x, 0.0), atol=1e-12)
    assert face == 2


def test_product_projection_splits_coordinates():
    cone = Product(Orthant(2), Subspace(1, 3))
    x = np.array([1.0, -1.0, 4.0, 5.0, 6.0])
    p, face = project(cone, x)
    assert np.allclose(p, [1.0, 0.0, 4.0, 0.0, 0.0])
    assert face == 2


def test_polar_of_orthant_is_negative_orthant():
    p = project(Polar(Orthant(3)), np.array([1.0, -2.0, 0.5]))[0]
    assert np.allclose(p, [0.0, -2.0, 0.0])


# ---------------------------------------------------------------------------
# Face dimensions
# ---------------------------------------------------------------------------

def test_supports_face_dim_flags():
    assert supports_face_dim(Orthant(3))
    assert supports_face_dim(Product(Orthant(2), Subspace(1, 2)))
    assert supports_face_dim(Generators(np.eye(2)))
    assert not supports_face_dim(Circular(3, 0.4))
    assert not supports_face_dim(Psd(2))
    assert not supports_face_dim(Polar(Orthant(3)))


def test_face_dimension_counts_active_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(7)
        assert project(Orthant(7), x)[1] == int(np.sum(x > 0))


def test_face_dimension_none_for_smooth_cones():
    assert project(Circular(3, 0.4), np.array([1.0, 2.0, 0.0]))[1] is None


def _with_singular_values(sv, d, rng):
    """A len(sv) x d matrix with singular values sv, between random rotations."""
    u = np.linalg.qr(rng.standard_normal((len(sv), len(sv))))[0]
    v = np.linalg.qr(rng.standard_normal((d, len(sv))))[0]
    return (u * sv) @ v.T


def _face_dim_test_cones(seed):
    """Generator cones of every kind the face count must get right."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    d = m + int(rng.integers(0, 4))
    # independent generators: lengths over six orders of magnitude, and
    # singular values spanning just inside and just outside the Gram
    # certificate's ratio, and down to about 1e-8
    yield rng.standard_normal((m, d)) * np.logspace(-3, 3, m)[:, None]
    for ratio in (1e-2, 1e-8):
        for factor in (0.99, 1.01):
            yield _with_singular_values(np.geomspace(1.0, factor * ratio, m), d, rng)
    # more generators than dimensions
    yield np.random.default_rng(0).standard_normal((8, 4))
    yield pointed_wide_generators(24, 6, math.pi / 5, seed)
    yield rng.standard_normal((d + int(rng.integers(1, 6)), d))
    yield np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("seed", range(6))
def test_generator_face_dims_are_active_ranks(seed):
    # the face dimension is the number of active generators; the solver
    # keeps its passive generators independent, so no row ends with more
    # than d of them (on the 8x4 cone rounding once let a dependent fifth
    # into rows that already fit exactly) and the count is their rank
    rng = np.random.default_rng(100 + seed)
    for g in _face_dim_test_cones(seed):
        X = rng.standard_normal((400, g.shape[1]))
        tau = nnls_solve(g, X)
        assert np.count_nonzero(tau > 0.0, axis=1).max() <= g.shape[1]
        assert np.array_equal(norms_block(Generators(g), X)[2], active_ranks(g, X, tau))


def _rotated_orthant(lengths, seed):
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lengths),) * 2))[0]
    return q * np.asarray(lengths)[:, None]


@pytest.mark.parametrize("lengths", [(1e-12, 1.0, 1.0, 1e12), tuple(np.logspace(-12, 12, 7))])
def test_generator_face_dims_ignore_generator_lengths(lengths):
    # rescaling a generator moves neither the projection nor its face
    X = np.random.default_rng(5).standard_normal((400, len(lengths)))
    unit = norms_block(Generators(_rotated_orthant(np.ones(len(lengths)), 9)), X)[2]
    scaled = norms_block(Generators(_rotated_orthant(lengths, 9)), X)[2]
    assert np.array_equal(scaled, unit)
    assert set(unit.tolist()) >= set(range(1, len(lengths)))


# ---------------------------------------------------------------------------
# Batched norms
# ---------------------------------------------------------------------------

def _check_against_oracle(cone, rows, seed):
    # norms_block on the sampled statistics of full rows against the
    # oracle's projections of those rows, which share no code with it
    X = np.random.default_rng(seed).standard_normal((rows, ambient_dim(cone)))
    gauss, chi = sampled(cone, X)
    assert sampled_layout(cone) == (gauss.shape[1], chi.shape[1])
    s, t, faces = norms_block(cone, gauss, chi)
    p, ref_faces = project(cone, X)
    tol = 1e-12 * (1.0 + np.einsum("ij,ij->i", X, X))
    assert np.all(np.abs(s - np.einsum("ij,ij->i", p, p)) <= tol)
    assert np.all(np.abs(t - np.einsum("ij,ij->i", X - p, X - p)) <= tol)
    assert (faces is not None) == (ref_faces is not None) == supports_face_dim(cone)
    assert faces is None or np.array_equal(faces, ref_faces)
    # norms_block takes sampled rows only: full rows are the sampled rows
    # of a cone without chi-square columns, and of no other
    with pytest.raises(DimensionMismatchError):
        norms_block(cone, gauss, np.hstack([chi, X[:, :1]]))
    if chi.shape[1]:
        with pytest.raises(DimensionMismatchError):
            norms_block(cone, X)
        with pytest.raises(DimensionMismatchError):
            norms_block(cone, X, chi)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_norms_block_matches_rowwise_projection(label):
    _check_against_oracle(_cone_and_dim(label)[0], 40, 31)


@pytest.mark.parametrize("cone", [Circular(8, math.pi / 6), Polar(Circular(6, 0.9)),
                                  Product(Orthant(3), Circular(5, 0.7))],
                         ids=["circ:8:pi/6", "polar(circ:6:0.9)", "prod(orthant:3,circ:5:0.7)"])
def test_norms_block_has_one_circular_formula(cone):
    _check_against_oracle(cone, 500, 37)


@pytest.mark.parametrize("cone", [
    Orthant(6), Subspace(2, 5), Subspace(0, 3), Subspace(4, 4), Trivial(3),
    Polar(Orthant(4)), Product(Orthant(3), Subspace(2, 5)),
    Polar(Product(Subspace(1, 3), Product(Orthant(2), Trivial(2)))),
], ids=cone_to_spec)
def test_norms_block_has_one_formula_per_sampled_leaf(cone):
    _check_against_oracle(cone, 500, 37)


def test_sampled_layout_lists_circular_leaves_left_to_right():
    # a psd leaf takes the n diagonal entries of its tridiagonal form and
    # the n - 1 chi-square columns of its subdiagonal
    cone = Product(Polar(Circular(4, 0.3)), Product(Psd(2), Circular(6, 0.5)))
    assert sampled_layout(cone) == (1 + 2 + 1, 1 + 1 + 1)
    X = np.zeros((2, 4))
    assert np.array_equal(chi_square_dofs(cone, X)[0], [[3.0, 1.0, 5.0]] * 2)
    # orthant and subspace leaves, left to right, each orthant's normal
    # standing for its face dimension, which X keeps and faces hands on
    cone = Product(Orthant(3), Product(Subspace(1, 4), Polar(Orthant(2))))
    assert sampled_layout(cone) == (2, 6)
    X = np.array([[-40.0, 40.0], [40.0, -40.0]])
    dofs, faces = chi_square_dofs(cone, X)
    assert np.array_equal(dofs, [[0.0, 3.0, 1.0, 3.0, 2.0, 0.0], [3.0, 0.0, 1.0, 3.0, 0.0, 2.0]])
    assert np.array_equal(faces[0], [0, 3]) and faces[1] == 1 and np.array_equal(faces[2], [2, 0])
    assert np.array_equal(X, [[-40.0, 40.0], [40.0, -40.0]])
    assert sampled_layout(Product(Psd(2), Trivial(2))) == (2, 1 + 2)
    assert np.array_equal(chi_square_dofs(Psd(5), np.zeros((1, 5)))[0], [[4.0, 3.0, 2.0, 1.0]])
    assert sampled_layout(Psd(1)) == (1, 0)


def test_psd_norms_do_not_depend_on_matrix_slices(monkeypatch):
    # psd leaves are projected in slices of about _STACK_VALUES matrix
    # entries, and eigvalsh works matrix by matrix
    cone = Product(Psd(4), Polar(Psd(3)))
    gauss = np.random.default_rng(35).standard_normal((300, ambient_dim(cone)))[:, :7]
    chi = 2.0 * np.random.default_rng(36).standard_gamma(0.5 * chi_square_dofs(cone, gauss)[0])
    s0, t0, _ = norms_block(cone, gauss, chi)
    for entries in (1, 37, 1 << 24):
        monkeypatch.setattr(cones, "_STACK_VALUES", entries)
        s, t, _ = norms_block(cone, gauss, chi)
        assert np.array_equal(s, s0) and np.array_equal(t, t0)


def test_generator_norms_block_memory_is_bounded():
    # a 400-generator cone in R^40: stacked least-squares operators for
    # all 1024 rows at once would take about 130 MB, so the solver takes
    # the rows in slices
    rng = np.random.default_rng(32)
    cone = Generators(rng.standard_normal((400, 40)))
    X = rng.standard_normal((1024, 40))
    tracemalloc.start()
    try:
        s, t, faces = norms_block(cone, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # 400 random generators span R^40 as a cone: every point projects to itself
    sq = np.einsum("ij,ij->i", X, X)
    assert np.allclose(s, sq, rtol=1e-12, atol=0.0)
    assert np.all(t <= 1e-20 * sq)
    assert np.all(faces == 40)


def test_pointed_generator_norms_block_memory_is_bounded():
    # 100 generators around circ:12:pi/5 span a pointed cone with proper
    # faces; over one map_chunks block of rows (2**17 values), stacked
    # least-squares operators would take about 105 MB
    cone = Generators(pointed_wide_generators(100, 12, math.pi / 5, 0))
    X = np.random.default_rng(33).standard_normal((10922, 12))
    tracemalloc.start()
    try:
        s, t, faces = norms_block(cone, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    ref_s, ref_t, ref_faces = reference_norms(cone.matrix, X[:256])
    tol = 1e-12 * (1.0 + np.einsum("ij,ij->i", X[:256], X[:256]))
    assert np.all(np.abs(s[:256] - ref_s) <= tol)
    assert np.all(np.abs(t[:256] - ref_t) <= tol)
    assert np.array_equal(faces[:256], ref_faces)
    assert set(faces.tolist()) >= set(range(8))


# ---------------------------------------------------------------------------
# Symmetric matrix coordinates
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(m=arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
def test_sym_vec_round_trip_and_isometry(m):
    s = 0.5 * (m + m.T)
    v = sym_to_vec(s)
    assert v.shape == (10,)
    assert np.allclose(vec_to_sym(v, 4), s, atol=1e-12)
    # Frobenius inner product is preserved
    assert float(v @ v) == pytest.approx(float(np.sum(s * s)), rel=1e-10, abs=1e-10)


def test_sym_to_vec_shape_validation():
    with pytest.raises(ValueError):
        sym_to_vec(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        vec_to_sym(np.zeros(5), 3)


# ---------------------------------------------------------------------------
# Construction validation and descriptor loading
# ---------------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ConeSpecError):
        Orthant(0)
    with pytest.raises(ConeSpecError):
        Subspace(5, 4)
    with pytest.raises(ConeSpecError):
        Circular(1, 0.3)
    with pytest.raises(ConeSpecError):
        Circular(4, 2.0)
    with pytest.raises(ConeSpecError):
        Psd(0)
    with pytest.raises(ConeSpecError):
        Generators(np.zeros((2, 2)))
    with pytest.raises(ConeSpecError):
        Generators(np.array([[np.inf, 1.0]]))


def test_load_generators_round_trip(tmp_path):
    path = tmp_path / "gens.csv"
    path.write_text("1.0, 0.5, 0.0\n0.0, 1.0, -2.0\n")
    cone = load_generators(path)
    assert isinstance(cone, Generators)
    assert cone.matrix.shape == (2, 3)
    assert np.allclose(cone.matrix, [[1.0, 0.5, 0.0], [0.0, 1.0, -2.0]])
    assert cone.source == str(path)


def test_load_generators_rejects_bad_files(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0, 2.0\n3.0\n")
    with pytest.raises(ConeSpecError):
        load_generators(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConeSpecError):
        load_generators(empty)
    words = tmp_path / "words.csv"
    words.write_text("1.0, banana\n")
    with pytest.raises(ConeSpecError):
        load_generators(words)
