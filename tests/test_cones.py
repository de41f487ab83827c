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
    load_generators,
    norms_block,
    project,
    second_order_cone,
    supports_face_dim,
    sym_to_vec,
    vec_to_sym,
)
from conevol.exceptions import ConeSpecError
from conevol.linalg import masked_ranks, nnls_solve, well_conditioned_rows
from nnls_oracle import pointed_wide_generators, reference_norms


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
# Projection invariants shared by every cone type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_decomposition(label, seed):
    cone, d = _cone_and_dim(label)
    assert ambient_dim(cone) == d
    x = _vec(d, 17 * seed + 5)
    out = project(cone, x)
    # x splits into projection + residual
    assert np.allclose(out.projection + out.residual, x, atol=1e-12)
    # the two parts are orthogonal
    assert abs(float(out.projection @ out.residual)) < 1e-9
    # squared norms are consistent with the split
    assert out.sq_norm_proj == pytest.approx(float(out.projection @ out.projection), abs=1e-10)
    assert out.sq_norm_residual == pytest.approx(float(out.residual @ out.residual), abs=1e-10)
    assert out.sq_norm_proj + out.sq_norm_residual == pytest.approx(float(x @ x), rel=1e-10)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_projection_idempotent_and_homogeneous(label):
    cone, d = _cone_and_dim(label)
    x = _vec(d, 99)
    p = project(cone, x).projection
    again = project(cone, p).projection
    assert np.allclose(again, p, atol=1e-9)
    doubled = project(cone, 2.0 * x).projection
    assert np.allclose(doubled, 2.0 * p, atol=1e-9)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_residual_is_polar_projection(label):
    cone, d = _cone_and_dim(label)
    x = _vec(d, 7)
    out = project(cone, x)
    polar_out = project(Polar(cone), x)
    assert np.allclose(polar_out.projection, out.residual, atol=1e-9)
    assert np.allclose(polar_out.residual, out.projection, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, 5, elements=st.floats(-50, 50)),
       label=st.sampled_from(["orthant", "soc", "subspace"]))
def test_projection_invariants_property(x, label):
    cone = {"orthant": Orthant(5), "soc": second_order_cone(5),
            "subspace": Subspace(3, 5)}[label]
    out = project(cone, x)
    assert np.allclose(out.projection + out.residual, x, atol=1e-9)
    assert float(out.projection @ out.residual) == pytest.approx(0.0, abs=1e-7)
    # projection shrinks norms
    assert out.sq_norm_proj <= float(x @ x) + 1e-9


# ---------------------------------------------------------------------------
# Closed-form projections per cone type
# ---------------------------------------------------------------------------

def test_orthant_projection_is_positive_part():
    x = np.array([1.5, -2.0, 0.0, 3.0])
    out = project(Orthant(4), x)
    assert np.allclose(out.projection, [1.5, 0.0, 0.0, 3.0])
    assert out.face_dim == 2


def test_subspace_projection_zeroes_complement():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = project(Subspace(2, 4), x)
    assert np.allclose(out.projection, [1.0, 2.0, 0.0, 0.0])
    assert out.face_dim == 2


def test_trivial_projection_is_zero():
    x = np.array([1.0, -1.0])
    out = project(Trivial(2), x)
    assert np.allclose(out.projection, 0.0)
    assert np.allclose(out.residual, x)
    assert out.face_dim == 0


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
    out = project(Circular(2, alpha), x)
    assert out.sq_norm_proj == pytest.approx(_circular_grid_oracle(alpha, x), abs=1e-6)


def test_circular_projection_interior_and_polar_points():
    cone = Circular(3, 0.5)
    inside = np.array([2.0, 0.1, 0.0])   # well inside the cone
    assert np.allclose(project(cone, inside).projection, inside)
    # deep in the polar cone: projection collapses to the apex
    anti = np.array([-5.0, 0.1, 0.1])
    assert np.allclose(project(cone, anti).projection, 0.0, atol=1e-12)


def test_circular_degenerate_angles():
    ray = Circular(3, 0.0)
    x = np.array([2.0, 1.0, -1.0])
    assert np.allclose(project(ray, x).projection, [2.0, 0.0, 0.0])
    half = Circular(3, math.pi / 2)
    # alpha = pi/2 is the halfspace x_1 >= 0
    y = np.array([-2.0, 1.0, -1.0])
    assert np.allclose(project(half, y).projection, [0.0, 1.0, -1.0])


def test_psd_projection_is_eigenvalue_clip():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((3, 3))
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    clipped = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
    out = project(Psd(3), sym_to_vec(s))
    assert np.allclose(out.projection, sym_to_vec(clipped), atol=1e-9)


def test_generators_of_orthant_match_closed_form():
    cone = Generators(np.eye(4))
    x = np.array([1.0, -2.0, 3.0, -0.5])
    out = project(cone, x)
    assert np.allclose(out.projection, np.maximum(x, 0.0), atol=1e-12)
    assert out.face_dim == 2


def test_product_projection_splits_coordinates():
    cone = Product(Orthant(2), Subspace(1, 3))
    x = np.array([1.0, -1.0, 4.0, 5.0, 6.0])
    out = project(cone, x)
    assert np.allclose(out.projection, [1.0, 0.0, 4.0, 0.0, 0.0])
    assert out.face_dim == 2


def test_polar_of_orthant_is_negative_orthant():
    out = project(Polar(Orthant(3)), np.array([1.0, -2.0, 0.5]))
    assert np.allclose(out.projection, [0.0, -2.0, 0.0])


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
        out = project(Orthant(7), x)
        assert out.face_dim == int(np.sum(x > 0))


def test_face_dimension_none_for_smooth_cones():
    out = project(Circular(3, 0.4), np.array([1.0, 2.0, 0.0]))
    assert out.face_dim is None


def _with_singular_values(sv, d, rng):
    """A len(sv) x d matrix with singular values sv, between random rotations."""
    u = np.linalg.qr(rng.standard_normal((len(sv), len(sv))))[0]
    v = np.linalg.qr(rng.standard_normal((d, len(sv))))[0]
    return (u * sv) @ v.T


@pytest.mark.parametrize("seed", range(6))
def test_certified_generator_face_dims_match_masked_ranks(seed):
    # a generator matrix that passes the certificate has every row subset
    # at full rank by masked_ranks' own SVD test, so counting the active
    # generators gives the same integers; checked on random cones and on
    # ones whose singular values span just inside the certificate's ratio
    rng = np.random.default_rng(seed)
    ratio = cones._INDEPENDENT_RATIO
    m = int(rng.integers(2, 9))
    d = m + int(rng.integers(0, 4))
    for g in (rng.standard_normal((m, d)) * np.logspace(-3, 3, m)[:, None],
              _with_singular_values(np.geomspace(1.0, 1.01 * ratio, m), d, rng)):
        assert well_conditioned_rows(g, ratio)
        masks = rng.random((400, m)) < rng.random((400, 1))
        assert np.array_equal(masked_ranks(g, masks), np.count_nonzero(masks, axis=1))
        # the projector's shortcut: the same integers masked_ranks gives
        X = rng.standard_normal((200, d))
        active = nnls_solve(g, X) > 1e-12 * (1.0 + np.linalg.norm(X, axis=1))[:, None]
        assert np.array_equal(norms_block(Generators(g), X)[2], masked_ranks(g, active))
    # just outside the ratio, or with more generators than dimensions,
    # the projector keeps masked_ranks
    assert not well_conditioned_rows(
        _with_singular_values(np.geomspace(1.0, 0.99 * ratio, m), d, rng), ratio)
    assert not well_conditioned_rows(rng.standard_normal((d + 1, d)), ratio)


# ---------------------------------------------------------------------------
# Batched norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ALL_LABELS)
def test_norms_block_matches_rowwise_projection(label):
    cone, d = _cone_and_dim(label)
    X = np.random.default_rng(31).standard_normal((40, d))
    s, t, faces = norms_block(cone, X)
    for i in range(X.shape[0]):
        out = project(cone, X[i])
        assert s[i] == pytest.approx(out.sq_norm_proj, rel=1e-9, abs=1e-9)
        assert t[i] == pytest.approx(out.sq_norm_residual, rel=1e-9, abs=1e-9)
        if faces is not None:
            assert faces[i] == out.face_dim
    if supports_face_dim(cone):
        assert faces is not None


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
