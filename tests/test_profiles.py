# Standard libraries
import hashlib
import itertools
import math
from fractions import Fraction

# External libraries
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conevol.cones import (
    Circular,
    Generators,
    Orthant,
    Polar,
    Product,
    Psd,
    Subspace,
    Trivial,
)
from conevol.exceptions import (
    ConditioningError,
    DimensionMismatchError,
    UnsupportedConeError,
)
from conevol.profiles import (
    _EVAL_BLOCK,
    IntrinsicVolumeProfile,
    biorthogonal_coefficients,
    estimate_profile_biorthogonal,
    estimate_profile_face,
    estimate_profile_mixture,
    exact_profile,
    intrinsic_variance,
    mixture_design_matrix,
    profile_from_raw,
    reverse_profile,
    statistical_dimension,
)
from conevol.report import abs_z
from conevol.sampling import MonteCarloConfig, run_summary
import circular_oracle
from chi_square_oracle import chi_expectation_quadrature, chi_square_cdf

# ---------------------------------------------------------------------------
# Exact profiles
# ---------------------------------------------------------------------------

def test_orthant_profile_is_symmetric_binomial():
    prof = exact_profile(Orthant(4))
    assert np.allclose(prof.v, [1, 4, 6, 4, 1] / np.float64(16.0))
    assert prof.statistical_dimension == pytest.approx(2.0)
    assert prof.variance == pytest.approx(1.0)


def test_subspace_profile_is_point_mass():
    prof = exact_profile(Subspace(3, 8))
    expected = np.zeros(9)
    expected[3] = 1.0
    assert np.array_equal(prof.v, expected)
    assert prof.statistical_dimension == 3.0
    assert prof.variance == 0.0


def test_trivial_profile_sits_at_zero():
    assert exact_profile(Trivial(5)).v[0] == 1.0


def test_product_profile_is_convolution():
    prof = exact_profile(Product(Orthant(2), Orthant(3)))
    direct = np.convolve(exact_profile(Orthant(2)).v, exact_profile(Orthant(3)).v)
    assert np.allclose(prof.v, direct)
    assert prof.d == 5
    # product with a subspace shifts indices
    shifted = exact_profile(Product(Subspace(2, 2), Orthant(2)))
    assert np.allclose(shifted.v, [0.0, 0.0, 0.25, 0.5, 0.25])


def test_polar_profile_reverses_orders():
    prof = exact_profile(Polar(Subspace(1, 4)))
    assert prof.v[3] == 1.0
    # polarity is an involution
    assert np.array_equal(exact_profile(Polar(Polar(Orthant(3)))).v,
                          exact_profile(Orthant(3)).v)


def test_exact_profile_unavailable_for_smooth_cones():
    with pytest.raises(UnsupportedConeError):
        exact_profile(Circular(4, 0.3))


@given(d=st.integers(min_value=1, max_value=30))
def test_orthant_profile_sums_to_one(d):
    v = exact_profile(Orthant(d)).v
    assert float(v.sum()) == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(v, v[::-1])  # self-polar


def circular_odd_profile(d, alpha):
    """Odd coordinates of the circular cone's profile, an oracle for
    estimates on Circ_d(alpha) with even d = 2(n+1):
    v_{2k+1} = h[k] = C(n, k) sin^2k(alpha) cos^2(n-k)(alpha) / 2."""
    n = d // 2 - 1
    p, q = math.sin(alpha) ** 2, math.cos(alpha) ** 2
    return np.array([0.5 * math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)])


def test_circular_odd_profile_values():
    # d = 4: the two odd entries are cos^2(alpha)/2 and sin^2(alpha)/2
    h = circular_odd_profile(4, 0.7)
    assert h.shape == (2,)
    assert h[0] == pytest.approx(0.5 * math.cos(0.7) ** 2, rel=1e-13)
    assert h[1] == pytest.approx(0.5 * math.sin(0.7) ** 2, rel=1e-13)
    # odd-index mass is always exactly half
    for d, alpha in [(8, 0.3), (16, 1.1), (64, math.pi / 6)]:
        assert circular_odd_profile(d, alpha).sum() == pytest.approx(0.5, rel=1e-12)


def test_circular_odd_profile_soc_is_central_binomial():
    h = circular_odd_profile(6, math.pi / 4)
    n = 2
    assert np.allclose(h, [0.5 * math.comb(n, k) / 2.0**n for k in range(n + 1)])


def test_biorthogonal_estimate_matches_circular_odd_coordinates():
    cone = Circular(4, 0.6)
    cfg = MonteCarloConfig(seed=0, total_samples=50_000, reservoir_cap=50_000)
    prof = estimate_profile_biorthogonal(cone, cfg)
    z = np.abs(prof.raw_v[1::2] - circular_odd_profile(4, 0.6)) / prof.stderr[1::2]
    assert np.all(z <= 4.0)


# ---------------------------------------------------------------------------
# Profile container semantics
# ---------------------------------------------------------------------------

def test_profile_from_raw_clamps_and_normalizes():
    prof = profile_from_raw(2, np.array([-0.1, 0.6, 0.6]), None, "test")
    assert np.allclose(prof.v, [0.0, 0.5, 0.5])
    assert np.allclose(prof.raw_v, [-0.1, 0.6, 0.6])
    with pytest.raises(ConditioningError):
        profile_from_raw(1, np.array([-1.0, -2.0]), None, "test")


def test_profile_length_validation():
    with pytest.raises(ValueError):
        IntrinsicVolumeProfile(3, np.zeros(3), None, "test")


def test_reverse_profile_is_involution():
    prof = exact_profile(Orthant(3))
    back = reverse_profile(reverse_profile(prof))
    assert np.array_equal(back.v, prof.v)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------

def test_statistical_dimension_orthant():
    cfg = MonteCarloConfig(seed=21, total_samples=100_000)
    summary = run_summary(Orthant(10), cfg)
    val, se = statistical_dimension(summary)
    assert se < 0.05
    assert abs(val - 5.0) < 4.0 * se


def test_statistical_dimension_subspace_is_noise_free():
    cfg = MonteCarloConfig(seed=22, total_samples=50_000)
    summary = run_summary(Subspace(3, 8), cfg)
    val, se = statistical_dimension(summary)
    assert abs(val - 3.0) < 4.0 * se + 1e-9


def test_intrinsic_variance_orthant():
    # orthant profile is Binomial(d, 1/2): variance d/4
    cfg = MonteCarloConfig(seed=23, total_samples=200_000)
    summary = run_summary(Orthant(10), cfg)
    val, se = intrinsic_variance(summary)
    assert se < 0.2
    assert abs(val - 2.5) < 4.0 * se


def test_intrinsic_variance_subspace_is_zero():
    cfg = MonteCarloConfig(seed=24, total_samples=100_000)
    summary = run_summary(Subspace(4, 9), cfg)
    val, se = intrinsic_variance(summary)
    assert abs(val) < 4.0 * se + 1e-9


def test_circular_oracle_matches_odd_coordinates_and_incomplete_beta_ends():
    sp = pytest.importorskip("scipy.special")
    for d, alpha in [(2, 0.3), (4, 0.6), (5, 0.7), (8, math.pi / 6), (16, 1.1), (64, math.pi / 6)]:
        v = circular_oracle.circular_profile(d, alpha)
        assert float(v.sum()) == pytest.approx(1.0, abs=1e-14)
        assert float(v[1::2].sum()) == pytest.approx(0.5, abs=1e-14)
        if d % 2 == 0:
            assert np.allclose(v[1::2], circular_odd_profile(d, alpha), rtol=1e-12, atol=0.0)
        b = 0.5 * (d - 1)
        assert v[d] == pytest.approx(0.5 * (1.0 - sp.betainc(0.5, b, math.cos(alpha) ** 2)),
                                     rel=1e-12, abs=1e-15)
        assert v[0] == pytest.approx(0.5 * (1.0 - sp.betainc(0.5, b, math.sin(alpha) ** 2)),
                                     rel=1e-12, abs=1e-15)
    # the statistical dimension of circ:64:pi/6 is 16.5 to three decimals
    v = circular_oracle.circular_profile(64, math.pi / 6)
    assert float(np.arange(65) @ v) == pytest.approx(16.5, abs=1e-3)


EXACT_CIRCULAR_CONES = [
    ("circ:8:pi/6", Circular(8, math.pi / 6)),
    ("polar(circ:6:0.9)", Polar(Circular(6, 0.9))),
    ("prod(orthant:3,circ:5:0.7)", Product(Orthant(3), Circular(5, 0.7))),
]


@pytest.mark.parametrize("seed", [61, 62, 63])
@pytest.mark.parametrize("cone", [c[1] for c in EXACT_CIRCULAR_CONES],
                         ids=[c[0] for c in EXACT_CIRCULAR_CONES])
def test_estimates_match_exact_circular_profiles(cone, seed):
    # the moment estimators and the biorthogonal profile on cones whose
    # circular leaves draw ||z||^2 from the chi-square stream, against
    # the closed form; none of these profiles is palindromic
    v = circular_oracle.profile(cone)
    assert not np.allclose(v, v[::-1])
    k = np.arange(v.size)
    delta = float(k @ v)
    variance = float(k * k @ v) - delta * delta
    cfg = MonteCarloConfig(seed=seed, total_samples=50_000, reservoir_cap=50_000)
    summary = run_summary(cone, cfg)
    est, se = statistical_dimension(summary)
    assert abs_z(est - delta, se) <= 4.0
    est, se = intrinsic_variance(summary)
    assert abs_z(est - variance, se) <= 4.0
    prof = estimate_profile_biorthogonal(cone, cfg, summary=summary)
    assert float(np.max(abs_z(prof.raw_v - v, prof.stderr))) <= 4.0


def test_exact_psd_profiles():
    # Psd(1) is the ray R_+, and Psd(2) is circ:3:pi/4 up to an isometry
    assert np.array_equal(exact_profile(Psd(1)).v, exact_profile(Orthant(1)).v)
    v2 = exact_profile(Psd(2)).v
    assert np.max(np.abs(v2 - circular_oracle.circular_profile(3, math.pi / 4))) <= 1e-12
    # psd:3: (v0, v1, 1/4 - v0, 1 - 1/sqrt 2, 1/4 - v0, v1, v0) with
    # v0 = (pi - 2 sqrt 2) / (4 pi) and v1 = (sqrt 2 - 1) / 4, so delta = 3
    # and Var V = 2 (8 v0 + 4 v1 + 1/4) = 1.727162
    prof = exact_profile(Psd(3))
    v0, v1 = (math.pi - 2.0 * math.sqrt(2.0)) / (4.0 * math.pi), (math.sqrt(2.0) - 1.0) / 4.0
    closed = [v0, v1, 0.25 - v0, 1.0 - 1.0 / math.sqrt(2.0), 0.25 - v0, v1, v0]
    assert np.max(np.abs(prof.v - closed)) <= 1e-15
    assert prof.statistical_dimension == pytest.approx(3.0, abs=1e-15)
    assert prof.variance == pytest.approx(2.0 * (8.0 * v0 + 4.0 * v1 + 0.25), abs=1e-14)
    for v in (v2, prof.v):
        # total mass 1, and Gauss-Bonnet: the even and odd sums are 1/2 each
        assert abs(v.sum() - 1.0) <= 1e-15
        assert abs(v[0::2].sum() - 0.5) <= 1e-15 and abs(v[1::2].sum() - 0.5) <= 1e-15
        assert np.array_equal(v, v[::-1])
    with pytest.raises(UnsupportedConeError):
        exact_profile(Psd(4))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_moment_estimators_match_psd3_closed_form(seed):
    exact = exact_profile(Psd(3))
    summary = run_summary(Psd(3), MonteCarloConfig(seed=seed, total_samples=200_000))
    delta, delta_se = statistical_dimension(summary)
    var, var_se = intrinsic_variance(summary)
    assert abs(delta - exact.statistical_dimension) <= 4.0 * delta_se
    assert abs(var - exact.variance) <= 4.0 * var_se


@pytest.mark.parametrize("polar, seed", [(False, 25), (True, 26)])
def test_moment_estimators_on_a_product_that_is_not_palindromic(polar, seed):
    # V = 2 + Binomial(3, 1/2) on Orthant(3) x Subspace(2, 5), and 8 - V on its polar
    cone = Product(Orthant(3), Subspace(2, 5))
    summary = run_summary(Polar(cone) if polar else cone,
                          MonteCarloConfig(seed=seed, total_samples=100_000))
    delta, delta_se = statistical_dimension(summary)
    var, var_se = intrinsic_variance(summary)
    assert abs(delta - (4.5 if polar else 3.5)) <= 4.0 * delta_se
    assert abs(var - 0.75) <= 4.0 * var_se


@pytest.mark.parametrize("k", [0, 7])
def test_moment_estimators_are_exact_when_theta_is_constant(k):
    # theta = s / (s + t) is 0 on every draw for the origin and 1 for R^d
    summary = run_summary(Subspace(k, 7), MonteCarloConfig(seed=27, total_samples=3_000))
    assert statistical_dimension(summary) == (float(k), 0.0)
    assert intrinsic_variance(summary) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Biorthogonal system
# ---------------------------------------------------------------------------

def theta_moments(d):
    """M[m][k] = E[theta^m | V = k] = prod_{j<m} (k + 2j) / (d + 2j), exact."""
    return [[Fraction(math.prod(range(k, k + 2 * m, 2)), math.prod(range(d, d + 2 * m, 2)))
             for k in range(d + 1)] for m in range(d + 1)]


def exact_monomial_system(d):
    """C = M^-1 by Gauss-Jordan elimination in Fractions: row k holds the
    monomial coefficients of h_k."""
    n = d + 1
    rows = [row + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(theta_moments(d))]
    for p in range(n):
        q = next(i for i in range(p, n) if rows[i][p] != 0)
        rows[p], rows[q] = rows[q], rows[p]
        rows[p] = [x / rows[p][p] for x in rows[p]]
        for i in range(n):
            if i != p:
                f = rows[i][p]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[p])]
    return [row[n:] for row in rows]


def shifted_legendre_monomials(d):
    """L[n][m]: P*_n(theta) = P_n(2 theta - 1) = sum_m L[n][m] theta^m."""
    return [[(-1) ** (n + m) * math.comb(n, m) * math.comb(n + m, m) for m in range(d + 1)]
            for n in range(d + 1)]


def evaluate_system(coef, theta):
    return np.polynomial.legendre.legvander(2.0 * np.asarray(theta) - 1.0,
                                            coef.shape[0] - 1) @ coef.T


def test_biorthogonal_first_dimension_closed_form():
    # d = 1: theta is 0 or 1, and h_0 = 1 - theta, h_1 = theta
    assert np.array_equal(biorthogonal_coefficients(1), [[0.5, -0.5], [0.5, 0.5]])


@pytest.mark.parametrize("d", range(1, 13))
def test_biorthogonal_matches_exact_rational_build(d):
    # the stored coefficients are the exact inverse, moved to the shifted
    # Legendre basis by solving L^T c = C_k, rounded once
    monomial = exact_monomial_system(d)
    legendre = shifted_legendre_monomials(d)
    want = []
    for row in monomial:
        coords = [Fraction(0)] * (d + 1)
        rest = list(row)
        for n in range(d, -1, -1):
            coords[n] = rest[n] / legendre[n][n]
            for m in range(n):
                rest[m] -= coords[n] * legendre[n][m]
        want.append([float(x) for x in coords])
    coef = biorthogonal_coefficients(d)
    assert coef.shape == (d + 1, d + 1)
    assert np.array_equal(coef, want)


# SHA-256 over the little-endian float64 bytes of biorthogonal_coefficients(d)
# for d = 1..20, in d order.  The exact rational build above gives the same
# digest over all twenty dimensions.
_BIORTHOGONAL_SHA256 = "9151011655379f54f20f6db6b66dc3743f41845de824dbe16af48521d5e8624e"


def test_biorthogonal_systems_are_pinned_for_every_dimension():
    digest = hashlib.sha256()
    for d in range(1, 21):
        coef = biorthogonal_coefficients(d)
        digest.update(np.ascontiguousarray(coef, dtype="<f8").tobytes())
    assert digest.hexdigest() == _BIORTHOGONAL_SHA256


def test_biorthogonal_residual_certificates():
    # max |sum_n c[j, n] E[P*_n(theta) | k] - delta_jk| over the float64
    # coefficients as stored, in exact rationals.  It is the rounding of c
    # alone: 1.1e-12 at d = 12, 6.7e-10 at d = 18, 3.4e-9 at d = 20
    for d in range(1, 21):
        moments = theta_moments(d)
        expect = [[sum(l * moments[m][k] for m, l in enumerate(row)) for k in range(d + 1)]
                  for row in shifted_legendre_monomials(d)]
        coef = biorthogonal_coefficients(d)
        residual = max(abs(sum(Fraction(c) * expect[n][k] for n, c in enumerate(coef[j]))
                           - (j == k)) for j in range(d + 1) for k in range(d + 1))
        assert residual <= 1e-8, d
    # cached and read-only: repeated builds return the same array
    assert biorthogonal_coefficients(12) is biorthogonal_coefficients(12)
    with pytest.raises(ValueError, match="read-only"):
        biorthogonal_coefficients(12)[0, 0] = 1.0


@pytest.mark.parametrize("d", range(1, 21))
def test_biorthogonal_evaluate_matches_exact_values(d):
    # float64 evaluation against the exact h_k at dyadic theta, atoms
    # included, within (d+1) eps sum_n |c[k, n]| since |P*_n| <= 1 on
    # [0, 1]; that is 5.8e-7 at d = 20, where the error is 7.5e-9
    coef = biorthogonal_coefficients(d)
    bound = (d + 1) * np.finfo(float).eps * np.abs(coef).sum(axis=1)
    theta = np.arange(65) / 64.0
    got = evaluate_system(coef, theta)
    monomial = exact_monomial_system(d)
    for i, x in enumerate(theta):
        powers = [Fraction(x) ** m for m in range(d + 1)]
        want = [float(sum(c * p for c, p in zip(row, powers))) for row in monomial]
        assert np.all(np.abs(got[i] - want) <= bound)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_biorthogonality_under_quadrature(d):
    # E[h_j(theta) | V = k] with theta = sin^2(phi) ~ Beta(k/2, (d-k)/2) for
    # 0 < k < d, whose density in phi is smooth; the atoms at 0 and 1 directly
    t, w = np.polynomial.legendre.leggauss(200)
    phi = 0.25 * math.pi * (t + 1.0)
    values = evaluate_system(biorthogonal_coefficients(d), np.sin(phi) ** 2)
    ends = evaluate_system(biorthogonal_coefficients(d), [0.0, 1.0])
    for k in range(d + 1):
        if k == 0 or k == d:
            got = ends[0 if k == 0 else 1]
        else:
            log_beta = math.lgamma(k / 2) + math.lgamma((d - k) / 2) - math.lgamma(d / 2)
            density = 2.0 * np.sin(phi) ** (k - 1) * np.cos(phi) ** (d - k - 1)
            got = 0.25 * math.pi * (w * density * math.exp(-log_beta)) @ values
        assert np.allclose(got, np.eye(d + 1)[k], rtol=0.0, atol=1e-8)


def test_biorthogonal_dimension_cap():
    with pytest.raises(ConditioningError):
        biorthogonal_coefficients(21)


def test_chi_expectation_quadrature_moments():
    assert chi_expectation_quadrature(lambda s: s, 3) == pytest.approx(3.0, rel=1e-10)
    assert chi_expectation_quadrature(lambda s: s * s, 5) == pytest.approx(35.0, rel=1e-10)
    assert chi_expectation_quadrature(lambda s: s + 1.0, 0) == 1.0


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def test_face_estimator_matches_exact_orthant():
    cfg = MonteCarloConfig(seed=31, total_samples=100_000)
    prof = estimate_profile_face(Orthant(8), cfg)
    truth = exact_profile(Orthant(8)).v
    z = np.abs(prof.v - truth) / prof.stderr
    assert float(z.max()) < 4.0
    assert prof.provenance == "mc_face"
    assert float(prof.v.sum()) == pytest.approx(1.0, rel=1e-12)


def test_face_estimator_satisfies_gauss_bonnet():
    # sum_k (-1)^k v_k = 0 for every cone that is not a subspace: the mean m
    # of (-1)^K over the samples is 0, with the standard error of the
    # per-sample values +-1, sqrt((1 - m^2) / n), at every seed of a fixed
    # set; the message lists every |z|
    cones = [("orthant:7", Orthant(7), 100_000),
             ("prod(orthant:3,subspace:2:5)", Product(Orthant(3), Subspace(2, 5)), 100_000),
             ("gens:I_5", Generators(np.eye(5)), 40_000)]
    zs = {}
    for (label, cone, n), seed in itertools.product(cones, (3, 4, 5)):
        prof = estimate_profile_face(cone, MonteCarloConfig(seed=seed, total_samples=n))
        m = float(np.dot((-1.0) ** np.arange(prof.d + 1), prof.raw_v))
        zs[label, seed] = abs(m) / math.sqrt((1.0 - m * m) / n)
    assert max(zs.values()) <= 4.0, {key: round(z, 2) for key, z in zs.items()}


def test_face_estimator_requires_polyhedral_cone():
    cfg = MonteCarloConfig(seed=0, total_samples=100)
    with pytest.raises(UnsupportedConeError):
        estimate_profile_face(Circular(4, 0.5), cfg)


def test_biorthogonal_estimator_consistent_with_truth():
    cfg = MonteCarloConfig(seed=32, total_samples=50_000, reservoir_cap=50_000)
    prof = estimate_profile_biorthogonal(Orthant(8), cfg)
    truth = exact_profile(Orthant(8)).v
    z = np.abs(prof.raw_v - truth) / prof.stderr
    assert float(z.max()) < 4.0
    assert prof.provenance == "mc_biorthogonal"


ASYMMETRIC_CONES = [
    ("subspace:3:8", Subspace(3, 8), 41),
    ("prod(orthant:3,subspace:2:5)", Product(Orthant(3), Subspace(2, 5)), 42),
    ("polar(prod(orthant:3,subspace:2:5))", Polar(Product(Orthant(3), Subspace(2, 5))), 43),
]


@pytest.mark.parametrize("cone,seed", [c[1:] for c in ASYMMETRIC_CONES],
                         ids=[c[0] for c in ASYMMETRIC_CONES])
def test_biorthogonal_estimator_matches_profiles_that_are_not_palindromic(cone, seed):
    # v_k != v_(d-k) here; a zero standard error must come with an exact
    # coordinate
    cfg = MonteCarloConfig(seed=seed, total_samples=50_000, reservoir_cap=50_000)
    summary = run_summary(cone, cfg)
    prof = estimate_profile_biorthogonal(cone, cfg, summary=summary)
    truth = exact_profile(cone)
    assert not np.array_equal(truth.v, truth.v[::-1])
    assert float(np.max(abs_z(prof.raw_v - truth.v, prof.stderr))) <= 4.0
    # sum_k k h_k(theta) = d theta, so the estimate's mean dimension has the
    # standard error of d theta, about 0.01 against 0.3-0.6 per coordinate:
    # this is what sees h_k and h_(d-k) mixed up (delta against d - delta)
    d = prof.d
    theta = summary.reservoir_s / (summary.reservoir_s + summary.reservoir_t)
    se = d * theta.std(ddof=1) / math.sqrt(theta.size)
    delta = float(np.arange(d + 1) @ prof.raw_v)
    assert float(abs_z(delta - truth.statistical_dimension, se)) <= 4.0


@pytest.mark.parametrize("cone", [Subspace(0, 6), Subspace(6, 6), Trivial(5),
                                  Polar(Trivial(4))], ids=repr)
def test_biorthogonal_stderr_covers_evaluation_round_off(cone):
    # theta is constant, so the sample spread of h_k(theta) is 0 and the
    # estimate differs from the exact profile by float64 round-off alone;
    # the floor eps * sum_n |c_kn| on the standard error must cover it
    prof = estimate_profile_biorthogonal(cone, MonteCarloConfig(seed=28, total_samples=1_000))
    floor = np.finfo(float).eps * np.abs(biorthogonal_coefficients(prof.d)).sum(axis=1)
    assert np.all(prof.stderr >= floor)
    assert np.all(abs_z(prof.raw_v - exact_profile(cone).v, prof.stderr) <= 1.0)


@pytest.mark.parametrize("d", range(1, 21))
def test_biorthogonal_estimator_matches_the_legvander_reference(d):
    # the estimator builds its Legendre rows by recurrence, a block of
    # _EVAL_BLOCK points at a time; against legvander's values over the
    # whole reservoir only the summation order differs: within 4 eps
    # sum_n |c_kn| for raw_v, and 1e-12 relative, or the floor, for stderr.
    # Reservoirs of 2, one short of a block, one past it and a short fourth
    # block; the subspaces put every theta on the atom 0 or 1
    coef = biorthogonal_coefficients(d)
    floor = np.finfo(float).eps * np.abs(coef).sum(axis=1)
    for n in (2, _EVAL_BLOCK - 1, _EVAL_BLOCK + 1, 3 * _EVAL_BLOCK + 5):
        cfg = MonteCarloConfig(seed=d, total_samples=n)
        for cone in (Orthant(d), Subspace(0, d), Subspace(d, d)):
            summary = run_summary(cone, cfg)
            prof = estimate_profile_biorthogonal(cone, cfg, summary=summary)
            values = evaluate_system(coef, summary.reservoir_s
                                     / (summary.reservoir_s + summary.reservoir_t))
            assert values.shape == (n, d + 1)
            raw = values.mean(axis=0)
            spread = values.std(axis=0, ddof=1) / math.sqrt(n)
            stderr = np.maximum(spread, floor)
            assert np.all(np.abs(prof.raw_v - raw) <= 4.0 * floor), (n, cone)
            assert np.all(np.abs(prof.stderr - stderr) <= np.maximum(1e-12 * stderr, floor)), (
                n, cone)


def test_biorthogonal_estimator_rejects_one_sample_reservoir():
    # a one-sample reservoir has no sample standard deviation: 100 drawn
    # and thinned to one (a one-sample run is a config error)
    cfg = MonteCarloConfig(seed=0, total_samples=100, reservoir_cap=1)
    with pytest.raises(ValueError, match="at least 2"):
        estimate_profile_biorthogonal(Orthant(3), cfg)
    two = estimate_profile_biorthogonal(Orthant(3), MonteCarloConfig(seed=0, total_samples=2))
    assert np.all(np.isfinite(two.stderr))


def test_face_and_biorthogonal_estimators_agree():
    # independent seeds; joint standard errors bound the discrepancy
    face = estimate_profile_face(
        Orthant(8), MonteCarloConfig(seed=5, total_samples=50_000))
    bio = estimate_profile_biorthogonal(
        Orthant(8), MonteCarloConfig(seed=9, total_samples=50_000,
                                     reservoir_cap=50_000))
    joint = np.hypot(face.stderr, bio.stderr)
    z = np.abs(face.v - bio.raw_v) / joint
    assert float(z.max()) < 4.0


def test_mixture_design_matrix_rows_are_chi_square_cdfs():
    # one row per threshold, column k = P{chi-square(k) <= threshold}
    thresholds = [0.0, 0.3, 2.0, 7.5, 30.0]
    want = [[chi_square_cdf(k, lam) for k in range(7)] for lam in thresholds]
    assert np.allclose(mixture_design_matrix(6, thresholds), want, rtol=1e-12, atol=1e-13)


def test_mixture_estimator_statistical_dimension():
    # the mixture route recovers the orthant mean dimension
    for seed in (0, 3, 11):
        cfg = MonteCarloConfig(seed=seed, total_samples=200_000)
        prof = estimate_profile_mixture(Orthant(10), cfg)
        assert prof.provenance == "mc_mixture"
        assert np.all(prof.v >= 0.0)
        assert float(prof.v.sum()) == pytest.approx(1.0, rel=1e-12)
        assert abs(prof.statistical_dimension - 5.0) < 0.1


def test_mixture_estimator_subspace_concentrates():
    cfg = MonteCarloConfig(seed=0, total_samples=100_000)
    prof = estimate_profile_mixture(Subspace(3, 8), cfg)
    assert prof.v[3] > 0.98
    assert float(np.sum(prof.v) - prof.v[3]) < 0.01


def test_mixture_estimator_works_past_biorthogonal_cap():
    cfg = MonteCarloConfig(seed=4, total_samples=30_000)
    prof = estimate_profile_mixture(Circular(24, math.pi / 3), cfg)
    assert prof.d == 24
    approx = 24 * math.sin(math.pi / 3) ** 2 + math.cos(2 * math.pi / 3)
    assert abs(prof.statistical_dimension - approx) < 1.0


def test_estimators_reject_a_summary_of_another_dimension():
    cfg = MonteCarloConfig(seed=6, total_samples=2_000)
    summary = run_summary(Orthant(5), cfg)
    with pytest.raises(DimensionMismatchError):
        estimate_profile_biorthogonal(Orthant(6), cfg, summary=summary)


def test_estimators_reject_a_summary_of_another_cone():
    cfg = MonteCarloConfig(seed=6, total_samples=2_000)
    summary = run_summary(Subspace(2, 5), cfg)
    with pytest.raises(UnsupportedConeError, match="Subspace"):
        estimate_profile_biorthogonal(Orthant(5), cfg, summary=summary)
    circ = run_summary(Circular(5, 0.6), cfg)
    with pytest.raises(UnsupportedConeError):
        estimate_profile_biorthogonal(Polar(Circular(5, 0.6)), cfg, summary=circ)
    with pytest.raises(UnsupportedConeError):
        estimate_profile_biorthogonal(Circular(5, 0.7), cfg, summary=circ)


def test_estimators_accept_a_summary_of_an_equal_cone():
    cfg = MonteCarloConfig(seed=6, total_samples=2_000)
    summary = run_summary(Circular(5, 0.6), cfg)
    a = estimate_profile_biorthogonal(Circular(5, 0.6), cfg, summary=summary)
    b = estimate_profile_biorthogonal(Circular(5, 0.6), cfg)
    assert np.array_equal(a.v, b.v)
    gens = np.eye(4)
    summary = run_summary(Generators(gens), cfg)
    a = estimate_profile_biorthogonal(Generators(gens.copy()), cfg, summary=summary)
    assert np.array_equal(a.v, estimate_profile_biorthogonal(Generators(gens), cfg).v)
