# Standard libraries
import decimal
import hashlib
import math

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
    Subspace,
    Trivial,
)
from conevol.exceptions import (
    ConditioningError,
    DimensionMismatchError,
    UnsupportedConeError,
)
from conevol.profiles import (
    IntrinsicVolumeProfile,
    build_biorthogonal,
    chi_expectation_quadrature,
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
from conevol.sampling import MonteCarloConfig, run_summary
from conevol.special import chi_square_cdf
from biorthogonal_oracle import reference_biorthogonal, reference_evaluate

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


# ---------------------------------------------------------------------------
# Biorthogonal system
# ---------------------------------------------------------------------------

def test_biorthogonal_first_dimension_closed_form():
    system = build_biorthogonal(1)
    # single function: E[f_1(X_1)] = 1 enforced directly
    val = chi_expectation_quadrature(lambda s: system.evaluate(s)[0], 1)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_biorthogonal_evaluate_rows_match_full_matrix():
    system = build_biorthogonal(8)
    s = np.linspace(0.0, 40.0, 1001)
    full = system.evaluate(s)
    assert full.shape == (8, 1001)
    assert np.array_equal(system.evaluate(s, rows=[7]), full[7:])
    assert np.array_equal(system.evaluate(s, rows=[5, 0, 2]), full[[5, 0, 2]])


@pytest.mark.parametrize("d", range(1, 13))
def test_biorthogonal_evaluate_matches_double_double_reference(d):
    # the float64 recurrence against the double-double monomial evaluator
    # it replaced, both on the exact rational build; e^(-s/2) underflows
    # to 0 at s = 1500
    ref = reference_biorthogonal(d)
    draws = np.random.default_rng(d).chisquare(np.repeat(np.arange(1, d + 1), 64))
    s = np.concatenate([[0.0, 5e-324, 1e-300], draws, [200.0, 800.0, 1500.0]])
    got = build_biorthogonal(d).evaluate(s)
    want = reference_evaluate(ref["poly_hi"], ref["poly_lo"], s)
    bound = 1e-13 * np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= bound)
    assert np.all(got[:, -1] == 0.0)


def test_biorthogonal_evaluate_rejects_negative_or_nan():
    system = build_biorthogonal(4)
    for bad in (-1e-300, -1.0, math.nan):
        with pytest.raises(ValueError):
            system.evaluate(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            system.evaluate([bad], rows=[0])
    # exp(-s/2) is 0 long before q_n(sqrt(s/2)) overflows
    assert np.all(build_biorthogonal(20).evaluate([1e300, math.inf]) == 0.0)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_biorthogonality_under_quadrature(d):
    system = build_biorthogonal(d)
    for k in range(0, d + 1):
        vals = [chi_expectation_quadrature(
                    lambda s, j=j: system.evaluate(s)[j - 1], k)
                for j in range(1, d + 1)]
        expected = np.zeros(d)
        if k >= 1:
            expected[k - 1] = 1.0
        assert np.allclose(vals, expected, atol=1e-8)


def test_biorthogonal_residual_certificates():
    systems = [build_biorthogonal(d) for d in (6, 12, 20)]
    for system in systems:
        assert system.residual <= 1e-8
    small, large, cap = (system.condition for system in systems)
    assert small < large < cap
    # cached: repeated calls return the same object
    assert build_biorthogonal(12) is systems[1]


# SHA-256 over build_biorthogonal(d) for d = 1..20, in d order: the bytes
# of coef, a, b, float64(condition) and float64(residual).  The exact
# rational build (tests/biorthogonal_oracle.py) gives the same digest; it
# takes about 45 s over d = 1..20, so the test below checks it for d <= 10.
_BIORTHOGONAL_SHA256 = "52f01b329be3c3d2ba161f39805f586c7d2dd5673a45498998a4290696b0b8b8"


def _biorthogonal_digest():
    digest = hashlib.sha256()
    for d in range(1, 21):
        system = build_biorthogonal(d)
        for part in (system.coef, system.a, system.b,
                     np.float64(system.condition), np.float64(system.residual)):
            digest.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_biorthogonal_systems_are_pinned_for_every_dimension():
    assert _biorthogonal_digest() == _BIORTHOGONAL_SHA256


@pytest.mark.parametrize("d", range(1, 11))
def test_biorthogonal_matches_exact_rational_build(d):
    system = build_biorthogonal(d)
    ref = reference_biorthogonal(d)
    assert system.coef.shape == (d, d + 1)
    for field in ("coef", "a", "b"):
        assert np.array_equal(getattr(system, field), ref[field])
    assert system.condition == ref["condition"]
    assert system.residual == ref["residual"]


def test_biorthogonal_build_ignores_the_callers_decimal_context():
    saved = decimal.getcontext()
    decimal.setcontext(decimal.Context(prec=5, rounding=decimal.ROUND_DOWN))
    try:
        build_biorthogonal.cache_clear()
        digest = _biorthogonal_digest()
        assert decimal.getcontext().prec == 5
    finally:
        decimal.setcontext(saved)
        build_biorthogonal.cache_clear()
    assert digest == _BIORTHOGONAL_SHA256


def test_biorthogonal_dimension_cap():
    with pytest.raises(ConditioningError):
        build_biorthogonal(21)


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


def test_biorthogonal_estimator_rejects_one_sample_reservoir():
    # a one-sample reservoir has no sample standard deviation: one sample
    # drawn, or 100 drawn and thinned to one
    for total, cap in [(1, 100_000), (100, 1)]:
        cfg = MonteCarloConfig(seed=0, total_samples=total, reservoir_cap=cap)
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


def test_estimators_can_share_a_summary():
    cfg = MonteCarloConfig(seed=6, total_samples=20_000)
    summary = run_summary(Orthant(6), cfg)
    a = estimate_profile_face(Orthant(6), cfg, summary=summary)
    b = estimate_profile_face(Orthant(6), cfg)
    assert np.array_equal(a.v, b.v)


def test_estimators_reject_a_summary_of_another_dimension():
    cfg = MonteCarloConfig(seed=6, total_samples=2_000)
    summary = run_summary(Orthant(5), cfg)
    for estimate in (estimate_profile_face, estimate_profile_biorthogonal,
                     estimate_profile_mixture):
        with pytest.raises(DimensionMismatchError):
            estimate(Orthant(6), cfg, summary=summary)


def test_estimators_reject_a_summary_of_another_cone():
    cfg = MonteCarloConfig(seed=6, total_samples=2_000)
    summary = run_summary(Subspace(2, 5), cfg)
    for estimate in (estimate_profile_face, estimate_profile_biorthogonal,
                     estimate_profile_mixture):
        with pytest.raises(UnsupportedConeError, match="Subspace"):
            estimate(Orthant(5), cfg, summary=summary)
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
    a = estimate_profile_face(Generators(gens.copy()), cfg, summary=summary)
    assert np.array_equal(a.v, estimate_profile_face(Orthant(4), cfg).v)


def test_face_estimator_rejects_a_summary_without_face_counts():
    cfg = MonteCarloConfig(seed=6, total_samples=2_000)
    summary = run_summary(Circular(5, 0.6), cfg)
    with pytest.raises(UnsupportedConeError):
        estimate_profile_face(Orthant(5), cfg, summary=summary)
