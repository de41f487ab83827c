# Standard libraries
import math
import time
from fractions import Fraction

# External libraries
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conevol.special import (
    bennett_psi,
    beta_cdf,
    beta_cdf_family,
    binomial_normal_thresholds,
    binomial_pmf,
    binomial_tail,
    chi_square_cdf_family,
    gauss_laguerre,
    tanh_sinh_rule,
)
from chi_square_oracle import chi_square_cdf

# ---------------------------------------------------------------------------
# Chi-square CDF
# ---------------------------------------------------------------------------

# Reference values frozen from an independent continued-fraction
# implementation cross-checked against standard statistical tables.
CHI2_CASES = [
    (1, 1.0, 0.6826894921370859),
    (2, 0.3, 0.1392920235749422),
    (4, 2.0, 0.2642411176571153),
    (10, 10.0, 0.5595067149347879),
    (3, 50.0, 0.9999999999201082),
    (7, 0.001, 2.4020490518976986e-13),
    (64, 64.0, 0.5235116945237414),
]


@pytest.mark.parametrize("dof,lam,expected", CHI2_CASES)
def test_chi_square_cdf_reference(dof, lam, expected):
    got = chi_square_cdf(dof, lam)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_chi_square_cdf_dof2_closed_form():
    # dof = 2 is exponential(1/2): CDF = 1 - exp(-lam/2)
    for lam in (0.1, 1.0, 5.0, 20.0):
        assert chi_square_cdf(2, lam) == pytest.approx(-math.expm1(-0.5 * lam), rel=1e-13)


def test_chi_square_cdf_point_mass_convention():
    assert chi_square_cdf(0, 0.0) == 1.0
    assert chi_square_cdf(0, 7.3) == 1.0


def test_chi_square_cdf_rejects_bad_args():
    with pytest.raises(ValueError):
        chi_square_cdf(-1, 1.0)
    with pytest.raises(ValueError):
        chi_square_cdf(3, -0.5)


@given(dof=st.integers(min_value=1, max_value=40),
       lam=st.floats(min_value=0.0, max_value=200.0))
def test_chi_square_cdf_in_unit_interval_and_monotone(dof, lam):
    lo = chi_square_cdf(dof, lam)
    hi = chi_square_cdf(dof, lam + 1.0)
    assert 0.0 <= lo <= 1.0
    assert hi >= lo - 1e-14


# ---------------------------------------------------------------------------
# Beta CDF
# ---------------------------------------------------------------------------

# Frozen from the symmetric-relation/continued-fraction oracle.
BETA_CASES = [
    (0.5, 0.5, 0.5, 0.5),
    (1.0, 2.0, 0.25, 0.4375),
    (3.5, 1.5, 0.8, 0.644667952078581),
    (8.0, 8.0, 0.5, 0.5),
    (0.5, 4.0, 0.02, 0.30324592509236614),
    (12.5, 0.5, 0.99, 0.6197005530414497),
]


@pytest.mark.parametrize("a,b,lam,expected", BETA_CASES)
def test_beta_cdf_reference(a, b, lam, expected):
    assert beta_cdf(a, b, lam) == pytest.approx(expected, rel=1e-12)


def test_beta_cdf_uniform_case():
    # Beta(1, 1) is uniform
    for lam in (0.0, 0.25, 0.7, 1.0):
        assert beta_cdf(1.0, 1.0, lam) == pytest.approx(lam, abs=1e-15)


def test_beta_cdf_degenerate_shapes():
    assert beta_cdf(0.0, 3.0, 0.0) == 1.0
    assert beta_cdf(0.0, 3.0, 0.7) == 1.0
    assert beta_cdf(3.0, 0.0, 0.7) == 0.0
    assert beta_cdf(3.0, 0.0, 1.0) == 1.0


@given(a=st.floats(min_value=0.5, max_value=30.0),
       b=st.floats(min_value=0.5, max_value=30.0),
       k=st.integers(min_value=0, max_value=2**53))
def test_beta_cdf_reflection_symmetry(a, b, k):
    # I_x(a, b) = 1 - I_{1-x}(b, a).  lam = k / 2^53 makes 1 - lam exact;
    # a rounded reflection (1 - 1e-20 == 1.0) would test the rounding,
    # not beta_cdf, since I_x(0.5, b) grows like sqrt(x) near 0.
    lam = k / 2.0**53
    left = beta_cdf(a, b, lam)
    right = 1.0 - beta_cdf(b, a, 1.0 - lam)
    assert left == pytest.approx(right, abs=5e-13)
    assert 0.0 <= left <= 1.0


def test_beta_cdf_rejects_out_of_range():
    with pytest.raises(ValueError):
        beta_cdf(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        beta_cdf(-0.5, 1.0, 0.5)


def test_chi_square_cdf_non_finite_lambda():
    # lam = inf is the end of the support; NaN is rejected like a negative lam
    for dof in (0, 1, 3, 40):
        assert chi_square_cdf(dof, math.inf) == 1.0
    with pytest.raises(ValueError):
        chi_square_cdf(3, math.nan)


# ---------------------------------------------------------------------------
# Mixture rows: every k = 0..d at one lambda
# ---------------------------------------------------------------------------

FAMILY_DIMS = [1, 2, 3, 8, 9, 16, 33, 64, 200]


def _chi_family_lambdas(d):
    # 0, a tiny value, both sides of the dof + 1 switch of a low, a middle
    # and the top coordinate, and far out in the upper tail
    switches = [float(k + 1) for k in sorted({1, d // 2, d})]
    return ([0.0, 1e-8, 0.3, 0.5 * d + 0.7, 2.0 * d + 3.0, 10.0 * d + 100.0]
            + [s * (1.0 + e) for s in switches for e in (-1e-9, 0.0, 1e-9)])


def _beta_family_lambdas(d):
    # the ends, a tiny value, and both sides of the switch
    # (a + 1)/(a + b + 2) = (d - k + 2)/(d + 4) of a low, a middle and a high k
    switches = [(d - k + 2.0) / (d + 4.0) for k in sorted({1, d // 2, d - 1})]
    return ([0.0, 1e-8, 0.05, 0.3, 0.5, 0.8, 0.99, 1.0]
            + [s * (1.0 + e) for s in switches for e in (-1e-9, 1e-9)])


@pytest.mark.parametrize("d", FAMILY_DIMS)
def test_chi_square_cdf_family_matches_scalar_and_scipy(d):
    sp = pytest.importorskip("scipy.special")
    for lam in _chi_family_lambdas(d):
        row = chi_square_cdf_family(d, lam)
        assert row.shape == (d + 1,)
        assert row[0] == 1.0
        for k in range(1, d + 1):
            scalar = chi_square_cdf(k, lam)
            assert _close(row[k], float(sp.chdtr(k, lam)), 1e-12, 1e-13), (k, lam)
            # both are sums of positive terms where they are small, so they
            # agree relatively down to the underflow range
            assert _close(row[k], scalar, 1e-12, 1e-290), (k, lam)


@pytest.mark.parametrize("d", FAMILY_DIMS)
def test_beta_cdf_family_matches_scalar_and_scipy(d):
    sp = pytest.importorskip("scipy.special")
    for lam in _beta_family_lambdas(d):
        row = beta_cdf_family(d, lam)
        assert row.shape == (d + 1,)
        for k in range(d + 1):
            a, b = 0.5 * (d - k), 0.5 * k
            assert _close(row[k], beta_cdf(a, b, lam), 1e-12, 1e-290), (k, lam)
            if 0 < k < d:  # scipy has no point masses at the ends
                assert _close(row[k], float(sp.betainc(a, b, lam)), 1e-12, 1e-13), (k, lam)


def test_cdf_families_keep_the_point_mass_conventions():
    for d in (0, 1, 2, 5, 8):
        assert chi_square_cdf_family(d, 0.0).tolist() == [1.0] + [0.0] * d
        assert chi_square_cdf_family(d, math.inf).tolist() == [1.0] * (d + 1)
        for lam in (0.0, 0.4, 1.0):
            row = beta_cdf_family(d, lam)
            # k = d (a = 0) is the mass at 0, k = 0 (b = 0) the mass at 1
            assert row[d] == 1.0 == beta_cdf(0.0, 0.5 * d, lam)
            if d > 0:
                assert row[0] == beta_cdf(0.5 * d, 0.0, lam) == (1.0 if lam == 1.0 else 0.0)
        assert beta_cdf_family(d, 0.0).tolist() == [0.0] * d + [1.0]
        assert beta_cdf_family(d, 1.0).tolist() == [1.0] * (d + 1)


def test_cdf_families_are_monotone_rows_in_unit_interval():
    # monotone in k up to rounding: odd and even k come from separate sums
    for d in (7, 16, 65):
        for lam in (0.5, 0.5 * d, 1.5 * d):
            row = chi_square_cdf_family(d, lam)
            assert np.all((row >= 0.0) & (row <= 1.0))
            assert np.all(np.diff(row) <= 1e-14)  # more degrees of freedom, less mass below
        for lam in (0.1, 0.5, 0.9):
            row = beta_cdf_family(d, lam)
            assert np.all((row >= 0.0) & (row <= 1.0))
            assert np.all(np.diff(row) >= -1e-14)


def test_cdf_families_reject_bad_args():
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError):
            chi_square_cdf_family(4, bad)
        with pytest.raises(ValueError):
            beta_cdf_family(4, bad)
    with pytest.raises(ValueError):
        beta_cdf_family(4, 1.5)
    with pytest.raises(ValueError):
        beta_cdf_family(4, math.inf)
    with pytest.raises(ValueError):
        chi_square_cdf_family(-1, 1.0)
    with pytest.raises(ValueError):
        beta_cdf_family(-1, 0.5)


# ---------------------------------------------------------------------------
# Bennett's psi
# ---------------------------------------------------------------------------

def test_bennett_psi_anchor_values():
    assert bennett_psi(0.0) == 0.0
    assert bennett_psi(-1.0) == 1.0
    assert bennett_psi(-2.0) == math.inf
    # (1+u)log(1+u) - u at u = e-1 collapses to e*1 - (e-1) = 1
    assert bennett_psi(math.e - 1.0) == pytest.approx(1.0, rel=1e-15)


@given(u=st.floats(min_value=-1.0, max_value=50.0))
def test_bennett_psi_nonnegative(u):
    assert bennett_psi(u) >= 0.0


@given(u=st.floats(min_value=0.0, max_value=50.0))
def test_bennett_psi_increasing_on_positive_axis(u):
    assert bennett_psi(u + 0.5) > bennett_psi(u)


# ---------------------------------------------------------------------------
# Binomial helpers
# ---------------------------------------------------------------------------

def test_binomial_reference_values():
    # frozen from exact rational computation
    assert binomial_pmf(10, 0.5, 3) == pytest.approx(0.1171875, rel=1e-13)
    assert binomial_tail(10, 0.5, 3) == pytest.approx(0.9453125, rel=1e-13)
    assert binomial_pmf(31, 0.25, 16) == pytest.approx(0.0009351077438024331, rel=1e-11)
    assert binomial_tail(31, 0.25, 16) == pytest.approx(0.0013016253995430695, rel=1e-11)
    assert binomial_pmf(5, 0.2, 0) == pytest.approx(0.32768, rel=1e-13)


def test_binomial_exact_rational_cross_check():
    # pmf against an exact Fraction evaluation for a half-integer p
    n, k = 12, 5
    p = Fraction(1, 4)
    exact = (math.comb(n, k) * p**k * (1 - p) ** (n - k))
    assert binomial_pmf(n, 0.25, k) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("p", [0.25, 0.5, math.sin(0.7) ** 2, 0.75])
def test_binomial_tail_matches_exact_sums(p):
    # a float p is a dyadic rational a / 2^e, so each tail times 2^(e n) is
    # an integer suffix sum of C(n, j) a^j (2^e - a)^(n-j), and Python
    # rounds int / int correctly.  Every k, at n from 1 to 400 (both
    # parities, powers of two and their neighbours); p >= 1/4 keeps every
    # tail above 1e-241, in the normal floats
    q = Fraction(p)
    a, b = q.numerator, q.denominator - q.numerator
    for n in (1, 2, 3, 4, 7, 8, 31, 64, 99, 100, 127, 199, 256, 400):
        terms = [math.comb(n, j) * a ** j * b ** (n - j) for j in range(n + 1)]
        total, scale = 0, q.denominator ** n
        for k in range(n, -1, -1):
            total += terms[k]
            want = total / scale
            assert abs(binomial_tail(n, p, k) - want) <= 1e-12 * want, (n, k)
        assert binomial_tail(n, p, n + 1) == 0.0


def test_cdf_families_take_a_numpy_integer_d():
    for lam in (0.3, 2.0, 30.0):
        assert np.array_equal(chi_square_cdf_family(np.int64(8), lam),
                              chi_square_cdf_family(8, lam))
    for lam in (0.0, 0.3, 1.0):
        assert np.array_equal(beta_cdf_family(np.int64(8), lam), beta_cdf_family(8, lam))


def test_binomial_pmf_takes_an_array_of_k():
    k = np.arange(13)
    assert np.array_equal(binomial_pmf(12, 0.25, k),
                          [binomial_pmf(12, 0.25, int(j)) for j in k])
    assert np.array_equal(binomial_pmf(12, 1.0, k), k == 12)
    assert binomial_pmf(np.int64(12), 0.25, np.int64(5)) == binomial_pmf(12, 0.25, 5)
    with pytest.raises(ValueError, match="0 <= k <= n"):
        binomial_pmf(12, 0.25, np.arange(-1, 3))
    with pytest.raises(ValueError, match="0 <= k <= n"):
        binomial_pmf(12, 0.25, np.arange(11, 14))


def _normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 63, 64, 400, 1001])
def test_binomial_normal_thresholds_invert_the_binomial_cdf(d):
    # Phi(z_k) against P{Binomial(d, 1/2) <= k}, an exact integer sum over
    # 2**d divided once (Python rounds int / int correctly).  Below 1e-12,
    # where |z_k| > 7, one unit in z_k's last place moves Phi by more than
    # 1e-14 relative, |z| * ulp(z), so the bound there is a few of those
    z = binomial_normal_thresholds(d)
    assert z.shape == (d,)
    total = 0
    for k in range(d):
        total += math.comb(d, k)
        cdf = total / 2 ** d
        if cdf < 1e-300:
            continue
        tol = 1e-14 if cdf >= 1e-12 else 4.0 * abs(z[k]) * np.spacing(abs(z[k]))
        assert abs(_normal_cdf(z[k]) / cdf - 1.0) <= tol, (k, cdf)


@pytest.mark.parametrize("d", [1, 2, 7, 400, 10_000])
def test_binomial_normal_thresholds_are_antisymmetric_increasing_and_read_only(d):
    z = binomial_normal_thresholds(d)
    assert np.array_equal(z, -z[::-1])
    assert np.all(np.diff(z) > 0.0) and np.all(np.isfinite(z))
    assert binomial_normal_thresholds(d) is z
    with pytest.raises(ValueError, match="read-only"):
        z[0] = 0.0


def test_binomial_normal_thresholds_build_quickly_at_the_largest_dimension():
    # d = 10_000 is MAX_AMBIENT_DIM; best of three uncached builds
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        binomial_normal_thresholds.__wrapped__(10_000)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


def test_binomial_tail_edges():
    assert binomial_tail(7, 0.3, 0) == 1.0
    assert binomial_tail(7, 0.3, -2) == 1.0
    assert binomial_tail(7, 0.3, 8) == 0.0
    assert binomial_tail(7, 1.0, 7) == 1.0
    assert binomial_tail(7, 0.0, 1) == 0.0


@given(n=st.integers(min_value=1, max_value=40),
       p=st.floats(min_value=0.01, max_value=0.99),
       k=st.integers(min_value=0, max_value=40))
def test_binomial_tail_pmf_consistency(n, p, k):
    if k > n:
        return
    diff = binomial_tail(n, p, k) - binomial_tail(n, p, k + 1)
    assert diff == pytest.approx(binomial_pmf(n, p, k), abs=1e-12)


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

def test_gauss_laguerre_is_normalized_probability_rule():
    for n, alpha in [(24, 0.0), (96, 2.5), (400, 9.0)]:
        rule = gauss_laguerre(n, alpha)
        assert float(rule.weights.sum()) == pytest.approx(1.0, abs=5e-13)
        # far-tail weights may underflow to exactly 0 at large n
        assert np.all(rule.weights >= 0)
        assert rule.weights[: n // 2].min() > 0
        assert np.all(np.diff(rule.nodes) > 0)


def test_gauss_laguerre_gamma_moments():
    # weights are the Gamma(alpha+1, 1) probability measure:
    # E[X^m] = (alpha+1)(alpha+2)...(alpha+m)
    rule = gauss_laguerre(48, 1.5)
    expect = 1.0
    for m in range(1, 6):
        expect *= 1.5 + m
        assert float(rule.weights @ rule.nodes**m) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("alpha", [1.5, 3.5])
def test_gauss_laguerre_is_exact_to_degree_2n_minus_1(n, alpha):
    # only a Gauss rule for this alpha integrates x^(2n-1) exactly: the
    # zeros of a quasi-orthogonal polynomial such as L_n^(alpha-1) with the
    # alpha Christoffel weights stop at degree 2n - 2
    rule = gauss_laguerre(n, alpha)
    expect = 1.0
    for m in range(1, 2 * n):
        expect *= alpha + m
        got = float(rule.weights @ rule.nodes ** m)
        assert got == pytest.approx(expect, rel=1e-13), m


def test_gauss_laguerre_is_memoized_and_read_only():
    rule = gauss_laguerre(96, 2.5)
    assert gauss_laguerre(96, 2.5) is rule
    fresh = gauss_laguerre.__wrapped__(96, 2.5)
    assert fresh is not rule
    assert np.array_equal(rule.nodes, fresh.nodes)
    assert np.array_equal(rule.weights, fresh.weights)
    with pytest.raises(ValueError, match="read-only"):
        rule.nodes[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rule.weights *= 2.0
    with pytest.raises(AttributeError):
        rule.nodes = np.zeros(96)
    again = gauss_laguerre(96, 2.5)
    assert np.array_equal(again.nodes, fresh.nodes)
    assert np.array_equal(again.weights, fresh.weights)


def test_tanh_sinh_handles_endpoint_singularities():
    x, w = tanh_sinh_rule(0.0, 1.0)
    assert float(w @ np.log(x)) == pytest.approx(-1.0, abs=1e-12)
    assert float(w @ (1.0 / np.sqrt(x))) == pytest.approx(2.0, abs=1e-7)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-13)


def test_tanh_sinh_rejects_empty_interval():
    with pytest.raises(ValueError):
        tanh_sinh_rule(1.0, 1.0)


# ---------------------------------------------------------------------------
# Differential checks against scipy (a test-only dependency)
# ---------------------------------------------------------------------------

def _close(ours, ref, rel, abs_tol):
    return abs(ours - ref) <= rel * abs(ref) + abs_tol


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 10, 40, 64, 200])
def test_chi_square_cdf_matches_scipy(dof):
    sp = pytest.importorskip("scipy.special")
    for lam in [1e-3, 0.5, *(np.linspace(0.1, 3.0, 9) * dof)]:
        # relative accuracy deep in the lower tail, absolute elsewhere
        assert _close(chi_square_cdf(dof, float(lam)), float(sp.chdtr(dof, lam)),
                      1e-12, 1e-13), lam


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 60.0])
@pytest.mark.parametrize("b", [0.5, 1.5, 7.0, 30.0])
def test_beta_cdf_matches_scipy(a, b):
    sp = pytest.importorskip("scipy.special")
    for lam in (1e-4, 0.05, 0.3, 0.5, 0.8, 0.99):
        assert _close(beta_cdf(a, b, lam), float(sp.betainc(a, b, lam)),
                      1e-12, 1e-13), lam


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60, 100, 200])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 3.5, 20.0, 31.0])
def test_gauss_laguerre_matches_scipy(n, alpha):
    sp = pytest.importorskip("scipy.special")
    nodes, weights = sp.roots_genlaguerre(n, alpha)
    rule = gauss_laguerre(n, alpha)
    assert np.allclose(rule.nodes, nodes, rtol=1e-13, atol=0.0)
    # scipy weights integrate against x^alpha e^-x; ours against the
    # gamma density, which divides by Gamma(alpha + 1)
    assert np.allclose(rule.weights, weights / math.gamma(alpha + 1.0),
                       rtol=1e-11, atol=1e-15)


def _mp_laguerre_node(mp, n, alpha, x0):
    # a 40-digit Newton root of L_n^(alpha) from x0, with its normalized weight
    alpha, x = mp.mpf(alpha), mp.mpf(x0)
    for step in range(4):
        p0, p1 = mp.mpf(1), mp.mpf(0)
        for j in range(n):
            p1, p0 = p0, ((2 * j + 1 + alpha - x) * p0 - (j + alpha) * p1) / (j + 1)
        dp = (n * p0 - (n + alpha) * p1) / x
        if step < 3:
            x -= p0 / dp
    weight = (mp.gamma(n + alpha + 1) / (mp.gamma(n + 1) * mp.gamma(alpha + 1))
              / (x * dp * dp))
    return float(x), float(weight)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 3.5, 20.0, 31.0])
def test_gauss_laguerre_400_nodes_matches_mpmath(alpha):
    # subspace_moment uses up to 400 nodes; scipy's own rule overflows to NaN
    # past about 350, so the reference is an mpmath Newton root.  The nodes
    # come from dqds at full relative accuracy, the smallest ones included;
    # far-tail weights inherit their nodes' rounding times |d log w / dx|.
    mp = pytest.importorskip("mpmath").mp
    n = 400
    rule = gauss_laguerre(n, alpha)
    picks = sorted({*range(6), *range(0, n, 50), *range(n - 3, n)})
    with mp.workdps(40):
        ref = np.array([_mp_laguerre_node(mp, n, alpha, rule.nodes[i]) for i in picks])
    assert np.allclose(rule.nodes[picks], ref[:, 0], rtol=1e-13, atol=0.0)
    assert np.allclose(rule.weights[picks], ref[:, 1], rtol=5e-12, atol=1e-15)
