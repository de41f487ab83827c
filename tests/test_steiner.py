# Standard libraries
import math

# External libraries
import numpy as np
import pytest

from conevol.cones import Circular, Generators, Orthant, Polar, Product, Subspace, Trivial
from conevol.profiles import (
    exact_profile,
    profile_from_raw,
    reverse_profile,
)
from conevol.exceptions import NumericalGuardError
from conevol.sampling import MonteCarloConfig
from conevol import steiner
from conevol.special import beta_cdf
from conevol.steiner import (
    BivariateFunctional,
    chi_bar_squared,
    empirical_steiner_cdf,
    gaussian_steiner_cdf,
    master_phi,
    phi_mc,
    preset_functionals,
    spherical_steiner_cdf,
    subspace_moment,
    wills_functional,
    wills_mc,
)
from chi_square_oracle import chi_expectation_quadrature, chi_square_cdf

# ---------------------------------------------------------------------------
# Functional declarations
# ---------------------------------------------------------------------------

def test_functional_growth_validation():
    with pytest.raises(ValueError):
        BivariateFunctional(lambda a, b: a, growth="wild")
    # exponential rate at or past 1/2 diverges against the chi-square tail
    with pytest.raises(ValueError):
        BivariateFunctional(lambda a, b: np.exp(0.5 * a), growth="exp", xi=0.5)
    with pytest.raises(ValueError):
        BivariateFunctional(lambda a, b: a, growth="poly", xi=0.1)
    with pytest.raises(ValueError):
        BivariateFunctional(lambda a, b: np.float64(1.0), growth="bounded")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            BivariateFunctional(lambda a, b: a / (b - b), growth="poly")


def test_preset_functionals_catalog():
    presets = preset_functionals()
    assert set(presets) == {"a", "b", "a2", "min_a_10", "exp_a4"}
    assert presets["exp_a4"].growth == "exp"
    assert presets["exp_a4"].xi == 0.25
    assert not presets["min_a_10"].smooth


# ---------------------------------------------------------------------------
# Subspace moments
# ---------------------------------------------------------------------------

def test_subspace_moment_first_moments():
    presets = preset_functionals()
    value, se = subspace_moment(presets["a"], 7, 12)
    assert se == 0.0
    assert value == pytest.approx(7.0, rel=1e-12)
    value, _ = subspace_moment(presets["b"], 2, 9)
    assert value == pytest.approx(7.0, rel=1e-12)
    # k = 0 pins the first argument at zero
    value, _ = subspace_moment(presets["a"], 0, 5)
    assert value == pytest.approx(0.0, abs=1e-14)


def test_subspace_moment_second_moment():
    value, _ = subspace_moment(preset_functionals()["a2"], 3, 8)
    # E[X^2] = dof (dof + 2) for chi-square
    assert value == pytest.approx(15.0, rel=1e-11)


def test_subspace_moment_exponential_tilt_exact():
    value, _ = subspace_moment(preset_functionals()["exp_a4"], 4, 6)
    # E[exp(X_4 / 4)] = (1 - 1/2)^(-2) = 4
    assert value == pytest.approx(4.0, rel=1e-12)


def test_scaled_chi_rule_is_memoized_and_read_only():
    rule = steiner._scaled_chi_rule(5, -0.4, 116)
    assert steiner._scaled_chi_rule(5, -0.4, 116) is rule
    fresh = steiner._scaled_chi_rule.__wrapped__(5, -0.4, 116)
    assert np.array_equal(rule[0], fresh[0]) and np.array_equal(rule[1], fresh[1])
    assert rule[2] == fresh[2]
    for arr in rule[:2]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    point_mass = steiner._scaled_chi_rule(0, 0.25)
    with pytest.raises(ValueError, match="read-only"):
        point_mass[1][0] = 2.0


def test_subspace_moment_decaying_exponential():
    f = BivariateFunctional(lambda a, b: np.exp(-2.0 * (a + b)),
                            growth="exp", xi=-2.0)
    value, _ = subspace_moment(f, 2, 5)
    # product of chi-square Laplace transforms: 5^(-(2+3)/2)
    assert value == pytest.approx(5.0 ** -2.5, rel=1e-10)


def test_subspace_moment_nonsmooth_matches_quadrature_oracle():
    cfg = MonteCarloConfig(seed=14, total_samples=200_000)
    value, se = subspace_moment(preset_functionals()["min_a_10"], 3, 6, config=cfg)
    assert se > 0.0
    oracle = chi_expectation_quadrature(lambda s: np.minimum(s, 10.0), 3)
    assert abs(value - oracle) < 4.0 * se


def test_subspace_moment_validates_split():
    with pytest.raises(ValueError):
        subspace_moment(preset_functionals()["a"], 5, 4)


# ---------------------------------------------------------------------------
# Master identity
# ---------------------------------------------------------------------------

def test_master_phi_orthant_moments():
    presets = preset_functionals()
    prof = exact_profile(Orthant(4))
    value, se = master_phi(presets["a"], prof)
    assert se == 0.0
    assert value == pytest.approx(2.0, rel=1e-12)   # statistical dimension
    value, _ = master_phi(presets["a2"], prof)
    # E[V(V+2)] for V ~ Binomial(4, 1/2): E V^2 + 2 E V = 5 + 4
    assert value == pytest.approx(9.0, rel=1e-11)


def test_master_phi_orthant8_moments_to_rounding():
    # E[V] = 4 and E[V(V+2)] = Var V + 4^2 + 2*4 = 26 for V ~ Binomial(8, 1/2);
    # Laguerre nodes from the bidiagonal SVD carry full relative accuracy
    presets = preset_functionals()
    prof = exact_profile(Orthant(8))
    assert master_phi(presets["a"], prof)[0] == pytest.approx(4.0, rel=1e-14, abs=0.0)
    assert master_phi(presets["a2"], prof)[0] == pytest.approx(26.0, rel=1e-14, abs=0.0)


def test_master_phi_reduces_to_subspace_moment():
    prof = exact_profile(Subspace(3, 8))
    f = preset_functionals()["a2"]
    direct, _ = subspace_moment(f, 3, 8)
    viaprofile, _ = master_phi(f, prof)
    assert viaprofile == pytest.approx(direct, rel=1e-13)


def test_master_phi_agrees_with_direct_sampling():
    cone = Orthant(6)
    prof = exact_profile(cone)
    f = preset_functionals()["min_a_10"]
    cfg = MonteCarloConfig(seed=3, total_samples=100_000)
    lhs, lhs_se = phi_mc(cone, f, cfg)
    rhs, rhs_se = master_phi(f, prof, config=MonteCarloConfig(seed=77, total_samples=100_000))
    assert abs(lhs - rhs) < 4.0 * math.hypot(lhs_se, rhs_se) + 1e-3


@pytest.mark.parametrize("cone", [Orthant(6), Polar(Circular(5, 0.6)),
                                  Generators(np.eye(3))])
def test_phi_mc_on_a_sequence_matches_one_call_per_functional(cone):
    # one pass for several functionals gives each the bits of its own pass,
    # at any worker count, with chunks smaller than a unit and whole units
    fs = list(preset_functionals().values())
    for cfg in (MonteCarloConfig(seed=5, total_samples=3001, chunk_size=512),
                MonteCarloConfig(seed=6, total_samples=70_000)):
        alone = [phi_mc(cone, f, cfg) for f in fs]
        assert phi_mc(cone, fs, cfg) == alone
        assert phi_mc(cone, fs, cfg, workers=3) == alone
        assert phi_mc(cone, tuple(fs[1:2]), cfg) == alone[1:2]


# ---------------------------------------------------------------------------
# Expansion CDFs
# ---------------------------------------------------------------------------

def test_gaussian_steiner_cdf_subspace_closed_form():
    prof = exact_profile(Subspace(2, 7))
    for lam in (0.0, 0.5, 3.0, 12.0):
        assert gaussian_steiner_cdf(prof, lam) == pytest.approx(
            chi_square_cdf(5, lam), rel=1e-13)
    with pytest.raises(ValueError):
        gaussian_steiner_cdf(prof, -0.1)


def test_expansion_cdfs_match_scalar_mixture_sums():
    # the mixtures run on the CDF families; summing the scalar CDFs per k is
    # the oracle
    rng = np.random.default_rng(11)
    for d in (1, 8, 9, 40):
        prof = profile_from_raw(d, rng.random(d + 1), None, "test")
        v = prof.v
        for lam in (0.0, 0.7, 0.5 * d, d + 1.0, 3.0 * d + 5.0):
            gauss = sum(v[k] * chi_square_cdf(d - k, lam) for k in range(d + 1))
            chibar = sum(v[k] * chi_square_cdf(k, lam) for k in range(d + 1))
            assert gaussian_steiner_cdf(prof, lam) == pytest.approx(gauss, rel=1e-13, abs=1e-15)
            assert chi_bar_squared(prof).cdf(lam) == pytest.approx(chibar, rel=1e-13, abs=1e-15)
        for lam in (0.0, 0.2, 0.5, 0.95, 1.0):
            sph = sum(v[k] * beta_cdf(0.5 * (d - k), 0.5 * k, lam) for k in range(d + 1))
            assert spherical_steiner_cdf(prof, lam) == pytest.approx(sph, rel=1e-13, abs=1e-15)


def test_expansion_cdfs_at_non_finite_lambda():
    prof = exact_profile(Orthant(6))
    law = chi_bar_squared(prof)
    assert gaussian_steiner_cdf(prof, math.inf) == pytest.approx(1.0, abs=1e-15)
    assert law.cdf(math.inf) == pytest.approx(1.0, abs=1e-15)
    for cdf in (lambda lam: gaussian_steiner_cdf(prof, lam), law.cdf,
                lambda lam: spherical_steiner_cdf(prof, lam)):
        with pytest.raises(ValueError):
            cdf(math.nan)


def test_gaussian_steiner_cdf_monotone_and_saturating():
    prof = exact_profile(Orthant(5))
    grid = [gaussian_steiner_cdf(prof, lam) for lam in (0.0, 1.0, 2.0, 8.0, 90.0)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))
    # the v_d component sits at distance zero
    assert grid[0] == pytest.approx(prof.v[5], rel=1e-13)
    assert grid[-1] == pytest.approx(1.0, abs=1e-10)


def test_spherical_steiner_cdf_conventions():
    # the full subspace covers the sphere: distance is identically zero
    full = exact_profile(Subspace(6, 6))
    for lam in (0.0, 0.3, 1.0):
        assert spherical_steiner_cdf(full, lam) == 1.0
    prof = exact_profile(Orthant(3))
    assert spherical_steiner_cdf(prof, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert spherical_steiner_cdf(prof, 0.0) == pytest.approx(prof.v[3], rel=1e-13)
    with pytest.raises(ValueError):
        spherical_steiner_cdf(prof, 1.5)


def test_empirical_steiner_cdf_tracks_exact_mixture():
    cone = Orthant(6)
    prof = exact_profile(cone)
    cfg = MonteCarloConfig(seed=8, total_samples=40_000)
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    p, se = empirical_steiner_cdf(cone, grid, cfg)
    truth = np.array([gaussian_steiner_cdf(prof, lam) for lam in grid])
    assert np.all(np.abs(p - truth) < 4.0 * se + 1e-3)
    q, qse = empirical_steiner_cdf(cone, np.array([0.25, 0.75]), cfg, kind="spherical")
    struth = np.array([spherical_steiner_cdf(prof, lam) for lam in (0.25, 0.75)])
    assert np.all(np.abs(q - struth) < 4.0 * qse + 1e-3)
    with pytest.raises(ValueError):
        empirical_steiner_cdf(cone, grid, cfg, kind="cubical")


def test_empirical_steiner_cdf_deterministic():
    cfg = MonteCarloConfig(seed=10, total_samples=5_000)
    grid = np.array([1.0, 2.0])
    a, _ = empirical_steiner_cdf(Circular(5, 0.8), grid, cfg)
    b, _ = empirical_steiner_cdf(Circular(5, 0.8), grid, cfg)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Chi-bar-squared mixture law
# ---------------------------------------------------------------------------

def test_chi_bar_squared_cdf_is_polar_expansion():
    prof = exact_profile(Orthant(7))
    law = chi_bar_squared(prof)
    flipped = reverse_profile(prof)
    for lam in (0.0, 0.5, 2.0, 9.0):
        assert law.cdf(lam) == pytest.approx(
            gaussian_steiner_cdf(flipped, lam), rel=1e-13)
    with pytest.raises(ValueError):
        law.cdf(-1.0)


def test_chi_bar_squared_sampler_moments():
    prof = exact_profile(Orthant(8))
    law = chi_bar_squared(prof)
    cfg = MonteCarloConfig(seed=12, total_samples=40_000)
    x = law.sample(cfg)
    assert x.shape == (40_000,)
    assert np.all(x >= 0.0)
    # mean = statistical dimension; variance = 2 E V + Var V = 8 + 2
    se = math.sqrt(10.0 / 40_000)
    assert abs(float(x.mean()) - 4.0) < 4.0 * se
    assert float(x.var()) == pytest.approx(10.0, rel=0.1)
    assert np.array_equal(x, law.sample(cfg))


def test_chi_bar_squared_sample_does_not_depend_on_chunk_size():
    # the draws come from 2**14-sample stream units, whatever the chunk size
    law = chi_bar_squared(exact_profile(Orthant(5)))
    draws = [law.sample(MonteCarloConfig(seed=3, total_samples=40_000, chunk_size=chunk))
             for chunk in (1 << 14, 1, 512)]
    assert all(np.array_equal(draws[0], other) for other in draws[1:])


def test_chi_bar_squared_sampler_point_mass():
    x = chi_bar_squared(exact_profile(Trivial(4))).sample(
        MonteCarloConfig(seed=1, total_samples=100))
    assert np.array_equal(x, np.zeros(100))


def test_chi_bar_squared_sample_cdf_consistency():
    prof = exact_profile(Orthant(5))
    law = chi_bar_squared(prof)
    x = law.sample(MonteCarloConfig(seed=13, total_samples=50_000))
    for lam in (0.5, 2.0, 5.0):
        emp = float(np.mean(x <= lam))
        se = math.sqrt(emp * (1.0 - emp) / 50_000)
        assert abs(emp - law.cdf(lam)) < 4.0 * se + 1e-3


# ---------------------------------------------------------------------------
# Wills functional
# ---------------------------------------------------------------------------

def test_wills_functional_orthant_closed_form():
    for d in (1, 4, 9):
        prof = exact_profile(Orthant(d))
        for lam in (0.3, 1.0, 2.5):
            assert wills_functional(prof, lam) == pytest.approx(
                ((1.0 + lam) / 2.0) ** d, rel=1e-12)
    with pytest.raises(ValueError):
        wills_functional(exact_profile(Orthant(2)), 0.0)


@pytest.mark.parametrize("lam", [0.3, 0.9, 2.0, 5.0])
def test_wills_identity_polynomial_vs_master_quadrature(lam):
    # lam^d * E[exp(xi * dist^2)] with xi = (1 - lam^2)/2 recovers the
    # polynomial; exercised through the profile-weighted moment engine
    d = 8
    prof = exact_profile(Orthant(d))
    xi = 0.5 * (1.0 - lam * lam)
    f = BivariateFunctional(lambda a, b: np.exp(xi * b), growth="exp", xi=xi)
    phi, se = master_phi(f, prof)
    assert se == 0.0
    target = wills_functional(prof, lam)
    assert abs(lam ** d * phi - target) <= 1e-8 * max(1.0, target)


def test_wills_mc_importance_sampled_branch():
    # lam < 1 runs under the scaled measure; the estimate must stay honest
    cone = Orthant(8)
    cfg = MonteCarloConfig(seed=15, total_samples=150_000)
    est, se = wills_mc(cone, 0.5, cfg)
    assert se < 0.01
    assert abs(est - 0.75 ** 8) < 4.0 * se


def test_wills_mc_direct_branch_and_unit_case():
    cone = Orthant(6)
    cfg = MonteCarloConfig(seed=16, total_samples=50_000)
    est, se = wills_mc(cone, 1.0, cfg)
    assert est == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    est, se = wills_mc(cone, 1.5, cfg)
    assert abs(est - 1.25 ** 6) < 4.0 * se
    with pytest.raises(ValueError):
        wills_mc(cone, 0.0, cfg)


@pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf])
def test_wills_rejects_lambda_that_is_not_finite(lam):
    with pytest.raises(ValueError, match="finite"):
        wills_functional(exact_profile(Orthant(3)), lam)
    with pytest.raises(ValueError, match="finite"):
        wills_mc(Orthant(3), lam, MonteCarloConfig(seed=0, total_samples=100))


def test_wills_functional_guards_overflow():
    with pytest.raises(NumericalGuardError, match="overflows"):
        wills_functional(exact_profile(Orthant(8)), 1e300)
    with pytest.raises(NumericalGuardError, match="overflows"):
        wills_functional(exact_profile(Orthant(200)), 40.0)
    # tiny powers underflow to zero and leave v_0
    assert wills_functional(exact_profile(Orthant(8)), 1e-300) == 0.5 ** 8


@pytest.mark.parametrize("lam", [1e300, 1e-300])
def test_wills_mc_guards_scale_outside_the_float_range(lam):
    with pytest.raises(NumericalGuardError, match="flows at lam"):
        wills_mc(Orthant(8), lam, MonteCarloConfig(seed=0, total_samples=100))


@pytest.mark.parametrize("mean, se", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
def test_wills_mc_guards_estimates_that_are_not_finite(monkeypatch, mean, se):
    monkeypatch.setattr(steiner, "phi_mc", lambda *args: (mean, se))
    with pytest.raises(NumericalGuardError, match="not finite"):
        wills_mc(Orthant(4), 0.5, MonteCarloConfig(seed=0, total_samples=100))


# Generator forms of an orthant and of a product that is not palindromic:
# the orthant as the cone of I_6, the subspace as the cone of +-e_1, +-e_2
# in R^5.  Sampled orthant and subspace leaves draw their norms from the
# master Steiner law itself; a generator cone is sampled as full Gaussian
# rows and projected by nnls_solve, so the Monte Carlo side of each
# identity below comes from real projections
_GENERATOR_FORMS = {
    "orthant:6": (Orthant(6), Generators(np.eye(6))),
    "prod(orthant:3,subspace:2:5)": (
        Product(Orthant(3), Subspace(2, 5)),
        Product(Generators(np.eye(3)), Generators(np.vstack([np.eye(2, 5), -np.eye(2, 5)])))),
}


@pytest.mark.parametrize("label", sorted(_GENERATOR_FORMS))
def test_monte_carlo_identities_on_full_gaussian_rows(label):
    exact, cone = _GENERATOR_FORMS[label]
    prof = exact_profile(exact)
    cfg = MonteCarloConfig(seed=18, total_samples=40_000)
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    p, se = empirical_steiner_cdf(cone, grid, cfg)
    truth = np.array([gaussian_steiner_cdf(prof, lam) for lam in grid])
    assert np.all(np.abs(p - truth) < 4.0 * se + 1e-3)
    q, qse = empirical_steiner_cdf(cone, np.array([0.25, 0.75]), cfg, kind="spherical")
    struth = np.array([spherical_steiner_cdf(prof, lam) for lam in (0.25, 0.75)])
    assert np.all(np.abs(q - struth) < 4.0 * qse + 1e-3)
    # ||proj_C(g)||^2 is dist^2(g, polar C)
    c, cse = empirical_steiner_cdf(Polar(cone), grid, cfg)
    ctruth = np.array([chi_bar_squared(prof).cdf(lam) for lam in grid])
    assert np.all(np.abs(c - ctruth) < 4.0 * cse + 1e-3)
    for name in ("a", "min_a_10"):
        f = preset_functionals()[name]
        lhs, lhs_se = phi_mc(cone, f, MonteCarloConfig(seed=19, total_samples=40_000))
        rhs, rhs_se = master_phi(f, prof, config=MonteCarloConfig(seed=79, total_samples=40_000))
        assert abs(lhs - rhs) < 4.0 * math.hypot(lhs_se, rhs_se) + 1e-3
    for lam in (0.5, 1.5):
        est, se = wills_mc(cone, lam, MonteCarloConfig(seed=20, total_samples=40_000))
        assert abs(est - wills_functional(prof, lam)) < 4.0 * se


# ---------------------------------------------------------------------------
# Identities on profiles that are not palindromic
# ---------------------------------------------------------------------------

def _chi_square_cdf_closed(k, x):
    """P(chi^2_k <= x) in closed form: the Poisson sum for even k and the
    erf plus half-integer Poisson terms for odd k."""
    if k == 0:
        return 1.0
    h = 0.5 * x
    if k % 2 == 0:
        return 1.0 - math.exp(-h) * sum(h ** j / math.factorial(j) for j in range(k // 2))
    return math.erf(math.sqrt(h)) - math.exp(-h) * sum(
        h ** (j + 0.5) / math.gamma(j + 1.5) for j in range(k // 2))


def _beta_cdf_closed(a, b, x):
    """I_x(a, b) for a, b in {1/2, 1, 3/2, ...}: one of the four closed forms
    at a, b <= 1, raised by I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b / (a B(a, b))
    and I_x(a, b+1) = I_x(a, b) + x^a (1-x)^b / (b B(a, b))."""
    a0, b0 = 1.0 if a % 1 == 0 else 0.5, 1.0 if b % 1 == 0 else 0.5
    value = {(0.5, 0.5): 2.0 / math.pi * math.asin(math.sqrt(x)),
             (0.5, 1.0): math.sqrt(x),
             (1.0, 0.5): 1.0 - math.sqrt(1.0 - x),
             (1.0, 1.0): x}[a0, b0]

    def term(p, q):
        return x ** p * (1.0 - x) ** q * math.gamma(p + q) / (math.gamma(p) * math.gamma(q))
    while a0 < a:
        value -= term(a0, b0) / a0
        a0 += 1.0
    while b0 < b:
        value += term(a0, b0) / b0
        b0 += 1.0
    return value


# V is 3 on Subspace(3, 8) and 2 + Binomial(3, 1/2) on Orthant(3) x
# Subspace(2, 5); neither profile is palindromic, so a reversed profile
# index changes every identity below
_NOT_PALINDROMIC = {
    "subspace:3:8": (Subspace(3, 8), {3: 1.0}, lambda lam: lam ** 3),
    "prod(orthant:3,subspace:2:5)": (Product(Orthant(3), Subspace(2, 5)),
                                     {2 + i: math.comb(3, i) / 8.0 for i in range(4)},
                                     lambda lam: lam ** 2 * ((1.0 + lam) / 2.0) ** 3),
}


@pytest.mark.parametrize("label", sorted(_NOT_PALINDROMIC))
def test_wills_functional_on_profiles_that_are_not_palindromic(label):
    cone, _, wills = _NOT_PALINDROMIC[label]
    prof = exact_profile(cone)
    for lam in (0.3, 2.0):
        assert wills_functional(prof, lam) == pytest.approx(wills(lam), rel=1e-13)


@pytest.mark.parametrize("label", sorted(_NOT_PALINDROMIC))
def test_master_phi_on_profiles_that_are_not_palindromic(label):
    cone, law, _ = _NOT_PALINDROMIC[label]
    prof = exact_profile(cone)
    # E f(X_k, X'_{d-k}) for f = a, b, a^2 and exp(a/4)
    moments = {"a": lambda k: k, "b": lambda k: 8 - k, "a2": lambda k: k * (k + 2),
               "exp_a4": lambda k: 2.0 ** (0.5 * k)}
    for name, moment in moments.items():
        value, se = master_phi(preset_functionals()[name], prof)
        assert se == 0.0
        assert value == pytest.approx(sum(w * moment(k) for k, w in law.items()), rel=1e-11)


@pytest.mark.parametrize("label", sorted(_NOT_PALINDROMIC))
def test_expansion_cdfs_on_profiles_that_are_not_palindromic(label):
    cone, law, _ = _NOT_PALINDROMIC[label]
    prof = exact_profile(cone)
    chi_bar = chi_bar_squared(prof)
    for lam in (0.5, 2.0, 5.0, 11.0):
        # dist^2 is chi^2_{d-k} and ||proj||^2 is chi^2_k given V = k
        gauss = sum(w * _chi_square_cdf_closed(8 - k, lam) for k, w in law.items())
        proj = sum(w * _chi_square_cdf_closed(k, lam) for k, w in law.items())
        assert gaussian_steiner_cdf(prof, lam) == pytest.approx(gauss, rel=1e-12)
        assert chi_bar.cdf(lam) == pytest.approx(proj, rel=1e-12)
    for lam in (0.1, 0.35, 0.6, 0.9):
        # the squared sphere distance t / (s + t) is Beta((d-k)/2, k/2)
        sph = sum(w * _beta_cdf_closed(0.5 * (8 - k), 0.5 * k, lam) for k, w in law.items())
        assert spherical_steiner_cdf(prof, lam) == pytest.approx(sph, rel=1e-12)
