# Standard libraries
import math

# External libraries
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conevol.bounds import (
    TailBoundReport,
    bennett_tails,
    circular_approximations,
    circular_interlacing_tail,
    combined_tail,
    exp_moment_bound,
    goe_variance_asymptotics,
    product_tail,
    variance_bound,
)
from conevol.exceptions import UnsupportedConeError

# Exact Binomial(10, 1/2) tails for the orthant in R^10, the sharpest
# available truth the bounds have to dominate.
ORTHANT10_UPPER = {1: 0.376953125, 2: 0.171875, 3: 0.0546875,
                   4: 0.0107421875, 5: 0.0009765625}
ORTHANT10_TWO_SIDED = {1: 0.75390625, 2: 0.34375, 3: 0.109375,
                       4: 0.021484375, 5: 0.001953125}

# ---------------------------------------------------------------------------
# Variance and exponential moment bounds
# ---------------------------------------------------------------------------

def test_variance_bound_values():
    assert variance_bound(5.0, 5.0) == 10.0
    assert variance_bound(16.5, 47.5) == 33.0
    assert variance_bound(0.0, 8.0) == 0.0
    with pytest.raises(ValueError):
        variance_bound(-1.0, 3.0)


def test_exp_moment_bound_values():
    assert exp_moment_bound(0.0, 5.0, 5.0) == 1.0
    # the polar branch is the smaller one here
    assert exp_moment_bound(0.1, 5.0, 5.0) == pytest.approx(
        1.0479405767270782, rel=1e-13)
    # huge rates saturate instead of overflowing
    assert exp_moment_bound(400.0, 5.0, 0.0) == 1.0
    assert math.isinf(exp_moment_bound(400.0, 5.0, 5.0))


@given(zeta=st.floats(-3.0, 3.0), a=st.floats(0.0, 40.0), b=st.floats(0.0, 40.0))
def test_exp_moment_bound_swap_symmetry(zeta, a, b):
    assert exp_moment_bound(zeta, a, b) == exp_moment_bound(-zeta, b, a)
    assert exp_moment_bound(zeta, a, b) >= 1.0


def test_exp_moment_bound_dominates_orthant_mgf():
    # E exp(zeta*(V - 5)) for V ~ Binomial(10, 1/2), in closed form
    for i in range(-10, 11):
        zeta = 0.1 * i
        exact = math.exp(-5.0 * zeta) * ((1.0 + math.exp(zeta)) / 2.0) ** 10
        assert exact <= exp_moment_bound(zeta, 5.0, 5.0) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Bennett tails
# ---------------------------------------------------------------------------

def test_bennett_tails_at_zero_deviation():
    up, lo = bennett_tails(0.0, 5.0, 5.0)
    assert up == 1.0 and lo == 1.0


def test_bennett_tails_vanish_past_the_support_edge():
    # a deviation above the polar dimension is impossible upward
    up, lo = bennett_tails(6.0, 10.0, 5.0)
    assert up == 0.0
    assert lo > 0.0
    # and symmetrically impossible downward
    up, lo = bennett_tails(6.0, 5.0, 10.0)
    assert lo == 0.0
    assert up > 0.0


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_bennett_dominates_exact_binomial(lam):
    up, lo = bennett_tails(float(lam), 5.0, 5.0)
    assert ORTHANT10_UPPER[lam] <= up
    # the orthant is self-polar, so the lower tail mirrors the upper
    assert ORTHANT10_UPPER[lam] <= lo


def test_bennett_tails_validation():
    with pytest.raises(ValueError):
        bennett_tails(-1.0, 5.0, 5.0)
    with pytest.raises(UnsupportedConeError):
        bennett_tails(1.0, 0.0, 5.0)
    with pytest.raises(UnsupportedConeError):
        bennett_tails(1.0, 5.0, 0.0)


@given(lam=st.floats(0.0, 30.0), delta=st.floats(0.5, 30.0))
def test_bennett_tails_bounded_by_one(lam, delta):
    up, lo = bennett_tails(lam, delta, 60.0 - delta)
    assert 0.0 <= up <= 1.0
    assert 0.0 <= lo <= 1.0


# ---------------------------------------------------------------------------
# Combined and product bounds
# ---------------------------------------------------------------------------

def test_combined_tail_values():
    assert combined_tail(0.0, 5.0, 5.0) == 2.0
    assert combined_tail(4.0, 5.0, 5.0) == pytest.approx(
        1.0635030602611413, rel=1e-13)  # frozen regression anchor
    for lam in (2, 3, 4, 5):
        assert ORTHANT10_TWO_SIDED[lam] <= combined_tail(float(lam), 5.0, 5.0)
    with pytest.raises(ValueError):
        combined_tail(-0.5, 5.0, 5.0)


def test_combined_tail_decreasing():
    vals = [combined_tail(lam, 7.0, 9.0) for lam in (0.0, 1.0, 3.0, 8.0, 20.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_product_tail_single_factor_reduces_to_combined():
    for lam in (0.0, 1.5, 6.0):
        assert product_tail(lam, [(5.0, 5.0)]) == combined_tail(lam, 5.0, 5.0)


def test_product_tail_orthant_factorization():
    # orthant(10) = orthant(4) x orthant(6): summed variance proxies equal
    # the unsplit min, so the bounds coincide
    parts = [(2.0, 2.0), (3.0, 3.0)]
    for lam in (1.0, 4.0):
        assert product_tail(lam, parts) == pytest.approx(
            combined_tail(lam, 5.0, 5.0), rel=1e-15)
    with pytest.raises(ValueError):
        product_tail(1.0, [(2.0, -1.0)])


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

def test_tail_bound_report_at_zero():
    report = TailBoundReport.evaluate(0.0, 5.0, 5.0)
    assert report.upper_bennett == 1.0
    assert report.lower_bennett == 1.0
    assert report.combined == 2.0
    assert report.variance_bound == 10.0
    assert math.isinf(report.chebyshev)


def test_tail_bound_report_as_dict():
    report = TailBoundReport.evaluate(4.0, 5.0, 5.0)
    data = report.as_dict()
    assert data["lambda"] == 4.0
    assert data["delta"] == 5.0
    assert data["delta_polar"] == 5.0
    assert data["combined"] == pytest.approx(1.0635030602611413)
    assert data["chebyshev"] == pytest.approx(10.0 / 16.0)
    assert set(data) == {"lambda", "upper_bennett", "lower_bennett", "combined",
                         "variance_bound", "chebyshev", "delta", "delta_polar"}


def test_tail_bound_report_rejects_degenerate_cone():
    with pytest.raises(UnsupportedConeError):
        TailBoundReport.evaluate(1.0, 0.0, 10.0)


# ---------------------------------------------------------------------------
# Circular cone asymptotics
# ---------------------------------------------------------------------------

def test_circular_approximations_values():
    delta, var, eps1, eps2 = circular_approximations(64, math.pi / 6)
    assert delta == pytest.approx(16.5, rel=1e-13)
    assert var == pytest.approx(23.25, rel=1e-13)
    assert eps2 == pytest.approx(eps1 * 66.0, rel=1e-13)
    # the documented first-moment error bound at d = 16, alpha = pi/4
    _, _, eps1, _ = circular_approximations(16, math.pi / 4)
    assert eps1 == pytest.approx(0.39264483338629685, rel=1e-12)


def test_circular_approximations_self_dual_angle():
    delta, var, _, _ = circular_approximations(20, math.pi / 4)
    assert delta == pytest.approx(10.0, rel=1e-13)
    assert var == pytest.approx(9.0, rel=1e-13)


def test_circular_approximations_error_decays_with_dimension():
    eps_small = circular_approximations(16, math.pi / 6)[2]
    eps_large = circular_approximations(128, math.pi / 6)[2]
    assert eps_large < 1e-5 * eps_small


def test_circular_approximations_validation():
    with pytest.raises(ValueError):
        circular_approximations(2, 0.5)
    with pytest.raises(ValueError):
        circular_approximations(16, 0.0)
    with pytest.raises(ValueError):
        circular_approximations(16, 0.5 * math.pi)


def test_circular_interlacing_values():
    lower, upper = circular_interlacing_tail(64, math.pi / 6, 16)
    assert lower == pytest.approx(0.0013016253995430695, rel=1e-11)
    assert upper == pytest.approx(0.004106948630950372, rel=1e-11)
    assert lower <= upper
    assert circular_interlacing_tail(64, math.pi / 6, 0) == (1.0, 1.0)


def test_circular_interlacing_validation():
    with pytest.raises(UnsupportedConeError):
        circular_interlacing_tail(7, 0.5, 1)
    with pytest.raises(ValueError):
        circular_interlacing_tail(8, 0.5, 5)


# ---------------------------------------------------------------------------
# GOE variance asymptotics
# ---------------------------------------------------------------------------

def test_goe_kernel_integral_closed_form():
    kernel, var, ratio = goe_variance_asymptotics(6)
    assert kernel == pytest.approx(2.6211389382774044, abs=1e-10)
    assert ratio == pytest.approx(0.6211389382774044, rel=1e-15)
    assert var == pytest.approx(9.0 * ratio, rel=1e-15)
    with pytest.raises(ValueError):
        goe_variance_asymptotics(0)


def test_goe_variance_scales_quadratically():
    _, v2, _ = goe_variance_asymptotics(2)
    _, v8, _ = goe_variance_asymptotics(8)
    assert v8 == pytest.approx(16.0 * v2, rel=1e-14)
