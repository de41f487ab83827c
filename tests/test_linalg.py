# Standard libraries
import itertools
import math
from fractions import Fraction

# External libraries
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import conevol.linalg
from conevol.cones import Orthant
from conevol.linalg import (
    dd_add,
    dd_mul,
    dd_sqrt,
    nnls_solve,
    two_product,
    two_sum,
)
from conevol.profiles import estimate_profile_mixture
from conevol.sampling import MonteCarloConfig

# ---------------------------------------------------------------------------
# Nonnegative least squares
# ---------------------------------------------------------------------------

def kkt_residual(a, b, tau):
    """Max violation of the NNLS optimality conditions at tau.

    With w = a @ (b - a.T @ tau): stationarity needs w = 0 on the
    support of tau, dual feasibility needs w <= 0 elsewhere.
    """
    w = a @ (b - a.T @ tau)
    on = tau > 0.0
    r_on = float(np.max(np.abs(w[on]), initial=0.0))
    r_off = float(np.max(w[~on], initial=0.0))
    return max(r_on, r_off, 0.0)


def _assert_kkt(a, b, tau):
    assert np.all(tau >= 0.0)
    rnorm = float(np.linalg.norm(b - a.T @ tau))
    assert kkt_residual(a, b, tau) <= 1e-8 * (1.0 + rnorm)
    return rnorm


def _brute_force_nnls(a, b):
    """Exhaustive active-set search; exact reference for small m."""
    m, d = a.shape
    best = float(np.dot(b, b))
    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            sub = a[list(support)].T
            z, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.all(z >= -1e-12):
                res = b - sub @ np.maximum(z, 0.0)
                best = min(best, float(res @ res))
    return math.sqrt(best)


@pytest.mark.parametrize("seed", range(8))
def test_nnls_matches_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    # m > d makes the generators linearly dependent
    for m, d in ((6, 4), (8, 4)):
        a = rng.standard_normal((m, d))
        b = rng.standard_normal(d)
        tau = nnls_solve(a, b)
        rnorm = _assert_kkt(a, b, tau)
        assert rnorm <= _brute_force_nnls(a, b) + 1e-9


def test_nnls_terminates_on_dependent_passive_set():
    # eight generators in R^4: the passive set can outgrow the dimension,
    # which once made a singular normal-equation step loop forever
    a = np.random.default_rng(0).standard_normal((8, 4))
    for b in np.random.default_rng(1).standard_normal((256, 4)):
        _assert_kkt(a, b, nnls_solve(a, b))


def test_nnls_fit_ignores_generator_lengths():
    # rescaling a generator does not move the projection; lengths over
    # twelve orders of magnitude must not cost accuracy
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 4))
    scaled = a * np.logspace(-6, 6, 8)[:, None]
    for b in rng.standard_normal((64, 4)):
        fit = a.T @ nnls_solve(a, b)
        assert np.allclose(scaled.T @ nnls_solve(scaled, b), fit, rtol=0.0, atol=1e-9)


def test_nnls_terminates_on_denormal_coefficient(monkeypatch):
    # this mixture fit once stepped by 0.0 onto a 4.9e-324 coefficient
    # that a strict `<= 0` test never dropped from the passive set
    calls = []
    solve = conevol.linalg.nnls_solve

    def recording_solve(a, b):
        tau = solve(a, b)
        calls.append((a, b, tau))
        return tau

    monkeypatch.setattr(conevol.linalg, "nnls_solve", recording_solve)
    config = MonteCarloConfig(seed=945278322613, total_samples=16384,
                              chunk_size=16384, reservoir_cap=16384)
    estimate_profile_mixture(Orthant(16), config)
    assert len(calls) == 1
    _assert_kkt(*calls[0])


def test_nnls_recovers_interior_combination():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((5, 9))
    truth = np.array([0.7, 0.0, 2.1, 0.0, 0.4])
    b = a.T @ truth
    tau = nnls_solve(a, b)
    assert np.allclose(a.T @ tau, b, atol=1e-10)


def test_nnls_handles_duplicate_generators():
    g = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tau = nnls_solve(g, np.array([2.0, 3.0]))
    assert np.allclose(g.T @ tau, [2.0, 3.0], atol=1e-12)
    assert np.all(tau >= 0.0)


def test_nnls_zero_fit_for_polar_point():
    # target in the polar of the generated cone: optimum is tau = 0
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    tau = nnls_solve(a, np.array([-1.0, -2.0]))
    assert np.allclose(tau, 0.0)


def test_nnls_shape_validation():
    with pytest.raises(ValueError):
        nnls_solve(np.zeros((3, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# Double-double primitives
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-1e120, max_value=1e120,
                          allow_nan=False, allow_infinity=False)

# Dekker splitting is exact only while products stay clear of the
# subnormal range, which is all the coefficient arithmetic ever needs.
signed_normal = st.builds(
    lambda mag, neg: -mag if neg else mag,
    st.floats(min_value=1e-120, max_value=1e120),
    st.booleans(),
)


@given(a=finite_floats, b=finite_floats)
def test_two_sum_is_exact(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(a=signed_normal, b=signed_normal)
def test_two_product_is_exact(a, b):
    hi, lo = two_product(np.array([a]), np.array([b]))
    assert Fraction(float(hi[0])) + Fraction(float(lo[0])) == Fraction(a) * Fraction(b)


def _dd_rel_err(h, l, exact):
    got = Fraction(float(h)) + Fraction(float(l))
    if exact == 0:
        return abs(got)
    return abs((got - exact) / exact)


@given(x=finite_floats, y=finite_floats)
def test_dd_add_high_precision(x, y):
    xh, xl = two_sum(x, 1e-20 * x)
    yh, yl = two_sum(y, -1e-21 * y)
    exact = Fraction(xh) + Fraction(xl) + Fraction(yh) + Fraction(yl)
    rh, rl = dd_add(xh, xl, yh, yl)
    # sloppy renormalization: error is O(eps^2) of the larger operand
    bound = Fraction(2) ** -100 * max(abs(Fraction(xh)), abs(Fraction(yh)), Fraction(1))
    got = Fraction(float(rh)) + Fraction(float(rl))
    assert abs(got - exact) <= bound


@given(x=st.builds(lambda m, n: -m if n else m,
                   st.floats(min_value=1e-50, max_value=1e50), st.booleans()),
       y=st.builds(lambda m, n: -m if n else m,
                   st.floats(min_value=1e-50, max_value=1e50), st.booleans()))
def test_dd_mul_high_precision(x, y):
    exact = Fraction(x) * Fraction(y)
    rh, rl = dd_mul(x, 0.0, y, 0.0)
    assert _dd_rel_err(rh, rl, exact) <= Fraction(2) ** -100


@given(x=st.floats(min_value=1e-100, max_value=1e100, allow_nan=False))
def test_dd_sqrt_squares_back(x):
    r, e = dd_sqrt(np.array([x]))
    got = Fraction(float(r[0])) + Fraction(float(e[0]))
    assert abs(got * got - Fraction(x)) <= Fraction(2) ** -100 * Fraction(x)


def test_dd_sqrt_zero():
    r, e = dd_sqrt(np.array([0.0]))
    assert r[0] == 0.0 and e[0] == 0.0
