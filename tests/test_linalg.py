# Standard libraries
import itertools
import math

# External libraries
import numpy as np
import pytest

import conevol.linalg
from conevol import cli
from conevol.cones import Orthant
from conevol.exceptions import NonConvergenceError
from conevol.linalg import nnls_solve
from conevol.profiles import estimate_profile_mixture
from conevol.sampling import MonteCarloConfig
from nnls_oracle import reference_nnls

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


def _solve_block(a, targets):
    """nnls_solve on the targets as one block, checked row by row against
    solving each target alone: the rows must agree bit for bit."""
    block = nnls_solve(a, targets)
    assert block.shape == (len(targets), a.shape[0])
    for target, row in zip(targets, block):
        assert np.array_equal(nnls_solve(a, target), row)
    return block


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
        # the same target in a block of others
        targets = np.vstack([rng.standard_normal((5, d)), b, rng.standard_normal((3, d))])
        for target, row in zip(targets, _solve_block(a, targets)):
            assert _assert_kkt(a, target, row) <= _brute_force_nnls(a, target) + 1e-9


def test_nnls_terminates_on_dependent_passive_set():
    # eight generators in R^4: the passive set can outgrow the dimension,
    # which once made a singular normal-equation step loop forever
    a = np.random.default_rng(0).standard_normal((8, 4))
    targets = np.random.default_rng(1).standard_normal((256, 4))
    for b, tau in zip(targets, _solve_block(a, targets)):
        _assert_kkt(a, b, tau)


def test_nnls_fit_ignores_generator_lengths():
    # rescaling a generator does not move the projection; lengths over
    # twelve orders of magnitude must not cost accuracy
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 4))
    scaled = a * np.logspace(-6, 6, 8)[:, None]
    targets = rng.standard_normal((64, 4))
    fits = _solve_block(a, targets) @ a
    assert np.allclose(_solve_block(scaled, targets) @ scaled, fits, rtol=0.0, atol=1e-9)


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
    # the same fit between perturbed copies of its target
    a, b, _ = calls[0]
    rng = np.random.default_rng(4)
    targets = np.vstack([b + 1e-3 * rng.standard_normal(b.shape), b,
                         b * rng.uniform(0.5, 1.5, b.shape)])
    for target, tau in zip(targets, _solve_block(a, targets)):
        _assert_kkt(a, target, tau)


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
    with pytest.raises(ValueError):
        nnls_solve(np.ones((5, 3)), np.ones((2, 2, 3)))


def test_nnls_block_rows_take_different_paths():
    # one block whose rows need from 0 to many outer iterations, some
    # ending on the optimality test and some on the stall rule
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 4))
    targets = np.vstack([
        np.zeros((2, 4)),                                     # done before any step
        (a.T @ np.abs(rng.standard_normal((8, 24)))).T,       # exact fits in the cone
        rng.standard_normal((100, 4)),
    ])
    paths = [reference_nnls(a, b)[1:] for b in targets]
    assert len({outer for outer, _ in paths}) >= 4
    assert any(stalled for _, stalled in paths)
    assert not all(stalled for _, stalled in paths)
    block = _solve_block(a, targets)
    for b, tau in zip(targets, block):
        _assert_kkt(a, b, tau)
        assert np.allclose(a.T @ tau, a.T @ reference_nnls(a, b)[0], rtol=0.0,
                           atol=1e-12 * (1.0 + float(b @ b)))


def _rotated(d, seed):
    """A random d x d rotation: Q of a Gaussian matrix, signs fixed by R."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _near_ratio_generators(ratio, m, d, seed):
    """m <= d unit generators in R^d whose singular values span exactly
    ``ratio``: orthonormal but for the last, at angle 2 atan(ratio) from
    the first (Gram eigenvalues 1 +- cos of that angle), turned by a random
    rotation."""
    theta = 2.0 * math.atan(ratio)
    g = np.eye(m, d)
    g[-1] = 0.0
    g[-1, 0], g[-1, m - 1] = math.cos(theta), math.sin(theta)
    return g @ _rotated(d, seed)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_nnls_near_gram_ratio_matches_oracle(monkeypatch, factor):
    # just above the certificate's ratio the rows take block principal
    # pivoting, which tests no passive Gram block; just below it they take
    # Lawson-Hanson, and every row tests its own passive Gram block, so
    # rows whose passive set holds both near-parallel generators take the
    # pseudoinverse and the rest solve the normal equations.  Either way
    # every row matches the per-row lstsq oracle and its lone solve.
    ratio = conevol.linalg._GRAM_RATIO
    a = _near_ratio_generators(factor * ratio, 5, 7, 0)
    certified = factor > 1.0
    assert conevol.linalg.well_conditioned_rows(a, ratio) == certified
    rng = np.random.default_rng(12)
    targets = np.vstack([
        rng.standard_normal((60, 7)),
        # inside the thin wedge between the first and last generator
        (a.T @ np.abs(rng.standard_normal((5, 60)))).T + 1e-3 * rng.standard_normal((60, 7)),
    ])
    verdicts = []
    gram_ok = conevol.linalg._gram_ok

    def recording_gram_ok(g, d):
        ok = gram_ok(g, d)
        verdicts.extend(ok.tolist())
        return ok

    monkeypatch.setattr(conevol.linalg, "_gram_ok", recording_gram_ok)
    block = _solve_block(a, targets)
    if certified:
        assert verdicts == []
    else:
        assert any(verdicts) and not all(verdicts)
    for b, tau in zip(targets, block):
        _assert_kkt(a, b, tau)
        assert np.allclose(a.T @ tau, a.T @ reference_nnls(a, b)[0], rtol=0.0,
                           atol=1e-12 * (1.0 + float(b @ b)))


# certified generator sets: identities and rotated orthants up to d = 10,
# random sets with m < d, and the near-ratio set just above the certificate
_CERTIFIED = {
    "I_3": np.eye(3),
    "I_10": np.eye(10),
    "rotated_6": _rotated(6, 1),
    "rotated_10": _rotated(10, 2),
    "random_3x5": np.random.default_rng(3).standard_normal((3, 5)),
    "random_5x8": np.random.default_rng(4).standard_normal((5, 8)),
    "random_7x9": np.random.default_rng(5).standard_normal((7, 9)),
    "near_ratio": _near_ratio_generators(1.01 * conevol.linalg._GRAM_RATIO, 5, 7, 0),
}


def _certified_targets(a, seed):
    # Gaussian targets, fits inside the cone, and targets near its faces
    rng = np.random.default_rng(seed)
    m, d = a.shape
    inside = (a.T @ np.abs(rng.standard_normal((m, 6)))).T
    face = inside * (rng.random((6, 1)) < 0.5) + 1e-3 * rng.standard_normal((6, d))
    return np.vstack([rng.standard_normal((24, d)), inside, face, np.zeros((1, d))])


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_block_pivoting_matches_brute_force(monkeypatch, name):
    # certified sets take block principal pivoting and never Lawson-Hanson;
    # every row is optimal, as good as the exhaustive search, and the same
    # bits alone as in its block
    a = _CERTIFIED[name]
    assert conevol.linalg.well_conditioned_rows(
        a / np.linalg.norm(a, axis=1)[:, None], conevol.linalg._GRAM_RATIO)

    def no_lawson_hanson(*args):
        raise AssertionError("certified set sent to Lawson-Hanson")

    monkeypatch.setattr(conevol.linalg, "_lawson_hanson", no_lawson_hanson)
    targets = _certified_targets(a, 20)
    block = _solve_block(a, targets)
    for i, (b, tau) in enumerate(zip(targets, block)):
        rnorm = _assert_kkt(a, b, tau)
        # the exhaustive search costs 2^m lstsq calls a target
        if i % 4 == 0:
            assert rnorm <= _brute_force_nnls(a, b) + 1e-9


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_block_pivoting_by_murty_rule_alone_agrees(monkeypatch, name):
    # with no backups every exchange is a single index by Murty's rule,
    # which takes more passes to the same projections
    a = _CERTIFIED[name]
    targets = np.vstack([_certified_targets(a, 21),
                         np.random.default_rng(22).standard_normal((200, a.shape[1]))])
    full = nnls_solve(a, targets) @ a
    monkeypatch.setattr(conevol.linalg, "_BACKUPS", 0)
    murty = _solve_block(a, targets) @ a
    scale = 1.0 + np.linalg.norm(targets, axis=1)[:, None]
    assert np.all(np.abs(murty - full) <= 1e-12 * scale)


def test_block_pivoting_pass_cap_raises(monkeypatch):
    # by Murty's rule alone the identity gains one passive index per pass,
    # so a target with 16 positive coordinates needs 16 passes, past a cap
    # of 12; with backups the same target takes one pass
    monkeypatch.setattr(conevol.linalg, "_PIVOTS_PER_GENERATOR", 0)
    a = np.eye(16)
    targets = np.vstack([-np.ones(16), np.ones(16), np.eye(16)[:3]])
    assert np.array_equal(nnls_solve(a, targets), np.maximum(targets, 0.0))
    monkeypatch.setattr(conevol.linalg, "_BACKUPS", 0)
    with pytest.raises(NonConvergenceError):
        nnls_solve(a, targets)
    with pytest.raises(NonConvergenceError):
        nnls_solve(a, targets[1])
    easy = targets[[0, 2, 3, 4]]
    assert np.array_equal(nnls_solve(a, easy), np.maximum(easy, 0.0))


def test_nnls_block_shapes():
    a = np.random.default_rng(8).standard_normal((5, 3))
    assert nnls_solve(a, np.ones(3)).shape == (5,)
    assert nnls_solve(a, np.ones((1, 3))).shape == (1, 5)
    assert nnls_solve(a, np.ones((0, 3))).shape == (0, 5)


def test_nnls_outer_cap_raises(monkeypatch):
    # Lawson-Hanson adds one passive index per outer step, so on the
    # identity generators plus -1 (17 in R^16, so not certified) a target
    # with 16 positive coordinates needs 16 steps, past a cap of 12
    monkeypatch.setattr(conevol.linalg, "_OUTER_PER_GENERATOR", 0)
    a = np.vstack([np.eye(16), -np.ones(16)])
    assert not conevol.linalg.well_conditioned_rows(a, conevol.linalg._GRAM_RATIO)
    targets = np.vstack([-np.ones(16), np.ones(16), np.eye(16)[:3]])
    with pytest.raises(NonConvergenceError):
        nnls_solve(a, targets)
    with pytest.raises(NonConvergenceError):
        nnls_solve(a, targets[1])
    easy = targets[[0, 2, 3, 4]]
    expected = np.zeros((4, 17))
    expected[0, 16] = 1.0
    expected[1:, :16] = np.eye(16)[:3]
    assert np.array_equal(nnls_solve(a, easy), expected)


def test_nnls_rejected_passive_solves_end_at_zero(monkeypatch):
    # a passive solve that is never accepted drops one passive index per
    # pass until the passive set is empty, which is always accepted
    def rejecting_solve(a, gram, passive, b, c):
        return np.where(passive, -1.0, 0.0)

    monkeypatch.setattr(conevol.linalg, "_passive_solve", rejecting_solve)
    a = np.random.default_rng(5).standard_normal((6, 4))
    targets = np.random.default_rng(6).standard_normal((8, 4))
    assert np.array_equal(nnls_solve(a, targets), np.zeros((8, 6)))
    assert np.array_equal(nnls_solve(a, targets[0]), np.zeros(6))


def test_nnls_cap_exits_3(monkeypatch, tmp_path, capsys):
    # Lawson-Hanson's cap: the identity plus -1 is not certified
    monkeypatch.setattr(conevol.linalg, "_OUTER_PER_GENERATOR", 0)
    path = tmp_path / "gens.csv"
    np.savetxt(path, np.vstack([np.eye(24), -np.ones(24)]), delimiter=",")
    code = cli.main(["sdim", "--cone", f"gens:{path}", "--samples", "200"])
    assert code == 3
    assert "numerical guard" in capsys.readouterr().err
