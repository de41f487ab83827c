# Standard libraries
import hashlib
import math
import sys

# External libraries
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conevol import sampling
from conevol.cones import (
    Circular,
    Generators,
    Orthant,
    Polar,
    Product,
    Psd,
    Subspace,
    ambient_dim,
    norms_block,
)
from conevol.sampling import (
    MomentAccumulator,
    MonteCarloConfig,
    chunk_rng,
    gaussian_block,
    map_chunks,
    resolve_workers,
    run_summary,
)
from conevol.steiner import (
    empirical_steiner_cdf,
    phi_mc,
    preset_functionals,
    subspace_moment,
    wills_mc,
)
from nnls_oracle import pointed_wide_generators, reference_norms

# ---------------------------------------------------------------------------
# Per-chunk SFC64 streams
# ---------------------------------------------------------------------------

def _chunk_gaussians(seed, chunk_index, count, dim):
    """All count rows of a chunk's Gaussian stream, read in one call."""
    return gaussian_block(chunk_rng(seed, chunk_index), np.empty(count * dim), count, dim)


def test_chunk_rng_streams_depend_on_seed_and_chunk():
    a = chunk_rng(123, 4).random(1000)
    assert np.array_equal(a, chunk_rng(123, 4).random(1000))
    assert not np.array_equal(a, chunk_rng(124, 4).random(1000))
    assert not np.array_equal(a, chunk_rng(123, 5).random(1000))
    # seeds are taken mod 2**64
    assert np.array_equal(chunk_rng(-1, 0).random(8), chunk_rng(2**64 - 1, 0).random(8))


def test_chunk_rng_streams_do_not_collide_across_seed_and_chunk():
    # list entropy SeedSequence([seed, chunk]) gives these two the same
    # stream, since numpy pads short entropy with zeros; the spawn key does not
    assert not np.array_equal(chunk_rng(5, 7).random(8), chunk_rng(5 + 7 * 2**32, 0).random(8))


# (seed, chunk_index, count, dim, reads): the chunk's rows read in `reads`
# gaussian_block calls of near-equal size, which give the same values as
# one call
_PINNED_CASES = [
    (0, 0, 1, 1, 1),                  # count 1, a single coordinate
    (7, 0, 1, 5, 1),                  # count 1, odd dim
    (3, 2, 1000, 400, 1),             # dim 400, chunk_index > 0
    (11, 1, 9, 16384, 1),             # dim 2**14
    (2**64 - 1, 5, 333, 31, 4),       # largest seed, odd dim, four reads
    (1, 3, 20000, 8, 7),              # seven reads
]
# SHA-256 of the blocks above, computed with numpy 2.4.6 and equal to one
# Generator(SFC64(SeedSequence(seed, spawn_key=(chunk_index,))))
# .standard_normal((count, dim)) call per case; a numpy release that
# changes that stream fails here
_PINNED_SHA256 = "e1189068a665be561f0535291983a0e4a88a5f169017b88e0f61355d50361b4a"


def _sliced_block(seed, chunk_index, count, dim, reads):
    rng, out = chunk_rng(seed, chunk_index), np.empty(count * dim)
    edges = np.linspace(0, count, reads + 1).astype(int)
    for r0, r1 in zip(edges[:-1], edges[1:]):
        gaussian_block(rng, out[r0 * dim:], r1 - r0, dim)
    return out.reshape(count, dim)


def test_philox_stream_digest_is_pinned():
    digest = hashlib.sha256()
    for case in _PINNED_CASES:
        digest.update(_sliced_block(*case).tobytes())
    assert digest.hexdigest() == _PINNED_SHA256


def test_sliced_reads_match_one_read():
    for case in _PINNED_CASES:
        assert np.array_equal(_sliced_block(*case), _chunk_gaussians(*case[:4]))


def test_gaussian_block_moments():
    g = _chunk_gaussians(0, 0, 60_000, 3)
    assert abs(g.mean()) < 0.01
    assert np.std(g) == pytest.approx(1.0, abs=0.01)
    assert _chunk_gaussians(0, 0, 10, 5).shape == (10, 5)


def test_gaussian_block_draws_past_two_to_the_fourteen_dimensions():
    row = _chunk_gaussians(0, 0, 1, (1 << 14) + 1)
    assert row.shape == (1, (1 << 14) + 1)
    assert np.all(np.isfinite(row))
    assert abs(float(row.mean())) < 0.05


# ---------------------------------------------------------------------------
# Moment accumulator
# ---------------------------------------------------------------------------

def test_accumulator_matches_direct_formulas():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    acc = MomentAccumulator.from_values(x)
    assert acc.n == 5
    assert acc.mean == pytest.approx(x.mean(), rel=1e-15)
    assert acc.variance == pytest.approx(x.var(ddof=1), rel=1e-13)
    for k in (2, 3, 4):
        assert acc.central_moment(k) == pytest.approx(
            float(np.mean((x - x.mean()) ** k)), rel=1e-12)
    assert acc.se_mean == pytest.approx(math.sqrt(x.var(ddof=1) / 5), rel=1e-13)


def test_accumulator_empty_and_singleton():
    empty = MomentAccumulator()
    assert empty.n == 0 and empty.variance == 0.0 and empty.se_mean == math.inf
    one = MomentAccumulator.from_values(np.array([4.2]))
    assert one.variance == 0.0
    assert one.mean == 4.2


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=30),
       ys=st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=30))
def test_accumulator_merge_equals_concatenation(xs, ys):
    merged = MomentAccumulator.from_values(np.array(xs)).merge(
        MomentAccumulator.from_values(np.array(ys)))
    direct = MomentAccumulator.from_values(np.array(xs + ys))
    assert merged.n == direct.n
    if merged.n == 0:
        return
    scale = 1.0 + abs(direct.mean)
    assert merged.mean == pytest.approx(direct.mean, abs=1e-9 * scale)
    for attr in ("m2", "m3", "m4"):
        ref = getattr(direct, attr)
        assert getattr(merged, attr) == pytest.approx(ref, rel=1e-7, abs=1e-4 * scale**4)


def test_accumulator_merge_is_exactly_associative_enough_for_replay():
    # the fold order used by run_summary: left-to-right over chunk index
    rng = np.random.default_rng(0)
    chunks = [rng.standard_normal(37) for _ in range(5)]
    left = MomentAccumulator()
    for c in chunks:
        left = left.merge(MomentAccumulator.from_values(c))
    again = MomentAccumulator()
    for c in chunks:
        again = again.merge(MomentAccumulator.from_values(c))
    assert left == again


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(seed=0, total_samples=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(seed=0, total_samples=10, chunk_size=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(seed=0, total_samples=10, reservoir_cap=0)


def test_config_chunks_partition_total():
    cfg = MonteCarloConfig(seed=0, total_samples=10_000, chunk_size=4096)
    chunks = cfg.chunks()
    assert [c for c, _ in chunks] == [0, 1, 2]
    assert sum(n for _, n in chunks) == 10_000
    assert chunks[-1] == (2, 10_000 - 2 * 4096)


def test_config_reservoir_stride():
    assert MonteCarloConfig(seed=0, total_samples=100, reservoir_cap=100).reservoir_stride == 1
    assert MonteCarloConfig(seed=0, total_samples=1000, reservoir_cap=100).reservoir_stride == 10
    assert MonteCarloConfig(seed=0, total_samples=1001, reservoir_cap=100).reservoir_stride == 11


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("CONEVOL_THREADS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("CONEVOL_THREADS", "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2
    monkeypatch.setenv("CONEVOL_THREADS", "zebra")
    with pytest.raises(ValueError):
        resolve_workers()


# ---------------------------------------------------------------------------
# Full summary runs
# ---------------------------------------------------------------------------

def test_run_summary_identical_across_worker_counts():
    cfg = MonteCarloConfig(seed=11, total_samples=40_000, chunk_size=4096,
                           reservoir_cap=2_000)
    a = run_summary(Orthant(8), cfg, workers=1)
    b = run_summary(Orthant(8), cfg, workers=4)
    assert a.s_moments == b.s_moments
    assert a.t_moments == b.t_moments
    assert np.array_equal(a.face_hist, b.face_hist)
    assert np.array_equal(a.reservoir_s, b.reservoir_s)
    assert np.array_equal(a.reservoir_t, b.reservoir_t)


def test_map_chunks_returns_results_in_chunk_order():
    cfg = MonteCarloConfig(seed=1, total_samples=5_000, chunk_size=1024)
    got = map_chunks(Orthant(3), cfg, lambda index, s, t, fd: (index, s.shape[0]),
                     workers=3)
    assert got == cfg.chunks()


_CONE = Product(Orthant(3), Circular(4, 0.6))
_MC_PATHS = {
    "phi_mc": lambda cfg: phi_mc(_CONE, preset_functionals()["min_a_10"], cfg),
    "wills_mc_0.5": lambda cfg: wills_mc(_CONE, 0.5, cfg),
    "wills_mc_1.5": lambda cfg: wills_mc(_CONE, 1.5, cfg),
    "steiner_cdf_gaussian": lambda cfg: empirical_steiner_cdf(
        _CONE, [0.5, 2.0, 8.0], cfg, kind="gaussian"),
    "steiner_cdf_spherical": lambda cfg: empirical_steiner_cdf(
        _CONE, [0.25, 0.5, 0.75], cfg, kind="spherical"),
    "subspace_moment": lambda cfg: subspace_moment(
        preset_functionals()["min_a_10"], 3, 7, cfg),
}


@pytest.mark.parametrize("path", sorted(_MC_PATHS))
def test_monte_carlo_paths_identical_across_worker_counts(monkeypatch, path):
    cfg = MonteCarloConfig(seed=4, total_samples=5_000, chunk_size=1024)
    assert len(cfg.chunks()) >= 4
    monkeypatch.setenv("CONEVOL_THREADS", "1")
    single = _MC_PATHS[path](cfg)
    monkeypatch.setenv("CONEVOL_THREADS", "4")
    multi = _MC_PATHS[path](cfg)
    assert np.array_equal(np.asarray(single), np.asarray(multi))


# ---------------------------------------------------------------------------
# Row-block layout of map_chunks
# ---------------------------------------------------------------------------

def _reference_map_chunks(cone, config, fn):
    """map_chunks as one gaussian_block and one norms_block per whole chunk."""
    dim = ambient_dim(cone)
    return [fn(index, *norms_block(cone, _chunk_gaussians(config.seed, index, count, dim)))
            for index, count in config.chunks()]


def _chunk_record(index, s, t, fd):
    # everything a fold could read, including the reductions run_summary does
    return (index, s.tobytes(), t.tobytes(), None if fd is None else fd.tobytes(),
            MomentAccumulator.from_values(s), MomentAccumulator.from_values(t / (s + t)))


def _cone_of(family, d):
    """A cone of the family in (about, for psd) R^d."""
    if family == "psd":
        return Psd(int(round((math.sqrt(8 * d + 1) - 1) / 2)))
    return {
        "orthant": lambda: Orthant(d),
        "subspace": lambda: Subspace(d // 3, d),
        "circ": lambda: Circular(d, 0.5),
        "prod": lambda: Product(Orthant(d // 2), Circular(d - d // 2, 0.6)),
        "polar": lambda: Polar(Circular(d, 0.5)),
    }[family]()


# (chunk_size, total_samples, d): the first three coalesce runs of
# chunks into one row block (2**17 values hold 16384 rows at d=8), the
# last two draw each chunk in several blocks; all end in a partial chunk
_LAYOUTS = [
    (1, 300, 8),
    (7, 1000, 8),
    (1024, 40_000, 8),
    (16384, 20_000, 64),
    (1024, 2_500, 400),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", _LAYOUTS, ids=str)
@pytest.mark.parametrize("family", ["orthant", "subspace", "circ", "psd", "prod", "polar"])
def test_map_chunks_matches_whole_chunk_reference(family, layout, workers):
    chunk, total, d = layout
    cone = _cone_of(family, d)
    cfg = MonteCarloConfig(seed=17, total_samples=total, chunk_size=chunk)
    assert map_chunks(cone, cfg, _chunk_record, workers) == _reference_map_chunks(
        cone, cfg, _chunk_record)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", [(1024, 40_000, 8), (1024, 2_500, 400)], ids=str)
@pytest.mark.parametrize("family", ["orthant", "subspace", "circ", "psd", "prod", "polar"])
def test_map_chunks_hands_fn_unshared_arrays(family, layout, workers):
    # map_chunks reuses one block buffer per worker thread: three groups of
    # small chunks in the first layout, chunks read in several blocks in
    # the second.  Arrays fn keeps must neither share memory with another
    # chunk's nor change after fn returns.
    chunk, total, d = layout
    cfg = MonteCarloConfig(seed=19, total_samples=total, chunk_size=chunk)
    kept = []

    def keep(index, s, t, fd):
        arrays = [a for a in (s, t, fd) if a is not None]
        kept.append((index, arrays, [a.copy() for a in arrays]))

    map_chunks(_cone_of(family, d), cfg, keep, workers)
    assert sorted(index for index, _, _ in kept) == [i for i, _ in cfg.chunks()]
    for n, (index, arrays, copies) in enumerate(kept):
        assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
        for _, others, _ in kept[n + 1:]:
            assert not any(np.shares_memory(a, b) for a in arrays for b in others)


def test_map_chunks_threads_keep_their_own_buffers(monkeypatch):
    # more threads than cores, switching every microsecond: a block buffer
    # shared between threads would be overwritten mid-block.  At 800 values
    # a block is 100 rows in R^8, so chunks of 30 run three to a block and
    # chunks of 250 in three blocks each.
    monkeypatch.setattr(sampling, "_BLOCK_VALUES", 800)
    cone = Orthant(8)
    configs = [MonteCarloConfig(seed=29, total_samples=6_000, chunk_size=chunk)
               for chunk in (30, 250)]
    references = [_reference_map_chunks(cone, cfg, _chunk_record) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cfg, reference in zip(configs, references):
            assert map_chunks(cone, cfg, _chunk_record, workers=8) == reference
    finally:
        sys.setswitchinterval(interval)


# more generators than dimensions: a Gaussian 8x4 matrix spans all of R^4
# as a cone, and 24 generators around circ:6:pi/5 span a pointed cone
_FULL_SPACE_8X4 = Generators(np.random.default_rng(0).standard_normal((8, 4)))
_POINTED_24X6 = Generators(pointed_wide_generators(24, 6, math.pi / 5, 0))


def _check_generator_layout(monkeypatch, cone, layout, workers):
    # the block solver must give every row the bits it gets alone: at 64
    # values a block is 16 rows in R^4 and 10 in R^6, so chunks 1 and 7
    # coalesce and chunk 20 spans two or more blocks; at 2**24 the whole
    # stream is one block
    chunk, total = layout
    cfg = MonteCarloConfig(seed=23, total_samples=total, chunk_size=chunk)
    reference = _reference_map_chunks(cone, cfg, _chunk_record)
    for block_values in (64, 1 << 24):
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_values)
        assert map_chunks(cone, cfg, _chunk_record, workers) == reference


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", [(1, 40), (7, 60), (20, 90)], ids=str)
def test_map_chunks_matches_reference_for_generators(monkeypatch, layout, workers):
    _check_generator_layout(monkeypatch, _FULL_SPACE_8X4, layout, workers)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", [(1, 40), (7, 60), (20, 90)], ids=str)
def test_map_chunks_matches_reference_for_pointed_generators(monkeypatch, layout, workers):
    _check_generator_layout(monkeypatch, _POINTED_24X6, layout, workers)


@pytest.mark.parametrize("block_values", [1, 1 << 24])
def test_results_do_not_depend_on_block_size(monkeypatch, block_values):
    cone = Product(Orthant(3), Subspace(2, 5))
    cfg = MonteCarloConfig(seed=8, total_samples=1_600, chunk_size=777, reservoir_cap=500)
    min_a = preset_functionals()["min_a_10"]

    def results():
        summary = run_summary(cone, cfg)
        return (summary.s_moments, summary.t_moments, summary.face_hist.tobytes(),
                summary.reservoir_s.tobytes(), summary.reservoir_t.tobytes(),
                phi_mc(cone, min_a, cfg),
                tuple(a.tobytes() for a in empirical_steiner_cdf(
                    cone, [0.25, 0.5, 0.75], cfg, kind="spherical")))
    default = results()
    monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_values)
    assert results() == default


def test_run_summary_contents():
    cfg = MonteCarloConfig(seed=2, total_samples=20_000, reservoir_cap=512)
    summary = run_summary(Orthant(6), cfg)
    assert summary.count == 20_000
    assert summary.dim == 6
    assert int(summary.face_hist.sum()) == 20_000
    # every sample satisfies s + t = ||g||^2, so means sum to about d
    assert summary.mean_s + summary.mean_t == pytest.approx(6.0, abs=0.15)
    assert summary.mean_s == pytest.approx(3.0, abs=0.1)
    stride = cfg.reservoir_stride
    expected_rows = -(-20_000 // stride)
    assert summary.reservoir_s.shape == (expected_rows,)
    assert summary.reservoir_t.shape == (expected_rows,)
    assert summary.reservoir_stride == stride


def test_run_summary_smooth_cone_has_no_face_hist():
    cfg = MonteCarloConfig(seed=5, total_samples=2_000)
    summary = run_summary(Circular(5, 0.6), cfg)
    assert summary.face_hist is None
    assert summary.s_moments.n == 2_000


# ---------------------------------------------------------------------------
# Pinned Monte Carlo digest
# ---------------------------------------------------------------------------

_MIN_A_10 = preset_functionals()["min_a_10"]
_DIGEST_CONES = [
    Orthant(8),
    Subspace(3, 8),
    Circular(9, 0.5),
    Psd(3),
    _FULL_SPACE_8X4,
    Product(Orthant(3), Circular(4, 0.6)),
    Polar(Circular(7, 0.4)),
    # last, so the other cones keep their seeds
    _POINTED_24X6,
]
_DIGEST_PATHS = [
    lambda cone, cfg: phi_mc(cone, _MIN_A_10, cfg),
    lambda cone, cfg: wills_mc(cone, 0.5, cfg),
    lambda cone, cfg: wills_mc(cone, 1.5, cfg),
    lambda cone, cfg: empirical_steiner_cdf(cone, [0.5, 2.0, 8.0], cfg, kind="gaussian"),
    lambda cone, cfg: empirical_steiner_cdf(cone, [0.25, 0.5, 0.75], cfg, kind="spherical"),
    lambda cone, cfg: subspace_moment(_MIN_A_10, 3, 11, cfg),
]
# SHA-256 of every result of the six cones other than the generator cones.
# Re-pinned when the per-chunk SFC64 streams replaced the Philox ones,
# which changed every draw; the same digest came out with each chunk drawn
# as one block, with 37-value blocks and on three threads, and any layout
# must reproduce it
_MONTE_CARLO_SHA256 = "f2b203d652b39c6482d53eb46aee51c38d1df94a607fcbfdd3c8e0eac4602d59"


def _digest_cases():
    """(cone, config, path) for every cone and chunk size 1024, 777 and
    16384, with one other Monte Carlo path per pair, in rotation, so each
    path meets every chunk size.  Every stream ends in a partial chunk;
    the generator cones' streams are shorter, to keep their oracle quick."""
    case = 0
    for i, cone in enumerate(_DIGEST_CONES):
        for j, chunk in enumerate((1024, 777, 16384)):
            if isinstance(cone, Generators):
                total = chunk + 611 if chunk < 16384 else 250
            else:
                total = 2 * chunk + 611
            cfg = MonteCarloConfig(seed=1000 + case, total_samples=total,
                                   chunk_size=chunk, reservoir_cap=997)
            yield cone, cfg, _DIGEST_PATHS[(i + 2 * j) % len(_DIGEST_PATHS)]
            case += 1


def _summary_bytes(summary):
    moments = [getattr(acc, f) for acc in (summary.s_moments, summary.t_moments)
               for f in ("n", "mean", "m2", "m3", "m4")]
    parts = [np.asarray(moments, dtype=float), summary.reservoir_s, summary.reservoir_t]
    if summary.face_hist is not None:
        parts.append(summary.face_hist)
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def test_monte_carlo_digest_is_pinned():
    # run_summary plus one other Monte Carlo path for every case
    digest = hashlib.sha256()
    for cone, cfg, path in _digest_cases():
        if isinstance(cone, Generators):
            continue
        digest.update(_summary_bytes(run_summary(cone, cfg)))
        digest.update(np.asarray(path(cone, cfg), dtype=float).tobytes())
    assert digest.hexdigest() == _MONTE_CARLO_SHA256


def test_generator_cone_matches_per_row_oracle():
    # the block solver rounds differently from per-row lstsq, at about
    # 1e-14, so the generator cones are checked against the per-row solver
    # it replaced instead of a pinned digest
    faces = {}
    for cone, cfg, _ in _digest_cases():
        if not isinstance(cone, Generators):
            continue
        d = ambient_dim(cone)
        got = map_chunks(cone, cfg, lambda index, s, t, fd: (s, t, fd))
        for (index, count), (s, t, fd) in zip(cfg.chunks(), got):
            X = _chunk_gaussians(cfg.seed, index, count, d)
            ref_s, ref_t, ref_fd = reference_norms(cone.matrix, X)
            tol = 1e-12 * (1.0 + np.einsum("ij,ij->i", X, X))
            assert np.all(np.abs(s - ref_s) <= tol)
            assert np.all(np.abs(t - ref_t) <= tol)
            assert np.array_equal(np.bincount(fd, minlength=d + 1),
                                  np.bincount(ref_fd, minlength=d + 1))
            faces.setdefault(d, set()).update(fd.tolist())
    # every point of the full-space cone projects to itself; the pointed
    # one has proper faces of every dimension
    assert faces == {4: {4}, 6: set(range(7))}
