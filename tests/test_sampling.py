# Standard libraries
import hashlib
import itertools
import math
import sys
import tracemalloc

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
    Trivial,
    ambient_dim,
    chi_square_dofs,
    norms_block,
    sampled_layout,
    supports_face_dim,
)
from conevol.exceptions import UnsupportedConeError
from conevol.profiles import (
    estimate_profile_face,
    exact_profile,
    intrinsic_variance,
    statistical_dimension,
)
from conevol.sampling import (
    UNIT_ROWS,
    MomentAccumulator,
    MonteCarloConfig,
    gaussian_block,
    map_chunks,
    resolve_workers,
    run_summary,
    unit_chi_square_rng,
    unit_rng,
)
from conevol.steiner import (
    empirical_steiner_cdf,
    phi_mc,
    preset_functionals,
    subspace_moment,
    wills_mc,
)
from nnls_oracle import pointed_wide_generators, reference_norms
from projection_oracle import project

# ---------------------------------------------------------------------------
# Per-unit SFC64 streams
# ---------------------------------------------------------------------------

def _unit_gaussians(seed, unit, count, dim):
    """The first count rows of a stream unit's Gaussian stream, read in one call."""
    return gaussian_block(unit_rng(seed, unit), np.empty(count * dim), count, dim)


def _chunks(config):
    """(index, count) of a run's chunks, chunk_size rows each, the last one short."""
    full, rem = divmod(config.total_samples, config.chunk_size)
    return list(enumerate([config.chunk_size] * full + ([rem] if rem else [])))


def _run_gaussians(config, dim):
    """Every row of a run's Gaussian columns, unit after unit."""
    return np.concatenate([_unit_gaussians(config.seed, unit, count, dim)
                           for unit, count in config.units()])


def test_unit_rng_streams_depend_on_seed_and_unit():
    a = unit_rng(123, 4).random(1000)
    assert np.array_equal(a, unit_rng(123, 4).random(1000))
    assert not np.array_equal(a, unit_rng(124, 4).random(1000))
    assert not np.array_equal(a, unit_rng(123, 5).random(1000))
    # seeds are taken mod 2**64
    assert np.array_equal(unit_rng(-1, 0).random(8), unit_rng(2**64 - 1, 0).random(8))


def test_unit_rng_streams_do_not_collide_across_seed_and_unit():
    # list entropy SeedSequence([seed, unit]) gives these two the same
    # stream, since numpy pads short entropy with zeros; the spawn key does not
    assert not np.array_equal(unit_rng(5, 7).random(8), unit_rng(5 + 7 * 2**32, 0).random(8))


def test_chi_square_streams_are_no_gaussian_streams():
    # a spawn key is mixed in as 32-bit words, so the key (7, 1) is the key
    # (7 + 2**32,) of another unit's Gaussian stream; the chi-square
    # stream's key (7, 0) ends in a zero word, which no Gaussian key does
    def sfc64(seed, key):
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))
    assert np.array_equal(sfc64(5, (7, 1)).random(8), unit_rng(5, 7 + 2**32).random(8))
    assert np.array_equal(sfc64(5, (7, 0)).random(8), unit_chi_square_rng(5, 7).random(8))
    for seed, index in [(5, 7), (0, 0), (2**64 - 1, 2**32 - 1)]:
        chi = unit_chi_square_rng(seed, index).random(8)
        assert np.array_equal(chi, unit_chi_square_rng(seed, index).random(8))
        for other in (index, index + 2**32):
            assert not np.array_equal(chi, unit_rng(seed, other).random(8))


def test_config_units_partition_the_run():
    assert MonteCarloConfig(seed=0, total_samples=40_000, chunk_size=8).units() == [
        (0, UNIT_ROWS), (1, UNIT_ROWS), (2, 40_000 - 2 * UNIT_ROWS)]
    assert MonteCarloConfig(seed=0, total_samples=5).units() == [(0, 5)]
    assert MonteCarloConfig(seed=0, total_samples=2).chunk_size == UNIT_ROWS


# (seed, unit, count, dim, reads): the unit's first rows read in `reads`
# gaussian_block calls of near-equal size, which give the same values as
# one call
_PINNED_CASES = [
    (0, 0, 1, 1, 1),                  # count 1, a single coordinate
    (7, 0, 1, 5, 1),                  # count 1, odd dim
    (3, 2, 1000, 400, 1),             # dim 400, unit > 0
    (11, 1, 9, 16384, 1),             # dim 2**14
    (2**64 - 1, 5, 333, 31, 4),       # largest seed, odd dim, four reads
    (1, 3, 20000, 8, 7),              # seven reads
]
# SHA-256 of the blocks above, computed with numpy 2.4.6 and equal to one
# Generator(SFC64(SeedSequence(seed, spawn_key=(unit,))))
# .standard_normal((count, dim)) call per case; a numpy release that
# changes that stream fails here
_PINNED_SHA256 = "e1189068a665be561f0535291983a0e4a88a5f169017b88e0f61355d50361b4a"


def _sliced_block(seed, unit, count, dim, reads):
    rng, out = unit_rng(seed, unit), np.empty(count * dim)
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
        assert np.array_equal(_sliced_block(*case), _unit_gaussians(*case[:4]))


def test_gaussian_block_moments():
    g = _unit_gaussians(0, 0, 60_000, 3)
    assert abs(g.mean()) < 0.01
    assert np.std(g) == pytest.approx(1.0, abs=0.01)
    assert _unit_gaussians(0, 0, 10, 5).shape == (10, 5)


def test_gaussian_block_draws_past_two_to_the_fourteen_dimensions():
    row = _unit_gaussians(0, 0, 1, (1 << 14) + 1)
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
    # one sample has no spread: every standard error would read 0
    with pytest.raises(ValueError, match="at least 2"):
        MonteCarloConfig(seed=0, total_samples=1)


@pytest.mark.parametrize("chunk", [3, 7, 777, UNIT_ROWS + 1, 40_000, 65_536])
def test_config_rejects_chunks_that_do_not_divide_a_unit(chunk):
    # every chunk lies inside one stream unit
    with pytest.raises(ValueError, match="chunk_size must divide"):
        MonteCarloConfig(seed=0, total_samples=10, chunk_size=chunk)


def test_config_chunks_partition_total():
    cfg = MonteCarloConfig(seed=0, total_samples=10_000, chunk_size=4096)
    chunks = _chunks(cfg)
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

# an orthant, a cone with no Gaussian column and one with Gaussian
# columns and chi-square columns of fixed and of sampled degrees of freedom
_SAMPLED_CONES = [Orthant(8), Subspace(3, 8), Product(Orthant(3), Circular(4, 0.6))]


def test_run_summary_identical_across_worker_counts():
    for cone, chunk in itertools.product(_SAMPLED_CONES, (1, 8, 512, 4096)):
        cfg = MonteCarloConfig(seed=11, total_samples=40_000 if chunk > 512 else 3_000,
                               chunk_size=chunk, reservoir_cap=2_000)
        a = run_summary(cone, cfg, workers=1)
        b = run_summary(cone, cfg, workers=4)
        assert a.theta_moments == b.theta_moments, (cone, chunk)
        assert np.array_equal(a.reservoir_s, b.reservoir_s)
        assert np.array_equal(a.reservoir_t, b.reservoir_t)


def test_map_chunks_returns_results_in_chunk_order():
    cfg = MonteCarloConfig(seed=1, total_samples=5_000, chunk_size=1024)
    got = map_chunks(Orthant(3), cfg, lambda index, s, t: (index, s.shape[0]), workers=3)
    assert got == _chunks(cfg)


_MC_PATHS = {
    "phi_mc": lambda cone, cfg: phi_mc(cone, preset_functionals()["min_a_10"], cfg),
    "wills_mc_0.5": lambda cone, cfg: wills_mc(cone, 0.5, cfg),
    "wills_mc_1.5": lambda cone, cfg: wills_mc(cone, 1.5, cfg),
    "steiner_cdf_gaussian": lambda cone, cfg: empirical_steiner_cdf(
        cone, [0.5, 2.0, 8.0], cfg, kind="gaussian"),
    "steiner_cdf_spherical": lambda cone, cfg: empirical_steiner_cdf(
        cone, [0.25, 0.5, 0.75], cfg, kind="spherical"),
    "subspace_moment": lambda cone, cfg: subspace_moment(
        preset_functionals()["min_a_10"], 3, 7, cfg),
}


@pytest.mark.parametrize("path", sorted(_MC_PATHS))
def test_monte_carlo_paths_identical_across_worker_counts(monkeypatch, path):
    for cone, chunk in itertools.product((Subspace(2, 5), Product(Orthant(3), Circular(4, 0.6))),
                                         (1, 8, 512, 1024)):
        cfg = MonteCarloConfig(seed=4, total_samples=5_000 if chunk > 8 else 600,
                               chunk_size=chunk)
        assert len(_chunks(cfg)) >= 4
        monkeypatch.setenv("CONEVOL_THREADS", "1")
        single = _MC_PATHS[path](cone, cfg)
        monkeypatch.setenv("CONEVOL_THREADS", "4")
        multi = _MC_PATHS[path](cone, cfg)
        assert np.array_equal(np.asarray(single), np.asarray(multi)), (cone, chunk)


# ---------------------------------------------------------------------------
# Row-block layout of map_chunks
# ---------------------------------------------------------------------------

def _unit_draws(cone, seed, unit, count):
    """norms_block's arguments for all count rows of a stream unit: its
    Gaussian stream read in one gaussian_block call and, for a cone with
    chi-square columns, its chi-square stream in one standard_gamma call."""
    width, columns = sampled_layout(cone)
    X = _unit_gaussians(seed, unit, count, width)
    if not columns:
        return (X,)
    dofs, faces = chi_square_dofs(cone, X)
    return X, 2.0 * unit_chi_square_rng(seed, unit).standard_gamma(0.5 * dofs), faces


def _reference_rows(cone, config):
    """(s, t, face dims) of every row of a run: one read of each unit's
    streams and one norms_block per whole unit.  Face dims are None for a
    cone without them."""
    norms = [norms_block(cone, *_unit_draws(cone, config.seed, unit, count))
             for unit, count in config.units()]
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*norms))


def _reference_map_chunks(cone, config, fn, faces_only=False):
    """map_chunks as whole-unit reads and projections, then fn on each
    chunk's (s, t) rows, or on its face dims with faces_only."""
    s, t, faces = _reference_rows(cone, config)
    rows, size = (faces,) if faces_only else (s, t), config.chunk_size
    return [fn(index, *(a[index * size:index * size + count] for a in rows))
            for index, count in _chunks(config)]


def _modes(cone):
    """The faces_only values map_chunks takes for the cone."""
    return (False, True) if supports_face_dim(cone) else (False,)


def _chunk_record(index, *arrays):
    # everything a fold could read: the (s, t) or face dims fn sees, and for
    # (s, t) the reductions run_summary does
    record = (index, *((a.dtype, a.tobytes()) for a in arrays))
    if len(arrays) == 2:
        s, t = arrays
        record += (MomentAccumulator.from_values(s), MomentAccumulator.from_values(t / (s + t)))
    return record


def _map_rows(cone, config, workers=None):
    """map_chunks's s and t of every row of a run and, for a cone with face
    dims, its faces_only face dims, each joined over the chunks."""
    rows = [np.concatenate(a) for a in zip(*map_chunks(
        cone, config, lambda index, s, t: (s, t), workers))]
    if supports_face_dim(cone):
        rows.append(np.concatenate(map_chunks(cone, config, lambda index, fd: fd, workers,
                                              faces_only=True)))
    return rows


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


# (chunk_size, total_samples, d): every run ends in a partial chunk.  At
# d = 8 a row draws 2 to 5 values, so a 2**17-value block holds a whole
# 2**14-row stream unit; psd:11 (d = 64) reads a unit in three blocks and
# psd:28 (d = 400) in two, which are joined before the unit is cut into
# chunks
_LAYOUTS = [
    (1, 300, 8),
    (8, 1000, 8),
    (1024, 40_000, 8),
    (16384, 20_000, 64),
    (1024, 2_500, 400),
    (512, 40_000, 8),
    (512, 20_000, 64),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", _LAYOUTS, ids=str)
@pytest.mark.parametrize("family", ["orthant", "subspace", "circ", "psd", "prod", "polar"])
def test_map_chunks_matches_whole_chunk_reference(family, layout, workers):
    # fn sees each whole chunk, cut from rows drawn and projected a whole
    # stream unit at a time: its (s, t), and for an orthant or a subspace
    # its face dims with faces_only
    chunk, total, d = layout
    cone = _cone_of(family, d)
    cfg = MonteCarloConfig(seed=17, total_samples=total, chunk_size=chunk)
    for faces_only in _modes(cone):
        assert map_chunks(cone, cfg, _chunk_record, workers, faces_only) == (
            _reference_map_chunks(cone, cfg, _chunk_record, faces_only)), faces_only


@pytest.mark.parametrize("cone", [Polar(Orthant(3)), Product(Orthant(3), Circular(4, 0.6))],
                         ids=["polar(orthant:3)", "prod(orthant:3,circ:4:0.6)"])
def test_map_chunks_faces_only_rejects_a_cone_without_face_dims(monkeypatch, cone):
    # the cone is checked once, before any stream is read, not in each task
    drawn = []
    monkeypatch.setattr(sampling, "gaussian_block", lambda *args: drawn.append(args))
    cfg = MonteCarloConfig(seed=0, total_samples=100, chunk_size=32)
    with pytest.raises(UnsupportedConeError, match="no face-dimension sampler"):
        map_chunks(cone, cfg, lambda index, fd: fd, 3, faces_only=True)
    assert drawn == []


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("block_rows", [None, 3001], ids=["default-blocks", "3001-row-blocks"])
@pytest.mark.parametrize("cone", [Orthant(8), Subspace(3, 8), Psd(3),
                                  Product(Orthant(3), Circular(4, 0.6))],
                         ids=["orthant:8", "subspace:3:8", "psd:3", "prod(orthant:3,circ:4:0.6)"])
def test_rows_do_not_depend_on_chunk_size(monkeypatch, cone, block_rows, workers):
    # every row comes from its stream unit, so chunk_size only groups the
    # rows: the concatenated (s, t) rows, and the faces_only face dims, are
    # the same at every chunk size, from 1 row to a whole unit, and with
    # 3001-row blocks, which read each unit in several blocks
    if block_rows:
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_rows * sum(sampled_layout(cone)))
    rows = [_map_rows(cone, MonteCarloConfig(seed=43, total_samples=41_000, chunk_size=chunk),
                      workers)
            for chunk in (1, 8, 512, 1024, UNIT_ROWS)]
    for other in rows[1:]:
        assert len(other) == len(rows[0])
        for a, b in zip(rows[0], other):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", [(1024, 40_000, 8), (1024, 2_500, 400)], ids=str)
@pytest.mark.parametrize("family", ["orthant", "subspace", "circ", "psd", "prod", "polar"])
def test_map_chunks_hands_fn_unshared_arrays(family, layout, workers):
    # map_chunks reuses one block buffer per worker thread: three units of
    # small chunks in the first layout, a unit read in several blocks in
    # the second.  Arrays fn keeps, (s, t) or faces_only face dims, must
    # neither share memory with another chunk's nor change after fn returns.
    chunk, total, d = layout
    cone = _cone_of(family, d)
    cfg = MonteCarloConfig(seed=19, total_samples=total, chunk_size=chunk)
    for faces_only in _modes(cone):
        kept = []

        def keep(index, *arrays):
            kept.append((index, arrays, [a.copy() for a in arrays]))

        map_chunks(cone, cfg, keep, workers, faces_only)
        assert sorted(index for index, _, _ in kept) == [i for i, _ in _chunks(cfg)]
        for n, (index, arrays, copies) in enumerate(kept):
            assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
            for _, others, _ in kept[n + 1:]:
                assert not any(np.shares_memory(a, b) for a in arrays for b in others)


def test_map_chunks_threads_keep_their_own_buffers(monkeypatch):
    # more threads than cores, switching every microsecond: a block buffer
    # shared between threads would be overwritten mid-block.  Three stream
    # units run at once, each read in 100-row blocks, so chunks of 32 run
    # three to a block and chunks of 256 span three blocks each.
    for cone in [*_SAMPLED_CONES, Psd(3)]:
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", 100 * sum(sampled_layout(cone)))
        cases = [(MonteCarloConfig(seed=29, total_samples=2 * UNIT_ROWS + 6_000,
                                   chunk_size=chunk), faces_only)
                 for chunk in (32, 256) for faces_only in _modes(cone)]
        references = [_reference_map_chunks(cone, cfg, _chunk_record, faces_only)
                      for cfg, faces_only in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for (cfg, faces_only), reference in zip(cases, references):
                assert map_chunks(cone, cfg, _chunk_record, 8, faces_only) == reference, cone
        finally:
            sys.setswitchinterval(interval)


# more generators than dimensions: a Gaussian 8x4 matrix spans all of R^4
# as a cone, and 24 generators around circ:6:pi/5 span a pointed cone
_FULL_SPACE_8X4 = Generators(np.random.default_rng(0).standard_normal((8, 4)))
_POINTED_24X6 = Generators(pointed_wide_generators(24, 6, math.pi / 5, 0))


def _check_generator_layout(monkeypatch, cone, layout, workers):
    # the block solver must give every row the bits it gets alone: at 64
    # values a block is 16 rows in R^4 and 10 in R^6, so chunks 1 and 8
    # coalesce and chunk 16 spans two blocks; at 2**24 the whole stream is
    # one block
    chunk, total = layout
    cfg = MonteCarloConfig(seed=23, total_samples=total, chunk_size=chunk)
    for faces_only in (False, True):
        reference = _reference_map_chunks(cone, cfg, _chunk_record, faces_only)
        for block_values in (64, 1 << 24):
            monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_values)
            assert map_chunks(cone, cfg, _chunk_record, workers, faces_only) == reference


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", [(1, 40), (8, 60), (16, 90)], ids=str)
def test_map_chunks_matches_reference_for_generators(monkeypatch, layout, workers):
    _check_generator_layout(monkeypatch, _FULL_SPACE_8X4, layout, workers)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", [(1, 40), (8, 60), (16, 90)], ids=str)
def test_map_chunks_matches_reference_for_pointed_generators(monkeypatch, layout, workers):
    _check_generator_layout(monkeypatch, _POINTED_24X6, layout, workers)


@pytest.mark.parametrize("block_values", [1, 1 << 24])
def test_results_do_not_depend_on_block_size(monkeypatch, block_values):
    min_a = preset_functionals()["min_a_10"]

    def results(cone, cfg):
        summary = run_summary(cone, cfg)
        return (summary.theta_moments,
                estimate_profile_face(cone, cfg).raw_v.tobytes()
                if supports_face_dim(cone) else None,
                summary.reservoir_s.tobytes(), summary.reservoir_t.tobytes(),
                phi_mc(cone, min_a, cfg),
                tuple(a.tobytes() for a in empirical_steiner_cdf(
                    cone, [0.25, 0.5, 0.75], cfg, kind="spherical")))
    cases = [(cone, MonteCarloConfig(seed=8, total_samples=1_600 if chunk > 8 else 300,
                                     chunk_size=chunk, reservoir_cap=500))
             for cone in (Product(Orthant(3), Subspace(2, 5)), Subspace(2, 5),
                          Product(Orthant(3), Circular(4, 0.6)))
             for chunk in (1, 8, 512)]
    defaults = [results(*case) for case in cases]
    monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_values)
    for case, default in zip(cases, defaults):
        assert results(*case) == default, case


# face estimates stream face dimensions alone: an orthant's K, a subspace's
# constant k (subspace:3:9 has no Gaussian column), a trivial cone's 0, and
# a generator cone on the full path, whose faces come from NNLS
_FACE_CONES = [Orthant(7), Subspace(3, 9), Trivial(4), Product(Orthant(3), Subspace(2, 5)),
               Generators(np.eye(4))]
_FACE_IDS = ["orthant:7", "subspace:3:9", "trivial:4", "prod(orthant:3,subspace:2:5)", "gens:I_4"]


def _face_configs():
    """Chunk sizes 1, 8 and 512."""
    return [MonteCarloConfig(seed=8, total_samples=total, chunk_size=chunk)
            for chunk, total in [(1, 300), (8, 300), (512, 1_000)]]


@pytest.mark.parametrize("cone", _FACE_CONES, ids=_FACE_IDS)
def test_face_estimate_equals_the_estimate_from_a_summary(monkeypatch, cone):
    # the face estimator draws only what the face dimensions need; its raw
    # profile must be the share of each face dimension among the rows drawn
    # and projected a whole stream unit at a time, at every block size and
    # thread count.  At 1- and 37-value blocks chunks 8 and 512 span
    # several blocks
    configs = _face_configs()
    d = ambient_dim(cone)
    references = [np.bincount(_reference_rows(cone, cfg)[2], minlength=d + 1) / cfg.total_samples
                  for cfg in configs]
    default = sampling._BLOCK_VALUES
    for block_values, threads in itertools.product((default, 1, 37, 1 << 24), ("1", "4")):
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_values)
        monkeypatch.setenv("CONEVOL_THREADS", threads)
        for cfg, ref in zip(configs, references):
            got = estimate_profile_face(cone, cfg)
            assert np.array_equal(got.raw_v, ref), (block_values, threads, cfg.chunk_size)
            assert np.array_equal(got.stderr, np.sqrt(ref * (1.0 - ref) / cfg.total_samples))


def test_face_estimate_draws_no_chi_square_and_projects_nothing(monkeypatch):
    # for a cone without a generator leaf, K and k come with the Gaussian
    # columns: the face path builds no chi-square stream and calls no
    # norms_block
    def forbidden(*args, **kwargs):
        raise AssertionError("a face estimate drew chi-square values or projected")

    monkeypatch.setattr(sampling, "unit_chi_square_rng", forbidden)
    monkeypatch.setattr(sampling, "norms_block", forbidden)
    for cone in _FACE_CONES[:4]:
        for cfg, workers in itertools.product(_face_configs()[1:], (1, 3)):
            assert estimate_profile_face(cone, cfg, workers=workers).d == ambient_dim(cone)
    # a generator cone's faces still come from its projection
    with pytest.raises(AssertionError, match="projected"):
        estimate_profile_face(_FACE_CONES[4], _face_configs()[1])


def test_run_summary_contents():
    cfg = MonteCarloConfig(seed=2, total_samples=20_000, reservoir_cap=512)
    summary = run_summary(Orthant(6), cfg)
    assert summary.count == 20_000
    assert summary.dim == 6
    # the face counts of the same rows, through the face estimate
    counts = 20_000 * estimate_profile_face(Orthant(6), cfg).raw_v
    assert np.array_equal(counts, np.rint(counts)) and counts.sum() == 20_000
    # theta = s / (s + t) lies in [0, 1], with mean delta / d = 1/2
    assert 0.0 <= summary.theta_moments.mean <= 1.0
    assert 6 * summary.theta_moments.mean == pytest.approx(3.0, abs=0.1)
    stride = cfg.reservoir_stride
    expected_rows = -(-20_000 // stride)
    assert summary.reservoir_s.shape == (expected_rows,)
    assert summary.reservoir_t.shape == (expected_rows,)
    assert summary.reservoir_stride == stride


# ---------------------------------------------------------------------------
# Sampled statistics of orthant and subspace leaves
# ---------------------------------------------------------------------------

def test_chi_square_columns_have_the_bits_of_chisquare():
    # map_chunks draws chi-square columns as 2 * standard_gamma(dofs / 2),
    # which also takes zero degrees of freedom; for positive ones it gives
    # chisquare's bits, so cones whose only sampled leaves are circular kept
    # their values
    dofs = np.tile([3.0, 7.0, 1.0, 399.0], (500, 1))
    expect = unit_chi_square_rng(5, 2).chisquare(dofs)
    assert np.array_equal(2.0 * unit_chi_square_rng(5, 2).standard_gamma(0.5 * dofs), expect)


def _binomial_pmf(d):
    return np.array([math.comb(d, k) for k in range(d + 1)], dtype=float) / 2.0 ** d


@pytest.mark.parametrize("cone, shift, d", [
    (Orthant(1), 0, 1),
    (Orthant(7), 0, 7),
    (Orthant(400), 0, 400),
    (Product(Orthant(3), Subspace(2, 5)), 2, 3),
    (Product(Orthant(4), Product(Trivial(2), Orthant(6))), 0, 10),
], ids=["orthant:1", "orthant:7", "orthant:400", "prod(orthant:3,subspace:2:5)",
        "prod(orthant:4,prod(trivial:2,orthant:6))"])
def test_face_histogram_is_binomial(cone, shift, d):
    # the face dimension of an orthant leaf is Binomial(d, 1/2); a subspace
    # adds its dimension and a trivial cone nothing.  Every bin with an
    # expected count of at least 10 passes a z-test at 4, and the bins
    # below that hold no more than a few samples altogether
    n = 40_000
    hist = n * estimate_profile_face(cone, MonteCarloConfig(seed=31, total_samples=n)).raw_v
    expect = np.zeros(hist.size)
    expect[shift:shift + d + 1] = n * _binomial_pmf(d)
    big = expect >= 10.0
    z = (hist[big] - expect[big]) / np.sqrt(expect[big] * (1.0 - expect[big] / n))
    assert np.abs(z).max() <= 4.0, z
    assert hist[~big].sum() <= expect[~big].sum() + 4.0 * math.sqrt(expect[~big].sum()) + 4.0


def test_orthant_norms_given_face_dimension():
    # given K = k, an orthant's s and t are chi-square(k) and chi-square(d - k):
    # exactly 0 at k = 0 and k = d, with means k and d - k
    d = 6
    cfg = MonteCarloConfig(seed=37, total_samples=60_000)
    s, t, k = _map_rows(Orthant(d), cfg)
    assert np.all(s[k == 0] == 0.0) and np.all(t[k == d] == 0.0)
    assert np.all(s[k > 0] > 0.0) and np.all(t[k < d] > 0.0)
    for j in range(d + 1):
        n = np.count_nonzero(k == j)
        for values, dof in ((s, j), (t, d - j)):
            if dof:
                z = (values[k == j].mean() - dof) / math.sqrt(2.0 * dof / n)
                assert abs(z) <= 4.0, (j, dof, z)


_LAW_CONES = [
    ("orthant:7", Orthant(7)),
    ("subspace:3:8", Subspace(3, 8)),
    ("prod(orthant:3,subspace:2:5)", Product(Orthant(3), Subspace(2, 5))),
    ("prod(orthant:4,orthant:6)", Product(Orthant(4), Orthant(6))),
    ("polar(orthant:5)", Polar(Orthant(5))),
    ("polar(prod(orthant:3,subspace:2:5))", Polar(Product(Orthant(3), Subspace(2, 5)))),
    ("prod(trivial:2,polar(subspace:1:4))", Product(Trivial(2), Polar(Subspace(1, 4)))),
    # sampled as tridiagonal matrices, against the closed forms of Psd(2), Psd(3)
    ("psd:2", Psd(2)),
    ("prod(psd:3,orthant:2)", Product(Psd(3), Orthant(2))),
    ("prod(psd:3,subspace:1:3)", Product(Psd(3), Subspace(1, 3))),
    ("polar(psd:3)", Polar(Psd(3))),
]


def test_moments_match_exact_profiles_over_seeds():
    # delta and Var V of the sampled statistics against the exact profile,
    # at every seed of a fixed set; the message lists every |z|
    zs = {}
    for (label, cone), seed in itertools.product(_LAW_CONES, (1, 2, 3)):
        summary = run_summary(cone, MonteCarloConfig(seed=seed, total_samples=20_000))
        exact = exact_profile(cone)
        for name, (est, se), truth in (
                ("delta", statistical_dimension(summary), exact.statistical_dimension),
                ("var", intrinsic_variance(summary), exact.variance)):
            zs[label, seed, name] = abs(est - truth) / se
    assert max(zs.values()) <= 4.0, {key: round(z, 2) for key, z in zs.items()}


# psd leaves are sampled as symmetric tridiagonal matrices (Dumitriu and
# Edelman's model of the GOE); full rows are projected by the projection
# oracle through the dense eigenvalues of their own matrices, which rests
# neither on that model nor on norms_block
_PSD_CONES = [
    ("psd:1", Psd(1)),
    ("psd:2", Psd(2)),
    ("psd:3", Psd(3)),
    ("psd:5", Psd(5)),
    ("prod(psd:3,orthant:4)", Product(Psd(3), Orthant(4))),
    ("polar(psd:4)", Polar(Psd(4))),
]


def _theta_mean_and_variance(acc):
    """((mean, se), (variance, se)) of theta from its moment accumulator."""
    mu2, mu4 = acc.central_moment(2), acc.central_moment(4)
    return (acc.mean, acc.se_mean), (acc.variance, math.sqrt(max(mu4 - mu2 * mu2, 0.0) / acc.n))


@pytest.mark.parametrize("label, cone", _PSD_CONES, ids=[label for label, _ in _PSD_CONES])
def test_tridiagonal_psd_matches_full_rows(label, cone):
    # a two-sample test of theta = s / (s + t): run_summary's sampled rows
    # against full Gaussian rows drawn here and projected by the oracle, at
    # every seed of a fixed set; the message lists every |z|
    zs = {}
    for seed in (41, 42, 43):
        sampled = run_summary(cone, MonteCarloConfig(seed=seed, total_samples=40_000))
        X = np.random.default_rng(seed).standard_normal((40_000, ambient_dim(cone)))
        p = project(cone, X)[0]
        s, t = (np.einsum("ij,ij->i", a, a) for a in (p, X - p))
        full = MomentAccumulator.from_values(s / (s + t))
        for name, (a, se_a), (b, se_b) in zip(("mean", "var"),
                                              _theta_mean_and_variance(sampled.theta_moments),
                                              _theta_mean_and_variance(full)):
            zs[seed, name] = abs(a - b) / math.hypot(se_a, se_b)
    assert max(zs.values()) <= 4.0, (label, {key: round(z, 2) for key, z in zs.items()})


@pytest.mark.parametrize("polar", [False, True], ids=["psd:1", "polar(psd:1)"])
def test_psd1_norms_are_the_parts_of_its_gaussian_column(polar):
    # Psd(1) has one Gaussian column and no chi-square column, so map_chunks
    # hands norms_block its rows as they are, and a 1 x 1 matrix is its own
    # eigenvalue: s and t are the squared positive and negative parts of the
    # run's Gaussian column, swapped for the polar cone
    cone = Polar(Psd(1)) if polar else Psd(1)
    big = sampling._BLOCK_VALUES + 611
    for chunk, total in ((1, 300), (512, 20_000), (UNIT_ROWS, big)):
        cfg = MonteCarloConfig(seed=9, total_samples=total, chunk_size=chunk)
        s, t = _map_rows(cone, cfg)
        x = _run_gaussians(cfg, 1)[:, 0]
        pos, neg = np.maximum(x, 0.0) ** 2, np.minimum(x, 0.0) ** 2
        assert np.array_equal(s, neg if polar else pos), chunk
        assert np.array_equal(t, pos if polar else neg), chunk


@pytest.mark.parametrize("n, total, bound", [(12, 20_000, 3_671_166), (28, 16_384, 3_562_358)])
def test_psd_run_summary_memory_is_bounded(n, total, bound):
    # a tridiagonal row draws 2n - 1 values, not n(n+1)/2, so a map_chunks
    # block holds more rows than it did for full rows, and their n x n
    # matrices would take up to 8.7 MB at n = 12; psd leaves are projected
    # in slices of about 2**17 matrix entries.  The bounds are the peaks of
    # the full-row sampler (tracemalloc, numpy 2.4)
    run_summary(Psd(n), MonteCarloConfig(seed=1, total_samples=64))
    tracemalloc.start()
    try:
        run_summary(Psd(n), MonteCarloConfig(seed=1, total_samples=total))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


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
# SHA-256 of every result of the six cones other than the generator cones,
# in two halves: the cases at chunk size 2**14, one stream unit per chunk,
# and those at 1024 and 512.  Re-pinned when the per-chunk SFC64 streams
# replaced the Philox ones, which changed every draw; when the summary's
# two moment blocks (of s and of t) became one of theta = s / (s + t),
# which left the reservoirs, face histograms and other paths
# bit-identical; when circular leaves began to draw ||z||^2 from a
# chi-square stream, which changed the three cones with a circular leaf and
# left the orthant, subspace and psd cases bit-identical; and when orthant
# and subspace leaves began to draw (K, chi-square(K), chi-square(d - K))
# and two chi-square values, which changed the orthant, subspace and
# product cases and the Monte Carlo subspace_moment path, and left the
# circular, polar circular and psd summaries and their other paths
# bit-identical; and when psd leaves began to draw a tridiagonal matrix (n
# normals and chi-square(n - 1), ..., chi-square(1)) in place of n(n+1)/2
# normals, which changed the three psd:3 cases and left every other case
# bit-identical, each hashed on its own.  When the streams were keyed by
# stream unit in place of chunk, the 2**14 half kept its digest and the
# 1024 and 777 half was re-pinned, once map_chunks matched the whole-unit
# reference at those chunk sizes.  When chunk_size had to divide 2**14, 512
# took the place of 777 and that half was re-pinned to the digest the
# earlier code gave at 512, so no value changed.  The same digests came out with 1-value,
# 37-value and 2**24-value blocks, with psd matrix slices of 1, 37 and
# 2**24 entries and on three threads, and any layout must reproduce them
_UNIT_CHUNK_SHA256 = "48ac813f92a70cbbdaa0554ff30bd336579bebf639a62227712e33b191ff908e"
_SMALL_CHUNK_SHA256 = "cf3ad6161e212a694c1f27d67c41e143a5fed4fb8a7b560d788b3a5d318f3ddb"


def _digest_cases():
    """(cone, config, path) for every cone and chunk size 1024, 512 and
    16384, with one other Monte Carlo path per pair, in rotation, so each
    path meets every chunk size.  Every stream ends in a partial chunk;
    the generator cones' streams are shorter, to keep their oracle quick."""
    case = 0
    for i, cone in enumerate(_DIGEST_CONES):
        for j, chunk in enumerate((1024, 512, 16384)):
            if isinstance(cone, Generators):
                total = chunk + 611 if chunk < 16384 else 250
            else:
                total = 2 * chunk + 611
            cfg = MonteCarloConfig(seed=1000 + case, total_samples=total,
                                   chunk_size=chunk, reservoir_cap=997)
            yield cone, cfg, _DIGEST_PATHS[(i + 2 * j) % len(_DIGEST_PATHS)]
            case += 1


def _summary_bytes(cone, config):
    """run_summary's moments and reservoirs and, for a cone with face dims,
    the face counts map_chunks gives with faces_only."""
    summary = run_summary(cone, config)
    acc = summary.theta_moments
    moments = [getattr(acc, f) for f in ("n", "mean", "m2", "m3", "m4")]
    parts = [np.asarray(moments, dtype=float), summary.reservoir_s, summary.reservoir_t]
    if supports_face_dim(cone):
        d = ambient_dim(cone)
        parts.append(sum(map_chunks(cone, config, lambda index, fd: np.bincount(fd, minlength=d + 1),
                                    faces_only=True)))
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def _digest(unit_chunks):
    """SHA-256 of _summary_bytes and one other Monte Carlo path for every
    non-generator case at chunk size 2**14, or at the other chunk sizes."""
    digest = hashlib.sha256()
    for cone, cfg, path in _digest_cases():
        if isinstance(cone, Generators) or (cfg.chunk_size == UNIT_ROWS) != unit_chunks:
            continue
        digest.update(_summary_bytes(cone, cfg))
        digest.update(np.asarray(path(cone, cfg), dtype=float).tobytes())
    return digest.hexdigest()


def test_monte_carlo_digest_is_pinned():
    assert _digest(unit_chunks=True) == _UNIT_CHUNK_SHA256


def test_small_chunk_monte_carlo_digest_is_pinned():
    assert _digest(unit_chunks=False) == _SMALL_CHUNK_SHA256


def test_generator_cone_matches_per_row_oracle():
    # the block solver rounds differently from per-row lstsq, at about
    # 1e-14, so the generator cones are checked against the per-row solver
    # it replaced instead of a pinned digest
    faces = {}
    for cone, cfg, _ in _digest_cases():
        if not isinstance(cone, Generators):
            continue
        d = ambient_dim(cone)
        got = zip(map_chunks(cone, cfg, lambda index, s, t: (s, t)),
                  map_chunks(cone, cfg, lambda index, fd: fd, faces_only=True))
        rows = _run_gaussians(cfg, d)
        for (index, count), ((s, t), fd) in zip(_chunks(cfg), got):
            X = rows[index * cfg.chunk_size:index * cfg.chunk_size + count]
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
