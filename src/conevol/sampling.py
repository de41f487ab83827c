"""Deterministic Gaussian sampling and streaming moment summaries.

Randomness comes from a counter-based generator: uniform draw number n of
a stream with a given seed is mix(seed + (n+1) * golden), where mix is
the SplitMix64 output permutation.  Every Monte Carlo sample owns a
fixed block of 2**20 counters addressed by its global sample index, and
each Gaussian coordinate pair owns a 128-counter slot inside that block
for its polar Box-Muller rejection attempts.  Draw j of chunk i is
therefore a pure function of (seed, i, j): results never depend on how
many chunks are processed, in what order, or on how many worker threads
ran them.  For the same reason gaussian_block draws in cache-sized row
tiles and retries rejected pairs in batches across tiles without
changing a single value.

Every Monte Carlo path (run_summary here; phi_mc, wills_mc,
empirical_steiner_cdf and the Monte Carlo subspace_moment in steiner)
streams through one primitive, map_chunks.  It draws and projects the
stream in row blocks of about _BLOCK_VALUES values, whatever the chunk
size: consecutive small chunks share a block, a large chunk spans
several.  It runs the blocks on CONEVOL_THREADS worker threads unless a
caller passes an explicit worker count, and returns the per-chunk
results in chunk-index order.  Callers fold them left to right in that
fixed order, moment sums with the exact pairwise-merge update formulas,
so every result is a function of (seed, total_samples, chunk_size,
reservoir_cap) only: bit-identical for any worker count and block size.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cones import ambient_dim, norms_block, supports_face_dim
from .exceptions import NonConvergenceError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_ONE = np.uint64(1)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53
_INV_2_52 = 2.0 ** -52

SAMPLE_BLOCK_BITS = 20          # counters reserved per sample
PAIR_SLOT_BITS = 7              # counters per Box-Muller coordinate pair
_MAX_PAIR_ATTEMPTS = 64         # rejection cap; P(fail) < (1 - pi/4)**64
_TILE_PAIRS = 1 << 15           # pairs per row tile: 256 KB per float64 temporary
_BLOCK_VALUES = 1 << 17         # values per map_chunks row block: 1 MB of float64


def _mix53(z):
    """SplitMix64 output permutation of the states z, in place; returns
    the top 53 bits of each output (still uint64)."""
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z


def counter_uniforms(seed, counters):
    """Uniform [0, 1) draws indexed by absolute counter values (uint64)."""
    # in place on one fresh array: uint64 arithmetic wraps mod 2**64
    z = counters + _U64_ONE
    z *= _GOLDEN
    z += np.uint64(seed & _U64_MASK)
    u = _mix53(z).astype(np.float64)
    u *= _INV_2_53
    return u


def _signed_uniform(state):
    # 2u - 1 for u = (z >> 11) * 2**-53, as (z >> 11) * 2**-52 - 1: both
    # steps are exact, so the value is the same float; consumes state
    x = _mix53(state).astype(np.float64)
    x *= _INV_2_52
    x -= 1.0
    return x


def _polar_attempt(state):
    """One polar Box-Muller attempt per pair: (u, v, ssq, accepted).

    state is the SplitMix64 state of each pair's u draw; v's counter is
    one higher, so its state is golden higher.  state is consumed.
    """
    v = _signed_uniform(state + _GOLDEN)
    u = _signed_uniform(state)
    ssq = u * u
    ssq += v * v
    return u, v, ssq, (ssq < 1.0) & (ssq > 0.0)


def _retry_pairs(flat_out, index, state):
    """Attempts 1 .. _MAX_PAIR_ATTEMPTS - 1 for the pairs flat_out[index]
    that attempt 0 rejected; state is their attempt-0 u state."""
    for attempt in range(1, _MAX_PAIR_ATTEMPTS):
        if index.size == 0:
            return
        # attempt k draws counters 2k higher: states 2k * golden higher
        step = np.uint64((2 * attempt * int(_GOLDEN)) & _U64_MASK)
        u, v, ssq, ok = _polar_attempt(state + step)
        # integer gathers: a random boolean mask gathers several times slower
        hit = np.flatnonzero(ok)
        ssq = ssq[hit]
        factor = np.sqrt(-2.0 * np.log(ssq) / ssq)
        rows = index[hit]
        flat_out[rows, 0] = u[hit] * factor
        flat_out[rows, 1] = v[hit] * factor
        miss = np.flatnonzero(~ok)
        index, state = index[miss], state[miss]
    if index.size:
        raise NonConvergenceError("Box-Muller rejection cap exceeded", _MAX_PAIR_ATTEMPTS)


def gaussian_block(seed, chunk_index, count, dim, chunk_size):
    """Standard normal block of shape (count, dim) for one chunk.

    Polar Box-Muller: each coordinate pair repeatedly draws a point of
    the square [-1, 1)^2 from its own counter slot until it lands inside
    the unit disk, at most _MAX_PAIR_ATTEMPTS times.

    Rows are global samples chunk_index * chunk_size + row, so rows
    g0 .. g0 + n - 1 of the stream are gaussian_block(seed, g0, n, dim, 1).
    Attempt 0 runs in row tiles of about _TILE_PAIRS pairs so that the
    temporaries stay cache-sized; the pairs it rejects (about 21%) are
    queued across tiles and retried in batches of at least _TILE_PAIRS
    pairs, and once more at the end of the block.  Every value is a pure
    function of its counters, so neither the tiling nor the batching
    changes a value.
    """
    n_pairs = (dim + 1) // 2
    if (n_pairs << PAIR_SLOT_BITS) > (1 << SAMPLE_BLOCK_BITS):
        raise ValueError("dimension exceeds the per-sample counter budget")
    if _MAX_PAIR_ATTEMPTS < 1:
        raise NonConvergenceError("Box-Muller rejection cap exceeded", _MAX_PAIR_ATTEMPTS)
    # The SplitMix64 state of counter c is (c + 1) * golden + seed, and
    # pair j of sample g draws first from c = (g << SAMPLE_BLOCK_BITS) +
    # (j << PAIR_SLOT_BITS); uint64 arithmetic wraps mod 2**64, so the
    # state is exactly a row term plus a column term.
    first = np.uint64(chunk_index) * np.uint64(chunk_size)
    row_state = (first + np.arange(count, dtype=np.uint64)) << np.uint64(SAMPLE_BLOCK_BITS)
    row_state += _U64_ONE
    row_state *= _GOLDEN
    row_state += np.uint64(seed & _U64_MASK)
    col_state = np.arange(n_pairs, dtype=np.uint64) << np.uint64(PAIR_SLOT_BITS)
    col_state *= _GOLDEN
    out = np.empty((count, n_pairs, 2))
    flat_out = out.reshape(-1, 2)
    rows = _TILE_PAIRS // max(1, n_pairs)   # n_pairs <= 2**13 by the budget above
    queue, queued = [], 0
    for r0 in range(0, count, rows):
        state = row_state[r0:r0 + rows, None] + col_state[None, :]
        tile = out[r0:r0 + rows]
        u, v, ssq, ok = _polar_attempt(state)
        # rejected pairs get NaN or inf here and are overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.log(ssq)
            factor *= -2.0
            factor /= ssq
            np.sqrt(factor, out=factor)
        np.multiply(u, factor, out=tile[..., 0])
        np.multiply(v, factor, out=tile[..., 1])
        rejected = np.flatnonzero(~ok)
        rejected += r0 * n_pairs
        queue.append(rejected)
        queued += rejected.size
        if queued >= _TILE_PAIRS or r0 + rows >= count:
            index = np.concatenate(queue)
            ri, ci = np.divmod(index, n_pairs)
            _retry_pairs(flat_out, index, row_state[ri] + col_state[ci])
            queue, queued = [], 0
    return out.reshape(count, 2 * n_pairs)[:, :dim]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Knobs that determine a sampling run.

    Summaries depend only on (seed, total_samples, chunk_size,
    reservoir_cap); worker counts change wall time, never results.
    """
    seed: int
    total_samples: int
    chunk_size: int = 1 << 14
    reservoir_cap: int = 100_000

    def __post_init__(self):
        if self.total_samples < 1:
            raise ValueError("total_samples must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.reservoir_cap < 1:
            raise ValueError("reservoir_cap must be positive")

    def chunks(self):
        full, rem = divmod(self.total_samples, self.chunk_size)
        sizes = [self.chunk_size] * full + ([rem] if rem else [])
        return list(enumerate(sizes))

    @property
    def reservoir_stride(self):
        return max(1, -(-self.total_samples // self.reservoir_cap))


@dataclass
class MomentAccumulator:
    """Count, mean and central moment sums M2..M4 of a scalar stream."""
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    @classmethod
    def from_values(cls, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        if n == 0:
            return cls()
        mean = float(x.mean())
        dev = x - mean
        d2 = dev * dev
        return cls(n=n, mean=mean, m2=float(d2.sum()),
                   m3=float((d2 * dev).sum()), m4=float((d2 * d2).sum()))

    def merge(self, other):
        """Exact pairwise combination of two disjoint streams."""
        na, nb = self.n, other.n
        if na == 0:
            return MomentAccumulator(other.n, other.mean, other.m2, other.m3, other.m4)
        if nb == 0:
            return MomentAccumulator(self.n, self.mean, self.m2, self.m3, self.m4)
        n = na + nb
        delta = other.mean - self.mean
        d_n = delta / n
        mean = self.mean + nb * d_n
        m2 = self.m2 + other.m2 + delta * d_n * na * nb
        m3 = (self.m3 + other.m3
              + d_n ** 2 * delta * na * nb * (na - nb)
              + 3.0 * d_n * (na * other.m2 - nb * self.m2))
        m4 = (self.m4 + other.m4
              + d_n ** 3 * delta * na * nb * (na * na - na * nb + nb * nb)
              + 6.0 * d_n ** 2 * (na * na * other.m2 + nb * nb * self.m2)
              + 4.0 * d_n * (na * other.m3 - nb * self.m3))
        return MomentAccumulator(n, mean, m2, m3, m4)

    @property
    def variance(self):
        """Unbiased sample variance."""
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    def central_moment(self, k):
        if self.n == 0:
            return 0.0
        return {2: self.m2, 3: self.m3, 4: self.m4}[k] / self.n

    @property
    def se_mean(self):
        return math.sqrt(self.variance / self.n) if self.n > 0 else math.inf


@dataclass
class SampleSummary:
    """Streaming summary of the squared projection / residual norms.

    cone is the cone that was sampled; estimators given a summary check
    it against the cone they are asked about.
    """
    cone: object
    dim: int
    count: int
    s_moments: MomentAccumulator
    t_moments: MomentAccumulator
    face_hist: np.ndarray | None
    reservoir_s: np.ndarray
    reservoir_t: np.ndarray
    reservoir_stride: int
    seed: int
    chunk_size: int

    @property
    def mean_s(self):
        return self.s_moments.mean

    @property
    def mean_t(self):
        return self.t_moments.mean


def resolve_workers(workers=None):
    """Worker count: explicit argument, else CONEVOL_THREADS, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CONEVOL_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CONEVOL_THREADS must be an integer, got {env!r}") from None
    return 1


def _block_groups(chunks, block_rows):
    """Pool tasks for map_chunks: runs of consecutive chunks that fit in
    one row block together, and every chunk larger than a block alone."""
    groups, run, rows = [], [], 0
    for index, count in chunks:
        if run and rows + count > block_rows:
            groups.append(run)
            run, rows = [], 0
        run.append((index, count))
        rows += count
    return groups + [run]


def map_chunks(cone, config, fn, workers=None):
    """fn(index, s, t, face_dims) for every chunk of the projection stream.

    The stream is drawn and projected in row blocks of about _BLOCK_VALUES
    values: a run of small chunks shares one gaussian_block and one
    norms_block call, and a chunk larger than a block is drawn and
    projected a block at a time, its norms concatenated.  fn still sees
    each chunk once, with that chunk's full arrays, and the results come
    back as a list in chunk-index order, so a caller that folds them left
    to right gets the same answer for any worker count; every result is a
    function of (seed, total_samples, chunk_size, reservoir_cap) only.
    Block groups run on a thread pool when resolve_workers(workers) asks
    for more than one thread and there is more than one group.
    """
    dim = ambient_dim(cone)
    block_rows = max(1, _BLOCK_VALUES // dim)
    groups = _block_groups(config.chunks(), block_rows)

    def work(group):
        # sample g of the stream is row g of chunk 0 with chunk_size 1
        first = group[0][0] * config.chunk_size
        total = sum(count for _, count in group)
        step = -(-total // -(-total // block_rows))   # near-equal blocks of <= block_rows
        blocks = [norms_block(cone, gaussian_block(config.seed, first + r0,
                                                   min(step, total - r0), dim, 1))
                  for r0 in range(0, total, step)]
        s, t, fd = (None if parts[0] is None else np.concatenate(parts)
                    for parts in zip(*blocks))
        results, r0 = [], 0
        for index, count in group:
            rows = slice(r0, r0 + count)
            results.append(fn(index, s[rows], t[rows], None if fd is None else fd[rows]))
            r0 += count
        return results

    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(groups) == 1:
        return [r for group in groups for r in work(group)]
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        return [r for results in pool.map(work, groups) for r in results]


def run_summary(cone, config, workers=None):
    """Sample Gaussians, project every draw, and summarize both norms.

    Returns a SampleSummary with exact-merged central moments up to
    order four for s = ||proj(g)||^2 and t = dist^2(g, cone), a face
    dimension histogram for polyhedral cones, and a stride-thinned
    reservoir of retained (s, t) pairs for the profile estimators.
    """
    dim = ambient_dim(cone)
    want_faces = supports_face_dim(cone)
    stride = config.reservoir_stride

    def summarize(index, s, t, fd):
        hist = np.bincount(fd, minlength=dim + 1).astype(np.int64) if want_faces else None
        # keep every stride-th sample of the whole stream, by global index
        keep = np.arange((-index * config.chunk_size) % stride, s.shape[0], stride)
        return (MomentAccumulator.from_values(s), MomentAccumulator.from_values(t),
                hist, s[keep], t[keep])

    s_parts, t_parts, hists, res_s, res_t = zip(*map_chunks(cone, config, summarize, workers))
    return SampleSummary(
        cone=cone,
        dim=dim,
        count=config.total_samples,
        s_moments=reduce(MomentAccumulator.merge, s_parts, MomentAccumulator()),
        t_moments=reduce(MomentAccumulator.merge, t_parts, MomentAccumulator()),
        face_hist=sum(hists) if want_faces else None,
        reservoir_s=np.concatenate(res_s),
        reservoir_t=np.concatenate(res_t),
        reservoir_stride=config.reservoir_stride,
        seed=config.seed,
        chunk_size=config.chunk_size,
    )
