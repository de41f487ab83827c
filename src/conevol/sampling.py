"""Deterministic Gaussian sampling and streaming moment summaries.

Randomness comes from a counter-based generator: uniform draw number n of
a stream with a given seed is mix(seed + (n+1) * golden), where mix is
the SplitMix64 output permutation.  Every Monte Carlo sample owns a
fixed block of 2**20 counters addressed by its global sample index, and
each Gaussian coordinate pair owns a 128-counter slot inside that block
for its polar Box-Muller rejection attempts.  Draw j of chunk i is
therefore a pure function of (seed, i, j): results never depend on how
many chunks are processed, in what order, or on how many worker threads
ran them.  For the same reason gaussian_block draws a block in
cache-sized row tiles without changing a single value.

Every Monte Carlo path (run_summary here; phi_mc, wills_mc,
empirical_steiner_cdf and the Monte Carlo subspace_moment in steiner)
streams through one primitive, map_chunks: it draws and projects each
chunk, on CONEVOL_THREADS worker threads unless a caller passes an
explicit worker count, and returns the per-chunk results in chunk-index
order.  Callers fold them left to right in that fixed order, moment sums
with the exact pairwise-merge update formulas, so every result is
bit-identical for any worker count.
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
_INV_2_53 = 2.0 ** -53

SAMPLE_BLOCK_BITS = 20          # counters reserved per sample
PAIR_SLOT_BITS = 7              # counters per Box-Muller coordinate pair
_MAX_PAIR_ATTEMPTS = 64         # rejection cap; P(fail) < (1 - pi/4)**64
_TILE_PAIRS = 1 << 15           # pairs per row tile: 256 KB per float64 temporary


def counter_uniforms(seed, counters):
    """Uniform [0, 1) draws indexed by absolute counter values (uint64)."""
    # in place on one fresh array: uint64 arithmetic wraps mod 2**64
    z = counters + _U64_ONE
    z *= _GOLDEN
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def _sample_bases(chunk_index, count, chunk_size):
    first = np.uint64(chunk_index) * np.uint64(chunk_size)
    gidx = first + np.arange(count, dtype=np.uint64)
    return gidx << np.uint64(SAMPLE_BLOCK_BITS)


def _polar_attempt(seed, counters):
    # one polar Box-Muller attempt per pair: (u, v, ssq, accepted)
    u = counter_uniforms(seed, counters)
    u *= 2.0
    u -= 1.0
    v = counter_uniforms(seed, counters + _U64_ONE)
    v *= 2.0
    v -= 1.0
    ssq = u * u
    ssq += v * v
    return u, v, ssq, (ssq < 1.0) & (ssq > 0.0)


def gaussian_block(seed, chunk_index, count, dim, chunk_size):
    """Standard normal block of shape (count, dim) for one chunk.

    Polar Box-Muller: each coordinate pair repeatedly draws a point of
    the square [-1, 1)^2 from its own counter slot until it lands inside
    the unit disk, at most _MAX_PAIR_ATTEMPTS times.

    The block is drawn in row tiles of about _TILE_PAIRS pairs so that
    the temporaries stay cache-sized.  Every value is a pure function of
    its counters, so the tiling changes no value: a tile takes attempt 0
    for all of its pairs at once and retries only the rejected ones.
    """
    n_pairs = (dim + 1) // 2
    if (n_pairs << PAIR_SLOT_BITS) > (1 << SAMPLE_BLOCK_BITS):
        raise ValueError("dimension exceeds the per-sample counter budget")
    if _MAX_PAIR_ATTEMPTS < 1:
        raise NonConvergenceError("Box-Muller rejection cap exceeded", _MAX_PAIR_ATTEMPTS)
    bases = _sample_bases(chunk_index, count, chunk_size)
    slots = np.arange(n_pairs, dtype=np.uint64) << np.uint64(PAIR_SLOT_BITS)
    out = np.empty((count, n_pairs, 2))
    rows = _TILE_PAIRS // max(1, n_pairs)   # n_pairs <= 2**13 by the budget above
    for r0 in range(0, count, rows):
        counters = bases[r0:r0 + rows, None] + slots[None, :]
        tile = out[r0:r0 + rows]
        u, v, ssq, ok = _polar_attempt(seed, counters)
        # rejected pairs get NaN or inf here and are overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.log(ssq)
            factor *= -2.0
            factor /= ssq
            np.sqrt(factor, out=factor)
        np.multiply(u, factor, out=tile[..., 0])
        np.multiply(v, factor, out=tile[..., 1])
        pending = np.flatnonzero(~ok)
        flat_counters, flat_tile = counters.ravel(), tile.reshape(-1, 2)
        for attempt in range(1, _MAX_PAIR_ATTEMPTS):
            if pending.size == 0:
                break
            u, v, ssq, ok = _polar_attempt(
                seed, flat_counters[pending] + np.uint64(2 * attempt))
            factor = np.sqrt(-2.0 * np.log(ssq[ok]) / ssq[ok])
            hit = pending[ok]
            flat_tile[hit, 0] = u[ok] * factor
            flat_tile[hit, 1] = v[ok] * factor
            pending = pending[~ok]
        if pending.size:
            raise NonConvergenceError("Box-Muller rejection cap exceeded", _MAX_PAIR_ATTEMPTS)
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


def map_chunks(cone, config, fn, workers=None):
    """fn(index, s, t, face_dims) for every chunk of the projection stream.

    Chunk i draws its Gaussian block and reduces it with norms_block;
    the results come back as a list in chunk-index order, so a caller
    that folds them left to right gets the same answer for any worker
    count.  Chunks run on a thread pool when resolve_workers(workers)
    asks for more than one thread and there is more than one chunk.
    """
    dim = ambient_dim(cone)
    chunks = config.chunks()

    def work(item):
        index, count = item
        X = gaussian_block(config.seed, index, count, dim, config.chunk_size)
        return fn(index, *norms_block(cone, X))

    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(chunks) == 1:
        return [work(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        return list(pool.map(work, chunks))


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
