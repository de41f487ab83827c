"""Deterministic Gaussian sampling and streaming moment summaries.

Every Monte Carlo draw comes from numpy's SFC64 generator.  Each chunk
of a run owns one stream, chunk_rng(seed, chunk index), read from the
start in order: SFC64 seeded by SeedSequence with entropy seed mod 2**64
and spawn_key (chunk index,).  SeedSequence pads the entropy to its full
pool before it mixes in the spawn key, so no two (seed, chunk index)
pairs share a stream; list entropy [seed, chunk index] would not do, as
numpy pads short entropy with zeros and [5, 7] and [5 + 7 * 2**32, 0]
give the same stream.  The draws are a function of (seed, chunk index,
chunk size): changing chunk_size moves samples to other streams and
changes every value, while the order in which chunks run, the worker
thread that runs them and how a chunk's stream is split into reads
never do.

Every Monte Carlo path (run_summary here; phi_mc, wills_mc,
empirical_steiner_cdf and the Monte Carlo subspace_moment in steiner)
streams through one primitive, map_chunks.  It draws and projects the
stream in row blocks of about _BLOCK_VALUES values, whatever the chunk
size: consecutive small chunks fill one block, a large chunk is read a
block at a time, and each worker thread draws into one block buffer that
it reuses for all of its blocks.  It runs the blocks on CONEVOL_THREADS
worker threads unless a caller passes an explicit worker count, and
returns the per-chunk results in chunk-index order.  Callers fold them
left to right in that fixed order, moment sums with the exact
pairwise-merge update formulas, so every result is a function of (seed,
total_samples, chunk_size, reservoir_cap) only: bit-identical for any
worker count and block size.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cones import ambient_dim, norms_block, supports_face_dim

_BLOCK_VALUES = 1 << 17         # values per map_chunks row block: 1 MB of float64


def chunk_rng(seed, chunk_index):
    """The random stream of one chunk, as a Generator read from the start:
    numpy's SFC64 seeded by SeedSequence(seed mod 2**64,
    spawn_key=(chunk_index,)), so that distinct (seed, chunk_index)
    pairs never share a stream."""
    ss = np.random.SeedSequence(seed % (1 << 64), spawn_key=(chunk_index,))
    return np.random.Generator(np.random.SFC64(ss))


def gaussian_block(rng, out, count, dim):
    """The next count rows of dim standard normals from the stream rng.

    They are written, row after row, to the front of out, a flat float64
    array of at least count * dim values, and returned as a (count, dim)
    view of it.  A stream read in several calls gives the same values as
    one call for all of its rows.
    """
    block = out[:count * dim].reshape(count, dim)
    rng.standard_normal(out=block)
    return block


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
    values: a run of small chunks fills one block, each chunk from its
    own stream, and shares one norms_block call; a chunk larger than a
    block reads its stream a block at a time, one pool task, since the
    stream must be read in order, and its norms are concatenated.  fn sees
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
    buffer_values = min(block_rows, config.total_samples) * dim
    local = threading.local()

    def work(group):
        # one block buffer per worker thread, reused by each of its tasks;
        # norms_block returns new arrays, so what fn sees never aliases it
        buffer = getattr(local, "buffer", None)
        if buffer is None:
            buffer = local.buffer = np.empty(buffer_values)
        total = sum(count for _, count in group)
        if total <= block_rows:
            # a run of chunks that fits in one block: each fills its own rows
            r0 = 0
            for index, count in group:
                gaussian_block(chunk_rng(config.seed, index), buffer[r0 * dim:], count, dim)
                r0 += count
            s, t, fd = norms_block(cone, buffer[:total * dim].reshape(total, dim))
        else:
            # one chunk larger than a block: its stream is read a block at a time
            rng = chunk_rng(config.seed, group[0][0])
            step = -(-total // -(-total // block_rows))   # near-equal blocks of <= block_rows
            parts = [norms_block(cone, gaussian_block(rng, buffer, min(step, total - r0), dim))
                     for r0 in range(0, total, step)]
            s, t, fd = (None if p[0] is None else np.concatenate(p) for p in zip(*parts))
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
