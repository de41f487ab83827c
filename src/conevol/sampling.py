"""Deterministic Gaussian sampling and streaming moment summaries.

Every Monte Carlo draw comes from numpy's SFC64 generator.  The rows of a
run are cut into stream units of UNIT_ROWS consecutive rows: unit u holds
the global rows u * UNIT_ROWS up to the next unit, and owns two streams,
each read from the start in order.  The Gaussian stream, unit_rng(seed,
u), is SFC64 seeded by SeedSequence with entropy seed mod 2**64 and
spawn_key (u,).  SeedSequence pads the entropy to its full pool before it
mixes in the spawn key, so no two (seed, u) pairs share a stream; list
entropy [seed, u] would not do, as numpy pads short entropy with zeros
and [5, 7] and [5 + 7 * 2**32, 0] give the same stream.  The chi-square
stream, unit_chi_square_rng(seed, u), is seeded by SeedSequence(seed mod
2**64, spawn_key=(u, 0)), the first child of the Gaussian stream's
SeedSequence, built from its key.  The key (u, 1) would not do: a spawn
key is mixed in as 32-bit words, so it equals the key (u + 2**32,) of
another unit's Gaussian stream; no Gaussian key ends in a zero word.

Each leaf of a cone is drawn in its sampled coordinates (see
cones.sampled_layout), the few statistics its norms depend on, when it
has them.  A circular leaf takes x_1 from the Gaussian stream and
||z||^2 ~ chi-square(d - 1) from the chi-square stream.  An orthant leaf
takes one normal x from the Gaussian stream, turned into its face
dimension K ~ Binomial(d, 1/2) by a table of normal thresholds, and
s ~ chi-square(K) and t ~ chi-square(d - K) from the chi-square stream.
A subspace, and a trivial cone as Subspace(0, d), takes s ~ chi-square(k)
and t ~ chi-square(d - k) from the chi-square stream alone.  A psd leaf
takes the symmetric tridiagonal matrix whose eigenvalues follow the GOE
law of its point's matrix: its diagonal, n normals, from the Gaussian
stream and its subdiagonal sqrt(z_i / 2), z_i ~ chi-square(n - i) for
i = 1..n-1, from the chi-square stream.  Generator leaves take their full
Gaussian rows.  K comes from the Gaussian stream, not from a third
stream: a unit's third key (u, 1) would be another unit's Gaussian key,
and a binomial draw followed by the chi-square draws on one stream would
make the values depend on how a unit is split into blocks.  A cone
without Gaussian columns builds no Gaussian stream, and one without
chi-square columns no chi-square stream.  A face estimate builds no
chi-square stream: an orthant's K and a subspace's k are its face
dimensions, so estimate_profile_face reads them off the Gaussian columns
alone (map_chunks with faces_only), unless a generator leaf needs its
projection for them.  The draws are a function of (seed, global row):
chunk_size only decides how the rows are grouped for reduction, and
neither it nor the order in which units run, the worker thread that runs
them or how a unit's streams are split into reads changes a value.  At
the default chunk_size, UNIT_ROWS, every chunk is one unit.

Every Monte Carlo path (run_summary here; phi_mc, wills_mc,
empirical_steiner_cdf and the Monte Carlo subspace_moment in steiner)
streams through one primitive, map_chunks.  It draws and projects the
streams in row blocks of about _BLOCK_VALUES drawn values, whatever the
chunk size: consecutive units that fit fill one block, a larger unit is
read a block at a time, and each worker thread draws its Gaussian rows
into one block buffer that it reuses for all of its blocks.  It runs the
blocks on CONEVOL_THREADS worker threads unless a caller passes an
explicit worker count, hands each chunk's rows to the caller whole, and
returns the per-chunk results in chunk-index order.  Callers fold them
left to right in that fixed order, moment sums (run_summary keeps those
of theta = s / (s + t) only) with the exact pairwise-merge update
formulas, so every result is a function of (seed, total_samples,
chunk_size, reservoir_cap) only: bit-identical for any worker count and
block size.
"""

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter

import numpy as np

from .cones import (ambient_dim, chi_square_dofs, faces_from_dofs, norms_block,
                    sampled_layout, supports_face_dim)

_BLOCK_VALUES = 1 << 17         # values drawn per map_chunks row block: 1 MB of float64
UNIT_ROWS = 1 << 14             # rows per stream unit; also the default chunk_size


def unit_rng(seed, unit):
    """The Gaussian stream of one stream unit, as a Generator read from
    the start: numpy's SFC64 seeded by SeedSequence(seed mod 2**64,
    spawn_key=(unit,)), so that distinct (seed, unit) pairs never share a
    stream.  The unit's chi-square stream is unit_chi_square_rng."""
    ss = np.random.SeedSequence(seed % (1 << 64), spawn_key=(unit,))
    return np.random.Generator(np.random.SFC64(ss))


def unit_chi_square_rng(seed, unit):
    """The chi-square stream of one stream unit, read from the start: SFC64
    seeded by SeedSequence(seed mod 2**64, spawn_key=(unit, 0)), the first
    child of unit_rng's SeedSequence, whose key is no unit's Gaussian key."""
    ss = np.random.SeedSequence(seed % (1 << 64), spawn_key=(unit, 0))
    return np.random.Generator(np.random.SFC64(ss))


def _partition(total, size):
    """(index, count) of consecutive runs of size rows, the last one short."""
    full, rem = divmod(total, size)
    return list(enumerate([size] * full + ([rem] if rem else [])))


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
    chunk_size: int = UNIT_ROWS
    reservoir_cap: int = 100_000

    def __post_init__(self):
        if self.total_samples < 1:
            raise ValueError("total_samples must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.reservoir_cap < 1:
            raise ValueError("reservoir_cap must be positive")

    def chunks(self):
        return _partition(self.total_samples, self.chunk_size)

    def units(self):
        """(unit, count) of the run's stream units, UNIT_ROWS rows each."""
        return _partition(self.total_samples, UNIT_ROWS)

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

    theta_moments are the moments of theta = s / (s + t).  Given V = k,
    theta is Beta(k/2, (d-k)/2) and independent of the chi-square radius,
    so they alone give the mean and variance of V (see
    profiles.intrinsic_variance).  cone is the cone that was sampled;
    estimators given a summary check it against the cone they are asked
    about.
    """
    cone: object
    dim: int
    count: int
    theta_moments: MomentAccumulator
    face_hist: np.ndarray | None
    reservoir_s: np.ndarray
    reservoir_t: np.ndarray
    reservoir_stride: int
    seed: int
    chunk_size: int


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


def _block_groups(units, block_rows):
    """Pool tasks for map_chunks: runs of consecutive stream units that fit
    in one row block together, and every unit larger than a block alone."""
    groups, run, rows = [], [], 0
    for index, count in units:
        if run and rows + count > block_rows:
            groups.append(run)
            run, rows = [], 0
        run.append((index, count))
        rows += count
    return groups + [run]


def _join(pieces):
    """One tuple of arrays from tuples that hold consecutive rows of them."""
    if len(pieces) == 1:
        return pieces[0]
    return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*pieces))


def _by_chunk(blocks, row, chunk_size, total):
    """(chunk index, arrays) for each chunk met in blocks, tuples of arrays
    that hold consecutive rows from the global row `row` on, the first
    array never None.  A chunk's rows that lie in several blocks are
    joined; a chunk that starts before the blocks or ends after them
    yields only its rows in them."""
    index, held = row // chunk_size, []
    for arrays in blocks:
        r0, n = 0, arrays[0].shape[0]
        while r0 < n:
            end = min((index + 1) * chunk_size, total)
            take = min(n - r0, end - row)
            held.append(arrays if take == n else
                        tuple(None if a is None else a[r0:r0 + take] for a in arrays))
            r0, row = r0 + take, row + take
            if row == end:
                yield index, _join(held)
                index, held = index + 1, []
    if held:
        yield index, _join(held)


def map_chunks(cone, config, fn, workers=None, faces_only=False):
    """fn(index, s, t, face_dims) for every chunk of the projection stream.

    Each row is drawn in the sampled coordinates of
    cones.sampled_layout(cone): its Gaussian columns from its stream
    unit's Gaussian stream, with gaussian_block, then its chi-square
    columns from the unit's chi-square stream, with one row-major
    2 * standard_gamma(dofs / 2) call per unit and block on the degrees
    of freedom cones.chi_square_dofs gives for the block, so that a stream
    read in several blocks gives the same values as one read.  That call
    gives the bits of chisquare(dofs), and it also takes zero degrees of
    freedom (K = 0 or K = d, Subspace(0, d), Subspace(d, d), Trivial(d)),
    which it draws as 0.  What chi_square_dofs found on the way (an
    orthant's K) goes on to norms_block with the draws, so it is found
    once.  The s, t and face dimensions fn sees are sums over the leaves:
    an orthant's two chi-square draws and K, a subspace's two draws and k,
    a circular leaf's norms from x_1 and ||z||^2, a psd leaf's from the
    eigenvalues of its tridiagonal matrix, whose diagonal is n Gaussian
    columns and whose subdiagonal is sqrt(z / 2) for n - 1 chi-square
    columns with degrees of freedom n - 1, ..., 1, and the norms of full
    generator rows.

    With faces_only, for a cone with face dimensions, fn(index,
    face_dims) sees the face dimensions alone.  When every leaf is an
    orthant, a subspace or a trivial cone (cones.faces_from_dofs), they are
    the sums of the leaves' entries of chi_square_dofs, an orthant's K
    and a subspace's k, found without filling its degrees of freedom: the
    Gaussian columns are drawn as above, and no chi-square stream,
    chi-square draw or norms_block call is made.  A generator leaf finds
    its face dimensions by projection, so such a cone takes the full path
    and fn sees only its face dimensions.  They
    depend on the Gaussian stream only, which is read as it is without
    faces_only, so they are those fn(index, s, t, face_dims) sees.

    The streams are drawn and projected in row blocks of about
    _BLOCK_VALUES drawn values: a run of units that fits in a block fills
    it, each unit from its own streams, and shares one norms_block call;
    a unit larger than a block reads its streams a block at a time.
    Either is one pool task, since a stream must be read in order.  A
    row's values depend on (seed, global row) only, never on chunk_size.
    fn sees each chunk once, with that chunk's full arrays: a chunk that
    lies inside one task is reduced in that task, and one whose rows lie
    in several tasks (a chunk_size that does not divide a task's rows, or
    one larger than a task) is joined from their pieces and reduced by
    the calling thread.  The results come back as a list in chunk-index
    order, so a caller that folds them left to right gets the same answer
    for any worker count; every result is a function of (seed,
    total_samples, chunk_size, reservoir_cap) only.  Tasks run on a thread
    pool when resolve_workers(workers) asks for more than one thread and
    there is more than one task.
    """
    width, columns = sampled_layout(cone)
    block_rows = max(1, _BLOCK_VALUES // (width + columns))
    tasks = _block_groups(config.units(), block_rows)
    size, rows_in_run = config.chunk_size, config.total_samples
    buffer_values = min(block_rows, rows_in_run) * width
    local = threading.local()
    # face dimensions read off chi_square_dofs: no chi-square columns drawn
    direct = faces_only and faces_from_dofs(cone)

    def streams(unit):
        # the unit's (Gaussian, chi-square) streams, None where none is read
        return (unit_rng(config.seed, unit) if width else None,
                unit_chi_square_rng(config.seed, unit) if columns and not direct else None)

    def block(units, out, rngs=None):
        # (s, t, face dims), or (face dims,) for faces_only, of the next
        # count rows of each (unit, count) in units, from the unit's own
        # streams or, given, from the pair rngs read on; the Gaussian
        # columns are drawn into out
        total = sum(count for _, count in units)
        pairs = [rngs or streams(unit) for unit, _ in units]
        X, r0 = out[:total * width].reshape(total, width), 0
        for (gauss, _), (_, count) in zip(pairs, units):
            if width:
                gaussian_block(gauss, out[r0 * width:], count, width)
            r0 += count
        if direct:
            return (sum(chi_square_dofs(cone, X, fill=False)[1],
                        np.zeros(total, dtype=np.int64)),)
        Z, faces = chi_square_dofs(cone, X)
        if columns:
            # one array: the halved degrees of freedom are the gamma shapes,
            # and each draw overwrites the shape it was drawn with
            Z *= 0.5
            r0 = 0
            for (_, chi), (_, count) in zip(pairs, units):
                shapes = Z[r0:r0 + count]
                chi.standard_gamma(shapes, out=shapes)
                r0 += count
            Z *= 2.0
        norms = norms_block(cone, X, Z, faces)
        return norms[2:] if faces_only else norms

    def work(units):
        # (index, None, fn's result) for each chunk inside the task's rows,
        # (index, arrays, None) for the task's rows of any other chunk.  One
        # block buffer per worker thread, reused by each of its tasks;
        # norms_block returns new arrays, so what fn sees never aliases it
        buffer = getattr(local, "buffer", None)
        if buffer is None:
            buffer = local.buffer = np.empty(buffer_values)
        total = sum(count for _, count in units)
        if total <= block_rows:
            # a run of units that fits in one block: each fills its own rows
            blocks = [block(units, buffer)]
        else:
            # one unit larger than a block: its streams are read a block at a time
            rngs = streams(units[0][0])
            step = -(-total // -(-total // block_rows))   # near-equal blocks of <= block_rows
            blocks = (block([(units[0][0], min(step, total - r0))], buffer, rngs)
                      for r0 in range(0, total, step))
        first = units[0][0] * UNIT_ROWS
        entries = []
        for index, arrays in _by_chunk(blocks, first, size, rows_in_run):
            if first <= index * size and min(index * size + size, rows_in_run) <= first + total:
                entries.append((index, None, fn(index, *arrays)))
            else:
                entries.append((index, arrays, None))
        return entries

    def collect(done):
        # every chunk's result in chunk order; the pieces of a chunk are
        # consecutive entries, joined here in row order
        results = []
        for index, group in itertools.groupby(itertools.chain.from_iterable(done),
                                              key=itemgetter(0)):
            _, arrays, result = next(group)
            if arrays is not None:
                result = fn(index, *_join([arrays, *(a for _, a, _ in group)]))
            results.append(result)
        return results

    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(tasks) == 1:
        return collect(map(work, tasks))
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        return collect(pool.map(work, tasks))


def run_summary(cone, config, workers=None):
    """Sample Gaussians, project every draw, and summarize the stream.

    Returns a SampleSummary with exact-merged central moments up to
    order four of theta = s / (s + t), where s = ||proj(g)||^2 and t =
    dist^2(g, cone), a face dimension histogram for polyhedral cones, and
    a stride-thinned reservoir of retained (s, t) pairs for the profile
    estimators.
    """
    dim = ambient_dim(cone)
    want_faces = supports_face_dim(cone)
    stride = config.reservoir_stride

    def summarize(index, s, t, fd):
        hist = np.bincount(fd, minlength=dim + 1).astype(np.int64) if want_faces else None
        theta = s + t
        np.divide(s, theta, out=theta)
        # keep every stride-th sample of the whole stream, by global index
        keep = np.arange((-index * config.chunk_size) % stride, s.shape[0], stride)
        return MomentAccumulator.from_values(theta), hist, s[keep], t[keep]

    parts, hists, res_s, res_t = zip(*map_chunks(cone, config, summarize, workers))
    return SampleSummary(
        cone=cone,
        dim=dim,
        count=config.total_samples,
        theta_moments=reduce(MomentAccumulator.merge, parts, MomentAccumulator()),
        face_hist=sum(hists) if want_faces else None,
        reservoir_s=np.concatenate(res_s),
        reservoir_t=np.concatenate(res_t),
        reservoir_stride=config.reservoir_stride,
        seed=config.seed,
        chunk_size=config.chunk_size,
    )
