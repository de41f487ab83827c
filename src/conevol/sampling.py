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
chunk_size, which divides UNIT_ROWS, only decides how a unit's rows are
grouped for reduction, and neither it nor the order in which units run,
the worker thread that runs them or how a unit's streams are split into
reads changes a value.  At the default chunk_size, UNIT_ROWS, every chunk
is one unit.

Every Monte Carlo path (run_summary here; phi_mc, wills_mc,
empirical_steiner_cdf and the Monte Carlo subspace_moment in steiner;
estimate_profile_face in profiles) streams through one primitive,
map_chunks.  It hands a chunk's (s, t) to every path but the face
estimate, and its face dimensions alone to that one.  Each stream unit
is one pool task, run on CONEVOL_THREADS worker threads unless a caller
passes an explicit worker count.  A task reads its unit's streams in row
blocks of about _BLOCK_VALUES drawn values, whatever the chunk size,
drawing the Gaussian rows into one block buffer per worker thread, and
hands each of the unit's chunks to the caller whole.  map_chunks returns
the per-chunk results in chunk-index order.  Callers fold them left to
right in that fixed order, moment sums (run_summary keeps those of theta
= s / (s + t) only) with the exact pairwise-merge update formulas, so
every result is a function of (seed, total_samples, chunk_size,
reservoir_cap) only: bit-identical for any worker count and block size.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cones import (ambient_dim, chi_square_dofs, faces_from_dofs, norms_block,
                    sampled_layout, supports_face_dim)
from .exceptions import UnsupportedConeError

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
    reservoir_cap); worker counts change wall time, never results.  A run
    has at least two samples, since one has no spread and its standard
    errors would read 0, and chunk_size divides UNIT_ROWS (a power of two
    up to 2**14), so that every chunk lies inside one stream unit.
    """
    seed: int
    total_samples: int
    chunk_size: int = UNIT_ROWS
    reservoir_cap: int = 100_000

    def __post_init__(self):
        if self.total_samples < 2:
            raise ValueError("a Monte Carlo run needs at least 2 samples for its standard "
                             f"errors, got {self.total_samples}")
        if self.chunk_size < 1 or UNIT_ROWS % self.chunk_size:
            raise ValueError(f"chunk_size must divide {UNIT_ROWS} (a power of two up to "
                             f"2**14), got {self.chunk_size}")
        if self.reservoir_cap < 1:
            raise ValueError("reservoir_cap must be positive")

    def units(self):
        """(unit, count) of the run's stream units, UNIT_ROWS rows each, the
        last one short."""
        full, rem = divmod(self.total_samples, UNIT_ROWS)
        return list(enumerate([UNIT_ROWS] * full + ([rem] if rem else [])))

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
    the biorthogonal estimator, given a summary, checks it against the
    cone it is asked about.
    """
    cone: object
    dim: int
    count: int
    theta_moments: MomentAccumulator
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


def _join(pieces):
    """One tuple of arrays from tuples that hold consecutive rows of them."""
    if len(pieces) == 1:
        return pieces[0]
    return tuple(map(np.concatenate, zip(*pieces)))


def map_chunks(cone, config, fn, workers=None, faces_only=False):
    """fn(index, s, t) for every chunk of the projection stream, or, with
    faces_only, fn(index, face_dims).

    Each row is drawn in the sampled coordinates of
    cones.sampled_layout(cone): its Gaussian columns from its stream
    unit's Gaussian stream, with gaussian_block, then its chi-square
    columns from the unit's chi-square stream, with one row-major
    2 * standard_gamma(dofs / 2) call per block on the degrees
    of freedom cones.chi_square_dofs gives for the block, so that a stream
    read in several blocks gives the same values as one read.  That call
    gives the bits of chisquare(dofs), and it also takes zero degrees of
    freedom (K = 0 or K = d, Subspace(0, d), Subspace(d, d), Trivial(d)),
    which it draws as 0.  What chi_square_dofs found on the way (an
    orthant's K) goes on to norms_block with the draws, so it is found
    once.  The s and t fn sees are sums over the leaves: an orthant's two
    chi-square draws, a subspace's two draws, a circular leaf's norms from
    x_1 and ||z||^2, a psd leaf's from the eigenvalues of its tridiagonal
    matrix, whose diagonal is n Gaussian columns and whose subdiagonal is
    sqrt(z / 2) for n - 1 chi-square columns with degrees of freedom
    n - 1, ..., 1, and the norms of full generator rows.

    faces_only is for a cone with face dimensions (cones.supports_face_dim),
    and fn sees them alone, never with s and t; any other cone raises
    UnsupportedConeError before a row is drawn.  When every leaf is an
    orthant, a subspace or a trivial cone (cones.faces_from_dofs), they are
    the sums of the leaves' entries of chi_square_dofs, an orthant's K
    and a subspace's k, found without filling its degrees of freedom: the
    Gaussian columns are drawn as above, and no chi-square stream,
    chi-square draw or norms_block call is made.  A generator leaf finds
    its face dimensions by projection, so such a cone takes the full path.
    They depend on the Gaussian stream only, which is read as it is
    without faces_only, so they belong to the rows whose s and t fn sees
    without it.

    Each stream unit is one pool task, since its streams must be read in
    order.  A task reads them in near-equal row blocks of at most about
    _BLOCK_VALUES drawn values, one norms_block call each, joins the
    blocks' rows and calls fn on each chunk_size slice of them, with
    chunk index unit * UNIT_ROWS // chunk_size + j for its j-th slice.
    chunk_size divides UNIT_ROWS, so every chunk lies inside one unit.  A
    row's values depend on (seed, global row) only, never on chunk_size or
    the block size.  The results come back as a list in chunk-index
    order, so a caller that folds them left to right gets the same answer
    for any worker count; every result is a function of (seed,
    total_samples, chunk_size, reservoir_cap) only.  Tasks run on a thread
    pool when resolve_workers(workers) asks for more than one thread and
    there is more than one unit.
    """
    if faces_only and not supports_face_dim(cone):
        raise UnsupportedConeError(
            f"{type(cone).__name__} has no face-dimension sampler; "
            "use the biorthogonal or mixture estimator")
    width, columns = sampled_layout(cone)
    block_rows = max(1, _BLOCK_VALUES // (width + columns))
    units, size = config.units(), config.chunk_size
    buffer_values = min(block_rows, units[0][1]) * width
    local = threading.local()
    # face dimensions read off chi_square_dofs: no chi-square columns drawn
    direct = faces_only and faces_from_dofs(cone)

    def block(gauss, chi, out, count):
        # (s, t), or (face dims,) for faces_only, of the next count rows of
        # a unit, read on from its streams gauss and chi; the Gaussian
        # columns are drawn into out
        X = out[:count * width].reshape(count, width)
        if width:
            gaussian_block(gauss, out, count, width)
        if direct:
            return (sum(chi_square_dofs(cone, X, fill=False)[1],
                        np.zeros(count, dtype=np.int64)),)
        Z, faces = chi_square_dofs(cone, X)
        if columns:
            # one array: the halved degrees of freedom are the gamma shapes,
            # and each draw overwrites the shape it was drawn with
            Z *= 0.5
            chi.standard_gamma(Z, out=Z)
            Z *= 2.0
        norms = norms_block(cone, X, Z, faces)
        return norms[2:] if faces_only else norms[:2]

    def work(task):
        # fn's result for each chunk of one unit, in chunk order.  One block
        # buffer per worker thread, reused by each of its tasks; norms_block
        # returns new arrays, so what fn sees never aliases it
        unit, count = task
        buffer = getattr(local, "buffer", None)
        if buffer is None:
            buffer = local.buffer = np.empty(buffer_values)
        gauss = unit_rng(config.seed, unit) if width else None
        chi = unit_chi_square_rng(config.seed, unit) if columns and not direct else None
        step = -(-count // -(-count // block_rows))   # near-equal blocks of <= block_rows
        arrays = _join([block(gauss, chi, buffer, min(step, count - r0))
                        for r0 in range(0, count, step)])
        first = unit * UNIT_ROWS // size
        return [fn(first + j, *(a[r0:r0 + size] for a in arrays))
                for j, r0 in enumerate(range(0, count, size))]

    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(units) == 1:
        done = map(work, units)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            done = list(pool.map(work, units))
    return [result for results in done for result in results]


def run_summary(cone, config, workers=None):
    """Sample Gaussians, project every draw, and summarize the stream.

    Returns a SampleSummary with exact-merged central moments up to
    order four of theta = s / (s + t), where s = ||proj(g)||^2 and t =
    dist^2(g, cone), and a stride-thinned reservoir of retained (s, t)
    pairs for the profile estimators.  Face dimensions are no part of it:
    profiles.estimate_profile_face streams them alone.
    """
    stride = config.reservoir_stride

    def summarize(index, s, t):
        theta = s + t
        np.divide(s, theta, out=theta)
        # keep every stride-th sample of the whole stream, by global index
        keep = np.arange((-index * config.chunk_size) % stride, s.shape[0], stride)
        return MomentAccumulator.from_values(theta), s[keep], t[keep]

    parts, res_s, res_t = zip(*map_chunks(cone, config, summarize, workers))
    return SampleSummary(
        cone=cone,
        dim=ambient_dim(cone),
        count=config.total_samples,
        theta_moments=reduce(MomentAccumulator.merge, parts, MomentAccumulator()),
        reservoir_s=np.concatenate(res_s),
        reservoir_t=np.concatenate(res_t),
        reservoir_stride=config.reservoir_stride,
        seed=config.seed,
        chunk_size=config.chunk_size,
    )
