"""Seeded request lists for the three benchmark workloads.

build(name, seed, cv, nproc) returns the full request list of one workload.
The seed fixes every input: cone parameters, generator matrices, Monte Carlo
seeds and grids.  The request templates, their sizes and their order are the
same for every seed, so the work of a pass barely moves from seed to seed; the
seed only changes which inputs carry it.

Every request holds its inputs already built, a call into the public conevol
API, and a check against an exact oracle (perfbench/oracle.py).  Monte Carlo
answers are checked with the z-bound Z, fixed here before any run.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

Z = 6.0  # |estimate - exact| <= Z * stderr for every Monte Carlo check

WHY = {
    "mc_stream": (
        "Cheap cones, D 8-400, 2^13-2^16 samples, run_summary twins at workers=1 and nproc. "
        "Loads sampling (RNG, chunk loops, reduce) and steiner MC loops; bypasses linalg "
        "and quadrature."),
    "project_heavy": (
        "psd:3-12, polar/prod of psd, rotated-orthant and random m<=d generator cones at "
        "2^5-2^12 samples. Loads cones and linalg (Jacobi, NNLS); RNG small; bypasses "
        "profiles and special."),
    "estimate_identity": (
        "Biorthogonal estimates, master_phi, Steiner and chi-bar CDFs, tail tables; d "
        "repeats so caches hit. Loads profiles, special, steiner.subspace_moment; sampling "
        "small; no eigen or NNLS solves."),
}


@dataclass
class Request:
    label: str                      # every input, for the list digest
    call: Callable[[], object]      # the calls into conevol
    check: Callable[[object], str]  # "" when the answer is right, else why not
    samples: int                    # Gaussian samples the request draws
    workers: int = 0                # run_summary worker count of a twin, else 0
    twin_of: int = -1               # index of the workers=1 twin to match


def list_digest(requests):
    return hashlib.sha256("\n".join(r.label for r in requests).encode()).hexdigest()


# ---------------------------------------------------------------------------
# cone specs (see oracle.py for the tuple grammar)
# ---------------------------------------------------------------------------

def spec_text(spec):
    kind = spec[0]
    if kind == "circ":
        return f"circ:{spec[1]}:{spec[2]!r}"
    if kind in ("prod", "polar"):
        return f"{kind}({','.join(spec_text(s) for s in spec[1:])})"
    if kind == "gens":
        mat = np.ascontiguousarray(spec[1])
        return f"gens[{mat.shape[0]}x{mat.shape[1]}:{hashlib.sha256(mat.tobytes()).hexdigest()[:16]}]"
    return ":".join(str(x) for x in spec)


def to_cone(spec, cv):
    kind = spec[0]
    if kind == "orthant":
        return cv.Orthant(spec[1])
    if kind == "subspace":
        return cv.Subspace(spec[1], spec[2])
    if kind == "circ":
        return cv.Circular(spec[1], spec[2])
    if kind == "psd":
        return cv.Psd(spec[1])
    if kind == "gens":
        return cv.Generators(spec[1])
    if kind == "prod":
        return cv.Product(to_cone(spec[1], cv), to_cone(spec[2], cv))
    return cv.Polar(to_cone(spec[1], cv))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _z_fail(what, est, exact, se, span=0.0, n=1):
    """|est - exact| <= Z se, plus Z^2 span / n for a mean of n values that lie
    in an interval of length span (a Bernstein-type term, so a sample whose
    spread happens to be zero cannot fail a nearly degenerate exact value)."""
    if abs(est - exact) <= Z * se + Z * Z * span / n + 1e-9 * max(1.0, abs(exact)):
        return ""
    return f"{what} {est!r} vs exact {exact!r} (se {se:.3g})"


def _count_fail(what, est, exact, n):
    # binomial proportions: normal z-bound plus a Poisson-safe Z^2/n term
    bound = Z * np.sqrt(exact * (1.0 - exact) / n) + Z * Z / n
    bad = np.flatnonzero(np.abs(est - exact) > bound)
    if bad.size == 0:
        return ""
    i = int(bad[0])
    return f"{what}[{i}] {est[i]!r} vs exact {exact[i]!r} (n {n})"


def _close_fail(what, got, exact, tol):
    got, exact = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(exact)
    err = np.abs(got - exact)
    if np.all(err <= tol * np.maximum(1.0, np.abs(exact))):
        return ""
    i = int(np.argmax(err))
    return f"{what}[{i}] {got[i]!r} vs exact {exact[i]!r} (tol {tol:g})"


def _first(*failures):
    return next((f for f in failures if f), "")


def check_sdim_var(spec, with_var):
    def check(answer):
        (delta, se), (var, var_se) = answer
        v = oracle.profile(spec) if with_var else None
        return _first(_z_fail("delta", delta, oracle.sdim(spec), se),
                      "" if v is None else _z_fail("var", var, oracle.variance(v), var_se))
    return check


def check_totality(spec):
    def check(answer):
        (delta, se), (delta_polar, se_polar) = answer
        return _z_fail("delta + delta_polar", delta + delta_polar,
                       float(oracle.ambient(spec)), math.hypot(se, se_polar))
    return check


def check_face(spec, n):
    return lambda profile: _count_fail("face v", profile.raw_v, oracle.profile(spec), n)


def check_biorthogonal(spec):
    def check(profile):
        v = oracle.profile(spec)
        bad = np.flatnonzero(np.abs(profile.raw_v - v) > Z * profile.stderr + 1e-9)
        if bad.size == 0:
            return ""
        i = int(bad[0])
        return f"biorthogonal v[{i}] {profile.raw_v[i]!r} vs exact {v[i]!r}"
    return check


def check_steiner_mc(spec, grid, n, kind):
    def check(answer):
        v = oracle.profile(spec)
        if kind == "gaussian":
            exact = oracle.gaussian_cdf(v, grid)
        else:
            exact = np.array([oracle.spherical_cdf(v, lam) for lam in grid])
        return _count_fail(f"{kind} cdf", answer[0], exact, n)
    return check


def check_tail_table(d):
    def check(table):
        v = oracle.binomial_profile(d)
        delta = d / 2.0
        for rep in table:
            lam = rep.lam
            up = oracle.upper_tail(v, math.ceil(delta + lam))
            lo = oracle.lower_tail(v, math.floor(delta - lam))
            two = up + lo
            pairs = (("upper_bennett", rep.upper_bennett, up),
                     ("lower_bennett", rep.lower_bennett, lo),
                     ("combined", rep.combined, two),
                     ("chebyshev", rep.chebyshev, two),
                     ("variance_bound", rep.variance_bound, d / 4.0))
            for name, bound, exact in pairs:
                if bound < exact * (1.0 - 1e-12):
                    return f"{name} {bound!r} below exact {exact!r} at lambda {lam!r}"
        return ""
    return check


def check_interlacing(d, alpha):
    def check(brackets):
        v = oracle.circular_profile(d, alpha)
        for k, (lo, hi) in enumerate(brackets):
            tail = oracle.upper_tail(v, 2 * k)
            if not lo - 1e-12 <= tail <= hi + 1e-12:
                return f"P(V >= {2 * k}) = {tail!r} outside [{lo!r}, {hi!r}]"
        return ""
    return check


def check_chibar_sample(v, n):
    # Var = E Var(X_K | K) + Var E(X_K | K) = 2 delta + Var(V)
    def check(draws):
        mean = oracle.mean(v)
        se = math.sqrt((2.0 * mean + oracle.variance(v)) / n)
        return _z_fail("chi-bar sample mean", float(np.mean(draws)), mean, se)
    return check


def check_close(what, exact_fn, tol):
    return lambda answer: _close_fail(what, answer, exact_fn(), tol)


# ---------------------------------------------------------------------------
# request builders
# ---------------------------------------------------------------------------

class _Builder:
    """Collects requests; rng draws every seed-dependent input."""

    def __init__(self, cv, rng, order, nproc):
        self.cv = cv
        self.rng = rng
        self.order = order
        self.nproc = nproc
        self.requests = []

    def alpha(self):
        return float(self.rng.uniform(0.2, 1.35))

    def config(self, n, chunk=1 << 14, reservoir=None):
        return self.cv.MonteCarloConfig(seed=int(self.rng.integers(1 << 40)),
                                        total_samples=n, chunk_size=chunk,
                                        reservoir_cap=reservoir or min(n, 100_000))

    @staticmethod
    def cfg_text(cfg):
        return f"seed={cfg.seed} n={cfg.total_samples} chunk={cfg.chunk_size}"

    def add(self, label, call, check, samples):
        self.requests.append([Request(label, call, check, samples)])

    def ordered(self):
        groups = [self.requests[i] for i in self.order.permutation(len(self.requests))]
        out = []
        for group in groups:
            first = len(out)
            for i, req in enumerate(group):
                req.twin_of = first if i else -1
                out.append(req)
        return out

    # -- request kinds -----------------------------------------------------

    def _single_or_twins(self, twins, label, make_call, check, samples):
        """A run_summary-backed question, asked once with the default worker
        count or, as twins, at workers=1 and at workers=nproc."""
        if not twins:
            self.add(label, make_call(None), check, samples)
            return
        self.requests.append([
            Request(f"{label} workers={w}", make_call(w), check, samples, workers=w)
            for w in (1, self.nproc)])

    def sdim_var(self, spec, n, chunk, twins=True, with_var=True):
        cv, cone, cfg = self.cv, to_cone(spec, self.cv), self.config(n, chunk)

        def make_call(workers):
            def call():
                summary = cv.run_summary(cone, cfg, workers=workers)
                var = cv.intrinsic_variance(summary) if with_var else (0.0, 0.0)
                return cv.statistical_dimension(summary), var
            return call
        self._single_or_twins(twins, f"sdim_var {spec_text(spec)} {self.cfg_text(cfg)}",
                            make_call, check_sdim_var(spec, with_var), n)

    def totality(self, spec, n, chunk, twins=True):
        cv = self.cv
        cone = to_cone(spec, cv)
        cfg, cfg_polar = self.config(n, chunk), self.config(n, chunk)

        def make_call(workers):
            def call():
                return (cv.statistical_dimension(cv.run_summary(cone, cfg, workers=workers)),
                        cv.statistical_dimension(
                            cv.run_summary(cv.Polar(cone), cfg_polar, workers=workers)))
            return call
        label = (f"totality {spec_text(spec)} {self.cfg_text(cfg)} "
                 f"polar_seed={cfg_polar.seed}")
        self._single_or_twins(twins, label, make_call, check_totality(spec), 2 * n)

    def face(self, spec, n, chunk, twins=True):
        cv, cone, cfg = self.cv, to_cone(spec, self.cv), self.config(n, chunk)

        def make_call(workers):
            return lambda: cv.estimate_profile_face(cone, cfg, workers=workers)
        self._single_or_twins(twins, f"face {spec_text(spec)} {self.cfg_text(cfg)}",
                            make_call, check_face(spec, n), n)

    def steiner_mc(self, spec, n, chunk, kind):
        cv, cone, cfg = self.cv, to_cone(spec, self.cv), self.config(n, chunk)
        top = 1.0 if kind == "spherical" else 2.0 * oracle.ambient(spec)
        grid = np.sort(self.rng.uniform(0.0, top, 12))
        self.add(f"steiner_mc {kind} {spec_text(spec)} {self.cfg_text(cfg)} "
                 f"grid={grid.tolist()}",
                 lambda: cv.empirical_steiner_cdf(cone, grid, cfg, kind=kind),
                 check_steiner_mc(spec, grid, n, kind), n)

    def wills_mc(self, spec, n, chunk, lam):
        cv, cone, cfg = self.cv, to_cone(spec, self.cv), self.config(n, chunk)

        def check(answer):
            v = oracle.profile(spec)
            # the averaged values lie in [0, max(1, lam^d)]
            return _z_fail("wills", answer[0], float(np.dot(lam ** np.arange(v.size), v)),
                           answer[1], max(1.0, lam ** (v.size - 1)), n)
        self.add(f"wills_mc {spec_text(spec)} lam={lam!r} {self.cfg_text(cfg)}",
                 lambda: cv.wills_mc(cone, lam, cfg), check, n)

    def phi_mc_min(self, spec, n, chunk):
        cv, cone, cfg = self.cv, to_cone(spec, self.cv), self.config(n, chunk)
        fn = cv.preset_functionals()["min_a_10"]

        def check(answer):
            exact = oracle.expected_min(oracle.profile(spec), 10.0)
            return _z_fail("phi min_a_10", answer[0], exact, answer[1], 10.0, n)
        self.add(f"phi_mc min_a_10 {spec_text(spec)} {self.cfg_text(cfg)}",
                 lambda: cv.phi_mc(cone, fn, cfg), check, n)

    def biorthogonal(self, spec, n):
        cv, cone = self.cv, to_cone(spec, self.cv)
        cfg = self.config(n, reservoir=n)
        self.add(f"biorthogonal {spec_text(spec)} {self.cfg_text(cfg)}",
                 lambda: cv.estimate_profile_biorthogonal(cone, cfg),
                 check_biorthogonal(spec), n)

    def shared_summary(self, spec, n):
        """Biorthogonal estimate, statistical dimension and variance from one
        summary, so the inputs of three answers share their sampling."""
        cv, cone = self.cv, to_cone(spec, self.cv)
        cfg = self.config(n, reservoir=n)
        bio, moments = check_biorthogonal(spec), check_sdim_var(spec, True)

        def call():
            summary = cv.run_summary(cone, cfg)
            return (cv.estimate_profile_biorthogonal(cone, cfg, summary=summary),
                    (cv.statistical_dimension(summary), cv.intrinsic_variance(summary)))
        self.add(f"shared_summary {spec_text(spec)} {self.cfg_text(cfg)}", call,
                 lambda ans: _first(bio(ans[0]), moments(ans[1])), n)

    def exact_input(self, spec):
        """An exact profile handed to conevol as input; the oracle computes it."""
        v = oracle.profile(spec)
        return v, self.cv.IntrinsicVolumeProfile(v.size - 1, v, None, "exact")

    def master(self, spec, preset):
        v, profile = self.exact_input(spec)
        fn = self.cv.preset_functionals()[preset]

        def exact():
            k = np.arange(v.size, dtype=float)
            moment = {"a": k, "a2": k * (k + 2.0), "exp_a4": 2.0 ** (0.5 * k)}[preset]
            return float(np.dot(moment, v))
        tol = {"a": 1e-12, "a2": 1e-11, "exp_a4": 1e-10}[preset]
        self.add(f"master_phi {preset} {spec_text(spec)}",
                 lambda: self.cv.master_phi(fn, profile)[0],
                 check_close(f"master_phi {preset}", exact, tol), 0)

    def steiner_exact(self, spec, kind, points):
        cv = self.cv
        v, profile = self.exact_input(spec)
        d = v.size - 1
        top = 1.0 if kind == "spherical" else 2.0 * d + 10.0
        grid = np.sort(self.rng.uniform(0.0, top, points))
        if kind == "gaussian":
            call = lambda: [cv.gaussian_steiner_cdf(profile, lam) for lam in grid]
            exact = lambda: oracle.gaussian_cdf(v, grid)
        elif kind == "spherical":
            call = lambda: [cv.spherical_steiner_cdf(profile, lam) for lam in grid]
            exact = lambda: [oracle.spherical_cdf(v, lam) for lam in grid]
        else:
            law = cv.chi_bar_squared(profile)
            call = lambda: [law.cdf(lam) for lam in grid]
            exact = lambda: oracle.chibar_cdf(v, grid)
        self.add(f"steiner_exact {kind} {spec_text(spec)} grid={grid.tolist()}", call,
                 check_close(f"{kind} cdf", exact, 1e-10), 0)

    def chibar_sample(self, spec, n):
        v, profile = self.exact_input(spec)
        law = self.cv.chi_bar_squared(profile)
        cfg = self.config(n)
        self.add(f"chibar_sample {spec_text(spec)} {self.cfg_text(cfg)}",
                 lambda: law.sample(cfg), check_chibar_sample(v, n), 0)

    def tail_table(self, d, points):
        cv = self.cv
        grid = np.sort(self.rng.uniform(0.0, 0.5 * d, points))
        self.add(f"tail_table orthant:{d} grid={grid.tolist()}",
                 lambda: [cv.TailBoundReport.evaluate(lam, d / 2.0, d / 2.0) for lam in grid],
                 check_tail_table(d), 0)

    def interlacing(self, d, alpha):
        cv = self.cv
        self.add(f"interlacing circ:{d}:{alpha!r}",
                 lambda: [cv.circular_interlacing_tail(d, alpha, k) for k in range(d // 2 + 1)],
                 check_interlacing(d, alpha), 0)


# Sizes are fixed lists, cycled through, so the work of a pass does not depend
# on the seed; the seed draws angles, subspace ranks, matrices, grids and
# Monte Carlo seeds, and the order of the requests.

def _families(b):
    a = b.alpha
    return (lambda d: ("orthant", d), lambda d: ("circ", d, a()),
            lambda d: ("polar", ("circ", d, a())),
            lambda d: ("prod", ("orthant", d // 2), ("circ", d - d // 2, a())),
            lambda d: ("subspace", int(b.rng.integers(1, d)), d))


def _mc_stream(b):
    a = b.alpha
    k = lambda d: int(b.rng.integers(1, d))
    fams = _families(b)
    b.sdim_var(("orthant", 400), 1 << 14, 1 << 10)
    for soc, polar_d, tot_d, face_d, wide_d in zip((8, 12, 16), (24, 36, 48), (16, 24, 32),
                                                    (8, 10, 12), (24, 32, 40)):
        b.sdim_var(("circ", 64, a()), 1 << 14, 1 << 10)
        b.sdim_var(("circ", soc, math.pi / 4), 1 << 16, 1 << 14)
        b.sdim_var(("polar", ("circ", 32, a())), 1 << 14, 1 << 10)
        b.sdim_var(("prod", ("orthant", 16), ("circ", 16, a())), 1 << 14, 1 << 14)
        b.sdim_var(("polar", ("orthant", polar_d)), 1 << 14, 1 << 14)
        b.totality(("circ", tot_d, a()), 1 << 13, 1 << 10)
        b.face(("orthant", face_d), 1 << 16, 1 << 10)
        b.face(("subspace", k(32), 32), 1 << 15, 1 << 14)
        b.face(("prod", ("orthant", 12), ("subspace", k(16), 16)), 1 << 14, 1 << 14)
        b.face(("orthant", wide_d), 1 << 14, 1 << 10)
    for i, (dg, ds, dp) in enumerate(zip((8, 16, 24, 32) * 2, (32, 24, 16, 8) * 2,
                                         (8, 16, 32, 48, 12, 24, 40, 20, 28, 36))):
        chunk = (1 << 10, 1 << 14)[i % 2]
        b.steiner_mc(fams[i % 4](dg), 1 << 15, chunk, "gaussian")
        b.steiner_mc(fams[(i + 1) % 4](ds), 1 << 15, chunk, "spherical")
        b.phi_mc_min(fams[(i + 2) % 4](dp), 1 << 15, chunk)
    for i, dp in enumerate((40, 44)):
        b.phi_mc_min(fams[i % 4](dp), 1 << 15, 1 << 14)
    for i in range(12):
        lam = (0.7, 0.85, 1.25, 2.0)[i % 4]
        b.wills_mc(fams[i % 4]((6, 8, 10, 12)[i // 3]), 1 << 16, (1 << 14, 1 << 10)[i % 2], lam)


def _rotated_orthant(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _project_heavy(b):
    rng = b.rng
    for rep in range(6):
        for n, samples in ((3, 1 << 12), (4, 1 << 12), (5, 1 << 12), (6, 1 << 11),
                           (7, 1 << 11), (8, 1 << 10)):
            b.sdim_var(("psd", n), samples, 1 << 10, twins=False, with_var=False)
        b.sdim_var(("psd", 12), 1 << 7, 1 << 14, twins=False, with_var=False)
        b.sdim_var(("polar", ("psd", 4 + rep % 5)), 1 << 10, 1 << 10, twins=False,
                   with_var=False)
        b.sdim_var(("prod", ("psd", 8 - rep % 5), ("orthant", 4 + 2 * rep)), 1 << 10,
                   1 << 14, twins=False, with_var=False)
    for d in (4, 5, 6, 7, 8) * 4:
        b.face(("gens", _rotated_orthant(rng, d), oracle.binomial_profile(d)), 1 << 7,
               1 << 14, twins=False)
    # random generators stay at m <= d: with m > d, nnls_solve can fail to return.
    # Their projection cost varies from matrix to matrix, so many small requests
    # keep the total steady from seed to seed.
    for m, d in ((2, 4), (3, 5), (4, 6), (5, 6), (3, 8), (4, 8), (5, 7), (6, 8)) * 8:
        b.totality(("gens", rng.standard_normal((m, d)), None), 1 << 5, 1 << 14,
                   twins=False)


def _estimate_identity(b):
    fams = _families(b)
    for i, d in enumerate((4, 6, 6, 8, 8, 8, 8, 10, 10, 10, 10, 12, 12, 12, 12, 6, 4, 10, 8, 12)):
        b.biorthogonal(fams[i % 5](d), 1 << 14 if d <= 6 else 1 << 13)
    for i, d in enumerate((6, 8, 10, 12, 6, 8, 10, 12)):
        b.biorthogonal(fams[(i + 3) % 5](d), 1 << 14 if d <= 6 else 1 << 13)
    for i, d in enumerate((6, 8, 10, 12)):
        b.shared_summary(fams[(i + 1) % 4](d), 1 << 13)
    # no estimate_profile_mixture requests: its nnls_solve call can fail to
    # return (about one call in a hundred here), and a request that never
    # answers cannot be measured
    for i, (preset, d) in enumerate((("a", 4), ("a2", 5), ("exp_a4", 4), ("a", 6))):
        b.master(fams[i % 4](d), preset)
    for i, d in enumerate((8, 16, 24, 32, 40, 48, 56, 64, 12, 20, 28, 36)):
        for kind in ("gaussian", "spherical", "chibar"):
            b.steiner_exact(fams[i % 4](d), kind, 40)
    for i, d in enumerate((8, 16, 32, 64, 24, 48)):
        b.chibar_sample(fams[i % 4](d), 1 << 15)
    for d in (8, 16, 32, 64, 100, 200, 300, 400) * 2:
        b.tail_table(d, 300)
    for d in (8, 16, 32, 64, 100, 200) * 2:
        b.interlacing(d, b.alpha())


BUILDERS = {"mc_stream": _mc_stream, "project_heavy": _project_heavy,
            "estimate_identity": _estimate_identity}


def build(name, seed, cv, nproc):
    """The request list of workload ``name`` for ``seed``, in sending order."""
    index = list(BUILDERS).index(name)
    # the sending order is a fixed mix of the templates, the same for every seed, so
    # the seed moves neither which request meets a cold cache nor the memory peak
    builder = _Builder(cv, np.random.default_rng([seed, index]),
                       np.random.default_rng(index), nproc)
    BUILDERS[name](builder)
    return builder.ordered()
