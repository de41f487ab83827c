"""Spans around calls into conevol's layers, recorded from outside the package.

install(tracer) wraps each function in TARGETS at every module attribute it is
bound to: ``from .x import y`` copies the function object into the importing
module, so every conevol module is scanned for the object and each binding is
replaced.  A target that the package no longer defines is reported as absent.

A span is (id, name, start, end, parent, request id, count); count is the
work the call did (values drawn, rows projected, matrices, points, cache
misses) or 0.  Spans of the client thread nest by a thread-local stack.  A
pool thread's span carries the current request id and takes as parent the
client thread's innermost open span, which is the request or the layer call
that started the pool (run_summary); so run_summary's self time is its own
loop, reduction and pool overhead, not the time it waits for its workers.
"""

import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("sampling", "cones", "linalg", "profiles", "steiner", "special", "bounds")

NORMS_FAMILIES = ("orthant", "subspace", "circ", "psd", "gens", "prod", "polar")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _family(cone):
    return {"Orthant": "orthant", "Subspace": "subspace", "Circular": "circ", "Psd": "psd",
            "Generators": "gens", "Product": "prod", "Polar": "polar"}.get(
                type(cone).__name__, "other")


def _values(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "count")) * int(_arg(args, kwargs, 3, "dim"))


def _rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "X"))


def _matrices(args, kwargs, result):
    mats = _arg(args, kwargs, 0, "mats")
    return 1 if getattr(mats, "ndim", 3) == 2 else len(mats)


def _points(args, kwargs, result):
    return result.shape[1]


# (module, attribute path, span name or namer, count function)
TARGETS = (
    ("sampling", "gaussian_block", "sampling.gaussian_block", _values),
    ("sampling", "run_summary", "sampling.run_summary", None),
    ("sampling", "MomentAccumulator.from_values", "sampling.reduce", None),
    ("sampling", "MomentAccumulator.merge", "sampling.reduce", None),
    ("cones", "norms_block",
     lambda args, kwargs: "cones.norms_block." + _family(_arg(args, kwargs, 0, "cone")), _rows),
    ("linalg", "jacobi_eigh_batch", "linalg.jacobi_eigh_batch", _matrices),
    ("linalg", "nnls_solve", "linalg.nnls_solve", None),
    ("profiles", "build_biorthogonal", "profiles.build_biorthogonal", None),
    ("profiles", "BiorthogonalSystem.evaluate", "profiles.BiorthogonalSystem.evaluate", _points),
    ("profiles", "estimate_profile_face", "profiles.estimate_profile_face", None),
    ("profiles", "estimate_profile_biorthogonal", "profiles.estimate_profile_biorthogonal", None),
    ("profiles", "estimate_profile_mixture", "profiles.estimate_profile_mixture", None),
    ("profiles", "mixture_design_matrix", "profiles.mixture_design_matrix", None),
    ("steiner", "subspace_moment", "steiner.subspace_moment", None),
    ("steiner", "master_phi", "steiner.master_phi", None),
    ("steiner", "phi_mc", "steiner.phi_mc", None),
    ("steiner", "wills_mc", "steiner.wills_mc", None),
    ("steiner", "empirical_steiner_cdf", "steiner.empirical_steiner_cdf", None),
    ("steiner", "gaussian_steiner_cdf", "steiner.gaussian_steiner_cdf", None),
    ("steiner", "spherical_steiner_cdf", "steiner.spherical_steiner_cdf", None),
    ("steiner", "ChiBarSquared.cdf", "steiner.ChiBarSquared.cdf", None),
    ("steiner", "ChiBarSquared.sample", "steiner.ChiBarSquared.sample", None),
    ("special", "gauss_laguerre", "special.gauss_laguerre", None),
    ("special", "chi_square_cdf", "special.chi_square_cdf", None),
    ("special", "beta_cdf", "special.beta_cdf", None),
    ("bounds", "TailBoundReport.evaluate", "bounds.TailBoundReport.evaluate", None),
    ("bounds", "circular_interlacing_tail", "bounds.circular_interlacing_tail", None),
)


class Tracer:
    """Holds the spans of one traced pass in memory."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client = None
        self.request_id = -1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, request_id, fn):
        """Run one request as the client thread's root span; returns fn()."""
        self._client = self._stack()
        self.request_id = request_id
        return self._span("request", fn, (), {}, None)

    def _span(self, name, fn, args, kwargs, count):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client
            parent = client[-1] if client else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            work = count(args, kwargs, result) if count and result is not None else 0
            self.spans.append((span_id, name, start, end, parent, self.request_id, work))

    def wrap(self, fn, name, count):
        tracer = self
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            span_name = name if fixed else name(args, kwargs)
            return tracer._span(span_name, fn, args, kwargs, count)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def wrap_cached(self, fn, name):
        """Wrap an lru_cache function; the span's count is its cache misses."""
        tracer = self

        def call(*args, **kwargs):
            before = fn.cache_info().misses
            result = fn(*args, **kwargs)
            return result, fn.cache_info().misses - before

        def wrapper(*args, **kwargs):
            result, _ = tracer._span(name, call, args, kwargs, lambda a, k, r: r[1])
            return result
        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer):
    """Wrap every target at every conevol binding."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "conevol" or key.startswith("conevol."))]
    for module_name, path, name, count in TARGETS:
        module = sys.modules.get("conevol." + module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        # a class attribute is read from the class dict to see classmethods
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, count)))
            else:
                setattr(owner, attr, tracer.wrap(raw, name, count))
            continue
        wrapped = (tracer.wrap_cached(raw, name) if hasattr(raw, "cache_info")
                   else tracer.wrap(raw, name, count))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans, wall_s):
    """Per-name calls, work and self time, per-layer self time, and the
    unattributed and parallel time of a traced pass.

    self time = span duration minus the union of its children's intervals.
    Sum of layer self times + unattributed_s - parallel_s = wall_s, where
    parallel_s is time that two pool threads were both inside layer calls.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    stats = defaultdict(lambda: {"calls": 0, "work": 0, "self_s": 0.0})
    layer_spans = []
    for span_id, name, start, end, _parent, _rid, work in spans:
        if name == "request":
            continue
        layer_spans.append((start, end))
        entry = stats[name]
        entry["calls"] += 1
        entry["work"] += work
        entry["self_s"] += (end - start) - _union_length(children.get(span_id, ()))
    layers = {layer: 0.0 for layer in LAYERS}
    for name, entry in stats.items():
        layers[name.split(".", 1)[0]] += entry["self_s"]
    covered = _union_length(layer_spans)
    return {
        "functions": dict(stats),
        "layers": layers,
        "unattributed_s": wall_s - covered,
        "parallel_s": sum(layers.values()) - covered,
    }
