"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --t0 T [--setup-only]
                                [--trace SPANS_PATH]

T is the parent's time.monotonic() just before it started this interpreter,
so the reported setup_s covers interpreter start, importing conevol and
building the request list.  The pass sends the requests in order, one at a
time, checks each answer before sending the next, and prints one JSON line.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

import numpy as np


REQUEST_TIMEOUT_S = 20.0


class NoAnswer(Exception):
    """A request ran past REQUEST_TIMEOUT_S; it counts as failed."""


def _no_answer(signum, frame):
    raise NoAnswer(f"no answer within {REQUEST_TIMEOUT_S:g} s")


def flatten(answer):
    """Every number of an answer, in a fixed order, as float64."""
    if answer is None:
        return []
    if hasattr(answer, "as_dict"):
        return [float(x) for x in answer.as_dict().values()]
    if hasattr(answer, "raw_v"):
        parts = [answer.v, answer.raw_v, answer.stderr]
        return [float(x) for part in parts if part is not None for x in np.ravel(part)]
    if isinstance(answer, (tuple, list)):
        return [x for item in answer for x in flatten(item)]
    return [float(x) for x in np.ravel(np.asarray(answer, dtype=float))]


def answer_digest(answer):
    return hashlib.sha256(np.asarray(flatten(answer), dtype="<f8").tobytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default="")
    args = parser.parse_args()

    import conevol as cv
    import workloads
    src = os.path.realpath(os.path.join("src", "conevol"))
    if os.path.dirname(os.path.realpath(cv.__file__)) != src:
        sys.exit(f"conevol was imported from {cv.__file__}, not from {src}")
    nproc = len(os.sched_getaffinity(0))
    requests = workloads.build(args.workload, args.seed, cv, nproc)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    signal.signal(signal.SIGALRM, _no_answer)
    latencies, digests, failures = [], [], []
    for i, req in enumerate(requests):
        error = ""
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            answer = tracer.request(i, req.call) if tracer else req.call()
        except Exception as exc:  # request boundary: a raise is a failed request
            answer, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(time.perf_counter() - start)
        digest = answer_digest(answer) if not error else "raised"
        digests.append(digest)
        if not error:
            try:
                error = req.check(answer)
            except Exception as exc:  # a malformed answer fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        if not error and req.twin_of >= 0 and digest != digests[req.twin_of]:
            error = f"answer differs from its workers=1 twin (request {req.twin_of})"
        if error:
            failures.append([i, error])

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "samples": [r.samples for r in requests],
        "workers": [r.workers for r in requests],
        "labels": [r.label for r in requests],
        "digests": digests,
        "failures": failures,
        "list_digest": workloads.list_digest(requests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nproc": nproc,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "?"),
    }
    if tracer:
        import tracing
        result["trace"] = tracing.summarize(tracer.spans, sum(latencies))
        result["absent"] = tracer.absent
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request", "work"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
