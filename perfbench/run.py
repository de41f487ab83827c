"""conevol benchmark: seeded, closed-loop request streams through the public API.

    python3 perfbench/run.py --workload {mc_stream,project_heavy,estimate_identity,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a conevol source tree; conevol is imported from ./src.
Every pass runs in a fresh interpreter (perfbench/worker.py) with
CONEVOL_THREADS unset and BLAS/OpenMP pinned to one thread, so per-process
caches start cold as they do for a command-line user.  One client sends the
workload's requests one after another and checks each answer against an exact
oracle before sending the next.

--trace 0 measures the end-to-end metrics.  The run makes at least four
passes and more while another one fits in S seconds; every pass sends the
same inputs, and each request's latency is the best of its passes.  On a
shared host other processes slow a pass down by up to a quarter, for seconds
to minutes at a time, and they only ever add time, so the best of four passes
is steadier than one pass or the median of several.
setup_s is the median over four set-up-only interpreters and every pass.

--trace 1 runs one untraced and one traced pass and reports per-layer metrics
from the traced one; both must give the same answers.

The last stdout line is the JSON result; the full record, with provenance and
per-request data, goes to .perfbench_out/.  fail_frac = failed / attempted.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYERS, NORMS_FAMILIES, TARGETS  # noqa: E402
from workloads import BUILDERS, WHY  # noqa: E402

SETUP_ONLY_RUNS = 4
MIN_PASSES = 4
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

WORK_NAMES = {"sampling.gaussian_block": "values", "linalg.jacobi_eigh_batch": "matrices",
              "profiles.build_biorthogonal": "misses",
              "profiles.BiorthogonalSystem.evaluate": "points"}
WORK_NAMES.update({f"cones.norms_block.{f}": "rows" for f in NORMS_FAMILIES})


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "CONEVOL_THREADS"}
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, deadline, extra=()):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of ./.git if there is one, read without leaving the tree."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def quantile(values, q):
    """statistics.quantiles cut point at q (exclusive method)."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def mark_mismatches(reference, other):
    """Requests of ``other`` whose answers differ from ``reference``."""
    return [[i, "answer differs between passes of the same seed"]
            for i, (a, b) in enumerate(zip(reference["digests"], other["digests"]))
            if a != b and b != "raised"]


def end_to_end(passes, setups):
    """Each request's latency is the best of its passes, which all send the
    same inputs from a cold start; wall_s is the sum of those latencies."""
    latencies = [min(t) for t in zip(*(p["latencies"] for p in passes))]
    wall = sum(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "req_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "req_p90_ms": (1e3 * quantile(latencies, 0.90), "ms"),
        "samples_per_s": (sum(passes[0]["samples"]) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    basis = {"setup_s": {"interpreters": len(setups)},
             "latency": {"passes": len(passes), "requests": n},
             "req_p50_ms": {"requests": n, "beyond": n - math.ceil(0.5 * n)},
             "req_p90_ms": {"requests": n, "beyond": n - math.ceil(0.9 * n)}}
    return metrics, basis


def function_keys():
    """Span names of the traced functions, in TARGETS order, each once."""
    keys = []
    for _module, _path, name, _count in TARGETS:
        for key in ([name] if isinstance(name, str)
                    else [f"cones.norms_block.{f}" for f in NORMS_FAMILIES]):
            if key not in keys:
                keys.append(key)
    return keys


def per_layer(untraced, traced):
    summary = traced["trace"]
    functions = summary["functions"]
    metrics = {}
    for key in function_keys():
        entry = functions.get(key, {"calls": 0, "work": 0, "self_s": 0.0})
        metrics[f"{key}.calls"] = (entry["calls"], "count")
        metrics[f"{key}.self_s"] = (entry["self_s"], "s")
        if key in WORK_NAMES:
            metrics[f"{key}.{WORK_NAMES[key]}"] = (entry["work"], "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (summary["layers"][layer], "s")
    single = [t for t, w in zip(untraced["latencies"], untraced["workers"]) if w == 1]
    multi = [t for t, w in zip(untraced["latencies"], untraced["workers"]) if w > 1]
    metrics["sampling.workers_speedup"] = (sum(single) / sum(multi) if multi else 0.0, "ratio")
    wall_untraced = sum(untraced["latencies"])
    wall_traced = sum(traced["latencies"])
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_frac"] = (wall_traced / wall_untraced - 1.0, "fraction")
    metrics["trace.unattributed_s"] = (summary["unattributed_s"], "s")
    metrics["trace.parallel_s"] = (summary["parallel_s"], "s")
    return metrics


def run_workload(workload, args):
    """Run one workload, print its lines, and return its result object."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    load_at_start = os.getloadavg()
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json")
        untraced = run_worker(workload, args.seed, deadline)
        traced = run_worker(workload, args.seed, deadline, ("--trace", spans_path))
        passes = [untraced, traced]
        metrics, basis = per_layer(untraced, traced), {"spans": spans_path}
        setups = []
    else:
        setups = [run_worker(workload, args.seed, deadline, ("--setup-only",))["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        passes = []
        first = time.monotonic()
        while True:
            passes.append(run_worker(workload, args.seed, deadline))
            elapsed = time.monotonic() - first
            if (len(passes) >= MIN_PASSES
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break
        setups += [p["setup_s"] for p in passes]
        metrics, basis = end_to_end(passes, setups)

    failures = []
    for k, p in enumerate(passes):
        failures += [[k, i, why] for i, why in p["failures"]]
        if k:
            failures += [[k, i, why] for i, why in mark_mismatches(passes[0], p)]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = len({(k, i) for k, i, _ in failures})
    ref = passes[0]
    provenance = {
        "workload": workload, "seed": args.seed, "why": WHY[workload],
        "requests_per_pass": len(ref["latencies"]), "passes": len(passes),
        "request_list_sha256": ref["list_digest"],
        "answers_sha256": [hashlib.sha256("".join(p["digests"]).encode()).hexdigest()
                           for p in passes],
        "nproc": ref["nproc"], "python": platform.python_version(), "numpy": ref["numpy"],
        "blas": ref["blas"], "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(), "loadavg_at_start": load_at_start,
        "percentile_basis": basis, "absent": passes[-1].get("absent", []),
        "run_s": time.monotonic() - start,
    }
    record = {"provenance": provenance, "metrics": metrics, "failures": failures,
              "passes": passes}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({k: v for k, v in provenance.items() if k != "why"}))
    for k, i, why in failures[:20]:
        print(f"FAILED pass {k} request {i} {passes[k]['labels'][i]}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} requests)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "conevol", "__init__.py")):
        raise SystemExit("run from the root of a conevol source tree (no src/conevol here)")
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return
    results = {name: run_workload(name, args) for name in BUILDERS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
