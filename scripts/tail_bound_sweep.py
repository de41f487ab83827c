"""Compare concentration bounds against empirical tails of the face dimension.

For a polyhedral cone this sweeps deviation levels and writes, per level, the
Bennett upper/lower tail bounds, the combined two-sided bound, the Chebyshev
fallback, and the empirical two-sided tail frequency from the face
estimate (profiles.estimate_profile_face), whose mean is also the
statistical dimension the bounds are centred on.  The output is the data
behind the usual bound-vs-truth figure:

    python scripts/tail_bound_sweep.py --cone orthant:32 --samples 200000 \
        --lam-max 12 --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from conevol import (
    MonteCarloConfig,
    TailBoundReport,
    ambient_dim,
    estimate_profile_face,
    parse_cone_spec,
    supports_face_dim,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cone", required=True)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lam-max", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    cone = parse_cone_spec(args.cone)
    if not supports_face_dim(cone):
        ap.error("empirical sweep needs a cone with face-dimension sampling")
    d = ambient_dim(cone)
    config = MonteCarloConfig(seed=args.seed, total_samples=args.samples)
    freqs = estimate_profile_face(cone, config).raw_v
    ks = np.arange(d + 1, dtype=float)
    # a polyhedral cone's statistical dimension is the mean face dimension
    delta = min(max(float(ks @ freqs), 1e-9), d - 1e-9)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow([
        "lambda", "empirical_two_sided", "upper_bennett", "lower_bennett",
        "combined", "chebyshev",
    ])
    for lam in np.linspace(0.0, args.lam_max, args.steps + 1):
        report = TailBoundReport.evaluate(lam, delta, d - delta)
        freq = freqs[np.abs(ks - delta) >= lam].sum()
        writer.writerow(["%.17g" % x for x in (
            lam, freq, report.upper_bennett, report.lower_bennett,
            report.combined, report.chebyshev,
        )])
    if sink is not sys.stdout:
        sink.close()
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
