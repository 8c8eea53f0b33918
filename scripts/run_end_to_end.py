#!/usr/bin/env python3
"""End-to-end sample-size sweep: generate a wide isotropic source, learn it
from snapshots over a grid of sample sizes and seeds, and write one CSV row
per run that succeeds (the same schema as `mixlearn learn`).  A run that ends
in a learning failure (spikes that do not match, or statistics too noisy to
fit) writes no row; the per-size summary on standard error
counts them and takes the median transport over the runs that succeeded.

Usage:
  python3 scripts/run_end_to_end.py --n 100 --k 2 --zeta 0.5 \
      --sizes 10000 100000 1000000 --seeds 20 --out sweep.csv
"""

import argparse
import sys

import numpy as np

from mixlearn.cli import CSV_HEADER, ExperimentConfig, _csv_row, generate_source, run_learn
from mixlearn.model import LearningFailure, width_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--zeta", type=float, default=0.5)
    ap.add_argument("--omega", type=float, default=4.0)
    ap.add_argument("--delta", type=float, default=1e-8)
    ap.add_argument("--source-seed", type=int, default=9)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10**4, 10**5, 10**6])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--mode", choices=["oracle", "sampled"], default="sampled")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    base = ExperimentConfig(n=args.n, k=args.k, seed=args.source_seed, zeta=args.zeta,
                            omega=args.omega, delta=args.delta, mode=args.mode)
    source = generate_source(base)
    rep = width_report(source)
    print(f"# source: n={args.n} k={args.k} zeta={rep.zeta:.3f} wmin={source.w_min:.3f}",
          file=sys.stderr)

    lines = [CSV_HEADER]
    for size in args.sizes:
        costs = []
        failed = 0
        for seed in range(args.seeds):
            cfg = ExperimentConfig(n=args.n, k=args.k, seed=seed, zeta=rep.zeta,
                                   omega=args.omega, delta=args.delta, mode=args.mode,
                                   samples1=size, samples2=size, samples_hi=size)
            try:
                report, _ = run_learn(cfg, source)
            except LearningFailure:
                failed += 1
                continue
            lines.append(_csv_row(report["row"]))
            costs.append(report["row"]["tran_dist"])
        median = f"{np.median(costs):.4g}" if costs else "n/a"
        print(f"# N={size}: median transport {median} ({failed} of {args.seeds} failed)",
              file=sys.stderr)

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
