#!/usr/bin/env python3
"""Where the rare-item reduction pays: drawn runs against `--isotropize` on a
skewed source, over a grid of sample sizes.

The source has n items (50 by default), k = 2 and weights 1/2.  Its mean is
proportional to 1/i, and its constituents are mean * (1 +- 0.8 v),
renormalized, with v random signs from `numpy.random.default_rng(5)`.  It is
wide but not isotropic: its heaviest item holds about ten times the uniform
mass.  Each run learns at the width `width_report` measures; `--isotropize`
runs use the default sigma.  One markdown table row per sample size N (per
aperture) gives, for each path, the runs that end in a learning failure and
the median transport over the rest.

Usage:
  python3 scripts/isotropize_sweep.py --sizes 1e5 1e6 1e7 1e8 1e9 1e10 --seeds 20
"""

import argparse

import numpy as np

from mixlearn.cli import ExperimentConfig, run_learn
from mixlearn.model import LearningFailure, MixtureSource, width_report


def skewed_source(n):
    mean = 1.0 / np.arange(1, n + 1)
    v = np.random.default_rng(5).choice([-1.0, 1.0], size=n)
    rows = np.vstack([mean * (1.0 + 0.8 * v), mean * (1.0 - 0.8 * v)])
    return MixtureSource(np.full(2, 0.5), rows / rows.sum(axis=1, keepdims=True))


def cell(source, zeta, size, seeds, isotropize):
    costs, failed = [], 0
    for seed in range(seeds):
        cfg = ExperimentConfig(n=source.n, k=2, seed=seed, zeta=zeta, isotropize=isotropize,
                               samples1=size, samples2=size, samples_hi=size)
        try:
            costs.append(run_learn(cfg, source)[0]["row"]["tran_dist"])
        except LearningFailure:
            failed += 1
    return f"{failed} / {np.median(costs):.2g}" if costs else f"{failed} / -"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--sizes", type=float, nargs="+", default=[1e5, 1e6, 1e7])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    source = skewed_source(args.n)
    zeta = width_report(source).zeta
    print(f"n = {args.n}, zeta = {zeta:.3f}, seeds = {args.seeds}; "
          "each cell: failed runs / median transport")
    print("| N | drawn | `--isotropize` |")
    print("|---|---|---|")
    for size in args.sizes:
        drawn, iso = (cell(source, zeta, int(size), args.seeds, flag) for flag in (False, True))
        print(f"| {size:.0e} | {drawn} | {iso} |")


if __name__ == "__main__":
    main()
