#!/usr/bin/env python3
"""Calibration experiment behind the default xi rule in mixlearn.kspike.

Sweeps candidate moment-accuracy parameters for the sampled 1-D learner on a
well-separated two-spike instance and reports, per candidate, the fraction of
seeds with transportation error below a target.  The outcome that fixed the
shipped rule: budgets comparable to the moment noise drag the l1-minimal
annihilator toward cheap polynomials, while budgets an order of magnitude
below the noise make the fit effectively interpolating and track the
intrinsic noise floor.  With the LP on moments about the mean, scaled by the
spread, the shipped rule's median transport at the defaults is 0.0012, level
with xi = 1e-12, and 100 times the rule misses the target on every seed.

Usage: python3 scripts/calibrate_xi.py [--samples 1000000] [--seeds 50]
"""

import argparse

import numpy as np

from mixlearn.kspike import empirical_nbm, learn_kspike_from_nbm, xi_for_sample_count
from mixlearn.model import KSpikeDistribution, spike_transport
from mixlearn.sampling import RngStream


def run(xi, true, n_samples, seeds, target):
    costs = []
    for seed in range(seeds):
        gen = RngStream(40_000 + seed).generator()
        which = gen.random(n_samples) < true.weights[1]
        biases = np.where(which, true.locations[1], true.locations[0])
        bits = (gen.random((n_samples, 2 * true.k - 1)) < biases[:, None]).astype(np.int8)
        out = learn_kspike_from_nbm(empirical_nbm(bits, true.k), xi)
        costs.append(spike_transport(true, out).cost)
    costs = np.array(costs)
    return float((costs <= target).mean()), float(np.median(costs)), float(costs.max())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10**6)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--target", type=float, default=0.05)
    args = ap.parse_args()

    true = KSpikeDistribution(np.array([0.4, 0.6]), np.array([0.25, 0.75]))
    rule = xi_for_sample_count(true.k, args.samples)
    candidates = [
        ("shipped rule", rule),
        ("rule x 10", rule * 10),
        ("rule x 100", rule * 100),
        ("rule / 10", rule / 10),
        ("1e-12", 1e-12),
    ]
    print(f"N = {args.samples}, seeds = {args.seeds}, target transport <= {args.target}")
    print(f"{'candidate':>14} {'xi':>12} {'pass rate':>10} {'median':>10} {'worst':>10}")
    for label, xi in candidates:
        rate, med, worst = run(xi, true, args.samples, args.seeds, args.target)
        print(f"{label:>14} {xi:12.3e} {rate:10.2f} {med:10.4f} {worst:10.4f}")


if __name__ == "__main__":
    main()
