#!/usr/bin/env python3
"""Lower-bound demonstrations over a parameter grid.

For each (k, b, rho): build the moment-matched hard pair, report the LP value
against its 4 * 3^b / rho^(2k-1) bound, the transportation distance floor,
snapshot total variation at apertures 2k-2 and 2k-1, and the implied
sample-size lower bound for distinguishing the pair.

Usage: python3 scripts/run_lowerbound_demo.py [--kmax 4] [--out grid.csv]
"""

import argparse
import sys

from mixlearn.lower_bounds import aperture_indistinguishability, hard_pair, sample_lower_bound
from mixlearn.model import spike_transport


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--rhos", type=float, nargs="+", default=[2.0, 3.0])
    ap.add_argument("--psi", type=float, default=0.05)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    lines = ["k,b,rho,lp_value,lp_bound,separation,transport,tv_below,tv_at,sample_bound"]
    for k in range(1, args.kmax + 1):
        for b in (2 * k - 1, 3 * k):
            for rho in args.rhos:
                pair = hard_pair(k, b, rho)
                tran = spike_transport(pair.first, pair.second).cost
                below = aperture_indistinguishability(pair, 2 * k - 2)
                at = aperture_indistinguishability(pair, 2 * k - 1)
                nmin = sample_lower_bound(pair, args.psi)
                lines.append(
                    f"{k},{b},{rho!r},{pair.lp_value!r},{pair.lp_bound!r},{pair.separation!r},"
                    f"{tran!r},{below!r},{at!r},{nmin!r}"
                )

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
