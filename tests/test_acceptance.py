"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Statistical checks use fixed seeds.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from mixlearn.cli import ExperimentConfig, generate_source
from mixlearn.kspike import (
    empirical_nbm,
    learn_kspike_from_nbm,
    pascal_pair,
    solve_lambda,
    solve_weights,
    vandermonde,
    xi_for_sample_count,
)
from mixlearn.learner import (
    DrawnInputs,
    OracleInputs,
    learn_mixture,
    simplex_project_l1,
)
from mixlearn.lower_bounds import aperture_indistinguishability, hard_pair, tv_snapshot_distance
from mixlearn.model import (
    KSpikeDistribution,
    MixtureSource,
    mixture_transport,
    spike_transport,
    width_report,
)
from mixlearn.sampling import RngStream, binarize, draw_snapshots

from oracles import (
    brute_force_lp,
    learn_kspike,
    moments_of,
    nbm_of,
    pascal_inverse,
    project_snapshot,
    simplex_project_l1_lp,
)
from test_kspike import active_set_weights_oracle


class _Gate:
    def __init__(self, ident, description, budget_s):
        self.ident = ident
        self.description = description
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.ident:>2} [{verdict}] {self.description} "
              f"({elapsed:.2f}s / budget {self.budget_s:.0f}s){': ' + detail if detail else ''}")
        assert ok, f"criterion {self.ident}: {detail}"
        assert elapsed < self.budget_s, f"criterion {self.ident} over budget: {elapsed:.1f}s"


def test_criterion_01_exact_1d_recovery():
    gate = _Gate(1, "exact 1-D recovery, k in 1..4, separation >= 0.2, xi = 1e-12", 5.0)
    cases = [
        ([1.0], [0.5]),
        ([0.4, 0.6], [0.25, 0.75]),
        ([0.3, 0.3, 0.4], [0.1, 0.5, 0.9]),
        ([0.3, 0.2, 0.3, 0.2], [0.05, 0.35, 0.65, 0.95]),
    ]
    worst = 0.0
    for w, locs in cases:
        d = KSpikeDistribution(np.array(w), np.array(locs))
        assert d.separation() >= 0.2
        out = learn_kspike_from_nbm(nbm_of(d), xi=1e-12)
        worst = max(worst, spike_transport(d, out).cost)
    gate.finish(worst <= 1e-6, f"worst transport {worst:.2e}")


def test_criterion_02_sampled_1d_recovery():
    gate = _Gate(2, "sampled 1-D recovery, k=2, separation 0.5, N=1e6, 50 seeds", 120.0)
    true = KSpikeDistribution(np.array([0.4, 0.6]), np.array([0.25, 0.75]))
    # the spike distribution as a 2-item mixture: p(item 1) = spike location
    src = MixtureSource(
        true.weights.copy(),
        np.vstack([[1.0 - true.locations[0], true.locations[0]],
                   [1.0 - true.locations[1], true.locations[1]]]),
    )
    n_samples = 10**6
    xi = xi_for_sample_count(2, n_samples)
    item_values = np.array([0.0, 1.0])
    costs = []
    for seed in range(50):
        rng = RngStream(31_000 + seed)
        batch = draw_snapshots(src, 3, n_samples, rng.child(0))
        bits = binarize(project_snapshot(batch.rows, item_values), rng.child(1))
        out = learn_kspike(bits, 2, xi)
        costs.append(spike_transport(true, out).cost)
    rate = float(np.mean(np.array(costs) <= 0.05))
    gate.finish(rate >= 0.9, f"pass rate {rate:.2f}, median {np.median(costs):.4f}")


def test_criterion_03_oracle_end_to_end():
    gate = _Gate(3, "oracle end-to-end, n=20, k=2 wide isotropic", 10.0)
    src = generate_source(ExperimentConfig(n=20, k=2, seed=3, zeta=0.5))
    rep = width_report(src)
    assert rep.isotropic and rep.zeta >= 0.5
    res = learn_mixture(OracleInputs(src), k=2, zeta=rep.zeta, rng=RngStream(11))
    cost = mixture_transport(src, res.source).cost
    gate.finish(cost <= 1e-4, f"transport {cost:.2e}")


def test_criterion_04_sampled_end_to_end():
    gate = _Gate(4, "sampled end-to-end, n=100, k=2, N=1e6, 20 seeds + monotonicity", 900.0)
    src = generate_source(ExperimentConfig(n=100, k=2, seed=9, zeta=0.5))
    rep = width_report(src)
    medians = {}
    full_costs = None
    for n_samples in (10**4, 10**5, 10**6):
        costs = []
        for seed in range(20):
            rng = RngStream(52_000 + seed)
            inputs = DrawnInputs(src, n_samples, n_samples, n_samples, rng.child(1))
            res = learn_mixture(inputs, k=2, zeta=rep.zeta, rng=rng.child(5))
            costs.append(mixture_transport(src, res.source).cost)
        medians[n_samples] = float(np.median(costs))
        if n_samples == 10**6:
            full_costs = np.array(costs)
    rate = float(np.mean(full_costs <= 0.15))
    monotone = medians[10**4] >= medians[10**5] >= medians[10**6]
    gate.finish(rate >= 0.8 and monotone,
                f"rate {rate:.2f}, medians {medians[10**4]:.3f} >= {medians[10**5]:.3f} >= {medians[10**6]:.3f}")


def test_criterion_05_moment_gap_vs_transport():
    gate = _Gate(5, "moment-gap lower bound on 1000 random pairs per k in 1..3", 30.0)
    gen = np.random.default_rng(5150)
    violations = 0
    for k in (1, 2, 3):
        denom = (2 * k - 1) ** (4 * k) * 2.0 ** (8 * k - 5)
        for _ in range(1000):
            wa = gen.dirichlet(np.ones(k))
            wb = gen.dirichlet(np.ones(k))
            a = KSpikeDistribution(wa, np.sort(gen.random(k)))
            b = KSpikeDistribution(wb, np.sort(gen.random(k)))
            tran = spike_transport(a, b).cost
            gap = float(np.linalg.norm(moments_of(a).values - moments_of(b).values))
            if gap < tran ** (4 * k - 2) / denom - 1e-9:
                violations += 1
    gate.finish(violations == 0, f"{violations} violations")


def test_criterion_06_pascal_operator_norm_bound():
    gate = _Gate(6, "Pascal Frobenius bound for k = 1..10, exact integers", 1.0)
    ok = True
    for k in range(1, 11):
        pas = pascal_pair(2 * k).pas
        frob_sq = sum(int(v) ** 2 for row in pas for v in row)
        expect = sum(math.comb(2 * m, m) for m in range(2 * k))
        ok = ok and frob_sq == expect and 3 * frob_sq <= 16**k
    gate.finish(ok)


def test_criterion_07_interpolation_bound():
    gate = _Gate(7, "interpolation coefficient bound, 500 random configs", 30.0)
    gen = np.random.default_rng(747)
    violations = 0
    for _ in range(500):
        kappa = int(gen.integers(1, 7))
        pts = np.sort(gen.random(kappa + 1))
        while np.diff(pts).min(initial=1.0) < 0.02:
            pts = np.sort(gen.random(kappa + 1))
        ell = int(gen.integers(1, kappa + 1))
        s = pts[ell] - pts[ell - 1]
        coeffs = np.zeros(kappa + 1)
        for i in range(ell):
            others = np.delete(pts, i)
            poly = np.array([1.0])
            for root in others:
                poly = np.convolve(poly, [-root, 1.0])
            coeffs += poly / np.prod(pts[i] - others)
        bound = kappa**2 * 2.0 ** (4 * kappa - 1) * s ** (-2 * kappa)
        if np.sum(coeffs**2) > bound * (1 + 1e-6):
            violations += 1
    gate.finish(violations == 0, f"{violations} violations")


def test_criterion_08_pascal_identities():
    gate = _Gate(8, "Pascal inverse exact for b <= 25; g = nu Pas on random spikes", 1.0)
    ok = True
    for b in range(1, 26):
        pas = [[int(v) for v in row] for row in pascal_pair(b).pas]
        inv = [[int(v) for v in row] for row in pascal_inverse(b)]
        for i in range(b):
            for j in range(b):
                acc = sum(pas[i][l] * inv[l][j] for l in range(b))
                if acc != (1 if i == j else 0):
                    ok = False
    gen = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        k = int(gen.integers(1, 6))
        d = KSpikeDistribution(gen.dirichlet(np.ones(k)), np.sort(gen.random(k)))
        g = nbm_of(d).values @ pascal_pair(2 * k).pas.astype(float)
        worst = max(worst, float(np.abs(g - moments_of(d).values).max()))
    gate.finish(ok and worst <= 1e-10, f"worst moment identity gap {worst:.2e}")


def test_criterion_09_hard_pair_grid():
    gate = _Gate(9, "hard-pair LP grid: bound, moment match, transport floor", 60.0)
    ok = True
    detail = []
    for k in (1, 2, 3):
        for b in (2 * k - 1, 3 * k):
            for rho in (2.0, 3.0):
                pair = hard_pair(k, b, rho)
                bound = 4.0 * 3.0**b / rho ** (2 * k - 1)
                g1 = pair.first.weights @ vandermonde(pair.first.locations, 2 * k)
                g2 = pair.second.weights @ vandermonde(pair.second.locations, 2 * k)
                moment_gap = float(np.abs(g1 - g2)[: 2 * k - 1].max())
                tran = spike_transport(pair.first, pair.second).cost
                case_ok = (
                    pair.lp_value <= bound * (1 + 1e-9)
                    and moment_gap <= 1e-8
                    and tran >= pair.transport_floor - 1e-10
                )
                if not case_ok:
                    detail.append(f"k={k},b={b},rho={rho}")
                ok = ok and case_ok
    gate.finish(ok, "; ".join(detail) if detail else "all grid cases hold")


def test_criterion_10_tv_closed_form_vs_enumeration():
    gate = _Gate(10, "closed-form TV lp_value / 2 equals enumeration on 100 hard pairs "
                     "(b = 2k-1 <= 11)", 60.0)
    gen = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        k = int(gen.integers(1, 7))
        rho = float(gen.uniform(2.0, 6.0))
        b = 2 * k - 1
        pair = hard_pair(k, b, rho)
        brute = tv_snapshot_distance(pair.first, pair.second, b)
        worst = max(worst, abs(pair.lp_value / 2 - brute))
    gate.finish(worst <= 1e-10, f"worst |closed - brute| {worst:.2e}")


def test_criterion_11_aperture_threshold_demo():
    gate = _Gate(11, "aperture 2k-2 indistinguishable, 2k-1 distinguishable", 10.0)
    ok = True
    detail = []
    for k, b, rho in [(2, 3, 2.0), (3, 5, 2.0)]:
        pair = hard_pair(k, b, rho)
        below = aperture_indistinguishability(pair, 2 * k - 2)
        at = aperture_indistinguishability(pair, 2 * k - 1)
        detail.append(f"k={k}: tv(2k-2)={below:.1e} tv(2k-1)={at:.3e}")
        ok = ok and below <= 1e-6 and at > 0.0
    gate.finish(ok, "; ".join(detail))


def test_criterion_12_oracle_equivalence():
    gate = _Gate(12, "LP routines match brute-force oracles on 100+ small instances", 120.0)
    gen = np.random.default_rng(1212)
    ok = True

    # transport vs exhaustive vertex enumeration (k, l <= 3)
    for _ in range(100):
        k = int(gen.integers(1, 4))
        l = int(gen.integers(1, 4))
        wa = gen.dirichlet(np.ones(k))
        wb = gen.dirichlet(np.ones(l))
        cost = gen.random((k, l))
        from mixlearn.model import transport_distance

        got = transport_distance(wa, wb, cost).cost
        a_eq = np.zeros((k + l, k * l))
        for i in range(k):
            a_eq[i, i * l:(i + 1) * l] = 1.0
        for j in range(l):
            a_eq[k + j, j::l] = 1.0
        want = brute_force_lp(cost.ravel(), a_eq=a_eq, b_eq=np.concatenate([wa, wb])).value
        ok = ok and abs(got - want) <= 1e-8

    # simplex l1 projection vs its LP route (n <= 6)
    for _ in range(100):
        n = int(gen.integers(2, 7))
        p = gen.standard_normal(n) * gen.uniform(0.2, 1.5)
        fast_cost = float(np.abs(simplex_project_l1(p) - p).sum())
        lp_cost = float(np.abs(simplex_project_l1_lp(p) - p).sum())
        ok = ok and abs(fast_cost - lp_cost) <= 1e-9

    # annihilator LP vs vertex enumeration (k <= 3)
    for _ in range(100):
        k = int(gen.integers(1, 4))
        d = KSpikeDistribution(gen.dirichlet(np.ones(k)), np.sort(gen.random(k)))
        g = moments_of(d).values + 1e-4 * gen.standard_normal(2 * k)
        xi = 1e-3
        lam = solve_lambda(g, xi, k)
        hank = np.array([[g[i + j] for j in range(k + 1)] for i in range(k)])
        gf, gl = hank[:, :k], hank[:, k]
        nv = 3 * k
        cost = np.concatenate([np.ones(2 * k), np.zeros(k)])
        a_ub = np.zeros((2 * k + 1, nv))
        b_ub = np.zeros(2 * k + 1)
        a_ub[:k, :k] = gf
        a_ub[:k, k:2 * k] = -gf
        a_ub[:k, 2 * k:] = -np.eye(k)
        b_ub[:k] = -gl
        a_ub[k:2 * k, :k] = -gf
        a_ub[k:2 * k, k:2 * k] = gf
        a_ub[k:2 * k, 2 * k:] = -np.eye(k)
        b_ub[k:2 * k] = gl
        a_ub[2 * k, 2 * k:] = 1.0
        b_ub[2 * k] = (2.0**k) * k * xi
        want = brute_force_lp(cost, a_ub=a_ub, b_ub=b_ub).value
        ok = ok and abs(float(np.abs(lam[:k]).sum()) - want) <= 1e-8

    # weight fitting vs active-set enumeration (k <= 3)
    for _ in range(100):
        k = int(gen.integers(1, 4))
        locs = np.sort(gen.random(k))
        d = KSpikeDistribution(gen.dirichlet(np.ones(k)), np.sort(gen.random(k)))
        g = moments_of(d).values + 0.01 * gen.standard_normal(2 * k)
        y = solve_weights(locs, g)
        v = vandermonde(locs, 2 * k)
        got = float(np.sum((y @ v - g) ** 2))
        _, want = active_set_weights_oracle(locs, g)
        ok = ok and abs(got - want) <= 1e-9

    gate.finish(ok)
