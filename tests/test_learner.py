import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlearn import kspike, learner
from mixlearn.kspike import learn_kspike_from_nbm
from mixlearn.learner import (
    DrawnInputs,
    LearnerConstants,
    Matching,
    MatchingFailure,
    OracleInputs,
    SampledInputs,
    learn_mixture,
    match_spikes,
    simplex_project_l1,
    solve_direction_program,
)
from mixlearn.model import MixtureSource, mixture_transport, width_report
from mixlearn.sampling import RngStream, draw_snapshots
from mixlearn.spectral import estimate_A, random_basis

from conftest import identity_map, two_block_source
from oracles import direction_program_bisection, simplex_project_l1_lp, simplex_project_l1_scan

# entries with zeros, ties and both signs; none below 1e-12 in magnitude, where
# the reference's stand-in for an infinite scale (1e18) would stop clipping them
_ENTRY = st.one_of(st.just(0.0), st.sampled_from([-1.0, -0.5, 0.5, 1.0]),
                   st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 1e-12))


class TestDirectionProgram:
    def test_single_coordinate(self):
        a = solve_direction_program(np.array([1.0, 0.0, 0.0]), delta=1e-3, zeta=0.5)
        assert np.allclose(a, [1.0, 0.0, 0.0], atol=1e-9)

    def test_flat_vector_is_fixed_point(self):
        n = 9
        v = np.full(n, 1.0 / math.sqrt(n))
        a = solve_direction_program(v, delta=1e-3, zeta=0.5)
        assert np.allclose(np.abs(a), 1.0 / math.sqrt(n), atol=1e-8)

    def test_matches_grid_oracle_within_factor_two(self):
        v = np.array([0.8, 0.6])
        delta, zeta = 0.01, 0.6
        c = 1.0 - 4 * delta / zeta**2
        xs = np.linspace(-1.0, 1.0, 2001)
        xg, yg = np.meshgrid(xs, xs)
        feas = (v[0] * xg + v[1] * yg >= c) & (xg**2 + yg**2 <= 1.0)
        grid_opt = np.maximum(np.abs(xg), np.abs(yg))[feas].min()
        # recover the solver's pre-normalization optimizer by re-deriving its cap
        a = solve_direction_program(v, delta, zeta)
        # a is x*/||x*||; x* attains v.x >= c with the minimal cap, so the
        # scaled-back cap is ||x*||_inf <= 2x the grid optimum
        scale_back = np.abs(a).max() * c  # |x*| >= c since v.x* >= c, ||x*||<=1
        assert scale_back <= 2.0 * grid_opt + 1e-6

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(_ENTRY, min_size=1, max_size=200).filter(any),
           log_delta=st.floats(-10.0, -1.0), zeta=st.floats(0.05, 1.0))
    def test_matches_bisection_reference(self, entries, log_delta, zeta):
        # 4 delta / zeta^2 >= 4e-10: as 1 - t -> 0 the optimal cap moves like
        # sqrt(1 - t), so rounding t alone shifts any solver by ~1e-16/sqrt(1 - t)
        v = np.array(entries)
        v /= np.linalg.norm(v)
        delta = 10.0**log_delta
        a = solve_direction_program(v, delta, zeta)
        assert np.abs(a - direction_program_bisection(v, delta, zeta)).max() <= 1e-9
        target = 1.0 - 4.0 * delta / zeta**2
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        if target > 0.0:
            assert float(v @ a) >= target * (1.0 - 1e-12)

    def test_all_entries_clipped_is_exact(self):
        # t = 0.5 < 1/sqrt(2): the least cap clips both entries, however small
        # the second, so the optimizer is flat
        v = np.array([-1.0, 1e-20])
        a = solve_direction_program(v, delta=1.0 / 32.0, zeta=0.5)
        assert np.allclose(a, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], atol=1e-15)

    def test_unit_norm_required(self):
        from mixlearn.model import InputError

        with pytest.raises(InputError):
            solve_direction_program(np.array([2.0, 0.0]), 1e-3, 0.5)

    def test_helper_invariants_on_wide_source(self):
        # oracle regime: a stays flat (|a|_inf <= H) and separates the
        # constituents (|a.(p-q)| >= L/2) for directions in col(A)
        src = two_block_source(n=16, c=0.8)
        rep = width_report(src)
        consts = LearnerConstants(n=src.n, k=2, zeta=rep.zeta, omega=4.0, delta=1e-8,
                                  w_min=src.w_min)
        sub = estimate_A(src.second_moment_matrix(), src.mean(), rep.zeta)
        for i in range(10):
            v = random_basis(sub, RngStream(50 + i))[:, 0]
            a = solve_direction_program(v, consts.delta, consts.zeta)
            assert np.abs(a).max() <= consts.H
            gap = abs(float(a @ (src.constituents[0] - src.constituents[1])))
            assert gap >= consts.L / 2


class TestMatchSpikes:
    def _consts(self):
        return LearnerConstants(n=25, k=3, zeta=0.4, omega=2.0, delta=1e-8, w_min=0.2)

    def test_trivial_single_direction(self):
        consts = self._consts()
        m = match_spikes(np.array([[0.1, 0.5, 0.9]]), np.zeros((0, 3)), 0.3, consts)
        assert m.assignments.shape == (0, 3)

    def test_genuine_grid_recovers_permutations(self, rng):
        # exact projections of known points onto two directions, independently
        # permuted; the matching must recover sigma_j o sigma_last^-1
        consts = self._consts()
        k = 3
        proj = rng.random((2, k))  # rows: direction j=0 and the last direction
        perm0 = rng.permutation(k)
        perm_last = rng.permutation(k)
        alpha = np.vstack([proj[0][np.argsort(perm0)], proj[1][np.argsort(perm_last)]])
        theta = 0.7
        zhat = np.array([proj[0] * math.cos(theta) + proj[1] * math.sin(theta)])
        m = match_spikes(alpha, zhat, theta, consts)
        for t in range(k):
            assert m.assignments[0, perm_last[t]] == perm0[t]

    def test_fake_grid_point_not_matched(self):
        consts = self._consts()
        theta = 0.9
        # two points whose grid has well-separated genuine combinations
        proj = np.array([[0.1, 0.6], [0.2, 0.8]])
        alpha = proj.copy()
        zhat = np.array([proj[0] * math.cos(theta) + proj[1] * math.sin(theta)])
        m = match_spikes(alpha, zhat, theta, consts)
        assert np.array_equal(m.assignments[0], [0, 1])
        # displace one test value far off the genuine grid: matching must fail
        bad = zhat.copy()
        bad[0, 1] += consts.L / (0.4 + consts.T) + 0.3
        with pytest.raises(MatchingFailure):
            match_spikes(alpha, bad, theta, consts)

    def test_ambiguous_assignment_fails(self):
        consts = self._consts()
        alpha = np.array([[0.5, 0.5 + 1e-12], [0.1, 0.9]])
        zhat = np.array([[0.5, 0.5]])
        with pytest.raises(MatchingFailure):
            match_spikes(alpha, zhat, 0.0, consts)


class TestSimplexProjectL1:
    def test_already_in_simplex(self):
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(simplex_project_l1(p), p)

    def test_surplus_example(self):
        p = np.array([0.6, 0.6])
        x = simplex_project_l1(p)
        assert np.abs(x - p).sum() == pytest.approx(0.2, abs=1e-12)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_entry_example(self):
        p = np.array([-0.2, 0.5])
        x = simplex_project_l1(p)
        assert np.abs(x - p).sum() == pytest.approx(0.7, abs=1e-12)

    def test_matches_lp_cost(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 7))
            p = rng.standard_normal(n) * rng.uniform(0.2, 2.0)
            fast = simplex_project_l1(p)
            lp = simplex_project_l1_lp(p)
            assert fast.min() >= -1e-12
            assert fast.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.abs(fast - p).sum() == pytest.approx(np.abs(lp - p).sum(), abs=1e-9)

    def test_matches_the_level_scan_bit_for_bit(self, rng):
        # same arithmetic as the scan, so the same bits; ties and exact zeros
        # included, and on both sides of unit mass
        for i in range(2000):
            n = int(rng.integers(1, 201))
            p = rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 3.0)
            if i % 3 == 1:
                p = p + rng.normal(0.0, 1.0 / n, n)
            elif i % 3 == 2:
                p = np.round(p, 3)
            want = simplex_project_l1_scan(p)
            assert want is not None
            assert np.array_equal(simplex_project_l1(p), want)


class TestLearnMixture:
    def test_degenerate_k1_returns_mean(self):
        src = MixtureSource(np.array([1.0]), np.array([[0.3, 0.2, 0.5]]))
        res = learn_mixture(OracleInputs(src), k=1, zeta=0.5, omega=4.0, delta=1e-8,
                            w_min=1.0, rng=RngStream(1))
        assert res.degenerate and res.kprime == 0
        assert np.allclose(res.source.constituents[0], src.constituents[0])
        assert res.source.weights[0] == 1.0

    def test_oracle_k2(self):
        src = two_block_source(n=20, c=0.9, w=(0.45, 0.55))
        rep = width_report(src)
        res = learn_mixture(OracleInputs(src), k=2, zeta=rep.zeta, omega=4.0, delta=1e-8,
                            w_min=src.w_min, rng=RngStream(7))
        assert res.kprime == 1
        assert mixture_transport(src, res.source).cost <= 1e-4

    def test_oracle_k3_exercises_matching(self):
        from mixlearn.cli import ExperimentConfig, generate_source

        src = generate_source(ExperimentConfig(n=30, k=3, seed=5, zeta=0.2))
        rep = width_report(src)
        res = learn_mixture(OracleInputs(src), k=3, zeta=rep.zeta, omega=4.0, delta=1e-8,
                            w_min=src.w_min, rng=RngStream(12))
        assert res.kprime == 2
        assert res.attempts >= 1
        assert mixture_transport(src, res.source).cost <= 2e-2

    def test_reconstruction_identity_exact_projections(self, rng):
        # with exact gammas and exact matching the assembled point is
        # rtilde + Pi_basis (p - rtilde)
        src = two_block_source(n=12, c=0.7)
        rep = width_report(src)
        sub = estimate_A(src.second_moment_matrix(), src.mean(), rep.zeta)
        basis = random_basis(sub, RngStream(3))
        r = src.mean()
        for t in range(2):
            p = src.constituents[t]
            coeffs = basis.T @ p - basis.T @ r
            phat = r + basis @ coeffs
            proj = r + basis @ (basis.T @ (p - r))
            assert np.abs(phat - proj).max() < 1e-10

    def test_sampled_direction_accuracy_monte_carlo(self):
        # n=50, k=2: learned direction projections track v.p^t across seeds
        from mixlearn.cli import ExperimentConfig, generate_source
        from mixlearn.learner import LearnerConstants, learn_direction

        src = generate_source(ExperimentConfig(n=50, k=2, seed=21, zeta=0.5))
        rep = width_report(src)
        consts = LearnerConstants(n=50, k=2, zeta=rep.zeta, omega=4.0, delta=1e-8,
                                  w_min=src.w_min)
        sub = estimate_A(src.second_moment_matrix(), src.mean(), rep.zeta)
        v = sub.basis[:, 0]
        true_projs = np.sort(src.constituents @ v)
        errors = []
        for seed in range(10):
            rng = RngStream(9_000 + seed)
            batch = draw_snapshots(src, 3, 200000, rng.child(1))
            inputs = SampledInputs(batch, batch, batch, identity_map(50))
            res = learn_direction(v, consts, inputs, batch.rows, rng.child(2))
            errors.append(np.abs(np.sort(res.gammas) - true_projs).max())
        assert np.median(errors) < 0.01
        assert np.quantile(errors, 0.9) < 0.05

    def test_sampled_determinism(self):
        src = two_block_source(n=10, c=0.8)
        rep = width_report(src)

        def run():
            rng = RngStream(77)
            b1 = draw_snapshots(src, 1, 20000, rng.child(1))
            b2 = draw_snapshots(src, 2, 20000, rng.child(2))
            bh = draw_snapshots(src, 3, 20000, rng.child(3))
            res = learn_mixture(SampledInputs(b1, b2, bh, identity_map(10)), k=2, zeta=rep.zeta,
                                omega=4.0, delta=1e-8, w_min=src.w_min, rng=rng.child(5))
            return res.source

        a, b = run(), run()
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.constituents, b.constituents)

    def test_oracle_k1_direction_learns_the_mean_projection(self):
        # single-constituent source: the 1-D learner recovers v . p exactly
        from mixlearn.learner import LearnerConstants, learn_direction

        p = np.full(8, 1.0 / 8)
        src = MixtureSource(np.ones(1), p[None, :])
        consts = LearnerConstants(n=8, k=1, zeta=0.5, omega=2.0, delta=1e-8, w_min=1.0)
        v = np.zeros(8)
        v[0] = 1.0
        res = learn_direction(v, consts, OracleInputs(src), None, RngStream(4))
        assert res.gammas[0] == pytest.approx(float(v @ p), abs=1e-8)

    def test_matching_failure_raises_after_retries(self, monkeypatch):
        from mixlearn import learner
        from mixlearn.cli import ExperimentConfig, generate_source

        calls = []

        def never_matches(*args):
            calls.append(args[2])  # the test angle
            raise MatchingFailure("forced")

        monkeypatch.setattr(learner, "match_spikes", never_matches)
        src = generate_source(ExperimentConfig(n=30, k=3, seed=5, zeta=0.2))
        rep = width_report(src)
        with pytest.raises(MatchingFailure, match="after 8 retries: forced"):
            learn_mixture(OracleInputs(src), k=3, zeta=rep.zeta, omega=4.0, delta=1e-8,
                          w_min=src.w_min, rng=RngStream(12))
        assert len(calls) == learner.MATCH_RETRIES == 8
        assert len(set(calls)) == 8  # each retry draws a fresh angle

    def test_degenerate_parameters_rejected(self):
        from mixlearn.model import InputError

        with pytest.raises(InputError):
            LearnerConstants(n=10, k=2, zeta=0.0, omega=4.0, delta=1e-8, w_min=0.5)
        with pytest.raises(InputError):
            LearnerConstants(n=10, k=2, zeta=0.5, omega=0.5, delta=1e-8, w_min=0.5)
        with pytest.raises(InputError):
            LearnerConstants(n=10, k=2, zeta=0.5, omega=4.0, delta=0.0, w_min=0.5)

    def test_manifest_records_constants(self):
        src = two_block_source(n=10, c=0.8)
        rep = width_report(src)
        res = learn_mixture(OracleInputs(src), k=2, zeta=rep.zeta, omega=4.0, delta=1e-8,
                            w_min=src.w_min, rng=RngStream(1))
        consts = res.manifest["constants"]
        assert consts["T"] == 3 * 4.0 * 2**4
        assert consts["H"] == pytest.approx(4.0 / (src.w_min**2 * rep.zeta * math.sqrt(10)))
        assert "match_tol" in consts and res.manifest["kprime"] == 1


class TestWeightsOnlyOnBasisDirections:
    """Matching reads only locations, so only a matched run's basis directions fit weights."""

    @staticmethod
    def _k3_source():
        from mixlearn.cli import ExperimentConfig, generate_source

        src = generate_source(ExperimentConfig(n=30, k=3, seed=5, zeta=0.2))
        return src, width_report(src).zeta

    @staticmethod
    def _count_fits(monkeypatch):
        calls = []
        solve_weights = kspike.solve_weights

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_weights(*args, **kwargs)

        monkeypatch.setattr(kspike, "solve_weights", counted)
        return calls

    @pytest.mark.parametrize("seed, attempts", [(0, 1), (12, 2)])
    def test_matched_run_fits_kprime_directions(self, monkeypatch, seed, attempts):
        calls = self._count_fits(monkeypatch)
        src, zeta = self._k3_source()
        res = learn_mixture(OracleInputs(src), k=3, zeta=zeta, omega=4.0, delta=1e-8,
                            w_min=src.w_min, rng=RngStream(seed))
        assert (res.kprime, res.attempts) == (2, attempts)
        assert len(calls) == res.kprime

    def test_failed_matching_fits_nothing(self, monkeypatch):
        calls = self._count_fits(monkeypatch)

        def never_matches(*args):
            raise MatchingFailure("forced")

        monkeypatch.setattr(learner, "match_spikes", never_matches)
        src, zeta = self._k3_source()
        with pytest.raises(MatchingFailure, match="forced"):
            learn_mixture(OracleInputs(src), k=3, zeta=zeta, omega=4.0, delta=1e-8,
                          w_min=src.w_min, rng=RngStream(12))
        assert calls == []

    @pytest.mark.parametrize("k, seed, drawn", [(3, 12, False), (3, 1, True), (2, 3, True)])
    def test_basis_directions_equal_the_whole_1d_learner(self, monkeypatch, k, seed, drawn):
        # the split stages give, bit for bit, what one learn_kspike_from_nbm call gives
        seen, fitted = [], []
        learn_locations, fit_weights = learner.learn_spike_locations, learner.fit_spike_weights

        def recording_locations(nu, xi):
            out = learn_locations(nu, xi)
            seen.append((nu, xi, out[1]))
            return out

        def recording_fit(locations, g):
            out = fit_weights(locations, g)
            fitted.append(out)
            return out

        monkeypatch.setattr(learner, "learn_spike_locations", recording_locations)
        monkeypatch.setattr(learner, "fit_spike_weights", recording_fit)
        if k == 3:
            src, zeta = self._k3_source()
        else:
            src = two_block_source(n=12, c=0.8, w=(0.4, 0.6))
            zeta = width_report(src).zeta
        inputs = (DrawnInputs(src, 10**12, 10**12, 10**12, RngStream(seed).child(11))
                  if drawn else OracleInputs(src))
        res = learn_mixture(inputs, k=k, zeta=zeta, omega=4.0, delta=1e-8, w_min=src.w_min,
                            rng=RngStream(seed))
        assert res.kprime == k - 1 and len(fitted) == res.kprime
        assert len(seen) == res.kprime + (res.kprime - 1) * res.attempts
        for (nu, xi, locations), spikes in zip(seen, fitted):
            whole = learn_kspike_from_nbm(nu, xi)
            assert spikes.locations.tobytes() == whole.locations.tobytes() == locations.tobytes()
            assert spikes.weights.tobytes() == whole.weights.tobytes()


class TestCentredFrame:
    """Oracle runs whose projected spikes sit close together on a basis direction.

    The 1-D learner fits the annihilator to moments about the mean, scaled by
    the spread; fitted to raw moments about 0, these seeds failed matching or
    landed far from the source.
    """

    @staticmethod
    def _transports(n, k, gen_zeta, seeds):
        """Seed -> transport to the source, or None where matching failed."""
        from mixlearn.cli import ExperimentConfig, generate_source, run_learn

        src = generate_source(ExperimentConfig(n=n, k=k, seed=9, zeta=gen_zeta))
        zeta = width_report(src).zeta
        out = {}
        for seed in seeds:
            try:
                report, _ = run_learn(ExperimentConfig(n=n, k=k, seed=seed, zeta=zeta, mode="oracle"), src)
            except MatchingFailure:
                out[seed] = None
            else:
                out[seed] = report["row"]["tran_dist"]
        return out

    def test_k4_source(self):
        out = self._transports(80, 4, 0.15, range(100))
        assert sum(t is None for t in out.values()) <= 2
        assert max(t for t in out.values() if t is not None) < 1e-3

    def test_oracle_k3_close_pair_seeds(self):
        # the 8 seeds whose closest pair on a basis direction is 1.3e-4 to 4.8e-4
        # apart, and two that matched about 12 times better than the trivial answer
        seeds = (171, 240, 258, 407, 412, 597, 723, 889, 291, 315)
        out = self._transports(60, 3, 0.2, seeds)
        assert {s for s, t in out.items() if t is None} <= {412}
        assert max(t for t in out.values() if t is not None) < 1e-3
