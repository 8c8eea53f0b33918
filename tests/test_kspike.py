import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mixlearn.kspike as kspike
from mixlearn.kspike import (
    MomentVector,
    binom_profile_matrix,
    empirical_nbm,
    learn_kspike_from_nbm,
    learn_spike_locations,
    nbm_to_moments,
    pascal_pair,
    polynomial_roots,
    solve_lambda,
    solve_weights,
    vandermonde,
    xi_for_sample_count,
)
from mixlearn.lp import LpError, LpUnbounded
from mixlearn.model import InputError, KSpikeDistribution, LearningFailure, spike_transport
from mixlearn.sampling import RngStream

from conftest import random_spikes
from oracles import learn_kspike, moments_of, nbm_of


def spikes(w, a):
    return KSpikeDistribution(np.array(w), np.array(a))


@st.composite
def separated_roots(draw, max_k=6, gap=0.05, min_k=1):
    """Sorted points in [0, 1], ``min_k`` to ``max_k`` of them, at least ``gap`` apart."""
    k = draw(st.integers(min_k, max_k))
    parts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1))) + 1e-3
    return np.cumsum(parts[:k]) / parts.sum() * (1.0 - gap * (k - 1)) + gap * np.arange(k)


@st.composite
def noisy_nbms(draw, max_k=6, noise=1e-6):
    """(NBM values, k): the exact NBMs of a k-spike distribution plus noise of at most ``noise``."""
    k = draw(st.integers(1, max_k))
    locations = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    jitter = np.array(draw(st.lists(st.floats(-noise, noise), min_size=2 * k, max_size=2 * k)))
    nu = (weights / weights.sum()) @ binom_profile_matrix(locations, 2 * k) + jitter
    return nu.tolist(), k


@st.composite
def separated_spikes(draw, min_k=2, max_k=4, gap=0.01, min_weight=0.05):
    """A k-spike distribution with locations at least ``gap`` apart and weights >= ``min_weight``."""
    locations = draw(separated_roots(max_k=max_k, gap=gap, min_k=min_k))
    k = locations.size
    parts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))) + 1e-3
    weights = min_weight + (1.0 - k * min_weight) * parts / parts.sum()
    return KSpikeDistribution(weights, locations)


class TestMoments:
    def test_single_spike(self):
        assert np.allclose(moments_of(spikes([1.0], [0.5])).values, [1.0, 0.5])

    def test_two_endpoints(self):
        d = spikes([0.5, 0.5], [0.0, 1.0])
        assert np.allclose(moments_of(d).values, [1.0, 0.5, 0.5, 0.5])

    def test_spike_at_one_gives_all_ones(self):
        assert np.allclose(moments_of(spikes([1.0], [1.0])).values, [1.0, 1.0])

    def test_nbm_single_spike(self):
        assert np.allclose(nbm_of(spikes([1.0], [0.5])).values, [0.5, 0.5])

    def test_nbm_two_endpoints(self):
        d = spikes([0.5, 0.5], [0.0, 1.0])
        assert np.allclose(nbm_of(d).values, [0.5, 0.0, 0.0, 0.5])

    def test_nbm_spike_at_zero(self):
        assert np.allclose(nbm_of(spikes([1.0], [0.0])).values, [1.0, 0.0])


class TestPascal:
    def test_size_two(self):
        assert pascal_pair(2).pas.tolist() == [[1, 0], [1, 1]]

    def test_size_four(self):
        want = [[1, 0, 0, 0], [3, 1, 0, 0], [3, 2, 1, 0], [1, 1, 1, 1]]
        assert pascal_pair(4).pas.tolist() == want

    def test_inverse_identity_exact_integers(self):
        for b in range(1, 26):
            pair = pascal_pair(b)
            pas = [[int(v) for v in row] for row in pair.pas]
            inv = [[int(v) for v in row] for row in pair.inv]
            for i in range(b):
                for j in range(b):
                    acc = sum(pas[i][l] * inv[l][j] for l in range(b))
                    assert acc == (1 if i == j else 0)

    def test_size_limit(self):
        with pytest.raises(InputError):
            pascal_pair(61)

    def test_vandermonde_factorization(self, rng):
        # V_b = A_b @ Pas for random locations
        for k in (1, 2, 3, 5):
            b = 2 * k
            alpha = rng.random(k)
            v = vandermonde(alpha, b)
            a = binom_profile_matrix(alpha, b)
            assert np.abs(v - a @ pascal_pair(b).pas).max() < 1e-10

    def test_operator_norm_bound(self):
        # ||Pas||_F = sqrt(sum_m C(2m, m)) <= 4^k / sqrt(3), exact integers
        for k in range(1, 11):
            pas = pascal_pair(2 * k).pas
            frob_sq = sum(int(v) ** 2 for row in pas for v in row)
            assert frob_sq == sum(math.comb(2 * m, m) for m in range(2 * k))
            assert 3 * frob_sq <= 16**k


class TestEmpiricalNbm:
    def test_k1_histogram(self):
        bits = np.array([[1]] * 7 + [[0]] * 3)
        assert np.allclose(empirical_nbm(bits, 1).values, [0.3, 0.7])

    def test_k2_histogram(self):
        rows = [[0, 0, 0]] * 2 + [[1, 0, 0]] * 3 + [[1, 1, 0]] * 3
        nu = empirical_nbm(np.array(rows), 2)
        assert np.allclose(nu.values, [0.25, 0.125, 0.125, 0.0])

    def test_all_ones(self):
        nu = empirical_nbm(np.ones((5, 3), dtype=int), 2)
        assert np.allclose(nu.values, [0.0, 0.0, 0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            empirical_nbm(np.zeros((0, 3), dtype=int), 2)


class TestNbmToMoments:
    def test_k1(self):
        nu = MomentVector(kind="nbm", values=np.array([0.5, 0.5]), k=1)
        assert np.allclose(nbm_to_moments(nu).values, [1.0, 0.5])

    def test_k2(self):
        nu = MomentVector(kind="nbm", values=np.array([0.5, 0.0, 0.0, 0.5]), k=2)
        assert np.allclose(nbm_to_moments(nu).values, [1.0, 0.5, 0.5, 0.5])

    def test_spike_at_zero(self):
        nu = MomentVector(kind="nbm", values=np.array([1.0, 0.0]), k=1)
        assert np.allclose(nbm_to_moments(nu).values, [1.0, 0.0])

    def test_consistency_with_direct_moments(self, rng):
        for _ in range(30):
            d = random_spikes(rng, int(rng.integers(1, 5)))
            g = nbm_to_moments(nbm_of(d)).values
            assert np.abs(g - moments_of(d).values).max() < 1e-10


class TestSolveLambda:
    def test_k1_exact(self):
        g = moments_of(spikes([1.0], [0.3])).values
        lam = solve_lambda(g, xi=1e-12, k=1)
        assert lam[1] == 1.0
        assert lam[0] == pytest.approx(-0.3, abs=1e-9)

    def test_k2_quarter_threequarter(self):
        d = spikes([0.5, 0.5], [0.25, 0.75])
        lam = solve_lambda(moments_of(d).values, xi=1e-12, k=2)
        assert np.allclose(lam, [0.1875, -1.0, 1.0], atol=1e-7)

    def test_k2_endpoints(self):
        d = spikes([0.5, 0.5], [0.0, 1.0])
        lam = solve_lambda(moments_of(d).values, xi=1e-12, k=2)
        assert np.allclose(lam, [0.0, -1.0, 1.0], atol=1e-7)

    def test_infeasible_lp_is_typed_error(self):
        # no monic x + lam_0 has |g_0 lam_0 + g_1| <= 2 xi when g_0 = 0, g_1 = 1
        with pytest.raises(LearningFailure, match="annihilator LP infeasible"):
            solve_lambda(np.array([0.0, 1.0]), 1e-6, 1)

    @pytest.mark.parametrize("error", [LpUnbounded("objective unbounded below"),
                                       LpError("simplex iteration limit exceeded")])
    def test_every_lp_error_is_a_learning_failure(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(kspike, "solve_lp", failing)
        with pytest.raises(LearningFailure, match=str(error)):
            solve_lambda(moments_of(spikes([0.4, 0.6], [0.25, 0.75])).values, 1e-12, 2)

    @pytest.mark.parametrize("xi", [0.0, -1e-9, math.nan, math.inf])
    def test_xi_must_be_positive_and_finite(self, xi):
        with pytest.raises(InputError, match="xi must be positive and finite"):
            solve_lambda(moments_of(spikes([0.4, 0.6], [0.25, 0.75])).values, xi, 2)

    def test_matches_enumeration_oracle(self, rng):
        from oracles import brute_force_lp

        for _ in range(100):
            k = int(rng.integers(1, 4))
            d = random_spikes(rng, k)
            g = moments_of(d).values + rng.standard_normal(2 * k) * 1e-4
            xi = 1e-3
            lam = solve_lambda(g, xi, k)
            # rebuild the identical LP and enumerate its vertices
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
            want = brute_force_lp(cost, a_ub=a_ub, b_ub=b_ub)
            got_l1 = np.abs(lam[:k]).sum()
            assert got_l1 == pytest.approx(want.value, abs=1e-8)


class TestPolynomialRoots:
    def test_quadratic(self):
        roots = polynomial_roots(np.array([0.1875, -1.0, 1.0]))
        assert np.allclose(roots, [0.25, 0.75], atol=1e-12)

    def test_complex_pair_clamps_to_real_part(self):
        roots = polynomial_roots(np.array([1.0, 0.0, 1.0]))
        assert np.allclose(roots, [0.0, 0.0])

    def test_linear(self):
        assert polynomial_roots(np.array([-0.4, 1.0]))[0] == pytest.approx(0.4)

    def test_out_of_range_roots_unclamped(self):
        # (x - 2)(x + 1) = x^2 - x - 2; the clamp to [0, 1] is learn_spike_locations'
        roots = polynomial_roots(np.array([-2.0, -1.0, 1.0]))
        assert np.allclose(roots, [-1.0, 2.0])

    def test_requires_monic(self):
        with pytest.raises(InputError):
            polynomial_roots(np.array([1.0, 2.0]))

    @settings(max_examples=300, deadline=None)
    @given(roots=separated_roots())
    def test_recovers_separated_roots(self, roots):
        lam = np.poly(roots)[::-1]  # ascending coefficients, monic
        assert np.abs(polynomial_roots(lam) - roots).max() <= 1e-8


def active_set_weights_oracle(locations, g):
    """Enumerate supports; solve each equality-constrained LSQ; keep the best."""
    k = len(locations)
    v = vandermonde(np.asarray(locations), 2 * k)
    best, best_obj = None, None
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            vs = v[list(support)]
            m = len(support)
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = 2.0 * (vs @ vs.T)
            kkt[:m, m] = 1.0
            kkt[m, :m] = 1.0
            rhs = np.concatenate([2.0 * (vs @ g), [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            y = sol[:m]
            if y.min() < -1e-10:
                continue
            full = np.zeros(k)
            full[list(support)] = np.clip(y, 0.0, None)
            full /= full.sum()
            obj = float(np.sum((full @ v - g) ** 2))
            if best_obj is None or obj < best_obj:
                best, best_obj = full, obj
    return best, best_obj


class TestSolveWeights:
    def test_k1_trivial(self):
        assert np.allclose(solve_weights(np.array([0.4]), np.array([1.0, 0.4])), [1.0])

    def test_exact_recovery(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 5))
            d = random_spikes(rng, k)
            if d.separation() < 0.05:
                continue
            g = moments_of(d).values
            y = solve_weights(d.locations, g)
            assert np.abs(y - d.weights).max() < 1e-7

    def test_duplicate_locations_objective_optimal(self):
        g = moments_of(spikes([1.0], [0.5]), count=4).values
        y = solve_weights(np.array([0.5, 0.5]), g)
        v = vandermonde(np.array([0.5, 0.5]), 4)
        assert np.sum((y @ v - g) ** 2) < 1e-12  # any split between duplicates

    def test_matches_active_set_enumeration(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            locs = np.sort(rng.random(k))
            g = moments_of(random_spikes(rng, k)).values + 0.01 * rng.standard_normal(2 * k)
            y = solve_weights(locs, g)
            v = vandermonde(locs, 2 * k)
            got = float(np.sum((y @ v - g) ** 2))
            _, want = active_set_weights_oracle(locs, g)
            assert got == pytest.approx(want, abs=1e-9)


class TestLearnKSpike:
    def test_exact_statistics_k2(self):
        d = spikes([0.4, 0.6], [0.2, 0.8])
        out = learn_kspike_from_nbm(nbm_of(d), xi=1e-12)
        assert spike_transport(d, out).cost <= 1e-6

    def test_exact_round_trip_up_to_k4(self):
        cases = [
            ([1.0], [0.5]),
            ([0.4, 0.6], [0.25, 0.75]),
            ([0.3, 0.3, 0.4], [0.1, 0.5, 0.9]),
            ([0.3, 0.2, 0.3, 0.2], [0.05, 0.35, 0.65, 0.95]),
        ]
        for w, a in cases:
            d = spikes(w, a)
            out = learn_kspike_from_nbm(nbm_of(d), xi=1e-12)
            assert spike_transport(d, out).cost <= 1e-6

    def test_k1_sampled_returns_clipped_mean(self):
        bits = (np.arange(100) % 10 < 3).astype(np.int8)[:, None]  # mean 0.3
        out = learn_kspike(bits, 1, xi=1e-12)
        assert out.locations[0] == pytest.approx(0.3, abs=1e-9)

    def test_sampled_k2(self):
        d = spikes([0.5, 0.5], [0.2, 0.7])
        gen = RngStream(17).generator()
        n = 200000
        which = gen.random(n) < d.weights[1]
        biases = np.where(which, d.locations[1], d.locations[0])
        bits = (gen.random((n, 3)) < biases[:, None]).astype(np.int8)
        out = learn_kspike(bits, 2, xi=xi_for_sample_count(2, n))
        assert spike_transport(d, out).cost < 0.05

    @settings(max_examples=200, deadline=None)
    @given(case=noisy_nbms(), log_xi=st.floats(-12.0, 0.0))
    # k = 5: the dense simplex reports this annihilator LP unbounded
    @example(case=([0.1258218119917323, 0.020860275896255755, 0.005757729077370886,
                    0.002301951783268598, 0.0010878879338839988, 0.000570494017527183,
                    0.00035698934093215414, 0.00044801623823066, 0.0019278279221006465,
                    0.013198639382139042], 5),
             log_xi=math.log10(7.899973216374793e-08))
    # k = 2: a subnormal variance, so the moments scaled by the spread overflow
    @example(case=([1.0, 0.0, 0.0, 5e-324], 2), log_xi=0.0)
    def test_locations_or_learning_failure(self, case, log_xi):
        values, k = case
        try:
            _, locations = learn_spike_locations(MomentVector(kind="nbm", values=values, k=k),
                                                 10.0**log_xi)
        except LearningFailure:
            return
        assert locations.shape == (k,)
        assert np.all(np.diff(locations) >= 0.0)
        assert locations.min() >= 0.0 and locations.max() <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(d=separated_spikes())
    def test_recovers_close_spikes_on_exact_moments(self, d):
        # clustered spikes leave the Hankel of raw moments about 0 nearly
        # singular; in the centred frame each location comes back within 1 % of a gap
        xi = 1e-12
        mean = d.weights @ d.locations
        spread = 2.0 * math.sqrt(d.weights @ (d.locations - mean) ** 2)
        # the LP's budget moves the roots in proportion to xi / tau^(2k), tau the
        # separation in the frame the LP sees: 4 % of a gap at tau^(2k) = 1.4 xi,
        # for a light cluster far from the mass.  Ask tau^(2k) >= 100 xi.
        assume((d.separation() / spread) ** (2 * d.k) >= 100.0 * xi)
        _, locations = learn_spike_locations(nbm_of(d), xi)
        assert np.abs(locations - d.locations).max() <= 0.01 * d.separation()

    @pytest.mark.parametrize("outside, want", [((-0.1, 0.5), (0.0, 0.5)), ((0.3, 1.2), (0.3, 1.0))])
    def test_roots_outside_the_interval_come_back_clamped(self, outside, want):
        # the moments of spikes outside [0, 1]: the annihilator's roots land there
        # too, and only the learned locations are clamped
        nu = MomentVector(kind="nbm", values=np.array([0.5, 0.5]) @ binom_profile_matrix(outside, 4), k=2)
        _, locations = learn_spike_locations(nu, 1e-12)
        assert np.allclose(locations, want, atol=1e-9)

    def test_negative_variance_is_a_learning_failure(self):
        # raw moments 1, 0.5, 0.2: g_2 - g_1^2 < 0, so there is no spread to scale by
        nu = MomentVector(kind="nbm", values=np.array([1.0, 0.5, 0.2, 0.1]) @ pascal_pair(4).inv, k=2)
        with pytest.raises(LearningFailure, match="variance"):
            learn_spike_locations(nu, 1e-12)

    def test_corrupt_statistics_rejected(self):
        nu = MomentVector(kind="nbm", values=np.array([0.2, 0.0, 0.0, 0.2]), k=2)
        with pytest.raises(InputError):
            learn_kspike_from_nbm(nu, xi=1e-6)


class TestInterpolationBound:
    def test_coefficient_norm_bound(self, rng):
        # degree-kappa polynomial that is 1 on the first ell points and 0 on
        # the rest: sum of squared coefficients <= kappa^2 2^(4 kappa - 1) s^(-2 kappa)
        for _ in range(120):
            kappa = int(rng.integers(1, 7))
            pts = np.sort(rng.random(kappa + 1))
            while np.diff(pts).min(initial=1.0) < 0.02:
                pts = np.sort(rng.random(kappa + 1))
            ell = int(rng.integers(1, kappa + 1))
            s = pts[ell] - pts[ell - 1]
            coeffs = np.zeros(kappa + 1)
            for i in range(ell):  # sum of Lagrange basis polynomials
                others = np.delete(pts, i)
                poly = np.array([1.0])
                for root in others:
                    poly = np.convolve(poly, [-root, 1.0])
                coeffs += poly / np.prod(pts[i] - others)
            bound = kappa**2 * 2.0 ** (4 * kappa - 1) * s ** (-2 * kappa)
            assert np.sum(coeffs**2) <= bound * (1 + 1e-6)
