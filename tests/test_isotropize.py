import math

import numpy as np
import pytest

from mixlearn.isotropize import (
    ItemMap,
    build_refinement,
    default_sigma,
    drop_eliminated,
    estimate_r,
    pull_back,
    refined_subspace,
)
from mixlearn.model import InputError, MixtureSource, mixture_transport
from mixlearn.sampling import RngStream, SnapshotBatch, draw_snapshots
from mixlearn.spectral import estimate_A

from conftest import identity_map, two_block_source
from oracles import projector_distance, refine_source


def batch1(items):
    return SnapshotBatch(aperture=1, rows=np.array(items, dtype=np.int64).reshape(-1, 1))


class TestEstimateR:
    def test_point_mass(self):
        r = estimate_r(batch1([0, 0, 0]), n=3)
        assert np.allclose(r, [1.0, 0.0, 0.0])

    def test_counts(self):
        r = estimate_r(batch1([0] * 3 + [1] * 7), n=2)
        assert np.allclose(r, [0.3, 0.7])
        assert r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            estimate_r(SnapshotBatch(aperture=1, rows=np.zeros((0, 1), dtype=np.int64)), n=2)

    def test_frequency_bounds_hold_whp(self):
        # uniform source, n = 100: the multiplicative/additive frequency
        # bounds hold for every item across seeds (failure odds ~ n^-mu each)
        n, mu, sigma = 100, 2.0, 0.2
        count = math.ceil(8 * (mu + 2) / sigma**3 * n * math.log(n))
        src = MixtureSource(np.ones(1), np.full((1, n), 1.0 / n))
        r = src.mean()
        for seed in range(100):
            batch = draw_snapshots(src, 1, count, RngStream(seed, 123))
            rt = estimate_r(batch, n)
            hi = r >= sigma / (2 * n)
            assert np.all(rt[hi] >= (1 - sigma) * r[hi])
            assert np.all(rt[hi] <= (1 + sigma) * r[hi])
            assert np.all(rt[~hi] <= (1 + sigma) * sigma / (2 * n))


class TestBuildRefinement:
    def test_floor_formula(self):
        m = build_refinement(np.array([0.5, 0.5]), sigma=0.5)
        assert np.array_equal(m.splits, [2, 2])
        assert m.nprime == 4

    def test_zero_mass_item_eliminated(self):
        m = build_refinement(np.array([0.0, 1.0]), sigma=0.25)
        assert bool(m.eliminated[0]) and not bool(m.eliminated[1])

    def test_small_sigma_splits_everything(self):
        rt = np.array([0.2, 0.3, 0.5])
        m = build_refinement(rt, sigma=0.05)
        assert not m.eliminated.any()
        assert np.all(m.splits >= 1)
        assert m.nprime >= rt.size
        assert m.nprime <= rt.size / 0.05 + 1e-9

    def test_all_eliminated_is_error(self):
        with pytest.raises(InputError):
            build_refinement(np.array([0.5, 0.5]), sigma=0.9)

    def test_sigma_range_validated(self):
        with pytest.raises(InputError):
            build_refinement(np.array([1.0]), sigma=1.5)


class TestDropEliminated:
    def test_eliminated_item_drops_row(self):
        m = build_refinement(np.array([0.0, 0.5, 0.5]), sigma=0.25)
        batch = SnapshotBatch(aperture=2, rows=np.array([[0, 1], [2, 1], [1, 0], [2, 2]]))
        kept = drop_eliminated(m, batch)
        assert np.array_equal(kept.rows, [[2, 1], [2, 2]])  # original labels

    def test_survival_rate(self):
        # eliminated mass 4*sigma: surviving fraction close to (1 - elim)^m
        sigma = 0.05
        n = 20
        rt = np.full(n, 1.0 / n)
        rt[:2] = sigma / n  # below the 2*sigma/n cut
        rt /= rt.sum()
        m = build_refinement(rt, sigma=sigma)
        src = MixtureSource(np.ones(1), rt[None, :])
        batch = draw_snapshots(src, 3, 20000, RngStream(1))
        kept = drop_eliminated(m, batch)
        survive = len(kept) / len(batch)
        elim_mass = rt[m.eliminated].sum()
        expected = (1.0 - elim_mass) ** 3
        assert survive == pytest.approx(expected, abs=0.02)
        assert survive >= (1.0 - 4 * sigma) ** 3 - 0.02


def _uneven_source():
    """Three constituents on 7 items; item 0 is rare, the rest split unevenly."""
    p = np.array([
        [0.002, 0.20, 0.30, 0.10, 0.20, 0.05, 0.148],
        [0.002, 0.05, 0.35, 0.20, 0.25, 0.02, 0.128],
        [0.002, 0.05, 0.25, 0.15, 0.30, 0.08, 0.168],
    ])
    return MixtureSource(np.array([0.3, 0.3, 0.4]), p)


class TestRefinedSubspace:
    def test_matches_explicit_split_on_exact_statistics(self):
        src = _uneven_source()
        m = build_refinement(src.mean(), sigma=0.1)
        assert np.array_equal(m.splits, [0, 6, 20, 10, 17, 3, 10])
        # the n-item statistics of the rows that survive elimination
        kept = src.constituents * ~m.eliminated
        survivors = MixtureSource(src.weights, kept / kept.sum(axis=1, keepdims=True))
        refined = refine_source(src, m)
        zeta = 0.15
        explicit = estimate_A(refined.second_moment_matrix(), refined.mean(), zeta)
        lifted = refined_subspace(m, survivors.second_moment_matrix(), survivors.mean(), zeta)
        assert lifted.kprime == explicit.kprime == 2
        assert lifted.threshold == explicit.threshold
        # the refined covariance's other nprime - 6 eigenvalues are 0
        padded = np.sort(np.concatenate([lifted.eigenvalues, np.zeros(m.nprime - 6)]))[::-1]
        assert np.abs(padded - explicit.eigenvalues).max() <= 1e-12
        assert projector_distance(lifted.basis, explicit.basis) <= 1e-10
        assert np.abs(lifted.rtilde - refined.mean()).max() <= 1e-15

    def test_identity_map_is_estimate_A(self):
        src = _uneven_source()
        mtilde, rtilde = src.second_moment_matrix(), src.mean()
        want = estimate_A(mtilde, rtilde, 0.15)
        got = refined_subspace(identity_map(src.n), mtilde, rtilde, 0.15)
        assert got.threshold == want.threshold
        for name in ("rtilde", "eigenvalues", "basis"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestPullBack:
    def test_identity_map(self):
        m = ItemMap(sigma=0.1, splits=np.array([1, 1]), offsets=np.array([0, 1]))
        src = MixtureSource(np.array([1.0]), np.array([[0.3, 0.7]]))
        assert np.allclose(pull_back(m, src).constituents, src.constituents)

    def test_split_round_trip(self):
        m = ItemMap(sigma=0.1, splits=np.array([2]), offsets=np.array([0]))
        learned = MixtureSource(np.array([1.0]), np.array([[0.5, 0.5]]))
        out = pull_back(m, learned)
        assert np.allclose(out.constituents, [[1.0]])

    def test_refine_then_pull_back_is_identity_on_kept(self):
        src = two_block_source(n=10, c=0.5)
        rt = src.mean()
        m = build_refinement(rt, sigma=0.05)
        refined = refine_source(src, m)
        back = pull_back(m, refined)
        assert np.abs(back.constituents - src.constituents).max() < 1e-12

    def test_transport_degradation_bounded_by_elimination(self):
        # a constituent with known rare-item mass: degradation = that mass <= 4 sigma
        sigma = 0.08
        n = 12
        rare_mass = 0.005  # per item, below the 2*sigma/n cut
        p = np.full(n, (1.0 - 2 * rare_mass) / (n - 2))
        p[:2] = rare_mass
        rt = p.copy()  # exact mean of the 1-mixture
        src = MixtureSource(np.ones(1), p[None, :])
        m = build_refinement(rt, sigma=sigma)
        assert m.eliminated[:2].all() and not m.eliminated[2:].any()
        back = pull_back(m, refine_source(src, m))
        tran = mixture_transport(src, back).cost
        assert tran == pytest.approx(2 * rare_mass, abs=1e-9)
        assert tran <= 4 * sigma


class TestRefinedIsotropy:
    def test_refined_source_is_isotropic(self):
        # exact rtilde = r satisfies the estimation bounds trivially
        src = MixtureSource(
            np.array([0.5, 0.5]),
            np.vstack([
                np.array([0.4, 0.3, 0.1, 0.1, 0.05, 0.05]),
                np.array([0.2, 0.1, 0.3, 0.2, 0.1, 0.1]),
            ]),
        )
        r = src.mean()
        sigma = 0.02
        m = build_refinement(r, sigma=sigma)
        refined = refine_source(src, m)
        r_hat = refined.mean()
        nprime = m.nprime
        assert np.all(r_hat >= 1.0 / (2 * nprime))
        assert np.all(r_hat <= 2.0 / nprime)

    def test_default_sigma_formula(self):
        assert default_sigma(0.1, 0.5, 2, 0.4) == pytest.approx(0.1 * 0.25 / (32 * 2 * 0.4))
