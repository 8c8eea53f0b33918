import json
import math

import numpy as np
import pytest

from mixlearn.model import (
    InputError,
    KSpikeDistribution,
    MixtureSource,
    mixture_transport,
    spike_transport,
    transport_distance,
    width_report,
)

from conftest import random_spikes, two_block_source
from oracles import brute_force_lp, moments_of


def cdf_transport_1d(d1, d2):
    """Independent 1-D transport oracle: integral of |F1 - F2|."""
    points = np.unique(np.concatenate([d1.locations, d2.locations]))
    grid = np.sort(points)
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        f1 = d1.weights[d1.locations <= a + 1e-15].sum()
        f2 = d2.weights[d2.locations <= a + 1e-15].sum()
        total += abs(f1 - f2) * (b - a)
    return total


class TestTransportDistance:
    def test_identical_spikes_cost_zero(self):
        d = KSpikeDistribution(np.array([0.3, 0.7]), np.array([0.2, 0.9]))
        assert spike_transport(d, d).cost == pytest.approx(0.0, abs=1e-12)

    def test_single_edge(self):
        a = KSpikeDistribution(np.array([1.0]), np.array([0.2]))
        b = KSpikeDistribution(np.array([1.0]), np.array([0.7]))
        assert spike_transport(a, b).cost == pytest.approx(0.5, abs=1e-12)

    def test_two_spike_example(self):
        # spikes at (0, 1) with weights (.3, .7) vs (.5, .5): move 0.2 across distance 1
        a = KSpikeDistribution(np.array([0.3, 0.7]), np.array([0.0, 1.0]))
        b = KSpikeDistribution(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        plan = spike_transport(a, b)
        assert plan.cost == pytest.approx(0.2, abs=1e-9)
        oracle = brute_force_lp(
            np.abs(a.locations[:, None] - b.locations[None, :]).ravel(),
            a_eq=_transport_eq(2, 2)[0],
            b_eq=np.concatenate([a.weights, b.weights]),
        )
        assert plan.cost == pytest.approx(oracle.value, abs=1e-9)

    def test_flow_marginals(self, rng):
        for _ in range(20):
            a = random_spikes(rng, int(rng.integers(1, 4)))
            b = random_spikes(rng, int(rng.integers(1, 4)))
            plan = spike_transport(a, b)
            assert np.abs(plan.flow.sum(axis=1) - a.weights).max() < 1e-9
            assert np.abs(plan.flow.sum(axis=0) - b.weights).max() < 1e-9
            assert plan.cost == pytest.approx(cdf_transport_1d(a, b), abs=1e-8)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(25):
            a = random_spikes(rng, 3)
            b = random_spikes(rng, 2)
            c = random_spikes(rng, 3)
            ab = spike_transport(a, b).cost
            ba = spike_transport(b, a).cost
            assert ab == pytest.approx(ba, abs=1e-8)
            ac = spike_transport(a, c).cost
            cb = spike_transport(c, b).cost
            assert ab <= ac + cb + 1e-8

    def test_unnormalized_rejected(self):
        with pytest.raises(InputError):
            transport_distance([0.5, 0.4], [0.5, 0.5], np.zeros((2, 2)))

    def test_negative_cost_rejected(self):
        with pytest.raises(InputError):
            transport_distance([0.5, 0.5], [0.5, 0.5], -np.ones((2, 2)))


class TestMomentGapLowerBound:
    def test_moment_gap_dominates_transport_power(self, rng):
        # small version of the acceptance sweep
        for k in (1, 2, 3):
            denom = (2 * k - 1) ** (4 * k) * 2.0 ** (8 * k - 5)
            for _ in range(100):
                a = random_spikes(rng, k)
                b = random_spikes(rng, k)
                tran = spike_transport(a, b).cost
                gap = np.linalg.norm(moments_of(a).values - moments_of(b).values)
                assert gap >= tran ** (4 * k - 2) / denom - 1e-9


class TestWidthReport:
    def test_single_constituent(self):
        src = MixtureSource(np.array([1.0]), np.array([[0.25, 0.75]]))
        rep = width_report(src)
        assert rep.kprime == 0
        assert rep.zeta2 == 0.0
        assert np.abs(rep.a_matrix).max() < 1e-15

    def test_two_point_example(self):
        src = MixtureSource(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        rep = width_report(src)
        assert np.allclose(rep.r, [0.5, 0.5])
        assert rep.zeta1 == pytest.approx(2.0, abs=1e-12)
        assert rep.zeta2 == pytest.approx(1.0, abs=1e-12)
        assert rep.zeta == pytest.approx(1.0, abs=1e-12)
        assert rep.kprime == 1
        assert rep.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.isotropic  # 1/4 <= 0.5 <= 1

    def test_equal_constituents_degenerate(self):
        p = np.array([0.2, 0.3, 0.5])
        src = MixtureSource(np.array([0.6, 0.4]), np.vstack([p, p]))
        rep = width_report(src)
        assert rep.zeta1 == 0.0
        assert rep.kprime == 0

    def test_covariance_psd(self, rng):
        for _ in range(10):
            k, n = int(rng.integers(2, 5)), int(rng.integers(3, 8))
            rows = rng.dirichlet(np.ones(n), size=k)
            src = MixtureSource(rng.dirichlet(np.ones(k)), rows)
            rep = width_report(src)
            assert rep.eigenvalues.min() >= -1e-10

    def test_zeta_is_min(self):
        rep = width_report(two_block_source())
        assert rep.zeta == pytest.approx(min(rep.zeta1, rep.zeta2), abs=0.0)


class TestSerialization:
    def test_mixture_roundtrip_bitstable(self, rng):
        rows = rng.dirichlet(np.ones(7), size=3)
        src = MixtureSource(rng.dirichlet(np.ones(3)), rows)
        again = MixtureSource.from_json(src.to_json())
        assert np.array_equal(again.weights, src.weights)
        assert np.array_equal(again.constituents, src.constituents)
        doc = json.loads(src.to_json())
        assert doc["n"] == 7 and doc["k"] == 3

    def test_invalid_documents_rejected(self):
        with pytest.raises(InputError):
            MixtureSource(np.array([0.5, 0.6]), np.full((2, 2), 0.5))
        with pytest.raises(InputError):
            KSpikeDistribution(np.array([1.0]), np.array([1.5]))
        with pytest.raises(InputError):
            MixtureSource.from_json(json.dumps({"n": 3, "k": 1, "weights": [1.0], "constituents": [[0.5, 0.5]]}))

    @pytest.mark.parametrize("locations", [[math.nan, 0.3], [0.2, math.inf], [-math.inf, 0.3]])
    def test_spike_rejects_nonfinite_locations(self, locations):
        with pytest.raises(InputError):
            KSpikeDistribution(np.array([0.5, 0.5]), np.array(locations))

def _transport_eq(k, l):
    a_eq = np.zeros((k + l, k * l))
    for i in range(k):
        a_eq[i, i * l:(i + 1) * l] = 1.0
    for j in range(l):
        a_eq[k + j, j::l] = 1.0
    return a_eq, None
