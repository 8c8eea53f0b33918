import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixlearn.lower_bounds import (
    ENUMERATION_LIMIT,
    MAX_APERTURE,
    aperture_indistinguishability,
    hard_pair,
    sample_lower_bound,
    tv_snapshot_distance,
)
from mixlearn.model import InputError, KSpikeDistribution, spike_transport

from oracles import hard_pair_exact, hard_pair_lp_value_stepped, moments_of, pascal_inverse_identity_exact

REPO = Path(__file__).resolve().parents[1]


class TestHardPair:
    def test_k1_b1_by_hand(self):
        pair = hard_pair(1, 1, 2.0)
        assert pair.first.locations[0] == 0.0
        assert pair.second.locations[0] == 0.5
        assert pair.first.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert pair.second.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert pair.lp_value == pytest.approx(1.0, abs=1e-6)
        assert pair.lp_value <= 6.0

    def test_k2_b3_moments_match(self):
        pair = hard_pair(2, 3, 2.0)
        assert pair.lp_value <= 4 * 27 / 8
        g1 = moments_of(pair.first).values
        g2 = moments_of(pair.second).values
        assert np.abs(g1 - g2)[:3].max() < 1e-8  # moments 0 .. 2k-2

    def test_weights_normalized(self):
        for k, b, rho in [(1, 2, 2.0), (2, 4, 3.0), (3, 5, 2.0)]:
            pair = hard_pair(k, b, rho)
            assert pair.first.weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert pair.second.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_separation_and_transport_floor(self):
        pair = hard_pair(2, 3, 2.0)
        locs = np.sort(np.concatenate([pair.first.locations, pair.second.locations]))
        assert np.diff(locs).min() == pytest.approx(pair.transport_floor, abs=1e-12)
        tran = spike_transport(pair.first, pair.second).cost
        assert tran >= pair.transport_floor - 1e-10

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            hard_pair(2, 2, 2.0)  # b < 2k-1
        with pytest.raises(InputError):
            hard_pair(2, 3, 1.5)  # rho < 2

    @pytest.mark.parametrize("k, b, rho", [
        (2, 3, math.inf), (2, 3, math.nan), (2, 3, -math.inf), (0, 3, 2.0), (1, MAX_APERTURE + 1, 2.0),
    ])
    def test_rejects_nonfinite_rho_and_apertures_past_the_limit(self, k, b, rho):
        with pytest.raises(InputError):
            hard_pair(k, b, rho)

    def test_largest_aperture_keeps_the_bound_finite(self):
        pair = hard_pair(1, MAX_APERTURE, 2.0)
        assert math.isfinite(pair.lp_bound)
        assert pair.lp_value <= pair.lp_bound

    @pytest.mark.parametrize("rho", [2.0, 3.0, 5.5])
    def test_matches_exact_square_solve(self, rho):
        for k in range(1, 13):
            b = 3 * k
            y, z, lp_value = hard_pair_exact(k, b, rho)
            pair = hard_pair(k, b, rho)
            assert np.abs(pair.first.weights - np.array([float(v) for v in y])).max() <= 1e-15
            assert np.abs(pair.second.weights - np.array([float(v) for v in z])).max() <= 1e-15
            assert pair.lp_value == pytest.approx(float(lp_value), rel=1e-12, abs=0.0)
            assert pair.lp_value <= pair.lp_bound

    @pytest.mark.parametrize("rho", [2.0, 3.7, 10.0])
    def test_closed_form_lp_value_equals_the_stepped_sum(self, rho):
        # the same float, not just close: both round the same exact rational once
        for k in range(1, 41):
            for b in (2 * k - 1, 2 * k, 3 * k):
                assert hard_pair(k, b, rho).lp_value == hard_pair_lp_value_stepped(k, rho, b)

    @pytest.mark.parametrize("k", [1, 40, 323])
    def test_closed_form_lp_value_at_the_largest_aperture(self, k):
        assert hard_pair(k, MAX_APERTURE, 2.0).lp_value == hard_pair_lp_value_stepped(k, 2.0, MAX_APERTURE)

    def test_lp_bound_full_grid(self):
        for k in (1, 2, 3):
            for b in (2 * k - 1, 2 * k, 3 * k):
                for rho in (2.0, 3.0):
                    pair = hard_pair(k, b, rho)
                    assert pair.lp_value <= 4.0 * 3.0**b / rho ** (2 * k - 1) * (1 + 1e-9)


class TestTvSnapshotDistance:
    def test_identical_distributions(self):
        d = KSpikeDistribution(np.array([0.4, 0.6]), np.array([0.1, 0.6]))
        assert tv_snapshot_distance(d, d, b=3) == pytest.approx(0.0, abs=1e-12)

    def test_k1_half_spike(self):
        a = KSpikeDistribution(np.array([1.0]), np.array([0.0]))
        b = KSpikeDistribution(np.array([1.0]), np.array([0.5]))
        assert tv_snapshot_distance(a, b, b=1) == pytest.approx(0.5, abs=1e-12)

    def test_hard_pair_closed_form_equals_enumeration_at_minimal_aperture(self):
        # the closed form half of sum_{l >= 2k-1} C(b,l) 2^l |g_l gap| is lp_value / 2
        pair = hard_pair(2, 3, 2.0)
        brute = tv_snapshot_distance(pair.first, pair.second, b=3)
        assert pair.lp_value / 2 == pytest.approx(brute, abs=1e-10)

    def test_closed_form_upper_bounds_enumeration_above_minimal_aperture(self):
        pair = hard_pair(2, 6, 2.0)
        assert pair.lp_value / 2 >= tv_snapshot_distance(pair.first, pair.second, b=6) - 1e-12

    def test_no_enumeration_beyond_limit(self):
        pair = hard_pair(8, 15, 2.0)
        assert tv_snapshot_distance(pair.first, pair.second, b=ENUMERATION_LIMIT) is not None
        assert tv_snapshot_distance(pair.first, pair.second, b=ENUMERATION_LIMIT + 1) is None
        with pytest.raises(InputError):
            tv_snapshot_distance(pair.first, pair.second, b=-1)


class TestApertureIndistinguishability:
    def test_zero_aperture(self):
        pair = hard_pair(2, 3, 2.0)
        assert aperture_indistinguishability(pair, 0) == 0.0

    def test_below_threshold_indistinguishable(self):
        pair = hard_pair(2, 3, 2.0)
        assert aperture_indistinguishability(pair, 2) <= 1e-6

    def test_threshold_is_exact_for_k_up_to_40(self):
        for k in range(1, 41):
            pair = hard_pair(k, 2 * k - 1, 2.0)
            assert pair.lp_value <= pair.lp_bound
            assert aperture_indistinguishability(pair, 2 * k - 2) == 0.0
            at = aperture_indistinguishability(pair, 2 * k - 1)
            assert at > 0.0
            assert at == pytest.approx(pair.lp_value / 2, rel=1e-12, abs=0.0)

    def test_matches_enumeration_above_threshold(self):
        pair = hard_pair(2, 3, 2.0)
        for m in (4, 6, 9):
            brute = tv_snapshot_distance(pair.first, pair.second, m)
            assert aperture_indistinguishability(pair, m) == pytest.approx(brute, abs=1e-13)

    def test_aperture_limit(self):
        pair = hard_pair(2, 3, 2.0)
        with pytest.raises(InputError):
            aperture_indistinguishability(pair, MAX_APERTURE + 1)

    def test_k1_full_aperture_distinguishable(self):
        pair = hard_pair(1, 1, 2.0)
        assert aperture_indistinguishability(pair, 0) == 0.0
        assert aperture_indistinguishability(pair, 1) == pytest.approx(0.5, abs=1e-9)

    def test_sample_bound_report(self):
        pair = hard_pair(2, 3, 2.0)
        bound = sample_lower_bound(pair, psi=0.05)
        assert bound == pytest.approx(8.0 / (8 * 27) * math.log(1 / 0.2))


def test_sample_bound_overflow_is_an_input_error():
    with pytest.raises(InputError):
        sample_lower_bound(hard_pair(3, 5, 1e300), psi=0.05)


def test_lowerbound_demo_script_smoke(tmp_path):
    out = tmp_path / "grid.csv"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, str(REPO / "scripts" / "run_lowerbound_demo.py"), "--kmax", "2",
                    "--out", str(out)], check=True, env=env, timeout=60)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,b,rho,lp_value,lp_bound,separation,transport,tv_below,tv_at,sample_bound"
    assert len(lines) == 1 + 2 * 2 * 2  # k in 1..2, b in (2k-1, 3k), rho in (2, 3)
    for line in lines[1:]:
        row = line.split(",")
        assert float(row[3]) <= float(row[4])
        assert float(row[7]) == 0.0 < float(row[8])


def test_pascal_inverse_identity_sizes():
    for b in (1, 2, 5, 12, 25):
        assert pascal_inverse_identity_exact(b)
