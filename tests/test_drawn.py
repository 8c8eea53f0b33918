"""The drawn-statistics regime: statistics drawn from their exact law, no rows.

The chi-square tests compare drawn item counts, pair counts and bit-sum
histograms with their exact cell probabilities, and run the same test on
counts read off snapshot rows as the control.  The end-to-end tests run
``run_learn`` in sampled mode, which learns from drawn statistics.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlearn.cli import ExperimentConfig, generate_source, run_learn
from mixlearn.isotropize import estimate_r
from mixlearn.kspike import empirical_nbm
from mixlearn.learner import DrawnInputs, OracleInputs
from mixlearn.model import InputError, LearningFailure, MixtureSource, mixture_transport, width_report
from mixlearn.sampling import RngStream, binarize, draw_snapshots
from mixlearn.spectral import empirical_M

K = 2
SAMPLES = 2000  # snapshots per statistic and seed
SEEDS = range(40)
POINT_VALUES = np.array([0.1, 0.4, 0.7, 0.95])
Z_FALSE_ALARM = 3.0902  # upper 1e-3 point of the standard normal

SOURCE = MixtureSource(np.array([0.3, 0.7]),
                       np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]))
SWAPPED = MixtureSource(SOURCE.weights[::-1].copy(), SOURCE.constituents.copy())


def _binom():
    return np.array([math.comb(2 * K - 1, i) for i in range(2 * K)], dtype=float)


def _unordered(m):
    """Unordered pair cells of a symmetric 2-snapshot matrix: (i, i) and i < j."""
    iu = np.triu_indices(m.shape[0])
    return np.where(iu[0] == iu[1], 1.0, 2.0) * m[iu]


def cell_probabilities(src):
    """Exact cell probabilities of the three statistics."""
    nu, _ = OracleInputs(src).direction_nbm(None, POINT_VALUES, K, None)
    return {
        "items": src.mean(),
        "pairs": _unordered(src.second_moment_matrix()),
        "bits": _binom() * nu.values,
    }


def drawn_counts(seed):
    rng = RngStream(seed)
    stats = DrawnInputs(SOURCE, SAMPLES, SAMPLES, SAMPLES, rng.child(0))
    nu, _ = stats.direction_nbm(SAMPLES, POINT_VALUES, K, rng.child(1))
    return {
        "items": stats.mean_distribution() * SAMPLES,
        "pairs": _unordered(stats.two_snapshot_matrix()) * SAMPLES,
        "bits": nu.values * _binom() * SAMPLES,
    }


def row_counts(seed):
    rng = RngStream(seed)
    batch_hi = draw_snapshots(SOURCE, 2 * K - 1, SAMPLES, rng.child(3))
    bits = binarize(POINT_VALUES[batch_hi.rows], rng.child(4))
    return {
        "items": estimate_r(draw_snapshots(SOURCE, 1, SAMPLES, rng.child(1)), SOURCE.n) * SAMPLES,
        "pairs": _unordered(empirical_M(draw_snapshots(SOURCE, 2, SAMPLES, rng.child(2)),
                                        SOURCE.n)) * SAMPLES,
        "bits": empirical_nbm(bits, K).values * _binom() * SAMPLES,
    }


def pooled_chi_square(counts_per_seed, probs):
    """Pearson's statistic summed over seeds, and its 1e-3 rejection threshold.

    The threshold is the Wilson-Hilferty approximation of the chi-square
    quantile with seeds * (cells - 1) degrees of freedom.
    """
    expected = SAMPLES * probs
    stat = 0.0
    for counts in counts_per_seed:
        counts = np.rint(counts)
        assert counts.sum() == SAMPLES
        stat += float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts_per_seed) * (probs.size - 1)
    c = 2.0 / (9.0 * dof)
    return stat, dof * (1.0 - c + Z_FALSE_ALARM * math.sqrt(c)) ** 3


@pytest.fixture(scope="module")
def draws():
    return {"drawn": [drawn_counts(s) for s in SEEDS], "rows": [row_counts(s) for s in SEEDS]}


@pytest.mark.parametrize("statistic", ["items", "pairs", "bits"])
@pytest.mark.parametrize("path", ["drawn", "rows"])
def test_counts_follow_exact_cell_law(draws, path, statistic):
    probs = cell_probabilities(SOURCE)[statistic]
    stat, threshold = pooled_chi_square([d[statistic] for d in draws[path]], probs)
    assert stat <= threshold, f"{path} {statistic}: chi-square {stat:.1f} > {threshold:.1f}"


@pytest.mark.parametrize("statistic", ["items", "pairs", "bits"])
def test_chi_square_rejects_a_wrong_law(draws, statistic):
    # the same draws against the mixture with its weights swapped
    probs = cell_probabilities(SWAPPED)[statistic]
    stat, threshold = pooled_chi_square([d[statistic] for d in draws["drawn"]], probs)
    assert stat > threshold


def test_each_direction_call_draws_a_fresh_histogram():
    rng = RngStream(3)
    stats = DrawnInputs(SOURCE, SAMPLES, SAMPLES, SAMPLES, rng.child(0))
    a, _ = stats.direction_nbm(SAMPLES, POINT_VALUES, K, rng.child(1))
    b, _ = stats.direction_nbm(SAMPLES, POINT_VALUES, K, rng.child(2))
    again, _ = stats.direction_nbm(SAMPLES, POINT_VALUES, K, rng.child(1))
    assert not np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, again.values)


@pytest.mark.parametrize("total", [0, 1, 4, 5, 10**12 + 3])
def test_slots_split_like_rows(total):
    stats = DrawnInputs(SOURCE, 1, 1, total, RngStream(0))
    slots = stats.allocate(5)
    assert sum(slots) == total
    if total <= 5:
        assert slots == [len(c) for c in np.array_split(np.arange(total), 5)]
    assert max(slots) - min(slots) <= 1 and slots == sorted(slots, reverse=True)


def test_empty_statistics_are_typed_errors():
    stats = DrawnInputs(SOURCE, 0, 0, 0, RngStream(0))
    with pytest.raises(InputError):
        stats.mean_distribution()
    with pytest.raises(InputError):
        stats.two_snapshot_matrix()
    with pytest.raises(InputError):
        stats.direction_nbm(0, POINT_VALUES, K, RngStream(1))


def _criterion_04_source():
    src = generate_source(ExperimentConfig(n=100, k=2, seed=9, zeta=0.5))
    return src, width_report(src).zeta


def test_sampled_end_to_end_at_criterion_04_settings():
    # criterion 04's gate, run through run_learn's drawn statistics
    src, zeta = _criterion_04_source()
    medians = {}
    costs = None
    for n_samples in (10**4, 10**5, 10**6):
        costs = []
        for seed in range(52_000, 52_020):
            cfg = ExperimentConfig(n=100, k=2, seed=seed, zeta=zeta, delta=1e-8,
                                   samples1=n_samples, samples2=n_samples, samples_hi=n_samples)
            report, learned = run_learn(cfg, src)
            assert report["manifest"]["statistics"] == "drawn"
            costs.append(mixture_transport(src, learned).cost)
        medians[n_samples] = float(np.median(costs))
    assert float(np.mean(np.array(costs) <= 0.15)) >= 0.8
    assert medians[10**4] >= medians[10**5] >= medians[10**6]


def test_billion_samples_run_in_quadratic_memory():
    src, zeta = _criterion_04_source()
    cfg = ExperimentConfig(n=100, k=2, seed=52_000, zeta=zeta, delta=1e-8,
                           samples1=10**9, samples2=10**9, samples_hi=10**9)
    tracemalloc.start()
    try:
        report, _ = run_learn(cfg, src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 16 float64 n x n matrices, whatever N is; rows would take 8 GB per aperture
    assert peak < 16 * src.n**2 * 8
    assert report["row"]["Nhi"] == 10**9
    assert report["row"]["tran_dist"] < 0.01


_SOURCES = {n: generate_source(ExperimentConfig(n=n, k=2, seed=5, zeta=0.5)) for n in (8, 12, 16)}


def _outcome(cfg, model):
    # at small N a run can end in a learning failure; replay must reproduce that too
    try:
        report, _ = run_learn(cfg, model)
    except LearningFailure as exc:
        return f"{type(exc).__name__}: {exc}"
    del report["row"]["wall_ms"]
    return json.dumps(report)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(sorted(_SOURCES)), seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["oracle", "sampled"]), poisson=st.booleans(),
       samples=st.integers(100, 10**7))
def test_replay_gives_identical_report(n, seed, mode, poisson, samples):
    model = _SOURCES[n]
    cfg = ExperimentConfig(n=n, k=2, seed=seed, zeta=0.5, delta=1e-8, mode=mode, poisson=poisson,
                           samples1=samples, samples2=samples, samples_hi=samples)
    assert _outcome(cfg, model) == _outcome(cfg, model)
