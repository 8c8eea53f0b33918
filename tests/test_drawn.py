"""The drawn-statistics regime: statistics drawn from their exact law, no rows.

The chi-square tests compare drawn item counts, pair counts and bit-sum
histograms with their exact cell probabilities, and run the same test on
counts read off snapshot rows as the control.  They do so twice: for all
snapshots, and for the snapshots the isotropizing reduction keeps, where the
rows control applies the drop rule itself.  The end-to-end tests run
``run_learn`` in sampled mode, which learns from drawn statistics.
"""

import json
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlearn.cli import ExperimentConfig, generate_source, run_learn
from mixlearn.isotropize import build_refinement, estimate_r
from mixlearn.kspike import empirical_nbm
from mixlearn.learner import DrawnInputs, OracleInputs
from mixlearn.model import LearningFailure, MixtureSource, mixture_transport, width_report
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

# item 0 is rare: its mean mass 0.0607 is below the 2 sigma / n = 0.08 cut.  It
# holds a fifth of the first constituent, so that constituent's snapshots
# survive far less often than the second's, and the law given survival is
# far from the law of all snapshots.
RARE = MixtureSource(np.array([0.3, 0.7]),
                     np.array([[0.2, 0.3, 0.25, 0.15, 0.1], [0.001, 0.1, 0.2, 0.3, 0.399]]))
RARE_SWAPPED = MixtureSource(RARE.weights[::-1].copy(), RARE.constituents.copy())
RARE_MAP = build_refinement(RARE.mean(), 0.2)
RARE_POINT_VALUES = np.array([0.5, 0.1, 0.4, 0.7, 0.95])


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


def isotropized_cell_probabilities(src):
    """Exact cells of the three statistics of the snapshots ``RARE_MAP`` keeps.

    Each statistic's cells over the kept items, then one cell for the
    snapshots dropped; the bit-sum cells enumerate every (2k-1)-tuple of items
    and every bit pattern.
    """
    kept = ~RARE_MAP.eliminated
    items = src.mean()[kept]
    pairs = _unordered(src.second_moment_matrix()[np.ix_(kept, kept)])
    bits = np.zeros(2 * K)
    for t, tup in product(range(src.k), product(np.flatnonzero(kept), repeat=2 * K - 1)):
        mass = src.weights[t] * np.prod(src.constituents[t, list(tup)])
        x = RARE_POINT_VALUES[list(tup)]
        for pattern in product((0, 1), repeat=2 * K - 1):
            bits[sum(pattern)] += mass * np.prod(np.where(pattern, x, 1.0 - x))
    return {name: np.append(c, 1.0 - c.sum())
            for name, c in (("items", items), ("pairs", pairs), ("bits", bits))}


def _with_dropped(counts):
    return np.append(counts, SAMPLES - counts.sum())


def _unordered_kept(ordered):
    """Unordered pair cells over the kept items of an ordered n x n count matrix."""
    kept = ~RARE_MAP.eliminated
    ordered = ordered[np.ix_(kept, kept)]
    return _unordered(0.5 * (ordered + ordered.T))


def isotropized_drawn_counts(seed):
    rng = RngStream(seed)
    stats = DrawnInputs(RARE, SAMPLES, SAMPLES, SAMPLES, rng.child(0)).isotropized(RARE_MAP, K)
    (slot,) = stats.allocate(1)
    copies = np.repeat(RARE_POINT_VALUES, RARE_MAP.splits)  # the learner's point values
    nu, _ = stats.direction_nbm(slot, copies, K, rng.child(1))
    kept = ~RARE_MAP.eliminated
    return {
        "items": _with_dropped(stats.item_counts()[kept]),
        "pairs": _with_dropped(_unordered_kept(stats.pair_counts())),
        "bits": _with_dropped(nu.values * _binom() * slot),
    }


def drop_eliminated(rows):
    """The drop rule: a snapshot that holds an eliminated item is discarded."""
    return rows[~RARE_MAP.eliminated[rows].any(axis=1)]


def isotropized_row_counts(seed):
    rng = RngStream(seed)
    ones, twos, his = (drop_eliminated(draw_snapshots(RARE, m, SAMPLES, rng.child(m)).rows)
                       for m in (1, 2, 2 * K - 1))
    pairs = np.zeros((RARE.n, RARE.n))
    np.add.at(pairs, (twos[:, 0], twos[:, 1]), 1.0)
    bits = binarize(RARE_POINT_VALUES[his], rng.child(4))
    return {
        "items": _with_dropped(np.bincount(ones.ravel(), minlength=RARE.n)[~RARE_MAP.eliminated]),
        "pairs": _with_dropped(_unordered_kept(pairs)),
        "bits": _with_dropped(np.bincount(bits.sum(axis=1), minlength=2 * K)),
    }


@pytest.fixture(scope="module")
def draws():
    return {"drawn": [drawn_counts(s) for s in SEEDS], "rows": [row_counts(s) for s in SEEDS]}


@pytest.fixture(scope="module")
def isotropized_draws():
    return {"drawn": [isotropized_drawn_counts(s) for s in SEEDS],
            "rows": [isotropized_row_counts(s) for s in SEEDS]}


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


@pytest.mark.parametrize("statistic", ["items", "pairs", "bits"])
@pytest.mark.parametrize("path", ["drawn", "rows"])
def test_isotropized_counts_follow_exact_cell_law(isotropized_draws, path, statistic):
    probs = isotropized_cell_probabilities(RARE)[statistic]
    stat, threshold = pooled_chi_square([d[statistic] for d in isotropized_draws[path]], probs)
    assert stat <= threshold, f"{path} {statistic}: chi-square {stat:.1f} > {threshold:.1f}"


@pytest.mark.parametrize("statistic", ["items", "pairs", "bits"])
def test_isotropized_chi_square_rejects_a_wrong_law(isotropized_draws, statistic):
    probs = isotropized_cell_probabilities(RARE_SWAPPED)[statistic]
    stat, threshold = pooled_chi_square([d[statistic] for d in isotropized_draws["drawn"]], probs)
    assert stat > threshold


def test_isotropized_statistics_are_normalized_on_the_kept_items():
    stats = DrawnInputs(RARE, SAMPLES, SAMPLES, SAMPLES, RngStream(0)).isotropized(RARE_MAP, K)
    gone = RARE_MAP.eliminated
    r, m = stats.mean_distribution(), stats.two_snapshot_matrix()
    assert stats.subspace(0.5).rtilde.size == RARE_MAP.nprime  # the learner's domain: the copies
    assert not r[gone].any() and not m[gone].any() and not m[:, gone].any()
    assert r.sum() == pytest.approx(1.0) and m.sum() == pytest.approx(1.0)
    assert np.array_equal(m, m.T)


def test_drop_rule_discards_rows_with_an_eliminated_item():
    assert RARE_MAP.eliminated.tolist() == [True, False, False, False, False]
    rows = np.array([[0, 1], [2, 1], [1, 0], [2, 2], [0, 0]])
    assert np.array_equal(drop_eliminated(rows), [[2, 1], [2, 2]])  # original labels


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
    # a count can come out 0 by the draw (poissonized counts, survivors): a failed run
    stats = DrawnInputs(SOURCE, 0, 0, 0, RngStream(0))
    with pytest.raises(LearningFailure, match="no 1-snapshot"):
        stats.mean_distribution()
    with pytest.raises(LearningFailure, match="no 2-snapshot"):
        stats.two_snapshot_matrix()
    with pytest.raises(LearningFailure, match="empty"):
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
            cfg = ExperimentConfig(n=100, k=2, seed=seed, zeta=zeta,
                                   samples1=n_samples, samples2=n_samples, samples_hi=n_samples)
            report, learned = run_learn(cfg, src)
            assert report["manifest"]["statistics"] == "drawn"
            costs.append(mixture_transport(src, learned).cost)
        medians[n_samples] = float(np.median(costs))
    assert float(np.mean(np.array(costs) <= 0.15)) >= 0.8
    assert medians[10**4] >= medians[10**5] >= medians[10**6]


def test_billion_samples_run_in_quadratic_memory():
    src, zeta = _criterion_04_source()
    cfg = ExperimentConfig(n=100, k=2, seed=52_000, zeta=zeta,
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
    cfg = ExperimentConfig(n=n, k=2, seed=seed, zeta=0.5, mode=mode, poisson=poisson,
                           samples1=samples, samples2=samples, samples_hi=samples)
    assert _outcome(cfg, model) == _outcome(cfg, model)
