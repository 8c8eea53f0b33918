import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlearn.kspike import empirical_nbm, nbm_of
from mixlearn.model import InputError, KSpikeDistribution, MixtureSource
from mixlearn.sampling import (
    AliasTable,
    RngStream,
    SnapshotBatch,
    binarize,
    draw_snapshots,
    project_distribution,
    project_snapshot,
)

from conftest import two_block_source


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().random(5)
        b = RngStream(7, 3).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 0).generator().random(5)
        b = RngStream(7, 1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_children_deterministic_and_distinct(self):
        root = RngStream(9)
        assert root.child(4) == root.child(4)
        assert root.child(4) != root.child(5)
        assert root.child(4).child(1) != root.child(5).child(1)


class TestAliasTable:
    def test_matches_probabilities(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        table = AliasTable(probs)
        draws = table.sample(RngStream(1).generator(), 200000)
        freq = np.bincount(draws, minlength=4) / draws.size
        assert np.abs(freq - probs).max() < 0.01

    def test_point_mass(self):
        table = AliasTable([0.0, 1.0, 0.0])
        draws = table.sample(RngStream(2).generator(), 1000)
        assert np.all(draws == 1)

    @pytest.mark.parametrize("size", [1, 1000, (70000, 3), 200001])
    def test_chunked_draws_equal_one_shot_reference(self, size):
        table = AliasTable([0.05, 0.5, 0.15, 0.3])
        gen = RngStream(4).generator()
        idx = gen.integers(0, 4, size=size)
        want = np.where(gen.random(size=size) < table.accept[idx], idx, table.alias[idx])
        assert np.array_equal(table.sample(RngStream(4).generator(), size), want)


class TestDrawSnapshots:
    def test_point_mass_source(self):
        src = MixtureSource(np.array([1.0]), np.array([[1.0, 0.0, 0.0]]))
        batch = draw_snapshots(src, 3, 50, RngStream(3))
        assert batch.rows.shape == (50, 3)
        assert np.all(batch.rows == 0)

    def test_empty_batch(self):
        src = MixtureSource(np.array([1.0]), np.array([[0.5, 0.5]]))
        batch = draw_snapshots(src, 2, 0, RngStream(3))
        assert len(batch) == 0

    def test_uniform_frequency_chernoff(self):
        # k=1 uniform on n=2: empirical frequency within 0.01 of 0.5
        src = MixtureSource(np.array([1.0]), np.array([[0.5, 0.5]]))
        batch = draw_snapshots(src, 1, 10**5, RngStream(4))
        freq = np.mean(batch.rows == 0)
        assert abs(freq - 0.5) < 0.01

    def test_determinism_across_calls(self):
        src = two_block_source()
        a = draw_snapshots(src, 3, 100, RngStream(5, 1)).rows
        b = draw_snapshots(src, 3, 100, RngStream(5, 1)).rows
        assert np.array_equal(a, b)

    def test_rejects_bad_aperture(self):
        src = two_block_source()
        with pytest.raises(InputError):
            draw_snapshots(src, 0, 1, RngStream(0))


class TestProjections:
    def test_all_zero_values(self):
        proj = project_distribution([0.2, 0.8], [0.0, 0.0])
        assert np.array_equal(proj.values, [0.0])
        assert proj.masses[0] == pytest.approx(1.0)

    def test_bernoulli(self):
        proj = project_distribution([0.5, 0.5], [0.0, 1.0])
        assert np.array_equal(proj.values, [0.0, 1.0])
        assert np.allclose(proj.masses, [0.5, 0.5])

    def test_duplicate_coordinates_summed(self):
        proj = project_distribution([0.2, 0.3, 0.5], [1.0, 1.0, 0.0])
        assert np.array_equal(proj.values, [0.0, 1.0])
        assert np.allclose(proj.masses, [0.5, 0.5])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_mass_and_expectation_preserved(self, n, seed):
        gen = np.random.default_rng(seed)
        p = gen.dirichlet(np.ones(n))
        x = gen.standard_normal(n).round(1)  # rounding forces duplicates
        proj = project_distribution(p, x)
        assert proj.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert proj.expectation() == pytest.approx(float(x @ p), abs=1e-12)

    def test_project_snapshot(self):
        assert np.allclose(project_snapshot([0, 0], [0.3, 0.9]), [0.3, 0.3])
        assert np.allclose(project_snapshot([1, 0, 1], [0.0, 1.0]), [1.0, 0.0, 1.0])
        assert project_snapshot([], [0.3]).size == 0


class TestBinarize:
    def test_deterministic_extremes(self):
        vals = np.array([[1.0, 0.0, 1.0]] * 10)
        bits = binarize(vals, RngStream(6))
        assert np.all(bits == [1, 0, 1])

    def test_half_rate_chernoff(self):
        bits = binarize(np.full(10**5, 0.5), RngStream(7))
        assert abs(bits.mean() - 0.5) < 0.01

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            binarize(np.array([1.2]), RngStream(0))

    @pytest.mark.parametrize("shape", [(5,), (70000, 3), (200001,)])
    def test_chunked_draws_equal_one_shot_reference(self, shape):
        vals = np.random.default_rng(3).random(shape)
        want = (RngStream(5).generator().random(size=shape) < vals).astype(np.int8)
        got = binarize(vals, RngStream(5))
        assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_nbm_consistency_against_exact(self):
        # binarized snapshots from the projected source match the exact NBMs
        # of the k-spike distribution of per-constituent biases
        src = two_block_source(n=6, c=0.6, w=(0.3, 0.7))
        x = np.linspace(0.0, 1.0, 6)
        k = 2
        batch = draw_snapshots(src, 2 * k - 1, 10**6, RngStream(8))
        values = project_snapshot(batch.rows, x)
        bits = binarize(values, RngStream(9))
        nu_hat = empirical_nbm(bits, k)
        biases = src.constituents @ x
        exact = nbm_of(KSpikeDistribution(src.weights.copy(), biases))
        assert np.abs(nu_hat.values - exact.values).max() < 0.01


class TestCsv:
    def test_roundtrip(self):
        batch = SnapshotBatch(aperture=2, rows=np.array([[0, 1], [2, 2]]), n=3)
        text = batch.to_csv()
        assert text.splitlines()[0] == "aperture=2"
        again = SnapshotBatch.from_csv(text, n=3)
        assert again.aperture == 2
        assert np.array_equal(again.rows, batch.rows)

    def test_missing_header_rejected(self):
        with pytest.raises(InputError):
            SnapshotBatch.from_csv("0,1\n")
