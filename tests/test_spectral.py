import numpy as np
import pytest

from mixlearn.linalg import jacobi_eigh
from mixlearn.model import InputError, MixtureSource, width_report
from mixlearn.sampling import RngStream, SnapshotBatch, draw_snapshots
from mixlearn.spectral import empirical_M, estimate_A, random_basis

from conftest import two_block_source
from oracles import projector_distance


def batch2(pairs):
    return SnapshotBatch(aperture=2, rows=np.array(pairs, dtype=np.int64))


def modified_gram_schmidt(cols):
    """Orthonormalize columns in order, with one re-orthogonalization pass."""
    q = np.array(cols, dtype=float)
    for j in range(q.shape[1]):
        for _ in range(2):
            for i in range(j):
                q[:, j] -= np.dot(q[:, i], q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


def rank3_subspace():
    """Retained eigenspace (kprime = 3) of a wide 4-mixture over 12 items."""
    s = np.vstack([
        np.concatenate([np.ones(6), -np.ones(6)]),
        np.concatenate([np.ones(3), -np.ones(3), np.ones(3), -np.ones(3)]),
        np.tile([1.0, -1.0], 6),
        np.zeros(12),
    ])
    s -= s.mean(axis=0)
    rows = (1.0 + 0.4 * s) / 12
    rows /= rows.sum(axis=1, keepdims=True)
    src = MixtureSource(np.full(4, 0.25), rows)
    rep = width_report(src)
    return estimate_A(src.second_moment_matrix(), src.mean(), zeta=rep.zeta)


class TestEmpiricalM:
    def test_single_off_diagonal_snapshot(self):
        m = empirical_M(batch2([[0, 1]]), n=2)
        assert np.allclose(m, [[0.0, 0.5], [0.5, 0.0]])

    def test_diagonal_snapshots(self):
        m = empirical_M(batch2([[0, 0], [1, 1]]), n=2)
        assert np.allclose(m, np.diag([0.5, 0.5]))

    def test_entries_sum_to_one(self, rng):
        rows = rng.integers(0, 4, size=(50, 2))
        m = empirical_M(SnapshotBatch(aperture=2, rows=rows), n=4)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(m - m.T).max() == 0.0

    def test_concentrates_to_exact_matrix(self):
        src = two_block_source(n=8, c=0.6)
        batch = draw_snapshots(src, 2, 10**6, RngStream(42))
        m = empirical_M(batch, n=8)
        exact = src.second_moment_matrix()
        assert np.linalg.norm(m - exact) < 0.01

    def test_empty_and_wrong_aperture_rejected(self):
        with pytest.raises(InputError):
            empirical_M(SnapshotBatch(aperture=2, rows=np.zeros((0, 2), dtype=np.int64)), n=2)
        with pytest.raises(InputError):
            empirical_M(SnapshotBatch(aperture=3, rows=np.zeros((1, 3), dtype=np.int64)), n=2)


class TestEstimateA:
    def test_rank_one_exact_inputs(self):
        # k=1: M = r r^T exactly, so M - R = 0 and nothing is retained
        r = np.array([0.3, 0.7])
        sub = estimate_A(np.outer(r, r), r, zeta=0.5)
        assert sub.kprime == 0
        assert np.abs(sub.eigenvalues).max() < 1e-12

    def test_two_point_exact_inputs(self):
        src = MixtureSource(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        sub = estimate_A(src.second_moment_matrix(), src.mean(), zeta=1.0)
        assert sub.kprime == 1
        assert sub.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
        v = sub.basis[:, 0]
        want = np.array([1.0, -1.0]) / np.sqrt(2)
        assert min(np.abs(v - want).max(), np.abs(v + want).max()) < 1e-9

    def test_noise_below_threshold_keeps_rank(self, rng):
        src = two_block_source(n=10, c=0.8)
        rep = width_report(src)
        zeta = rep.zeta
        n = src.n
        noise = rng.standard_normal((n, n))
        noise = noise + noise.T
        noise *= (zeta**2 / (4 * n)) / np.linalg.norm(noise, 2)
        m = src.second_moment_matrix() + noise
        sub = estimate_A(m, src.mean(), zeta)
        assert sub.kprime == rep.kprime == 1

    def test_m_equals_r_plus_a_identity(self, rng):
        for _ in range(5):
            k, n = int(rng.integers(1, 5)), int(rng.integers(3, 9))
            src = MixtureSource(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(n), size=k))
            m = src.second_moment_matrix()
            r = src.mean()
            assert np.abs(m - (np.outer(r, r) + src.covariance())).max() < 1e-12


class TestRandomBasis:
    def test_gram_identity_and_span(self, rng):
        sub = rank3_subspace()
        assert sub.kprime == 3
        basis = random_basis(sub, RngStream(1))
        assert np.abs(basis.T @ basis - np.eye(3)).max() < 1e-10
        assert projector_distance(basis, sub.basis) < 1e-10

    def test_orthonormal_columns_same_span(self):
        sub = rank3_subspace()
        for seed in range(10):
            q = random_basis(sub, RngStream(seed))
            assert np.abs(q.T @ q - np.eye(3)).max() < 1e-12
            # same span: the retained eigenvectors reproduce under Q's projector
            assert np.abs(q @ (q.T @ sub.basis) - sub.basis).max() < 1e-12

    def test_matches_modified_gram_schmidt(self):
        # QR with diag(R) > 0 is the factor Gram-Schmidt builds column by column
        sub = rank3_subspace()
        for seed in range(10):
            mix = RngStream(seed).generator().standard_normal((3, 3))
            want = modified_gram_schmidt(sub.basis @ mix)
            assert np.abs(random_basis(sub, RngStream(seed)) - want).max() < 1e-12

    def test_one_dimensional_subspace_is_sign_of_eigenvector(self):
        src = MixtureSource(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        sub = estimate_A(src.second_moment_matrix(), src.mean(), zeta=1.0)
        b = random_basis(sub, RngStream(2))[:, 0]
        v = sub.basis[:, 0]
        assert min(np.abs(b - v).max(), np.abs(b + v).max()) < 1e-10

    def test_degenerate_subspace_rejected(self):
        r = np.array([0.5, 0.5])
        sub = estimate_A(np.outer(r, r), r, zeta=0.5)
        with pytest.raises(InputError):
            random_basis(sub, RngStream(0))


class TestProjectorDistance:
    def test_identical_sets(self, rng):
        u = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        assert projector_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_equals_operator_norm_of_difference(self, rng):
        for cols_u, cols_v in ((1, 1), (2, 3), (3, 3)):
            u = np.linalg.qr(rng.standard_normal((7, cols_u)))[0]
            v = np.linalg.qr(rng.standard_normal((7, cols_v)))[0]
            want = np.linalg.norm(u @ u.T - v @ v.T, 2)
            assert projector_distance(u, v) == pytest.approx(want, abs=1e-12)

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert projector_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_projector_bound_for_close_psd_matrices(self, rng):
        # ||Pi_A - Pi_B|| <= sqrt(4 rho / eps) for PSD pairs with nonzero
        # eigenvalues >= eps and ||A - B|| <= rho
        for _ in range(10):
            n = 6
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            eps = 0.5
            lam_a = eps + rng.random(3)
            a = (basis[:, :3] * lam_a) @ basis[:, :3].T
            rot = basis[:, :4]
            mix = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3]
            cols_b = rot @ mix
            lam_b = eps + rng.random(3)
            b = (cols_b * lam_b) @ cols_b.T
            rho = np.linalg.norm(a - b, 2)
            dist = projector_distance(basis[:, :3], cols_b)
            assert dist <= np.sqrt(4 * rho / eps) + 1e-9


class TestWeylProperty:
    def test_eigenvalue_perturbation(self, rng):
        for _ in range(10):
            n = 7
            a = rng.standard_normal((n, n))
            a = a + a.T
            e = rng.standard_normal((n, n))
            e = e + e.T
            b = a + e
            rho = np.linalg.norm(e, 2)
            wa, _ = jacobi_eigh(a)
            wb, _ = jacobi_eigh(b)
            assert np.abs(wa - wb).max() <= rho + 1e-9


class TestAllDirectionsBound:
    def test_unit_vectors_in_covariance_span_are_flat(self, rng):
        # for wide isotropic sources, directions in col(A) have small l-inf norm
        src = two_block_source(n=16, c=0.8)
        rep = width_report(src)
        sub = estimate_A(src.second_moment_matrix(), src.mean(), zeta=rep.zeta)
        bound = 2.0 / (src.w_min**2 * rep.zeta * np.sqrt(src.n))
        for i in range(20):
            b = random_basis(sub, RngStream(100 + i))[:, 0]
            assert np.abs(b).max() <= bound + 1e-9
