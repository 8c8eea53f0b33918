"""Spectral scaffolding for the pipeline: the empirical 2-snapshot matrix, the
thresholded PSD covariance estimate with its retained eigenspace, random
orthonormal bases of that eigenspace, and projector diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh
from .model import InputError
from .sampling import RngStream, SnapshotBatch

__all__ = [
    "SpectralSubspace",
    "empirical_M",
    "estimate_A",
    "random_basis",
    "projector_distance",
]


@dataclass(frozen=True)
class SpectralSubspace:
    """Eigenstructure of the empirical covariance estimate.

    ``kprime`` counts the eigenvalues at or above ``threshold`` (the explicit
    rank rule zeta^2 / 2n); ``basis`` holds the retained eigenvectors.
    """

    rtilde: np.ndarray
    eigenvalues: np.ndarray  # descending, all n of them
    eigenvectors: np.ndarray  # matching columns
    kprime: int
    threshold: float

    @property
    def basis(self):
        return self.eigenvectors[:, : self.kprime]

    def a_matrix(self):
        """The PSD estimate: retained eigenpairs recombined."""
        lam = self.eigenvalues[: self.kprime]
        vecs = self.basis
        return (vecs * lam) @ vecs.T

    def projector(self):
        b = self.basis
        return b @ b.T

    def to_json(self):
        """Provenance record: threshold, rank, and the retained eigenpairs."""
        return json.dumps(
            {
                "threshold": self.threshold,
                "kprime": self.kprime,
                "eigenvalues": self.eigenvalues[: self.kprime].tolist(),
                "basis": self.basis.tolist(),
                "rtilde": self.rtilde.tolist(),
            }
        )


def empirical_M(batch: SnapshotBatch, n: int):
    """Symmetrized empirical 2-snapshot matrix.

    Diagonal entries are the frequencies of (i, i); off-diagonal entries are
    half the combined frequency of (i, j) and (j, i), so entries sum to 1.
    """
    if batch.aperture != 2:
        raise InputError("empirical_M expects aperture-2 snapshots")
    if len(batch) == 0:
        raise InputError("empirical_M needs a nonempty batch")
    rows = batch.rows
    if rows.max(initial=0) >= n:
        raise InputError("snapshot items exceed the stated domain size")
    flat = rows[:, 0] * n + rows[:, 1]
    counts = np.bincount(flat, minlength=n * n).reshape(n, n).astype(float)
    counts /= len(batch)
    return 0.5 * (counts + counts.T)


def estimate_A(mtilde, rtilde, zeta) -> SpectralSubspace:
    """Eigendecompose M~ - r~ r~^T and keep eigenvalues >= zeta^2 / 2n."""
    mtilde = np.asarray(mtilde, dtype=float)
    rtilde = np.asarray(rtilde, dtype=float)
    if zeta <= 0.0:
        raise InputError("zeta must be positive")
    n = rtilde.size
    if mtilde.shape != (n, n):
        raise InputError("matrix/vector dimensions disagree")
    if np.abs(mtilde - mtilde.T).max(initial=0.0) > 1e-9:
        raise InputError("M~ must be symmetric")
    b = mtilde - np.outer(rtilde, rtilde)
    eigenvalues, eigenvectors = jacobi_eigh(b)
    threshold = zeta**2 / (2.0 * n)
    kprime = int(np.sum(eigenvalues >= threshold))
    rt = rtilde.copy()
    rt.setflags(write=False)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectralSubspace(
        rtilde=rt,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        kprime=kprime,
        threshold=float(threshold),
    )


def random_basis(sub: SpectralSubspace, rng: RngStream):
    """Uniformly random orthonormal basis of the retained eigenspace.

    Columns of the result span exactly span(basis); the rotation is Haar by
    orthonormalizing a Gaussian coefficient matrix.  The QR factor's column
    signs are fixed so that diag(R) > 0, which makes Q the one modified
    Gram-Schmidt returns.
    """
    if sub.kprime < 1:
        raise InputError("degenerate subspace: kprime = 0")
    gen = rng.generator()
    mix = gen.standard_normal((sub.kprime, sub.kprime))
    q, r = np.linalg.qr(sub.basis @ mix)
    return q * np.copysign(1.0, np.diag(r))


def projector_distance(u, v):
    """Operator norm of the difference of the two orthogonal projectors."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if u.shape[0] == 1 and u.shape[1] > 1:
        u = u.T
    if v.shape[0] == 1 and v.shape[1] > 1:
        v = v.T
    diff = u @ u.T - v @ v.T
    return float(np.abs(np.linalg.eigvalsh(diff)).max(initial=0.0))
