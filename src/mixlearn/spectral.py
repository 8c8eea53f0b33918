"""Spectral scaffolding for the pipeline: the empirical 2-snapshot matrix, the
thresholded PSD covariance estimate with its retained eigenspace, and random
orthonormal bases of that eigenspace.
"""

from __future__ import annotations

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
]


@dataclass(frozen=True)
class SpectralSubspace:
    """Eigenvalues (descending) of the covariance estimate centred on ``rtilde``.

    ``basis`` holds the eigenvectors of the ``kprime`` eigenvalues at or above
    ``threshold`` (the explicit rank rule zeta^2 / 2n).  Arrays are read-only.
    """

    rtilde: np.ndarray
    eigenvalues: np.ndarray  # descending
    basis: np.ndarray  # retained eigenvectors as columns
    threshold: float

    def __post_init__(self):
        for a in (self.rtilde, self.eigenvalues, self.basis):
            a.setflags(write=False)

    @property
    def kprime(self):
        return self.basis.shape[1]


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
    return SpectralSubspace(
        rtilde=rtilde.copy(),
        eigenvalues=eigenvalues,
        basis=eigenvectors[:, :kprime],
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
