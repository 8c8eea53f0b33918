"""Dense linear algebra helpers: the symmetric eigensolver wrapper and the
Euclidean projection onto the probability simplex.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jacobi_eigh",
    "project_to_simplex",
]


def jacobi_eigh(a):
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    The name is kept for the benchmark's tracer (``perfbench/tracing.py``),
    which wraps it by this name to time the eigendecompositions of
    ``estimate_A`` and ``width_report``.

    Parameters
    ----------
    a : (n, n) array, symmetric.

    Returns
    -------
    (eigenvalues, eigenvectors): eigenvalues sorted descending, eigenvectors
    as the matching columns of an orthogonal matrix.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n and np.abs(a - a.T).max(initial=0.0) > 1e-8 * (1.0 + np.abs(a).max()):
        raise ValueError("matrix must be symmetric")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return w[::-1], v[:, ::-1]


def project_to_simplex(v):
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, n + 1)
    rho = np.nonzero(u - cssv / ind > 0)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)
