"""Reduction to the isotropic regime: estimate the mean distribution, drop
rare items, split heavy items into near-uniform copies, learn the split
source's covariance eigenspace, and pull learned constituents back.

An item i with estimated mass rt_i below 2*sigma/n is eliminated; every kept
item is split into floor(n * rt_i / sigma) copies of equal mass.  Snapshots
containing an eliminated item are discarded; the others keep their labels,
as the refined statistics are the n-item ones rescaled (``refined_subspace``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh
from .model import InputError, MixtureSource
from .sampling import SnapshotBatch
from .spectral import SpectralSubspace

__all__ = [
    "ItemMap",
    "estimate_r",
    "build_refinement",
    "drop_eliminated",
    "refined_subspace",
    "pull_back",
    "default_sigma",
]


def default_sigma(eps, zeta, k, w_min):
    """Split granularity eps*zeta^2/(32*k*w_min); override via config."""
    return eps * zeta**2 / (32.0 * k * w_min)


@dataclass(frozen=True)
class ItemMap:
    """Refinement plan: which items are eliminated, how kept ones split."""

    sigma: float
    splits: np.ndarray  # per-item copy count, 0 for eliminated items
    offsets: np.ndarray  # item -> start of its contiguous copy range

    def __post_init__(self):
        splits = np.asarray(self.splits, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        splits.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n(self):
        return self.splits.size

    @property
    def nprime(self):
        return int(self.splits.sum())

    @property
    def eliminated(self):
        return self.splits == 0


def estimate_r(batch: SnapshotBatch, n: int):
    """Empirical item frequencies from a 1-snapshot batch."""
    if batch.aperture != 1:
        raise InputError("estimate_r expects aperture-1 snapshots")
    if len(batch) == 0:
        raise InputError("estimate_r needs a nonempty batch")
    counts = np.bincount(batch.rows.ravel(), minlength=n)
    if counts.size > n:
        raise InputError("snapshot items exceed the stated domain size")
    return counts / len(batch)


def build_refinement(rtilde, sigma) -> ItemMap:
    """Eliminate rare items and split the rest per the floor formula."""
    rtilde = np.asarray(rtilde, dtype=float)
    n = rtilde.size
    if not 0.0 < sigma < 1.0:
        raise InputError("sigma must lie in (0, 1)")
    keep = rtilde >= 2.0 * sigma / n
    splits = np.where(keep, np.floor(n * rtilde / sigma).astype(np.int64), 0)
    if splits.sum() == 0:
        raise InputError("all items eliminated; sigma too large for this source")
    offsets = np.concatenate([[0], np.cumsum(splits)[:-1]])
    return ItemMap(sigma=float(sigma), splits=splits, offsets=offsets)


def drop_eliminated(item_map: ItemMap, batch: SnapshotBatch) -> SnapshotBatch:
    """The rows of ``batch`` that hold no eliminated item, with their original labels."""
    alive = ~np.any(item_map.eliminated[batch.rows], axis=1)
    return SnapshotBatch(aperture=batch.aperture, rows=batch.rows[alive], n=item_map.n)


def refined_subspace(item_map: ItemMap, mtilde, rtilde, zeta) -> SpectralSubspace:
    """The split source's covariance eigenspace from the n-item ``mtilde``, ``rtilde``.

    Copy c of item i has mean r_i/s_i and second moments M_ij/(s_i s_j), so
    over the kept items the refined covariance is Q S^(-1/2) (M - r r^T)
    S^(-1/2) Q^T with S = diag(s) and Q the orthonormal lift giving copy c of
    item i the entry w_i/sqrt(s_i) (the whitening of Anandkumar et al., 2012).
    The top eigenvectors at the refined threshold zeta^2 / (2 nprime) are
    lifted; no nprime x nprime array is built.
    """
    kept = ~item_map.eliminated
    splits = item_map.splits[kept]
    root = np.sqrt(splits)
    b = (mtilde - np.outer(rtilde, rtilde))[np.ix_(kept, kept)]
    eigenvalues, w = jacobi_eigh(b / np.outer(root, root))
    threshold = zeta**2 / (2.0 * item_map.nprime)
    kprime = int(np.sum(eigenvalues >= threshold))
    return SpectralSubspace(
        rtilde=np.repeat(rtilde[kept] / splits, splits),
        eigenvalues=eigenvalues,
        basis=np.repeat(w[:, :kprime] / root[:, None], splits, axis=0),
        threshold=float(threshold),
    )


def pull_back(item_map: ItemMap, learned: MixtureSource) -> MixtureSource:
    """Aggregate copy probabilities per original item and renormalize.

    Eliminated items get probability 0; each constituent is renormalized so
    the output is a valid mixture source (the lost mass is within the 4*sigma
    transport budget of the reduction).
    """
    if learned.n != item_map.nprime:
        raise InputError("learned source domain does not match the item map")
    owner = np.repeat(np.arange(item_map.n), item_map.splits)  # copy -> its item
    rows = []
    for t in range(learned.k):
        agg = np.bincount(owner, weights=learned.constituents[t], minlength=item_map.n)
        total = agg.sum()
        if total <= 0:
            raise InputError("constituent lost all mass under pull back")
        rows.append(agg / total)
    return MixtureSource(learned.weights.copy(), np.array(rows))

