"""Reduction to the isotropic regime: estimate the mean distribution, drop
rare items, split heavy items into near-uniform copies, learn the split
source's covariance eigenspace, and pull learned constituents back.

An item i with estimated mass rt_i below 2*sigma/n is eliminated; every kept
item is split into floor(n * rt_i / sigma) copies of equal mass.  Snapshots
containing an eliminated item are discarded; the rest are iid draws of the
source restricted to the kept items (``learner.DrawnInputs`` draws their
statistics), and the refined statistics are the n-item ones rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh
from .model import InputError, MixtureSource
from .sampling import SnapshotBatch
from .spectral import SpectralSubspace

__all__ = [
    "MAX_NPRIME",
    "ItemMap",
    "estimate_r",
    "build_refinement",
    "refined_subspace",
    "pull_back",
    "default_sigma",
]


# Largest refined domain accepted: the learner holds a few nprime-long float
# vectors, 128 MiB each at 2^24.
MAX_NPRIME = 1 << 24


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
    """Eliminate rare items and split the rest per the floor formula, checking
    the copy counts against ``MAX_NPRIME`` before the int64 cast."""
    rtilde = np.asarray(rtilde, dtype=float)
    n = rtilde.size
    if not 0.0 < sigma < 1.0:
        raise InputError("sigma must lie in (0, 1)")
    keep = rtilde >= 2.0 * sigma / n
    with np.errstate(over="ignore"):  # an overflow is an infinite count, rejected below
        copies = np.where(keep, np.floor(n * rtilde / sigma), 0.0)
    nprime = copies.sum()
    if nprime > MAX_NPRIME:
        raise InputError(f"sigma={sigma!r} splits the items into nprime={nprime:.15g} "
                         f"copies, more than {MAX_NPRIME}; raise --sigma")
    if nprime == 0:
        raise InputError("all items eliminated; sigma too large for this source")
    splits = copies.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(splits)[:-1]])
    return ItemMap(sigma=float(sigma), splits=splits, offsets=offsets)


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

