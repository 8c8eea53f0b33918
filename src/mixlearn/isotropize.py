"""Reduction to the isotropic regime: estimate the mean distribution, drop
rare items, split heavy items into near-uniform copies, map snapshots into
the refined domain, and pull learned constituents back to the original one.

An item i with estimated mass rt_i below 2*sigma/n is eliminated; every kept
item is split into floor(n * rt_i / sigma) copies of equal mass.  Snapshots
containing an eliminated item are discarded; surviving items are relabeled to
a uniformly random copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InputError, MixtureSource
from .sampling import RngStream, SnapshotBatch

__all__ = [
    "ItemMap",
    "estimate_r",
    "build_refinement",
    "map_batch",
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

    def copy_owner(self):
        """Length-nprime array mapping each copy back to its original item."""
        return np.repeat(np.arange(self.n), self.splits)


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


def map_batch(item_map: ItemMap, batch: SnapshotBatch, rng: RngStream) -> SnapshotBatch:
    """Map each row into the refined domain, dropping rows that hit an eliminated item.

    Every surviving item is relabeled to a uniformly random one of its copies.
    """
    rows = batch.rows
    if rows.size == 0:
        return SnapshotBatch(aperture=batch.aperture, rows=rows, n=item_map.nprime)
    splits = item_map.splits[rows]
    alive = ~np.any(splits == 0, axis=1)
    kept = rows[alive]
    gen = rng.generator()
    mapped = item_map.offsets[kept] + gen.integers(0, item_map.splits[kept])
    return SnapshotBatch(aperture=batch.aperture, rows=mapped, n=item_map.nprime)


def pull_back(item_map: ItemMap, learned: MixtureSource) -> MixtureSource:
    """Aggregate copy probabilities per original item and renormalize.

    Eliminated items get probability 0; each constituent is renormalized so
    the output is a valid mixture source (the lost mass is within the 4*sigma
    transport budget of the reduction).
    """
    if learned.n != item_map.nprime:
        raise InputError("learned source domain does not match the item map")
    owner = item_map.copy_owner()
    rows = []
    for t in range(learned.k):
        agg = np.bincount(owner, weights=learned.constituents[t], minlength=item_map.n)
        total = agg.sum()
        if total <= 0:
            raise InputError("constituent lost all mass under pull back")
        rows.append(agg / total)
    return MixtureSource(learned.weights.copy(), np.array(rows))

