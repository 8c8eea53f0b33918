"""Seeded snapshot generation and randomized binarization.

Randomness flows through ``RngStream``, a thin wrapper over a counter-based
Philox generator: identical (seed, stream) always reproduces the same
outputs, and child streams derived with ``child(i)`` are independent of each
other, so batch generation stays deterministic no matter how work is split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InputError, MixtureSource

__all__ = [
    "RngStream",
    "AliasTable",
    "SnapshotBatch",
    "draw_snapshots",
    "binarize",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream) pair naming one deterministic random sequence."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream; deterministic in (stream, index)."""
        return RngStream(self.seed, _splitmix64((self.stream & _MASK64) ^ _splitmix64(index)))


class AliasTable:
    """Vose alias table for O(1) draws from a fixed discrete distribution."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0 or probs.min() < 0:
            raise InputError("alias table needs a nonempty nonnegative vector")
        total = probs.sum()
        if total <= 0:
            raise InputError("alias table needs positive total mass")
        k = probs.size
        scaled = probs * (k / total)
        self.accept = np.ones(k)
        self.alias = np.arange(k)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self.accept[s] = scaled[s]
            self.alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        for i in small + large:
            self.accept[i] = 1.0

    def sample(self, gen: np.random.Generator, size):
        idx = gen.integers(0, self.accept.size, size=size)
        reject = gen.random(idx.shape) >= self.accept[idx]
        idx[reject] = self.alias[idx[reject]]
        return idx


@dataclass(frozen=True)
class SnapshotBatch:
    """A multiset of m-snapshots: rows of m item indices, aperture m."""

    aperture: int
    rows: np.ndarray  # (N, m) integer array
    n: int | None = None  # domain size when known

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2:
            rows = rows.reshape(-1, self.aperture) if rows.size else rows.reshape(0, self.aperture)
        if rows.shape[1] != self.aperture:
            raise InputError("row length must equal the aperture")
        if rows.size and rows.min() < 0:
            raise InputError("item indices must be nonnegative")
        if self.n is not None and rows.size and rows.max() >= self.n:
            raise InputError("item index outside [0, n)")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return self.rows.shape[0]


def draw_snapshots(src: MixtureSource, m: int, count: int, rng: RngStream) -> SnapshotBatch:
    """Draw ``count`` m-snapshots: pick a constituent by weight, then m iid items.

    Rows are independent; the output depends only on (seed, stream), not on
    how the generation is scheduled.
    """
    if m < 1:
        raise InputError("aperture must be at least 1")
    if count < 0:
        raise InputError("sample count must be nonnegative")
    gen = rng.generator()
    rows = np.zeros((count, m), dtype=np.int64)
    if count == 0:
        return SnapshotBatch(aperture=m, rows=rows, n=src.n)
    which = AliasTable(src.weights).sample(gen, count)
    for t in range(src.k):
        sel = np.nonzero(which == t)[0]
        if sel.size == 0:
            continue
        table = AliasTable(src.constituents[t])
        rows[sel] = table.sample(gen, (sel.size, m))
    return SnapshotBatch(aperture=m, rows=rows, n=src.n)


def binarize(values, rng: RngStream):
    """Round values in [0, 1] to bits, each 1 with probability equal to the value."""
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise InputError("binarize expects values in [0, 1]")
    return (rng.generator().random(values.shape) < values).astype(np.int8)
