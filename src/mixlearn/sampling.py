"""Seeded snapshot generation, 1-D projections, and randomized binarization.

Randomness flows through ``RngStream``, a thin wrapper over a counter-based
Philox generator: identical (seed, stream) always reproduces the same
outputs, and child streams derived with ``child(i)`` are independent of each
other, so batch generation stays deterministic no matter how work is split.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .model import InputError, MixtureSource

__all__ = [
    "RngStream",
    "AliasTable",
    "SnapshotBatch",
    "draw_snapshots",
    "ProjectedDistribution",
    "project_distribution",
    "project_snapshot",
    "binarize",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16  # elements per chunk of uniforms in AliasTable.sample and binarize


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
        flat = idx.reshape(-1)
        # acceptance uniforms in chunks keep the temporaries small; the
        # generator yields the same doubles as one call of the full size
        for lo in range(0, flat.size, _CHUNK):
            part = flat[lo:lo + _CHUNK]
            reject = gen.random(part.size) >= self.accept[part]
            part[reject] = self.alias[part[reject]]
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"aperture={self.aperture}\n")
        for row in self.rows:
            buf.write(",".join(str(int(v)) for v in row))
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, n: int | None = None) -> "SnapshotBatch":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or not lines[0].startswith("aperture="):
            raise InputError("missing 'aperture=m' header line")
        m = int(lines[0].split("=", 1)[1])
        rows = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
        arr = np.array(rows, dtype=np.int64) if rows else np.zeros((0, m), dtype=np.int64)
        return cls(aperture=m, rows=arr, n=n)


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


@dataclass(frozen=True)
class ProjectedDistribution:
    """Discrete distribution on the reals: distinct values with their masses."""

    values: np.ndarray
    masses: np.ndarray

    def expectation(self):
        return float(np.dot(self.values, self.masses))


def project_distribution(p, x) -> ProjectedDistribution:
    """Project a distribution on [n] along the item values x.

    Mass sum_{i: x_i = v} p_i lands on each distinct value v, so the
    expectation of the projection equals x . p.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if p.shape != x.shape:
        raise InputError("p and x must have equal length")
    values, inverse = np.unique(x, return_inverse=True)
    masses = np.bincount(inverse, weights=p, minlength=values.size)
    return ProjectedDistribution(values=values, masses=masses)


def project_snapshot(row, x):
    """Replace each item index by its value under x (length preserved)."""
    row = np.asarray(row, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    return x[row]


def binarize(values, rng: RngStream):
    """Round values in [0, 1] to bits, each 1 with probability equal to the value."""
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise InputError("binarize expects values in [0, 1]")
    gen = rng.generator()
    bits = np.empty(values.shape, dtype=np.int8)
    flat_v, flat_b = values.reshape(-1), bits.reshape(-1)
    for lo in range(0, flat_v.size, _CHUNK):
        chunk = flat_v[lo:lo + _CHUNK]
        flat_b[lo:lo + _CHUNK] = gen.random(chunk.size) < chunk
    return bits
