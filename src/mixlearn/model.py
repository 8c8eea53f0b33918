"""Core domain types: mixture sources, k-spike distributions, width reports,
and the transportation distance between weighted point sets.

A k-mixture source over [n] is a weight vector on the simplex plus k
constituent distributions.  A k-spike distribution is k weighted point masses
on [0, 1]; it is what the one-dimensional reduction learns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh
from .lp import solve_lp

__all__ = [
    "InputError",
    "LearningFailure",
    "MixtureSource",
    "KSpikeDistribution",
    "WidthReport",
    "TransportPlan",
    "transport_distance",
    "mixture_transport",
    "spike_transport",
    "width_report",
]

WEIGHT_TOL = 1e-12


class InputError(ValueError):
    """Invalid caller-supplied data (bad normalization, ranges, shapes)."""


class LearningFailure(Exception):
    """A valid run whose statistics the pipeline could not turn into a mixture.

    Too few or too noisy samples end a run this way; ``MatchingFailure`` is
    the case where the per-direction spikes cannot be reconciled.
    """


def _check_distribution(vec, what, tol=WEIGHT_TOL):
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise InputError(f"{what} must be a nonempty 1-d vector")
    if not np.isfinite(vec).all():
        raise InputError(f"{what} has non-finite entries")
    if vec.min() < -tol:
        raise InputError(f"{what} has negative entries")
    if abs(vec.sum() - 1.0) > tol:
        raise InputError(f"{what} must sum to 1 (got {vec.sum()!r})")
    return vec


def _freeze(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MixtureSource:
    """A k-mixture source (weights, constituents) on the domain {0, .., n-1}."""

    weights: np.ndarray
    constituents: np.ndarray  # shape (k, n), rows are distributions

    def __post_init__(self):
        w = _check_distribution(self.weights, "weights")
        p = np.asarray(self.constituents, dtype=float)
        if p.ndim != 2 or p.shape[0] != w.size:
            raise InputError("constituents must be a (k, n) matrix")
        for t in range(p.shape[0]):
            _check_distribution(p[t], f"constituent {t}")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "constituents", _freeze(p))

    @property
    def k(self):
        return self.weights.size

    @property
    def n(self):
        return self.constituents.shape[1]

    @property
    def w_min(self):
        return float(self.weights.min())

    def mean(self):
        """The 1-snapshot distribution r = sum_t w_t p^t."""
        return self.weights @ self.constituents

    def second_moment_matrix(self):
        """The 2-snapshot matrix M = sum_t w_t p^t p^t^T."""
        p = self.constituents
        return (p.T * self.weights) @ p

    def covariance(self):
        """A = sum_t w_t (p^t - r)(p^t - r)^T."""
        d = self.constituents - self.mean()
        return (d.T * self.weights) @ d

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "weights": self.weights.tolist(),
                "constituents": self.constituents.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text):
        """Parse a model document; any decode, shape or type fault is an InputError."""
        try:
            doc = json.loads(text)
            weights = np.asarray(doc["weights"], dtype=float)
            constituents = np.asarray(doc["constituents"], dtype=float)
            n, k = doc["n"], doc["k"]
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"malformed model document: {type(exc).__name__}: {exc}") from exc
        src = cls(weights, constituents)
        if src.n != n or src.k != k:
            raise InputError("model document n/k fields do not match arrays")
        return src


@dataclass(frozen=True)
class KSpikeDistribution:
    """k weighted point masses on [0, 1]."""

    weights: np.ndarray
    locations: np.ndarray

    def __post_init__(self):
        w = _check_distribution(self.weights, "weights")
        loc = np.asarray(self.locations, dtype=float)
        if loc.shape != w.shape:
            raise InputError("weights and locations must have equal length")
        if not np.isfinite(loc).all():
            raise InputError("locations has non-finite entries")
        if loc.min() < -WEIGHT_TOL or loc.max() > 1.0 + WEIGHT_TOL:
            raise InputError("locations must lie in [0, 1]")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "locations", _freeze(np.clip(loc, 0.0, 1.0)))

    @property
    def k(self):
        return self.weights.size

    def separation(self):
        """Minimum pairwise distance between spike locations (inf for k=1)."""
        if self.k < 2:
            return math.inf
        loc = np.sort(self.locations)
        return float(np.diff(loc).min())


@dataclass(frozen=True)
class TransportPlan:
    cost: float
    flow: np.ndarray  # (k, l), row sums = first weights, col sums = second


def transport_distance(wa, wb, cost):
    """Optimal transport between weight vectors under a given ground cost.

    Solves the transportation LP
        min sum_ij x_ij cost_ij   s.t.  row sums = wa, col sums = wb, x >= 0.
    """
    wa = _check_distribution(wa, "first weight vector", tol=1e-9)
    wb = _check_distribution(wb, "second weight vector", tol=1e-9)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (wa.size, wb.size):
        raise InputError("cost matrix shape must be (len(wa), len(wb))")
    if cost.min(initial=0.0) < 0.0:
        raise InputError("cost entries must be nonnegative")

    k, l = cost.shape
    nvar = k * l
    a_eq = np.zeros((k + l, nvar))
    for i in range(k):
        a_eq[i, i * l:(i + 1) * l] = 1.0
    for j in range(l):
        a_eq[k + j, j::l] = 1.0
    b_eq = np.concatenate([wa, wb])
    sol = solve_lp(cost.ravel(), a_eq=a_eq, b_eq=b_eq)
    flow = sol.x.reshape(k, l)
    return TransportPlan(cost=float(sol.value), flow=_freeze(flow))


def mixture_transport(src_a: MixtureSource, src_b: MixtureSource) -> TransportPlan:
    """Transportation distance between mixtures, total-variation ground cost."""
    if src_a.n != src_b.n:
        raise InputError("sources live on different domains")
    diff = src_a.constituents[:, None, :] - src_b.constituents[None, :, :]
    cost = 0.5 * np.abs(diff).sum(axis=2)
    return transport_distance(src_a.weights, src_b.weights, cost)


def spike_transport(d_a: KSpikeDistribution, d_b: KSpikeDistribution) -> TransportPlan:
    """Transportation distance between spike distributions, |.| ground cost."""
    cost = np.abs(d_a.locations[:, None] - d_b.locations[None, :])
    return transport_distance(d_a.weights, d_b.weights, cost)


@dataclass(frozen=True)
class WidthReport:
    """Width and isotropy diagnostics of a mixture source.

    zeta1 is sqrt(n) times the minimum pairwise l2 distance between
    constituents; zeta2 squares to (smallest nonzero eigenvalue of the
    covariance) / ||r||_inf; zeta = min of the two.  kprime is the rank of
    the covariance, decided against an explicit relative threshold.
    """

    zeta1: float
    zeta2: float
    zeta: float
    isotropic: bool
    kprime: int
    r: np.ndarray
    a_matrix: np.ndarray
    eigenvalues: np.ndarray


def width_report(src: MixtureSource, rank_tol=1e-10) -> WidthReport:
    """Compute the width/isotropy diagnostics of a source.

    ``rank_tol`` is relative to the largest eigenvalue of the covariance;
    eigenvalues at or below ``rank_tol * max(eigenvalue)`` count as zero.
    """
    n = src.n
    r = src.mean()
    a = src.covariance()
    eigenvalues, _ = jacobi_eigh(a)

    if src.k >= 2:
        p = src.constituents
        d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        iu = np.triu_indices(src.k, k=1)
        zeta1 = math.sqrt(n) * math.sqrt(max(d2[iu].min(), 0.0))
    else:
        zeta1 = math.inf

    lam_max = eigenvalues.max(initial=0.0)
    nonzero = eigenvalues > rank_tol * max(lam_max, 0.0)
    kprime = int(nonzero.sum())
    r_inf = float(np.abs(r).max())
    if kprime > 0 and r_inf > 0.0:
        lam_min_nonzero = eigenvalues[nonzero][-1]
        zeta2 = math.sqrt(lam_min_nonzero / r_inf)
    else:
        zeta2 = 0.0

    isotropic = bool(np.all(r >= 1.0 / (2 * n)) and np.all(r <= 2.0 / n))
    return WidthReport(
        zeta1=float(zeta1),
        zeta2=float(zeta2),
        zeta=float(min(zeta1, zeta2)),
        isotropic=isotropic,
        kprime=kprime,
        r=_freeze(r),
        a_matrix=_freeze(a),
        eigenvalues=_freeze(eigenvalues),
    )
