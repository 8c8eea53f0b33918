"""Executable lower-bound demonstrations.

``hard_pair`` builds two k-spike distributions on fixed interleaved locations
whose first 2k-2 raw moments coincide while their transportation distance
stays at least 1/((2k-1) rho); the weights solve the square moment system,
and the value of the paper's LP at them (its only feasible point) certifies
that even the higher moments (up to aperture b) are exponentially close.
``tv_snapshot_distance`` evaluates the total variation between the induced
b-snapshot distributions both in closed form (from the moment gaps) and by
exhaustive enumeration of {0,1}^b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kspike import binom_profile_matrix, vandermonde
from .model import InputError, KSpikeDistribution

__all__ = [
    "HardPair",
    "hard_pair",
    "tv_snapshot_distance",
    "TvReport",
    "aperture_indistinguishability",
    "sample_lower_bound",
]


@dataclass(frozen=True)
class HardPair:
    """A moment-matched pair of k-spike distributions plus its LP certificate."""

    k: int
    b: int
    rho: float
    first: KSpikeDistribution
    second: KSpikeDistribution
    lp_value: float

    @property
    def separation(self):
        return 2.0 / ((2 * self.k - 1) * self.rho)

    @property
    def transport_floor(self):
        return 1.0 / ((2 * self.k - 1) * self.rho)


def _count_distribution(d: KSpikeDistribution, aperture: int):
    """Probabilities of seeing i ones in an aperture-long snapshot, i = 0..aperture."""
    profile = binom_profile_matrix(d.locations, aperture + 1)
    nu = d.weights @ profile
    binom = np.array([math.comb(aperture, i) for i in range(aperture + 1)], dtype=float)
    return binom * nu


def hard_pair(k: int, b: int, rho: float, moment_tol=1e-8) -> HardPair:
    """Construct the moment-matched hard pair for aperture b and scale rho.

    Locations are fixed at alpha_i = 2(i-1)/((2k-1) rho) and
    beta_i = (2i-1)/((2k-1) rho).  The weights y, z solve the square system
    of the first 2k-2 moment equalities plus both normalizations; its unique
    solution is the only point of the LP that minimizes
    sum_{l=2k-1}^{b} C(b,l) 2^l |g_l(y,alpha) - g_l(z,beta)| subject to those
    equalities, so the objective at it is the LP value.  The value provably
    stays below 4 * 3^b / rho^(2k-1).  The bound, the nonnegativity of the
    weights and the moment agreement are re-certified from the returned
    weights; where floating point cannot meet them (from k = 13 at
    rho = 2) an ``InputError`` names k and rho.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if b < 2 * k - 1:
        raise InputError("aperture b must be at least 2k-1")
    if rho < 2:
        raise InputError("rho must be at least 2")
    eps = 1.0 / rho
    i = np.arange(1, k + 1)
    alpha = eps * 2.0 * (i - 1) / (2 * k - 1)
    beta = eps * (2.0 * i - 1) / (2 * k - 1)
    va = vandermonde(alpha, b + 1)  # (k, b+1) powers 0..b
    vb = vandermonde(beta, b + 1)

    # moments 0..2k-2 agree and y sums to 1: a square system in (y, z) with a
    # unique solution (alternating binomial weights)
    square = np.zeros((2 * k, 2 * k))
    square[: 2 * k - 1, :k] = va[:, : 2 * k - 1].T
    square[: 2 * k - 1, k:] = -vb[:, : 2 * k - 1].T
    square[2 * k - 1, :k] = 1.0
    rhs = np.zeros(2 * k)
    rhs[2 * k - 1] = 1.0
    failed = f"hard-pair construction fails in floating point at k={k}, rho={rho:g}"
    try:
        weights = np.linalg.solve(square, rhs)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"{failed}: singular moment system") from exc
    if weights.min() < -1e-12 or np.abs(square @ weights - rhs).max() >= 1e-10:
        raise InputError(f"{failed}: moment solve leaves negative weights or a residual")
    y = np.clip(weights[:k], 0.0, None)
    z = np.clip(weights[k:], 0.0, None)
    first = KSpikeDistribution(y / y.sum(), alpha)
    second = KSpikeDistribution(z / z.sum(), beta)

    gap = np.abs(first.weights @ va - second.weights @ vb)
    cost = np.array([math.comb(b, l) * 2.0**l for l in range(2 * k - 1, b + 1)])
    value = float(np.dot(cost, gap[2 * k - 1:]))
    bound = 4.0 * 3.0**b / rho ** (2 * k - 1)
    if value > bound * (1.0 + 1e-9):
        raise InputError(f"{failed}: value {value} exceeds the bound {bound}")
    if gap[: 2 * k - 1].max(initial=0.0) > moment_tol:
        raise InputError(f"{failed}: recomputed moment agreement worse than {moment_tol}")
    return HardPair(k=k, b=b, rho=float(rho), first=first, second=second, lp_value=value)


@dataclass(frozen=True)
class TvReport:
    closed_form: float
    brute_force: float | None


def tv_snapshot_distance(d1: KSpikeDistribution, d2: KSpikeDistribution, b: int,
                         moment_tol=1e-8, brute_force_limit=14) -> TvReport:
    """Total variation between the aperture-b snapshot distributions.

    Closed form (valid when the first 2k-2 raw moments agree within
    ``moment_tol``): half of sum_{l=2k-1}^{b} C(b,l) 2^l |g_l(d1) - g_l(d2)|.
    This equals the true distance exactly when b = 2k-1 (a single moment term
    survives) and upper-bounds it otherwise.  For b <= ``brute_force_limit``
    the exact value over {0,1}^b is enumerated as well.
    """
    k = max(d1.k, d2.k)
    if b < 2 * k - 1:
        raise InputError("aperture b must be at least 2k-1")
    g1 = d1.weights @ vandermonde(d1.locations, b + 1)
    g2 = d2.weights @ vandermonde(d2.locations, b + 1)
    gap = np.abs(g1 - g2)
    if gap[: 2 * k - 1].max(initial=0.0) > moment_tol:
        raise InputError("closed form needs the first 2k-2 raw moments to agree")
    ell = np.arange(2 * k - 1, b + 1)
    coeff = np.array([math.comb(b, int(l)) * 2.0 ** int(l) for l in ell])
    closed = 0.5 * float(np.dot(coeff, gap[2 * k - 1:]))

    brute = None
    if b <= brute_force_limit:
        ones = np.array([int(s).bit_count() for s in range(2**b)])
        nu1 = d1.weights @ binom_profile_matrix(d1.locations, b + 1)
        nu2 = d2.weights @ binom_profile_matrix(d2.locations, b + 1)
        brute = 0.5 * float(np.abs(nu1[ones] - nu2[ones]).sum())
    return TvReport(closed_form=closed, brute_force=brute)


def aperture_indistinguishability(pair: HardPair, m: int) -> float:
    """Exact TV between the two m-snapshot distributions of a hard pair.

    Enumerates {0,1}^m (grouped by the number of ones).  At apertures up to
    2k-2 this is ~0 (bounded by the LP equality tolerance times the Pascal
    mass); at 2k-1 it becomes positive.
    """
    if m < 0:
        raise InputError("aperture must be nonnegative")
    if m == 0:
        return 0.0
    c1 = _count_distribution(pair.first, m)
    c2 = _count_distribution(pair.second, m)
    return 0.5 * float(np.abs(c1 - c2).sum())


def sample_lower_bound(pair: HardPair, psi: float) -> float:
    """Implied sample-size bound N >= rho^(2k-1) / (8 * 3^b) * ln(1/(4 psi)).

    Numeric report only; distinguishing the pair with confidence 1 - psi at
    aperture b requires at least this many snapshots.
    """
    if not 0.0 < psi < 0.25:
        raise InputError("psi must lie in (0, 0.25)")
    return pair.rho ** (2 * pair.k - 1) / (8.0 * 3.0**pair.b) * math.log(1.0 / (4.0 * psi))
