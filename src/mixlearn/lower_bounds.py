"""Executable lower-bound demonstrations.

``hard_pair`` builds two k-spike distributions on the interleaved grid
j / ((2k-1) rho), j = 0..2k-1, whose first 2k-2 raw moments coincide while
their transportation distance stays at least 1/((2k-1) rho).  Their
difference is a signed binomial measure on a rational grid, so its moment
gaps (the paper's LP value, in closed form) and its snapshot count gaps are
summed exactly in integers and rounded once.  ``tv_snapshot_distance`` evaluates the total
variation between the b-snapshot distributions of any two k-spike
distributions by enumerating {0,1}^b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kspike import binom_profile_matrix
from .model import InputError, KSpikeDistribution

__all__ = ["MAX_APERTURE", "ENUMERATION_LIMIT", "HardPair", "hard_pair", "tv_snapshot_distance",
           "aperture_indistinguishability", "sample_lower_bound"]

# Up to this aperture lp_bound = 4 * 3^b / rho^(2k-1) is a finite double for all k >= 1,
# rho >= 2 (2 * 3^646 is not); m shares it, as the exact TV sum costs O(k m) big-integer steps.
MAX_APERTURE = 645
ENUMERATION_LIMIT = 14  # tv_snapshot_distance sums 2^b snapshot probabilities


@dataclass(frozen=True)
class HardPair:
    """A moment-matched pair of k-spike distributions plus its LP value."""

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

    @property
    def lp_bound(self):
        """The paper's bound 4 * 3^b / rho^(2k-1) on the LP value, rounded once."""
        n = 2 * self.k - 1
        p, q = self.rho.as_integer_ratio()
        return 4 * 3**self.b * q**n / p**n


def _lp_value(k: int, rho: float, m: int) -> float:
    """Exact LP objective sum_l C(m, l) 2^l |g_l| of the hard pair's raw-moment gaps, rounded once.

    first - second puts c_j = (-1)^j C(2k-1, j) / 2^(2k-2) on x_j = j h, and every
    nonzero gap g_l (l >= 2k-1) has the sign (-1)^(2k-1), so the absolute values
    move outside the sum: |sum_j c_j (1 + 2 x_j)^m|.  With rho = p/q that is an
    integer over ((2k-1) p)^m 2^(2k-2).
    """
    n = 2 * k - 1
    p, q = rho.as_integer_ratio()
    den = n * p
    total = sum((-1) ** j * math.comb(n, j) * (den + 2 * j * q) ** m for j in range(n + 1))
    return abs(total) / (den**m << (n - 1))


def _gap_sum(k: int, rho: float, m: int) -> float:
    """Exact sum_i C(m, i) |sum_j c_j x_j^i (1 - x_j)^(m-i)| of the hard pair, rounded once.

    That is twice the m-snapshot TV, with c_j and x_j as in ``_lp_value``.  With
    rho = p/q every term is an integer over ((2k-1) p)^m 2^(2k-2).
    """
    n = 2 * k - 1
    p, q = rho.as_integer_ratio()
    den = n * p
    x = np.array([j * q for j in range(n + 1)], dtype=object)
    rest = den - x
    # v_j = c_j x_j^i rest_j^(m-i), scaled to integers, stepped over i
    v = np.array([(-1) ** j * math.comb(n, j) for j in range(n + 1)], dtype=object) * rest**m
    total = 0
    for i in range(m + 1):
        total += math.comb(m, i) * abs(v.sum())
        if i < m:
            v = v // rest * x
    return total / (den**m << (n - 1))


def hard_pair(k: int, b: int, rho: float) -> HardPair:
    """Construct the moment-matched hard pair for aperture b and scale rho.

    With h = 1/((2k-1) rho), alpha_i = 2(i-1) h carry y_i = C(2k-1, 2i-2) /
    2^(2k-2) and beta_i = (2i-1) h carry z_i = C(2k-1, 2i-1) / 2^(2k-2).  Their
    difference is a (2k-1)-th finite difference, so raw moments 0..2k-2 agree
    exactly, and the pair is the only feasible point of the LP minimizing
    sum_{l=2k-1}^{b} C(b,l) 2^l |g_l(y,alpha) - g_l(z,beta)| under those
    equalities.  Its value, summed exactly, stays below ``lp_bound``.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if not 2 * k - 1 <= b <= MAX_APERTURE:
        raise InputError(f"aperture b={b} must lie in [2k-1, {MAX_APERTURE}]; beyond "
                         f"{MAX_APERTURE}, 4*3^b/rho^(2k-1) may not be a finite double")
    if not (math.isfinite(rho) and rho >= 2):
        raise InputError(f"rho must be finite and at least 2 (got {rho!r})")
    rho, n = float(rho), 2 * k - 1
    p, q = rho.as_integer_ratio()
    grid = [j * q / (n * p) for j in range(n + 1)]
    weights = [math.comb(n, j) / 2 ** (n - 1) for j in range(n + 1)]
    first = KSpikeDistribution(np.array(weights[0::2]), np.array(grid[0::2]))
    second = KSpikeDistribution(np.array(weights[1::2]), np.array(grid[1::2]))
    pair = HardPair(k=k, b=b, rho=rho, first=first, second=second,
                    lp_value=_lp_value(k, rho, b))
    if pair.lp_value > pair.lp_bound * (1.0 + 1e-9):
        raise InputError(f"LP value exceeds its bound at k={k}, b={b}, rho={rho:g}")
    return pair


def tv_snapshot_distance(d1: KSpikeDistribution, d2: KSpikeDistribution, b: int):
    """Total variation between the aperture-b snapshot distributions, over {0,1}^b.

    A snapshot with i ones has probability nu_i = sum_j t_j a_j^i (1-a_j)^(b-i)
    under each distribution; the 2^b terms are summed for b <= ``ENUMERATION_LIMIT``
    and the result is None beyond it.
    """
    if b < 0:
        raise InputError("aperture must be nonnegative")
    if b > ENUMERATION_LIMIT:
        return None
    ones = np.array([int(s).bit_count() for s in range(2**b)])
    nu1 = d1.weights @ binom_profile_matrix(d1.locations, b + 1)
    nu2 = d2.weights @ binom_profile_matrix(d2.locations, b + 1)
    return 0.5 * float(np.abs(nu1[ones] - nu2[ones]).sum())


def aperture_indistinguishability(pair: HardPair, m: int) -> float:
    """Exact TV between the two m-snapshot distributions of a hard pair.

    It is exactly 0 for m <= 2k-2; at m = 2k-1 it equals ``lp_value / 2``
    of the pair at b = 2k-1.
    """
    if m < 0:
        raise InputError("aperture must be nonnegative")
    if m > MAX_APERTURE:
        raise InputError(f"aperture m={m} exceeds {MAX_APERTURE}, the largest the demo evaluates")
    return _gap_sum(pair.k, pair.rho, m) / 2


def sample_lower_bound(pair: HardPair, psi: float) -> float:
    """Implied sample-size bound N >= rho^(2k-1) / (8 * 3^b) * ln(1/(4 psi)).

    Distinguishing the pair with confidence 1 - psi at aperture b needs at
    least this many snapshots; an ``InputError`` says when it overflows.
    """
    if not 0.0 < psi < 0.25:
        raise InputError("psi must lie in (0, 0.25)")
    n = 2 * pair.k - 1
    p, q = pair.rho.as_integer_ratio()
    try:
        value = p**n / (8 * 3**pair.b * q**n) * math.log(1.0 / (4.0 * psi))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise InputError(f"sample bound rho^(2k-1)/(8*3^b)*ln(1/(4psi)) exceeds the largest "
                         f"double at k={pair.k}, b={pair.b}, rho={pair.rho:g}")
    return value
