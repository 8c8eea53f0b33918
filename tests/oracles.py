"""Reference implementations the tests check the library against.

Each oracle takes a route independent of the library code it checks
(enumeration, an LP, exact integers, a one-at-a-time scan) and is only
usable at the small sizes the tests give it.  The helpers at the end
(moments of a spike distribution, projections, the analytic refined source)
are what the tests build their inputs and expectations from; no run of the
library reads them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from mixlearn.kspike import (
    MomentVector,
    binom_profile_matrix,
    empirical_nbm,
    learn_kspike_from_nbm,
    pascal_pair,
    vandermonde,
)
from mixlearn.lp import LpInfeasible, LpSolution, _canonical, solve_lp
from mixlearn.model import InputError, KSpikeDistribution, MixtureSource


def _independent_rows(a, b, tol=1e-11):
    """Row-reduce [a | b]; returns indices of independent rows.

    Raises LpInfeasible when a dependent row is inconsistent.
    """
    m, n = a.shape
    work = np.hstack([a, b[:, None]]).astype(float)
    scale = 1.0 + np.abs(work).max(initial=0.0)
    kept = []
    for i in range(m):
        row = work[i].copy()
        for j in kept:
            piv_col = np.argmax(np.abs(work[j, :n]))
            factor = row[piv_col] / work[j, piv_col]
            row -= factor * work[j]
        if np.abs(row[:n]).max(initial=0.0) > tol * scale:
            work[i] = row
            kept.append(i)
        elif abs(row[n]) > 1e-7 * scale:
            raise LpInfeasible("inconsistent equality system")
    return kept


def brute_force_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, feas_tol=1e-8):
    """Exhaustive vertex enumeration over solve_lp's canonical equality form.

    Independent of the simplex path (no pivoting); only usable for very
    small problems.  Assumes the optimum is attained at a vertex.
    """
    a, b, c_ext, n, _ = _canonical(c, a_ub, b_ub, a_eq, b_eq)
    rows = _independent_rows(a, b)
    a, b = a[rows], b[rows]
    m, ncols = a.shape
    best_val = None
    best_x = None
    scale = 1.0 + np.abs(b).max(initial=0.0)
    for cols in combinations(range(ncols), min(m, ncols)):
        sub = a[:, cols]
        try:
            sol = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(sol)):
            continue
        if np.abs(sub @ sol - b).max(initial=0.0) > feas_tol * scale:
            continue
        if sol.min(initial=0.0) < -feas_tol:
            continue
        x = np.zeros(ncols)
        x[list(cols)] = np.clip(sol, 0.0, None)
        val = float(np.dot(c_ext, x))
        if best_val is None or val < best_val:
            best_val = val
            best_x = x[:n]
    if best_val is None:
        raise LpInfeasible("no feasible basic solution found")
    return LpSolution(x=best_x, value=best_val, iterations=0)


def simplex_project_l1_lp(phat):
    """LP route for simplex_project_l1: an l1-closest point of the simplex."""
    phat = np.asarray(phat, dtype=float)
    n = phat.size
    # variables: x(n), e+(n), e-(n); x - e+ + e- = phat; sum x = 1
    cost = np.concatenate([np.zeros(n), np.ones(2 * n)])
    a_eq = np.zeros((n + 1, 3 * n))
    a_eq[:n, :n] = np.eye(n)
    a_eq[:n, n:2 * n] = -np.eye(n)
    a_eq[:n, 2 * n:] = np.eye(n)
    a_eq[n, :n] = 1.0
    b_eq = np.concatenate([phat, [1.0]])
    sol = solve_lp(cost, a_eq=a_eq, b_eq=b_eq)
    return sol.x[:n]


def simplex_project_l1_scan(phat):
    """Scan route for simplex_project_l1: try water levels one count at a time.

    Returns the first level whose bracket holds, as the library's vectorized
    pass does, or None when rounding leaves no bracket holding.
    """
    phat = np.asarray(phat, dtype=float)
    n = phat.size
    q = np.maximum(phat, 0.0)
    s = q.sum()
    if abs(s - 1.0) <= 1e-15 and phat.min(initial=0.0) >= 0.0:
        return q
    if s >= 1.0:
        # cap from above: x = min(q, t) with sum = 1
        desc = np.sort(q)[::-1]
        tail = s - np.cumsum(desc)
        for m in range(1, n + 1):
            t = (1.0 - tail[m - 1]) / m
            lo = desc[m] if m < n else 0.0
            if lo - 1e-15 <= t <= desc[m - 1] + 1e-15:
                return np.minimum(q, t)
        return None
    # raise from below: x = max(q, t) with sum = 1
    asc = np.sort(q)
    suffix = s - np.cumsum(asc)
    for m in range(1, n + 1):
        t = (1.0 - suffix[m - 1]) / m
        hi = asc[m] if m < n else math.inf
        if asc[m - 1] - 1e-15 <= t <= hi + 1e-15:
            return np.maximum(q, t)
    return None


def _cap_value(c, v_sorted_desc, v_sq_suffix):
    """max v.x over { ||x||_inf <= c, ||x||_2 <= 1 } plus the maximizing scale.

    The maximizer clips a scaled copy of v at +-c; the scale solves a
    monotone 1-d equation resolved exactly by scanning the sorted order.
    Returns (value, scale) with scale = inf when even full clipping stays
    inside the unit ball.
    """
    nnz = int(np.count_nonzero(v_sorted_desc))
    if nnz == 0:
        return 0.0, math.inf
    if c * c * nnz <= 1.0:
        return c * float(v_sorted_desc.sum()), math.inf
    # with j entries clipped at c: s^2 * sum_{i>j} v_i^2 + j c^2 = 1
    for j in range(nnz):
        tail = v_sq_suffix[j]
        if tail <= 0.0:
            continue
        s = math.sqrt(max(1.0 - j * c * c, 0.0) / tail)
        hi_ok = j == 0 or s * v_sorted_desc[j - 1] >= c - 1e-15
        lo_ok = s * v_sorted_desc[j] <= c + 1e-15
        if hi_ok and lo_ok:
            clipped = c * float(v_sorted_desc[:j].sum())
            rest = s * float(tail)
            return clipped + rest, s
    # all nonzero entries clipped
    return c * float(v_sorted_desc.sum()), math.inf


def direction_program_bisection(v, delta, zeta, iterations=60):
    """Bisection route for learner.solve_direction_program.

    Bisects the l-inf cap; for a fixed cap, ``_cap_value`` scans the sorted
    order for the inner maximization of v.x.  Returns the normalized
    optimizer.
    """
    v = np.asarray(v, dtype=float)
    target = 1.0 - 4.0 * delta / zeta**2
    if target <= 0.0:
        return v / np.linalg.norm(v)

    order = np.argsort(-np.abs(v), kind="stable")
    v_sorted = np.abs(v)[order]
    suffix = np.concatenate([np.cumsum(v_sorted[::-1] ** 2)[::-1], [0.0]])

    hi = float(v_sorted[0])
    lo = 0.0
    best_c, best_s = hi, None  # c = ||v||_inf is always feasible (x = v)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        val, s = _cap_value(mid, v_sorted, suffix)
        if val >= target:
            hi = mid
            best_c, best_s = mid, s
        else:
            lo = mid
    x = np.sign(v) * np.minimum((best_s if best_s not in (None, math.inf) else 1e18) * np.abs(v), best_c)
    if best_s is None:
        x = v.copy()
    norm = np.linalg.norm(x)
    if norm <= 0.0:
        return v / np.linalg.norm(v)
    return x / norm


def pascal_inverse(b: int) -> np.ndarray:
    """The claimed exact inverse of ``pascal_pair(b).pas``, int64.

    It carries the same binomials with alternating signs,
    inv_ij = (-1)^(i-j) C(b-1-j, i-j).
    """
    idx = np.arange(b)
    return pascal_pair(b).pas * np.where((idx[:, None] - idx[None, :]) % 2, -1, 1)


def pascal_inverse_identity_exact(b: int) -> bool:
    """Exact integer check that Pas_(b+1) times its claimed inverse is I."""
    pas = [[int(v) for v in row] for row in pascal_pair(b + 1).pas]
    inv = [[int(v) for v in row] for row in pascal_inverse(b + 1)]
    size = b + 1
    for i in range(size):
        for j in range(size):
            acc = sum(pas[i][l] * inv[l][j] for l in range(size))
            if acc != (1 if i == j else 0):
                return False
    return True


def hard_pair_exact(k: int, b: int, rho: float):
    """The hard pair from its square moment system, solved over the rationals.

    Unknowns y on alpha_i = 2(i-1) h and z on beta_i = (2i-1) h, with
    h = 1/((2k-1) rho) and rho taken exactly: raw moments 0..2k-2 of the two
    agree and y sums to 1.  Gauss-Jordan elimination over ``Fraction``; returns
    (y, z, lp_value), where lp_value = sum_{l=2k-1}^{b} C(b,l) 2^l |g_l gap|.
    """
    n = 2 * k - 1
    h = 1 / (n * Fraction(rho))
    alpha = [2 * i * h for i in range(k)]
    beta = [(2 * i + 1) * h for i in range(k)]
    rows = [[a**l for a in alpha] + [-(c**l) for c in beta] + [Fraction(0)] for l in range(n)]
    rows.append([Fraction(1)] * k + [Fraction(0)] * k + [Fraction(1)])
    for col in range(2 * k):
        piv = next(r for r in range(col, 2 * k) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(2 * k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    y = [rows[i][-1] for i in range(k)]
    z = [rows[k + i][-1] for i in range(k)]
    lp_value = sum(math.comb(b, l) * 2**l * abs(sum(w * a**l for w, a in zip(y, alpha))
                                                - sum(w * c**l for w, c in zip(z, beta)))
                   for l in range(n, b + 1))
    return y, z, lp_value


def hard_pair_lp_value_stepped(k: int, rho: float, m: int) -> float:
    """The hard pair's sum_l C(m, l) 2^l |g_l| over its raw-moment gaps, term by term.

    Each |g_l| is its own exact integer sum, stepped over l, with no use of the
    gaps sharing a sign; the total is rounded once like ``hard_pair``'s value.
    """
    n = 2 * k - 1
    p, q = rho.as_integer_ratio()
    den = n * p
    x = np.array([j * q for j in range(n + 1)], dtype=object)
    v = np.array([(-1) ** j * math.comb(n, j) for j in range(n + 1)], dtype=object) * den**m
    total = 0
    for l in range(m + 1):  # v_j = c_j x_j^l den^(m-l), scaled to integers
        total += (math.comb(m, l) << l) * abs(v.sum())
        if l < m:
            v = v // den * x
    return total / (den**m << (n - 1))


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


def moments_of(d: KSpikeDistribution, count: int | None = None) -> MomentVector:
    """Raw moments g_i for i = 0..count-1 (count defaults to 2k)."""
    count = 2 * d.k if count is None else count
    g = d.weights @ vandermonde(d.locations, count)
    return MomentVector(kind="raw", values=g, k=count // 2)


def nbm_of(d: KSpikeDistribution) -> MomentVector:
    """NBMs at aperture 2k-1: nu_i = sum_j t_j a_j^i (1-a_j)^(2k-1-i)."""
    nu = d.weights @ binom_profile_matrix(d.locations, 2 * d.k)
    return MomentVector(kind="nbm", values=nu, k=d.k)


def learn_kspike(bit_snapshots, k, xi) -> KSpikeDistribution:
    """Learn a k-spike distribution from (2k-1)-bit snapshots at moment accuracy xi."""
    return learn_kspike_from_nbm(empirical_nbm(bit_snapshots, k), xi)


def project_snapshot(row, x):
    """Replace each item index by its value under x (length preserved)."""
    return np.asarray(x, dtype=float)[np.asarray(row, dtype=np.int64)]


def projector_distance(u, v):
    """Operator norm of the difference of the two orthogonal projectors."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if u.shape[0] == 1 and u.shape[1] > 1:
        u = u.T
    if v.shape[0] == 1 and v.shape[1] > 1:
        v = v.T
    diff = u @ u.T - v @ v.T
    return float(np.abs(np.linalg.eigvalsh(diff)).max(initial=0.0))


def refine_source(src: MixtureSource, item_map) -> MixtureSource:
    """The analytic refined source: restrict to kept items, renormalize, split.

    This is the distribution that mapped snapshots follow conditionally on
    survival (per constituent).
    """
    if src.n != item_map.n:
        raise InputError("source domain does not match the item map")
    keep = ~item_map.eliminated
    owner = np.repeat(np.arange(item_map.n), item_map.splits)
    rows = []
    for t in range(src.k):
        p = src.constituents[t]
        kept_mass = p[keep].sum()
        if kept_mass <= 0:
            raise InputError("a constituent has no mass on kept items")
        per_copy = np.where(keep, p / np.maximum(item_map.splits, 1), 0.0) / kept_mass
        rows.append(per_copy[owner])
    return MixtureSource(src.weights.copy(), np.array(rows))
