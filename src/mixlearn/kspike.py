"""One-dimensional k-spike learner.

Pipeline: empirical normalized binomial moments (NBMs) of (2k-1)-bit
snapshots -> raw moments via the Pascal matrix -> moments about the mean,
scaled by the spread -> annihilating polynomial by an l1-regularized LP ->
spike locations as the real parts of its roots, mapped back and clamped to
[0, 1] -> spike weights by simplex-constrained least squares against the raw
moments.
The locations and the weights are two stages (``learn_spike_locations`` and
``fit_spike_weights``), so a caller that reads only locations skips the fit.

Moment conventions, for a spike distribution (weights t, locations a):

    g_i  = sum_j t_j a_j^i                      (raw moment)
    nu_i = sum_j t_j a_j^i (1 - a_j)^(2k-1-i)   (normalized binomial moment)

and g = nu @ Pas where Pas is the lower-triangular binomial matrix below.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import project_to_simplex
from .lp import LpError, LpInfeasible, solve_lp
from .model import InputError, KSpikeDistribution, LearningFailure

logger = logging.getLogger(__name__)

__all__ = [
    "MomentVector",
    "PascalPair",
    "pascal_pair",
    "empirical_nbm",
    "nbm_to_moments",
    "solve_lambda",
    "polynomial_roots",
    "solve_weights",
    "learn_spike_locations",
    "fit_spike_weights",
    "learn_kspike_from_nbm",
    "vandermonde",
    "binom_profile_matrix",
    "xi_for_sample_count",
]

MAX_PASCAL_SIZE = 60  # binomials stay exact in 64-bit integers up to here


@dataclass(frozen=True)
class MomentVector:
    """Length-2k vector of raw moments or NBMs of a k-spike distribution."""

    kind: str  # 'raw' | 'nbm'
    values: np.ndarray
    k: int

    def __post_init__(self):
        if self.kind not in ("raw", "nbm"):
            raise InputError("kind must be 'raw' or 'nbm'")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (2 * self.k,):
            raise InputError("moment vector must have length 2k")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class PascalPair:
    """The size-b binomial matrix Pas_ij = C(b-1-j, i-j) and its exact inverse.

    The inverse carries the same binomials with alternating signs,
    inv_ij = (-1)^(i-j) C(b-1-j, i-j); pas @ inv is the identity in exact
    integer arithmetic.
    """

    b: int
    pas: np.ndarray  # int64, exact
    inv: np.ndarray  # int64, exact


def pascal_pair(b: int) -> PascalPair:
    if b < 1:
        raise InputError("pascal size must be at least 1")
    if b > MAX_PASCAL_SIZE:
        raise InputError(f"pascal size {b} exceeds the 64-bit-exact limit {MAX_PASCAL_SIZE}")
    pas = np.zeros((b, b), dtype=np.int64)
    inv = np.zeros((b, b), dtype=np.int64)
    for i in range(b):
        for j in range(i + 1):
            u = math.comb(b - 1 - j, i - j)
            pas[i, j] = u
            inv[i, j] = -u if (i - j) % 2 else u
    return PascalPair(b=b, pas=pas, inv=inv)


@functools.lru_cache(maxsize=None)
def _pascal_float(b: int) -> np.ndarray:
    """``pascal_pair(b).pas`` as a read-only float matrix, built once per size."""
    pas = pascal_pair(b).pas.astype(float)
    pas.setflags(write=False)
    return pas


def vandermonde(locations, b: int):
    """V_b: row i holds powers locations[i]^j for j = 0..b-1."""
    loc = np.asarray(locations, dtype=float)
    return loc[:, None] ** np.arange(b)


def binom_profile_matrix(locations, b: int):
    """A_b: row i holds (1-a_i)^(b-1-j) a_i^j; satisfies V_b = A_b @ Pas."""
    loc = np.asarray(locations, dtype=float)
    j = np.arange(b)
    return (1.0 - loc[:, None]) ** (b - 1 - j) * loc[:, None] ** j


def empirical_nbm(bit_snapshots, k: int) -> MomentVector:
    """Empirical NBMs from (2k-1)-bit snapshots.

    nu~_i = (#snapshots with exactly i ones) / (N * C(2k-1, i)).
    """
    bits = np.asarray(bit_snapshots)
    if bits.ndim != 2 or bits.shape[0] == 0:
        raise InputError("need a nonempty 2-d array of bit snapshots")
    m = 2 * k - 1
    if bits.shape[1] != m:
        raise InputError(f"bit snapshots must have aperture {m}")
    ones = bits.sum(axis=1)
    freq = np.bincount(ones, minlength=m + 1) / bits.shape[0]
    binom = np.array([math.comb(m, i) for i in range(m + 1)], dtype=float)
    return MomentVector(kind="nbm", values=freq / binom, k=k)


def nbm_to_moments(nu: MomentVector) -> MomentVector:
    """g = nu @ Pas."""
    if nu.kind != "nbm":
        raise InputError("expected an NBM vector")
    return MomentVector(kind="raw", values=nu.values @ _pascal_float(2 * nu.k), k=nu.k)


def xi_for_sample_count(k: int, n_samples: int, confidence: float = 0.1) -> float:
    """Default moment-accuracy parameter for N empirical (2k-1)-bit snapshots.

    Each raw moment g~_j is a mean of N iid [0,1] statistics, so by Hoeffding
    ||g~ - g||_2 <= dev := sqrt(2k) sqrt(ln(4k/confidence) / 2N) with
    probability at least 1 - confidence.  That bound is for raw moments.  The
    annihilator LP sees the moments about their mean c, scaled by the spread
    s (``learn_spike_locations``), where an error in the raw moments can grow
    by up to max_l sum_i C(l, i) |c|^(l-i) / s^l: up to 8.8e3 on the k = 3,
    n = 60 source of the README's sample-size sweep.  Scaling xi by that
    factor failed 20 of 20 runs there at N = 1e8 and 1e10, so xi is not a
    bound on the centred moments' error but the LP budget's calibrated scale.
    Minimizing the l1 norm within a budget comparable to the noise drags the
    annihilator systematically toward cheap polynomials, so the default keeps
    the LP budget 2^k k xi an order of magnitude *below* dev: the fit is then
    effectively interpolation, with the l1 constraint only guarding
    degenerate inputs.  Constant validated by scripts/calibrate_xi.py.
    """
    if n_samples < 1:
        raise InputError("sample count must be positive")
    dev = math.sqrt(2 * k) * math.sqrt(math.log(4 * k / confidence) / (2.0 * n_samples))
    return max(dev / (2.0**k * k * 10.0), 1e-12)


def solve_lambda(g, xi: float, k: int):
    """Coefficients of the (approximately) annihilating monic polynomial.

    Minimizes ||x||_1 subject to ||G x||_1 <= 2^k k xi and x_k = 1, where
    G_ij = g_(i+j) is the k x (k+1) moment Hankel slice.  Always feasible for
    exact moments; noisy statistics can leave it infeasible, and a
    near-singular Hankel can stall the dense simplex.  Either raises
    ``LearningFailure``.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * k,):
        raise InputError("moment vector must have length 2k")
    if not (xi > 0.0 and math.isfinite(xi)):
        raise InputError(f"xi must be positive and finite (got {xi!r})")
    hankel = np.array([[g[i + j] for j in range(k + 1)] for i in range(k)])
    gf = hankel[:, :k]
    glast = hankel[:, k]
    budget = (2.0**k) * k * xi

    # variables: u(k), v(k) with x = u - v, and t(k) >= |G x| row-wise
    nv = 3 * k
    cost = np.concatenate([np.ones(2 * k), np.zeros(k)])
    a_ub = np.zeros((2 * k + 1, nv))
    b_ub = np.zeros(2 * k + 1)
    a_ub[:k, :k] = gf
    a_ub[:k, k:2 * k] = -gf
    a_ub[:k, 2 * k:] = -np.eye(k)
    b_ub[:k] = -glast
    a_ub[k:2 * k, :k] = -gf
    a_ub[k:2 * k, k:2 * k] = gf
    a_ub[k:2 * k, 2 * k:] = -np.eye(k)
    b_ub[k:2 * k] = glast
    a_ub[2 * k, 2 * k:] = 1.0
    b_ub[2 * k] = budget
    try:
        sol = solve_lp(cost, a_ub=a_ub, b_ub=b_ub)
    except LpInfeasible as exc:
        raise LearningFailure("corrupt statistics: annihilator LP infeasible") from exc
    except LpError as exc:
        # the cost is nonnegative, so "unbounded" is a numerical fault, not the LP's optimum
        raise LearningFailure(f"annihilator LP failed: {exc}") from exc
    lam = np.empty(k + 1)
    lam[:k] = sol.x[:k] - sol.x[k:2 * k]
    lam[k] = 1.0
    return lam


def polynomial_roots(lam):
    """Real parts of the roots of the monic polynomial sum lam_l x^l, sorted ascending.

    Roots are the eigenvalues of the companion matrix, which are backward
    stable (Edelman and Murakami, "Polynomial roots from companion matrix
    eigenvalues", 1995).  They are not clamped: the caller maps them into its
    own frame first.
    """
    lam = np.asarray(lam, dtype=float)
    k = lam.size - 1
    if k < 1:
        raise InputError("need a polynomial of degree at least 1")
    if abs(lam[k] - 1.0) > 1e-9:
        raise InputError("leading coefficient must be 1")
    if k == 1:
        roots = np.array([-lam[0]])
    else:
        comp = np.zeros((k, k))
        comp[1:, :-1] = np.eye(k - 1)
        comp[:, -1] = -lam[:k]
        roots = np.linalg.eigvals(comp)  # LAPACK balances internally
    if not np.all(np.isfinite(roots)):
        raise RuntimeError(f"companion eigenvalue iteration failed for {lam!r}")
    return np.sort(roots.real)


def solve_weights(locations, g, tol=1e-12, max_iter=100000, patience=200):
    """Simplex-constrained least squares: min ||y V_2k(locations) - g||_2^2.

    Accelerated projected gradient with exact Euclidean simplex projection;
    stops once no iteration in the trailing window improved the objective by
    more than ``tol``.  A final active-set polish solves the equality-
    constrained problem on the identified support exactly, which is what the
    enumeration oracle in the tests does face by face.
    """
    locations = np.asarray(locations, dtype=float)
    g = np.asarray(g, dtype=float)
    k = locations.size
    if g.shape != (2 * k,):
        raise InputError("moment vector must have length 2k")
    if k == 1:
        return np.ones(1)
    v = vandermonde(locations, 2 * k)
    gram = v @ v.T
    lip = 2.0 * max(np.linalg.eigvalsh(gram)[-1], 1e-12)
    step = 1.0 / lip

    def objective(y):
        resid = y @ v - g
        return float(resid @ resid)

    y = np.full(k, 1.0 / k)
    best = y.copy()
    best_obj = objective(y)
    z = y.copy()
    t_momentum = 1.0
    stalled = 0
    for _ in range(max_iter):
        grad = 2.0 * ((z @ v - g) @ v.T)
        y_next = project_to_simplex(z - step * grad)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum**2))
        z = y_next + ((t_momentum - 1.0) / t_next) * (y_next - y)
        y, t_momentum = y_next, t_next
        obj = objective(y)
        if obj < best_obj - tol:
            best_obj = obj
            best = y.copy()
            stalled = 0
        else:
            stalled += 1
            if stalled >= patience:
                break

    polished = _polish_support(best, v, g)
    if polished is not None and objective(polished) <= best_obj + tol:
        return polished
    return best


def _polish_support(y, v, g, floor=1e-12):
    """Solve min ||y V - g||^2 with sum(y)=1 exactly on the support of y."""
    support = np.nonzero(y > floor)[0]
    if support.size == 0:
        return None
    vs = v[support]
    m = support.size
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * (vs @ vs.T)
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.concatenate([2.0 * (vs @ g), [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    ys = sol[:m]
    if ys.min() < -1e-10:
        return None
    full = np.zeros_like(y)
    full[support] = np.clip(ys, 0.0, None)
    total = full.sum()
    if total <= 0:
        return None
    return full / total


def learn_spike_locations(nu: MomentVector, xi: float):
    """The locations stage of the 1-D learner: (raw moments, sorted spike locations).

    NBMs -> raw moments -> annihilator LP at moment accuracy ``xi`` -> roots
    clamped to [0, 1].  For k >= 2 the LP sees the moments of (x - c) / s,
    g'_l = sum_i C(l, i) (-c)^(l-i) g_i / s^l, with c = g_1/g_0 and
    s = 2 sqrt(g_2/g_0 - c^2), and each root z maps back to c + s z.  Spikes
    that cluster inside [0, 1] make the Hankel of raw moments about 0 nearly
    singular; about their mean, at unit spread, it is far better conditioned.
    The weights are a separate stage (``fit_spike_weights``), run only where
    they are read, on the raw moments.
    """
    g = nbm_to_moments(nu)
    if abs(g.values[0] - 1.0) > 0.1:
        raise InputError("corrupt statistics: zeroth moment deviates from 1 by > 0.1")
    k = nu.k
    if k == 1:  # no second moment to centre with
        return g, np.clip(polynomial_roots(solve_lambda(g.values, xi, k)), 0.0, 1.0)
    g0, g1, g2 = g.values[:3]
    c = g1 / g0
    var = g2 / g0 - c * c
    if not var > 0.0:
        raise LearningFailure(f"corrupt statistics: moment variance {var:.3e} is not positive")
    s = 2.0 * math.sqrt(var)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        centred = nu.values @ _centring_matrix(k, c) / s ** np.arange(2 * k)
    if not np.all(np.isfinite(centred)):
        raise LearningFailure(f"corrupt statistics: moments about the mean overflow at spread {s:.3e}")
    z = polynomial_roots(solve_lambda(centred, xi, k))
    return g, np.clip(c + s * z, 0.0, 1.0)


def _centring_matrix(k: int, c: float) -> np.ndarray:
    """B with nu @ B = sum_i C(l, i) (-c)^(l-i) g_i, the moments about c, read off the NBMs.

    Column l holds the coefficients of (x - c)^l in the basis x^i (1-x)^(2k-1-i),
    those of ((1-c) u - c)^l (1 + u)^(2k-1-l) in u = x/(1-x).  Shifting the raw
    moments instead sums terms whose rounding reaches about (2c)^l eps; read off
    the NBMs it stays near max(c, 1-c)^l eps.  For spikes packed near 1 that
    is the difference between a garbled and an accurate input to the LP.
    """
    m = 2 * k - 1
    cols = [np.convolve([math.comb(l, j) * (1.0 - c) ** j * (-c) ** (l - j) for j in range(l + 1)],
                        [math.comb(m - l, r) for r in range(m - l + 1)]) for l in range(m + 1)]
    return np.array(cols).T


def fit_spike_weights(locations, g: MomentVector) -> KSpikeDistribution:
    """The weights stage: fit simplex weights at ``locations`` to the raw moments ``g``."""
    weights = solve_weights(locations, g.values)
    weights = weights / weights.sum()
    if logger.isEnabledFor(logging.DEBUG):
        # fit residual; the sensitivity analysis bounds it but the constant
        # is too loose to assert per call
        residual = np.linalg.norm(weights @ vandermonde(locations, 2 * g.k) - g.values)
        logger.debug("k-spike fit residual ||y V - g|| = %.3e", residual)
    return KSpikeDistribution(weights=weights, locations=locations)


def learn_kspike_from_nbm(nu: MomentVector, xi: float) -> KSpikeDistribution:
    """Run the moment pipeline on an NBM vector (exact or empirical): both stages."""
    g, locations = learn_spike_locations(nu, xi)
    return fit_spike_weights(locations, g)
