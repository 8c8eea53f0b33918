"""Output checks made apart from the program under test.

None of these calls into mixlearn: the transport distance is solved again with
``scipy.optimize.linprog`` (HiGHS, not the in-repo dense simplex), the rank of
the true covariance comes from ``scipy.linalg.eigh``, and the other checks are
properties any correct answer has.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linprog

# every learned mixture must be this many times closer to the truth than the
# trivial answer (k copies of the true mean)
WIDE_FACTOR = 10.0
SIMPLEX_TOL = 1e-9


def transport_lp(wa, pa, wb, pb):
    """Transportation distance between two mixtures under total variation."""
    cost = 0.5 * np.abs(pa[:, None, :] - pb[None, :, :]).sum(axis=2)
    ka, kb = cost.shape
    a_eq = np.zeros((ka + kb, ka * kb))
    for i in range(ka):
        a_eq[i, i * kb:(i + 1) * kb] = 1.0
    for j in range(kb):
        a_eq[ka + j, j::kb] = 1.0
    # HiGHS's default feasibility tolerance (1e-7) moves the optimum by ~1e-8,
    # which is a large share of the ~1e-4 distances oracle runs reach
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([wa, wb]), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def covariance_rank(weights, constituents, rel_tol=1e-10):
    """Rank of sum_t w_t (p_t - r)(p_t - r)^T with r the mixture mean."""
    centered = constituents - weights @ constituents
    cov = (centered.T * weights) @ centered
    eigenvalues = eigh(cov, eigvals_only=True)
    return int(np.sum(eigenvalues > rel_tol * max(eigenvalues.max(), 0.0)))


def check_instances(truth, mode, eps, results):
    """Problems found in ``results``, a list of (seed, tran_dist, kprime, learned).

    ``truth`` and each learned mixture are (weights, constituents) arrays.
    """
    w, p = truth
    problems = []
    rank = covariance_rank(w, p)
    if rank != w.size - 1:
        problems.append(f"true covariance has rank {rank}, expected k-1 = {w.size - 1}")
    trivial = float(w @ (0.5 * np.abs(p - w @ p).sum(axis=1)))
    for seed, tran, kprime, (lw, lp) in results:
        where = f"seed {seed}"
        if lw.min() < -SIMPLEX_TOL or abs(lw.sum() - 1.0) > SIMPLEX_TOL:
            problems.append(f"{where}: learned weights are not on the simplex")
        if lp.min() < -SIMPLEX_TOL or np.abs(lp.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
            problems.append(f"{where}: a learned constituent is not on the simplex")
        reference = transport_lp(w, p, lw, lp)
        if abs(tran - reference) > 1e-10 + 1e-6 * reference:
            problems.append(f"{where}: tran_dist {tran!r} but the reference LP gives {reference!r}")
        if WIDE_FACTOR * reference > trivial:
            problems.append(f"{where}: transport {reference:.4g} is not {WIDE_FACTOR:g} times "
                            f"below the trivial answer's {trivial:.4g}")
        if mode == "sampled" and kprime != rank:
            problems.append(f"{where}: kept rank {kprime}, true covariance rank {rank}")
        # exact moments leave no sampling error, so the run's accuracy target holds outright
        if mode == "oracle" and reference > eps:
            problems.append(f"{where}: transport {reference:.4g} above eps {eps:g} on exact moments")
    return problems
