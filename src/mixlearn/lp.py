"""Dense two-phase simplex solver for the small linear programs used here.

Every LP in this package is tiny (tens of variables), so the implementation
favours determinism over speed: Bland's anti-cycling pivot rule, dense
tableau arithmetic, explicit tolerances.

Problems are stated as

    minimize    c . x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                x >= 0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpError",
    "LpInfeasible",
    "LpUnbounded",
    "LpSolution",
    "solve_lp",
]


class LpError(Exception):
    """Raised when the solver fails to make progress (iteration cap)."""


class LpInfeasible(LpError):
    """Raised when the feasible region is empty."""


class LpUnbounded(LpError):
    """Raised when the objective is unbounded below."""


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float
    iterations: int


def _canonical(c, a_ub, b_ub, a_eq, b_eq):
    """Build the equality form [A | slacks] x = b with b >= 0.

    Returns (a, b, c_ext, n_orig, slack_ok) where slack_ok[i] is the slack
    column usable as the initial basis of row i (-1 when an artificial
    variable is required).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        if a_ub.shape != (b_ub.size, n):
            raise ValueError("inconsistent a_ub/b_ub shapes")
    else:
        a_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        if a_eq.shape != (b_eq.size, n):
            raise ValueError("inconsistent a_eq/b_eq shapes")
    else:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    a = np.zeros((m, n + m_ub))
    a[:m_ub, :n] = a_ub
    a[m_ub:, :n] = a_eq
    a[:m_ub, n:] = np.eye(m_ub)
    b = np.concatenate([b_ub, b_eq])

    slack_ok = np.full(m, -1, dtype=int)
    for i in range(m):
        if b[i] < 0.0:
            a[i] *= -1.0
            b[i] *= -1.0
        elif i < m_ub:
            # untouched <= row keeps its +1 slack as a ready-made basis column
            slack_ok[i] = n + i
    c_ext = np.concatenate([c, np.zeros(m_ub)])
    return a, b, c_ext, n, slack_ok


def _pivot(t, basis, row, col):
    t[row] /= t[row, col]
    factor = t[:, col].copy()
    factor[row] = 0.0
    t -= np.outer(factor, t[row])
    basis[row] = col


def _run_simplex(t, basis, tol, max_iter):
    """Minimize the objective carried in the last tableau row (Bland's rule)."""
    m = t.shape[0] - 1
    it = 0
    while True:
        reduced = t[-1, :-1]
        negatives = np.nonzero(reduced < -tol)[0]
        if negatives.size == 0:
            return it
        enter = negatives[0]
        col = t[:m, enter]
        feasible = col > tol
        if not feasible.any():
            raise LpUnbounded("objective unbounded below")
        ratios = np.full(m, np.inf)
        ratios[feasible] = t[:m, -1][feasible] / col[feasible]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        leave = ties[np.argmin(np.asarray(basis)[ties])]
        _pivot(t, basis, leave, enter)
        it += 1
        if it > max_iter:
            raise LpError("simplex iteration limit exceeded")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, tol=1e-10, max_iter=50000):
    """Solve the LP; raises LpInfeasible / LpUnbounded as appropriate."""
    a, b, c_ext, n, slack_ok = _canonical(c, a_ub, b_ub, a_eq, b_eq)
    m, ncols = a.shape

    # equilibrate: badly mixed row/column scales wreck the pivot tolerances
    row_scale = np.abs(a).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    a = a / row_scale[:, None]
    b = b / row_scale
    col_scale = np.abs(a).max(axis=0)
    col_scale[col_scale == 0.0] = 1.0
    a = a / col_scale[None, :]
    c_scaled = c_ext * (1.0 / col_scale)
    c_norm = np.abs(c_scaled).max()
    if c_norm > 0.0:
        c_scaled = c_scaled / c_norm
    c_ext_orig = c_ext
    c_ext = c_scaled

    need_art = np.nonzero(slack_ok < 0)[0]
    n_art = need_art.size
    t = np.zeros((m + 1, ncols + n_art + 1))
    t[:m, :ncols] = a
    t[:m, -1] = b
    basis = list(slack_ok)
    for j, i in enumerate(need_art):
        t[i, ncols + j] = 1.0
        basis[i] = ncols + j
    for i in range(m):
        t[i] /= t[i, basis[i]]  # scaled slack columns are not unit

    iters = 0
    if n_art:
        # phase 1: minimize the artificial mass
        t[-1, :] = -t[need_art].sum(axis=0)
        t[-1, ncols:ncols + n_art] = 0.0
        iters += _run_simplex(t, basis, tol, max_iter)
        if t[-1, -1] < -1e-8:
            raise LpInfeasible("phase-1 optimum positive: no feasible point")
        # drive leftover artificials out of the basis (or drop redundant rows)
        drop = []
        for i in range(m):
            if basis[i] >= ncols:
                pivots = np.nonzero(np.abs(t[i, :ncols]) > tol)[0]
                if pivots.size:
                    _pivot(t, basis, i, pivots[0])
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            t = t[keep + [m]]
            basis = [basis[i] for i in keep]
            m = len(keep)
        t = np.delete(t, np.s_[ncols:ncols + n_art], axis=1)

    # phase 2 objective: reduced costs of c_ext relative to the current basis
    t[-1, :] = 0.0
    t[-1, :ncols] = c_ext
    for i in range(m):
        if t[-1, basis[i]] != 0.0:
            t[-1] -= t[-1, basis[i]] * t[i]
    iters += _run_simplex(t, basis, tol, max_iter)

    x = np.zeros(ncols)
    for i in range(m):
        x[basis[i]] = t[i, -1]
    x = x / col_scale  # undo the column substitution
    x_orig = x[:n]
    return LpSolution(x=x_orig, value=float(np.dot(c_ext_orig[:n], x_orig)), iterations=iters)
