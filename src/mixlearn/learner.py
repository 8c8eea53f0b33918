"""Top-level mixture learner.

Stages: estimate the mean distribution and the 2-snapshot matrix, extract the
thresholded covariance eigenspace, learn the 1-D projection of the mixture on
a random orthonormal basis of that space (and on rotated test directions),
reconcile the per-direction spikes into k points, and project each point onto
the simplex in l1.  Matching reads only spike locations, so a direction's
spike weights are fitted only for the basis directions, once matching has
succeeded.  Each direction is first flattened by the direction
program (least l-inf norm at a given overlap with the direction), which
``solve_direction_program`` solves exactly in closed form.

A run whose statistics cannot be fitted ends in ``LearningFailure``;
``MatchingFailure`` is the case where the spikes do not reconcile.

Three statistics regimes share the code path.  Each inputs class is its own
statistics: ``n``, ``subspace`` (the thresholded covariance eigenspace, with
the mean it is centred on), ``allocate`` (the per-direction sample slots) and
``direction_nbm``, plus a ``statistics`` tag the manifest records.

- ``OracleInputs`` feeds exact moments everywhere (for calibration
  experiments against a known source);
- ``DrawnInputs`` feeds what the learner would read off snapshots drawn from
  a known source, drawn straight from its exact sampling law: item counts,
  pair counts and, per direction, the histogram of how many of a
  (2k-1)-snapshot's projected bits are set, each multinomial over cell
  probabilities the oracle regime computes.  No snapshot row is built, so
  the cost is O(n^2) whatever the sample counts;
- ``SampledInputs`` feeds snapshot batches: data under the identity
  ``ItemMap``, or the rows that survive the isotropizing reduction.

``DrawnInputs`` and ``SampledInputs`` give statistics with the same law for
one direction.  They differ across the matching retries: rows of a test slot
are re-projected on every retry, so the retries' histograms are correlated,
while drawn histograms are fresh on every call.  This only matters when the
learner keeps two or more directions (kprime >= 2, so k >= 3 unless noise
lifts a spurious eigenvalue over the threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kspike import (
    MomentVector,
    binom_profile_matrix,
    empirical_nbm,
    fit_spike_weights,
    learn_kspike_from_nbm,  # not called here; perfbench/tracing.py patches this name
    learn_spike_locations,
    xi_for_sample_count,
)
from .model import InputError, LearningFailure, MixtureSource, check_locations
from .sampling import RngStream, SnapshotBatch, binarize
from .spectral import empirical_M, estimate_A, random_basis
from .isotropize import ItemMap, estimate_r, refined_subspace

__all__ = [
    "LearnerConstants",
    "DirectionResult",
    "Matching",
    "MatchingFailure",
    "OracleInputs",
    "DrawnInputs",
    "SampledInputs",
    "LearnResult",
    "solve_direction_program",
    "learn_direction",
    "match_spikes",
    "simplex_project_l1",
    "learn_mixture",
]

MATCH_RETRIES = 8  # test angles tried before matching gives up


@dataclass(frozen=True)
class LearnerConstants:
    """Derived constants of the pipeline for a given parameter set."""

    n: int
    k: int
    zeta: float
    omega: float
    delta: float
    w_min: float

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise InputError("n and k must be positive")
        if not 0.0 < self.zeta <= 1.0:
            raise InputError("zeta must lie in (0, 1]")
        if self.omega < 1.0:
            raise InputError("omega must be at least 1")
        if self.delta <= 0.0:
            raise InputError("delta must be positive")
        if not 0.0 < self.w_min <= 1.0:
            raise InputError("w_min must lie in (0, 1]")

    @property
    def T(self):
        return 3.0 * self.omega * self.k**4

    @property
    def H(self):
        return 4.0 / (self.w_min**2 * self.zeta * math.sqrt(self.n))

    @property
    def L(self):
        return self.zeta / (64.0 * self.omega**1.5 * self.k**4 * math.sqrt(self.n))

    @property
    def match_tol(self):
        return (math.sqrt(2.0) + 1.0) * self.L / (2.0 + 5.0 * self.T)

    @property
    def delta_bound(self):
        return self.w_min**3 * self.zeta**4 / (2.0**29 * self.omega**5 * self.k**16)

    @property
    def delta_ok(self):
        """Whether delta meets the conservative analysis bound (advisory)."""
        return self.delta <= self.delta_bound

    def as_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "zeta": self.zeta,
            "omega": self.omega,
            "delta": self.delta,
            "w_min": self.w_min,
            "T": self.T,
            "H": self.H,
            "L": self.L,
            "match_tol": self.match_tol,
            "delta_ok": self.delta_ok,
        }


class MatchingFailure(LearningFailure):
    """Per-direction spike sets could not be reconciled into bijections."""


@dataclass(frozen=True)
class DirectionResult:
    """Spike locations of the mixture's projection on one direction.

    ``locations`` lives in the learner's [0, 1] frame; the projections of the
    constituents on the direction are recovered affinely as
    ``scale * location + offset`` (see ``gammas``).  ``moments`` are the raw
    moments the locations were learned from, which ``fit_spike_weights``
    fits the weights to.
    """

    moments: MomentVector
    locations: np.ndarray
    scale: float
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "locations", check_locations(self.locations))

    @property
    def gammas(self):
        return self.scale * self.locations + self.offset


@dataclass(frozen=True)
class Matching:
    """Per-test-direction maps from spikes of the last basis direction.

    ``assignments[j][t]`` is the spike index on basis direction j matched to
    spike t of the last basis direction; each row is a bijection of [k].
    """

    assignments: np.ndarray  # (kprime - 1, k)


def solve_direction_program(v, delta, zeta):
    """Minimize ||x||_inf over { v.x >= 1 - 4 delta/zeta^2, ||x||_2 <= 1 }, exactly.

    For a cap c, the largest v.x over { ||x||_inf <= c, ||x||_2 <= 1 } clips
    a scaled copy of v: x = sign(v) min(s|v|, c).  With u = |v| sorted
    descending, S_j = u_1 + .. + u_j and T_j = u_{j+1}^2 + ..., clipping the
    j largest entries gives F(c) = c S_j + sqrt((1 - j c^2) T_j), and
    s = sqrt((1 - j c^2) / T_j).  F does not decrease in c; entry j reaches
    the cap at the breakpoint c_j = 1/sqrt(j - 1 + T_{j-1}/u_j^2).  For the
    largest j with F(c_j) >= t, the target t is reached on [c_{j+1}, c_j]
    (c_{j+1} = 0 past the last nonzero entry), and the smallest feasible cap
    is the smaller root of (S_j^2 + j T_j) c^2 - 2 t S_j c + (t^2 - T_j) = 0,
    clamped to that segment.  When T_j = 0 every nonzero entry is clipped
    and the root is c = t/S_j.  One sort and a few vector passes; returns
    the normalized optimizer a = x*/||x*||_2.
    """
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise InputError("direction must be a unit vector")
    target = 1.0 - 4.0 * delta / zeta**2
    if target <= 0.0:
        return v / np.linalg.norm(v)

    mag = np.abs(v)
    order = np.argsort(-mag, kind="stable")
    u = mag[order]
    sq = u * u
    nnz = int(np.count_nonzero(sq))  # entries whose square underflows never reach the cap
    u, sq = u[:nnz], sq[:nnz]
    head = np.cumsum(u)  # S_j
    rest = np.cumsum(sq[::-1])[::-1]  # T_{j-1}
    ratio = rest / sq
    knots = 1.0 / np.sqrt(np.arange(nnz) + ratio)  # c_j
    # F(c_j) with the j - 1 larger entries clipped, where s u_j = c_j
    reach = knots * (head - u + ratio * u)
    hits = np.flatnonzero(reach >= target)
    # no hit only when rounding leaves ||v|| a hair short of t; x = v then
    i = int(hits[-1]) if hits.size else 0
    j, s_j = i + 1, float(head[i])
    t_j = float(rest[j]) if j < nnz else 0.0  # T_j
    # the smaller root, in the form free of cancellation
    disc = t_j * max(s_j * s_j + j * t_j - j * target * target, 0.0)
    c = (target * target - t_j) / (target * s_j + math.sqrt(disc))
    c = min(max(c, float(knots[i + 1]) if j < nnz else 0.0), float(knots[i]))
    scale = math.sqrt(max(1.0 - j * c * c, 0.0) / t_j) if t_j > 0.0 else 0.0
    x = scale * v
    x[order[:j]] = c * np.sign(v[order[:j]])
    return x / np.linalg.norm(x)


def _multinomial_counts(gen, total, probs):
    """Cell counts of ``total`` iid draws over the cells of ``probs`` (flattened).

    Exact cell probabilities can come out a rounding error below 0 or off a
    unit sum; they are clipped at 0 and renormalized first.
    """
    p = np.clip(np.ravel(probs), 0.0, None)
    return gen.multinomial(total, p / p.sum())


@dataclass(frozen=True)
class OracleInputs:
    """Exact-statistics regime: moments computed from the true source."""

    source: MixtureSource

    statistics = "exact"

    @property
    def n(self):
        return self.source.n

    def mean_distribution(self):
        return self.source.mean()

    def two_snapshot_matrix(self):
        return self.source.second_moment_matrix()

    def subspace(self, zeta):
        rtilde = self.mean_distribution()  # drawn before the pair counts
        return estimate_A(self.two_snapshot_matrix(), rtilde, zeta)

    def allocate(self, n_slots):
        return [None] * n_slots

    def direction_nbm(self, slot, point_values, k, rng):
        biases = self.source.constituents @ point_values
        nu = self.source.weights @ binom_profile_matrix(biases, 2 * k)
        return MomentVector(kind="nbm", values=nu, k=k), None


@dataclass(frozen=True)
class DrawnInputs(OracleInputs):
    """Drawn-statistics regime: the statistics of snapshots from ``source``.

    ``samples1``, ``samples2`` and ``samples_hi`` count the 1-, 2- and
    (2k-1)-snapshots the statistics stand for; ``rng`` draws the item and
    pair counts (the learner's own streams draw the per-direction
    histograms).  Snapshots are iid draws from the mixture, so the item
    counts are Multinomial(N1, r), the ordered pair counts Multinomial(N2, M)
    over n^2 cells, and the bit-sum histogram of a slot of N_slot
    (2k-1)-snapshots projected on x is Multinomial(N_slot, C(2k-1, i) nu_i(x)).
    Each ``direction_nbm`` call draws a fresh histogram from the stream it is
    given.
    """

    samples1: int
    samples2: int
    samples_hi: int
    rng: RngStream

    statistics = "drawn"

    def mean_distribution(self):
        if self.samples1 < 1:
            raise InputError("need at least one 1-snapshot")
        gen = self.rng.child(1).generator()
        return _multinomial_counts(gen, self.samples1, super().mean_distribution()) / self.samples1

    def two_snapshot_matrix(self):
        if self.samples2 < 1:
            raise InputError("need at least one 2-snapshot")
        gen = self.rng.child(2).generator()
        counts = _multinomial_counts(gen, self.samples2, super().two_snapshot_matrix())
        counts = counts.reshape(self.n, self.n) / self.samples2
        return 0.5 * (counts + counts.T)  # as empirical_M symmetrizes

    def allocate(self, n_slots):
        # equal sample budget per Learn call, split as np.array_split splits rows
        q, extra = divmod(self.samples_hi, n_slots)
        return [q + 1 if j < extra else q for j in range(n_slots)]

    def direction_nbm(self, slot, point_values, k, rng):
        if slot < 1:
            raise InputError("empty (2k-1)-snapshot chunk for a direction")
        nu, _ = super().direction_nbm(None, point_values, k, rng)
        m = 2 * k - 1
        binom = np.array([math.comb(m, i) for i in range(m + 1)], dtype=float)
        counts = _multinomial_counts(rng.generator(), slot, binom * nu.values)
        return MomentVector(kind="nbm", values=counts / (slot * binom), k=k), slot


@dataclass(frozen=True)
class SampledInputs:
    """Snapshot regime: 1-, 2-, (2k-1)-aperture rows, learned on ``item_map``'s copies."""

    batch1: SnapshotBatch
    batch2: SnapshotBatch
    batch_hi: SnapshotBatch
    item_map: ItemMap

    statistics = "rows"

    @property
    def n(self):
        return self.item_map.nprime

    def subspace(self, zeta):
        n = self.item_map.n
        return refined_subspace(self.item_map, empirical_M(self.batch2, n),
                                estimate_r(self.batch1, n), zeta)

    def allocate(self, n_slots):
        # equal sample budget per Learn call
        return np.array_split(self.batch_hi.rows, n_slots)

    def direction_nbm(self, slot, point_values, k, rng):
        if slot.shape[0] == 0:
            raise InputError("empty (2k-1)-snapshot chunk for a direction")
        # point values are equal on an item's copies; read each at its first
        bits = binarize(point_values[self.item_map.offsets[slot]], rng)
        return empirical_nbm(bits, k), slot.shape[0]


def learn_direction(v, consts: LearnerConstants, inputs, slot, rng: RngStream,
                    xi=None) -> DirectionResult:
    """Learn the spike locations of the mixture projected on ``v``.

    Items are mapped to a/(2h) shifted by 1/2 into [0, 1], snapshots are
    binarized, the locations stage of the 1-D learner runs, and locations
    are rescaled by 2h (a.v) around the shift point.  The scale uses the
    tight bound h = ||a||_inf rather than the worst-case constant H (same
    [- 1/2, 1/2] support contract, far better resolution of the projected
    spikes).
    """
    a = solve_direction_program(v, consts.delta, consts.zeta)
    h = max(float(np.abs(a).max()), 1e-12)
    point_values = np.clip(a / (2.0 * h) + 0.5, 0.0, 1.0)
    nu, n_samples = inputs.direction_nbm(slot, point_values, consts.k, rng)
    if xi is None:
        xi = 1e-12 if n_samples is None else xi_for_sample_count(consts.k, n_samples)
    moments, locations = learn_spike_locations(nu, xi)
    scale = 2.0 * h * float(np.dot(a, v))
    return DirectionResult(moments=moments, locations=locations, scale=scale, offset=-0.5 * scale)


def _min_gap(values):
    values = np.sort(np.asarray(values, dtype=float))
    if values.size < 2:
        return math.inf
    return float(np.diff(values).min())


def match_spikes(alpha_dirs, zhat_dirs, theta, consts: LearnerConstants) -> Matching:
    """Reconcile spikes across directions via the rotated test directions.

    Spike t2 of the last basis direction matches spike t1 of direction j when
    the grid point alpha^j_t1 cos(theta) + alpha^last_t2 sin(theta) lands
    within the matching tolerance of some learned test-direction spike.
    Raises MatchingFailure when any map fails to be a bijection.

    The tolerance is a quarter of the smallest grid separation along the test
    direction, sized from the observed spike gaps, and never below the
    analysis tolerance (sqrt(2)+1) L / (2 + 5T), which alone presumes
    analysis-regime sample sizes.
    """
    alpha_dirs = np.asarray(alpha_dirs, dtype=float)
    zhat_dirs = np.asarray(zhat_dirs, dtype=float)
    kprime, k = alpha_dirs.shape
    if zhat_dirs.shape != (kprime - 1, k):
        raise InputError("need one test-direction spike set per non-final basis direction")
    last = alpha_dirs[-1]
    assignments = np.full((kprime - 1, k), -1, dtype=int)
    for j in range(kprime - 1):
        gap = min(_min_gap(alpha_dirs[j]) * abs(math.cos(theta)),
                  _min_gap(last) * abs(math.sin(theta)))
        tol_j = max(0.25 * gap, consts.match_tol)
        grid = alpha_dirs[j][:, None] * math.cos(theta) + last[None, :] * math.sin(theta)
        hit = np.abs(grid[:, :, None] - zhat_dirs[j][None, None, :]).min(axis=2) <= tol_j
        for t2 in range(k):
            t1s = np.nonzero(hit[:, t2])[0]
            if t1s.size != 1:
                raise MatchingFailure(
                    f"direction {j}: spike {t2} has {t1s.size} grid matches"
                )
            assignments[j, t2] = t1s[0]
        if len(set(assignments[j])) != k:
            raise MatchingFailure(f"direction {j}: matching is not a bijection")
    return Matching(assignments=assignments)


def simplex_project_l1(phat):
    """An l1-closest point of the probability simplex to ``phat``.

    Clip negatives, then move the water level t: surplus mass caps from
    above, x = min(q, t), as a raise of -q; deficit raises from below,
    x = max(q, t).  t is the first level (target - the others' mass) / m
    that lies between sorted entries m and m + 1 (to 1e-15), or the first
    below entry m + 1 should rounding leave none.  Matches the LP optimum
    (cost sum(max(-phat, 0)) + |sum(max(phat, 0)) - 1|).
    """
    phat = np.asarray(phat, dtype=float)
    q = np.maximum(phat, 0.0)
    s = q.sum()
    if abs(s - 1.0) <= 1e-15 and phat.min(initial=0.0) >= 0.0:
        return q
    surplus = s >= 1.0
    sign = -1.0 if surplus else 1.0
    order = np.sort(sign * q)
    level = (sign - (sign * s - np.cumsum(order))) / np.arange(1, q.size + 1)
    fits = level <= np.append(order[1:], 0.0 if surplus else math.inf) + 1e-15
    held = fits & (order - 1e-15 <= level)
    m = np.argmax(held) if held.any() else np.argmax(fits)
    return np.minimum(q, -level[m]) if surplus else np.maximum(q, level[m])


@dataclass(frozen=True)
class LearnResult:
    source: MixtureSource
    kprime: int
    degenerate: bool
    attempts: int
    manifest: dict = field(default_factory=dict)


def learn_mixture(inputs, k, zeta, omega, delta, w_min, rng: RngStream, xi=None) -> LearnResult:
    """Run the full pipeline on exact, drawn or sampled statistics.

    Parameters mirror the algorithm inputs: the width parameter ``zeta``,
    confidence scale ``omega``, accuracy scale ``delta``, and the minimum
    mixture weight ``w_min`` (an input; blind estimation of it is not
    supported).  ``xi`` overrides the 1-D learner's moment-accuracy
    parameter; by default it is derived from the per-direction sample count.
    Matching gets ``MATCH_RETRIES`` test angles.

    For a degenerate spectrum (kprime = 0) the best available answer is the
    mean distribution: the result carries k copies of it with uniform
    weights and the ``degenerate`` flag set.
    """
    consts = LearnerConstants(n=inputs.n, k=k, zeta=zeta, omega=omega, delta=delta, w_min=w_min)

    sub = inputs.subspace(zeta)
    rtilde = sub.rtilde
    kprime = sub.kprime
    manifest = {
        "constants": consts.as_dict(),
        "kprime": kprime,
        "threshold": sub.threshold,
        "seed": rng.seed,
        "stream": rng.stream,
        "mode": "oracle" if inputs.statistics == "exact" else "sampled",
        "statistics": inputs.statistics,
    }

    if kprime == 0:
        rt = np.clip(rtilde, 0.0, None)
        rt = rt / rt.sum()
        src = MixtureSource(np.full(k, 1.0 / k), np.tile(rt, (k, 1)))
        return LearnResult(source=src, kprime=0, degenerate=True, attempts=0,
                           manifest=manifest)

    basis = random_basis(sub, rng.child(1))
    n_slots = 2 * kprime - 1
    slots = inputs.allocate(n_slots)

    base_results = [
        learn_direction(basis[:, j], consts, inputs, slots[j], rng.child(10 + j), xi=xi)
        for j in range(kprime)
    ]
    alpha_dirs = np.array([r.gammas for r in base_results])

    attempts = 0
    if kprime == 1:
        matching = Matching(assignments=np.zeros((0, k), dtype=int))
    else:
        matching = None
        last_error = None
        for attempt in range(MATCH_RETRIES):
            attempts = attempt + 1
            theta = float(rng.child(1000 + attempt).generator().uniform(0.0, 2.0 * math.pi))
            test_results = [
                learn_direction(
                    math.cos(theta) * basis[:, j] + math.sin(theta) * basis[:, kprime - 1],
                    consts, inputs, slots[kprime + j], rng.child(2000 + attempt * 64 + j), xi=xi)
                for j in range(kprime - 1)
            ]
            zhat_dirs = np.array([r.gammas for r in test_results])
            try:
                matching = match_spikes(alpha_dirs, zhat_dirs, theta, consts)
                manifest["theta"] = theta
                break
            except MatchingFailure as exc:
                last_error = exc
        if matching is None:
            raise MatchingFailure(f"matching failed after {MATCH_RETRIES} retries: {last_error}")

    # assemble constituents: spike t of the last direction anchors point t;
    # only the basis directions' weights are read, so only they are fitted
    weight_dirs = np.array([fit_spike_weights(r.locations, r.moments).weights
                            for r in base_results])
    constituents = []
    weights = np.zeros(k)
    proj_r = basis.T @ rtilde
    for t in range(k):
        row_idx = [matching.assignments[j, t] for j in range(kprime - 1)] + [t]
        weights[t] = np.mean([weight_dirs[j][row_idx[j]] for j in range(kprime)])
        coeffs = np.array([alpha_dirs[j][row_idx[j]] - proj_r[j] for j in range(kprime)])
        phat = rtilde + basis @ coeffs
        constituents.append(simplex_project_l1(phat))
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    rows = np.array([c / c.sum() for c in constituents])
    source = MixtureSource(weights, rows)
    return LearnResult(source=source, kprime=kprime, degenerate=False, attempts=attempts,
                       manifest=manifest)
