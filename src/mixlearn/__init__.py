"""Learning mixtures of discrete distributions from low-aperture snapshots.

The pipeline learns the k constituents and weights of a mixture over a large
discrete domain from 1-, 2-, and (2k-1)-snapshot samples: spectral dimension
reduction from 2-snapshots, a method-of-moments learner for one-dimensional
projections at aperture 2k-1, and geometric reconciliation of the learned
projections.  Lower-bound constructions showing aperture 2k-1 is necessary
ship alongside as executable demonstrations.
"""

from .model import (
    InputError,
    LearningFailure,
    KSpikeDistribution,
    MixtureSource,
    TransportPlan,
    WidthReport,
    mixture_transport,
    spike_transport,
    transport_distance,
    width_report,
)
from .sampling import RngStream, SnapshotBatch, binarize, draw_snapshots
from .isotropize import ItemMap, build_refinement, default_sigma, estimate_r, pull_back
from .spectral import SpectralSubspace, empirical_M, estimate_A, random_basis
from .kspike import (
    MomentVector,
    PascalPair,
    empirical_nbm,
    learn_kspike_from_nbm,
    nbm_to_moments,
    pascal_pair,
    polynomial_roots,
    solve_lambda,
    solve_weights,
)
from .learner import (
    DirectionResult,
    DrawnInputs,
    LearnerConstants,
    LearnResult,
    Matching,
    MatchingFailure,
    OracleInputs,
    learn_direction,
    learn_mixture,
    match_spikes,
    simplex_project_l1,
)
from .lower_bounds import HardPair, aperture_indistinguishability, hard_pair, sample_lower_bound, tv_snapshot_distance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
