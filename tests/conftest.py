import numpy as np
import pytest

from mixlearn.isotropize import ItemMap
from mixlearn.model import KSpikeDistribution, MixtureSource


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spikes(gen, k, min_weight=0.02):
    """Random k-spike distribution with weights bounded away from 0."""
    w = gen.dirichlet(np.ones(k))
    w = (w + min_weight) / (1.0 + k * min_weight)
    locs = np.sort(gen.random(k))
    return KSpikeDistribution(w, locs)


def identity_map(n):
    """The item map that keeps every item as its one copy."""
    return ItemMap(sigma=0.0, splits=np.ones(n, dtype=np.int64), offsets=np.arange(n))


def two_block_source(n=10, c=0.8, w=(0.5, 0.5)):
    """Wide isotropic 2-mixture: antipodal +-c perturbations of uniform."""
    assert n % 2 == 0
    s = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    p1 = (1.0 + c * s) / n
    p2 = (1.0 - c * s) / n
    return MixtureSource(np.array(w), np.vstack([p1, p2]))
