import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixlearn.linalg import jacobi_eigh, project_to_simplex


def assert_descending_eigendecomposition(a, w, v):
    n = a.shape[0]
    assert w.shape == (n,) and v.shape == (n, n)
    assert np.all(np.diff(w) <= 0.0)
    assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
    assert np.abs((v * w) @ v.T - a).max() < 1e-10 * max(1.0, np.linalg.norm(a))


def test_jacobi_eigh_descending_orthonormal_reconstructs(rng):
    for n in range(1, 31):
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = jacobi_eigh(a)
        assert_descending_eigendecomposition(a, w, v)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-100.0, 100.0, allow_subnormal=False))))
def test_jacobi_eigh_property_on_random_symmetric(a):
    a = a + a.T
    w, v = jacobi_eigh(a)
    assert_descending_eigendecomposition(a, w, v)


def test_jacobi_zero_and_diagonal():
    w, v = jacobi_eigh(np.zeros((3, 3)))
    assert np.all(w == 0.0)
    w, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, -1.0])


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(deadline=None, max_examples=80)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8))
def test_simplex_projection_properties(vals):
    x = project_to_simplex(np.array(vals))
    assert x.min() >= 0.0
    assert x.sum() == pytest.approx(1.0, abs=1e-9)
    # optimality via the KKT characterization: entries above the water level
    # keep a common offset, the rest are clamped at zero
    v = np.array(vals)
    active = x > 0
    offs = v[active] - x[active]
    assert np.ptp(offs) < 1e-9 if active.sum() > 1 else True
    if (~active).any() and active.any():
        assert v[~active].max() <= v[active].min() + 1e-9
