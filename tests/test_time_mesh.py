import numpy as np
import pytest
from hypothesis import given, strategies as st

from subdiff.time_mesh import TimeMesh, mesh_from_levels, uniform_mesh


def test_uniform_mesh_basic():
    mesh = uniform_mesh(4, 2.0)
    assert mesh.N == 4
    assert mesh.T == 2.0
    assert mesh.uniform
    np.testing.assert_allclose(mesh.levels, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(mesh.steps, 0.5)
    assert mesh.k_min == mesh.steps.max() == 0.5
    assert mesh.step(1) == 0.5
    assert mesh.level(0) == 0.0
    assert mesh.midpoint(3) == pytest.approx(1.25)


def test_index_bounds():
    mesh = uniform_mesh(3, 1.0)
    with pytest.raises(ValueError):
        mesh.step(0)
    with pytest.raises(ValueError):
        mesh.step(4)
    with pytest.raises(ValueError):
        mesh.level(-1)
    with pytest.raises(ValueError):
        mesh.level(4)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.5, 1.0]))  # must start at zero
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.0, 1.0, 1.0]))  # nondecreasing step
    with pytest.raises(ValueError):
        uniform_mesh(0, 1.0)
    with pytest.raises(ValueError):
        uniform_mesh(4, -1.0)


@pytest.mark.parametrize("build", [
    lambda: TimeMesh(np.array([0.0, 1.0, np.inf])),
    lambda: TimeMesh(np.array([0.0, np.nan, 1.0])),
    lambda: mesh_from_levels([0.0, np.nan, 1.0]),
    lambda: mesh_from_levels([0.0, 1.0, -np.inf]),
])
def test_non_finite_levels_rejected(build):
    with pytest.raises(ValueError, match="time levels must be finite"):
        build()


@pytest.mark.parametrize("T", [np.nan, np.inf, 0.0])
def test_uniform_mesh_names_t(T):
    with pytest.raises(ValueError, match="final time T must be positive and finite"):
        uniform_mesh(4, T)


def test_uniform_is_derived_from_the_levels():
    """The flag is computed, never passed: steps alternating 1.0 / 1.5 are
    not uniform however the mesh is built."""
    levels = np.concatenate([[0.0], np.cumsum([1.0, 1.5] * 4)])
    with pytest.raises(TypeError):
        TimeMesh(levels, uniform=True)
    assert not TimeMesh(levels).uniform
    assert not mesh_from_levels(levels).uniform
    assert TimeMesh(uniform_mesh(8, 3.0).levels).uniform


def test_quasiuniformity_gate():
    ok = mesh_from_levels([0.0, 0.5, 1.5, 2.5])  # ratio 2
    assert not ok.uniform
    with pytest.raises(ValueError, match="quasiuniform"):
        mesh_from_levels([0.0, 0.1, 1.0])  # ratio 9
    u = mesh_from_levels(np.linspace(0.0, 1.0, 9))
    assert u.uniform


def test_linspace_levels_are_uniform():
    """The levels uniform_mesh builds count as uniform although their float
    steps differ in the last bits; a perturbed copy does not."""
    levels = uniform_mesh(300, 6.0).levels
    assert np.ptp(np.diff(levels)) > 0.0
    assert mesh_from_levels(levels).uniform
    bumped = levels.copy()
    bumped[150] += 1e-3
    assert not mesh_from_levels(bumped).uniform


@given(st.lists(st.floats(0.5, 1.0), min_size=1, max_size=40))
def test_arbitrary_quasiuniform_meshes_accepted(steps):
    levels = np.concatenate([[0.0], np.cumsum(steps)])
    mesh = mesh_from_levels(levels)
    assert mesh.N == len(steps)
    np.testing.assert_allclose(mesh.steps, steps)
    assert mesh.steps.max() / mesh.k_min <= 2.0 + 1e-12
