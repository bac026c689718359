import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvbound import Grid1D, TimeLevels, build_grid, cfl_timestep, make_model
from fvbound.grid import column_sums
from fvbound.residual import _padded
from fvbound.solver import run


def test_build_grid_coarsest_two_cells():
    grid = build_grid(-5.0, 5.0, 0)
    assert grid.J == 2
    assert grid.dx == pytest.approx(5.0)


def test_build_grid_level_seven():
    grid = build_grid(-5.0, 5.0, 7)
    assert grid.J == 256
    assert grid.dx == pytest.approx(10.0 / 256)


def test_build_grid_unit_interval():
    grid = build_grid(0.0, 1.0, 3)
    assert grid.J == 16
    assert grid.dx == pytest.approx(0.0625)


def test_build_grid_rejects_bad_domain():
    with pytest.raises(ValueError):
        build_grid(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        build_grid(2.0, 1.0, 2)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, -1)


def test_grid_geometry():
    grid = Grid1D(0.0, 1.0, 4)
    assert np.allclose(grid.interfaces(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(grid.centers(), [0.125, 0.375, 0.625, 0.875])
    assert grid.cell_bounds(2) == (0.5, 0.75)


def test_time_levels_validation():
    TimeLevels(np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        TimeLevels(np.array([0.0, 0.2, 0.1]))


def test_cfl_burgers_constant_state():
    grid = Grid1D(0.0, 1.0, 10)  # dx = 0.1
    model = make_model("burgers")
    states = np.full((10, 1), 2.0)
    assert cfl_timestep(states, model, grid, 0.9) == pytest.approx(0.045)


def test_cfl_burgers_mixed_states():
    grid = Grid1D(0.0, 1.0, 10)
    model = make_model("burgers")
    states = np.array([[1.0], [-3.0]] * 5)
    assert cfl_timestep(states, model, grid, 0.9) == pytest.approx(0.03)


def test_cfl_psystem_rest_state():
    grid = Grid1D(0.0, 1.0, 10)
    model = make_model("psystem", C=1.0, gamma=1.4)
    states = np.tile([1.0, 0.0], (10, 1))
    expected = 0.9 * 0.1 / math.sqrt(1.4)
    assert cfl_timestep(states, model, grid, 0.9) == pytest.approx(expected, rel=1e-12)


def test_cfl_zero_speed_returns_configured_max():
    grid = Grid1D(0.0, 1.0, 10)
    model = make_model("burgers")
    states = np.zeros((10, 1))
    assert cfl_timestep(states, model, grid, 0.9, max_dt=0.7) == 0.7
    assert cfl_timestep(states, model, grid, 0.9) == math.inf


def test_cfl_scans_ghost_states():
    grid = Grid1D(0.0, 1.0, 10)
    model = make_model("burgers")
    states = np.full((10, 1), 1.0)
    dt = cfl_timestep(states, model, grid, 0.9,
                      ghost_left=np.array([1.0]), ghost_right=np.array([5.0]))
    assert dt == pytest.approx(0.9 * 0.1 / 5.0)


def test_run_respects_cfl_and_partitions_time():
    model = make_model("psystem", C=1.0, gamma=1.4)
    grid = build_grid(-5.0, 5.0, 4)
    rng = np.random.default_rng(7)
    states = np.column_stack([rng.uniform(0.5, 1.5, grid.J), rng.uniform(-0.5, 0.5, grid.J)])
    sol = run(states, model, "llf", grid, 0.9, 0.0, 0.3)
    t = sol.times.t
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.3, rel=1e-14)
    total = np.diff(t).sum()
    assert total == pytest.approx(0.3, rel=1e-12)
    for n in range(sol.n_steps):
        lam = np.abs(model.wave_speeds(_padded(sol, n))).max()
        assert sol.times.dt(n) * lam / grid.dx <= 0.9 + 1e-12


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), J=st.integers(1, 9000),
       low=st.integers(-12, 6), span=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_column_sums_equal_axis0_sum_bit_for_bit(m, J, low, span, seed):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(low, low + span, size=(J, m))
    a = rng.standard_normal((J, m)) * magnitudes
    assert column_sums(a).tobytes() == a.sum(axis=0).tobytes()
