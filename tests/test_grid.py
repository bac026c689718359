import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import Grid1D, TimeLevels, build_grid, cfl_timestep, make_model
from fvbound.grid import column_sums, window_sums
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


def _window_block(W, B, m, low, span, zeros, seed):
    """A (W, B, m) block whose levels each lie contiguous in memory, as the
    residual and exact passes hold them."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(low, low + span, size=(B, W, m))
    values = rng.standard_normal((B, W, m)) * magnitudes + 0.0  # no -0.0
    values[rng.random((B, W, m)) < zeros] = 0.0
    return values.transpose(1, 0, 2)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), J=st.integers(1, 40_000), B=st.integers(1, 6), m=st.sampled_from([1, 2]),
       low=st.integers(-330, 6), span=st.integers(0, 12), zeros=st.sampled_from([0.0, 0.5, 1.0]),
       contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(data=None, J=16_385, B=2, m=1, low=-3, span=6, zeros=0.0, contiguous=False, seed=0)
def test_window_sums_equal_the_zero_padded_rows_bit_for_bit(data, J, B, m, low, span, zeros,
                                                            contiguous, seed):
    """Per level, window_sums of a (W, B, m) block placed at rows
    first..first+W-1 gives the sum of the zero (J, m) rows holding it, as
    float hex: any J past numpy's 8,192-value buffer, windows at cell 0 and
    at the end down to one cell, subnormal and +0.0 terms; the example is
    the wide, few-level shape (W = 3000, B = 2).  The block's levels lie
    contiguous, or (contiguous) the block is C-contiguous."""
    if data is None:
        W, first = 3000, 5000
    else:
        W = data.draw(st.one_of(st.just(1), st.just(J), st.integers(1, J)))
        first = data.draw(st.one_of(st.just(0), st.just(J - W), st.integers(0, J - W)))
    block = _window_block(W, B, m, low, span, zeros, seed)
    if contiguous:
        block = np.ascontiguousarray(block)
    want = []
    for b in range(B):
        rows = np.zeros((J, m))
        rows[first:first + W] = block[:, b]
        want.append([float(v).hex() for v in np.sum(rows, axis=0)])
    got = window_sums(block, first, J)
    assert got.shape == (B, m)
    assert [[float(v).hex() for v in row] for row in got] == want
