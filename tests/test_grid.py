import functools
import math
import operator
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fvbound.grid
from fvbound import Grid1D, TimeLevels, build_grid, cfl_timestep, make_model
from fvbound.grid import level_blocks, window_sums
from fvbound.residual import _padded
from fvbound.solver import run

from oracles import column_sums


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


def _row_order_fold(column) -> float:
    """A column's terms added one at a time, in order, in Python floats."""
    return functools.reduce(operator.add, column)


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), J=st.integers(1, 9000),
       low=st.integers(-12, 6), span=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_column_sums_equal_the_row_order_fold_bit_for_bit(m, J, low, span, seed):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(low, low + span, size=(J, m))
    a = rng.standard_normal((J, m)) * magnitudes
    want = [_row_order_fold(column) for column in a.T.tolist()]
    assert column_sums(a).tobytes() == np.array(want).tobytes()


def _window_block(W, B, m, low, span, zeros, seed):
    """A (W, B, m) block whose levels each lie contiguous in memory, as the
    residual and exact passes hold them."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(low, low + span, size=(B, W, m))
    values = rng.standard_normal((B, W, m)) * magnitudes + 0.0  # no -0.0
    values[rng.random((B, W, m)) < zeros] = 0.0
    return values.transpose(1, 0, 2)


# A window of J cells holding a block of B levels: any J past numpy's
# 8,192-value buffer, subnormal and +0.0 terms.
_WINDOWS = dict(
    data=st.data(), J=st.integers(1, 40_000), B=st.integers(1, 6), m=st.sampled_from([1, 2]),
    low=st.integers(-330, 6), span=st.integers(0, 12), zeros=st.sampled_from([0.0, 0.5, 1.0]),
    contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1))
# the wide, few-level shape (W = 3000 at row 5000, B = 2)
_WIDE_WINDOW = dict(data=None, J=16_385, B=2, m=1, low=-3, span=6, zeros=0.0,
                    contiguous=False, seed=0)


def _drawn_window(data, J, B, m, low, span, zeros, contiguous, seed):
    """(first, block): a (W, B, m) block at rows first..first+W-1 of J,
    down to one row and at either end; its levels lie contiguous, or
    (contiguous) it is C-contiguous.  data None gives _WIDE_WINDOW's."""
    if data is None:
        W, first = 3000, 5000
    else:
        W = data.draw(st.one_of(st.just(1), st.just(J), st.integers(1, J)))
        first = data.draw(st.one_of(st.just(0), st.just(J - W), st.integers(0, J - W)))
    block = _window_block(W, B, m, low, span, zeros, seed)
    return first, np.ascontiguousarray(block) if contiguous else block


@settings(max_examples=150, deadline=None)
@given(**_WINDOWS)
@example(**_WIDE_WINDOW)
def test_window_sums_equal_the_zero_padded_rows_bit_for_bit(data, J, B, m, low, span, zeros,
                                                            contiguous, seed):
    """Per level and component, window_sums of a block placed at rows
    first..first+W-1 gives the row-order fold of the zero (J, m) rows
    holding it, as float hex."""
    first, block = _drawn_window(data, J, B, m, low, span, zeros, contiguous, seed)
    pad_left, pad_right = [0.0] * first, [0.0] * (J - first - len(block))
    want = [[_row_order_fold(pad_left + column + pad_right).hex() for column in level]
            for level in block.transpose(1, 2, 0).tolist()]
    got = window_sums(block)
    assert got.shape == (B, m)
    assert [[float(v).hex() for v in row] for row in got] == want


@settings(max_examples=150, deadline=None)
@given(**_WINDOWS)
@example(**_WIDE_WINDOW)
def test_window_sums_are_within_the_recursive_summation_bound(data, J, B, m, low, span, zeros,
                                                              contiguous, seed):
    """Per level and component, window_sums of W terms x lies within
    gamma_(W-1) * sum |x| of their correctly rounded sum (math.fsum), with
    gamma_k = k u / (1 - k u) and u = 2^-53: the error bound of a row-order
    sum (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., SIAM 2002, section 4.2).  Both sides are compared exactly."""
    _, block = _drawn_window(data, J, B, m, low, span, zeros, contiguous, seed)
    k, u = len(block) - 1, Fraction(1, 2**53)
    gamma = k * u / (1 - k * u)
    got = window_sums(block)
    for level, sums in zip(block.transpose(1, 2, 0).tolist(), got.tolist()):
        for column, total in zip(level, sums):
            error = abs(Fraction(total) - Fraction(math.fsum(column)))
            assert error <= gamma * Fraction(math.fsum(map(abs, column)))


@st.composite
def level_ranges(draw):
    """Per-level cell ranges lo[n]..hi[n]-1 on a grid of J cells, empty
    ones and the whole grid among them."""
    J = draw(st.integers(0, 60))
    count = draw(st.integers(0, 30))
    lo, hi = [], []
    for _ in range(count):
        a = draw(st.integers(0, J))
        lo_n, hi_n = draw(st.sampled_from([(a, a), (0, J), (a, draw(st.integers(a, J)))]))
        lo.append(lo_n)
        hi.append(hi_n)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(ranges=level_ranges(), budget=st.integers(1, 200))
@example(ranges=(np.array([0, 3, 3]), np.array([0, 3, 9])), budget=1)
@example(ranges=(np.array([0] * 600), np.array([4] * 600)), budget=40)
def test_level_blocks_cover_the_levels_within_the_budget(ranges, budget):
    """level_blocks splits the levels into consecutive blocks that cover
    them once and in order, each over the span of its levels' ranges (min
    lo to max hi), a block of two or more levels within the budget, and a
    block ending only where its next level would take it past the budget;
    the second example crosses the 256-level chunks the ranges are read in."""
    lo, hi = ranges
    with patch.object(fvbound.grid, "BLOCK_CELLS", budget):
        blocks = list(level_blocks(lo, hi))
    starts, stops = [block[0] for block in blocks], [block[1] for block in blocks]
    assert starts + [len(lo)] == [0] + stops
    for start, stop, a, b in blocks:
        assert stop > start
        assert (a, b) == (lo[start:stop].min(), hi[start:stop].max())
        assert stop - start == 1 or (stop - start) * (b - a) <= budget
        if stop < len(lo):
            wider = max(b, hi[stop]) - min(a, lo[stop])
            assert (stop + 1 - start) * wider > budget
