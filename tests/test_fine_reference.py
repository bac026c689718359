"""The windowed fine reference against the full-grid loop it replaced."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fvbound.grid
from fvbound import build_grid, cli, make_model
from fvbound.cli import ConfigError, streamed_fine_reference
from fvbound.solver import march, run

from oracles import column_sums, dense, restrict


def _restricted_levels(fine, runs):
    """Yield (run index, level index, the run's level, the fine solution
    restricted to the run's grid at the level's time): the reference's loop
    before it was windowed, over a stored fine run.  At each of a run's time
    levels the whole fine level is interpolated in time and restricted."""
    pending = [0] * len(runs)
    prev_t = None
    prev_states = None
    slop = 1e-12 * max(1.0, abs(fine.t_final))
    levels = [dense(sol.states) for sol in runs]
    for t, states in zip(fine.times.t.tolist(), dense(fine.states)):
        for k, sol in enumerate(runs):
            eval_times = sol.times.t
            while pending[k] < len(eval_times) and eval_times[pending[k]] <= t + slop:
                wanted = eval_times[pending[k]]
                if prev_t is None or abs(t - wanted) <= slop:
                    snap = states
                else:
                    w = (wanted - prev_t) / (t - prev_t)
                    snap = (1.0 - w) * prev_states + w * states
                yield k, pending[k], levels[k][pending[k]], restrict(snap, fine.grid, sol.grid)
                pending[k] += 1
        prev_t, prev_states = t, states
    assert all(done == len(sol.times.t) for done, sol in zip(pending, runs))


def _full_grid_reference(fine, runs):
    """Oracle: each run's per-level L1 distances, (N+1, m), summed over the
    whole grid level by level."""
    distances = [np.empty((len(sol.times.t), sol.model.m)) for sol in runs]
    for k, n, level, averages in _restricted_levels(fine, runs):
        distances[k][n] = column_sums(np.abs(level - averages))
    return distances


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


# (model, left, right, jump position as a share of the domain, ramp width as a
# share of the domain (0: Riemann data), finest run level, log2 of the ratio
# of the fine level to it, number of runs, cfl, t0, duration)
_CONSTANT = ("burgers", (0.5,), (0.5,), 0.5, 0.0, 4, 2, 1, 0.9, 0.0, 0.5)
_INTO_THE_RIGHT_BOUNDARY = ("burgers", (2.0,), (0.0,), 0.8, 0.0, 4, 2, 1, 0.9, 0.0, 1.5)
_AT_CELL_0 = ("psystem", (1.0, 0.3), (0.6, -0.2), 0.01, 0.0, 4, 3, 1, 0.9, 0.0, 0.4)
# The left ghost keeps the largest speed, so every step has the same length
# and the run's interior levels fall on fine levels.
_ON_FINE_TIMES = ("burgers", (1.0,), (0.0,), 0.3, 0.0, 4, 1, 1, 0.5, 0.0, 1.0)
_TWO_RUNS = ("psystem", (0.15, 0.0), (0.1, 0.0), 0.5, 0.0, 4, 2, 2, 0.9, 0.0, 1.0)
# Interpolated in time, the fine left ghost restricts to other bits than the
# run's at a level, whose cells then run to the grid's start.
_GHOST_OFF_BITS = ("psystem", (0.15, 0.0), (0.1, 0.0), 0.5, 0.0, 4, 2, 1, 0.9, 0.0, 1.0)


@st.composite
def reference_cases(draw):
    """Random Burgers data (Riemann or ramp) or p-system Riemann data, one
    or two runs, fine-to-run ratios from 2 to 32; all under LLF."""
    name = draw(st.sampled_from(["burgers", "psystem"]))
    if name == "burgers":
        left, right = ((draw(st.floats(-2.0, 2.0)),) for _ in range(2))
        width = draw(st.sampled_from([0.0, draw(st.floats(0.01, 1.0))]))
    else:
        left, right = ((draw(st.floats(0.5, 2.0)), draw(st.floats(-0.5, 0.5)))
                       for _ in range(2))
        width = 0.0
    n_runs = draw(st.integers(1, 2))
    return (name, left, right, draw(st.floats(0.0, 1.0)), width, draw(st.integers(3, 5)),
            draw(st.integers(1, 6 - n_runs)), n_runs, draw(st.floats(0.3, 1.0)),
            draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 1.5)))


def _reference_case(name, left, right, at, width, level, log_ratio, n_runs, cfl, t0,
                    duration):
    """The runs at the levels level - n_runs + 1 .. level, and the arguments
    of the fine run at level + log_ratio."""
    model = make_model(name)

    def setup(lvl):
        grid = build_grid(-3.0, 3.0, lvl)
        x = (grid.centers()[:, None] - grid.x_min) / (grid.x_max - grid.x_min)
        share = (x >= at).astype(float) if width == 0.0 else np.clip((x - at) / width, 0.0, 1.0)
        initial = (1.0 - share) * np.array(left) + share * np.array(right)
        return initial, model, "llf", grid, cfl, t0, t0 + duration

    runs = [run(*setup(lvl)) for lvl in range(level - n_runs + 1, level + 1)]
    return runs, setup(level + log_ratio)


@settings(max_examples=60, deadline=None)
@given(case=reference_cases(), block=st.integers(1, 64))
@example(case=_CONSTANT, block=64)
@example(case=_INTO_THE_RIGHT_BOUNDARY, block=64)
@example(case=_AT_CELL_0, block=64)
@example(case=_ON_FINE_TIMES, block=64)
@example(case=_TWO_RUNS, block=64)
@example(case=_GHOST_OFF_BITS, block=1)
@example(case=_GHOST_OFF_BITS, block=64)
def test_windowed_reference_equals_the_full_grid_loop(case, block):
    """The reference interpolates and restricts only the fine cells of each
    step's window, and sums a batch of levels at a time in blocks of at most
    block cells x levels; every run's per-level distances are the full-grid
    loop's, in float hex."""
    runs, fine_args = _reference_case(*case)
    with patch.object(fvbound.grid, "BLOCK_CELLS", block):
        got = streamed_fine_reference(*fine_args, runs)
    want = _full_grid_reference(run(*fine_args), runs)
    assert [_hex(d) for d in got] == [_hex(d) for d in want]


def test_reference_examples_reach_their_edge_cases():
    """The examples above reach what they name: only empty fine windows, a
    window at the fine grid's last cell, one at its cell 0, interior run
    levels on fine levels, two runs in one stream, and a restricted fine
    ghost whose bits are not the run's."""
    def fine_windows(case):
        runs, fine_args = _reference_case(*case)
        return runs, fine_args[3].J, [w for _, _, w in march(*fine_args)][1:]

    _, _, windows = fine_windows(_CONSTANT)
    assert len(windows) > 1 and all(lo == hi for lo, hi in windows)
    _, J, windows = fine_windows(_INTO_THE_RIGHT_BOUNDARY)
    assert windows[0][1] < J and any(0 < lo < hi == J for lo, hi in windows)
    _, J, windows = fine_windows(_AT_CELL_0)
    assert any(lo == 0 < hi < J for lo, hi in windows)
    (coarse,), fine_args = _reference_case(*_ON_FINE_TIMES)
    fine_times = run(*fine_args).times.t
    slop = 1e-12 * max(1.0, abs(fine_times[-1]))
    on_fine = [np.abs(fine_times - t).min() <= slop for t in coarse.times.t[1:-1]]
    assert len(on_fine) > 2 and all(on_fine)
    runs, _ = _reference_case(*_TWO_RUNS)
    assert len(runs) == 2
    (coarse,), fine_args = _reference_case(*_GHOST_OFF_BITS)
    ends = [(averages[0].tobytes(), averages[-1].tobytes())
            for _, _, _, averages in _restricted_levels(run(*fine_args), [coarse])]
    assert any(left != coarse.ghost_left.tobytes() for left, _ in ends)


def test_nesting_is_checked_before_the_fine_march(monkeypatch):
    def no_marching(*args, **kwargs):
        raise AssertionError("marched before the grids were checked")

    (coarse,), (initial, model, kind, grid, cfl, t0, t_final) = _reference_case(*_CONSTANT)
    monkeypatch.setattr(cli, "march", no_marching)
    shifted = build_grid(-2.0, 3.0, grid.J.bit_length() - 1)
    with pytest.raises(ConfigError, match="does not nest"):
        streamed_fine_reference(initial, model, kind, shifted, cfl, t0, t_final, [coarse])
