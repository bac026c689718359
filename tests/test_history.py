"""The level history: every way of reading it gives the dense stack of its
levels bit for bit, it never holds more than the dense values, and the main
paths read it without building the dense form."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import cli
from fvbound.cli import CaseConfig, converge, run_case
from fvbound.grid import build_grid
from fvbound.models import make_model
from fvbound.riemann import cell_average_exact, solve_riemann
from fvbound.solver import LevelHistory, load_solution, run, save_solution

# Signed zeros apart, so a level that only flips 0.0 to -0.0 still changes.
VALUES = (0.0, -0.0, 1.0, -1.5, 2.5e-300, 7.0)


def _sequence(J, m, windows, fills=None):
    """Levels (N+1, J, m): level 0, then each window's cells given new values
    (fills, or a counter) and every other cell kept from the level before."""
    counter = iter(range(1, 10**6))
    levels = [np.arange(J * m, dtype=float).reshape(J, m)]
    for k, (lo, hi) in enumerate(windows):
        level = levels[-1].copy()
        new = (fills[k] if fills is not None
               else [float(next(counter)) for _ in range((hi - lo) * m)])
        level[lo:hi] = np.reshape(new, (hi - lo, m))
        levels.append(level)
    return np.array(levels), list(windows)


@st.composite
def level_sequences(draw):
    J, m = draw(st.integers(1, 7)), draw(st.integers(1, 2))
    windows, fills = [], []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["any", "empty", "full", "first", "last"]))
        if kind == "empty":
            lo = hi = draw(st.integers(0, J))
        elif kind == "full":
            lo, hi = 0, J
        elif kind == "first":
            lo, hi = 0, draw(st.integers(1, J))
        elif kind == "last":
            lo, hi = draw(st.integers(0, J - 1)), J
        else:
            lo = draw(st.integers(0, J))
            hi = draw(st.integers(lo, J))
        windows.append((lo, hi))
        fills.append(draw(st.lists(st.sampled_from(VALUES), min_size=(hi - lo) * m,
                                   max_size=(hi - lo) * m)))
    return _sequence(J, m, windows, fills)


def _stored_values(level_values, widths):
    """Values the full-level rule stores: level 0 in full, then each delta
    unless the values since the last full level, plus its own, reach one
    level, which is then stored in full."""
    total, since = level_values, 0
    for width in widths:
        if since + width >= level_values:
            total, since = total + level_values, 0
        else:
            total, since = total + width, since + width
    return total


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _appended(dense, windows):
    history = LevelHistory(*dense.shape[1:])
    for level, (lo, hi) in zip(dense, [(0, dense.shape[1])] + windows):
        history.append(level, lo, hi)
    return history.freeze()


SLICES = (slice(None), slice(1, None), slice(None, -1), slice(None, None, 2),
          slice(None, None, -1), slice(-3, -1), slice(5, 2, -2), slice(7, 99), slice(3, 1))


def _assert_reads_the_dense_stack(history, dense):
    n_levels, J, m = dense.shape
    assert len(history) == n_levels and history.shape == dense.shape
    assert history.nbytes <= dense.nbytes
    for n in range(-n_levels, n_levels):
        level = history[n]
        assert _same(level, dense[n]) and not level.flags.writeable
    levels = list(history)
    assert len(levels) == n_levels
    assert all(_same(a, b) and not a.flags.writeable for a, b in zip(levels, dense))
    assert _same(np.asarray(history), dense)
    for key in SLICES:
        assert _same(history[key], dense[key]), key
    for start in range(n_levels + 1):
        for stop in range(start, n_levels + 1):
            walked = [level.copy() for level in history.walk(start, stop)]
            assert _same(np.array(walked).reshape(-1, J, m), dense[start:stop])


@settings(max_examples=150, deadline=None)
@given(sequence=level_sequences())
# J*m = 4: deltas of 2 and then 2 reach one level, so the second is stored in full
@example(sequence=_sequence(4, 1, [(0, 2), (1, 3), (3, 4)]))
# 2 and then 1 stay one value short of it, and the next 1 reaches it
@example(sequence=_sequence(4, 1, [(0, 2), (1, 2), (2, 3)]))
# J*m = 6: a single delta of 3 cells is a whole level
@example(sequence=_sequence(3, 2, [(1, 2), (0, 3), (0, 0), (2, 3)]))
# a flip of 0.0 to -0.0 is a change
@example(sequence=_sequence(3, 1, [(0, 1), (0, 1)], fills=[[0.0], [-0.0]]))
def test_history_reads_the_dense_stack(sequence):
    """Built from each step's window or from the dense stack, the history
    gives every level, the iteration, slices, walks and np.asarray bit for
    bit, and holds what the full-level rule stores: at most the dense values
    and at most twice the deltas."""
    dense, windows = sequence
    J, m = dense.shape[1:]
    appended = _appended(dense, windows)
    _assert_reads_the_dense_stack(appended, dense)
    widths = [(hi - lo) * m for lo, hi in windows]
    assert appended.nbytes == 8 * _stored_values(J * m, widths)
    assert appended.nbytes <= 2 * 8 * (J * m + sum(widths))
    hulls = LevelHistory.from_levels(dense)
    _assert_reads_the_dense_stack(hulls, dense)
    bits = dense.view(np.int64)
    changed = [np.flatnonzero((a != b).any(axis=1)) for a, b in zip(bits, bits[1:])]
    widths = [(rows[-1] + 1 - rows[0]) * m if rows.size else 0 for rows in changed]
    assert hulls.nbytes == 8 * _stored_values(J * m, widths)


def test_full_level_rule_at_its_edge():
    """J*m = 4: the deltas 2 + 2 reach one level, so the second of them is
    stored in full (4 values); 2 + 1 do not."""
    dense, windows = _sequence(4, 1, [(0, 2), (1, 3)])
    assert _appended(dense, windows).nbytes == 8 * (4 + 2 + 4)
    dense, windows = _sequence(4, 1, [(0, 2), (1, 2)])
    assert _appended(dense, windows).nbytes == 8 * (4 + 2 + 1)


def test_frozen_history_takes_no_more_levels():
    dense, windows = _sequence(3, 1, [(0, 1)])
    history = _appended(dense, windows)
    with pytest.raises(ValueError, match="frozen"):
        history.append(dense[0], 0, 3)
    with pytest.raises(TypeError):
        history[0] = dense[0]
    with pytest.raises(IndexError):
        history[2]


def test_dense_accessors_refuse_a_view():
    dense, windows = _sequence(2, 1, [(0, 1)])
    with pytest.raises(ValueError, match="copy"):
        np.asarray(_appended(dense, windows), copy=False)


def test_load_parses_rows_straight_into_the_history(tmp_path):
    """Loading the psys-raref-shock L9 dump holds the history, two levels
    (the row being parsed and the one before) and little else."""
    model = make_model("psystem")
    grid = build_grid(-5.0, 5.0, 9)
    fan = solve_riemann(model, (0.15, 0.0), (0.1, 0.0))
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    del sol
    tracemalloc.start()
    try:
        back = load_solution(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    level = grid.J * model.m * 8
    assert back.states.nbytes < np.asarray(back.states).nbytes
    assert peak < back.states.nbytes + 2 * level + 2**20


def test_main_paths_never_build_the_dense_history(monkeypatch, tmp_path):
    """run_case, converge, and the CLI's run with every output file and a
    solution dump followed by audit of that dump read the history level by
    level: every dense accessor (slices, other keys, np.asarray) goes through
    _stack, which raises here."""
    def refuse(self, rows):
        raise AssertionError("the dense history was built")

    monkeypatch.setattr(LevelHistory, "_stack", refuse)
    with pytest.raises(AssertionError, match="dense"):
        np.asarray(run_case(CaseConfig(case="psys-raref-shock", level=3, ref="none"))[0].states)
    run_case(CaseConfig(case="psys-raref-shock", level=5))
    converge(CaseConfig(case="burgers-curved", level=4, ref="fine:7"), 4, 5)
    out = tmp_path / "out"
    assert cli.main(["run", "--case", "psys-raref-shock", "--level", "5", "--out", str(out),
                     "--dump-solution"]) == 0
    assert {p.name for p in out.iterdir()} >= {"psys-raref-shock_L5_residuals.csv",
                                              "psys-raref-shock_L5_solution.csv"}
    assert cli.main(["audit", "--solution", str(out / "psys-raref-shock_L5_solution.csv"),
                     "--out", str(tmp_path / "audit")]) == 0
