"""The level history: each of its readers (walk, columns, hull_cells) gives
the dense stack of its levels bit for bit, it holds only each level's
ghost-hull cells, and it has no dense form, so the main paths read it
without one."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import cli, solver
from fvbound.cli import CaseConfig, converge, run_case
from fvbound.grid import build_grid
from fvbound.models import make_model
from fvbound.riemann import cell_average_exact, solve_riemann
from fvbound.solver import LevelHistory, load_solution, run, save_solution

import oracles

# Signed zeros apart, so a cell of -0.0 is no ghost 0.0.
VALUES = (0.0, -0.0, 1.0, -1.5, 2.5e-300, 7.0)
GHOSTS = (0.0, -0.0, 1.0)


def _sequence(J, m, hulls, ghost_left=0.0, ghost_right=1.0, fills=None):
    """Levels (N+1, J, m), one per ghost hull: ghost_left left of the hull,
    ghost_right at and right of its end, and inside it the fills (or a
    counter's values, which are no ghost state)."""
    counter = iter(range(2, 10**6))
    ghost_left = np.broadcast_to(np.asarray(ghost_left, dtype=float), (m,))
    ghost_right = np.broadcast_to(np.asarray(ghost_right, dtype=float), (m,))
    levels = np.empty((len(hulls), J, m))
    for level, (lo, hi), k in zip(levels, hulls, range(len(hulls))):
        new = (fills[k] if fills is not None
               else [float(next(counter)) for _ in range((hi - lo) * m)])
        level[:lo], level[hi:] = ghost_left, ghost_right
        level[lo:hi] = np.reshape(new, (hi - lo, m))
    return levels, list(hulls), ghost_left.copy(), ghost_right.copy()


@st.composite
def ghosted_sequences(draw):
    J, m = draw(st.integers(1, 7)), draw(st.integers(1, 2))
    ghost = st.lists(st.sampled_from(GHOSTS), min_size=m, max_size=m)
    ghost_left = draw(ghost)
    ghost_right = list(ghost_left) if draw(st.booleans()) else draw(ghost)
    hulls, fills = [], []
    for _ in range(draw(st.integers(1, 10))):
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
        hulls.append((lo, hi))
        fills.append(draw(st.lists(st.sampled_from(VALUES), min_size=(hi - lo) * m,
                                   max_size=(hi - lo) * m)))
    return _sequence(J, m, hulls, ghost_left, ghost_right, fills)


def _tightest_hulls(dense, ghost_left, ghost_right):
    """Per level, cell by cell: the first cell whose bits are not
    ghost_left's and the end of the last whose bits are not ghost_right's."""
    hulls = []
    for level in dense:
        J = len(level)
        lo = next((j for j in range(J) if level[j].tobytes() != ghost_left.tobytes()), J)
        hi = next((j + 1 for j in reversed(range(J))
                   if level[j].tobytes() != ghost_right.tobytes()), 0)
        hulls.append((lo, max(lo, hi)))
    return hulls


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _appended(dense, hulls, ghost_left, ghost_right):
    history = LevelHistory(*dense.shape[1:], ghost_left, ghost_right)
    for level, (lo, hi) in zip(dense, hulls):
        history.append(level[lo:hi], lo, hi)
    return history.freeze()


def _assert_reads_the_dense_stack(history, dense, hulls):
    n_levels, J, m = dense.shape
    assert len(history) == n_levels and history.shape == dense.shape
    assert history.hulls.tolist() == [list(h) for h in hulls]
    assert not history.hulls.flags.writeable
    assert history.nbytes == 8 * m * sum(hi - lo for lo, hi in hulls)
    assert _same(oracles.dense(history), dense)
    padded = np.concatenate([np.broadcast_to(history.ghost_left, (n_levels, 1, m)), dense,
                             np.broadcast_to(history.ghost_right, (n_levels, 1, m))], axis=1)
    for start in range(n_levels + 1):
        for stop in range(start, n_levels + 1):
            walked = [level.copy() for level in history.walk(start, stop)]
            assert all(not level.flags.writeable for level in history.walk(start, stop))
            assert _same(np.array(walked).reshape(-1, J, m), dense[start:stop])
            assert _same(history.columns(start, stop, -1, J + 1),
                         padded[start:stop].transpose(1, 0, 2))
            _assert_hull_cells(history, dense, hulls, start, stop)


def _assert_hull_cells(history, dense, hulls, start, stop):
    """hull_cells gives each level's hull cells, one piece per chunk of
    consecutive levels, at the columns it names."""
    pieces = history.hull_cells(start, stop)
    firsts = [first for first, _, _ in pieces]
    assert firsts == sorted(set(firsts)) and firsts[:1] == [0] * (stop > start)
    for (first, values, columns), end in zip(pieces, firsts[1:] + [stop - start]):
        assert values.shape[0] == history.shape[2] and len(columns) == end - first
        for k, column in zip(range(start + first, start + end), columns.tolist()):
            lo, hi = hulls[k]
            assert _same(values[:, column:column + hi - lo], dense[k, lo:hi].T)
        assert values.shape[1] == sum(hi - lo for lo, hi in hulls[start + first:start + end])


@settings(max_examples=150, deadline=None)
@given(sequence=ghosted_sequences(), chunk=st.one_of(st.just(solver.CHUNK), st.integers(1, 16)))
# a hull that jumps wholly past the one before, to the right and back
@example(sequence=_sequence(6, 1, [(0, 2), (5, 6), (0, 2)]), chunk=solver.CHUNK)
@example(sequence=_sequence(6, 2, [(4, 6), (0, 1), (3, 5), (0, 6)]), chunk=solver.CHUNK)
# empty hulls at cell 0, mid-grid and J, in both orders
@example(sequence=_sequence(6, 1, [(0, 0), (3, 3), (6, 6), (3, 3), (0, 0), (1, 5)]),
         chunk=solver.CHUNK)
# ghost_left bit-equal to ghost_right
@example(sequence=_sequence(4, 2, [(1, 3), (4, 4), (0, 0), (2, 3)], 1.0, 1.0),
         chunk=solver.CHUNK)
# +-0.0 ghosts, and hull cells that hold the other signed zero
@example(sequence=_sequence(3, 1, [(0, 1), (2, 3), (1, 1)], 0.0, -0.0,
                            fills=[[-0.0], [0.0], []]), chunk=solver.CHUNK)
# chunks of 8 values: levels that fill one exactly, empty hulls at its end
# and at the start of the history, a level that starts the next chunk
@example(sequence=_sequence(7, 1, [(0, 0), (0, 5), (4, 7), (7, 7), (2, 2), (1, 2), (0, 7)]),
         chunk=8)
# chunks of 4 values under 6-cell levels: a chunk holds max(CHUNK, J*m) values,
# and a full level fills one exactly
@example(sequence=_sequence(6, 1, [(0, 6), (0, 0), (1, 6), (2, 3), (6, 6), (0, 6)]), chunk=4)
@example(sequence=_sequence(3, 2, [(0, 3), (1, 2), (1, 3), (3, 3), (0, 1)]), chunk=1)
def test_history_reads_the_dense_stack(sequence, chunk):
    """Built from each level's ghost hull, or from the dense stack with the
    tightest hulls, in chunks of any size, the history's walks, columns and
    hull_cells give the levels bit for bit, and it stores only the hull
    cells."""
    dense, hulls, ghost_left, ghost_right = sequence
    with mock.patch.object(solver, "CHUNK", chunk):
        _assert_reads_the_dense_stack(_appended(dense, hulls, ghost_left, ghost_right), dense,
                                      hulls)
        tightest = LevelHistory.from_levels(dense, ghost_left, ghost_right)
        _assert_reads_the_dense_stack(tightest, dense, _tightest_hulls(dense, ghost_left,
                                                                       ghost_right))
        again = LevelHistory.from_levels(tightest, ghost_right, ghost_left)
        _assert_reads_the_dense_stack(again, dense,
                                      _tightest_hulls(dense, ghost_right, ghost_left))


def test_a_level_never_straddles_two_chunks(monkeypatch):
    """A level that does not fit in the rest of the last chunk starts a new
    one, an empty level stays at the end of a full chunk, and freeze trims
    only the last chunk."""
    monkeypatch.setattr(solver, "CHUNK", 8)
    history = LevelHistory(7, 1, 0.0, 1.0)
    dense, hulls, _, _ = _sequence(7, 1, [(0, 0), (0, 5), (4, 7), (7, 7), (2, 2), (1, 2),
                                          (0, 7), (3, 4)])
    for level, (lo, hi) in zip(dense, hulls):
        history.append(level[lo:hi], lo, hi)
    assert [len(chunk) for chunk in history._chunks] == [8, 8, 8]
    history.freeze()
    assert history._index[:, 2:].tolist() == [[0, 0], [0, 0], [0, 5], [0, 8], [0, 8], [1, 0],
                                              [1, 1], [2, 0]]
    assert [len(chunk) for chunk in history._chunks] == [8, 8, 1]
    assert _same(oracles.dense(history), dense)


def test_frozen_history_takes_no_more_levels():
    dense, hulls, ghost_left, ghost_right = _sequence(3, 1, [(0, 3), (0, 1)])
    history = _appended(dense, hulls, ghost_left, ghost_right)
    with pytest.raises(ValueError, match="frozen"):
        history.append(dense[0], 0, 3)
    with pytest.raises(TypeError):
        history[0] = dense[0]
    with pytest.raises(IndexError):
        next(history.walk(0, 3))


def test_the_dense_form_is_refused():
    """The history has no dense form, no level by key and no iteration:
    np.asarray names the readers to use instead."""
    sol = run_case(CaseConfig(case="psys-raref-shock", level=3, ref="none"))[0]
    with pytest.raises(TypeError, match="walk.*columns"):
        np.asarray(sol.states)
    with pytest.raises(TypeError):
        sol.states[0]
    with pytest.raises(TypeError):
        iter(sol.states)


def test_array_equal_compares_two_histories_level_by_level():
    """np.array_equal of two histories compares their levels, whatever their
    hulls; numpy refuses every other function of a history."""
    dense, hulls, ghost_left, ghost_right = _sequence(4, 1, [(0, 2), (1, 4), (2, 3)])
    history = _appended(dense, hulls, ghost_left, ghost_right)
    assert np.array_equal(history, LevelHistory.from_levels(dense, ghost_left, ghost_right))
    assert not np.array_equal(history, _appended(dense[:2], hulls[:2], ghost_left, ghost_right))
    changed = dense.copy()
    changed[1, 2] = -0.5
    assert not np.array_equal(history, _appended(changed, hulls, ghost_left, ghost_right))
    with pytest.raises(TypeError):
        np.sum(history)


def test_load_parses_rows_straight_into_the_history(tmp_path):
    """Loading the psys-raref-shock L9 dump holds the history, the row being
    parsed and little else."""
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
    assert back.states.nbytes < len(back.states) * level
    assert peak < back.states.nbytes + 2 * level + 2**20


def test_main_paths_never_build_the_dense_history(tmp_path):
    """run_case, converge, and the CLI's run with every output file and a
    solution dump followed by audit of that dump read the history through
    its readers: np.asarray of it raises."""
    run_case(CaseConfig(case="psys-raref-shock", level=5))
    converge(CaseConfig(case="burgers-curved", level=4, ref="fine:7"), 4, 5)
    out = tmp_path / "out"
    assert cli.main(["run", "--case", "psys-raref-shock", "--level", "5", "--out", str(out),
                     "--dump-solution"]) == 0
    assert {p.name for p in out.iterdir()} >= {"psys-raref-shock_L5_residuals.csv",
                                              "psys-raref-shock_L5_solution.csv"}
    assert cli.main(["audit", "--solution", str(out / "psys-raref-shock_L5_solution.csv"),
                     "--out", str(tmp_path / "audit")]) == 0
