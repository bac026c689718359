"""The residuals CSV and the solution dump keep each row's text from one
layer or level to the next and format again only the rows whose bits
changed; their bytes must equal writers that format every value."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from fvbound import epsilon, make_model, save_solution, solver
from fvbound.cli import CaseConfig, run_case
from fvbound.grid import Grid1D, TimeLevels
from fvbound.residual import level_entropy_triplets, level_residual_bounds
from fvbound.solver import LevelHistory, SpaceTimeSolution

from oracles import dense
from test_residual import row_by_row_cells_csv
from test_solver import one_string_dump, small_runs


def _write_both(sol, tmp):
    csv, dump = Path(tmp, "cells.csv"), Path(tmp, "dump.csv")
    epsilon(sol).write_cells_csv(sol, str(csv))
    save_solution(sol, str(dump))
    return csv.read_bytes(), dump.read_bytes()


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_written_bytes_equal_the_value_by_value_writers(sol):
    with tempfile.TemporaryDirectory() as tmp:
        csv, dump = _write_both(sol, tmp)
    assert csv == row_by_row_cells_csv(sol)
    assert dump == one_string_dump(sol)


def test_signed_zeros_and_returning_values_are_written_afresh(tmp_path):
    """Cells 1 and 2 go 0.0 -> -0.0 -> 0.0, which equal as floats but not as
    bits; cell 4 returns to its earlier value.  Row 2 of the residuals then
    goes E2 = 0.0 -> -0.0 -> 0.0 with its other columns unchanged."""
    states = np.repeat([[0.5, 0.0, 0.0, 0.0, 0.3, -0.2]], 4, axis=0)
    states[1, 1:3] = -0.0
    states[2, 4] = 0.45
    states = states[:, :, None]
    sol = SpaceTimeSolution(Grid1D(0.0, 1.0, 6), TimeLevels(np.arange(4) * 0.01), states,
                            states[0, 0].copy(), states[0, -1].copy(), make_model("burgers"),
                            "llf", 0.5)
    csv, dump = _write_both(sol, tmp_path)
    assert csv == row_by_row_cells_csv(sol)
    assert dump == one_string_dump(sol)
    rows = csv.decode().splitlines()
    assert [rows[1 + 6 * n + 2] for n in range(3)] == [
        "0,2,0.0,0.0,0.0,0.0,0.0", "1,2,0.0,0.0,-0.0,0.0,0.0", "2,2,0.0,0.0,0.0,0.0,0.0"]
    assert dump.decode().splitlines()[6:] == [
        "0.0,1,5,0.0,0.0,0.0,0.3", "0.01,1,5,-0.0,-0.0,0.0,0.3",
        "0.02,1,5,0.0,0.0,0.0,0.45", "0.03,1,5,0.0,0.0,0.0,0.3"]


def test_cells_csv_holds_one_block_at_a_time(tmp_path):
    """psys-raref-shock L9: a block of the residual pass is dropped before
    the next is built.  With two blocks alive the write traced 2.20 MB."""
    sol, estimate, _, _ = run_case(CaseConfig(case="psys-raref-shock", level=9, ref="none"))
    tracemalloc.start()
    try:
        estimate.residual.write_cells_csv(sol, str(tmp_path / "cells.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


def _changed_hull_cells(sol) -> int:
    """Hull cells of sol's levels whose bits differ from those the same cell
    held when it was last in a hull, counting against zeros before."""
    last = np.zeros((sol.grid.J, sol.model.m), dtype=np.int64)
    count = 0
    for (lo, hi), level in zip(sol.ghost_hulls.tolist(), dense(sol.states)):
        bits = level[lo:hi].view(np.int64)
        count += int((bits != last[lo:hi]).any(axis=1).sum())
        last[lo:hi] = bits
    return count


def _changed_rows(blocks: np.ndarray) -> int:
    """Rows of a (levels, rows, width) float array whose bits differ from the
    same row of the level before, counting the first level against zeros."""
    bits = blocks.view(np.int64)
    before = np.concatenate([np.zeros_like(bits[:1]), bits[:-1]])
    return int((bits != before).any(axis=2).sum())


class TestFormatCount:
    """The residuals writer calls repr on the values of the rows that
    changed since the layer before, and the dump writer on the values of the
    hull cells that changed since they were last written, and neither on any
    other value."""

    def test_csv_and_dump_format_only_changed_rows(self, monkeypatch, tmp_path):
        sol = run_case(CaseConfig(case="psys-raref-shock", level=4, ref="none"))[0]
        m, J = sol.model.m, sol.grid.J
        layers = []
        for n in range(sol.n_steps):
            e1, e2, e3, lower = level_entropy_triplets(sol, n)
            layers.append(np.column_stack([level_residual_bounds(sol, sol.flux_kind, n),
                                           e1, e2, e3, lower]))
        csv_values = _changed_rows(np.array(layers)) * (m + 4)
        dump_values = _changed_hull_cells(sol) * m
        assert 0 < csv_values < sol.n_steps * J * (m + 4)
        assert 0 < dump_values < len(sol.states) * J * m

        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(solver, "repr", counting_repr, raising=False)
        epsilon(sol).write_cells_csv(sol, str(tmp_path / "cells.csv"))
        assert len(calls) == csv_values
        del calls[:]
        save_solution(sol, str(tmp_path / "dump.csv"))
        assert len(calls) == dump_values

    def test_dump_keeps_a_cell_text_when_its_hull_moves(self, monkeypatch, tmp_path):
        """A cell keeps its text by its index on the grid, not its place in
        the hull: the hull grows left over cells 3 and 4, moves left so that
        cell 4 leaves it, and moves back as cell 4 returns to its last
        written value.  Only the cells that enter with a new value are
        formatted: 2, then 1, 1 and none."""
        history = LevelHistory(6, 1, [1.0], [0.0])
        for lo, cells in [(3, [0.5, 0.25]), (2, [0.75, 0.5, 0.25]), (1, [0.9, 0.75, 0.5]),
                          (2, [0.75, 0.5, 0.25])]:
            history.append(np.reshape(cells, (-1, 1)), lo, lo + len(cells))
        sol = SpaceTimeSolution(Grid1D(0.0, 1.0, 6), TimeLevels(np.arange(4) * 0.01),
                                history.freeze(), history.ghost_left, history.ghost_right,
                                make_model("burgers"), "llf", 0.5)
        assert _changed_hull_cells(sol) == 4
        calls = []
        monkeypatch.setattr(solver, "repr", lambda value: calls.append(value) or repr(value),
                            raising=False)
        save_solution(sol, str(tmp_path / "dump.csv"))
        assert calls == [0.5, 0.25, 0.75, 0.9]
        assert (tmp_path / "dump.csv").read_bytes() == one_string_dump(sol)
