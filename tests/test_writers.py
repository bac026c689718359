"""The residuals CSV and the solution dump keep each row's text from one
layer or level to the next and format again only the rows whose bits
changed; their bytes must equal writers that format every value."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from fvbound import epsilon, make_model, residual, save_solution
from fvbound.cli import CaseConfig, run_case
from fvbound.grid import Grid1D, TimeLevels
from fvbound.residual import level_entropy_triplets, level_residual_bounds
from fvbound.solver import SpaceTimeSolution

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
        "0.0,0.5,0.0,0.0,0.0,0.3,-0.2", "0.01,0.5,-0.0,-0.0,0.0,0.3,-0.2",
        "0.02,0.5,0.0,0.0,0.0,0.45,-0.2", "0.03,0.5,0.0,0.0,0.0,0.3,-0.2"]


def _changed_rows(blocks: np.ndarray) -> int:
    """Rows of a (levels, rows, width) float array whose bits differ from the
    same row of the level before, counting the first level against zeros."""
    bits = blocks.view(np.int64)
    before = np.concatenate([np.zeros_like(bits[:1]), bits[:-1]])
    return int((bits != before).any(axis=2).sum())


class TestFormatCount:
    """The writers call repr on the values of the rows that changed since
    the layer or level before, and on no other value."""

    def test_csv_and_dump_format_only_changed_rows(self, monkeypatch, tmp_path):
        sol = run_case(CaseConfig(case="psys-raref-shock", level=4, ref="none"))[0]
        m, J = sol.model.m, sol.grid.J
        layers = []
        for n in range(sol.n_steps):
            e1, e2, e3, lower = level_entropy_triplets(sol, n)
            layers.append(np.column_stack([level_residual_bounds(sol, sol.flux_kind, n),
                                           e1, e2, e3, lower]))
        csv_values = _changed_rows(np.array(layers)) * (m + 4)
        dump_values = _changed_rows(np.asarray(sol.states)) * m
        assert 0 < csv_values < sol.n_steps * J * (m + 4)
        assert 0 < dump_values < np.asarray(sol.states).size

        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(residual, "repr", counting_repr, raising=False)
        epsilon(sol).write_cells_csv(sol, str(tmp_path / "cells.csv"))
        assert len(calls) == csv_values
        del calls[:]
        save_solution(sol, str(tmp_path / "dump.csv"))
        assert len(calls) == dump_values
