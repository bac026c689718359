"""The residuals CSV and the solution dump format each row once, as they
write it; their bytes must equal writers that format every value by
itself, signed zeros and moving hulls included."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from fvbound import epsilon, make_model, save_solution
from fvbound.cli import CaseConfig, run_case
from fvbound.grid import Grid1D, TimeLevels
from fvbound.solver import LevelHistory, SpaceTimeSolution

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


def test_dump_of_a_moving_hull_equals_the_one_string_writer(tmp_path):
    """The hull grows left over cells 3 and 4, moves left so that cell 4
    leaves it, and moves back as cell 4 returns to its last written value;
    each row holds the hull's cells of its own level."""
    history = LevelHistory(6, 1, [1.0], [0.0])
    for lo, cells in [(3, [0.5, 0.25]), (2, [0.75, 0.5, 0.25]), (1, [0.9, 0.75, 0.5]),
                      (2, [0.75, 0.5, 0.25])]:
        history.append(np.reshape(cells, (-1, 1)), lo, lo + len(cells))
    sol = SpaceTimeSolution(Grid1D(0.0, 1.0, 6), TimeLevels(np.arange(4) * 0.01),
                            history.freeze(), history.ghost_left, history.ghost_right,
                            make_model("burgers"), "llf", 0.5)
    save_solution(sol, str(tmp_path / "dump.csv"))
    assert (tmp_path / "dump.csv").read_bytes() == one_string_dump(sol)
