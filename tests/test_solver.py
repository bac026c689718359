import ast
import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import (
    DomainError,
    build_grid,
    cell_average_exact,
    epsilon,
    error_estimator,
    load_solution,
    make_model,
    save_solution,
    solve_riemann,
)
from fvbound.grid import Grid1D, TimeLevels
from fvbound.models import interface_fluxes
from fvbound.residual import _padded
from fvbound.solver import LevelHistory, SpaceTimeSolution, _window, march, run, step

from oracles import dense, hand_march, per_level_epsilon


def shock_profile(grid, left=1.0, right=-1.0, center_zero=True):
    """Three-state stationary shock data ..., 1, 1, 0, -1, -1, ..."""
    u = np.where(grid.centers() < 0.0, left, right)[:, None].astype(float)
    if center_zero:
        j = grid.J // 2
        u[j - 1 if grid.centers()[j] > 0 else j] = 0.0
    return u


def test_constant_states_are_fixed_points():
    grid = build_grid(-5.0, 5.0, 3)
    for name, state in (("burgers", [2.0]), ("psystem", [1.0, 0.3])):
        model = make_model(name)
        states = np.tile(state, (grid.J, 1))
        sol = run(states, model, "llf", grid, 0.9, 0.0, 0.5)
        assert np.allclose(dense(sol.states), states, atol=1e-14)


@pytest.mark.parametrize("kind", ["godunov", "eo"])
def test_stationary_three_cell_shock(kind):
    # data (..., 1, 1, 0, -1, -1, ...) is stationary for both scalar fluxes
    grid = build_grid(-5.0, 5.0, 4)
    model = make_model("burgers")
    states = shock_profile(grid)
    new, _ = step(states, model, kind, grid, 0.01, states[0], states[-1])
    assert np.array_equal(new, states)
    sol = run(states, model, kind, grid, 0.9, 0.0, 1.0)
    assert np.all(dense(sol.states) == states)


def test_stationary_two_cell_shock_godunov():
    # the sharp two-cell shock is a fixed point of the Godunov flux (the
    # Engquist-Osher stationary profile needs the interior zero cell)
    grid = build_grid(-5.0, 5.0, 4)
    model = make_model("burgers")
    states = np.where(grid.centers() < 0.0, 1.0, -1.0)[:, None]
    sol = run(states, model, "godunov", grid, 0.9, 0.0, 1.0)
    assert np.all(dense(sol.states) == states)


def test_discrete_conservation_every_step():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
    grid = build_grid(-5.0, 5.0, 5)
    sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 1.0)
    levels = dense(sol.states)
    for n in range(sol.n_steps):
        dt = sol.times.dt(n)
        fluxes = interface_fluxes(sol.flux_kind, model, _padded(sol, n))
        change = grid.dx * (levels[n + 1].sum(axis=0) - levels[n].sum(axis=0))
        boundary = dt * (fluxes[0] - fluxes[-1])
        scale = np.maximum(np.abs(change), np.abs(boundary))
        scale = np.maximum(scale, grid.dx * np.abs(levels[n]).sum(axis=0))
        assert np.all(np.abs(change - boundary) <= 1e-12 * scale)


def test_domain_exit_aborts_with_diagnostics():
    model = make_model("psystem", C=1.0, gamma=1.4)
    grid = Grid1D(0.0, 1.0, 3)
    states = np.array([[1.0, 0.0], [1.0, 10.0], [1.0, 0.0]])
    new, _ = step(states, model, "llf", grid, 0.3, states[0], states[-1])
    assert not np.all(model.in_domain(new))
    with pytest.raises(DomainError, match="cell j=0, step n=0"):
        # at an admissible CFL number LLF keeps rho > 0, so the run leaves the
        # domain through a momentum flux that overflows to a non-finite state
        run_states = np.array([[1.0, 0.0], [1.0, 1e200], [1.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            run(run_states, model, "llf", grid, 0.9, 0.0, 1.0)


def test_recorded_levels_are_immutable():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    sol = run(np.full((grid.J, 1), 1.0), model, "llf", grid, 0.9, 0.0, 0.1)
    with pytest.raises(TypeError):
        sol.states[0] = np.full((grid.J, 1), 99.0)
    with pytest.raises(ValueError):
        next(sol.states.walk())[0, 0] = 99.0
    with pytest.raises(ValueError):
        sol.ghost_left[0] = 99.0


def _assert_frozen(sol):
    """The history has no item assignment, every level it walks is
    read-only, and so are the ghost states and the times."""
    with pytest.raises(TypeError):
        sol.states[0] = np.zeros(sol.states.shape[1:])
    for array in [*sol.states.walk(), sol.ghost_left, sol.ghost_right, sol.times.t]:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 99.0


def test_run_and_load_freeze_what_they_record(tmp_path):
    model = make_model("psystem", C=1.0, gamma=1.4)
    grid = build_grid(-5.0, 5.0, 3)
    initial = np.tile([1.0, 0.5], (grid.J, 1))
    sol = run(initial, model, "llf", grid, 0.9, 0.0, 0.2)
    initial[0, 0] = 7.0  # the caller's data stays writable and unrecorded
    assert dense(sol.states)[0, 0, 0] == 1.0
    _assert_frozen(sol)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    _assert_frozen(load_solution(str(path)))


def test_time_levels_freeze_a_copy_of_the_caller_array():
    t = np.array([0.0, 0.1, 0.2])
    levels = TimeLevels(t)
    t[1] = 0.05
    assert levels.t[1] == 0.1 and t.flags.writeable
    with pytest.raises(ValueError):
        levels.t[1] = 0.05


def test_ghost_states_frozen_at_initial_values():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    states = np.linspace(2.0, -2.0, grid.J)[:, None]
    sol = run(states, model, "llf", grid, 0.9, 0.0, 0.5)
    assert np.array_equal(sol.ghost_left, states[0])
    assert np.array_equal(sol.ghost_right, states[-1])
    ext = _padded(sol, sol.n_steps)
    assert ext[0, 0] == 2.0 and ext[-1, 0] == -2.0


def test_march_agrees_with_run():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    states = np.linspace(2.0, -2.0, grid.J)[:, None]
    sol = run(states, model, "llf", grid, 0.9, 0.0, 0.4)
    streamed = [(t, u.copy()) for t, u, _ in march(states, model, "llf", grid, 0.9, 0.0, 0.4)]
    assert len(streamed) == sol.n_steps + 1
    for (t, u), n, level in zip(streamed, range(sol.n_steps + 1), dense(sol.states)):
        assert t == pytest.approx(float(sol.times.t[n]), abs=1e-15)
        assert np.array_equal(u, level)


def test_solver_imports_no_stage_that_reads_its_record():
    """solver.py, which marches and records, imports nothing from residual,
    partition, estimator or cli, so the modules depend in one direction."""
    import fvbound.solver

    names = set()
    for node in ast.walk(ast.parse(Path(fvbound.solver.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "models" in names
    assert not names & {"residual", "partition", "estimator", "cli"}


def test_only_grid_sets_the_block_budget():
    """Of the package's modules only grid.py assigns a module-level
    BLOCK_CELLS or defines level_blocks, so every pass that reads the
    history a block of levels at a time splits it by one rule."""
    import fvbound

    owners = set()
    for path in sorted(Path(fvbound.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            if any(isinstance(t, ast.Name) and t.id == "BLOCK_CELLS" for t in targets):
                owners.add((path.name, "BLOCK_CELLS"))
            if isinstance(node, ast.FunctionDef) and node.name == "level_blocks":
                owners.add((path.name, "level_blocks"))
    assert owners == {("grid.py", "BLOCK_CELLS"), ("grid.py", "level_blocks")}


def test_only_grid_sums_columns():
    """Of the package's modules only grid.py calls .sum, np.sum or
    np.einsum, so every per-level sum adds its cells in the one order that
    grid.window_sums defines."""
    import fvbound

    callers = set()
    for path in sorted(Path(fvbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("sum", "einsum")):
                callers.add(path.name)
    assert callers == {"grid.py"}


def test_run_holds_the_history_once():
    from fvbound.cli import _burgers_curved_averages

    grid = build_grid(-5.0, 5.0, 10)
    tracemalloc.start()
    try:
        sol = run(_burgers_curved_averages(grid), make_model("burgers"), "llf", grid,
                  0.9, 0.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.states.shape == (sol.n_steps + 1, grid.J, 1)
    assert peak <= 1.5 * sol.states.nbytes + 2**20


def test_run_peak_stays_at_the_per_level_fold():
    """At burgers-curved L10 the traced peak of run and then epsilon, the
    history plus the residual pass over its blocks of levels, stays at or
    below the 3,956,556 bytes
    that run traced when it folded epsilon one level at a time while
    marching (4,039,530 in a process's first run)."""
    from fvbound.cli import _burgers_curved_averages

    grid = build_grid(-5.0, 5.0, 10)
    initial = _burgers_curved_averages(grid)
    tracemalloc.start()
    try:
        sol = run(initial, make_model("burgers"), "llf", grid, 0.9, 0.0, 1.0)
        epsilon(sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.states.nbytes == 2_648_824
    assert peak <= 3_956_556


def test_run_holds_the_history_and_one_chunk_while_marching():
    """At burgers-curved L11, run's traced peak is at most the history's
    values, the chunk tails left by levels that did not fit (each less than
    a level, J values), one chunk, and 2**19 bytes for the index, the times
    and the stepping core's level; the residual pass of epsilon after it
    adds its blocks, 2**20 bytes.  One buffer grown by half
    peaked at about 14.75 MB while marching, for a 9,767,160-byte history
    (this bound at CHUNK = 2**16: 11,471,096 bytes)."""
    from fvbound import solver
    from fvbound.cli import _burgers_curved_averages

    grid = build_grid(-5.0, 5.0, 11)
    initial = _burgers_curved_averages(grid)
    tracemalloc.start()
    try:
        sol = run(initial, make_model("burgers"), "llf", grid, 0.9, 0.0, 1.0)
        _, marching = tracemalloc.get_traced_memory()
        epsilon(sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    history, level = sol.states.nbytes, 8 * grid.J
    chunk = 8 * max(solver.CHUNK, grid.J)
    tails = (history // (chunk - level) + 1) * level
    assert history == 9_767_160
    assert marching <= history + tails + chunk + 2**19
    assert peak <= history + tails + chunk + 2**19 + 2**20


@pytest.mark.parametrize("cfl", [1.5, 4.0, 0.0, -0.5, float("nan")])
def test_cfl_outside_unit_interval_is_refused(cfl):
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    states = np.linspace(2.0, -2.0, grid.J)[:, None]
    with pytest.raises(ValueError, match=f"got {cfl!r}"):
        run(states, model, "llf", grid, cfl, 0.0, 0.5)
    with pytest.raises(ValueError, match=f"got {cfl!r}"):
        next(march(states, model, "llf", grid, cfl, 0.0, 0.5))


@pytest.mark.parametrize("stepper", [run, lambda *args: next(march(*args))],
                         ids=["run", "march"])
@pytest.mark.parametrize("name", ["t0", "t_final"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_times_are_refused(stepper, name, value):
    grid = build_grid(-5.0, 5.0, 4)
    times = {"t0": 0.0, "t_final": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
        stepper(np.linspace(2.0, -2.0, grid.J), make_model("burgers"), "llf", grid, 0.9,
                times["t0"], times["t_final"])


def test_cfl_one_is_accepted():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    sol = run(np.linspace(2.0, -2.0, grid.J), model, "llf", grid, 1.0, 0.0, 0.5)
    assert sol.t_final == 0.5


def test_streamed_domain_exit_reports_cell_and_step():
    model = make_model("burgers")
    grid = Grid1D(0.0, 1.0, 4)
    states = np.array([[0.0], [0.0], [1e200], [0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        levels = march(states, model, "llf", grid, 0.9, 0.0, 1.0)
        assert next(levels)[0] == 0.0
        with pytest.raises(DomainError, match="cell j=1, step n=0"):
            next(levels)


def test_solution_dump_roundtrip(tmp_path):
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 4)
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 0.5)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    back = load_solution(str(path))
    assert back.grid == sol.grid
    assert back.model.name == "psystem"
    assert back.model.params() == {"C": 1.0, "gamma": 1.4}
    assert np.array_equal(back.times.t, sol.times.t)
    assert np.array_equal(back.states, sol.states)
    assert np.array_equal(back.ghost_left, sol.ghost_left)
    assert np.array_equal(back.ghost_right, sol.ghost_right)
    # the reloaded record drives the residual machinery identically
    assert epsilon(back).epsilon == epsilon(sol).epsilon


RUN_KINDS = [("burgers", "llf"), ("burgers", "godunov"), ("burgers", "eo"), ("psystem", "llf")]


@st.composite
def small_runs(draw, kinds=RUN_KINDS):
    """A short run of random Riemann data from a random t0 at a random CFL
    number: Burgers under each flux, or the p-system with random C and gamma
    under LLF.  Some runs take a single step, some start from constant data."""
    level = draw(st.integers(3, 5))
    grid = build_grid(draw(st.floats(-3.0, -1.0)), draw(st.floats(1.0, 3.0)), level)
    x_jump = draw(st.floats(-0.9, 0.9))
    name, flux = draw(st.sampled_from(kinds))
    if name == "burgers":
        model = make_model("burgers")
        left, right = ([draw(st.floats(-2.0, 2.0))] for _ in range(2))
    else:
        model = make_model("psystem", C=draw(st.floats(0.5, 2.0)),
                           gamma=draw(st.floats(1.1, 3.0)))
        left, right = ([draw(st.floats(0.5, 2.0)), draw(st.floats(-0.5, 0.5))]
                       for _ in range(2))
    if draw(st.booleans()) and draw(st.booleans()):
        right = left
    initial = np.where(grid.centers()[:, None] < x_jump, left, right)
    cfl = draw(st.floats(0.05, 1.0))
    t0 = draw(st.sampled_from([0.0, draw(st.floats(-1.0, 1.0))]))
    duration = draw(st.floats(0.05, 0.6))
    if draw(st.booleans()) and draw(st.booleans()):
        lam = float(model.max_wave_speed(initial).max())
        if lam > 0.1:  # a step shorter than the first CFL step
            duration = draw(st.floats(0.05, 0.9)) * cfl * grid.dx / lam
    return run(initial, model, flux, grid, cfl, t0, t0 + duration)


@settings(max_examples=30, deadline=None)
@given(small_runs())
def test_dump_round_trip_is_bit_exact(sol):
    """A reloaded dump is the run bit for bit, and audits exactly as the run
    estimates: the same report and the same residuals CSV bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp, "dump.csv")
        save_solution(sol, str(dump))
        back = load_solution(str(dump))
        for a, b in [(back.times.t, sol.times.t),
                     (dense(back.states), dense(sol.states)),
                     (back.ghost_left, sol.ghost_left), (back.ghost_right, sol.ghost_right)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (back.grid, back.model.name, back.model.params(), back.flux_kind, back.cfl) == (
            sol.grid, sol.model.name, sol.model.params(), sol.flux_kind, sol.cfl)
        reports = [json.dumps(error_estimator(r, 0.1).to_json_dict()) for r in (sol, back)]
        assert reports[0] == reports[1]
        for name, record in [("run.csv", sol), ("audit.csv", back)]:
            epsilon(record).write_cells_csv(record, str(Path(tmp, name)))
        assert Path(tmp, "run.csv").read_bytes() == Path(tmp, "audit.csv").read_bytes()


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("kind", RUN_KINDS, ids="-".join)
@given(data=st.data())
def test_discrete_conservation_over_random_riemann_data(kind, data):
    """The cell sums change by the boundary fluxes to roundoff, every step."""
    sol = data.draw(small_runs(kinds=[kind]))
    grid = sol.grid
    levels = dense(sol.states)
    for n in range(sol.n_steps):
        fluxes = interface_fluxes(sol.flux_kind, sol.model, _padded(sol, n))
        change = grid.dx * (levels[n + 1].sum(axis=0) - levels[n].sum(axis=0))
        boundary = sol.times.dt(n) * (fluxes[0] - fluxes[-1])
        scale = np.maximum(np.abs(change), np.abs(boundary))
        scale = np.maximum(scale, grid.dx * np.abs(levels[n]).sum(axis=0))
        assert np.all(np.abs(change - boundary) <= 1e-12 * scale)


def one_string_dump(sol: SpaceTimeSolution) -> bytes:
    """The solution dump of sol, built as one string value by value: each
    level's row holds t, its ghost hull lo and hi, and its hull cells."""
    params = ",".join(f"{k}={v!r}" for k, v in sorted(sol.model.params().items()))
    lines = [
        "# fvbound-solution 2",
        f"# model={sol.model.name} params={params}",
        f"# flux={sol.flux_kind} cfl={sol.cfl!r}",
        f"# x_min={sol.grid.x_min!r} x_max={sol.grid.x_max!r} J={sol.grid.J} m={sol.model.m}",
        f"# ghost_left={','.join(repr(float(v)) for v in sol.ghost_left)}",
        f"# ghost_right={','.join(repr(float(v)) for v in sol.ghost_right)}",
    ]
    for t, (lo, hi), level in zip(sol.times.t, sol.ghost_hulls, dense(sol.states)):
        lines.append(",".join([repr(float(t)), str(int(lo)), str(int(hi)),
                               *(repr(float(v)) for v in level[lo:hi].reshape(-1))]))
    return "".join(line + "\n" for line in lines).encode()


def test_dump_bytes_equal_the_one_string_writer(tmp_path):
    """save_solution streams its rows; the bytes equal the writer that built
    the whole dump as one string first."""
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 4)
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 0.5)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    assert path.read_bytes() == one_string_dump(sol)


# Finite cell values with both signed zeros and subnormals, and the positive
# ones a p-system density takes: the dump is refused outside the domain.
_CELL_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                         st.floats(allow_nan=False, allow_infinity=False))
_DENSITIES = st.one_of(st.sampled_from([1.0, 5e-324]),
                       st.floats(0.0, exclude_min=True, allow_infinity=False))


@st.composite
def hull_records(draw):
    """A record built from its levels' ghost hulls: m = 1 or 2, J = 1..6,
    one to six levels whose hulls may be empty or touch cell 0 or J, and
    whose hull cells may hold -0.0 or a ghost's bits."""
    m, J = draw(st.sampled_from([1, 2])), draw(st.integers(1, 6))
    values = [_DENSITIES, _CELL_VALUES] if m == 2 else [_CELL_VALUES]
    ghost = st.tuples(*values).map(list)
    ghost_left, ghost_right = draw(ghost), draw(ghost)
    times = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6, unique=True))
    history = LevelHistory(J, m, ghost_left, ghost_right)
    cell = st.tuples(*(st.one_of(value, st.sampled_from([ghost_left[c], ghost_right[c]]))
                       for c, value in enumerate(values)))
    for _ in times:
        lo = draw(st.sampled_from([0, J, draw(st.integers(0, J))]))
        hi = draw(st.sampled_from([lo, J, draw(st.integers(lo, J))]))
        cells = draw(st.lists(cell, min_size=hi - lo, max_size=hi - lo))
        history.append(np.reshape(cells, (hi - lo, m)), lo, hi)
    model = make_model("burgers") if m == 1 else make_model("psystem")
    return SpaceTimeSolution(Grid1D(-1.0, 1.0, J), TimeLevels(sorted(times)), history.freeze(),
                             history.ghost_left, history.ghost_right, model, "llf", 0.9)


@settings(max_examples=150, deadline=None)
@given(hull_records())
def test_dump_round_trips_each_level_by_its_hull(sol):
    """A reloaded dump has the record's times and ghost hulls, and its levels
    are the record's bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "dump.csv"))
        save_solution(sol, path)
        back = load_solution(path)
    assert back.times.t.tobytes() == sol.times.t.tobytes()
    assert back.ghost_hulls.tolist() == sol.ghost_hulls.tolist()
    for a, b in [(back.ghost_left, sol.ghost_left), (back.ghost_right, sol.ghost_right)]:
        assert a.tobytes() == b.tobytes()
    assert back.states.shape == sol.states.shape
    for a, b in zip(back.states.walk(), sol.states.walk()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("component,value", [(0, "nan"), (0, "inf"), (0, "-0.25"), (0, "0.0"),
                                             (1, "-inf")],
                         ids=["nan", "inf", "negative-rho", "zero-rho", "inf-q"])
def test_load_names_the_line_and_cell_outside_the_domain(tmp_path, component, value):
    """A hull cell outside the model's domain is refused with the file, the
    line, the cell's index j and state, and the model's own message."""
    path, lines = _dump_lines(tmp_path, right=(0.8, 0.3))
    t, lo, hi, *cells = lines[7].rstrip("\n").split(",")
    assert int(hi) > int(lo)
    cells[component] = value  # the first hull cell, j = lo
    lines[7] = ",".join([t, lo, hi, *cells]) + "\n"  # the second time level, line 8
    path.write_text("".join(lines))
    with pytest.raises(DomainError) as info:
        load_solution(str(path))
    state = [float(v) for v in cells[:2]]
    assert str(info.value) == (f"{path}, line 8: cell j={lo} holds {state}: p-system state "
                               f"with rho <= 0 or non-finite entries")


@pytest.mark.parametrize("name,key,bad,message", [
    ("psystem", "ghost_left", "-0.0,0.5", "p-system state with rho <= 0 or non-finite entries"),
    ("psystem", "ghost_right", "1.0,nan", "p-system state with rho <= 0 or non-finite entries"),
    ("burgers", "ghost_left", "inf", "non-finite Burgers state"),
])
def test_load_names_a_ghost_outside_the_domain(tmp_path, name, key, bad, message):
    grid = build_grid(-5.0, 5.0, 2)
    initial = np.tile([1.0, 0.5], (grid.J, 1)) if name == "psystem" else np.ones(grid.J)
    sol = run(initial, make_model(name), "llf", grid, 0.9, 0.0, 0.2)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    text = path.read_text()
    good = next(line for line in text.splitlines() if line.startswith(f"# {key}="))
    path.write_text(text.replace(good, f"# {key}={bad}", 1))
    with pytest.raises(DomainError) as info:
        load_solution(str(path))
    assert str(info.value) == f"{path}: header value {key}={bad!r} is refused: {message}"


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_solution(str(path))


def _dump_lines(tmp_path, right=(1.0, 0.5)):
    """The path and lines of a p-system dump at J = 8 from the state
    (1.0, 0.5) on the left half and right on the right half; with no jump,
    every level's hull is empty."""
    model = make_model("psystem", C=1.0, gamma=1.4)
    grid = build_grid(-5.0, 5.0, 2)
    initial = np.where(grid.centers()[:, None] < 0.0, [1.0, 0.5], right)
    sol = run(initial, model, "llf", grid, 0.9, 0.0, 0.2)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    return path, path.read_text().splitlines(keepends=True)


def test_load_names_the_line_of_a_ragged_row(tmp_path):
    path, lines = _dump_lines(tmp_path, right=(0.8, 0.3))
    lo, hi = map(int, lines[7].split(",")[1:3])
    size = (hi - lo) * 2
    assert size > 0
    lines[7] = lines[7].rstrip("\n") + ",1.0\n"  # the second time level, line 8
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"dump.csv, line 8: {size + 1} hull cell values, "
                                         rf"expected \(hi - lo\)\*m = {size}$"):
        load_solution(str(path))


def test_load_names_the_line_of_a_truncated_last_row(tmp_path):
    path, lines = _dump_lines(tmp_path, right=(0.8, 0.3))
    assert lines[-1].count(",") > 2  # the last level's hull holds cells
    path.write_text("".join(lines)[: -len(lines[-1].rsplit(",", 1)[1])])
    with pytest.raises(ValueError, match=f"dump.csv, line {len(lines)}: could not convert"):
        load_solution(str(path))


@pytest.mark.parametrize("edit,message", [
    (lambda t, lo, hi, cells: [t, str(hi + 1), str(hi), *cells],
     "ghost hull lo={hi1} hi={hi} is not within 0 <= lo <= hi <= J = 8"),
    (lambda t, lo, hi, cells: [t, str(lo), "9", *cells, *["0.5"] * (2 * (9 - hi))],
     "ghost hull lo={lo} hi=9 is not within 0 <= lo <= hi <= J = 8"),
    (lambda t, lo, hi, cells: [t, "-1", str(hi), "1.0", "0.5", *cells],
     "ghost hull lo=-1 hi={hi} is not within 0 <= lo <= hi <= J = 8"),
    (lambda t, lo, hi, cells: [t, f"{lo}.5", str(hi), *cells],
     "ghost hull lo='{lo}.5' hi='{hi}' is not two integers"),
    (lambda t, lo, hi, cells: [t, str(lo), str(hi), *cells[:-1]],
     "{size1} hull cell values, expected (hi - lo)*m = {size}"),
    (lambda t, lo, hi, cells: [t, str(lo)], "2 columns, expected t, lo, hi and the hull cells"),
], ids=["lo-above-hi", "hi-above-J", "negative-lo", "non-integer-lo", "value-count",
        "no-hull"])
def test_load_names_the_line_of_a_bad_hull(tmp_path, edit, message):
    """A row whose ghost hull is not 0 <= lo <= hi <= J, or whose value
    count is not (hi - lo)*m, is refused with the file and the line."""
    path, lines = _dump_lines(tmp_path, right=(0.8, 0.3))
    t, lo, hi, *cells = lines[7].rstrip("\n").split(",")
    lo, hi = int(lo), int(hi)
    lines[7] = ",".join(edit(t, lo, hi, cells)) + "\n"  # the second time level, line 8
    path.write_text("".join(lines))
    size = (hi - lo) * 2
    expected = message.format(lo=lo, hi=hi, hi1=hi + 1, size=size, size1=size - 1)
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value) == f"{path}, line 8: {expected}"


@pytest.mark.parametrize("version", ["1", "3"])
def test_load_refuses_another_format_by_its_version(tmp_path, version):
    """A dump of format 1, which held all J x m cells of every level, or of
    any format but 2, is refused with its version and told to dump again."""
    path, lines = _dump_lines(tmp_path)
    assert lines[0] == "# fvbound-solution 2\n"
    path.write_text("".join([f"# fvbound-solution {version}\n", *lines[1:]]))
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value) == (f"{path}, line 1: a fvbound solution dump of format {version}, "
                               f"and only format 2 is read: dump the solution again with "
                               f"`fvbound run --dump-solution`")


@pytest.mark.parametrize("time,message", [
    ("same", "time {before!r} does not exceed the time before, {before!r}"),
    ("earlier", "time -1.0 does not exceed the time before, {before!r}"),
    ("nan", "time nan is not finite"),
    ("first-nan", "time nan is not finite"),
    ("first-inf", "time inf is not finite"),
])
def test_load_names_the_line_of_a_bad_time(tmp_path, time, message):
    """A row whose time is not finite, or does not exceed the row before's,
    is refused with the file and the line rather than by TimeLevels."""
    path, lines = _dump_lines(tmp_path, right=(0.8, 0.3))
    k = 6 if time.startswith("first") else 7
    before = float(lines[k - 1].split(",")[0]) if k == 7 else None
    new = {"same": repr(before), "earlier": "-1.0", "nan": "nan", "first-nan": "nan",
           "first-inf": "inf"}[time]
    lines[k] = ",".join([new, *lines[k].split(",")[1:]])
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value) == f"{path}, line {k + 1}: " + message.format(before=before)


@pytest.mark.parametrize("old,new,given,reason", [
    ("x_max=5.0", "x_max=-6.0", "x_min='-5.0' x_max='-6.0'",
     "need x_max > x_min, got [-5.0, -6.0]"),
    ("x_min=-5.0", "x_min=nan", "x_min='nan' x_max='5.0'", "need x_max > x_min, got [nan, 5.0]"),
    ("J=8", "J=0", "J='0'", "need at least one cell, got J=0"),
    ("J=8", "J=-3", "J='-3'", "need at least one cell, got J=-3"),
])
@pytest.mark.parametrize("rows", [True, False], ids=["with-rows", "header-only"])
def test_load_names_the_key_of_a_refused_grid(tmp_path, old, new, given, reason, rows):
    path, lines = _dump_lines(tmp_path)
    text = "".join(lines if rows else lines[:6])
    assert f" {old} " in text
    path.write_text(text.replace(f" {old} ", f" {new} ", 1))
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value) == f"{path}: header value {given} is refused: {reason}"
def test_load_refuses_a_header_only_dump(tmp_path):
    path, lines = _dump_lines(tmp_path)
    path.write_text("".join(lines[:6]))
    with pytest.raises(ValueError, match="dump.csv holds no time levels"):
        load_solution(str(path))


@pytest.mark.parametrize("key", ["model", "flux", "cfl", "x_min", "x_max", "J", "m",
                                 "ghost_left", "ghost_right"])
def test_load_names_a_missing_header_key(tmp_path, key):
    path, lines = _dump_lines(tmp_path)
    header = [" ".join(tok for tok in line.rstrip("\n").split(" ")
                       if not tok.startswith(f"{key}=")) + "\n" for line in lines[:6]]
    assert header != lines[:6]
    path.write_text("".join(header + lines[6:]))
    with pytest.raises(ValueError, match=f"dump.csv: header is missing '{key}'"):
        load_solution(str(path))


@pytest.mark.parametrize("key,bad", [("x_min", "abc"), ("x_max", "1e"), ("J", "4.5"),
                                     ("m", "two"), ("cfl", "fast"), ("params", "C"),
                                     ("ghost_left", "1.0,x"), ("ghost_right", ""),
                                     ("model", "bogus"), ("flux", "bogus")])
def test_load_names_a_malformed_header_value(tmp_path, key, bad):
    path, lines = _dump_lines(tmp_path)
    header = [" ".join(f"{key}={bad}" if tok.startswith(f"{key}=") else tok
                       for tok in line.rstrip("\n").split(" ")) + "\n" for line in lines[:6]]
    assert header != lines[:6]
    path.write_text("".join(header + lines[6:]))
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value).startswith(f"{path}: header value {key}={bad!r} does not parse: ")


@pytest.mark.parametrize("key,bad", [("ghost_left", "1.0"), ("ghost_right", "1.0,0.5,0.0")])
def test_load_names_a_ghost_of_the_wrong_length(tmp_path, key, bad):
    path, lines = _dump_lines(tmp_path)
    path.write_text("".join(lines).replace(f"# {key}=1.0,0.5\n", f"# {key}={bad}\n", 1))
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value) == (f"{path}: header value {key}={bad!r} holds "
                               f"{bad.count(',') + 1} values, expected m = 2")


@pytest.mark.parametrize("whole", [False, True], ids=["header", "whole-dump"])
def test_load_refuses_an_m_that_is_not_the_models(tmp_path, whole):
    """A p-system dump whose header says m=1, alone or with one-value ghosts
    and one value a hull cell, is refused at its header, and so is a Burgers
    dump that says m=2."""
    path, lines = _dump_lines(tmp_path, right=(0.8, 0.3))
    text = "".join(lines).replace(" m=2\n", " m=1\n", 1)
    if whole:
        text = text.replace("=1.0,0.5\n", "=1.0\n").replace("=0.8,0.3\n", "=0.8\n")
        rows = (line.split(",") for line in text.splitlines())
        text = "".join(",".join(row if row[0].startswith("#") else row[:3] + row[3::2]) + "\n"
                       for row in rows)  # t, lo, hi and each hull cell's rho
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_solution(str(path))
    assert str(info.value) == (f"{path}: header value m='1' does not match model psystem, "
                               f"whose m = 2")
    grid = build_grid(-5.0, 5.0, 2)
    sol = run(np.linspace(1.0, -1.0, grid.J), make_model("burgers"), "llf", grid, 0.9, 0.0, 0.2)
    save_solution(sol, str(path))
    path.write_text(path.read_text().replace(" m=1\n", " m=2\n", 1))
    with pytest.raises(ValueError, match=r"dump.csv: header value m='2' does not match model "
                                         r"burgers, whose m = 1$"):
        load_solution(str(path))


def test_load_stores_the_canonical_flux_name(tmp_path):
    path, lines = _dump_lines(tmp_path)
    path.write_text("".join(lines).replace("# flux=llf ", "# flux=LLF ", 1))
    assert load_solution(str(path)).flux_kind == "llf"


def test_run_validates_initial_shape():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("psystem", C=1.0, gamma=1.4)
    with pytest.raises(ValueError, match="shape"):
        run(np.ones((grid.J, 1)), model, "llf", grid, 0.9, 0.0, 0.1)


def test_run_accepts_flat_scalar_initial_data():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    sol = run(np.linspace(1.0, -1.0, grid.J), model, "llf", grid, 0.9, 0.0, 0.1)
    assert sol.states.shape[1:] == (grid.J, 1)


# (model, flux, level, left, right, jump position as a share of the domain,
# ramp width as a share of the domain (0: Riemann data), cfl, t0, duration)
_CONSTANT = ("burgers", "llf", 4, (0.5,), (0.5,), 0.5, 0.0, 0.9, 0.0, 0.5)
_AT_CELL_0 = ("psystem", "llf", 4, (1.0, 0.3), (0.6, -0.2), 0.04, 0.0, 0.9, 0.0, 0.4)
_AT_CELL_J_1 = ("burgers", "godunov", 4, (-1.0,), (1.5,), 0.97, 0.0, 0.8, 0.0, 0.4)
_INTO_THE_BOUNDARY = ("burgers", "eo", 5, (2.0,), (0.0,), 0.8, 0.1, 0.9, 0.3, 1.5)
# Waves into a state at rest whose windows lose cells: stale bounds and stale
# E1 deficits outside the window would show in these two.
_RAMP_TO_REST = ("burgers", "llf", 6, (1.5,), (0.0,), 0.0, 1.0, 0.5, 0.0, 1.0)
_STEP_TO_REST = ("burgers", "llf", 5, (1.25,), (0.0,), 0.5, 0.0, 1.0, 0.0, 1.0)


@st.composite
def windowed_cases(draw, kinds=RUN_KINDS):
    """Random Riemann or ramp data under every marching flux: Burgers with
    LLF, Godunov or Engquist-Osher, or the p-system under LLF; some data
    are constant, and some jumps lie in the first or the last cell."""
    name, flux = draw(st.sampled_from(kinds))
    if name == "burgers":
        left, right = ((draw(st.floats(-2.0, 2.0)),) for _ in range(2))
    else:
        left, right = ((draw(st.floats(0.5, 2.0)), draw(st.floats(-0.5, 0.5)))
                       for _ in range(2))
    if draw(st.integers(0, 5)) == 0:
        right = left
    width = draw(st.sampled_from([0.0, draw(st.floats(0.01, 1.0))]))
    at = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.01, 0.99])))
    return (name, flux, draw(st.integers(3, 6)), left, right, at, width,
            draw(st.floats(0.05, 1.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 1.5)))


def _windowed_case(name, flux, level, left, right, at, width, cfl, t0, duration):
    grid = build_grid(-3.0, 3.0, level)
    model = make_model(name)
    x = (grid.centers()[:, None] - grid.x_min) / (grid.x_max - grid.x_min)
    share = (x >= at).astype(float) if width == 0.0 else np.clip((x - at) / width, 0.0, 1.0)
    initial = (1.0 - share) * np.array(left) + share * np.array(right)
    return initial, model, flux, grid, cfl, t0, t0 + duration


def _hex_stream(levels) -> list:
    return [(t.hex(), [v.hex() for v in np.ravel(u)], tuple(window)) for t, u, window in levels]


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("name,kind", [
    ("burgers", "llf"), ("psystem", "llf"), ("burgers", "godunov"), ("burgers", "eo"),
])
@given(data=st.data())
@example(data=None)
def test_stepping_core_matches_hand_loop(name, kind, data):
    """Every (t, level, window) that march yields, in float hex, is the
    allocating whole-grid loop's (oracles.hand_march), on random Riemann or
    ramp data whose windows reach cell 0 or cell J or are empty, and on one
    fixed case; run records the same levels, and the interface fluxes of
    its levels are the loop's."""
    if data is None:
        model = make_model(name)
        grid = build_grid(-5.0, 5.0, 6)
        if name == "burgers":
            x = grid.centers()[:, None]
            states = np.where(x < 0.0, 1.5, -0.5) + 0.1 * np.sin(x)
        else:
            states = cell_average_exact(solve_riemann(model, [0.15, 0.0], [0.1, 0.0]), 0.0, 0.0,
                                        grid)
        args = (states, model, kind, grid, 0.9, 0.0, 1.0)
    else:
        args = _windowed_case(*data.draw(windowed_cases(kinds=[(name, kind)])))
    expected, expected_fluxes = hand_march(*args)
    streamed = [(t, u.copy(), window) for t, u, window in march(*args)]
    assert _hex_stream(streamed) == _hex_stream(expected)
    if data is None:
        assert len(streamed) > 10
    sol = run(*args)
    assert sol.times.t.tobytes() == np.array([t for t, _, _ in expected]).tobytes()
    assert dense(sol.states).tobytes() == np.array([u for _, u, _ in expected]).tobytes()
    for n, flux in enumerate(expected_fluxes):
        assert interface_fluxes(kind, sol.model, _padded(sol, n)).tobytes() == flux.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=windowed_cases())
@example(case=_CONSTANT)
@example(case=_AT_CELL_0)
@example(case=_AT_CELL_J_1)
@example(case=_INTO_THE_BOUNDARY)
@example(case=_RAMP_TO_REST)
@example(case=_STEP_TO_REST)
def test_windowed_run_equals_the_full_grid_loop_and_replay(case):
    """run steps only each step's active window; its times and states are
    the full-grid hand loop's, and epsilon's report of it the per-level
    fold's over the whole grid, bit for bit."""
    args = _windowed_case(*case)
    sol = run(*args)
    expected, _ = hand_march(*args)
    for got, want in ((sol.times.t, np.array([t for t, _, _ in expected])),
                      (dense(sol.states), np.array([u for _, u, _ in expected]))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    report, fold = epsilon(sol), per_level_epsilon(sol)
    assert json.dumps(report.to_json_dict()) == json.dumps(fold.to_json_dict())
    for name in ("tv", "tv_scalar", "beta_levels", "eta_levels", "speed_range"):
        got, want = getattr(report, name), getattr(fold, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _windows(sol):
    """The active window of every recorded level of sol."""
    return [_window(_padded(sol, n).view(np.int64), 0, sol.grid.J)
            for n in range(sol.n_steps + 1)]


def test_windowed_examples_reach_their_edge_cases():
    """The examples above reach what they name: an empty window, a window
    from cell 0, one to cell J-1, a wave that runs from inside the grid into
    its right boundary, and windows that lose cells."""
    constant, at_0, at_j, boundary, *shrinking = (run(*_windowed_case(*case)) for case in (
        _CONSTANT, _AT_CELL_0, _AT_CELL_J_1, _INTO_THE_BOUNDARY, _RAMP_TO_REST, _STEP_TO_REST))
    assert constant.n_steps > 1 and {lo == hi for lo, hi in _windows(constant)} == {True}
    assert any(lo == 0 < hi < at_0.grid.J for lo, hi in _windows(at_0))
    assert any(0 < lo < hi == at_j.grid.J for lo, hi in _windows(at_j))
    windows = _windows(boundary)
    assert windows[0][1] < boundary.grid.J == windows[-1][1]
    assert dense(boundary.states)[-1, -1] != boundary.ghost_right
    for sol in shrinking:
        windows = _windows(sol)
        assert any(lo < next_lo or next_hi < hi
                   for (lo, hi), (next_lo, next_hi) in zip(windows, windows[1:]))


def test_march_yields_a_read_only_level_and_its_window():
    """march yields the core's in-place level as a read-only view and the
    window of the step into it, at t0 the initial active window: a copy
    taken at each yield is run's record bit for bit, every cell outside the
    window equals the ghost state on its side, and after t0 also the level
    before, on a run whose window moves."""
    from fvbound.cli import _burgers_curved_averages

    grid = build_grid(-5.0, 5.0, 6)
    model = make_model("burgers")
    args = (_burgers_curved_averages(grid), model, "llf", grid, 0.9, 0.0, 1.0)
    times, levels, windows = [], [], []
    for t, states, window in march(*args):
        assert not states.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            states[0] = 0.0
        times.append(t)
        levels.append(states.copy())
        windows.append(window)
    sol = run(*args)
    assert np.array(times).tobytes() == sol.times.t.tobytes()
    assert np.array(levels).tobytes() == dense(sol.states).tobytes()
    assert windows[0] == _windows(sol)[0]
    for n, ((lo, hi), level) in enumerate(zip(windows, levels)):
        assert 0 <= lo <= hi <= grid.J
        for cells, ghost in ((slice(0, lo), sol.ghost_left), (slice(hi, None), sol.ghost_right)):
            if n:
                assert level[cells].tobytes() == levels[n - 1][cells].tobytes()
            assert level[cells].tobytes() == np.tile(ghost, (len(level[cells]), 1)).tobytes()
    assert len({lo for lo, _ in windows[1:]}) > 1 and len({hi for _, hi in windows[1:]}) > 1


@pytest.mark.parametrize("stepper", [run, lambda *args: list(march(*args))],
                         ids=["run", "march"])
@pytest.mark.parametrize("kind", ["godunov", "eo"])
def test_domain_exit_names_the_grid_cell_inside_a_window(stepper, kind):
    """A cell that leaves the domain inside a window that does not start at
    cell 0 is named by its index on the grid."""
    grid = Grid1D(0.0, 1.0, 64)
    states = np.zeros((grid.J, 1))
    states[40] = 1e200  # its right flux overflows, so cell 40 is the first non-finite
    padded = np.vstack([states[:1], states, states[-1:]])
    assert _window(padded.view(np.int64), 0, grid.J) == (39, 42)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="cell j=40, step n=0"):
            stepper(states, make_model("burgers"), kind, grid, 0.9, 0.0, 1.0)
