import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvbound import (
    DomainError,
    build_grid,
    cell_average_exact,
    epsilon,
    error_estimator,
    load_solution,
    make_model,
    numerical_flux,
    save_solution,
    solve_riemann,
)
from fvbound.grid import Grid1D, cfl_timestep
from fvbound.solver import march, run, step


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
        assert np.allclose(sol.states, states, atol=1e-14)


@pytest.mark.parametrize("kind", ["godunov", "eo"])
def test_stationary_three_cell_shock(kind):
    # data (..., 1, 1, 0, -1, -1, ...) is stationary for both scalar fluxes
    grid = build_grid(-5.0, 5.0, 4)
    model = make_model("burgers")
    states = shock_profile(grid)
    new, _ = step(states, model, kind, grid, 0.01, states[0], states[-1])
    assert np.array_equal(new, states)
    sol = run(states, model, kind, grid, 0.9, 0.0, 1.0)
    assert np.all(sol.states == states)


def test_stationary_two_cell_shock_godunov():
    # the sharp two-cell shock is a fixed point of the Godunov flux (the
    # Engquist-Osher stationary profile needs the interior zero cell)
    grid = build_grid(-5.0, 5.0, 4)
    model = make_model("burgers")
    states = np.where(grid.centers() < 0.0, 1.0, -1.0)[:, None]
    sol = run(states, model, "godunov", grid, 0.9, 0.0, 1.0)
    assert np.all(sol.states == states)


def test_discrete_conservation_every_step():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
    grid = build_grid(-5.0, 5.0, 5)
    sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 1.0)
    for n in range(sol.n_steps):
        dt = sol.times.dt(n)
        fluxes = sol.interface_fluxes(n)
        change = grid.dx * (sol.states[n + 1].sum(axis=0) - sol.states[n].sum(axis=0))
        boundary = dt * (fluxes[0] - fluxes[-1])
        scale = np.maximum(np.abs(change), np.abs(boundary))
        scale = np.maximum(scale, grid.dx * np.abs(sol.states[n]).sum(axis=0))
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
    with pytest.raises(ValueError):
        sol.states[0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        sol.ghost_left[0] = 99.0


def test_ghost_states_frozen_at_initial_values():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    states = np.linspace(2.0, -2.0, grid.J)[:, None]
    sol = run(states, model, "llf", grid, 0.9, 0.0, 0.5)
    assert np.array_equal(sol.ghost_left, states[0])
    assert np.array_equal(sol.ghost_right, states[-1])
    ext = sol.extended_states(sol.n_steps)
    assert ext[0, 0] == 2.0 and ext[-1, 0] == -2.0


def test_march_agrees_with_run():
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    states = np.linspace(2.0, -2.0, grid.J)[:, None]
    sol = run(states, model, "llf", grid, 0.9, 0.0, 0.4)
    streamed = list(march(states, model, "llf", grid, 0.9, 0.0, 0.4))
    assert len(streamed) == sol.n_steps + 1
    for (t, u), n in zip(streamed, range(sol.n_steps + 1)):
        assert t == pytest.approx(float(sol.times.t[n]), abs=1e-15)
        assert np.array_equal(u, sol.states[n])


def _hand_march(states, model, kind, grid, cfl, t0, t_final):
    """Reference loop: a separate CFL scan, then a step that pads and scans
    on its own; its fluxes must equal the pairwise numerical flux."""
    ghost_left, ghost_right = states[0].copy(), states[-1].copy()
    tol = 1e-14 * max(1.0, abs(t_final))
    t, out, fluxes = t0, [(t0, states)], []
    while t < t_final - tol:
        dt = cfl_timestep(states, model, grid, cfl, ghost_left, ghost_right, max_dt=t_final - t)
        ext = np.vstack([ghost_left[None, :], states, ghost_right[None, :]])
        new, flux = step(states, model, kind, grid, dt, ghost_left, ghost_right)
        assert np.array_equal(flux, numerical_flux(kind, model, ext[:-1], ext[1:]))
        states = new
        fluxes.append(flux)
        t = t_final if t_final - (t + dt) <= tol else t + dt
        out.append((t, states))
    return out, fluxes


@pytest.mark.parametrize("name,kind", [
    ("burgers", "llf"), ("psystem", "llf"), ("burgers", "godunov"), ("burgers", "eo"),
])
def test_stepping_core_matches_hand_loop(name, kind):
    model = make_model(name)
    grid = build_grid(-5.0, 5.0, 6)
    if name == "burgers":
        x = grid.centers()[:, None]
        states = np.where(x < 0.0, 1.5, -0.5) + 0.1 * np.sin(x)
    else:
        states = cell_average_exact(solve_riemann(model, [0.15, 0.0], [0.1, 0.0]), 0.0, 0.0, grid)
    expected, expected_fluxes = _hand_march(states, model, kind, grid, 0.9, 0.0, 1.0)
    streamed = list(march(states, model, kind, grid, 0.9, 0.0, 1.0))
    assert len(streamed) == len(expected) > 10
    for (t, u), (t_ref, u_ref) in zip(streamed, expected):
        assert t == t_ref
        assert np.array_equal(u, u_ref)
    sol = run(states, model, kind, grid, 0.9, 0.0, 1.0)
    assert np.array_equal(sol.times.t, [t for t, _ in expected])
    assert np.array_equal(sol.states, np.array([u for _, u in expected]))
    # fluxes recomputed from the recorded levels are the marching fluxes
    for n, flux in enumerate(expected_fluxes):
        assert np.array_equal(sol.interface_fluxes(n), flux)


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


@pytest.mark.parametrize("cfl", [1.5, 4.0, 0.0, -0.5, float("nan")])
def test_cfl_outside_unit_interval_is_refused(cfl):
    grid = build_grid(-5.0, 5.0, 3)
    model = make_model("burgers")
    states = np.linspace(2.0, -2.0, grid.J)[:, None]
    with pytest.raises(ValueError, match=f"got {cfl!r}"):
        run(states, model, "llf", grid, cfl, 0.0, 0.5)
    with pytest.raises(ValueError, match=f"got {cfl!r}"):
        next(march(states, model, "llf", grid, cfl, 0.0, 0.5))


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


@st.composite
def small_runs(draw):
    """A short run of random Riemann data: Burgers under each flux, or the
    p-system with random C and gamma under LLF."""
    level = draw(st.integers(3, 5))
    grid = build_grid(draw(st.floats(-3.0, -1.0)), draw(st.floats(1.0, 3.0)), level)
    x_jump = draw(st.floats(-0.9, 0.9))
    if draw(st.booleans()):
        model, flux = make_model("burgers"), draw(st.sampled_from(["llf", "godunov", "eo"]))
        left, right = ([draw(st.floats(-2.0, 2.0))] for _ in range(2))
    else:
        model = make_model("psystem", C=draw(st.floats(0.5, 2.0)),
                           gamma=draw(st.floats(1.1, 3.0)))
        flux = "llf"
        left, right = ([draw(st.floats(0.5, 2.0)), draw(st.floats(-0.5, 0.5))]
                       for _ in range(2))
    initial = np.where(grid.centers()[:, None] < x_jump, left, right)
    return run(initial, model, flux, grid, draw(st.floats(0.3, 1.0)), 0.0,
               draw(st.floats(0.05, 0.6)))


@settings(max_examples=30, deadline=None)
@given(small_runs())
def test_dump_round_trip_is_bit_exact(sol):
    """A reloaded dump is the run bit for bit, and audits exactly as the run
    estimates: the same report and the same residuals CSV bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp, "dump.csv")
        save_solution(sol, str(dump))
        back = load_solution(str(dump))
        for a, b in [(back.times.t, sol.times.t), (back.states, sol.states),
                     (back.ghost_left, sol.ghost_left), (back.ghost_right, sol.ghost_right)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (back.grid, back.model.name, back.model.params(), back.flux_kind, back.cfl) == (
            sol.grid, sol.model.name, sol.model.params(), sol.flux_kind, sol.cfl)
        reports = [json.dumps(error_estimator(r, 0.1).to_json_dict()) for r in (sol, back)]
        assert reports[0] == reports[1]
        for name, record in [("run.csv", sol), ("audit.csv", back)]:
            epsilon(record).write_cells_csv(record, str(Path(tmp, name)))
        assert Path(tmp, "run.csv").read_bytes() == Path(tmp, "audit.csv").read_bytes()


def test_dump_bytes_equal_the_one_string_writer(tmp_path):
    """save_solution streams its rows; the bytes equal the writer that built
    the whole dump as one string first."""
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 4)
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 0.5)
    params = ",".join(f"{k}={v!r}" for k, v in sorted(sol.model.params().items()))
    lines = [
        "# fvbound-solution 1",
        f"# model={sol.model.name} params={params}",
        f"# flux={sol.flux_kind} cfl={sol.cfl!r}",
        f"# x_min={sol.grid.x_min!r} x_max={sol.grid.x_max!r} J={sol.grid.J} m={sol.model.m}",
        f"# ghost_left={','.join(repr(float(v)) for v in sol.ghost_left)}",
        f"# ghost_right={','.join(repr(float(v)) for v in sol.ghost_right)}",
    ]
    for n, t in enumerate(sol.times.t):
        lines.append(repr(float(t)) + "," + ",".join(repr(float(v))
                                                     for v in sol.states[n].reshape(-1)))
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_solution(str(path))


def _dump_lines(tmp_path):
    model = make_model("psystem", C=1.0, gamma=1.4)
    grid = build_grid(-5.0, 5.0, 2)
    sol = run(np.tile([1.0, 0.5], (grid.J, 1)), model, "llf", grid, 0.9, 0.0, 0.2)
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    return path, path.read_text().splitlines(keepends=True)


def test_load_names_the_line_of_a_ragged_row(tmp_path):
    path, lines = _dump_lines(tmp_path)
    lines[7] = lines[7].rstrip("\n") + ",1.0\n"  # the second time level, line 8
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"dump.csv, line 8: 18 columns, expected J\*m \+ 1 = 17"):
        load_solution(str(path))


def test_load_names_the_line_of_a_truncated_last_row(tmp_path):
    path, lines = _dump_lines(tmp_path)
    path.write_text("".join(lines)[: -len(lines[-1].rsplit(",", 1)[1])])
    with pytest.raises(ValueError, match=f"dump.csv, line {len(lines)}: could not convert"):
        load_solution(str(path))


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
