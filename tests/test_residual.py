import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import (
    build_grid,
    cell_average_exact,
    epsilon,
    make_model,
    solve_riemann,
    total_variation,
)
from fvbound.grid import Grid1D, TimeLevels
from fvbound import residual
from fvbound.models import interface_fluxes
from fvbound.residual import (
    ResidualReport,
    _padded,
    level_entropy_triplets,
    level_residual_bounds,
)
from fvbound.cli import _burgers_curved_averages
from fvbound.estimator import error_estimator
from fvbound.solver import SpaceTimeSolution, load_solution, run, save_solution

from oracles import (PROJECTION_INV, PROJECTION_MATRIX, ResidualFold, SlabTestFunction,
                     _b_edge_form, dense, global_weak_residual, level_corner_oracle,
                     per_level_cells_csv, per_level_epsilon, projection_coefficients,
                     stored_levels)
from test_solver import RUN_KINDS, _windowed_case, shock_profile, small_runs, windowed_cases

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def stationary_shock_solution(kind="godunov", level=4, steps=3):
    grid = build_grid(-5.0, 5.0, level)
    model = make_model("burgers")
    states = shock_profile(grid)
    return run(states, model, kind, grid, 0.9, 0.0, steps * 0.9 * grid.dx)


def small_run(name, kind="llf", level=6):
    """A short run with shocks and rarefactions: the rarefaction-shock
    p-system problem or the curved-shock Burgers problem."""
    grid = build_grid(-5.0, 5.0, level)
    if name == "psystem":
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        return run(cell_average_exact(fan, 0.0, 0.0, grid), model, kind, grid, 0.9, 0.0, 1.0)
    return run(_burgers_curved_averages(grid), make_model("burgers"), kind, grid, 0.9, 0.0, 0.6)


def edge_averages_by_quadrature(phi, dt, dx):
    """(left, top, right) averages of phi(t, x) on [0, dt] x [-dx/2, dx/2]."""
    t_nodes = 0.5 * dt * (GL_NODES + 1.0)
    x_nodes = 0.5 * dx * GL_NODES
    left = 0.5 * GL_WEIGHTS @ phi(t_nodes, np.full_like(t_nodes, -dx / 2))
    right = 0.5 * GL_WEIGHTS @ phi(t_nodes, np.full_like(t_nodes, dx / 2))
    top = 0.5 * GL_WEIGHTS @ phi(np.full_like(x_nodes, dt), x_nodes)
    return np.array([left, top, right])


def affine_from_coefficients(coeffs, dt, dx):
    return lambda t, x: coeffs.a1 + coeffs.a2 * (dt - t) / dt + coeffs.a3 * x / dx


class TestProjection:
    def test_constant_function(self):
        assert np.allclose(projection_coefficients([1.0, 1.0, 1.0]).as_array(), [1, 0, 0])

    def test_top_average_only(self):
        assert np.allclose(projection_coefficients([0.0, 1.0, 0.0]).as_array(), [1, -2, 0])

    def test_right_average_only(self):
        assert np.allclose(projection_coefficients([0.0, 0.0, 1.0]).as_array(), [0, 1, 1])

    def test_matrix_pair_is_inverse(self):
        assert np.allclose(PROJECTION_MATRIX @ PROJECTION_INV, np.eye(3))

    def test_average_preservation_on_random_functions(self):
        # the affine image reproduces the three edge averages of the input
        rng = np.random.default_rng(2024)
        dt, dx = 0.37, 0.21
        for _ in range(1000):
            a, b, c, d, e, f = rng.uniform(-2.0, 2.0, 6)
            w1, w2 = rng.uniform(0.5, 4.0, 2)

            def phi(t, x):
                return a + b * t + c * x + d * np.sin(w1 * t + w2 * x) + e * t * x + f * x * x

            averages = edge_averages_by_quadrature(phi, dt, dx)
            coeffs = projection_coefficients(averages)
            affine = affine_from_coefficients(coeffs, dt, dx)
            rebuilt = edge_averages_by_quadrature(affine, dt, dx)
            assert np.all(np.abs(rebuilt - averages) <= 1e-12 * (1.0 + np.abs(averages)))

    def test_stability_bound(self):
        # |P phi| in W^{1,inf} is at most max{3, sqrt(8 + 8/c^2)} |phi|: the
        # corner values are bounded by 3 |phi| and the time-derivative
        # coefficient by 2*sqrt(2)*sqrt(dt^2 + dx^2)/dt = sqrt(8 + 8/c^2).
        rng = np.random.default_rng(99)
        sample_t = np.linspace(0.0, 1.0, 201)
        for _ in range(200):
            dx = rng.uniform(0.05, 1.5)
            c_ratio = rng.uniform(0.05, 2.5)
            dt = c_ratio * dx
            coeffs_raw = rng.uniform(-1.0, 1.0, 6)
            w1, w2 = rng.uniform(0.5, 6.0, 2)

            def phi(t, x):
                a, b, c, d, e, f = coeffs_raw
                return a + b * t + c * x + d * np.sin(w1 * t + w2 * x) + e * t * t + f * x * x

            tt, xx = np.meshgrid(sample_t * dt, np.linspace(-dx / 2, dx / 2, 201))
            vals = phi(tt, xx)
            h = 1e-7
            dphit = (phi(tt + h, xx) - phi(tt - h, xx)) / (2 * h)
            dphix = (phi(tt, xx + h) - phi(tt, xx - h)) / (2 * h)
            norm = max(np.abs(vals).max(), np.abs(dphit).max(), np.abs(dphix).max())
            coeffs = projection_coefficients(edge_averages_by_quadrature(phi, dt, dx))
            bound = max(3.0, np.sqrt(8.0 + 8.0 / c_ratio**2))
            assert coeffs.w1inf_norm(dt, dx) <= bound * norm + 1e-9

    def test_stability_constant_needs_inverse_ratio(self):
        # for dt << dx an x^2 profile drives the time-derivative coefficient
        # like dx/dt, so no bound uniform in c = dt/dx < 1 can hold
        dx, dt = 1.0, 0.02
        coeffs = projection_coefficients(
            edge_averages_by_quadrature(lambda t, x: x * x, dt, dx)
        )
        norm_phi = max(dx * dx / 4.0, dx)  # sup value vs sup gradient
        ratio = coeffs.w1inf_norm(dt, dx) / norm_phi
        assert ratio > max(3.0, np.sqrt(8.0 + 8.0 * (dt / dx) ** 2))
        assert ratio <= max(3.0, np.sqrt(8.0 + 8.0 * (dx / dt) ** 2))


class TestLocalBound:
    def test_locally_constant_data_has_zero_bound(self):
        sol = stationary_shock_solution()
        j_far = 2  # deep inside the constant region
        assert np.all(level_residual_bounds(sol, "godunov", 0)[j_far] == 0.0)

    def test_stationary_shock_concentrates_in_center_cell(self):
        sol = stationary_shock_solution()
        grid = sol.grid
        j_center = int(np.nonzero(dense(sol.states)[0][:, 0] == 0.0)[0][0])
        dt = sol.times.dt(0)
        bounds = level_residual_bounds(sol, "godunov", 0)
        assert bounds[j_center, 0] == 0.5 * grid.dx * dt  # exact
        others = np.delete(bounds, j_center, axis=0)
        assert np.all(others == 0.0)

    def test_two_cell_shock_has_zero_bound_everywhere(self):
        grid = build_grid(-5.0, 5.0, 4)
        model = make_model("burgers")
        states = np.where(grid.centers() < 0.0, 1.0, -1.0)[:, None]
        sol = run(states, model, "godunov", grid, 0.9, 0.0, 0.5)
        for n in range(sol.n_steps):
            assert np.all(level_residual_bounds(sol, "godunov", n) == 0.0)


class TestEntropyTriplet:
    def test_stationary_constant_data(self):
        grid = build_grid(-5.0, 5.0, 3)
        model = make_model("burgers")
        states = np.full((grid.J, 1), 0.7)
        sol = run(states, model, "llf", grid, 0.9, 0.0, 0.2)
        e1, e2, e3, lower = (float(a[3]) for a in level_entropy_triplets(sol, 0))
        assert (e1, e2, e3, lower) == (0.0, 0.0, 0.0, 0.0)

    def test_stationary_shock_e2_value(self):
        # with the LLF entropy flux, q_l = 5/12 and q_r = -5/12 around the
        # center cell, so E2 = (5/12) dt^2
        sol = stationary_shock_solution(kind="godunov")
        j_center = int(np.nonzero(dense(sol.states)[0][:, 0] == 0.0)[0][0])
        dt = sol.times.dt(0)
        e2 = level_entropy_triplets(sol, 0)[1][j_center]
        assert e2 == pytest.approx((5.0 / 12.0) * dt * dt, rel=1e-13)

    def test_lower_bound_is_never_positive(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 5)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.0)
        for n in range(sol.n_steps):
            _, _, _, lower = level_entropy_triplets(sol, n)
            assert np.all(lower <= 0.0)


class TestTotalVariation:
    def test_constant_level(self):
        grid = build_grid(-5.0, 5.0, 3)
        model = make_model("burgers")
        sol = run(np.full((grid.J, 1), 1.5), model, "llf", grid, 0.9, 0.0, 0.1)
        tv, scalar = total_variation(sol, 0)
        assert scalar == 0.0 and np.all(tv == 0.0)

    def test_single_step(self):
        grid = build_grid(-5.0, 5.0, 3)
        model = make_model("burgers")
        states = np.where(grid.centers() < 0.0, 1.0, -1.0)[:, None]
        sol = run(states, model, "godunov", grid, 0.9, 0.0, 0.1)
        tv, scalar = total_variation(sol, 0)
        assert scalar == pytest.approx(2.0)

    def test_componentwise_sup_reduction(self):
        grid = Grid1D(0.0, 1.0, 4)
        model = make_model("psystem", C=1.0, gamma=1.4)
        states = np.array([[1.0, 0.0], [1.05, 0.3], [1.05, 0.0], [1.0, 0.0]])
        sol = SpaceTimeSolution(
            grid=grid,
            times=TimeLevels(np.array([0.0, 0.1])),
            states=np.array([states, states]),
            ghost_left=states[0],
            ghost_right=states[-1],
            model=model,
            flux_kind="llf",
            cfl=0.9,
        )
        tv, scalar = total_variation(sol, 0)
        assert tv == pytest.approx([0.1, 0.6])
        assert scalar == pytest.approx(0.6)


class TestEpsilon:
    def test_constant_solution(self):
        grid = build_grid(-5.0, 5.0, 3)
        model = make_model("psystem", C=1.0, gamma=1.4)
        sol = run(np.tile([1.0, 0.2], (grid.J, 1)), model, "llf", grid, 0.9, 0.0, 0.5)
        report = epsilon(sol)
        assert report.epsilon == 0.0
        assert report.beta == 0.0 and report.eta == 0.0

    def test_two_cell_shock_is_exactly_consistent(self):
        grid = build_grid(-5.0, 5.0, 4)
        model = make_model("burgers")
        states = np.where(grid.centers() < 0.0, 1.0, -1.0)[:, None]
        sol = run(states, model, "godunov", grid, 0.9, 0.0, 1.0)
        report = epsilon(sol)
        assert report.epsilon == 0.0
        assert report.tv_max == pytest.approx(2.0)

    def test_two_rarefaction_level_eight_matches_reference_value(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
        grid = build_grid(-5.0, 5.0, 8)
        sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 1.0)
        report = epsilon(sol)
        assert report.epsilon == pytest.approx(0.09584, rel=0.20)

    def test_report_cell_arrays_and_csv(self, tmp_path):
        sol = stationary_shock_solution()
        report = epsilon(sol)
        assert not {"bounds", "entropy_triplets", "entropy_lower"} & set(vars(report))
        path = tmp_path / "cells.csv"
        report.write_cells_csv(sol, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,j,bound_0,E1,E2,E3,ent_lower"
        assert len(lines) == 1 + sol.n_steps * sol.grid.J

    @pytest.mark.parametrize("name,kind,res_kind", [
        ("burgers", "llf", "llf"), ("psystem", "llf", "llf"), ("burgers", "godunov", "godunov"),
        ("burgers", "eo", "eo"),
    ])
    def test_matches_one_level_reference_api(self, name, kind, res_kind, tmp_path):
        """Every layer of the residual kernel equals the one-level reference
        functions under the marching flux res_kind, bit for bit, epsilon
        folds exactly those layers, and the residuals CSV carries their
        bounds and the E1, E2 and E3 built from the fold's entropy parts."""
        sol = small_run(name, kind)
        report = epsilon(sol)
        n_steps = sol.n_steps
        assert n_steps > 10
        path = tmp_path / "cells.csv"
        report.write_cells_csv(sol, str(path))
        m = sol.model.m
        cells = np.loadtxt(path, delimiter=",", skiprows=1).reshape(n_steps, sol.grid.J, m + 6)
        fold = ResidualFold(sol.grid.dx)
        levels = list(stored_levels(sol))
        assert len(levels) == n_steps + 1
        layers = [fold.add(*level) for level in levels]
        assert layers[0] is None
        for n, (_, ext, terms, _) in enumerate(levels):
            assert np.array_equal(ext, _padded(sol, n))
            assert np.array_equal(terms[4], report.speed_range[n])
            tv, scalar = total_variation(sol, n)
            assert np.array_equal(report.tv[n], tv) and report.tv_scalar[n] == scalar
            if n == n_steps:
                break
            dt, bounds, _ = layers[n + 1]
            assert dt == sol.times.dt(n)
            assert np.array_equal(bounds, level_residual_bounds(sol, res_kind, n))
            assert np.array_equal(cells[n, :, 2:m + 2], bounds)
            e1, e2, e3 = cells[n, :, m + 2], cells[n, :, m + 3], cells[n, :, m + 4]
            ref_e1, ref_e2, ref_e3, _ = level_entropy_triplets(sol, n)
            assert np.array_equal(e1, ref_e1) and np.array_equal(e2, ref_e2)
            assert np.array_equal(e3, ref_e3)
            assert report.beta_levels[n] == bounds.sum(axis=0).max() / dt
            assert report.eta_levels[n] == np.abs(np.minimum(e1, 0.0)).sum() / dt
        rate = max(report.beta_levels[1:].max(), report.eta_levels[1:].max())
        assert report.epsilon == report.stability_constant * rate / report.tv_max > 0.0
        speeds = sol.model.wave_speeds(dense(sol.states)).reshape(n_steps + 1, -1)
        assert np.array_equal(report.speed_range,
                              np.stack([speeds.min(axis=1), speeds.max(axis=1)], axis=1))

    @pytest.mark.parametrize("name", ["burgers", "psystem"])
    def test_cells_csv_matches_row_by_row_writer(self, name, tmp_path):
        """The CSV bytes equal a row-by-row writer over the one-level
        reference functions."""
        sol = small_run(name, level=4)
        path = tmp_path / "cells.csv"
        epsilon(sol).write_cells_csv(sol, str(path))
        assert path.read_bytes() == row_by_row_cells_csv(sol)


def row_by_row_cells_csv(sol: SpaceTimeSolution) -> bytes:
    """The residuals CSV of sol, formatted value by value from the one-level
    reference functions."""
    m = sol.model.m
    lines = [",".join(["n", "j"] + [f"bound_{c}" for c in range(m)]
                      + ["E1", "E2", "E3", "ent_lower"])]
    for n in range(sol.n_steps):
        bounds = level_residual_bounds(sol, sol.flux_kind, n)
        e1, e2, e3, lower = level_entropy_triplets(sol, n)
        for j in range(sol.grid.J):
            row = [str(n), str(j)]
            row += [repr(float(v)) for v in bounds[j]]
            row += [repr(float(v)) for v in (e1[j], e2[j], e3[j], lower[j])]
            lines.append(",".join(row))
    return "".join(line + "\r\n" for line in lines).encode()


def _assert_reports_identical(a: ResidualReport, b: ResidualReport):
    for field in dataclasses.fields(ResidualReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        elif isinstance(x, float):
            assert float(x).hex() == float(y).hex(), field.name
        else:
            assert x == y, field.name


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_run_carries_the_report_its_levels_replay_to(sol):
    """epsilon's report of a run equals epsilon replayed over the recorded
    levels, bit for bit in every field, whether the record is rebuilt by
    dataclasses.replace or reloaded from a dump; the estimate it feeds is
    deterministic."""
    want = epsilon(sol)
    _assert_reports_identical(want, epsilon(dataclasses.replace(sol)))
    with tempfile.TemporaryDirectory() as tmp:
        dump = str(Path(tmp, "dump.csv"))
        save_solution(sol, dump)
        _assert_reports_identical(want, epsilon(load_solution(dump)))
    texts = [json.dumps(error_estimator(sol, 0.1).to_json_dict()) for _ in range(2)]
    assert texts[0] == texts[1]


def _hand_built(name, flux, J, times, ghost_left, ghost_right, levels):
    """A record of the given levels, each a (lo, hi, values) triple: the
    ghosts left of lo and at or right of hi, the values in between."""
    m = len(ghost_left)
    states = np.empty((len(times), J, m))
    for level, (lo, hi, values) in zip(states, levels):
        level[:lo], level[hi:] = ghost_left, ghost_right
        level[lo:hi] = np.reshape(values, (hi - lo, m))
    return SpaceTimeSolution(grid=Grid1D(-1.0, 1.0, J), times=TimeLevels(times), states=states,
                             ghost_left=np.array(ghost_left), ghost_right=np.array(ghost_right),
                             model=make_model(name), flux_kind=flux, cfl=0.9)


# Burgers states with both signed zeros, and p-system states well inside the domain.
_BURGERS_STATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]), st.floats(-3.0, 3.0)).map(
    lambda v: (v,))
_PSYSTEM_STATE = st.tuples(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.3, 3.0)),
                           st.one_of(st.sampled_from([0.0, -0.0, 0.4]), st.floats(-1.0, 1.0)))


@st.composite
def pass_records(draw):
    """A record of a marching flux (Burgers under LLF, Godunov or
    Engquist-Osher, the p-system under LLF) from one source: run on random
    step or ramp data, at times with no step or a single one; that run's dump
    reloaded, which keeps the step windows as its hulls; the run with its
    ghosts swapped by dataclasses.replace; or a hand-built record whose
    levels have ghost runs, empty hulls, hulls at cell 0 and at J, and both
    signed zeros."""
    source = draw(st.sampled_from(["run", "load", "replace", "hand-built"]))
    if source == "hand-built":
        name, flux = draw(st.sampled_from(RUN_KINDS))
        state = _BURGERS_STATE if name == "burgers" else _PSYSTEM_STATE
        J = draw(st.integers(1, 9))
        steps = draw(st.lists(st.floats(0.01, 1.0), max_size=5))
        times = np.concatenate([[draw(st.floats(-1.0, 1.0))], steps]).cumsum()
        levels = []
        for _ in times:
            lo = draw(st.integers(0, J))
            hi = draw(st.integers(lo, J))
            levels.append((lo, hi, draw(st.lists(state, min_size=hi - lo, max_size=hi - lo))))
        return _hand_built(name, flux, J, times, draw(state), draw(state), levels)
    initial, model, flux, grid, cfl, t0, t_final = _windowed_case(*draw(windowed_cases()))
    steps = draw(st.sampled_from(["many", "none", "one"]))
    lam = float(model.max_wave_speed(initial).max())
    if steps == "none":
        t_final = t0
    elif steps == "one" and lam > 0.1:  # a step shorter than the first CFL step
        t_final = t0 + 0.5 * cfl * grid.dx / lam
    sol = run(initial, model, flux, grid, cfl, t0, t_final)
    if source == "load":
        with tempfile.TemporaryDirectory() as tmp:
            save_solution(sol, str(Path(tmp, "dump.csv")))
            sol = load_solution(str(Path(tmp, "dump.csv")))
    elif source == "replace":
        sol = dataclasses.replace(sol, ghost_left=sol.ghost_right, ghost_right=sol.ghost_left)
    return sol


def _assert_pass_equals_the_per_level_fold(sol, cells):
    """With blocks of at most cells cells, epsilon's report and the
    residuals CSV equal the per-level fold's, bit for bit."""
    want = per_level_epsilon(sol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residual, "BLOCK_CELLS", cells)
        _assert_reports_identical(epsilon(dataclasses.replace(sol)), want)
        with tempfile.TemporaryDirectory() as tmp:
            got, ref = Path(tmp, "got.csv"), Path(tmp, "ref.csv")
            want.write_cells_csv(sol, str(got))
            per_level_cells_csv(sol, str(ref))
            assert got.read_bytes() == ref.read_bytes()


@settings(max_examples=200, deadline=None)
@given(sol=pass_records(), cells=st.integers(1, 80))
@example(sol=_hand_built("burgers", "llf", 4, [0.0, 0.5, 1.0], (0.0,), (-0.0,),
                         [(0, 0, []), (4, 4, []), (0, 4, [(-0.0,), (0.0,), (-0.0,), (0.0,)])]),
         cells=1)
@example(sol=_hand_built("burgers", "godunov", 3, [0.0], (1.0,), (-1.0,), [(1, 2, [(0.0,)])]),
         cells=64)
@example(sol=_hand_built("psystem", "llf", 5, [0.0, 0.1], (1.0, 0.0), (0.5, -0.0),
                         [(0, 5, [(1.0, -0.0)] * 5), (5, 5, [])]), cells=3)
def test_blocked_pass_equals_the_per_level_fold(sol, cells):
    """The blocked residual pass, over any split of the levels into blocks
    (a block per level at cells = 1), gives every field of the report and
    every byte of the residuals CSV that the per-level fold gives."""
    _assert_pass_equals_the_per_level_fold(sol, cells)


def test_pass_splits_the_levels_where_the_constants_say():
    """At the module's block sizes, on burgers-curved L7 and the p-system's
    rarefaction-shock L9, the blocks cover every level once, in more than
    one block, each over the union of its levels' hulls grown by two cells,
    and hold at most BLOCK_CELLS cells unless one level alone is wider."""
    for sol in (small_run("burgers", level=7), small_run("psystem", level=9)):
        hulls, J = sol.ghost_hulls, sol.grid.J
        blocks = list(residual._block_ranges(hulls, J))
        assert blocks[0][0] == 0 and blocks[-1][1] == sol.n_steps + 1
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        for first, stop, c0, c1 in blocks:
            last = min(stop, sol.n_steps)  # the level that closes the block, or its last
            assert c0 == max(int(hulls[first:last + 1, 0].min()) - 2, 0)
            assert c1 == min(int(hulls[first:last + 1, 1].max()) + 2, J)
            assert stop - first == 1 or (c1 - c0 + 2) * (last + 1 - first) <= residual.BLOCK_CELLS
        assert len(blocks) > 1
        _assert_pass_equals_the_per_level_fold(sol, residual.BLOCK_CELLS)


class TestCornerOracle:
    def test_constant_region_is_zero(self):
        sol = stationary_shock_solution()
        assert np.all(level_corner_oracle(sol, "godunov", 0)[1] == 0.0)

    def test_center_cell_value(self):
        sol = stationary_shock_solution()
        j_center = int(np.nonzero(dense(sol.states)[0][:, 0] == 0.0)[0][0])
        dt = sol.times.dt(0)
        assert level_corner_oracle(sol, "godunov", 0)[j_center] == pytest.approx(
            0.5 * sol.grid.dx * dt
        )

    def test_dominated_by_closed_form_bound(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
        grid = build_grid(-5.0, 5.0, 5)
        sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 1.0)
        for n in range(sol.n_steps):
            oracle = level_corner_oracle(sol, "llf", n)
            bound = level_residual_bounds(sol, "llf", n)
            assert np.all(oracle <= bound + 1e-15)


class TestGlobalWeakResidual:
    def test_constant_test_function_annihilated_by_scheme(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
        grid = build_grid(-5.0, 5.0, 4)
        sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 0.7)
        phi = SlabTestFunction.constant(1.0, grid)
        scale = grid.dx * np.abs(dense(sol.states)).max() * (grid.J + 1)
        for n in range(sol.n_steps):
            for method in ("local", "direct"):
                val = global_weak_residual(sol, "llf", n, phi, method=method)
                assert np.all(np.abs(val) <= 1e-12 * scale)

    def test_coordinate_function_on_stationary_shock(self):
        # interior fluxes telescope; only the center cell contributes
        sol = stationary_shock_solution()
        grid = sol.grid
        dt = sol.times.dt(0)
        phi = SlabTestFunction.coordinate_x(grid)
        val = global_weak_residual(sol, "godunov", 0, phi)
        assert val == pytest.approx(-0.5 * grid.dx * dt, rel=1e-12)

    def test_local_sum_equals_direct_integration(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 4)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 0.6)
        rng = np.random.default_rng(5)
        for _ in range(100):
            phi = SlabTestFunction(
                time_slope=rng.uniform(-2.0, 2.0),
                node_values=rng.uniform(-1.0, 1.0, grid.J + 1),
            )
            n = int(rng.integers(0, sol.n_steps))
            a = global_weak_residual(sol, "llf", n, phi, method="local")
            b = global_weak_residual(sol, "llf", n, phi, method="direct")
            assert np.all(np.abs(a - b) <= 1e-10 * (1.0 + np.abs(b)))

    def test_per_cell_scheme_annihilation(self):
        # B_j^n applied to any constant vanishes when the residual flux is
        # the marching flux
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
        grid = build_grid(-5.0, 5.0, 4)
        sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 0.7)
        levels = dense(sol.states)
        scale = np.abs(levels).max() * grid.dx
        for n in range(sol.n_steps):
            dt = sol.times.dt(n)
            fluxes = interface_fluxes(sol.flux_kind, model, _padded(sol, n))
            vals = _b_edge_form(
                grid.dx, dt, levels[n], levels[n + 1],
                model.flux(levels[n]), fluxes[:-1], fluxes[1:],
                3.7, 3.7, 3.7,
            )
            assert np.all(np.abs(vals) <= 1e-12 * scale)
