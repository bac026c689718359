import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvbound import (
    Trapezoid,
    build_grid,
    build_surge_trapezoid,
    cell_average_exact,
    detect_jumps,
    detect_surges,
    inb,
    make_model,
    oscillation,
    partition_meso_slab,
    solve_riemann,
)
from fvbound.grid import Grid1D, TimeLevels
from fvbound.partition import (
    JumpRegion,
    merge_close_regions,
    slab_block,
    trapezoid_cell_ranges,
    trapezoid_minmax,
)
from fvbound import solver
from fvbound.solver import SpaceTimeSolution, load_solution, march, run, save_solution
from oracles import cover_counts, dense, whole_level_jumps


def manual_solution(grid, times, levels, model=None):
    """Assemble a piecewise-constant record directly from level arrays."""
    states = np.array(levels, dtype=float)
    if states.ndim == 2:
        states = states[:, :, None]
    return SpaceTimeSolution(
        grid=grid,
        times=TimeLevels(np.asarray(times, dtype=float)),
        states=states,
        ghost_left=states[0, 0].copy(),
        ghost_right=states[0, -1].copy(),
        model=model or make_model("burgers"),
        flux_kind="llf",
        cfl=0.9,
    )


def speed_range(sol):
    """Per-level (min, max) signed wave speed over the cells, from
    wave_speeds: the reference for the (N+1, 2) array epsilon records."""
    speeds = sol.model.wave_speeds(dense(sol.states)).reshape(len(sol.states), -1)
    return np.stack([speeds.min(axis=1), speeds.max(axis=1)], axis=1)


def slab_partition(sol, n_lo, n_hi, eps, sigma0):
    return partition_meso_slab(sol, n_lo, n_hi, eps, sigma0, speed_range(sol),
                               slab_block(sol, n_lo, n_hi))


def slab_oscillation(sol, trap, n_lo, n_hi):
    return oscillation(sol, trap, n_lo, n_hi, slab_block(sol, n_lo, n_hi))


def step_levels(grid, n_levels, height=1.0, position=0.0):
    level = np.where(grid.centers() < position, height, 0.0)
    return [level for _ in range(n_levels)]


class TestInb:
    def test_inside(self):
        grid = build_grid(-5.0, 5.0, 3)
        assert inb(1.25, grid) == 1.25

    def test_clamps_left(self):
        grid = build_grid(-5.0, 5.0, 3)
        assert inb(-7.0, grid) == -5.0

    def test_clamps_right(self):
        grid = build_grid(-5.0, 5.0, 3)
        assert inb(12.0, grid) == 5.0


class TestDetectJumps:
    def test_constant_level(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1], [np.full(grid.J, 2.0)] * 2)
        assert detect_jumps(sol, 0, None, 0.1) == []

    def test_single_step(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1], step_levels(grid, 2, height=0.2))
        regions = detect_jumps(sol, 0, None, 0.1)
        assert len(regions) == 1
        assert regions[0].midpoint == pytest.approx(0.0)
        assert regions[0].j2 == regions[0].j1 + 1

    def test_interval_restriction(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1], step_levels(grid, 2, height=0.2))
        assert detect_jumps(sol, 0, (2.0, 5.0), 0.1) == []
        assert len(detect_jumps(sol, 0, (-1.0, 1.0), 0.1)) == 1

    def test_rarefaction_shock_final_level(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 10)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)
        regions = detect_jumps(sol, sol.n_steps, None, 0.1)
        assert len(regions) == 1
        shock_x = fan.waves[1].speed * 1.5
        assert regions[0].x_left <= shock_x <= regions[0].x_right

    def test_merge_close_regions(self):
        a = JumpRegion(2, 3, 0.0, 0.2)
        b = JumpRegion(5, 6, 0.3, 0.5)
        c = JumpRegion(40, 41, 3.8, 4.0)
        merged = merge_close_regions([a, b, c], 1.0)
        assert len(merged) == 2
        assert (merged[0].j1, merged[0].j2) == (2, 6)
        assert merged[0].x_right == 0.5
        assert merged[1] == c
        assert merge_close_regions([a, b, c], 1e-6) == [a, b, c]

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 40)), max_size=12),
           min_distance=st.floats(0.0, 1.0))
    def test_merged_regions_are_separated_and_cover_the_input_in_order(self, runs,
                                                                       min_distance):
        dx = 0.01
        regions, j = [], 0
        for gap, width in runs:  # sorted, disjoint runs of flagged interfaces
            j1, j = j + gap, j + gap + width
            regions.append(JumpRegion(j1, j, j1 * dx, (j + 1) * dx))
            j += 1
        merged = merge_close_regions(regions, min_distance)
        for left, right in zip(merged, merged[1:]):
            assert right.midpoint - left.midpoint >= min_distance
        rest = iter(regions)
        for region in merged:
            first = next(rest)
            assert (first.j1, first.x_left) == (region.j1, region.x_left)
            last = first
            while (last.j2, last.x_right) != (region.j2, region.x_right):
                last = next(rest)
        assert next(rest, None) is None


class TestSurgeTrapezoid:
    def test_symmetric_stationary_surge(self):
        grid = build_grid(-5.0, 5.0, 5)
        bottom = JumpRegion(30, 33, -0.3, 0.3)
        top = JumpRegion(30, 33, -0.3, 0.3)
        surge = build_surge_trapezoid(
            tau=0.5, bottom=bottom, top=top, delta_l=0.1, delta_r=0.1,
            lam_minus=-1.0, lam_plus=1.0, grid=grid, eps13=0.2,
            t_bot=0.0, t_top=0.5,
        )
        assert surge.lam == 0.0
        assert surge.x0 == 0.0
        # mirror images of each other
        assert surge.left.a_top == pytest.approx(-surge.right.b_top)
        assert surge.left.b_top == pytest.approx(-surge.right.a_top)
        assert surge.left.a_bot == pytest.approx(-surge.right.b_bot)
        assert surge.delta == pytest.approx(0.2)

    def test_boundary_clamping(self):
        grid = build_grid(-5.0, 5.0, 5)
        bottom = JumpRegion(60, 62, 4.4, 4.9)
        top = JumpRegion(60, 62, 4.4, 4.9)
        surge = build_surge_trapezoid(
            tau=0.5, bottom=bottom, top=top, delta_l=0.3, delta_r=0.3,
            lam_minus=-2.0, lam_plus=2.0, grid=grid, eps13=0.5,
            t_bot=0.0, t_top=0.5,
        )
        assert surge.outer.b_top == 5.0
        assert surge.outer.b_bot == 5.0


class TestOscillation:
    def test_constant_region(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1, 0.2], step_levels(grid, 3, height=1.0))
        trap = Trapezoid(0.0, 0.2, 1.0, 4.0, 1.5, 4.5)
        assert slab_oscillation(sol, trap, 0, 2) == 0.0

    def test_step_straddling(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1, 0.2], step_levels(grid, 3, height=0.7))
        trap = Trapezoid(0.0, 0.2, -1.0, 1.0, -1.0, 1.0)
        assert slab_oscillation(sol, trap, 0, 2) == pytest.approx(0.7)

    def test_vector_sup_reduction(self):
        grid = Grid1D(0.0, 1.0, 4)
        model = make_model("psystem", C=1.0, gamma=1.4)
        level = np.array([[1.0, 0.0], [1.02, 0.3], [1.0, 0.0], [1.0, 0.0]])
        sol = manual_solution(grid, [0.0, 0.1], [level, level], model=model)
        trap = Trapezoid(0.0, 0.1, 0.0, 1.0, 0.0, 1.0)
        assert slab_oscillation(sol, trap, 0, 1) == pytest.approx(0.3)

    def test_empty_intersection(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1], step_levels(grid, 2))
        trap = Trapezoid(0.0, 0.1, 2.0, 1.0, 2.0, 1.0)  # inverted interval
        assert slab_oscillation(sol, trap, 0, 1) == 0.0

    def test_boundary_touching_counts(self):
        grid = Grid1D(0.0, 1.0, 4)
        level = np.array([0.0, 1.0, 0.0, 0.0])
        sol = manual_solution(grid, [0.0, 0.1], [level, level])
        # trapezoid that only touches cell 1 at its right edge x = 0.25
        trap = Trapezoid(0.0, 0.1, 0.0, 0.25, 0.0, 0.25)
        levels, j_lo, j_hi = trapezoid_cell_ranges(trap, sol, 0, 1)
        assert (levels.tolist(), j_lo.tolist(), j_hi.tolist()) == ([0], [0], [1])
        assert slab_oscillation(sol, trap, 0, 1) == pytest.approx(1.0)


class TestDetectSurges:
    def test_constant_solution_has_no_surges(self):
        grid = build_grid(-5.0, 5.0, 5)
        sol = manual_solution(grid, [0.0, 0.1, 0.2], [np.full(grid.J, 1.0)] * 3)
        surges, oscs = detect_surges(sol, 0, 2, 0.1, -1.0, 1.0, 0.01, slab_block(sol, 0, 2))
        assert surges == [] and oscs == []

    def test_two_rarefactions_has_no_surges(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
        grid = build_grid(-5.0, 5.0, 7)
        sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 1.0)
        speeds = model.wave_speeds(dense(sol.states))
        surges, _ = detect_surges(sol, 0, sol.n_steps, 0.1,
                                  float(speeds.min()), float(speeds.max()), 0.19,
                                  slab_block(sol, 0, sol.n_steps))
        assert surges == []

    def test_moving_step_is_confirmed(self):
        grid = build_grid(-5.0, 5.0, 6)
        model = make_model("burgers")
        states = np.where(grid.centers() < 0.0, 1.0, 0.0)[:, None]
        sol = run(states, model, "llf", grid, 0.9, 0.0, 1.0)
        speeds = model.wave_speeds(dense(sol.states))
        surges, oscs = detect_surges(sol, 0, sol.n_steps, 0.1,
                                     float(speeds.min()), float(speeds.max()), 0.05,
                                     slab_block(sol, 0, sol.n_steps))
        assert len(surges) == 1
        s = surges[0]
        assert s.x0 == pytest.approx(0.0, abs=3 * grid.dx)
        assert s.lam == pytest.approx(0.5, abs=0.1)  # shock speed (1+0)/2
        assert 0.0 <= oscs[0] <= 1.0


class TestPartition:
    def test_constant_slab_single_smooth_trapezoid(self):
        grid = build_grid(-5.0, 5.0, 4)
        sol = manual_solution(grid, [0.0, 0.1, 0.2], [np.full(grid.J, 2.0)] * 3)
        part = slab_partition(sol, 0, 2, 0.01, 0.1)
        assert part.surges == []
        assert len(part.smooth) == 1
        g = part.smooth[0]
        assert (g.a_bot, g.b_bot, g.a_top, g.b_top) == (-5.0, 5.0, -5.0, 5.0)

    def test_single_surge_flanked_by_smooth_trapezoids(self):
        grid = build_grid(-5.0, 5.0, 6)
        model = make_model("burgers")
        states = np.where(grid.centers() < 0.0, 0.5, -0.5)[:, None]
        sol = run(states, model, "godunov", grid, 0.9, 0.0, 0.5)
        part = slab_partition(sol, 0, sol.n_steps, 0.02, 0.1)
        assert len(part.surges) == 1
        assert len(part.smooth) == 2
        left, right = part.smooth
        assert left.a_top == -5.0
        assert right.b_top == 5.0
        assert left.b_top == pytest.approx(part.surges[0].outer.a_top)
        assert right.a_top == pytest.approx(part.surges[0].outer.b_top)

    def test_cover_invariants_on_fv_slabs(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 8)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)
        quarters = [0, sol.n_steps // 3, 2 * sol.n_steps // 3, sol.n_steps]
        for n_lo, n_hi in zip(quarters[:-1], quarters[1:]):
            part = slab_partition(sol, n_lo, n_hi, 0.069, 0.1)
            surge_counts, smooth_counts = cover_counts(sol, part)
            assert np.all(surge_counts + smooth_counts >= 1)
            assert np.all(smooth_counts <= 2)

    def test_surge_separation_invariant(self):
        grid = build_grid(-5.0, 5.0, 7)
        model = make_model("burgers")
        centers = grid.centers()
        states = np.where(centers < -2.0, 2.0, np.where(centers < 2.0, 0.5, -1.5))[:, None]
        sol = run(states, model, "llf", grid, 0.9, 0.0, 0.2)
        part = slab_partition(sol, 0, sol.n_steps, 0.005, 0.1)
        tau = part.t_hi - part.t_lo
        sep = (part.lam_plus - part.lam_minus) * tau
        mids = [s.x0 for s in part.surges]
        assert len(part.surges) >= 1
        assert all(b - a >= sep - 1e-12 for a, b in zip(mids, mids[1:]))

    def test_determinism(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 7)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.0)
        p1 = slab_partition(sol, 0, sol.n_steps, 0.1, 0.1)
        p2 = slab_partition(sol, 0, sol.n_steps, 0.1, 0.1)
        assert p1.surges == p2.surges
        assert p1.smooth == p2.smooth
        assert p1.surge_oscillations == p2.surge_oscillations


def test_partition_rejects_empty_slab():
    grid = build_grid(-5.0, 5.0, 4)
    sol = manual_solution(grid, [0.0, 0.1], step_levels(grid, 2))
    with pytest.raises(ValueError):
        slab_partition(sol, 1, 1, 0.01, 0.1)


def test_detect_jumps_rejects_bad_threshold():
    grid = build_grid(-5.0, 5.0, 4)
    sol = manual_solution(grid, [0.0, 0.1], step_levels(grid, 2))
    with pytest.raises(ValueError):
        detect_jumps(sol, 0, None, 0.0)
    with pytest.raises(ValueError):
        detect_jumps(sol, 0, None, float("nan"))


def ranges_oracle(trap, sol, n_lo, n_hi):
    """The per-level loop the range arrays replace: (level, j_lo, j_hi) for
    cells whose closed space-time rectangle meets the trapezoid."""
    grid = sol.grid
    out = []
    if trap.t_top - trap.t_bot <= 0:
        return out
    for level in range(n_lo, n_hi):
        w_lo = max(float(sol.times.t[level]), trap.t_bot)
        w_hi = min(float(sol.times.t[level + 1]), trap.t_top)
        if w_lo > w_hi:
            continue
        g_lo = trap.right_at(w_lo) - trap.left_at(w_lo)
        g_hi = trap.right_at(w_hi) - trap.left_at(w_hi)
        if g_lo < 0.0 and g_hi < 0.0:
            continue
        if g_lo < 0.0 or g_hi < 0.0:
            t_root = w_lo + (w_hi - w_lo) * g_lo / (g_lo - g_hi)
            if g_lo < 0.0:
                w_lo = t_root
            else:
                w_hi = t_root
        xlo = min(trap.left_at(w_lo), trap.left_at(w_hi))
        xhi = max(trap.right_at(w_lo), trap.right_at(w_hi))
        j_lo = max(int(np.ceil((xlo - grid.x_min) / grid.dx - 1.0 - 1e-9)), 0)
        j_hi = min(int(np.floor((xhi - grid.x_min) / grid.dx + 1e-9)), grid.J - 1)
        if j_lo <= j_hi:
            out.append((level, j_lo, j_hi))
    return out


def minmax_oracle(sol, ranges):
    """Per-level loop over the ranges: componentwise (min, max), or None."""
    if not ranges:
        return None
    levels = dense(sol.states)
    mins = np.min([levels[n][a : b + 1].min(axis=0) for n, a, b in ranges], axis=0)
    maxs = np.max([levels[n][a : b + 1].max(axis=0) for n, a, b in ranges], axis=0)
    return mins, maxs


# Cell values that include the ghost candidates, signed zeros apart.
VALUES = (0.0, -0.0, 1.0, -1.5)
PLATEAU = 3.25  # a constant that is no ghost state


def _assert_ghost_hulls(sol):
    """Every level's cells left of its ghost hull hold the bits of
    ghost_left and those at or right of it the bits of ghost_right."""
    levels = dense(sol.states)
    hulls = sol.ghost_hulls
    assert hulls.shape == (len(levels), 2) and not hulls.flags.writeable
    for level, (lo, hi) in zip(levels, hulls.tolist()):
        assert 0 <= lo <= hi <= sol.grid.J
        for cells, ghost in ((level[:lo], sol.ghost_left), (level[hi:], sol.ghost_right)):
            assert cells.tobytes() == np.tile(ghost, (len(cells), 1)).tobytes()


def tightest_hulls(sol):
    """Per level, cell by cell: from the first cell whose bits are not
    ghost_left's to the end of the last whose bits are not ghost_right's."""
    hulls = []
    for level in dense(sol.states):
        lo = next((j for j, cell in enumerate(level)
                   if cell.tobytes() != np.asarray(sol.ghost_left, float).tobytes()), len(level))
        hi = max((j + 1 for j, cell in enumerate(level)
                  if cell.tobytes() != np.asarray(sol.ghost_right, float).tobytes()), default=0)
        hulls.append([lo, max(lo, hi)])
    return hulls


# A cell's state: one value for all its components.
STATES = st.one_of(st.sampled_from(VALUES), st.floats(-10.0, 10.0))
# A p-system cell's state inside the domain (rho > 0), for a record that is
# dumped: rho subnormal or a ghost candidate's, q with both signed zeros.
DOMAIN_STATES = st.tuples(st.one_of(st.sampled_from([1.0, 5e-324]),
                                    st.floats(0.0, 10.0, exclude_min=True)),
                          st.one_of(st.sampled_from(VALUES), st.floats(-10.0, 10.0)))


@st.composite
def ghosted_levels(draw, J, m, ghost_left, ghost_right, n_levels, states=STATES):
    """Levels whose first level has runs of ghost cells at both ends and an
    interior constant plateau that is no ghost state; each later level gives
    one window of cells new values from states (ghosts among them) and keeps
    the rest, so the plateau may outlast the level it started in."""
    a = draw(st.integers(0, J))
    b = draw(st.integers(a, J))
    level = np.empty((J, m))
    level[:a], level[b:] = ghost_left, ghost_right
    level[a:b] = PLATEAU
    if b - a > 2:
        inner = draw(st.integers(a + 1, b - 1))
        level[inner] = draw(states)
    levels = [level]
    cell = st.one_of(states, st.sampled_from([ghost_left, ghost_right]).map(tuple))
    for _ in range(n_levels - 1):
        level = levels[-1].copy()
        lo = draw(st.integers(0, J))
        hi = draw(st.integers(lo, J))
        for j in range(lo, hi):
            level[j] = draw(cell)
        levels.append(level)
    return np.array(levels)


@st.composite
def records(draw):
    """A random record on [0, 1] with its ghost hulls from one of their
    sources: run's windows, or the tightest hulls of a hand-built (or
    dataclasses.replace'd) record's levels against its own ghosts, which
    load_solution reads back from the record's dump.  Its history is built
    with chunks of 1 to 8 values (at least a level's), so a slab's levels
    often span several."""
    with mock.patch.object(solver, "CHUNK", draw(st.integers(1, 8))):
        return _record(draw)


def _record(draw):
    J = draw(st.integers(1, 12))
    m = draw(st.sampled_from([1, 2]))
    grid = Grid1D(0.0, 1.0, J)
    model = make_model("burgers") if m == 1 else make_model("psystem")
    source = draw(st.sampled_from(["random", "hand-built", "replace", "load", "run"]))
    if source == "run":
        # states well inside the p-system's domain: density in [0.5, 2], |v| < 1
        state = st.tuples(st.floats(0.5, 2.0), st.floats(-0.3, 0.3)).map(
            lambda s: np.array(s[:m]))
        a = draw(st.integers(0, J))
        b = draw(st.integers(a, J))
        initial = np.empty((J, m))
        initial[:a], initial[b:], initial[a:b] = draw(state), draw(state), draw(state)
        if b - a > 2:
            initial[draw(st.integers(a + 1, b - 1))] = draw(state)
        sol = run(initial, model, "llf", grid, 0.9, 0.0, draw(st.floats(0.05, 0.5)))
        return sol, source
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    if source == "random":
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(times) * J * m,
                               max_size=len(times) * J * m))
        return manual_solution(grid, times, np.array(values).reshape(len(times), J, m),
                               model=model), source
    ghost = st.lists(st.sampled_from(VALUES), min_size=m, max_size=m).map(np.array)
    states = STATES
    if source == "load" and m == 2:  # the dump is refused outside the domain
        ghost = st.tuples(st.sampled_from([1.0, 2.5]), st.sampled_from(VALUES)).map(np.array)
        states = DOMAIN_STATES
    ghost_left, ghost_right = draw(ghost), draw(ghost)
    sol = SpaceTimeSolution(
        grid=grid, times=TimeLevels(times),
        states=draw(ghosted_levels(J, m, ghost_left, ghost_right, len(times), states)),
        ghost_left=ghost_left, ghost_right=ghost_right, model=model, flux_kind="llf",
        cfl=0.9)
    if source == "replace":
        swapped = dataclasses.replace(sol, ghost_left=ghost_right, ghost_right=ghost_left)
        assert dense(swapped.states).tobytes() == dense(sol.states).tobytes()
        sol = swapped
    elif source == "load":
        with tempfile.TemporaryDirectory() as tmp:
            save_solution(sol, os.path.join(tmp, "dump.csv"))
            back = load_solution(os.path.join(tmp, "dump.csv"))
        assert np.array_equal(back.ghost_hulls, sol.ghost_hulls)
        sol = back
    return sol, source


@st.composite
def slabs_and_trapezoids(draw):
    """A random record with a trapezoid that may stick out of the domain or
    the slab, degenerate, cross inside a level, or have no height."""
    sol, source = draw(records())
    J, times = sol.grid.J, sol.times.t
    # x on the cell edges too, where the 1e-9 slop decides touching
    x = st.one_of(st.floats(-0.3, 1.3), st.integers(-2, J + 2).map(lambda k: k / J))
    t = st.one_of(st.floats(-0.2, float(times[-1]) + 0.2), st.sampled_from(list(times)))
    t_bot = draw(t)
    t_top = t_bot if draw(st.booleans()) and draw(st.booleans()) else draw(t)
    trap = Trapezoid(t_bot, t_top, draw(x), draw(x), draw(x), draw(x))
    n_lo = draw(st.integers(0, len(times) - 2))
    n_hi = draw(st.integers(n_lo + 1, len(times) - 1))
    return sol, source, trap, n_lo, n_hi


@settings(max_examples=400, deadline=None)
@given(case=slabs_and_trapezoids())
def test_range_arrays_and_block_minmax_equal_the_per_level_loop(case):
    """With the ghost hulls of each source, the min and max over the hull
    segments and the ghosts the ranges reach are the per-level loop's."""
    sol, source, trap, n_lo, n_hi = case
    _assert_ghost_hulls(sol)
    if source != "run":  # run's hulls are its windows
        assert sol.ghost_hulls.tolist() == tightest_hulls(sol)
    levels, j_lo, j_hi = trapezoid_cell_ranges(trap, sol, n_lo, n_hi)
    ranges = ranges_oracle(trap, sol, n_lo, n_hi)
    assert list(zip(levels.tolist(), j_lo.tolist(), j_hi.tolist())) == ranges
    got = trapezoid_minmax(sol, trap, n_lo, n_hi, slab_block(sol, n_lo, n_hi))
    want = minmax_oracle(sol, ranges)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(case=records(), data=st.data())
def test_detect_jumps_on_the_hull_equals_the_whole_level_scan(case, data):
    """Reading only the ghost hull and the ghosts beside it, detect_jumps
    flags the regions of the scan over every cell of the level, for whole
    and partial intervals (an empty one included)."""
    sol, _ = case
    n = data.draw(st.integers(-len(sol.times.t), len(sol.times.t) - 1))
    x = st.floats(-0.3, 1.3)
    x_interval = data.draw(st.one_of(st.none(), st.tuples(x, x),
                                     st.tuples(x, x).map(sorted).map(tuple)))
    sigma0 = data.draw(st.one_of(st.sampled_from([1e-3, 0.1, 0.5]), st.floats(1e-6, 2.0)))
    assert detect_jumps(sol, n, x_interval, sigma0) == whole_level_jumps(sol, n, x_interval,
                                                                         sigma0)


def test_hand_built_and_replaced_records_store_their_tightest_hulls():
    """A plateau that is no ghost state lies inside each ghost hull; a level
    that holds one ghost state only has an empty hull at its end or its
    start; a replaced record stores the same levels against its own ghosts."""
    grid = Grid1D(0.0, 1.0, 6)
    first = np.array([0.0, 0.0, 3.25, 3.25, 1.0, 1.0])
    second = np.array([0.0, 0.5, 3.25, 3.25, 1.0, 1.0])
    sol = manual_solution(grid, [0.0, 0.1, 0.2, 0.3],
                          [first, second, np.zeros(6), np.ones(6)])
    assert sol.ghost_hulls.tolist() == [[2, 4], [1, 4], [6, 6], [0, 0]]
    assert sol.states.nbytes == 8 * (2 + 3 + 0 + 0)
    swapped = dataclasses.replace(sol, ghost_left=sol.ghost_right, ghost_right=sol.ghost_left)
    assert swapped.ghost_hulls.tolist() == [[0, 6], [0, 6], [0, 0], [6, 6]]
    assert dense(swapped.states).tobytes() == dense(sol.states).tobytes()
    assert dataclasses.replace(swapped, ghost_left=sol.ghost_left,
                               ghost_right=sol.ghost_right).ghost_hulls.tolist() == (
        sol.ghost_hulls.tolist())


def test_run_records_its_windows_as_ghost_hulls():
    """run's hulls are its step windows, level 0's the initial active window,
    so they may hold ghost cells at their ends; a record built from the
    run's dense levels stores the tightest hulls, which lie inside them."""
    grid = Grid1D(0.0, 1.0, 16)
    states = np.where(grid.centers() < 0.5, 1.0, 0.0)[:, None]
    model = make_model("burgers")
    sol = run(states, model, "llf", grid, 0.9, 0.0, 0.2)
    _assert_ghost_hulls(sol)
    windows = [list(window) for _, _, window in march(states, model, "llf", grid, 0.9, 0.0,
                                                       0.2)]
    assert windows[0] == [7, 9] and sol.ghost_hulls.tolist() == windows
    tight = SpaceTimeSolution(sol.grid, sol.times, dense(sol.states), sol.ghost_left,
                              sol.ghost_right, sol.model, sol.flux_kind, sol.cfl)
    assert tight.ghost_hulls.tolist() == tightest_hulls(sol)
    assert np.all(tight.ghost_hulls[:, 0] >= sol.ghost_hulls[:, 0])
    assert np.all(tight.ghost_hulls[:, 1] <= sol.ghost_hulls[:, 1])
    assert not np.array_equal(tight.ghost_hulls, sol.ghost_hulls)


def test_slab_block_layout(monkeypatch):
    """The block holds each level's ghost-hull cells, component-major, one
    level after the other, in one piece per chunk of the history; an empty
    hull adds no column; at m = 1 each piece is its chunk."""
    grid = Grid1D(0.0, 1.0, 5)
    ghost_left, ghost_right = np.array([1.0, 0.0]), np.array([2.0, -0.0])
    levels = np.empty((4, 5, 2))
    levels[:] = ghost_right
    levels[:, :2] = ghost_left
    levels[1, 1:4] = [[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]]
    levels[2, 0] = [11.0, 12.0]
    levels[3, 4] = [0.0, 0.0]  # -0.0 is the ghost's momentum, 0.0 is not
    sol = SpaceTimeSolution(grid, TimeLevels([0.0, 0.1, 0.2, 0.3]), levels, ghost_left,
                            ghost_right, make_model("psystem"), "llf", 0.9)
    assert sol.ghost_hulls.tolist() == [[2, 2], [1, 4], [0, 2], [2, 5]]
    block = slab_block(sol, 0, 4)
    assert len(block.pieces) == 1 and block.pieces[0].flags.c_contiguous
    assert (block.first.tolist(), block.lo.tolist(), block.hi.tolist(),
            block.start.tolist()) == ([0], [2, 1, 0, 2], [2, 4, 2, 5], [0, 0, 3, 5])
    want = np.concatenate([levels[1, 1:4], levels[2, 0:2], levels[3, 2:5]]).T
    assert block.pieces[0].tobytes() == want.tobytes()
    later = slab_block(sol, 2, 4)
    assert later.start.tolist() == [0, 2] and later.pieces[0].tobytes() == want[:, 3:].tobytes()
    # chunks of 10 values: level 3 does not fit after levels 0..2 and starts the next
    monkeypatch.setattr(solver, "CHUNK", 10)
    chunked = dataclasses.replace(sol, states=levels)
    block = slab_block(chunked, 0, 4)
    assert (block.first.tolist(), block.start.tolist()) == ([0, 3], [0, 0, 3, 0])
    assert [p.tobytes() for p in block.pieces] == [want[:, :5].tobytes(),
                                                   want[:, 5:].tobytes()]
    scalar = manual_solution(grid, [0.0, 0.1, 0.2], [[1.0, 1.0, 4.0, 3.0, 3.0]] * 3)
    block = slab_block(scalar, 0, 3)  # chunks of 10 values at J = 5: one piece
    assert block.pieces[0].tobytes() == np.array([[4.0, 4.0, 4.0]]).tobytes()
    assert np.shares_memory(block.pieces[0], scalar.states._chunks[0])  # in place at m = 1
    monkeypatch.setattr(solver, "CHUNK", 2)  # chunks of J = 5 values: one 3-cell hull each
    scalar = manual_solution(grid, [0.0, 0.1, 0.2], [[1.0, 4.0, 5.0, 6.0, 3.0]] * 3)
    block = slab_block(scalar, 0, 3)
    assert block.first.tolist() == [0, 1, 2] and block.start.tolist() == [0, 0, 0]
    assert [p.tobytes() for p in block.pieces] == [np.array([[4.0, 5.0, 6.0]]).tobytes()] * 3
    assert all(np.shares_memory(p, c) for p, c in zip(block.pieces, scalar.states._chunks))


def test_surge_oscillation_keeps_cells_the_shrinking_strip_drops():
    """kappa' is the oscillation over the union of every strip iteration's
    sub-trapezoids: a bump that only the first left sub-trapezoid meets
    still counts after the outer edge has moved past it."""
    grid = build_grid(-5.0, 5.0, 7)
    level = np.where(grid.centers() < 0.0, 1.0, 0.0)
    bumped = level.copy()
    bumped[97] = 1.05  # cell [-1.211, -1.172]: below the detector, left of the final edge
    sol = manual_solution(grid, [0.0, 0.5], [bumped, level])
    block = slab_block(sol, 0, 1)
    first = build_surge_trapezoid(0.5, JumpRegion(127, 128, -grid.dx, grid.dx),
                                  JumpRegion(127, 128, -grid.dx, grid.dx), 0.09, 0.09,
                                  -1.0, 1.0, grid, 0.1, 0.0, 0.5)
    assert oscillation(sol, first.left, 0, 1, block) == pytest.approx(0.05)

    surges, oscs = detect_surges(sol, 0, 1, 0.1, -1.0, 1.0, 1e-3, block)
    assert len(surges) == 1
    assert surges[0].delta == pytest.approx(0.01)  # the strip shrank to its floor
    assert oscillation(sol, surges[0].left, 0, 1, block) == 0.0
    assert oscillation(sol, surges[0].right, 0, 1, block) == 0.0
    assert oscs == [1.05 - 1.0]
