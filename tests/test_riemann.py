import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import fvbound.grid
import fvbound.riemann as riemann
from fvbound import (
    Grid1D,
    VacuumError,
    build_grid,
    cell_average_exact,
    make_model,
    solve_riemann,
)
from fvbound.riemann import exact_l1_distances
from fvbound.solver import LevelHistory, run
from oracles import sample


@pytest.fixture
def burgers():
    return make_model("burgers")


@pytest.fixture
def psystem():
    return make_model("psystem", C=1.0, gamma=1.4)


def test_equal_states_give_trivial_fan(psystem):
    fan = solve_riemann(psystem, [1.0, 2.0], [1.0, 2.0])
    assert all(w.kind == "none" for w in fan.waves)
    xi = np.linspace(-10.0, 10.0, 21)
    assert np.allclose(sample(fan, xi), [1.0, 2.0])


def test_burgers_stationary_shock(burgers):
    fan = solve_riemann(burgers, [1.0], [-1.0])
    (wave,) = fan.waves
    assert wave.kind == "shock"
    assert wave.speed == pytest.approx(0.0)
    assert sample(fan, -0.1) == pytest.approx([1.0])
    assert sample(fan, 0.1) == pytest.approx([-1.0])


def test_burgers_rarefaction_profile(burgers):
    fan = solve_riemann(burgers, [-1.0], [1.0])
    (wave,) = fan.waves
    assert wave.kind == "rarefaction"
    assert (wave.head, wave.tail) == (-1.0, 1.0)
    assert sample(fan, 0.5) == pytest.approx([0.5])


def test_psystem_two_rarefactions_star_state(psystem):
    fan = solve_riemann(psystem, [1.0, -2.0], [1.0, 2.0])
    assert [w.kind for w in fan.waves] == ["rarefaction", "rarefaction"]
    v_star = fan.star[1] / fan.star[0]
    assert abs(v_star) <= 1e-10
    # Riemann invariants constant across each fan
    g = psystem.gamma
    for family, (uK, sign) in enumerate([(fan.left, 1.0), (fan.right, -1.0)]):
        c_out = float(psystem.sound_speed(uK[0]))
        c_star = float(psystem.sound_speed(fan.star[0]))
        w_out = uK[1] / uK[0] + sign * 2.0 * c_out / (g - 1.0)
        w_star = v_star + sign * 2.0 * c_star / (g - 1.0)
        assert abs(w_out - w_star) <= 1e-10


def test_psystem_mirror_symmetry(psystem):
    fan = solve_riemann(psystem, [1.0, -2.0], [1.0, 2.0])
    xi = np.linspace(-4.0, 4.0, 401)
    left = sample(fan, xi)
    right = sample(fan, -xi)
    assert np.all(np.abs(left[:, 0] - right[:, 0]) <= 1e-10)
    v_l = left[:, 1] / left[:, 0]
    v_r = right[:, 1] / right[:, 0]
    assert np.all(np.abs(v_l + v_r) <= 1e-10)


def test_psystem_shock_satisfies_rankine_hugoniot(psystem):
    fan = solve_riemann(psystem, [0.15, 0.0], [0.1, 0.0])
    kinds = [w.kind for w in fan.waves]
    assert kinds == ["rarefaction", "shock"]
    shock = fan.waves[1]
    f_star = psystem.flux(fan.star)
    f_right = psystem.flux(fan.right)
    resid = np.abs(f_right - f_star - shock.speed * (fan.right - fan.star)).max()
    assert resid <= 1e-10 * (1.0 + np.abs(f_star).max())


def test_sampling_far_field_is_exact(psystem):
    fan = solve_riemann(psystem, [0.15, 0.0], [0.1, 0.0])
    speeds = fan.wave_speeds()
    assert np.array_equal(sample(fan, min(speeds) - 1.0), fan.left)
    assert np.array_equal(sample(fan, max(speeds) + 1.0), fan.right)


def test_vacuum_is_reported(psystem):
    with pytest.raises(VacuumError):
        solve_riemann(psystem, [1.0, -6.0], [1.0, 6.0])


def test_nonconvergence_is_reported(psystem, monkeypatch):
    monkeypatch.setattr(riemann, "MAX_ITER", 2)
    with pytest.raises(riemann.ConvergenceError):
        solve_riemann(psystem, [0.15, 0.0], [0.1, 0.0])


def test_cell_average_step_data(psystem):
    fan = solve_riemann(psystem, [1.0, -2.0], [1.0, 2.0])
    grid = Grid1D(0.0, 1.0, 4)
    avg = cell_average_exact(fan, 0.6, 0.0, grid)
    # cells fully left/right of the origin get the pure states; the cell
    # straddling x = 0.6 gets the width-weighted mix
    assert np.allclose(avg[0], fan.left)
    assert np.allclose(avg[1], fan.left)
    assert np.allclose(avg[2], (0.1 * fan.left + 0.15 * fan.right) / 0.25)
    assert np.allclose(avg[3], fan.right)


def test_cell_average_constant_fan(psystem):
    fan = solve_riemann(psystem, [1.0, 0.5], [1.0, 0.5])
    grid = build_grid(-5.0, 5.0, 3)
    for t in (0.0, 0.7):
        assert np.allclose(cell_average_exact(fan, 0.0, t, grid), [1.0, 0.5])


def test_cell_average_burgers_shock(burgers):
    fan = solve_riemann(burgers, [1.0], [-1.0])
    grid = build_grid(-5.0, 5.0, 4)  # 32 cells, shock stays at x = 0
    avg = cell_average_exact(fan, 0.0, 1.0, grid)
    assert np.all(avg[: grid.J // 2] == 1.0)
    assert np.all(avg[grid.J // 2:] == -1.0)


@settings(max_examples=60, deadline=None)
@given(rho_l=st.floats(0.05, 2.0), q_l=st.floats(-0.3, 0.3), rho_r=st.floats(0.05, 2.0),
       q_r=st.floats(-0.3, 0.3), origin=st.floats(-4.0, 4.0), level=st.integers(3, 11))
# the benchmark's perturbed seed 1, whose right cells held (dx*R)/dx
@example(rho_l=0.1478061854646744, q_l=0.0, rho_r=0.10138973494774893, q_r=0.0, origin=0.0,
         level=9)
def test_a_run_from_the_riemann_step_has_the_fans_outer_states_as_ghosts(rho_l, q_l, rho_r, q_r,
                                                                         origin, level):
    """At t = 0 a cell wholly on one side of the origin holds the fan's
    outer state on that side bit for bit, so a run marched from the Riemann
    step has them as its ghosts, and the exact pass needs no cells beyond
    the run's hulls and the fan's band."""
    model = make_model("psystem")
    try:
        fan = solve_riemann(model, [rho_l, q_l], [rho_r, q_r])
    except riemann.VacuumError:
        assume(False)
    grid = build_grid(-5.0, 5.0, level)
    sol = run(cell_average_exact(fan, origin, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1e-3)
    assert sol.ghost_left.tobytes() == fan.segments[0][3].tobytes()
    assert sol.ghost_right.tobytes() == fan.segments[-1][3].tobytes()


def test_cell_average_matches_adaptive_quadrature(psystem):
    fan = solve_riemann(psystem, [1.0, -2.0], [1.0, 2.0])
    grid = build_grid(-5.0, 5.0, 5)
    t = 0.5
    avg = cell_average_exact(fan, 0.0, t, grid)
    breakpoints = [t * s for s in fan.wave_speeds()]
    for j in (7, 12, 16, 20, 28):
        lo, hi = grid.cell_bounds(j)
        pts = [p for p in breakpoints if lo < p < hi]
        for comp in range(2):
            val, _ = quad(lambda x: float(sample(fan, x / t)[comp]), lo, hi,
                          points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
            assert avg[j, comp] == pytest.approx(val / grid.dx, rel=1e-10, abs=1e-12)


@st.composite
def psystem_riemann_data(draw):
    """An admissible p-system Riemann problem (no vacuum) and its fan."""
    model = make_model("psystem", C=draw(st.floats(0.5, 2.0)), gamma=draw(st.floats(1.2, 3.0)))
    rho_l, rho_r = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    v_l, v_r = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    c_l, c_r = float(model.sound_speed(rho_l)), float(model.sound_speed(rho_r))
    assume(v_l - v_r + 2.0 * (c_l + c_r) / (model.gamma - 1.0) > 1e-6)
    uL, uR = [rho_l, rho_l * v_l], [rho_r, rho_r * v_r]
    return model, uL, uR, solve_riemann(model, uL, uR)


@st.composite
def burgers_riemann_data(draw):
    model = make_model("burgers")
    uL, uR = [draw(st.floats(-3.0, 3.0))], [draw(st.floats(-3.0, 3.0))]
    return model, uL, uR, solve_riemann(model, uL, uR)


def _assert_matches_quadrature(fan, origin, t, grid, cells=4):
    """Averages of the cells a rarefaction meets against adaptive quadrature
    of the sampled profile, split at every breakpoint inside the cell."""
    avg = cell_average_exact(fan, origin, t, grid)
    edges = grid.interfaces()
    breakpoints = [origin + t * s for s in fan.wave_speeds()]
    fans = [(origin + t * lo, origin + t * hi) for lo, hi, kind, _ in fan.segments
            if kind == "fan"]
    hit = [j for j in range(grid.J)
           if any(edges[j] < x_hi and x_lo < edges[j + 1] for x_lo, x_hi in fans)]
    assume(hit)
    for j in sorted(set(hit[:: max(1, len(hit) // cells)] + [hit[0], hit[-1]])):
        lo, hi = edges[j], edges[j + 1]
        pts = [p for p in breakpoints if lo < p < hi]
        for comp in range(fan.model.m):
            val, _ = quad(lambda x: float(sample(fan, (x - origin) / t)[comp]), lo, hi,
                          points=pts or None, limit=200, epsabs=1e-13, epsrel=1e-13)
            assert avg[j, comp] == pytest.approx(val / grid.dx, rel=1e-10, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(data=psystem_riemann_data(), origin=st.floats(-1.0, 1.0), t=st.floats(0.1, 2.0))
def test_closed_form_psystem_fan_averages_match_quadrature(data, origin, t):
    _, _, _, fan = data
    assume(any(w.kind == "rarefaction" for w in fan.waves))
    _assert_matches_quadrature(fan, origin, t, build_grid(-5.0, 5.0, 5))


@settings(max_examples=25, deadline=None)
@given(data=burgers_riemann_data(), origin=st.floats(-1.0, 1.0), t=st.floats(0.1, 1.5))
def test_closed_form_burgers_fan_averages_match_quadrature(data, origin, t):
    _, _, _, fan = data
    assume(fan.waves[0].kind == "rarefaction")
    _assert_matches_quadrature(fan, origin, t, build_grid(-5.0, 5.0, 5))


@settings(max_examples=40, deadline=None)
@given(data=psystem_riemann_data())
def test_solve_riemann_invariants(data):
    """Ordered wave speeds, Rankine-Hugoniot across shocks, Riemann invariants
    and characteristic edges across rarefactions, all through the public fan."""
    model, _, _, fan = data
    speeds = fan.wave_speeds()
    assert all(b >= a - 1e-10 for a, b in zip(speeds, speeds[1:]))
    assert fan.star[0] > 0.0
    gamma = model.gamma
    states = [fan.left, fan.star, fan.right]
    for family, wave in enumerate(fan.waves):
        ul, ur = states[family], states[family + 1]
        if wave.kind == "shock":
            fl, fr = model.flux(ul), model.flux(ur)
            resid = np.abs(fr - fl - wave.speed * (ur - ul)).max()
            assert resid <= 1e-10 * (1.0 + np.abs(fl).max())
        elif wave.kind == "rarefaction":
            sign = 1.0 if family == 0 else -1.0
            invariant = [u[1] / u[0] + sign * 2.0 * float(model.sound_speed(u[0])) / (gamma - 1.0)
                         for u in (ul, ur)]
            assert invariant[0] == pytest.approx(invariant[1], rel=1e-10, abs=1e-10)
            edge_speeds = sorted(float(model.wave_speeds(u)[family]) for u in (ul, ur))
            assert sorted((wave.head, wave.tail)) == pytest.approx(edge_speeds, rel=1e-10,
                                                                   abs=1e-10)
        else:
            assert np.allclose(ul, ur, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(1.2, 3.0), rho_l=st.floats(0.1, 2.0), rho_r=st.floats(0.1, 2.0),
       v_mid=st.floats(-1.0, 1.0), margin=st.floats(1e-6, 1.0))
def test_near_vacuum_data_raise(gamma, rho_l, rho_r, v_mid, margin):
    model = make_model("psystem", C=1.0, gamma=gamma)
    gap = 2.0 * float(model.sound_speed(rho_l) + model.sound_speed(rho_r)) / (gamma - 1.0)
    v_l, v_r = v_mid - 0.5 * gap * (1.0 + margin), v_mid + 0.5 * gap * (1.0 + margin)
    assert v_l - v_r + gap <= 0.0
    with pytest.raises(VacuumError):
        solve_riemann(model, [rho_l, rho_l * v_l], [rho_r, rho_r * v_r])


@settings(max_examples=30, deadline=None)
@given(data=st.one_of(psystem_riemann_data(), burgers_riemann_data()),
       origin=st.floats(-0.5, 0.5), reach=st.floats(0.05, 4.0))
@example(data=(make_model("psystem", C=1.0, gamma=1.4), [0.15, 0.0], [0.1, 0.0],
               solve_riemann(make_model("psystem", C=1.0, gamma=1.4), [0.15, 0.0], [0.1, 0.0])),
         origin=0.0, reach=2.0)
def test_fan_conservation(data, origin, reach):
    # integral over a window containing all waves changes by the flux difference
    model, _, _, fan = data
    grid = build_grid(-5.0, 5.0, 9)
    f_diff = model.flux(fan.left) - model.flux(fan.right)
    base = cell_average_exact(fan, origin, 0.0, grid).sum(axis=0) * grid.dx
    fastest = max([abs(s) for s in fan.wave_speeds()] + [1e-3])
    for t in (0.5 * reach / fastest, reach / fastest):
        total = cell_average_exact(fan, origin, t, grid).sum(axis=0) * grid.dx
        assert np.allclose(total, base + t * f_diff, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_or_origin_is_refused(psystem, bad):
    """A NaN slips past a t < 0 check, and an infinite time puts every
    breakpoint off the grid; both are refused by name, not averaged."""
    fan = solve_riemann(psystem, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 3)
    history = LevelHistory.from_levels(np.tile(fan.left, (2, grid.J, 1)), fan.left, fan.right)
    calls = {
        "time": (lambda: cell_average_exact(fan, 0.0, bad, grid),
                 lambda: riemann.exact_l1_distances(fan, 0.0, grid, np.array([0.0, bad]),
                                                    history)),
        "origin": (lambda: cell_average_exact(fan, bad, 0.5, grid),
                   lambda: riemann.exact_l1_distances(fan, bad, grid, np.array([0.0, 0.5]),
                                                      history)),
    }
    for name, pair in calls.items():
        for call in pair:
            with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}$"):
                call()


def test_negative_time_is_refused(psystem):
    fan = solve_riemann(psystem, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 3)
    with pytest.raises(ValueError, match="time must be non-negative, got -0.5"):
        cell_average_exact(fan, 0.0, -0.5, grid)
    with pytest.raises(ValueError, match="time must be non-negative, got -0.5"):
        riemann.exact_l1_distances(fan, 0.0, grid, np.array([0.0, -0.5]),
                                   LevelHistory.from_levels(np.tile(fan.left, (2, grid.J, 1)),
                                                            fan.left, fan.right))


@pytest.mark.parametrize("walked", [0, 2, 5, 9])
def test_a_walk_of_the_wrong_length_is_refused(walked):
    """exact_l1_distances refuses a history whose walk holds fewer or more
    levels than there are times, naming both counts, whether it ends
    inside the first block of levels, at a block's end, or runs past the
    last, before any level is read."""
    model = make_model("psystem")
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 3)
    times = [0.0, 0.1, 0.2, 0.3]
    level = np.full((grid.J, 2), 0.12)

    def history(n):
        return LevelHistory.from_levels(np.array([level] * n).reshape(n, grid.J, 2),
                                        fan.left, fan.right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fvbound.grid, "BLOCK_CELLS", 2 * grid.J)  # blocks of two levels
        patch.setattr(LevelHistory, "columns", None)  # a level read would raise a TypeError
        with pytest.raises(ValueError, match=f"history holds {walked} levels for 4 times"):
            exact_l1_distances(fan, 0.0, grid, times, history(walked))
    assert exact_l1_distances(fan, 0.0, grid, times, history(4)).shape == (4, 2)
