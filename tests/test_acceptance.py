"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The three benchmark studies are computed once per session and shared.  Run
with `pytest -rA` to see the per-criterion lines for passing tests too.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from fvbound import (
    build_grid,
    cell_average_exact,
    epsilon,
    error_estimator,
    linf_l1_error,
    make_model,
    solve_riemann,
)
from fvbound.cli import _burgers_curved_averages, eoc
from fvbound.residual import level_residual_bounds
from fvbound.solver import run

from oracles import (SlabTestFunction, cover_counts, dense, global_weak_residual,
                     level_corner_oracle, projection_coefficients)
from test_models import (
    _finite_difference_gradient,
    _finite_difference_jacobian,
)
from test_residual import (
    affine_from_coefficients,
    edge_averages_by_quadrature,
    stationary_shock_solution,
)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@dataclass
class CaseStudy:
    levels: list[int]
    sols: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def series(self, pick, levels=None):
        return [pick(level) for level in (levels or self.levels)]

    def eps_series(self, levels=None):
        return self.series(lambda level: self.estimates[level].epsilon_t, levels)


def _build_study(levels, model, initial_fn, t0, t_final, fan=None) -> CaseStudy:
    study = CaseStudy(levels=list(levels))
    start = time.time()
    for level in study.levels:
        grid = build_grid(-5.0, 5.0, level)
        sol = run(initial_fn(grid), model, "llf", grid, 0.9, t0, t_final)
        study.sols[level] = sol
        study.estimates[level] = error_estimator(sol, 0.1)
        study.errors[level] = None if fan is None else linf_l1_error(sol, fan, 0.0)
    study.elapsed = time.time() - start
    return study


@pytest.fixture(scope="module")
def two_raref_study():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
    return _build_study(
        range(7, 11), model,
        lambda grid: cell_average_exact(fan, 0.0, 0.5, grid),
        0.5, 1.0, fan=fan,
    )


@pytest.fixture(scope="module")
def raref_shock_study():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    return _build_study(
        range(7, 11), model,
        lambda grid: cell_average_exact(fan, 0.0, 0.0, grid),
        0.0, 1.5, fan=fan,
    )


@pytest.fixture(scope="module")
def burgers_study():
    return _build_study(
        range(8, 12), make_model("burgers"), _burgers_curved_averages, 0.0, 1.0,
    )


def test_criterion_1_two_rarefaction_epsilon_first_order(two_raref_study):
    study = two_raref_study
    eps = study.eps_series()
    orders = eoc(eps)
    ok = all(abs(o - 1.0) <= 0.05 for o in orders)
    ok &= abs(eps[0] - 0.193) <= 0.20 * 0.193
    ok &= study.elapsed < 60.0
    detail = (f"eps(7)={eps[0]:.5f} (target 0.193 +-20%), EoC="
              f"{[round(o, 3) for o in orders]} (target 1.00 +-0.05), "
              f"runtime {study.elapsed:.1f}s < 60s")
    assert _report("1", ok, detail), detail


def test_criterion_2_rarefaction_shock_epsilon_first_order(raref_shock_study):
    study = raref_shock_study
    eps = study.eps_series()
    orders = eoc(eps)
    ok = all(abs(o - 1.0) <= 0.05 for o in orders)
    ok &= abs(eps[0] - 0.0627) <= 0.20 * 0.0627
    ok &= study.elapsed < 120.0
    detail = (f"eps(7)={eps[0]:.5f} (target 0.0627 +-20%), EoC="
              f"{[round(o, 3) for o in orders]} (target 1.00 +-0.05), "
              f"runtime {study.elapsed:.1f}s < 120s")
    assert _report("2", ok, detail), detail


def test_criterion_3_smooth_estimator_order(two_raref_study, raref_shock_study):
    details = []
    ok = True
    for name, study in (("two-rarefactions", two_raref_study),
                        ("rarefaction-shock", raref_shock_study)):
        eg = study.series(lambda level: study.estimates[level].e_smooth, [8, 9, 10])
        orders = eoc(eg)
        ok &= all(0.10 <= o <= 0.45 for o in orders)
        details.append(f"{name}: EoC(E_G)={[round(o, 3) for o in orders]}")
    detail = "; ".join(details) + " (target [0.10, 0.45])"
    assert _report("3", ok, detail), detail


def test_criterion_4_surge_estimator(raref_shock_study):
    study = raref_shock_study
    est10 = study.estimates[10]
    final_third = [s for s in est10.slabs if s.t_hi > 1.0 + 1e-12]
    ok = len(final_third) >= 1 and all(s.n_surges >= 1 for s in final_third)
    es = study.series(lambda level: study.estimates[level].e_surge, [8, 9, 10])
    ok &= all(v > 0 for v in es)
    orders = eoc(es)
    ok &= all(0.2 <= o <= 0.55 for o in orders)
    detail = (f"final-third slabs at L=10 with surges: "
              f"{[s.n_surges for s in final_third]}, E_S={[round(v, 4) for v in es]}, "
              f"EoC(E_S)={[round(o, 3) for o in orders]} (target [0.2, 0.55])")
    assert _report("4", ok, detail), detail


def test_criterion_5_error_orders(two_raref_study, raref_shock_study):
    err_2r = two_raref_study.series(lambda level: two_raref_study.errors[level], [8, 9, 10])
    err_rs = raref_shock_study.series(lambda level: raref_shock_study.errors[level], [8, 9, 10])
    orders_2r = eoc(err_2r)
    orders_rs = eoc(err_rs)
    ok = all(0.6 <= o <= 0.8 for o in orders_2r)
    ok &= all(0.6 <= o <= 0.85 for o in orders_rs)
    detail = (f"two-rarefactions EoC(err)={[round(o, 3) for o in orders_2r]} "
              f"(target [0.6, 0.8]); rarefaction-shock EoC(err)="
              f"{[round(o, 3) for o in orders_rs]} (target [0.6, 0.85])")
    assert _report("5", ok, detail), detail


def test_criterion_6_curved_shock_strip_adaptation(burgers_study):
    study = burgers_study
    est9 = study.estimates[9]
    turning = [s.delta_max for s in est9.slabs if s.t_lo <= 0.3 <= s.t_hi]
    others = [s.delta_max for s in est9.slabs if not (s.t_lo <= 0.3 <= s.t_hi)]
    ok = len(turning) >= 1 and len(others) >= 1
    ratio = turning[0] / np.median(others) if ok else 0.0
    ok &= ratio >= 2.0
    eps = study.eps_series()
    orders = eoc(eps)
    ok &= all(abs(o - 1.0) <= 0.05 for o in orders)
    detail = (f"strip width {turning[0]:.4f} vs median {np.median(others):.4f} "
              f"(ratio {ratio:.2f}, target >= 2), EoC(eps)="
              f"{[round(o, 3) for o in orders]} over L=8..11 (target 1.00 +-0.05)")
    assert _report("6", ok, detail), detail


def test_criterion_7_stationary_shock_regressions():
    sol = stationary_shock_solution(kind="godunov", level=5)
    grid = sol.grid
    j_center = int(np.nonzero(dense(sol.states)[0][:, 0] == 0.0)[0][0])
    ok = True
    for n in range(sol.n_steps):
        bounds = level_residual_bounds(sol, "godunov", n)
        ok &= bounds[j_center, 0] == 0.5 * grid.dx * sol.times.dt(n)
        ok &= bool(np.all(np.delete(bounds, j_center, axis=0) == 0.0))

    two_cell = np.where(grid.centers() < 0.0, 1.0, -1.0)[:, None]
    sol2 = run(two_cell, make_model("burgers"), "godunov", grid, 0.9, 0.0, 1.0)
    report = epsilon(sol2)
    ok &= report.epsilon == 0.0
    detail = (f"three-cell center bound = dx*dt/2 exactly, others zero: {ok}; "
              f"two-cell eps = {report.epsilon} (target exactly 0)")
    assert _report("7", ok, detail), detail


# --- criterion 8: property suites ------------------------------------------


def test_criterion_8a_projection_average_preservation():
    rng = np.random.default_rng(314)
    dt, dx = 0.8, 0.45
    worst = 0.0
    for _ in range(1000):
        a, b, c, d, e, f = rng.uniform(-3.0, 3.0, 6)
        w1, w2 = rng.uniform(0.3, 5.0, 2)

        def phi(t, x):
            return a + b * t + c * x + d * np.cos(w1 * t - w2 * x) + e * t * x + f * t * t

        averages = edge_averages_by_quadrature(phi, dt, dx)
        affine = affine_from_coefficients(projection_coefficients(averages), dt, dx)
        rebuilt = edge_averages_by_quadrature(affine, dt, dx)
        worst = max(worst, float(np.abs(rebuilt - averages).max() / (1.0 + np.abs(averages).max())))
    ok = worst <= 1e-12
    detail = f"projection reproduces edge averages, worst residual {worst:.2e} <= 1e-12"
    assert _report("8a", ok, detail), detail


def test_criterion_8b_projection_stability():
    rng = np.random.default_rng(2718)
    worst_margin = -np.inf
    tt_unit = np.linspace(0.0, 1.0, 161)
    xx_unit = np.linspace(-0.5, 0.5, 161)
    for _ in range(300):
        dx = rng.uniform(0.05, 1.5)
        ratio = rng.uniform(0.05, 2.5)
        dt = ratio * dx
        coeffs_raw = rng.uniform(-1.0, 1.0, 6)
        w1, w2 = rng.uniform(0.3, 6.0, 2)

        def phi(t, x):
            a, b, c, d, e, f = coeffs_raw
            return a + b * t + c * x + d * np.sin(w1 * t + w2 * x) + e * x * x + f * t * t

        tt, xx = np.meshgrid(tt_unit * dt, xx_unit * dx)
        h = 1e-7 * max(dt, dx)
        norm = max(
            np.abs(phi(tt, xx)).max(),
            np.abs((phi(tt + h, xx) - phi(tt - h, xx)) / (2 * h)).max(),
            np.abs((phi(tt, xx + h) - phi(tt, xx - h)) / (2 * h)).max(),
        )
        coeffs = projection_coefficients(edge_averages_by_quadrature(phi, dt, dx))
        bound = max(3.0, np.sqrt(8.0 + 8.0 / (ratio * ratio))) * norm + 1e-9
        worst_margin = max(worst_margin, coeffs.w1inf_norm(dt, dx) - bound)
    ok = worst_margin <= 0.0
    detail = f"projection norm within max(3, sqrt(8+8/c^2)), worst excess {worst_margin:.2e}"
    assert _report("8b", ok, detail), detail


def test_criterion_8c_corner_oracle_dominance(two_raref_study, raref_shock_study,
                                              burgers_study):
    worst = -np.inf
    cells = 0
    for study in (two_raref_study, raref_shock_study, burgers_study):
        for level in study.levels:
            sol = study.sols[level]
            for n in range(sol.n_steps):
                oracle = level_corner_oracle(sol, sol.flux_kind, n)
                bound = level_residual_bounds(sol, sol.flux_kind, n)
                worst = max(worst, float((oracle - bound).max()))
                cells += oracle.size
    ok = worst <= 1e-15
    detail = f"oracle <= bound on {cells} cells, worst excess {worst:.2e}"
    assert _report("8c", ok, detail), detail


def test_criterion_8d_telescoping_weak_residual(raref_shock_study):
    sol = raref_shock_study.sols[7]
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        phi = SlabTestFunction(
            time_slope=rng.uniform(-2.0, 2.0),
            node_values=rng.uniform(-1.0, 1.0, sol.grid.J + 1),
        )
        n = int(rng.integers(0, sol.n_steps))
        local = global_weak_residual(sol, "llf", n, phi, method="local")
        direct = global_weak_residual(sol, "llf", n, phi, method="direct")
        worst = max(worst, float(np.abs(local - direct).max() / (1.0 + np.abs(direct).max())))
    ok = worst <= 1e-10
    detail = f"local sum vs direct weak form over 100 test functions, worst {worst:.2e} <= 1e-10"
    assert _report("8d", ok, detail), detail


def test_criterion_8e_discrete_conservation(two_raref_study, raref_shock_study,
                                            burgers_study):
    worst = 0.0
    for study in (two_raref_study, raref_shock_study, burgers_study):
        for level in study.levels:
            sol = study.sols[level]
            dx = sol.grid.dx
            model = sol.model
            from fvbound.models import numerical_flux

            levels = dense(sol.states)
            left_flux = numerical_flux(sol.flux_kind, model,
                                       sol.ghost_left[None, :], levels[:-1, 0])
            right_flux = numerical_flux(sol.flux_kind, model,
                                        levels[:-1, -1], sol.ghost_right[None, :])
            change = dx * (levels[1:].sum(axis=1) - levels[:-1].sum(axis=1))
            dts = np.diff(sol.times.t)[:, None]
            boundary = dts * (left_flux - right_flux)
            scale = dx * np.abs(levels[:-1]).sum(axis=1) + np.abs(boundary)
            worst = max(worst, float((np.abs(change - boundary) / scale).max()))
    ok = worst <= 1e-12
    detail = f"per-step conservation defect, worst relative {worst:.2e} <= 1e-12"
    assert _report("8e", ok, detail), detail


def test_criterion_8f_entropy_pair_compatibility():
    rng = np.random.default_rng(777)
    worst = 0.0
    for name in ("burgers", "psystem"):
        model = make_model(name)
        for _ in range(1000):
            if name == "burgers":
                u = rng.uniform(-3.0, 3.0, 1)
            else:
                u = np.array([rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0)])
            h = 1e-5 * (1.0 + np.abs(u).max())
            de = _finite_difference_gradient(lambda v: float(model.entropy(v)), u, h)
            dq = _finite_difference_gradient(lambda v: float(model.entropy_flux(v)), u, h)
            df = _finite_difference_jacobian(lambda v: model.flux(v), u, h)
            resid = np.abs(de @ df - dq) / np.maximum(np.abs(dq), 1.0)
            worst = max(worst, float(resid.max()))
    ok = worst <= 1e-6
    detail = f"De.Df = Dq on 2000 random states, worst relative {worst:.2e} <= 1e-6"
    assert _report("8f", ok, detail), detail


def test_criterion_8g_cfl_invariant(two_raref_study, raref_shock_study, burgers_study):
    worst = 0.0
    for study in (two_raref_study, raref_shock_study, burgers_study):
        for level in study.levels:
            sol = study.sols[level]
            speeds = np.abs(sol.model.wave_speeds(dense(sol.states)[:-1])).max(axis=(1, 2))
            ghost = max(
                float(np.abs(sol.model.wave_speeds(sol.ghost_left[None, :])).max()),
                float(np.abs(sol.model.wave_speeds(sol.ghost_right[None, :])).max()),
            )
            lam = np.maximum(speeds, ghost)
            ratios = np.diff(sol.times.t) * lam / sol.grid.dx
            worst = max(worst, float(ratios.max()))
    ok = worst <= 0.9 + 1e-12
    detail = f"max dt*lambda/dx over all runs {worst:.12f} <= cfl + 1e-12"
    assert _report("8g", ok, detail), detail


def test_criterion_8h_slab_cover_invariants(two_raref_study, raref_shock_study,
                                            burgers_study):
    ok = True
    slabs = 0
    for study in (two_raref_study, raref_shock_study, burgers_study):
        for level in study.levels:
            est = study.estimates[level]
            sol = study.sols[level]
            for part in est.slabs:
                surge_counts, smooth_counts = cover_counts(sol, part)
                ok &= bool(np.all(surge_counts + smooth_counts >= 1))
                ok &= bool(np.all(smooth_counts <= 2))
                slabs += 1
    detail = f"cover >= 1 and smooth-multiplicity <= 2 on {slabs} slabs"
    assert _report("8h", ok, detail), detail
