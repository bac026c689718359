import numpy as np
import pytest

from fvbound import (
    build_grid,
    cell_average_exact,
    error_estimator,
    make_model,
    solve_riemann,
)
from fvbound.estimator import slab_boundaries
from fvbound.solver import run


@pytest.fixture(scope="module")
def raref_shock_solution():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 7)
    return run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)


def test_constant_solution_degenerates_to_zero():
    grid = build_grid(-5.0, 5.0, 4)
    model = make_model("psystem", C=1.0, gamma=1.4)
    sol = run(np.tile([1.0, 0.1], (grid.J, 1)), model, "llf", grid, 0.9, 0.0, 0.5)
    report = error_estimator(sol, 0.1)
    assert report.epsilon_t == 0.0
    assert report.e_surge == 0.0 and report.e_smooth == 0.0
    assert report.slabs == []


def test_slab_boundaries_partition_the_window():
    times = np.linspace(0.25, 1.75, 31)
    bounds = slab_boundaries(times, 0.4)
    assert bounds[0] == 0 and bounds[-1] == 30
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    # each interior boundary is the first level at or past t0 + mu * tau
    for mu, idx in enumerate(bounds[1:-1], start=1):
        target = 0.25 + mu * 0.4
        assert times[idx] >= target - 1e-12
        assert times[idx - 1] < target

    assert slab_boundaries(times, 10.0) == [0, 30]


def test_two_rarefactions_has_no_surge_part():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [1.0, -2.0], [1.0, 2.0])
    grid = build_grid(-5.0, 5.0, 6)
    sol = run(cell_average_exact(fan, 0.0, 0.5, grid), model, "llf", grid, 0.9, 0.5, 1.0)
    report = error_estimator(sol, 0.1)
    assert report.surge_count == 0
    assert report.e_surge == 0.0
    assert report.e_smooth > 0.0


def test_aggregates_and_formulas(raref_shock_solution):
    report = error_estimator(raref_shock_solution, 0.1)
    eps13 = report.epsilon_t ** (1.0 / 3.0)
    assert report.tau_target == pytest.approx(eps13)
    assert report.surge_count == sum(s.n_surges for s in report.slabs)
    assert report.kappa_sum == pytest.approx(sum(s.kappa for s in report.slabs))
    assert report.kappa_prime_max == pytest.approx(max(s.kappa_prime_max for s in report.slabs))
    assert report.delta_max == pytest.approx(max(s.delta_max for s in report.slabs))
    expected_es = (eps13 * report.kappa_prime_max + report.delta_max) * report.surge_count
    duration = raref_shock_solution.t_final - raref_shock_solution.t0
    assert report.e_surge == pytest.approx(expected_es)
    assert report.e_smooth == pytest.approx(eps13 * (duration + report.kappa_sum))
    # slab times partition [t0, T]
    assert report.slab_times[0] == raref_shock_solution.t0
    assert report.slab_times[-1] == raref_shock_solution.t_final
    assert np.all(np.diff(report.slab_times) > 0)


def test_estimator_monotone_in_aggregates(raref_shock_solution):
    # E_S and E_G formulas are monotone non-decreasing in each aggregate
    report = error_estimator(raref_shock_solution, 0.1)
    eps13 = report.epsilon_t ** (1.0 / 3.0)

    def e_surge(kp, dmax, count):
        return (eps13 * kp + dmax) * count

    def e_smooth(duration, kappa):
        return eps13 * (duration + kappa)

    base = e_surge(report.kappa_prime_max, report.delta_max, report.surge_count)
    for bump in (0.1, 1.0):
        assert e_surge(report.kappa_prime_max + bump, report.delta_max, report.surge_count) >= base
        assert e_surge(report.kappa_prime_max, report.delta_max + bump, report.surge_count) >= base
        assert e_surge(report.kappa_prime_max, report.delta_max, report.surge_count + 1) >= base
        assert e_smooth(1.5, report.kappa_sum + bump) >= e_smooth(1.5, report.kappa_sum)


def test_surge_strength_diagnostic(raref_shock_solution):
    report = error_estimator(raref_shock_solution, 0.1)
    for slab in report.slabs:
        if slab.n_surges:
            assert slab.c0 is not None and slab.c0 >= 0.0
        else:
            assert slab.c0 is None


def test_slab_mode_eps_uses_smaller_slabs(raref_shock_solution):
    default = error_estimator(raref_shock_solution, 0.1, slab_mode="eps13")
    literal = error_estimator(raref_shock_solution, 0.1, slab_mode="eps")
    assert literal.tau_target == pytest.approx(default.epsilon_t)
    assert len(literal.slabs) > len(default.slabs)
    with pytest.raises(ValueError):
        error_estimator(raref_shock_solution, 0.1, slab_mode="bogus")


def test_report_serializes(raref_shock_solution):
    report = error_estimator(raref_shock_solution, 0.1)
    blob = report.to_json_dict()
    assert blob["surge_count"] == report.surge_count
    assert len(blob["slabs"]) == len(report.slabs)
    assert blob["c_surge"] == 1.0 and blob["c_smooth"] == 1.0


def test_single_step_solution_still_produces_epsilon():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 5)
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1e-4)
    assert sol.n_steps == 1
    report = error_estimator(sol, 0.1)
    assert report.epsilon_t > 0.0
