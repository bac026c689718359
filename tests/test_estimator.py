import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import (
    CaseConfig,
    build_grid,
    cell_average_exact,
    error_estimator,
    make_model,
    run_case,
    solve_riemann,
)
from fvbound.cli import _burgers_curved_averages
from fvbound.estimator import slab_boundaries
from fvbound.solver import load_solution, run, save_solution
from oracles import cover_counts
from test_riemann import burgers_riemann_data, psystem_riemann_data


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


def multiple_by_multiple_boundaries(times, tau_target):
    """The slab rule walked one multiple of tau_target at a time."""
    t0, n_last = float(times[0]), len(times) - 1
    bounds, mu = [0], 1
    while bounds[-1] < n_last:
        target = t0 + mu * tau_target
        idx = int(np.searchsorted(times, target - 1e-12 * max(1.0, abs(target)), side="left"))
        if idx >= n_last:
            break
        if idx > bounds[-1]:
            bounds.append(idx)
        mu += 1
    bounds.append(n_last)
    return bounds


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(1e-3, 1.0),
       st.lists(st.floats(1e-4, 4.0), max_size=40),
       st.lists(st.integers(1, 300), max_size=20))
def test_slab_boundaries_equal_the_multiple_by_multiple_walk(t0, tau, offsets, on_edge):
    """Skipping multiples changes no boundary, also with levels exactly on a
    multiple's slop edge."""
    edges = [t0 + mu * tau - 1e-12 * max(1.0, abs(t0 + mu * tau)) for mu in on_edge]
    times = np.unique(np.concatenate([[t0], t0 + np.array(offsets), edges]))
    assert slab_boundaries(times, tau) == multiple_by_multiple_boundaries(times, tau)


def test_slab_boundaries_skip_multiples_far_below_the_time_step():
    times = np.linspace(0.0, 1.0, 50)
    assert slab_boundaries(times, 1e-100) == list(range(50))
    # a roundoff-level epsilon gives such a slab size: tiny states, one step
    grid = build_grid(-1.0, 1.0, 4)
    initial = np.where(grid.centers()[:, None] < 0.0, 0.0, 1e-150)
    sol = run(initial, make_model("burgers"), "godunov", grid, 0.9, 0.0, 0.5)
    report = error_estimator(sol, 0.1)
    assert 0.0 < report.epsilon_t < 1e-140 and len(report.slabs) == 1


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


@pytest.mark.parametrize("sigma0", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("right", [1.0, -1.0], ids=["constant", "step"])
def test_meaningless_sigma0_is_refused(right, sigma0):
    """Refused on a run with epsilon = 0 too, and inf, which would flag no
    jump and so give E_S = 0, on every run."""
    grid = build_grid(-5.0, 5.0, 2)
    initial = np.where(grid.centers() < 0.0, 1.0, right)
    sol = run(initial, make_model("burgers"), "llf", grid, 0.9, 0.0, 0.5)
    with pytest.raises(ValueError, match=f"sigma0 must be a finite positive number, got {sigma0!r}"):
        error_estimator(sol, sigma0)


def test_report_serializes(raref_shock_solution):
    report = error_estimator(raref_shock_solution, 0.1)
    blob = report.to_json_dict()
    assert blob["surge_count"] == report.surge_count
    assert len(blob["slabs"]) == len(report.slabs)
    for k, (entry, slab) in enumerate(zip(blob["slabs"], report.slabs)):
        assert entry == {"index": k, **slab.to_json_dict()}
        assert list(entry) == ["index", "t_lo", "t_hi", "n_surges", "kappa",
                               "kappa_prime_max", "delta_max", "c0", "partition"]
        assert entry["partition"]["lam_minus"] == slab.lam_minus
    assert blob["c_surge"] == 1.0 and blob["c_smooth"] == 1.0


def test_single_step_solution_still_produces_epsilon():
    model = make_model("psystem", C=1.0, gamma=1.4)
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    grid = build_grid(-5.0, 5.0, 5)
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1e-4)
    assert sol.n_steps == 1
    report = error_estimator(sol, 0.1)
    assert report.epsilon_t > 0.0


def burgers_fan(left, right):
    model = make_model("burgers")
    return model, [left], [right], solve_riemann(model, [left], [right])


@settings(max_examples=30, deadline=None)
@given(data=st.one_of(psystem_riemann_data(), burgers_riemann_data()),
       level=st.integers(3, 6), slab_mode=st.sampled_from(["eps13", "eps"]))
# all speeds positive: the last smooth trapezoid once stopped short of x_max
@example(data=burgers_fan(0.0, 1.0), level=4, slab_mode="eps13")
# ... and a surge trapezoid reaching x_max at its top stopped short of it
@example(data=burgers_fan(1.0, 3.0), level=3, slab_mode="eps13")
# (lam_plus - lam_minus) * tau < eps^(2/3): a smooth trapezoid once left a
# gap below the surge trapezoid to its right
@example(data=burgers_fan(-1.0, -1.5), level=3, slab_mode="eps13")
def test_slab_covers_of_random_riemann_runs(data, level, slab_mode):
    """The slabs tile the levels 0..N at slab_times, every cell is covered and
    lies in at most two smooth trapezoids, and each aggregate is its fold over
    the slabs."""
    model, _, _, fan = data
    grid = build_grid(-5.0, 5.0, level)
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.0)
    report = error_estimator(sol, 0.1, slab_mode)
    slabs = report.slabs
    if report.epsilon_t == 0.0:
        assert slabs == [] and list(report.slab_times) == [sol.t0, sol.t_final]
    else:
        assert [s.n_lo for s in slabs] + [sol.n_steps] == [0] + [s.n_hi for s in slabs]
        assert all(s.n_lo < s.n_hi for s in slabs)
        edges = [s.t_lo for s in slabs] + [slabs[-1].t_hi]
        assert edges == list(report.slab_times) == [sol.times.t[0]] + [
            sol.times.t[s.n_hi] for s in slabs]
    for slab in slabs:
        surge_counts, smooth_counts = cover_counts(sol, slab)
        assert np.all(surge_counts + smooth_counts >= 1)
        assert np.all(smooth_counts <= 2)
    kappa_sum = 0.0
    for slab in slabs:
        kappa_sum += slab.kappa
    assert report.kappa_sum == kappa_sum
    assert report.surge_count == sum(len(s.surges) for s in slabs)
    assert report.kappa_prime_max == max([0.0] + [k for s in slabs for k in s.surge_oscillations])
    assert report.delta_max == max([0.0] + [t.delta_l + t.delta_r for s in slabs for t in s.surges])


@pytest.mark.parametrize("slab_mode", ["eps13", "eps"])
@pytest.mark.parametrize("case,level", [("psys-raref-shock", 7), ("psys-2raref", 8),
                                        ("burgers-curved", 8)])
def test_run_and_its_dump_give_the_same_report(tmp_path, case, level, slab_mode):
    """The run's ghost hulls are its windows and the loaded dump's are taken
    from its rows, and its epsilon is replayed; the report's JSON text is
    the same."""
    sol = run_case(CaseConfig(case=case, level=level, ref="none"))[0]
    path = tmp_path / "dump.csv"
    save_solution(sol, str(path))
    back = load_solution(str(path))
    assert (json.dumps(error_estimator(back, 0.1, slab_mode).to_json_dict())
            == json.dumps(error_estimator(sol, 0.1, slab_mode).to_json_dict()))


def test_estimator_holds_little_beyond_the_history():
    """At burgers-curved L10 the largest slab spans 867 levels of J = 1024
    (7.1 MB dense, against a 2.6 MB history); the estimator's traced peak
    stays below a few levels, since at m = 1 a slab's block is the history's
    own run of its levels' ghost-hull cells."""
    grid = build_grid(-5.0, 5.0, 10)
    sol = run(_burgers_curved_averages(grid), make_model("burgers"), "llf", grid,
              0.9, 0.0, 1.0)
    tracemalloc.start()
    try:
        report = error_estimator(sol, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    level = grid.J * 8
    largest = max(s.n_hi - s.n_lo for s in report.slabs)
    assert largest * level > 2 * sol.states.nbytes
    assert peak < sol.states.nbytes + 4 * level + 2**20
    assert peak < 4 * level + 2**20
