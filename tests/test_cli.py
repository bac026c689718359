import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import (
    CaseConfig,
    Grid1D,
    TimeLevels,
    build_grid,
    converge,
    eoc,
    epsilon,
    linf_l1_error,
    make_model,
    run_case,
)
import fvbound
from fvbound import cli, error_estimator, estimator, riemann, save_solution, solver
from fvbound.cli import (
    ConfigError,
    EoCTable,
    _burgers_curved_averages,
    main,
    render_decomposition_svg,
    streamed_fine_reference,
)
from fvbound.riemann import cell_average_exact, solve_riemann
from fvbound.solver import LevelHistory, run
from oracles import dense, per_level_cell_averages, per_level_l1_distances, restrict, sample


class TestEoC:
    def test_halving_sequence(self):
        assert eoc([0.4, 0.2, 0.1]) == pytest.approx([1.0, 1.0])

    def test_table_rows(self):
        (value,) = eoc([0.09584, 0.04780])
        assert round(value, 2) == 1.00

    def test_flat_sequence(self):
        assert eoc([1.0, 1.0]) == pytest.approx([0.0])

    def test_nonpositive_entries_are_missing(self):
        assert eoc([1.0, 0.0, 0.5]) == [None, None]

    def test_equal_values_give_positive_zero(self, tmp_path):
        """Two equal values (psys-raref-shock's err at levels 0 and 1) give
        +0.0, which the table and its CSV print as 0, not -0."""
        (value,) = eoc([0.0036162, 0.0036162])
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        table = EoCTable([0, 1], [0.5, 0.25], [0.5, 0.25], [0.5, 0.25], [0.0036162, 0.0036162])
        assert table.format().splitlines()[-1].split()[-1] == "0"
        table.to_csv(str(tmp_path / "eoc.csv"))
        assert (tmp_path / "eoc.csv").read_text().splitlines()[-1].endswith(",0.0036162,0")


class TestBurgersCurvedInitialData:
    def test_exact_piecewise_averages(self):
        grid = build_grid(-5.0, 5.0, 4)
        avg = _burgers_curved_averages(grid)
        centers = grid.centers()
        assert np.all(avg[centers < -4.0] == 10.0)
        assert np.all(avg[centers > 0.0] == -7.0)
        inside = (centers > -4.0 + grid.dx) & (centers < -grid.dx)
        assert np.allclose(avg[inside, 0], -3.0 * centers[inside] - 2.0)
        # integral matches the closed form: 10 + (-3x^2/2 - 2x) on [-4,0] - 7*5
        total = avg.sum() * grid.dx
        assert total == pytest.approx(10.0 * 1.0 + (24.0 - 8.0) - 7.0 * 5.0)


class SolutionReference:
    """Oracle: a stored finer-grid solution, restricted to the coarse grid
    with linear interpolation in time between its levels."""

    def __init__(self, fine):
        self.fine = fine
        self.levels = dense(fine.states)

    def cell_averages(self, t: float, grid) -> np.ndarray:
        times = self.fine.times.t
        slop = 1e-10 * max(1.0, abs(float(times[-1])))
        if t < times[0] - slop or t > times[-1] + slop:
            raise ConfigError(f"time {t} outside the reference window")
        idx = int(np.searchsorted(times, t))
        idx = min(max(idx, 0), len(times) - 1)
        if abs(times[idx] - t) <= slop:
            states = self.levels[idx]
        else:
            lo = idx - 1
            w = (t - times[lo]) / (times[idx] - times[lo])
            states = (1.0 - w) * self.levels[lo] + w * self.levels[idx]
        return restrict(states, self.fine.grid, grid)


class TestReferences:
    def test_restriction_is_conservative_and_idempotent(self):
        fine = build_grid(-5.0, 5.0, 6)
        mid = build_grid(-5.0, 5.0, 5)
        coarse = build_grid(-5.0, 5.0, 4)
        rng = np.random.default_rng(8)
        states = rng.uniform(-1.0, 1.0, (fine.J, 2))
        one_hop = restrict(states, fine, coarse)
        two_hop = restrict(restrict(states, fine, mid), mid, coarse)
        assert np.all(np.abs(one_hop - two_hop) <= 1e-14)
        assert one_hop.sum(axis=0) * coarse.dx == pytest.approx(states.sum(axis=0) * fine.dx)

    def test_non_nesting_reference_is_rejected(self):
        model = make_model("burgers")
        coarse = build_grid(-4.0, 5.0, 3)
        sol = run(np.full((coarse.J, 1), 1.0), model, "llf", coarse, 0.9, 0.0, 0.1)
        fine = build_grid(-5.0, 5.0, 5)
        with pytest.raises(ConfigError, match="does not nest"):
            streamed_fine_reference(np.full((fine.J, 1), 1.0), model, "llf", fine, 0.9,
                                    0.0, 0.1, [sol])

    def test_streamed_reference_matches_stored_solution(self):
        """Two coarse runs in one stream: each error equals the per-level loop
        over a stored fine run restricted to its grid."""
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        fine = build_grid(-5.0, 5.0, 7)
        initial = cell_average_exact(fan, 0.0, 0.0, fine)
        runs = []
        for level in (4, 5):
            coarse = build_grid(-5.0, 5.0, level)
            runs.append(run(cell_average_exact(fan, 0.0, 0.0, coarse), model, "llf", coarse,
                            0.9, 0.0, 0.5))
        streamed = streamed_fine_reference(initial, model, "llf", fine, 0.9, 0.0, 0.5, runs)
        oracle = SolutionReference(run(initial, model, "llf", fine, 0.9, 0.0, 0.5))
        assert len(streamed) == 2
        for sol, distances in zip(runs, streamed):
            assert distances.shape == (sol.n_steps + 1, 2)
            err = float((distances * sol.grid.dx).max())
            expected = _per_level_error(sol, lambda t: oracle.cell_averages(t, sol.grid))
            assert err == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert err > 0.0


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gauss_cell_averages(fan, origin, t, grid):
    """Exact-fan cell averages by a 24-node Gauss-Legendre rule on each
    segment's part of a cell, independent of the closed form."""
    if t == 0.0:
        return cell_average_exact(fan, origin, 0.0, grid)
    edges = grid.interfaces()
    out = np.zeros((grid.J, fan.model.m))
    for lo, hi, kind, payload in fan.segments:
        a = np.maximum(edges[:-1], origin + t * lo if np.isfinite(lo) else -np.inf)
        b = np.minimum(edges[1:], origin + t * hi if np.isfinite(hi) else np.inf)
        idx = np.nonzero(b > a)[0]
        if not idx.size:
            continue
        if kind == "const":
            out[idx] += (b - a)[idx, None] * payload
            continue
        mid, half = 0.5 * (a[idx] + b[idx]), 0.5 * (b[idx] - a[idx])
        values = sample(fan, (mid[:, None] + half[:, None] * _GL_NODES - origin) / t)
        out[idx] += np.einsum("k,nkm->nm", _GL_WEIGHTS, values) * half[:, None]
    return out / grid.dx


def _per_level_error(sol, averages):
    """The per-level loop: max over levels of the componentwise L1 distance
    to averages(t), reduced by the sup norm over components."""
    worst = 0.0
    for t, level in zip(sol.times.t, dense(sol.states)):
        diff = np.abs(level - averages(float(t)))
        worst = max(worst, float((diff.sum(axis=0) * sol.grid.dx).max()))
    return worst


def _assert_fused_error_matches_oracles(sol, fan, origin):
    fused = linf_l1_error(sol, fan, origin)
    for averages in (lambda t: cell_average_exact(fan, origin, t, sol.grid),
                     lambda t: _gauss_cell_averages(fan, origin, t, sol.grid)):
        assert fused == pytest.approx(_per_level_error(sol, averages), rel=1e-12, abs=0.0)


_PSYSTEM = make_model("psystem", C=1.0, gamma=1.4)
_FANS = {
    "burgers-shock": solve_riemann(make_model("burgers"), [2.0], [-0.5]),
    "burgers-stationary-shock": solve_riemann(make_model("burgers"), [1.0], [-1.0]),
    "burgers-rarefaction": solve_riemann(make_model("burgers"), [-1.0], [2.5]),
    "burgers-constant": solve_riemann(make_model("burgers"), [0.7], [0.7]),
    "psystem-constant": solve_riemann(_PSYSTEM, [1.0, 0.5], [1.0, 0.5]),
    "psystem-raref-shock": solve_riemann(_PSYSTEM, [0.15, 0.0], [0.1, 0.0]),
    "psystem-2raref": solve_riemann(_PSYSTEM, [1.0, -2.0], [1.0, 2.0]),
    "psystem-shock-raref": solve_riemann(_PSYSTEM, [0.3, 0.4], [0.8, 0.9]),
    "psystem-2shock": solve_riemann(_PSYSTEM, [1.0, 1.0], [1.0, -1.0]),
}


class TestFusedExactError:
    """linf_l1_error against an exact fan takes one fused pass per level;
    it must match the per-level loop over full cell averages."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_FANS)), origin=st.floats(-2.0, 2.0),
           on_edge=st.booleans(), times=st.lists(st.floats(1e-9, 12.0), min_size=1, max_size=6),
           with_zero=st.booleans(), noise=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(name="burgers-stationary-shock", origin=0.0, on_edge=True, times=[0.25, 1.0],
             with_zero=True, noise=0.1, seed=0)
    def test_random_levels_match_the_per_level_loop(self, name, origin, on_edge, times,
                                                    with_zero, noise, seed):
        """Random states near the exact averages at random times: tiny times
        give fans narrower than a cell, large ones fans past the domain."""
        fan = _FANS[name]
        grid = build_grid(-5.0, 5.0, 5)
        if on_edge:  # the origin, and every breakpoint at t = 0, on a cell edge
            origin = float(grid.interfaces()[int(np.argmin(np.abs(grid.interfaces() - origin)))])
        t = sorted(set(times + [0.0] * with_zero))
        rng = np.random.default_rng(seed)
        exact = np.array([_gauss_cell_averages(fan, origin, ti, grid) for ti in t])
        states = exact + noise * (1.0 + np.abs(exact)) * rng.uniform(-1.0, 1.0, exact.shape)
        sol = SimpleNamespace(grid=grid, times=TimeLevels(np.array(t)),
                              states=LevelHistory.from_levels(states, states[0, 0], states[0, -1]))
        _assert_fused_error_matches_oracles(sol, fan, origin)

    @pytest.mark.parametrize("left,right", [([1.0], [3.0]), ([3.0], [1.0]), ([0.0], [2.0]),
                                            ([-2.0], [2.0])])
    def test_breakpoints_on_cell_edges(self, left, right):
        """Integer wave speeds at whole multiples of dx put every breakpoint
        on a cell edge."""
        fan = solve_riemann(make_model("burgers"), left, right)
        grid = build_grid(-5.0, 5.0, 5)
        t = grid.dx * np.array([0.0, 1.0, 2.0, 5.0])
        exact = np.array([_gauss_cell_averages(fan, 0.0, ti, grid) for ti in t])
        states = exact + 0.1 * np.random.default_rng(3).uniform(-1.0, 1.0, exact.shape)
        sol = SimpleNamespace(grid=grid, times=TimeLevels(t),
                              states=LevelHistory.from_levels(states, states[0, 0], states[0, -1]))
        _assert_fused_error_matches_oracles(sol, fan, 0.0)

    @pytest.mark.parametrize("origin", [0.0, 0.37, -1.3])
    def test_marched_psystem_run_from_t0(self, origin):
        """A marched run from the Riemann step, its t = 0 level included."""
        config = CaseConfig(case="custom", model="psystem", left=(0.3, 0.1), right=(0.12, -0.05),
                            origin=origin, t_final=0.8, level=5)
        sol, _, err, _ = run_case(config)
        assert sol.times.t[0] == 0.0
        fan = solve_riemann(make_model("psystem"), config.left, config.right)
        assert err == linf_l1_error(sol, fan, origin)
        _assert_fused_error_matches_oracles(sol, fan, origin)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def _edge_times(draw, fan, origin, grid):
    """Times t > 0 at which a breakpoint origin + t*xi lands exactly on a
    cell edge, where one is found next to (edge - origin)/xi."""
    speeds = [seg[1] for seg in fan.segments[:-1] if seg[1] != 0.0]
    if not speeds:
        return []
    edges = grid.interfaces()
    times = []
    for xi, edge in draw(st.lists(st.tuples(st.sampled_from(speeds), st.sampled_from(edges)),
                                  max_size=3)):
        t = (edge - origin) / xi
        for _ in range(4):
            if t > 0.0 and origin + t * xi == edge:
                times.append(t)
                break
            t = np.nextafter(t, np.inf if origin + t * xi < edge else -np.inf)
    return times


def _ghost_pair(fan, kind, states):
    """The ghosts of a history of states against fan: the fan's outer
    states, the first and last cell of the first level (as a run keys its
    history), the outer states with each +0.0 made -0.0 (equal values,
    other bits), or the outer states swapped."""
    left, right = fan.segments[0][3], fan.segments[-1][3]
    return {"fan": (left, right), "run": (states[0, 0], states[0, -1]),
            "signed": tuple(np.where(g == 0.0, -0.0, g) for g in (left, right)),
            "swapped": (right, left)}[kind]


class TestBlockedExactPass:
    """The exact averages come a block of levels at a time, over the cells
    where a level or the fan is not constant; the distances and the averages
    must be the per-level loop's (oracles.per_level_*) as float hex."""

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(_FANS)), origin=st.floats(-7.0, 7.0),
           J=st.integers(1, 40), block=st.integers(1, 120),
           ghosts=st.sampled_from(["fan", "run", "signed", "swapped"]), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    @example(name="psystem-2raref", origin=0.0, J=32, block=96, ghosts="fan", data=None, seed=0)
    def test_random_levels_equal_the_per_level_oracle(self, name, origin, J, block, ghosts, data,
                                                      seed):
        """Any grid and block size, so that the level count may end a block,
        fall short of one or run past it; times at 0, 1e-9 (a fan inside one
        cell), with a breakpoint on a cell edge, and late enough (or from an
        origin far enough out) that waves leave the grid.  Each level is
        its exact averages, some with noise, and holds the left ghost left
        of a random cell and the right ghost from another on, so that hulls
        lie anywhere, reach cell 0 or J, or are empty there or between; the
        ghosts are the fan's outer states, a run's, or states whose bits
        differ from the fan's on one side or both."""
        fan = _FANS[name]
        grid = Grid1D(-5.0, 5.0, J)
        if data is None:  # the example: 3 levels of 32 cells a block, 7 levels
            times = [0.0, 1e-9, 0.25, 0.5, 1.0, 4.0, 12.0]
        else:
            time = st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(1e-9, 12.0))
            times = (data.draw(st.lists(time, min_size=1, max_size=14))
                     + data.draw(_edge_times(fan, origin, grid)))
        times = np.array(times)
        exact = np.array([per_level_cell_averages(fan, origin, t, grid) for t in times.tolist()])
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-1.0, 1.0, exact.shape) * rng.integers(0, 2, (len(times), 1, 1))
        states = exact + 0.1 * (1.0 + np.abs(exact)) * noise  # some levels exact
        ghost_left, ghost_right = _ghost_pair(fan, ghosts, states)
        for level in states:
            lo = int(rng.choice([0, J, rng.integers(0, J + 1)]))
            hi = int(rng.choice([lo, J, rng.integers(lo, J + 1)]))
            level[:lo], level[hi:] = ghost_left, ghost_right
        history = LevelHistory.from_levels(states, ghost_left, ghost_right)
        with patch.object(fvbound.grid, "BLOCK_CELLS", block):
            got = riemann.exact_l1_distances(fan, origin, grid, times, history)
        assert _hex(got) == _hex(per_level_l1_distances(fan, origin, grid, times, history.walk()))
        for t, averages in zip(times.tolist(), exact):
            assert _hex(cell_average_exact(fan, origin, t, grid)) == _hex(averages)

    @pytest.mark.parametrize("name", ["psystem-raref-shock", "burgers-rarefaction"])
    def test_a_record_with_other_ghosts_keeps_its_distances(self, name):
        """A marched run whose waves reach the edge of the grid by its last
        level, and the same record with other ghosts (dataclasses.replace):
        the same levels give the per-level loop's distances as float hex,
        whether the ghosts' bits are the fan's outer states' or not."""
        fan = _FANS[name]
        grid = build_grid(-5.0, 5.0, 5)
        sol = run(per_level_cell_averages(fan, 0.0, 0.0, grid), fan.model, "llf", grid, 0.9,
                  0.0, 12.0)
        hulls = sol.ghost_hulls
        assert hulls[-1, 0] == 0 or hulls[-1, 1] == grid.J  # the run reaches an edge
        want = _hex(per_level_l1_distances(fan, 0.0, grid, sol.times.t, sol.states.walk()))
        for kind in ("fan", "run", "signed", "swapped"):
            ghost_left, ghost_right = _ghost_pair(fan, kind, dense(sol.states))
            other = replace(sol, ghost_left=ghost_left, ghost_right=ghost_right)
            assert other.states.keyed_on(ghost_left, ghost_right)
            assert _hex(riemann.exact_l1_distances(fan, 0.0, grid, sol.times.t,
                                                   other.states)) == want

    @pytest.mark.parametrize("name",
                             ["psystem-raref-shock", "psystem-2raref", "burgers-rarefaction"])
    @pytest.mark.parametrize("n_levels", [1, 7, 8, 9, 17])
    def test_level_counts_around_the_block_size(self, name, n_levels):
        """At BLOCK_CELLS itself, on the grid whose blocks hold 8 levels."""
        fan = _FANS[name]
        grid = Grid1D(-5.0, 5.0, fvbound.grid.BLOCK_CELLS // 8)
        times = np.linspace(0.0, 1.5, n_levels)
        exact = np.array([per_level_cell_averages(fan, 0.1, t, grid) for t in times.tolist()])
        states = exact + np.random.default_rng(n_levels).uniform(-0.01, 0.01, exact.shape)
        history = LevelHistory.from_levels(states, states[0, 0], states[0, -1])
        assert _hex(riemann.exact_l1_distances(fan, 0.1, grid, times, history)) == _hex(
            per_level_l1_distances(fan, 0.1, grid, times, history.walk()))


def test_exact_error_holds_little_beyond_the_per_level_pass():
    """At psys-raref-shock L10 (321 levels of J = 2048) the per-level pass
    peaked at 432,032 traced bytes; the blocks of levels may add 1 MiB."""
    grid = build_grid(-5.0, 5.0, 10)
    model = make_model("psystem")
    fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
    sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)
    assert len(sol.times.t) > 8 * max(1, fvbound.grid.BLOCK_CELLS // grid.J)
    tracemalloc.start()
    try:
        linf_l1_error(sol, fan, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 432_032 + 2**20


class TestRunCase:
    def test_constant_custom_case_gives_zero_report(self):
        config = CaseConfig(case="custom", level=4, model="burgers",
                            left=(1.5,), right=(1.5,), ref="exact", t_final=0.5)
        sol, estimate, err, paths = run_case(config)
        assert estimate.epsilon_t == 0.0
        assert estimate.e_surge == 0.0 and estimate.e_smooth == 0.0
        assert err == 0.0
        assert paths == {}

    def test_output_files_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = CaseConfig(case="psys-2raref", level=5)
        import dataclasses

        _, est, err, paths1 = run_case(dataclasses.replace(base, out_dir=str(out1)))
        _, _, _, paths2 = run_case(dataclasses.replace(base, out_dir=str(out2)))
        assert err is not None and err > 0
        for key in ("report", "residuals", "svg"):
            assert key in paths1
            with open(paths1[key], "rb") as f1, open(paths2[key], "rb") as f2:
                assert f1.read() == f2.read()
        report = json.loads(open(paths1["report"]).read())
        assert report["schema"] == 1
        assert report["case"] == "psys-2raref"
        assert report["estimate"]["epsilon"] == pytest.approx(est.epsilon_t)

    def test_solution_dump_option(self, tmp_path):
        config = CaseConfig(case="psys-raref-shock", level=4,
                            out_dir=str(tmp_path), dump_solution=True)
        _, _, _, paths = run_case(config)
        from fvbound.solver import load_solution

        back = load_solution(paths["solution"])
        assert back.grid.J == 32

    def test_fine_grid_reference_case(self):
        config = CaseConfig(case="burgers-curved", level=4, ref="fine:6")
        _, _, err, _ = run_case(config)
        assert err is not None and 0 < err < 10.0

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError):
            run_case(CaseConfig(case="nope", level=4))

    def test_custom_requires_states(self):
        with pytest.raises(ConfigError):
            run_case(CaseConfig(case="custom", level=4))

    @pytest.mark.parametrize("case,model,left,right,t_final", [
        ("psys-raref-shock", "psystem", (0.15, 0.0), (0.1, 0.0), 1.5),
        ("psys-2raref", "psystem", (1.0, -2.0), (1.0, 2.0), 1.0),
    ])
    def test_named_fan_case_equals_custom_case_off_origin(self, case, model, left, right,
                                                         t_final):
        """A named fan case starts from, and is measured against, the fan
        centred at config.origin, like the custom case with its states."""
        named = run_case(CaseConfig(case=case, level=6, origin=0.5))
        t0 = named[0].t0
        custom = run_case(CaseConfig(case="custom", model=model, left=left, right=right,
                                     t0=t0, t_final=t_final, origin=0.5, level=6))
        assert named[2].hex() == custom[2].hex()
        assert json.dumps(named[1].to_json_dict()) == json.dumps(custom[1].to_json_dict())
        assert np.array_equal(named[0].states, custom[0].states)
        centred = run_case(CaseConfig(case=case, level=6))
        assert named[2] != centred[2]


class TestLevelTermsCount:
    """Each level's model terms are evaluated once per case: run marches on
    the lean per-step terms and evaluates none, the estimator's residual
    pass gives epsilon from them, an audit's pass evaluates the dump's
    levels once, and the fine reference marches on the lean per-step terms.
    counts gets one entry per level evaluated, the rows of the array it was
    evaluated on: level_terms takes a (rows, levels, m) block of levels."""

    @staticmethod
    def _counted(make_model, counts):
        def counting_make_model(*args, **kwargs):
            model = make_model(*args, **kwargs)
            inner = model.level_terms

            def level_terms(u):
                counts.extend([len(u)] * (u.shape[1] if u.ndim == 3 else 1))
                return inner(u)

            model.level_terms = level_terms
            return model

        return counting_make_model

    def test_run_estimate_and_audit(self, monkeypatch, tmp_path):
        counts = []
        monkeypatch.setattr(cli, "make_model", self._counted(cli.make_model, counts))
        sol, _, err, _ = run_case(CaseConfig(case="psys-raref-shock", level=4))
        assert err is not None and len(counts) == sol.n_steps + 1
        del counts[:]
        error_estimator(sol, 0.1)
        assert len(counts) == sol.n_steps + 1
        del counts[:]

        dump = tmp_path / "dump.csv"
        save_solution(sol, str(dump))
        monkeypatch.setattr(solver, "make_model", self._counted(solver.make_model, counts))
        assert main(["audit", "--solution", str(dump)]) == 0
        assert len(counts) == sol.n_steps + 1

    def test_the_estimators_epsilon_evaluates_every_level(self, monkeypatch):
        """In run_case the N+1 levels' terms are evaluated inside
        fvbound.estimator.epsilon, the name the per-layer trace times as
        residual.epsilon, and none inside run."""
        counts, spans = [], {}

        def measured(name, fn):
            def wrapped(*args, **kwargs):
                before = len(counts)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans.setdefault(name, []).append(len(counts) - before)

            return wrapped

        monkeypatch.setattr(cli, "make_model", self._counted(cli.make_model, counts))
        monkeypatch.setattr(cli, "run", measured("run", cli.run))
        monkeypatch.setattr(estimator, "epsilon", measured("epsilon", estimator.epsilon))
        sol = run_case(CaseConfig(case="psys-raref-shock", level=4))[0]
        assert spans == {"run": [0], "epsilon": [sol.n_steps + 1]}
        assert len(counts) == sol.n_steps + 1

    def test_run_and_march_hand_on_window_sized_arrays(self, monkeypatch):
        """On burgers-curved L8, the rows per level of the blocks that the
        residual pass of epsilon hands level_terms, and the arrays that run
        and march hand step, average below a quarter of the padded grid: each
        step works on its active window, and each block on its levels'
        hulls."""
        config = cli._resolve(CaseConfig(case="burgers-curved", level=8))
        grid = build_grid(*cli.DOMAIN, 8)
        terms_lengths, step_lengths = [], []
        step = solver.step

        def counting_step(states, *args, **kwargs):
            step_lengths.append(len(states))
            return step(states, *args, **kwargs)

        monkeypatch.setattr(solver, "step", counting_step)
        model = self._counted(make_model, terms_lengths)("burgers")
        args = (_burgers_curved_averages(grid), model, "llf", grid, config.cfl, config.t0,
                config.t_final)
        sol = run(*args)
        assert terms_lengths == [] and len(step_lengths) == sol.n_steps
        epsilon(sol)
        assert len(terms_lengths) == sol.n_steps + 1
        assert sum(1 for _ in solver.march(*args)) == sol.n_steps + 1
        assert len(terms_lengths) == sol.n_steps + 1 and len(step_lengths) == 2 * sol.n_steps
        for lengths in (terms_lengths, step_lengths[:sol.n_steps], step_lengths[sol.n_steps:]):
            assert np.mean(lengths) < (grid.J + 2) / 4

    def test_fine_reference_restricts_window_sized_slices(self, monkeypatch):
        """On burgers-curved L8 against fine:10, the fine slices that the
        reference interpolates and restricts, a batch of levels at a time,
        average below a quarter of the fine grid a level: each holds the
        coarse cells that meet the window of the step into the fine level."""
        coarse = run_case(CaseConfig(case="burgers-curved", level=8, ref="none"))[0]
        config = cli._resolve(CaseConfig(case="burgers-curved", level=8))
        fine_grid = build_grid(*cli.DOMAIN, 10)
        lengths = []
        inner = cli._restrict

        def counting_restrict(states, ratio):
            lengths.append(len(states))
            return inner(states, ratio)

        monkeypatch.setattr(cli, "_restrict", counting_restrict)
        streamed_fine_reference(_burgers_curved_averages(fine_grid), make_model("burgers"), "llf",
                                fine_grid, config.cfl, config.t0, config.t_final, [coarse])
        assert 0 < len(lengths) <= coarse.n_steps + 1
        assert sum(lengths) / (coarse.n_steps + 1) < fine_grid.J / 4

    def test_exact_error_builds_window_sized_blocks(self, monkeypatch):
        """On psys-raref-shock L10 against the exact fan, the cells that the
        exact pass builds averages for, and reads the run's levels over,
        average below a quarter of the grid per level: each block spans its
        levels' ghost hulls and the fan's band."""
        sol, _, err, _ = run_case(CaseConfig(case="psys-raref-shock", level=10))
        fan = solve_riemann(make_model("psystem"), [0.15, 0.0], [0.1, 0.0])
        built = []
        inner = riemann._average_blocks

        def counting_average_blocks(*args):
            for levels, cells, averages in inner(*args):
                assert averages.shape[:2] == (levels.stop - levels.start, cells.stop - cells.start)
                built.extend([cells.stop - cells.start] * len(averages))
                yield levels, cells, averages

        monkeypatch.setattr(riemann, "_average_blocks", counting_average_blocks)
        assert linf_l1_error(sol, fan, 0.0) == err
        assert len(built) == sol.n_steps + 1
        assert np.mean(built) < sol.grid.J / 4

    def test_fine_reference_marches_without_level_terms(self):
        counts = []
        coarse = run_case(CaseConfig(case="burgers-curved", level=3, ref="none"))[0]
        config = cli._resolve(CaseConfig(case="burgers-curved", level=3))
        fine_grid = build_grid(*cli.DOMAIN, 5)
        model = self._counted(make_model, counts)("burgers")
        streamed_fine_reference(_burgers_curved_averages(fine_grid), model, "llf", fine_grid,
                                config.cfl, config.t0, config.t_final, [coarse])
        assert counts == []


class TestConverge:
    def test_small_table(self, tmp_path):
        config = CaseConfig(case="psys-2raref", level=4, out_dir=str(tmp_path))
        table = converge(config, 4, 5)
        rows = table.rows()
        assert [row[0] for row in rows] == [4, 5]
        assert rows[0][2] is None  # first EoC entry blank
        assert rows[1][2] == pytest.approx(-np.log2(table.eps[1] / table.eps[0]))
        csv_path = tmp_path / "psys-2raref_eoc.csv"
        text = csv_path.read_text()
        assert text.splitlines()[0] == "L,eps,eoc_eps,eps13,E_S,eoc_E_S,E_G,eoc_E_G,err,eoc_err"
        assert len(text.splitlines()) == 3

    def test_level_range_validation(self):
        with pytest.raises(ConfigError):
            converge(CaseConfig(case="psys-2raref", level=4), 4, 4)

    def test_shared_fine_reference_matches_separate_runs(self):
        config = CaseConfig(case="burgers-curved", level=4, ref="fine:8")
        table = converge(config, 4, 6)
        for level, err in zip(table.levels, table.error):
            _, _, alone, _ = run_case(replace(config, level=level))
            assert err == alone
        assert table.error[0] > table.error[1] > table.error[2] > 0.0

    @pytest.mark.parametrize("ref", ["fine:6", "fine:5"])
    def test_fine_reference_below_a_level_is_refused_before_marching(self, ref, monkeypatch):
        def no_marching(*args, **kwargs):
            raise AssertionError("marched before the reference was checked")

        monkeypatch.setattr(cli, "run", no_marching)
        monkeypatch.setattr(cli, "march", no_marching)
        with pytest.raises(ConfigError, match="must exceed every run level"):
            converge(CaseConfig(case="burgers-curved", level=4, ref=ref), 4, 6)

    def test_report_files_match_single_runs(self, tmp_path):
        config = CaseConfig(case="burgers-curved", level=3, ref="fine:6")
        converge(replace(config, out_dir=str(tmp_path / "study")), 3, 4)
        for level in (3, 4):
            _, _, _, paths = run_case(replace(config, level=level,
                                              out_dir=str(tmp_path / f"L{level}")))
            for path in paths.values():
                name = path.rsplit("/", 1)[1]
                with open(path, "rb") as alone, open(tmp_path / "study" / name, "rb") as study:
                    assert alone.read() == study.read(), name


class TestSvg:
    @staticmethod
    def svg_text(sol, est) -> str:
        fh = io.StringIO()
        render_decomposition_svg(sol, est, fh)
        return fh.getvalue()

    def test_render_contains_overlay(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 6)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)
        from fvbound import error_estimator

        est = error_estimator(sol, 0.1)
        svg = self.svg_text(sol, est)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polygon" in svg and "rect" in svg

    @staticmethod
    def raster_rows_oracle(sol, width=900, height=620):
        """The per-cell double loop the vectorised raster replaces."""
        pad = 40.0
        raster = cli._downsample(dense(sol.states)[:, :, 0], 160, 240)
        vmin, vmax = float(raster.min()), float(raster.max())
        vspan = vmax - vmin if vmax > vmin else 1.0
        n_rows, n_cols = raster.shape
        cell_w = (width - 2 * pad) / n_cols
        cell_h = (height - 2 * pad) / n_rows
        rows = []
        for r in range(n_rows):
            y = height - pad - (r + 1) * cell_h
            row = []
            for c in range(n_cols):
                shade = int(round(235 - 195 * (raster[r, c] - vmin) / vspan))
                row.append(
                    f'<rect x="{pad + c * cell_w:.2f}" y="{y:.2f}" '
                    f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" '
                    f'fill="rgb({shade},{shade},{shade})"/>'
                )
            rows.append("".join(row))
        return rows

    @pytest.mark.parametrize("case,level", [("psys-raref-shock", 6), ("burgers-curved", 5)])
    def test_raster_bytes_equal_the_double_loop(self, case, level):
        sol, est, _, _ = run_case(CaseConfig(case=case, level=level, ref="none"))
        rows = self.raster_rows_oracle(sol)
        svg = self.svg_text(sol, est)
        lines = svg.split("\n")
        assert len(rows) > 10
        assert lines[2 : 2 + len(rows)] == rows
        assert lines[2 + len(rows)].startswith("<line")  # the overlay follows the raster
        assert svg.endswith("</svg>\n")

    @pytest.mark.parametrize("case,level", [("psys-raref-shock", 6), ("burgers-curved", 5)])
    def test_run_and_audit_write_the_same_svg(self, case, level, tmp_path):
        """The SVG of `run --out` and that of `audit --out` on its dump hold
        the same bytes, which are the text rendered into a StringIO."""
        sol, est, _, paths = run_case(CaseConfig(case=case, level=level, ref="none",
                                                 out_dir=str(tmp_path / "run"),
                                                 dump_solution=True))
        assert main(["audit", "--solution", paths["solution"],
                     "--out", str(tmp_path / "audit")]) == 0
        audit_svg = tmp_path / "audit" / f"{case}_L{level}_solution_audit.svg"
        text = self.svg_text(sol, est).encode()
        assert Path(paths["svg"]).read_bytes() == text
        assert audit_svg.read_bytes() == text

    def test_writing_holds_one_row_of_the_file(self, tmp_path):
        """psys-raref-shock L9: the raster and one row of text are alive at a
        time, and the shades are computed in the raster's buffer.  The whole
        text held as lines and joined into one string traced 6.9 MB, about
        twice the file; the shades computed out of place, with two
        raster-sized temporaries, 1.00 MB; in place 0.48 MB."""
        sol, est, _, _ = run_case(CaseConfig(case="psys-raref-shock", level=9, ref="none"))
        path = tmp_path / "decomposition.svg"
        tracemalloc.start()
        try:
            with open(path, "w") as fh:
                render_decomposition_svg(sol, est, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 0.75 * 2**20
        assert path.stat().st_size > bound  # so one copy of the text exceeds the bound
        assert peak < bound

    def test_raster_bands_equal_the_dense_downsample(self):
        """Past 320 levels each raster row is the mean of a band of
        row_stride >= 2 levels taken from a walk of the history; it equals
        the mean over the dense array bit for bit, with the levels past the
        last whole band dropped.  The bands fill one preallocated raster:
        a list of rows stacked at the end traced 1.11 MB beside its 0.33 MB."""
        grid = build_grid(-5.0, 5.0, 9)
        sol = run(_burgers_curved_averages(grid), make_model("burgers"), "llf", grid,
                  0.9, 0.0, 1.0)
        row_stride = len(sol.states) // 160
        assert row_stride >= 2 and len(sol.states) % row_stride
        want = cli._downsample(dense(sol.states)[:, :, 0], 160, 240)
        tracemalloc.start()
        try:
            got = cli._raster(sol, 160, 240)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert peak < got.nbytes + 2**19


class TestMain:
    def test_run_command(self, capsys, tmp_path):
        code = main([
            "run", "--case", "custom", "--model", "burgers",
            "--left", "1.0", "--right", "-1.0", "--level", "4",
            "--T", "0.5", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "case=custom" in out and "eps=" in out

    def test_converge_command(self, capsys):
        code = main([
            "converge", "--case", "custom", "--model", "burgers",
            "--left", "0.5", "--right", "-0.5", "--T", "0.5",
            "--levels", "3..4", "--ref", "none",
        ])
        assert code == 0
        assert "eoc_eps" in capsys.readouterr().out

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("case=custom\nmodel=burgers\nleft=1.0\nright=-1.0\nT=0.25\nref=none\n")
        code = main(["run", "--config", str(cfg), "--level", "3"])
        assert code == 0

    def test_error_exit_code(self, capsys):
        code = main(["run", "--case", "custom", "--level", "3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_burgers_curved_refuses_a_later_start(self, capsys, monkeypatch):
        """burgers-curved's data are its ramp at t = 0: t0 = 0.5 is refused
        before anything is marched, and t0 = 0 still runs."""
        def no_marching(*args, **kwargs):
            raise AssertionError("marched burgers-curved from a later t0")

        argv = ["run", "--case", "burgers-curved", "--level", "3", "--ref", "none"]
        with monkeypatch.context() as patch_run:
            patch_run.setattr(cli, "run", no_marching)
            assert main([*argv, "--t0", "0.5", "--T", "1.0"]) == 1
        assert capsys.readouterr().err == (
            "error: case 'burgers-curved' starts from its ramp at t = 0, got t0=0.5\n")
        assert main([*argv, "--t0", "0", "--T", "0.5"]) == 0
        assert "case=burgers-curved" in capsys.readouterr().out

    @pytest.mark.parametrize("levels", ["6-8", "8..6", "7..7", "a..b", "6.5..8", "7..", "²..3"])
    def test_malformed_levels(self, capsys, levels):
        code = main(["converge", "--case", "psys-2raref", "--levels", levels])
        assert code == 1
        err = capsys.readouterr().err
        assert "A..B" in err and repr(levels) in err

    @pytest.mark.parametrize("level", ["abc", "1.5", "-1", "", "9x", "²"])
    def test_malformed_level(self, capsys, monkeypatch, level):
        def no_marching(*args, **kwargs):
            raise AssertionError("marched before the level was checked")

        monkeypatch.setattr(cli, "run", no_marching)
        assert main(["run", "--case", "psys-2raref", f"--level={level}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --level takes an integer >= 0, e.g. 9; got {level!r}\n"

    def test_audit_command(self, capsys, tmp_path):
        out = tmp_path / "case"
        code = main([
            "run", "--case", "psys-raref-shock", "--level", "4",
            "--out", str(out), "--dump-solution", "--ref", "none",
        ])
        assert code == 0
        dump = out / "psys-raref-shock_L4_solution.csv"
        audit_out = tmp_path / "audit"
        code = main(["audit", "--solution", str(dump), "--out", str(audit_out)])
        assert code == 0
        assert "audited" in capsys.readouterr().out
        assert (audit_out / "psys-raref-shock_L4_solution_audit.json").exists()
        assert (audit_out / "psys-raref-shock_L4_solution_audit_slabs.csv").exists()

    def test_audit_refuses_a_dump_that_leaves_the_domain(self, capsys, tmp_path):
        code = main(["run", "--case", "psys-raref-shock", "--level", "4", "--out", str(tmp_path),
                     "--dump-solution", "--ref", "none"])
        assert code == 0
        dump = tmp_path / "psys-raref-shock_L4_solution.csv"
        lines = dump.read_text().splitlines(keepends=True)
        rows = [k for k, line in enumerate(lines) if not line.startswith("#")]
        assert len(rows) > 4
        k = rows[len(rows) // 2]  # an interior time level
        values = lines[k].split(",")  # t, lo, hi, then the hull cells
        lo, hi = int(values[1]), int(values[2])
        j = (lo + hi) // 2
        assert lo <= j < hi
        values[3 + 2 * (j - lo)] = "-0.25"  # rho of hull cell j
        lines[k] = ",".join(values)
        dump.write_text("".join(lines))
        capsys.readouterr()
        assert main(["audit", "--solution", str(dump)]) == 1
        assert "p-system state with rho <= 0" in capsys.readouterr().err

    def test_audit_names_the_line_and_cell_of_a_non_finite_burgers_cell(self, capsys,
                                                                         tmp_path):
        code = main(["run", "--case", "burgers-curved", "--level", "4", "--out", str(tmp_path),
                     "--dump-solution", "--ref", "none"])
        assert code == 0
        dump = tmp_path / "burgers-curved_L4_solution.csv"
        lines = dump.read_text().splitlines(keepends=True)
        k = [k for k, line in enumerate(lines) if not line.startswith("#")][3]
        values = lines[k].rstrip("\n").split(",")  # t, lo, hi, then the hull cells
        lo, hi = int(values[1]), int(values[2])
        assert lo < hi
        values[3] = "nan"  # hull cell j = lo
        lines[k] = ",".join(values) + "\n"
        dump.write_text("".join(lines))
        capsys.readouterr()
        assert main(["audit", "--solution", str(dump)]) == 1
        assert (f"{dump}, line {k + 1}: cell j={lo} holds [nan]: non-finite Burgers state"
                in capsys.readouterr().err)

    def test_audit_refuses_a_dump_without_a_header_key(self, capsys, tmp_path):
        code = main(["run", "--case", "psys-raref-shock", "--level", "3", "--out", str(tmp_path),
                     "--dump-solution", "--ref", "none"])
        assert code == 0
        dump = tmp_path / "psys-raref-shock_L3_solution.csv"
        text = dump.read_text()
        assert " x_min=-5.0 " in text
        dump.write_text(text.replace(" x_min=-5.0", "", 1))
        capsys.readouterr()
        assert main(["audit", "--solution", str(dump)]) == 1
        assert capsys.readouterr().err == f"error: {dump}: header is missing 'x_min'\n"

    @pytest.mark.parametrize("line,message", [
        ("sigma0=0.5", "line 2: unknown key 'sigma0'"),
        ("cfl=abc", "line 2: cfl='abc': could not convert string to float: 'abc'"),
        ("slab-size=bogus", "line 2: slab-size='bogus': expected one of eps13, eps"),
        ("dump-solution=yes", "line 2: dump-solution='yes': expected one of true, false"),
        ("left", "line 2: bad config line: left"),
        ("flux=bogus", "line 2: flux='bogus': unknown numerical flux 'bogus'"),
        ("model=bogus", "line 2: model='bogus': unknown model 'bogus'"),
    ])
    def test_config_file_is_refused_before_marching(self, capsys, tmp_path, monkeypatch,
                                                    line, message):
        def no_marching(*args, **kwargs):
            raise AssertionError("marched before the config file was checked")

        monkeypatch.setattr(cli, "run", no_marching)
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"case=psys-raref-shock\n{line}\n")
        assert main(["run", "--config", str(cfg), "--level", "3"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}, {message}")

    @pytest.mark.parametrize("argv,cfg_lines,given", [
        (["--case", "psys-raref-shock", "--model", "burgers", "--left", "1.0",
          "--right", "0.5"], None, "model, left, right"),
        (["--case", "burgers-curved", "--left", "1.0"], None, "left"),
        ([], "case=psys-2raref\nright=1.0,2.0\n", "right"),
        (["--model", "psystem"], "case=psys-raref-shock\n", "model"),
    ])
    def test_named_case_refuses_a_model_or_states(self, capsys, tmp_path, monkeypatch,
                                                  argv, cfg_lines, given):
        def no_marching(*args, **kwargs):
            raise AssertionError("marched a named case with a foreign model or states")

        monkeypatch.setattr(cli, "run", no_marching)
        if cfg_lines is not None:
            cfg = tmp_path / "case.cfg"
            cfg.write_text(cfg_lines)
            argv = argv + ["--config", str(cfg)]
        assert main(["run", *argv, "--level", "3", "--ref", "none"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: case '") and err.endswith(
            f"{given} can only be given for the custom case\n")

    @pytest.mark.parametrize("model,left,right,message", [
        ("psystem", "0.15", "0.1,0", "left=0.15: model psystem takes states of m = 2 values, "
                                     "got 1"),
        ("psystem", "0.15,0", "0.1,0,2", "right=0.1,0.0,2.0: model psystem takes states of "
                                         "m = 2 values, got 3"),
        ("burgers", "1,2", "-1", "left=1.0,2.0: model burgers takes states of m = 1 values, "
                                 "got 2"),
    ])
    @pytest.mark.parametrize("where", ["flags", "config-file"])
    def test_custom_state_of_the_wrong_length_is_refused(self, capsys, tmp_path, monkeypatch,
                                                         model, left, right, message, where):
        def no_marching(*args, **kwargs):
            raise AssertionError("marched a state of the wrong length")

        monkeypatch.setattr(cli, "run", no_marching)
        monkeypatch.setattr(cli, "march", no_marching)
        argv = ["run", "--case", "custom", "--level", "3", "--ref", "none"]
        states = {"model": model, "left": left, "right": right}
        if where == "flags":
            argv += [arg for key, value in states.items() for arg in (f"--{key}", value)]
        else:
            cfg = tmp_path / "case.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in states.items()))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # One bad value for each config key that takes one: out takes any path,
    # and dump-solution is a switch on the command line.
    BAD_FLAG_VALUES = {"case": "bogus", "cfl": "abc", "sigma": "1/2", "slab-size": "bogus",
                       "flux": "bogus", "ref": "fine:x", "t0": "zero", "T": "1e",
                       "model": "bogus", "left": "1.0,a", "right": "1.0,,2"}

    def test_bad_flag_values_cover_every_key_that_takes_one(self):
        assert set(self.BAD_FLAG_VALUES) == set(cli._CONFIG_KEYS) - {"out", "dump-solution"}

    @staticmethod
    def _refused_like_its_config_line(capsys, tmp_path, monkeypatch, command, levels, key,
                                      value) -> str:
        """The error that a bad flag value and its config line both exit 1
        with, before anything is marched."""
        def no_marching(*args, **kwargs):
            raise AssertionError("marched before the flags were checked")

        monkeypatch.setattr(cli, "run", no_marching)
        monkeypatch.setattr(cli, "march", no_marching)
        argv = [command, "--case", "custom", "--model", "burgers", "--left", "1.0",
                "--right", "-1.0", *levels]
        assert main([*argv, f"--{key}", value]) == 1
        flag_error = capsys.readouterr().err
        assert flag_error.startswith(f"error: --{key}={value!r}: ")

        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main([*argv, "--config", str(cfg)]) == 1
        line_error = capsys.readouterr().err
        assert line_error == f"error: {cfg}, line 1: {flag_error.removeprefix('error: --')}"
        return flag_error

    @pytest.mark.parametrize("command,levels", [("run", ["--level", "3"]),
                                                ("converge", ["--levels", "3..4"])])
    @pytest.mark.parametrize("key", sorted(BAD_FLAG_VALUES))
    def test_bad_flag_value_is_refused_like_its_config_line(self, capsys, tmp_path, monkeypatch,
                                                            command, levels, key):
        self._refused_like_its_config_line(capsys, tmp_path, monkeypatch, command, levels, key,
                                           self.BAD_FLAG_VALUES[key])

    @pytest.mark.parametrize("command,levels", [("run", ["--level", "3"]),
                                                ("converge", ["--levels", "3..4"])])
    def test_superscript_fine_level_is_refused_as_a_reference_mode(self, capsys, tmp_path,
                                                                   monkeypatch, command, levels):
        """str.isdigit accepts a superscript digit and int does not, so the
        fine level is read with str.isdecimal."""
        error = self._refused_like_its_config_line(capsys, tmp_path, monkeypatch, command,
                                                   levels, "ref", "fine:\u00b2")
        assert error.endswith("unknown reference mode 'fine:\u00b2'\n")

    @pytest.mark.parametrize("flag,value", [("--sigma", "abc"), ("--slab-size", "bogus")])
    def test_audit_refuses_a_bad_flag_value(self, capsys, tmp_path, flag, value):
        dump = tmp_path / "missing.csv"  # flags are read before the dump
        assert main(["audit", "--solution", str(dump), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}={value!r}: ")

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--config", "--level", *(f"--{key}" for key in cli._CONFIG_KEYS)]),
        ("converge", ["--config", "--levels", *(f"--{key}" for key in cli._CONFIG_KEYS
                                                if key != "dump-solution")]),
        ("audit", ["--solution", "--sigma", "--slab-size", "--out"]),
    ])
    def test_help_lists_every_flag(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
        assert set(flags) <= listed

    def test_config_file_switch_and_slab_size(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("case=psys-raref-shock  # the paper case\nslab-size=eps\n"
                       f"dump-solution=true\nref=none\nout={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg), "--level", "3"]) == 0
        assert (tmp_path / "out" / "psys-raref-shock_L3_solution.csv").exists()
        report = json.loads((tmp_path / "out" / "psys-raref-shock_L3_report.json").read_text())
        assert report["slab_mode"] == "eps"

    def test_slab_csv_written(self, tmp_path):
        _, _, _, paths = run_case(CaseConfig(case="psys-raref-shock", level=4,
                                             out_dir=str(tmp_path)))
        header = open(paths["slabs"]).readline().strip()
        assert header == "slab,t_lo,t_hi,n_surges,kappa,kappa_prime_max,delta_max,c0"


class TestFormatting:
    def test_table_format_renders(self):
        from fvbound.cli import EoCTable

        table = EoCTable(levels=[4, 5], eps=[0.4, 0.2], e_surge=[0.0, 0.0],
                         e_smooth=[1.0, 0.8], error=[None, None])
        text = table.format()
        assert "eoc_eps" in text.splitlines()[0]
        assert len(text.splitlines()) == 3

    @pytest.mark.parametrize("field,value,message", [
        ("cfl", float("nan"), "cfl must be finite"),
        ("cfl", float("inf"), "cfl must be finite"),
        ("sigma0", float("nan"), "sigma must be a finite positive number"),
        ("sigma0", 0.0, "sigma must be a finite positive number"),
        ("sigma0", -0.1, "sigma must be a finite positive number"),
        ("t0", float("-inf"), "t0 must be finite"),
        ("t_final", float("nan"), "t_final must be finite"),
        ("t_final", float("inf"), "t_final must be finite"),
        ("t_final", 0.0, "t_final must exceed t0"),
        ("t_final", -1.0, "t_final must exceed t0"),
        ("slab_mode", "bogus", "unknown slab mode 'bogus'"),
        ("model", "burgers", "model can only be given for the custom case"),
    ])
    def test_meaningless_run_parameters_are_refused_before_marching(self, field, value,
                                                                     message, monkeypatch):
        def no_marching(*args, **kwargs):
            raise AssertionError("marched before the parameters were checked")

        monkeypatch.setattr(cli, "run", no_marching)
        monkeypatch.setattr(cli, "march", no_marching)
        config = replace(CaseConfig(case="psys-raref-shock", level=4), **{field: value})
        with pytest.raises(ConfigError, match=message):
            run_case(config)
        with pytest.raises(ConfigError, match=message):
            converge(config, 4, 5)

    @pytest.mark.parametrize("flag,value", [("--sigma", "nan"), ("--sigma", "0"),
                                            ("--T", "inf"), ("--t0", "2.0"), ("--cfl", "nan")])
    def test_cli_exits_1_on_meaningless_parameters(self, capsys, flag, value):
        assert main(["run", "--case", "psys-raref-shock", "--level", "3", flag, value]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1"])
    def test_audit_refuses_a_meaningless_sigma(self, capsys, tmp_path, sigma):
        dump = tmp_path / "missing.csv"  # the sigma check comes before the dump is read
        assert main(["audit", "--solution", str(dump), "--sigma", sigma]) == 1
        assert "sigma must be a finite positive number" in capsys.readouterr().err

    def test_fine_reference_must_be_finer(self):
        config = CaseConfig(case="burgers-curved", level=5, ref="fine:5")
        with pytest.raises(ConfigError):
            run_case(config)


def test_python_m_fvbound_runs_the_cli_quietly():
    """`python -m fvbound` runs the command line from a source tree and exits
    with its status, with nothing on stderr."""
    src = str(Path(fvbound.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    args = [sys.executable, "-m", "fvbound", "run", "--case", "psys-raref-shock", "--level", "3",
            "--ref", "none"]
    done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("case=psys-raref-shock L=3 eps=")
    failed = subprocess.run(args[:3] + ["run", "--case", "nope", "--level", "3"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert failed.returncode == 1 and failed.stderr.startswith("error:")
