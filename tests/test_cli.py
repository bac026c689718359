import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvbound import (
    CaseConfig,
    TimeLevels,
    build_grid,
    converge,
    eoc,
    linf_l1_error,
    make_model,
    run_case,
)
from fvbound import cli
from fvbound.cli import (
    ConfigError,
    _burgers_curved_averages,
    main,
    render_decomposition_svg,
    restrict_to_coarse,
    streamed_fine_reference,
)
from fvbound.riemann import cell_average_exact, sample, solve_riemann
from fvbound.solver import run


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

    def cell_averages(self, t: float, grid) -> np.ndarray:
        times = self.fine.times.t
        slop = 1e-10 * max(1.0, abs(float(times[-1])))
        if t < times[0] - slop or t > times[-1] + slop:
            raise ConfigError(f"time {t} outside the reference window")
        idx = int(np.searchsorted(times, t))
        idx = min(max(idx, 0), len(times) - 1)
        if abs(times[idx] - t) <= slop:
            states = self.fine.states[idx]
        else:
            lo = idx - 1
            w = (t - times[lo]) / (times[idx] - times[lo])
            states = (1.0 - w) * self.fine.states[lo] + w * self.fine.states[idx]
        return restrict_to_coarse(states, self.fine.grid, grid)


class TestReferences:
    def test_restriction_is_conservative_and_idempotent(self):
        fine = build_grid(-5.0, 5.0, 6)
        mid = build_grid(-5.0, 5.0, 5)
        coarse = build_grid(-5.0, 5.0, 4)
        rng = np.random.default_rng(8)
        states = rng.uniform(-1.0, 1.0, (fine.J, 2))
        one_hop = restrict_to_coarse(states, fine, coarse)
        two_hop = restrict_to_coarse(restrict_to_coarse(states, fine, mid), mid, coarse)
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
        for sol, err in zip(runs, streamed):
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
    for n, t in enumerate(sol.times.t):
        diff = np.abs(sol.states[n] - averages(float(t)))
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
        sol = SimpleNamespace(grid=grid, times=TimeLevels(np.array(t)), states=states)
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
        sol = SimpleNamespace(grid=grid, times=TimeLevels(t), states=states)
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
    def test_render_contains_overlay(self):
        model = make_model("psystem", C=1.0, gamma=1.4)
        fan = solve_riemann(model, [0.15, 0.0], [0.1, 0.0])
        grid = build_grid(-5.0, 5.0, 6)
        sol = run(cell_average_exact(fan, 0.0, 0.0, grid), model, "llf", grid, 0.9, 0.0, 1.5)
        from fvbound import error_estimator

        est = error_estimator(sol, 0.1)
        svg = render_decomposition_svg(sol, est)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polygon" in svg and "rect" in svg

    @staticmethod
    def raster_rows_oracle(sol, width=900, height=620):
        """The per-cell double loop the vectorised raster replaces."""
        pad = 40.0
        raster = cli._downsample(sol.states[:, :, 0], 160, 240)
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
        svg = render_decomposition_svg(sol, est)
        lines = svg.split("\n")
        assert len(rows) > 10
        assert lines[2 : 2 + len(rows)] == rows
        assert lines[2 + len(rows)].startswith("<line")  # the overlay follows the raster
        assert svg.endswith("</svg>\n")


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

    @pytest.mark.parametrize("levels", ["6-8", "8..6", "7..7", "a..b", "6.5..8", "7.."])
    def test_malformed_levels(self, capsys, levels):
        code = main(["converge", "--case", "psys-2raref", "--levels", levels])
        assert code == 1
        err = capsys.readouterr().err
        assert "A..B" in err and repr(levels) in err

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
        values = lines[k].split(",")
        values[1 + 2 * 5] = "-0.25"  # rho of cell j=5
        lines[k] = ",".join(values)
        dump.write_text("".join(lines))
        capsys.readouterr()
        assert main(["audit", "--solution", str(dump)]) == 1
        assert "p-system state with rho <= 0" in capsys.readouterr().err

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
