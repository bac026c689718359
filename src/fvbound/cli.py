"""Experiment harness: run the benchmark cases, measure L-inf/L1 errors, and
emit EoC tables (CSV), reports (JSON) and decomposition overlays (SVG)."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .estimator import EstimateReport, error_estimator
from .grid import Grid1D, build_grid, column_sums
from .models import make_model, normalize_flux_kind, normalize_model_name
from .riemann import WaveFan, cell_average_exact, exact_l1_distances, solve_riemann
from .solver import SpaceTimeSolution, march, run, save_solution

SCHEMA_VERSION = 1

# Per-cell residual CSV cap: beyond this many cells the file is skipped.
MAX_RESIDUAL_CSV_CELLS = 500_000


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CaseConfig:
    case: str
    level: int
    cfl: float = 0.9
    sigma0: float = 0.1
    slab_mode: str = "eps13"
    flux: str = "llf"
    x_min: float = -5.0
    x_max: float = 5.0
    t0: float | None = None
    t_final: float | None = None
    ref: str = "default"  # exact | fine:<level> | none | default
    out_dir: str | None = None
    model: str | None = None  # custom case; _resolve sets a named case's own
    left: tuple | None = None
    right: tuple | None = None
    origin: float = 0.0
    dump_solution: bool = False


# Each case once: (t0, t_final, default reference, (model, left, right)).  A
# case with states starts from the exact fan's averages at t0 and has it as
# its exact reference; burgers-curved has no states and starts from its
# cut-off ramp; custom takes model, left and right from the config.
_CASES = {
    "psys-2raref": (0.5, 1.0, "exact", ("psystem", (1.0, -2.0), (1.0, 2.0))),
    "psys-raref-shock": (0.0, 1.5, "exact", ("psystem", (0.15, 0.0), (0.1, 0.0))),
    "burgers-curved": (0.0, 1.0, "fine:14", ("burgers", None, None)),
    "custom": (0.0, 1.0, "exact", None),
}

_SLAB_MODES = ("eps13", "eps")


def _check_sigma(sigma0: float) -> None:
    if not (math.isfinite(sigma0) and sigma0 > 0):
        raise ConfigError(f"sigma must be a finite positive number, got {sigma0!r}")


def _resolve(config: CaseConfig) -> CaseConfig:
    """Fill the case's window, reference and data in; refuse an unknown case
    or slab mode, a named case given a model or states, a custom case without
    states, non-finite cfl, sigma0, t0 or t_final, sigma0 <= 0 and
    t_final <= t0 before anything is marched."""
    if config.case not in _CASES:
        raise ConfigError(f"unknown case '{config.case}'")
    t0, t_final, ref, data = _CASES[config.case]
    updates = {}
    if config.t0 is None:
        updates["t0"] = t0
    if config.t_final is None:
        updates["t_final"] = t_final
    if config.ref == "default":
        updates["ref"] = ref
    if data is not None:
        given = [name for name in ("model", "left", "right") if getattr(config, name) is not None]
        if given:
            raise ConfigError(f"case '{config.case}' has its own model and states; "
                              f"{', '.join(given)} can only be given for the custom case")
        updates["model"], updates["left"], updates["right"] = data
    elif config.model is None or config.left is None or config.right is None:
        raise ConfigError("custom cases need model, left and right states")
    config = replace(config, **updates)
    for name, value in (("cfl", config.cfl), ("t0", config.t0), ("t_final", config.t_final)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    _check_sigma(config.sigma0)
    if not config.t_final > config.t0:
        raise ConfigError(f"t_final must exceed t0, got t0={config.t0!r}, t_final={config.t_final!r}")
    if config.slab_mode not in _SLAB_MODES:
        raise ConfigError(f"unknown slab mode '{config.slab_mode}'")
    return config


def _burgers_curved_averages(grid: Grid1D) -> np.ndarray:
    """Exact cell averages of the cut-off ramp data: 10 left of -4, the line
    -3x - 2 on (-4, 0], -7 right of 0."""
    lo = grid.interfaces()[:-1]
    hi = grid.interfaces()[1:]

    def clip_len(a, b):
        return np.maximum(np.minimum(hi, b) - np.maximum(lo, a), 0.0)

    total = 10.0 * clip_len(-np.inf, -4.0) - 7.0 * clip_len(0.0, np.inf)
    a = np.maximum(lo, -4.0)
    b = np.minimum(hi, 0.0)
    width = np.maximum(b - a, 0.0)
    midpoint = np.where(width > 0.0, 0.5 * (a + b), 0.0)
    total += (-3.0 * midpoint - 2.0) * width
    return (total / grid.dx)[:, None]


def _case_setup(config: CaseConfig, grid: Grid1D):
    """Model, initial cell averages at t0, and the exact fan (None for
    burgers-curved) of a resolved case."""
    model = make_model(config.model)
    if config.left is None:
        return model, _burgers_curved_averages(grid), None
    fan = solve_riemann(model, config.left, config.right)
    return model, cell_average_exact(fan, config.origin, config.t0, grid), fan


def restrict_to_coarse(states: np.ndarray, fine_grid: Grid1D, coarse_grid: Grid1D) -> np.ndarray:
    """Conservative restriction: mean over the fine cells nested in each
    coarse cell."""
    if (
        fine_grid.x_min != coarse_grid.x_min
        or fine_grid.x_max != coarse_grid.x_max
        or fine_grid.J % coarse_grid.J != 0
    ):
        raise ConfigError("fine reference grid does not nest the coarse grid")
    ratio = fine_grid.J // coarse_grid.J
    return states.reshape(coarse_grid.J, ratio, -1).mean(axis=1)


# Both references give each run's per-level sums over cells of |u_j - ubar_j|;
# the L-inf/L1 error is the largest of them times dx.
def streamed_fine_reference(
    initial_fine: np.ndarray,
    model,
    flux_kind: str,
    fine_grid: Grid1D,
    cfl: float,
    t0: float,
    t_final: float,
    runs: list[SpaceTimeSolution],
) -> list[float]:
    """Each run's L-inf/L1 error against a fine run marched once without
    storing it: at each of a run's time levels, the fine solution (linear
    interpolation between fine levels) restricted to the run's grid."""
    errors = [0.0] * len(runs)
    pending = [0] * len(runs)
    prev_t = None
    prev_states = None
    slop = 1e-12 * max(1.0, abs(t_final))
    for t, states in march(initial_fine, model, flux_kind, fine_grid, cfl, t0, t_final):
        for k, sol in enumerate(runs):
            eval_times = sol.times.t
            while pending[k] < len(eval_times) and eval_times[pending[k]] <= t + slop:
                wanted = eval_times[pending[k]]
                if prev_t is None or abs(t - wanted) <= slop:
                    snap = states
                else:
                    w = (wanted - prev_t) / (t - prev_t)
                    snap = (1.0 - w) * prev_states + w * states
                averages = restrict_to_coarse(snap, fine_grid, sol.grid)
                diff = np.abs(sol.states[pending[k]] - averages)
                errors[k] = max(errors[k], float((column_sums(diff) * sol.grid.dx).max()))
                pending[k] += 1
        prev_t, prev_states = t, states
    if any(done < len(sol.times.t) for done, sol in zip(pending, runs)):
        raise ConfigError("fine reference run ended before the last eval time")
    return errors


def linf_l1_error(sol: SpaceTimeSolution, fan: WaveFan, origin: float = 0.0) -> float:
    """L-inf/L1 error against the exact fan centred at origin: max over time
    levels of the componentwise L1 distance to its cell averages, reduced by
    the sup norm over components; one fused pass per level."""
    distances = exact_l1_distances(fan, origin, sol.grid, sol.times.t, sol.states)
    return float((distances * sol.grid.dx).max())


def eoc(values) -> list[float | None]:
    """Empirical orders of convergence -log2(v_{k+1}/v_k); None where a value
    is non-positive."""
    out: list[float | None] = []
    for a, b in zip(values, values[1:]):
        if a is None or b is None or a <= 0 or b <= 0:
            out.append(None)
        else:
            out.append(-math.log2(b / a))
    return out


def _fine_level(config: CaseConfig, top_level: int) -> int | None:
    """The level of a fine:<L> reference, None for exact or none.  Refuses an
    unknown mode, or a fine level not above every run level up to top_level."""
    if config.ref in ("none", "exact"):
        return None
    level = config.ref.removeprefix("fine:")
    if level == config.ref or not level.isdigit():
        raise ConfigError(f"unknown reference mode '{config.ref}'")
    if int(level) <= top_level:
        raise ConfigError(f"fine reference level {level} must exceed every run level "
                          f"(up to {top_level})")
    return int(level)


def _march_and_estimate(config: CaseConfig):
    """March and estimate one level of a resolved case and write its output
    files but the report, which waits for the error.  Returns (solution,
    estimate, exact fan or None, written paths)."""
    grid = build_grid(config.x_min, config.x_max, config.level)
    model, initial, fan = _case_setup(config, grid)
    if config.ref == "exact" and fan is None:
        raise ConfigError("no exact solution available for this case")
    flux_kind = normalize_flux_kind(config.flux)
    sol = run(initial, model, flux_kind, grid, config.cfl, config.t0, config.t_final)
    estimate = error_estimator(sol, config.sigma0, config.slab_mode)

    paths: dict[str, str] = {}
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        tag = f"{config.case}_L{config.level}"
        if sol.n_steps * grid.J <= MAX_RESIDUAL_CSV_CELLS:
            csv_path = os.path.join(config.out_dir, f"{tag}_residuals.csv")
            estimate.residual.write_cells_csv(sol, csv_path)
            paths["residuals"] = csv_path

        slab_path = os.path.join(config.out_dir, f"{tag}_slabs.csv")
        write_slab_csv(estimate, slab_path)
        paths["slabs"] = slab_path

        svg_path = os.path.join(config.out_dir, f"{tag}_decomposition.svg")
        with open(svg_path, "w") as fh:
            fh.write(render_decomposition_svg(sol, estimate))
        paths["svg"] = svg_path

        if config.dump_solution:
            dump_path = os.path.join(config.out_dir, f"{tag}_solution.csv")
            save_solution(sol, dump_path)
            paths["solution"] = dump_path
    return sol, estimate, fan, paths


def _errors(config: CaseConfig, fan: WaveFan | None, fine_level: int | None,
            runs: list[SpaceTimeSolution]) -> list[float | None]:
    """Each run's L-inf/L1 error against the case reference; a fine-grid
    reference is marched once for all runs."""
    if fine_level is not None:
        fine_grid = build_grid(config.x_min, config.x_max, fine_level)
        model, initial, _ = _case_setup(config, fine_grid)
        return streamed_fine_reference(initial, model, config.flux, fine_grid, config.cfl,
                                       config.t0, config.t_final, runs)
    if config.ref == "exact":
        return [linf_l1_error(sol, fan, config.origin) for sol in runs]
    return [None] * len(runs)


def _write_report(config: CaseConfig, report: dict) -> str:
    path = os.path.join(config.out_dir, f"{config.case}_L{config.level}_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def run_case(config: CaseConfig):
    """Build, march, estimate and (optionally) write the report files.

    Returns (solution, estimate report, error or None, written paths).
    """
    config = _resolve(config)
    fine_level = _fine_level(config, config.level)
    sol, estimate, fan, paths = _march_and_estimate(config)
    (err,) = _errors(config, fan, fine_level, [sol])
    if config.out_dir:
        paths = {"report": _write_report(config, _report_dict(config, estimate, err)), **paths}
    return sol, estimate, err, paths


def write_slab_csv(estimate: EstimateReport, path: str) -> None:
    """One row of oscillation/width diagnostics per meso-timeslab."""
    with open(path, "w", newline="") as fh:
        fh.write("slab,t_lo,t_hi,n_surges,kappa,kappa_prime_max,delta_max,c0\r\n")
        for slab in estimate.slabs:
            row = [
                str(slab.index),
                _format_value(slab.t_lo),
                _format_value(slab.t_hi),
                str(slab.n_surges),
                _format_value(slab.kappa),
                _format_value(slab.kappa_prime_max),
                _format_value(slab.delta_max),
                _format_value(slab.c0),
            ]
            fh.write(",".join(row) + "\r\n")


def _report_dict(config: CaseConfig, estimate: EstimateReport, err: float | None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "case": config.case,
        "level": config.level,
        "cfl": config.cfl,
        "sigma0": config.sigma0,
        "flux": normalize_flux_kind(config.flux),
        "slab_mode": config.slab_mode,
        "t0": config.t0,
        "t_final": config.t_final,
        "reference": config.ref,
        "linf_l1_error": err,
        "estimate": estimate.to_json_dict(),
    }


@dataclass
class EoCTable:
    """Rows of (L, eps, EoC, eps^(1/3), E_S, EoC, E_G, EoC, error, EoC)."""

    levels: list[int]
    eps: list[float]
    e_surge: list[float]
    e_smooth: list[float]
    error: list[float | None]

    COLUMNS = ("L", "eps", "eoc_eps", "eps13", "E_S", "eoc_E_S",
               "E_G", "eoc_E_G", "err", "eoc_err")

    def rows(self) -> list[list]:
        eps_eoc = [None] + eoc(self.eps)
        es_eoc = [None] + eoc(self.e_surge)
        eg_eoc = [None] + eoc(self.e_smooth)
        err_eoc = [None] + eoc(self.error)
        out = []
        for k, level in enumerate(self.levels):
            out.append([
                level,
                self.eps[k], eps_eoc[k],
                self.eps[k] ** (1.0 / 3.0) if self.eps[k] > 0 else 0.0,
                self.e_surge[k], es_eoc[k],
                self.e_smooth[k], eg_eoc[k],
                self.error[k], err_eoc[k],
            ])
        return out

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.COLUMNS) + "\r\n")
            for row in self.rows():
                cells = [_format_value(v) for v in row]
                fh.write(",".join(cells) + "\r\n")

    def format(self) -> str:
        lines = ["  ".join(f"{c:>9}" for c in self.COLUMNS)]
        for row in self.rows():
            lines.append("  ".join(f"{_format_value(v):>9}" for v in row))
        return "\n".join(lines)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return f"{v:.5g}"


def converge(config: CaseConfig, l_min: int, l_max: int) -> EoCTable:
    """Run the case at levels l_min..l_max and assemble the EoC table.

    Every level is marched and estimated first, keeping only its solution;
    then one pass of the reference gives every level's error.
    """
    if l_max < l_min + 1:
        raise ConfigError("need at least two levels for a convergence table")
    config = _resolve(config)
    fine_level = _fine_level(config, l_max)
    levels = list(range(l_min, l_max + 1))
    eps_vals, es_vals, eg_vals, runs, reports = [], [], [], [], []
    for level in levels:
        level_config = replace(config, level=level)
        sol, estimate, fan, _ = _march_and_estimate(level_config)
        runs.append(sol)
        eps_vals.append(estimate.epsilon_t)
        es_vals.append(estimate.e_surge)
        eg_vals.append(estimate.e_smooth)
        if config.out_dir:
            reports.append((level_config, _report_dict(level_config, estimate, None)))
    errs = _errors(config, fan, fine_level, runs)
    for (level_config, report), err in zip(reports, errs):
        report["linf_l1_error"] = err
        _write_report(level_config, report)
    table = EoCTable(levels, eps_vals, es_vals, eg_vals, errs)
    if config.out_dir:
        path = os.path.join(config.out_dir, f"{config.case}_eoc.csv")
        table.to_csv(path)
    return table


# ---------------------------------------------------------------------------
# SVG rendering of the space-time raster and the trapezoid decomposition


def _downsample(states: np.ndarray, max_rows: int, max_cols: int) -> np.ndarray:
    n, j = states.shape
    row_stride = max(1, n // max_rows)
    col_stride = max(1, j // max_cols)
    trim = states[: (n // row_stride) * row_stride, : (j // col_stride) * col_stride]
    blocks = trim.reshape(trim.shape[0] // row_stride, row_stride,
                          trim.shape[1] // col_stride, col_stride)
    return blocks.mean(axis=(1, 3))


def render_decomposition_svg(sol: SpaceTimeSolution, estimate: EstimateReport) -> str:
    """Cell raster of the first component with the trapezoid overlay."""
    width, height, pad = 900, 620, 40.0
    grid = sol.grid
    t0, t1 = sol.t0, sol.t_final
    span_t = max(t1 - t0, 1e-300)

    def sx(x: float) -> float:
        return pad + (x - grid.x_min) / (grid.x_max - grid.x_min) * (width - 2 * pad)

    def sy(t: float) -> float:
        return height - pad - (t - t0) / span_t * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    raster = _downsample(sol.states[:, :, 0], 160, 240)
    vmin, vmax = float(raster.min()), float(raster.max())
    vspan = vmax - vmin if vmax > vmin else 1.0
    n_rows, n_cols = raster.shape
    cell_w = (width - 2 * pad) / n_cols
    cell_h = (height - 2 * pad) / n_rows
    # np.rint rounds half to even, like round(); shades lie in [40, 235]
    shades = np.rint(235 - 195 * (raster - vmin) / vspan).astype(np.uint8)
    x_attrs = [f'<rect x="{pad + c * cell_w:.2f}" y="' for c in range(n_cols)]
    size_attrs = f'" width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" fill="rgb('
    for r in range(n_rows):
        y = f"{height - pad - (r + 1) * cell_h:.2f}{size_attrs}"
        row = zip(x_attrs, shades[r].tolist())
        parts.append("".join(f'{x}{y}{s},{s},{s})"/>' for x, s in row))

    def polygon(trap, color: str, fill: str = "none", opacity: str = "1.0", dash: str = ""):
        pts = (
            f"{sx(trap.a_bot):.2f},{sy(trap.t_bot):.2f} "
            f"{sx(trap.b_bot):.2f},{sy(trap.t_bot):.2f} "
            f"{sx(trap.b_top):.2f},{sy(trap.t_top):.2f} "
            f"{sx(trap.a_top):.2f},{sy(trap.t_top):.2f}"
        )
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{color}" stroke-width="1.2"{extra}/>'
        )

    for t in estimate.slab_times:
        y = sy(float(t))
        parts.append(
            f'<line x1="{pad:.2f}" y1="{y:.2f}" x2="{width - pad:.2f}" y2="{y:.2f}" '
            f'stroke="#555555" stroke-width="0.8" stroke-dasharray="6,4"/>'
        )

    for part in estimate.partitions:
        for trap in part.smooth:
            polygon(trap, "#1f77b4", dash="3,3")
        for surge in part.surges:
            polygon(surge.outer, "#ff7f0e")
            strip = type(surge.outer)(
                surge.outer.t_bot, surge.outer.t_top,
                surge.left.b_bot, surge.right.a_bot,
                surge.left.b_top, surge.right.a_top,
            )
            polygon(strip, "#d62728", fill="#d62728", opacity="0.25")

    parts.append(
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="12" font-family="sans-serif">'
        f"x in [{grid.x_min:g}, {grid.x_max:g}], t in [{t0:g}, {t1:g}]; "
        f"surges outlined orange, strips red, smooth trapezoids blue</text>"
    )
    parts.append("</svg>\n")  # one join, no second copy for the final newline
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Command line


def _parse_state(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _parse_levels(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not (lo.isdigit() and hi.isdigit() and int(lo) < int(hi)):
        raise ConfigError(f"--levels takes the form A..B with integers A < B, e.g. 7..10; got '{text}'")
    return int(lo), int(hi)


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text

    return parse


# Config-file keys: the CaseConfig field each sets and how its value is read;
# a flag given on the command line overrides its key.
_CONFIG_KEYS = {
    "case": ("case", str),
    "cfl": ("cfl", float),
    "sigma": ("sigma0", float),
    "slab-size": ("slab_mode", _one_of(*_SLAB_MODES)),
    "flux": ("flux", normalize_flux_kind),
    "ref": ("ref", str),
    "t0": ("t0", float),
    "T": ("t_final", float),
    "model": ("model", normalize_model_name),
    "left": ("left", _parse_state),
    "right": ("right", _parse_state),
    "out": ("out_dir", str),
    "dump-solution": ("dump_solution", lambda text: _one_of("true", "false")(text) == "true"),
}


def _load_config_file(path: str) -> dict:
    """CaseConfig fields from key=value lines (# starts a comment); an
    unknown key or a value that does not parse is refused with its line."""
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}, line {lineno}"
            if "=" not in line:
                raise ConfigError(f"{where}: bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{where}: unknown key '{key}' "
                                  f"(known: {', '.join(_CONFIG_KEYS)})")
            field, parse = _CONFIG_KEYS[key]
            try:
                fields[field] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{where}: {key}={value!r}: {exc}") from None
    return fields


def _add_common(parser: argparse.ArgumentParser) -> None:
    # each dest is the CaseConfig field that _config_from_args gives the flag to
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--case", default=None, choices=list(_CASES))
    parser.add_argument("--cfl", type=float, default=None)
    parser.add_argument("--sigma", dest="sigma0", metavar="SIGMA", type=float, default=None)
    parser.add_argument("--slab-size", dest="slab_mode", choices=_SLAB_MODES, default=None)
    parser.add_argument("--flux", choices=["llf", "godunov", "eo"], default=None)
    parser.add_argument("--ref", default=None, help="exact | fine:<level> | none")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--T", dest="t_final", type=float, default=None)
    parser.add_argument("--model", default=None, choices=["burgers", "psystem"])
    parser.add_argument("--left", default=None, help="comma-separated left state (custom case)")
    parser.add_argument("--right", default=None, help="comma-separated right state (custom case)")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", default=None,
                        help="output directory")


def _config_from_args(args, level: int) -> CaseConfig:
    """The config file's fields, each overridden by its flag when given; a
    flag argparse leaves as text is read as its config-file value is."""
    fields = _load_config_file(args.config) if args.config else {}
    for field, parse in _CONFIG_KEYS.values():
        flag = getattr(args, field, None)
        if flag is not None:
            fields[field] = parse(flag) if isinstance(flag, str) else flag
    if "case" not in fields:
        raise ConfigError("no case selected (use --case or a config file)")
    return CaseConfig(level=level, **fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fvbound",
        description="Finite-volume runs with a-posteriori L-inf/L1 error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one case at one refinement level")
    _add_common(p_run)
    p_run.add_argument("--level", type=int, required=True)
    p_run.add_argument("--dump-solution", action="store_true", default=None,
                       help="also write the space-time solution dump")

    p_conv = sub.add_parser("converge", help="refinement study over a level range")
    _add_common(p_conv)
    p_conv.add_argument("--levels", required=True, help="range A..B, e.g. 7..10")

    p_audit = sub.add_parser("audit", help="estimate a previously dumped solution")
    p_audit.add_argument("--solution", required=True, help="solution dump file")
    p_audit.add_argument("--sigma", type=float, default=0.1)
    p_audit.add_argument("--slab-size", dest="slab_size", choices=_SLAB_MODES,
                         default="eps13")
    p_audit.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            from .solver import load_solution

            _check_sigma(args.sigma)
            sol = load_solution(args.solution)
            estimate = error_estimator(sol, args.sigma, args.slab_size)
            print(f"audited {args.solution}: eps={estimate.epsilon_t:.5g} "
                  f"E_S={estimate.e_surge:.5g} E_G={estimate.e_smooth:.5g}")
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                base = os.path.splitext(os.path.basename(args.solution))[0]
                report_path = os.path.join(args.out, f"{base}_audit.json")
                with open(report_path, "w") as fh:
                    json.dump({"schema": SCHEMA_VERSION, "solution": args.solution,
                               "estimate": estimate.to_json_dict()}, fh, indent=2)
                    fh.write("\n")
                write_slab_csv(estimate, os.path.join(args.out, f"{base}_audit_slabs.csv"))
                with open(os.path.join(args.out, f"{base}_audit.svg"), "w") as fh:
                    fh.write(render_decomposition_svg(sol, estimate))
                print(f"  wrote report under {args.out}")
        elif args.command == "run":
            config = _config_from_args(args, args.level)
            _, estimate, err, paths = run_case(config)
            print(f"case={config.case} L={config.level} eps={estimate.epsilon_t:.5g} "
                  f"E_S={estimate.e_surge:.5g} E_G={estimate.e_smooth:.5g}"
                  + (f" err={err:.5g}" if err is not None else ""))
            for kind, path in paths.items():
                print(f"  wrote {kind}: {path}")
        else:
            lo, hi = _parse_levels(args.levels)
            config = _config_from_args(args, lo)
            table = converge(config, lo, hi)
            print(table.format())
    except Exception as exc:  # surfaced as exit status for scripting
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
