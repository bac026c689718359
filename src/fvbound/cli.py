"""Experiment harness: run the benchmark cases, measure L-inf/L1 errors, and
emit EoC tables (CSV), reports (JSON) and decomposition overlays (SVG)."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from .estimator import SLAB_MODES, EstimateReport, error_estimator
from .grid import Grid1D, build_grid, column_sums
from .models import make_model, normalize_flux_kind, normalize_model_name
from .partition import SLAB_FIGURES
from .riemann import WaveFan, cell_average_exact, exact_l1_distances, solve_riemann
from .solver import SpaceTimeSolution, march, run, save_solution

SCHEMA_VERSION = 1

# Per-cell residual CSV cap: beyond this many cells the file is skipped.
MAX_RESIDUAL_CSV_CELLS = 500_000

DOMAIN = (-5.0, 5.0)  # (x_min, x_max) of every case


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


def _check_sigma(sigma0: float) -> None:
    if not (math.isfinite(sigma0) and sigma0 > 0):
        raise ConfigError(f"sigma must be a finite positive number, got {sigma0!r}")


def _parse_ref(text: str) -> str:
    """A reference mode: exact, none, default or fine:<level>."""
    level = text.removeprefix("fine:")
    if text not in ("exact", "none", "default") and (level == text or not level.isdecimal()):
        raise ConfigError(f"unknown reference mode '{text}'")
    return text


def _resolve(config: CaseConfig) -> CaseConfig:
    """Fill the case's window, reference and data in; refuse an unknown case,
    slab mode or reference mode, an exact reference for a case without one, a
    named case given a model or states, a custom case without states or with
    a state that does not hold the model's m values, non-finite cfl, sigma0,
    t0 or t_final, sigma0 <= 0 and t_final <= t0 before anything is marched."""
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
    else:
        m = make_model(config.model).m
        for name in ("left", "right"):
            state = getattr(config, name)
            if len(state) != m:
                raise ConfigError(f"{name}={','.join(map(repr, state))}: model {config.model} "
                                  f"takes states of m = {m} values, got {len(state)}")
    config = replace(config, **updates)
    for name, value in (("cfl", config.cfl), ("t0", config.t0), ("t_final", config.t_final)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    _check_sigma(config.sigma0)
    if not config.t_final > config.t0:
        raise ConfigError(f"t_final must exceed t0, got t0={config.t0!r}, t_final={config.t_final!r}")
    if config.slab_mode not in SLAB_MODES:
        raise ConfigError(f"unknown slab mode '{config.slab_mode}'")
    if _parse_ref(config.ref) == "exact" and config.left is None:
        raise ConfigError("no exact solution available for this case")
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


def _nesting_ratio(fine_grid: Grid1D, coarse_grid: Grid1D) -> int:
    """The number of fine cells in each coarse cell; refuses grids that do
    not nest."""
    if (
        fine_grid.x_min != coarse_grid.x_min
        or fine_grid.x_max != coarse_grid.x_max
        or fine_grid.J % coarse_grid.J != 0
    ):
        raise ConfigError("fine reference grid does not nest the coarse grid")
    return fine_grid.J // coarse_grid.J


def _restrict(states: np.ndarray, ratio: int) -> np.ndarray:
    """The mean of each run of ratio consecutive cells of states."""
    return np.add.reduce(states.reshape(len(states) // ratio, ratio, -1), axis=1) / ratio


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
    interpolation between fine levels) restricted to the run's grid.

    Only the coarse cells whose fine cells meet the window of the step into
    the fine level (the whole grid at t0) are interpolated and restricted,
    with one more coarse cell on each side where one exists.  Outside the
    window the fine level and the one before both equal the ghost state on
    their side, so that outer cell's mean, the same reduce over the same
    values, is the mean of every coarse cell beyond it.  The differences,
    their sums and the running max stay over the whole coarse grid, and each
    run's levels come from one forward walk of its history.  A fine level
    before the earliest eval time still pending visits no run.
    """
    ratios = [_nesting_ratio(fine_grid, sol.grid) for sol in runs]
    averages = [np.empty(sol.states.shape[1:]) for sol in runs]
    walks = [sol.states.walk() for sol in runs]
    eval_times = [sol.times.t.tolist() for sol in runs]
    errors = [0.0] * len(runs)
    pending = [0] * len(runs)
    # the earliest eval time still pending
    upcoming = min((times[0] for times in eval_times), default=math.inf)
    prev_t = None
    prev_states = np.empty((fine_grid.J, model.m))
    slop = 1e-12 * max(1.0, abs(t_final))
    for t, states, window in march(initial_fine, model, flux_kind, fine_grid, cfl, t0, t_final):
        # the whole grid at t0, so that prev_states is filled whole once
        lo, hi = (0, fine_grid.J) if prev_t is None else window
        if upcoming <= t + slop:
            for k, (sol, ratio, ubar, times) in enumerate(zip(runs, ratios, averages,
                                                               eval_times)):
                while pending[k] < len(times) and times[pending[k]] <= t + slop:
                    wanted = times[pending[k]]
                    a, b = max(lo // ratio - 1, 0), min(-(-hi // ratio) + 1, sol.grid.J)
                    cells = slice(a * ratio, b * ratio)
                    if prev_t is None or abs(t - wanted) <= slop:
                        snap = states[cells]
                    else:
                        w = (wanted - prev_t) / (t - prev_t)
                        snap = (1.0 - w) * prev_states[cells] + w * states[cells]
                    ubar[a:b] = _restrict(snap, ratio)
                    ubar[:a], ubar[b:] = ubar[a], ubar[b - 1]
                    diff = np.abs(next(walks[k]) - ubar)
                    errors[k] = max(errors[k], float((column_sums(diff) * sol.grid.dx).max()))
                    pending[k] += 1
            upcoming = min((times[done] for times, done in zip(eval_times, pending)
                            if done < len(times)), default=math.inf)
        prev_t = t
        prev_states[lo:hi] = states[lo:hi]
    if any(done < len(times) for done, times in zip(pending, eval_times)):
        raise ConfigError("fine reference run ended before the last eval time")
    return errors


def linf_l1_error(sol: SpaceTimeSolution, fan: WaveFan, origin: float = 0.0) -> float:
    """L-inf/L1 error against the exact fan centred at origin: max over time
    levels of the componentwise L1 distance to its cell averages, reduced by
    the sup norm over components; the averages come a block of levels at a
    time, over the cells where the run or the fan is not constant."""
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


def _study(config: CaseConfig, levels: list[int]) -> list[tuple]:
    """March and estimate the case at each of the ascending levels, give
    every run its error from one pass of the reference (a fine-grid reference
    is marched once for all runs), then write each level's files.

    Returns (solution, estimate, error or None, written paths) per level.
    """
    config = _resolve(config)
    fine_level = int(config.ref.removeprefix("fine:")) if config.ref.startswith("fine:") else None
    if fine_level is not None and fine_level <= levels[-1]:
        raise ConfigError(f"fine reference level {fine_level} must exceed every run level "
                          f"(up to {levels[-1]})")
    flux_kind = normalize_flux_kind(config.flux)
    runs, estimates = [], []
    for level in levels:
        grid = build_grid(*DOMAIN, level)
        model, initial, fan = _case_setup(config, grid)
        runs.append(run(initial, model, flux_kind, grid, config.cfl, config.t0, config.t_final))
        estimates.append(error_estimator(runs[-1], config.sigma0, config.slab_mode))
    if fine_level is not None:
        fine_grid = build_grid(*DOMAIN, fine_level)
        model, initial, _ = _case_setup(config, fine_grid)
        errors = streamed_fine_reference(initial, model, flux_kind, fine_grid, config.cfl,
                                         config.t0, config.t_final, runs)
    elif config.ref == "exact":
        errors = [linf_l1_error(sol, fan, config.origin) for sol in runs]
    else:
        errors = [None] * len(runs)
    return [(sol, estimate, err, _write_level(replace(config, level=level), sol, estimate, err))
            for level, sol, estimate, err in zip(levels, runs, estimates, errors)]


def _write_level(config: CaseConfig, sol: SpaceTimeSolution, estimate: EstimateReport,
                 err: float | None) -> dict[str, str]:
    """Write one level's report first, then its residuals (up to
    MAX_RESIDUAL_CSV_CELLS cells), slab and SVG files and, if asked, the
    solution dump; returns their paths by kind, none without out_dir."""
    if not config.out_dir:
        return {}
    os.makedirs(config.out_dir, exist_ok=True)
    tag = os.path.join(config.out_dir, f"{config.case}_L{config.level}")
    paths = {"report": _write_json(f"{tag}_report.json", {
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
    })}
    if sol.n_steps * sol.grid.J <= MAX_RESIDUAL_CSV_CELLS:
        paths["residuals"] = f"{tag}_residuals.csv"
        estimate.residual.write_cells_csv(sol, paths["residuals"])
    paths["slabs"] = f"{tag}_slabs.csv"
    write_slab_csv(estimate, paths["slabs"])
    paths["svg"] = f"{tag}_decomposition.svg"
    with open(paths["svg"], "w") as fh:
        render_decomposition_svg(sol, estimate, fh)
    if config.dump_solution:
        paths["solution"] = f"{tag}_solution.csv"
        save_solution(sol, paths["solution"])
    return paths


def _write_json(path: str, blob: dict) -> str:
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2)
        fh.write("\n")
    return path


def run_case(config: CaseConfig):
    """Build, march, estimate and (optionally) write the report files of
    config.level.

    Returns (solution, estimate report, error or None, written paths).
    """
    (result,) = _study(config, [config.level])
    return result


def write_slab_csv(estimate: EstimateReport, path: str) -> None:
    """One row per meso-timeslab: its index and its SLAB_FIGURES."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("slab",) + SLAB_FIGURES) + "\r\n")
        for index, slab in enumerate(estimate.slabs):
            row = [str(index)] + [_format_value(getattr(slab, name)) for name in SLAB_FIGURES]
            fh.write(",".join(row) + "\r\n")


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
    """Run the case at levels l_min..l_max and assemble the EoC table; one
    pass of the reference gives every level's error."""
    if l_max < l_min + 1:
        raise ConfigError("need at least two levels for a convergence table")
    levels = list(range(l_min, l_max + 1))
    _, estimates, errors, _ = zip(*_study(config, levels))
    table = EoCTable(levels, [e.epsilon_t for e in estimates], [e.e_surge for e in estimates],
                     [e.e_smooth for e in estimates], list(errors))
    if config.out_dir:
        table.to_csv(os.path.join(config.out_dir, f"{config.case}_eoc.csv"))
    return table


# ---------------------------------------------------------------------------
# SVG rendering of the space-time raster and the trapezoid decomposition


def _downsample(states: np.ndarray, max_rows: int, max_cols: int) -> np.ndarray:
    """Means of row_stride x col_stride blocks of a (levels, cells) array, at
    most max_rows x max_cols of them; the rows and columns past the last
    whole block are dropped."""
    n, j = states.shape
    row_stride = max(1, n // max_rows)
    col_stride = max(1, j // max_cols)
    trim = states[: (n // row_stride) * row_stride, : (j // col_stride) * col_stride]
    blocks = trim.reshape(trim.shape[0] // row_stride, row_stride,
                          trim.shape[1] // col_stride, col_stride)
    return blocks.mean(axis=(1, 3))


def _raster(sol: SpaceTimeSolution, max_rows: int, max_cols: int) -> np.ndarray:
    """_downsample of the first component of sol's levels, taken one band of
    row_stride levels at a time from a forward walk of the history into a
    preallocated raster; each band's means are the same reduce over the
    same values."""
    n, J = len(sol.states), sol.grid.J
    row_stride = max(1, n // max_rows)
    band = np.empty((row_stride, J))
    raster = np.empty((n // row_stride, J // max(1, J // max_cols)))
    for k, level in enumerate(sol.states.walk(0, len(raster) * row_stride)):
        band[k % row_stride] = level[:, 0]
        if k % row_stride == row_stride - 1:
            raster[k // row_stride] = _downsample(band, 1, max_cols)[0]
    return raster


def render_decomposition_svg(sol: SpaceTimeSolution, estimate: EstimateReport,
                             fh: TextIO) -> None:
    """Write the cell raster of the first component with the trapezoid
    overlay into the open text file fh, one line at a time."""
    width, height, pad = 900, 620, 40.0
    grid = sol.grid
    t0, t1 = sol.t0, sol.t_final
    span_t = max(t1 - t0, 1e-300)

    def sx(x: float) -> float:
        return pad + (x - grid.x_min) / (grid.x_max - grid.x_min) * (width - 2 * pad)

    def sy(t: float) -> float:
        return height - pad - (t - t0) / span_t * (height - 2 * pad)

    def line(text: str) -> None:
        fh.write(text + "\n")

    line(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
    line(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')

    raster = _raster(sol, 160, 240)
    vmin, vmax = float(raster.min()), float(raster.max())
    vspan = vmax - vmin if vmax > vmin else 1.0
    n_rows, n_cols = raster.shape
    cell_w = (width - 2 * pad) / n_cols
    cell_h = (height - 2 * pad) / n_rows
    # rint(235 - 195 * (raster - vmin) / vspan) in place, the same ufuncs in
    # the same order; np.rint rounds half to even, like round(); shades lie
    # in [40, 235]
    np.subtract(raster, vmin, out=raster)
    np.multiply(195, raster, out=raster)
    np.divide(raster, vspan, out=raster)
    np.subtract(235, raster, out=raster)
    shades = np.rint(raster, out=raster).astype(np.uint8)
    x_attrs = [f'<rect x="{pad + c * cell_w:.2f}" y="' for c in range(n_cols)]
    size_attrs = f'" width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" fill="rgb('
    fills = [f'{s},{s},{s})"/>' for s in range(256)]
    for r in range(n_rows):
        y = f"{height - pad - (r + 1) * cell_h:.2f}{size_attrs}"
        row = zip(x_attrs, shades[r].tolist())
        line("".join(x + y + fills[s] for x, s in row))

    def polygon(trap, color: str, fill: str = "none", opacity: str = "1.0", dash: str = ""):
        pts = (
            f"{sx(trap.a_bot):.2f},{sy(trap.t_bot):.2f} "
            f"{sx(trap.b_bot):.2f},{sy(trap.t_bot):.2f} "
            f"{sx(trap.b_top):.2f},{sy(trap.t_top):.2f} "
            f"{sx(trap.a_top):.2f},{sy(trap.t_top):.2f}"
        )
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        line(f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
             f'stroke="{color}" stroke-width="1.2"{extra}/>')

    for t in estimate.slab_times:
        y = sy(float(t))
        line(f'<line x1="{pad:.2f}" y1="{y:.2f}" x2="{width - pad:.2f}" y2="{y:.2f}" '
             f'stroke="#555555" stroke-width="0.8" stroke-dasharray="6,4"/>')

    for part in estimate.slabs:
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

    line(f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
         f'fill="none" stroke="black" stroke-width="1"/>')
    line(f'<text x="{pad}" y="{height - 8}" font-size="12" font-family="sans-serif">'
         f"x in [{grid.x_min:g}, {grid.x_max:g}], t in [{t0:g}, {t1:g}]; "
         f"surges outlined orange, strips red, smooth trapezoids blue</text>")
    line("</svg>")


# ---------------------------------------------------------------------------
# Command line


def _parse_state(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _parse_level(text: str) -> int:
    if not text.isdecimal():
        raise ConfigError(f"--level takes an integer >= 0, e.g. 9; got '{text}'")
    return int(text)


def _parse_levels(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not (lo.isdecimal() and hi.isdecimal() and int(lo) < int(hi)):
        raise ConfigError(f"--levels takes the form A..B with integers A < B, e.g. 7..10; got '{text}'")
    return int(lo), int(hi)


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text

    return parse


# Config-file keys: the CaseConfig field each sets and how its value is read.
# Each key is also a --KEY flag, read by the same parser, that overrides it.
_CONFIG_KEYS = {
    "case": ("case", _one_of(*_CASES)),
    "cfl": ("cfl", float),
    "sigma": ("sigma0", float),
    "slab-size": ("slab_mode", _one_of(*SLAB_MODES)),
    "flux": ("flux", normalize_flux_kind),
    "ref": ("ref", _parse_ref),
    "t0": ("t0", float),
    "T": ("t_final", float),
    "model": ("model", normalize_model_name),
    "left": ("left", _parse_state),
    "right": ("right", _parse_state),
    "out": ("out_dir", str),
    "dump-solution": ("dump_solution", lambda text: _one_of("true", "false")(text) == "true"),
}


def _read_key(name: str, key: str, text: str) -> tuple[str, object]:
    """(CaseConfig field, value) of a config key's text; a value that does not
    parse is refused with name (the key's place or its flag) and the text."""
    field, parse = _CONFIG_KEYS[key]
    try:
        return field, parse(text)
    except ValueError as exc:
        raise ConfigError(f"{name}={text!r}: {exc}") from None


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
            field, parsed = _read_key(f"{where}: {key}", key, value)
            fields[field] = parsed
    return fields


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    """A --KEY flag for each config key, kept as text for _flag_fields."""
    for key in keys:
        parser.add_argument(f"--{key}", dest=key)


def _flag_fields(args) -> dict:
    """CaseConfig fields of the flags given, each read as its config key is."""
    return dict(_read_key(f"--{key}", key, text) for key, text in vars(args).items()
                if key in _CONFIG_KEYS and text is not None)


def _config_from_args(args, level: int) -> CaseConfig:
    """The config file's fields, each overridden by its flag when given."""
    fields = _load_config_file(args.config) if args.config else {}
    fields.update(_flag_fields(args))
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
    p_conv = sub.add_parser("converge", help="refinement study over a level range")
    for p in (p_run, p_conv):
        p.add_argument("--config", help="key=value config file; each --KEY flag overrides KEY")
        _add_flags(p, [key for key in _CONFIG_KEYS if key != "dump-solution"])
    p_run.add_argument("--level", required=True)
    # the switch gives its config key the text true
    p_run.add_argument("--dump-solution", dest="dump-solution", action="store_const",
                       const="true", help="also write the space-time solution dump")
    p_conv.add_argument("--levels", required=True, help="range A..B, e.g. 7..10")
    p_audit = sub.add_parser("audit", help="estimate a previously dumped solution")
    p_audit.add_argument("--solution", required=True, help="solution dump file")
    _add_flags(p_audit, ("sigma", "slab-size", "out"))

    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            from .solver import load_solution

            fields = _flag_fields(args)
            sigma0 = fields.get("sigma0", CaseConfig.sigma0)
            _check_sigma(sigma0)
            sol = load_solution(args.solution)
            estimate = error_estimator(sol, sigma0, fields.get("slab_mode", CaseConfig.slab_mode))
            print(f"audited {args.solution}: eps={estimate.epsilon_t:.5g} "
                  f"E_S={estimate.e_surge:.5g} E_G={estimate.e_smooth:.5g}")
            out = fields.get("out_dir")
            if out:
                os.makedirs(out, exist_ok=True)
                stem = os.path.splitext(os.path.basename(args.solution))[0]
                base = os.path.join(out, f"{stem}_audit")
                _write_json(f"{base}.json", {"schema": SCHEMA_VERSION, "solution": args.solution,
                                             "estimate": estimate.to_json_dict()})
                write_slab_csv(estimate, f"{base}_slabs.csv")
                with open(f"{base}.svg", "w") as fh:
                    render_decomposition_svg(sol, estimate, fh)
                print(f"  wrote report under {out}")
        elif args.command == "run":
            config = _config_from_args(args, _parse_level(args.level))
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
