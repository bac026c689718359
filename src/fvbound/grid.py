"""Uniform 1D spatial grid and space-time bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [x_min, x_max] with J cells.

    Cell j spans [x_min + j*dx, x_min + (j+1)*dx] for j = 0..J-1.
    """

    x_min: float
    x_max: float
    J: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if self.J < 1:
            raise ValueError(f"need at least one cell, got J={self.J}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.J

    def interfaces(self) -> np.ndarray:
        """Positions of the J+1 cell interfaces."""
        return np.linspace(self.x_min, self.x_max, self.J + 1)

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.J) + 0.5) * self.dx

    def cell_bounds(self, j: int) -> tuple[float, float]:
        return (self.x_min + j * self.dx, self.x_min + (j + 1) * self.dx)


@dataclass(frozen=True)
class TimeLevels:
    """Strictly increasing time instants t^0 < ... < t^N, held in a frozen
    copy of the given sequence."""

    t: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("need a 1D, non-empty sequence of times")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time levels must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.t.size - 1

    def dt(self, n: int) -> float:
        return float(self.t[n + 1] - self.t[n])


def window_sums(block: np.ndarray) -> np.ndarray:
    """Per level, the column sums of a (W, B, m) block, as a (B, m) array:
    the level's rows added in order, from the first.  A row-order sum has
    the same bits wherever the block's window sits on the grid, since the
    zero rows around it add exactly +0.0 (the block holds no -0.0).

    At m >= 2 the einsum adds the rows in order; at m = 1 it, like numpy's
    sum, would add them pairwise, so the rows are accumulated instead."""
    if block.shape[2] >= 2:
        return np.einsum("wbm->bm", block)
    if not len(block):
        return np.zeros(block.shape[1:])
    return np.cumsum(block, axis=0)[-1]


# Cells (cells x levels) per block of levels in each pass that reads the
# history a block at a time: the residual pass, the exact error and the fine
# reference (level_blocks).
BLOCK_CELLS = 1 << 13


def level_blocks(lo: np.ndarray, hi: np.ndarray):
    """Split the levels, whose cells are lo[n]..hi[n]-1, into runs of
    consecutive levels: yield (start, stop, a, b) per run, whose cells
    a..b-1 span its levels' (min lo to max hi) and hold at most BLOCK_CELLS
    cells (cells x levels) unless one level alone is wider.  A run ends
    only where its next level would take it past BLOCK_CELLS."""
    count = len(lo)
    if not count:
        return
    # 256 levels at a time as Python ints, so no list of all of them is held
    rows = (row for s in range(0, count, 256)
            for row in zip(lo[s:s + 256].tolist(), hi[s:s + 256].tolist()))
    start, (a, b) = 0, next(rows)
    for n, (lo_n, hi_n) in enumerate(rows, start=1):
        # min and max without a call: this runs once per level
        a_n = a if a < lo_n else lo_n
        b_n = b if b > hi_n else hi_n
        if (n + 1 - start) * (b_n - a_n) > BLOCK_CELLS:
            yield start, n, a, b
            start, a_n, b_n = n, lo_n, hi_n
        a, b = a_n, b_n
    yield start, count, a, b


def build_grid(x_min: float, x_max: float, level: int) -> Grid1D:
    """Grid with 2 * 2**level cells; level 0 gives the two-cell grid."""
    if level < 0:
        raise ValueError(f"refinement level must be >= 0, got {level}")
    return Grid1D(float(x_min), float(x_max), 2 * 2**level)


def cfl_timestep(
    states: np.ndarray,
    model,
    grid: Grid1D,
    cfl: float,
    ghost_left: np.ndarray | None = None,
    ghost_right: np.ndarray | None = None,
    max_dt: float = math.inf,
) -> float:
    """Largest stable explicit step: dt = cfl * dx / lambda_max.

    lambda_max is the max over all cells (ghost states included) of the
    sup-norm of the wave speeds.  A non-propagating solution (lambda_max = 0)
    gets the configured max_dt.
    """
    if cfl <= 0:
        raise ValueError(f"cfl must be positive, got {cfl}")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    scan = [states]
    if ghost_left is not None:
        scan.append(np.atleast_2d(np.asarray(ghost_left, dtype=float)))
    if ghost_right is not None:
        scan.append(np.atleast_2d(np.asarray(ghost_right, dtype=float)))
    lam = 0.0
    for block in scan:
        model.check_domain(block)
        speeds = np.abs(model.wave_speeds(block))
        if speeds.size:
            lam = max(lam, float(speeds.max()))
    if lam == 0.0:
        return max_dt
    return min(cfl * grid.dx / lam, max_dt)
