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


def column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of a (J, m) array, bit for bit, off numpy's slow strided path."""
    # einsum keeps sum(axis=0)'s sequential column order only for m >= 2; m == 1 sums pairwise.
    return np.einsum("jm->m", a) if a.shape[1] >= 2 else a.sum(axis=0)


# numpy sums a contiguous float64 run pairwise: a run of at most _LEAF values
# is one leaf, whose whole groups of 8 go into eight interleaved
# accumulators, added in a fixed tree, and whose last n % 8 values are then
# added in order; a longer run splits at half its length rounded down to a
# multiple of 8.
_LEAF = 128


def _pairwise_plan(start: int, n: int, lo: int, hi: int, program: list) -> None:
    """Append to program, in postfix order, numpy's pairwise tree over the
    values start..start+n-1 pruned to the nodes that meet lo..hi-1, which
    must meet it, with every other value +0.0: a (start, n) for each run
    that numpy's own sum of its values gives a node's sum from, and a None
    for each node both of whose halves meet lo..hi-1, to add their sums.

    A node inside lo..hi-1 is its own run.  A leaf that is not is cut to
    its groups of 8 that meet lo..hi-1, and to its last n % 8 values up to
    hi: the zero groups cut off add +0.0 to each accumulator, and the zeros
    after hi +0.0 to the sum.  If only the last n % 8 values meet it, the
    run is those values alone, which numpy adds in order from 0.0, as the
    leaf adds them to the sum of its zero groups."""
    if lo <= start and start + n <= hi:
        program.append((start, n))
        return
    if n <= _LEAF:
        body = start + n - n % 8  # past the leaf's groups of 8
        a = max(start + (lo - start) // 8 * 8, start) if lo < body else lo
        b = min(hi, start + n) if hi > body else start - (start - hi) // 8 * 8
        program.append((a, b - a))
        return
    half = n // 2 - n // 2 % 8
    left, right = start + half > lo, start + half < hi
    if left:
        _pairwise_plan(start, half, lo, hi, program)
    if right:
        _pairwise_plan(start + half, n - half, lo, hi, program)
    if left and right:
        program.append(None)


def window_sums(block: np.ndarray, first: int, length: int) -> np.ndarray:
    """Per level, column_sums of a zero (length, m) array whose rows
    first..first+W-1 hold the level's slice of a (W, B, m) block, bit for
    bit, as a (B, m) array, at the block's cost; the block holds no -0.0.

    At m >= 2 the einsum adds rows in order, so the zero rows add nothing
    and only the block is summed.  At m = 1 numpy sums the row pairwise, and
    every node of its tree outside the block sums to +0.0, which adds
    nothing: so the tree is evaluated only over the nodes that meet the
    block (_pairwise_plan), each run by numpy's own sum over all levels at
    once, and a run that reaches past the block on zeros padded to it."""
    width, levels, m = block.shape
    if m >= 2:
        return np.einsum("wbm->bm", block)
    if width == 0:
        return np.zeros((levels, 1))
    program = []
    _pairwise_plan(0, length, first, first + width, program)
    rows = np.ascontiguousarray(block[:, :, 0].T)  # each level's terms one contiguous row
    stack = []
    for node in program:
        if node is None:
            right = stack.pop()
            stack[-1] = stack[-1] + right
            continue
        start, n = node
        a, b = max(start, first), min(start + n, first + width)
        run = rows[:, a - first:b - first]
        if b - a < n:  # the run reaches past the block
            padded = np.zeros((levels, n))
            padded[:, a - start:b - start] = run
            run = padded
        stack.append(np.add.reduce(run, axis=1))
    return stack[0][:, None]


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
