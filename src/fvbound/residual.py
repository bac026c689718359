"""Local weak residuals, entropy dissipation, and the consistency scalar.

The local weak residual of a piecewise-constant solution on cell (j, n) is a
linear functional of the test function's averages along the left, top and
right cell edges.  Its operator norm over affine test functions is bounded by

    1/2 dt^2 |F_l - F_r|  +  1/2 dx dt |F_l + F_r - 2 f(u_j^n)|

per component, where F_l/F_r are the interface fluxes.  Summing the bounds
per time slab, together with an analogous entropy-dissipation bound, yields
the scalar consistency parameter epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import window_sums
from .models import interface_fluxes, normalize_flux_kind, numerical_entropy_flux
from .solver import SpaceTimeSolution, _RowTexts


def _cell_bounds(dx, dt, fluxes, f_center):
    """Operator-norm bound per cell from the J+1 interface fluxes:
    1/2 dt^2 |F_l - F_r| + 1/2 dx dt |F_l + F_r - 2 f|, in place."""
    flux_l, flux_r = fluxes[:-1], fluxes[1:]
    bounds = flux_l - flux_r
    np.abs(bounds, out=bounds)
    bounds *= 0.5 * dt * dt
    center = flux_l + flux_r
    center -= 2.0 * f_center
    np.abs(center, out=center)
    center *= 0.5 * dx * dt
    bounds += center
    return bounds


def _padded(sol: SpaceTimeSolution, n: int) -> np.ndarray:
    """Level n with a ghost cell on each side, (J + 2, m)."""
    return sol.states.columns(n, n + 1, -1, sol.grid.J + 1)[:, 0]


def level_residual_bounds(sol: SpaceTimeSolution, kind: str, n: int) -> np.ndarray:
    """Componentwise operator-norm bounds for every cell of level n, (J, m)."""
    ext = _padded(sol, n)
    return _cell_bounds(sol.grid.dx, sol.times.dt(n), interface_fluxes(kind, sol.model, ext),
                        sol.model.flux(ext[1:-1]))


def _entropy_e1(dx, dt, q_hat, de):
    """E1 per cell, the only triplet entry epsilon needs, from the J+1
    numerical entropy fluxes and the entropy decrease over the step."""
    return dx * de + dt * (q_hat[:-1] - q_hat[1:])


def _entropy_triplets(dx, dt, q_hat, de, q_center):
    """(E1, E2, E3) per cell from the J+1 numerical entropy fluxes, the
    entropy decrease over the step and the cell entropy flux."""
    e3 = 0.5 * dx * dx * de + dt * dx * (q_hat[:-1] - q_center)
    return _entropy_e1(dx, dt, q_hat, de), 0.5 * dt * dt * (q_hat[:-1] - q_hat[1:]), e3


def level_entropy_triplets(sol: SpaceTimeSolution, n: int):
    """(E1, E2, E3) per cell of level n plus the lower bound
    min{0,E1} + min{0,E2} + min{0,E3}."""
    model = sol.model
    ext = _padded(sol, n)
    e1, e2, e3 = _entropy_triplets(
        sol.grid.dx, sol.times.dt(n), numerical_entropy_flux(model, ext[:-1], ext[1:]),
        model.entropy(ext[1:-1]) - model.entropy(_padded(sol, n + 1)[1:-1]),
        model.entropy_flux(ext[1:-1]),
    )
    return e1, e2, e3, _entropy_lower(e1, e2, e3)


def _entropy_lower(e1, e2, e3):
    """min{0,E1} + min{0,E2} + min{0,E3}."""
    return np.minimum(e1, 0.0) + np.minimum(e2, 0.0) + np.minimum(e3, 0.0)


def total_variation(sol: SpaceTimeSolution, n: int) -> tuple[np.ndarray, float]:
    """Per-component TV of level n (ghost interfaces included) and its
    sup-norm reduction."""
    tv = np.abs(np.diff(_padded(sol, n), axis=0)).sum(axis=0)
    return tv, float(tv.max())


# The residual pass works a block of consecutive levels at a time: a
# block's dense (cells, levels, m) array of states holds at most
# BLOCK_CELLS cells (cells x levels).  A block holds at least one level.
BLOCK_CELLS = 1 << 13


@dataclass
class ResidualReport:
    """Weak-residual and entropy-dissipation bounds for a full solution."""

    flux_kind: str
    epsilon: float
    beta: float  # max layer rate of the summed weak-residual bounds
    eta: float  # max layer rate of cell entropy-inequality violation
    stability_constant: float  # max{3, sqrt(8 + 8 c^2)}
    c_max: float  # max dt/dx over all steps
    tv: np.ndarray  # (N+1, m) per-component total variation history
    tv_scalar: np.ndarray  # (N+1,)
    beta_levels: np.ndarray  # (N,)
    eta_levels: np.ndarray  # (N,)
    speed_range: np.ndarray  # (N+1, 2) min/max signed wave speed per level

    @property
    def tv_max(self) -> float:
        return float(self.tv_scalar.max()) if self.tv_scalar.size else 0.0

    def to_json_dict(self) -> dict:
        return {
            "flux_kind": self.flux_kind,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "eta": self.eta,
            "stability_constant": self.stability_constant,
            "c_max": self.c_max,
            "tv_max": self.tv_max,
            "levels": len(self.tv_scalar),
        }

    def write_cells_csv(self, sol: SpaceTimeSolution, path: str) -> None:
        """One row per layer and cell of sol: the bound per component, E1, E2,
        E3 and their lower bound, from the residual pass that gives epsilon.
        Every cell outside a block's cells is +0.0.  A row whose bits equal
        the same cell's row of the layer before is not formatted again."""
        dx, J, m = sol.grid.dx, sol.grid.J, sol.model.m
        rows = _RowTexts(J, m + 4, [str(j) for j in range(J)])
        layer = np.zeros((J, m + 4))
        with open(path, "w", newline="") as fh:
            cols = ["n", "j"] + [f"bound_{c}" for c in range(m)]
            fh.write(",".join(cols + ["E1", "E2", "E3", "ent_lower"]) + "\r\n")
            for block in _layer_blocks(sol):
                e1, e2, e3 = _entropy_triplets(dx, block.dt, *block.entropy)
                cells = np.concatenate(
                    [block.bounds, np.stack([e1, e2, e3, _entropy_lower(e1, e2, e3)], axis=-1)],
                    axis=-1)
                layer[:] = 0.0
                for k, n in enumerate(range(block.first, block.first + len(block.dt))):
                    layer[block.cells] = cells[:, k]
                    fh.write(f"{n}," + f"\r\n{n},".join(rows.update(layer)) + "\r\n")
                del block, cells, e1, e2, e3  # before the next block is built


class _Block(NamedTuple):
    """One block of the residual pass: its levels first..first+B-1 over the
    grid cells cells = [c0, c1), W = c1 - c0 + 2 cells with the cell on
    each side, and the L layers that start at its levels."""

    first: int
    cells: slice
    tv: np.ndarray  # (B, m) each level's total variation
    speed_range: np.ndarray  # (B, 2) each level's lowest and highest signed wave speed
    dt: np.ndarray  # (L,) each layer's time step
    bounds: np.ndarray  # (W - 2, L, m) each layer's cell bounds
    entropy: tuple  # q_hat (W - 1, L), entropy decrease and cell entropy flux (W - 2, L)


def _block_ranges(hulls: np.ndarray, J: int):
    """Split the levels into blocks: yield (first, stop, c0, c1) per block,
    whose levels first..stop-1 get their terms, while level stop, when there
    is one, gives only the entropy that closes the block's last layer.  The
    cells c0..c1-1 are the union of the hulls of levels first..stop grown by
    two cells and clipped to the grid, so they hold every cell whose stencil
    is not constant in any of the block's layers, and a ghost cell on each
    side of each hull where the grid has one."""
    count = len(hulls)

    def too_big(levels: int, slots: int, lo: int, hi: int) -> bool:
        width = min(hi + 2, J) - max(lo - 2, 0) + 2
        return levels > 1 and slots * width > BLOCK_CELLS

    # 256 hulls at a time as Python ints, so no list of all N + 1 is held
    rows = (row for start in range(0, count, 256) for row in hulls[start:start + 256].tolist())
    first, (lo, hi) = 0, next(rows)  # the union of the hulls of levels first..k-1
    before = lo, hi  # the hull of level k - 1
    for k, (row_lo, row_hi) in enumerate(rows, start=1):
        next_lo, next_hi = min(lo, row_lo), max(hi, row_hi)
        if too_big(k - first, k - first + 1, next_lo, next_hi):
            # levels first..k-2 close with level k - 1, which starts the next block
            yield first, k - 1, max(lo - 2, 0), min(hi + 2, J)
            first, next_lo, next_hi = k - 1, min(before[0], row_lo), max(before[1], row_hi)
        lo, hi, before = next_lo, next_hi, (row_lo, row_hi)
    if too_big(count - first, count - first, lo, hi):  # the last level on its own
        yield first, count - 1, max(lo - 2, 0), min(hi + 2, J)
        first, (lo, hi) = count - 1, before
    yield first, count, max(lo - 2, 0), min(hi + 2, J)


def _layer_blocks(sol: SpaceTimeSolution):
    """The residual pass: yield the _Block of each block of consecutive
    levels of sol (_block_ranges), one at a time."""
    for first, stop, c0, c1 in _block_ranges(sol.ghost_hulls, sol.grid.J):
        yield _layer_block(sol, first, stop, c0, c1)


def _layer_block(sol: SpaceTimeSolution, first: int, stop: int, c0: int, c1: int) -> _Block:
    """The _Block of levels first..stop-1 over the cells c0..c1-1, from one
    dense array of their cells indexed (cell, level, component), each level
    contiguous in memory (LevelHistory.columns), so that pair and layer
    operations are slices along the cells and numpy's loops run along each
    level.  Every term is the same expression, in the same order, as on one
    level's whole grid: model.level_terms, the interface fluxes of the marching flux
    (models.interface_fluxes, as the stepping core's), the cell bounds, the
    LLF entropy flux q_hat and the entropy decrease.  Outside a level's
    non-constant stencils every layer term is exactly +0.0 (F(u, u) = f(u)
    and x - x = +0), so the block's cells hold all that is not.  Each
    array is dropped once used, to keep the block's peak low."""
    model, J, t, last = sol.model, sol.grid.J, sol.times.t, sol.n_steps
    n_levels, n_layers = stop - first, min(stop, last) - first
    u = sol.states.columns(first, min(stop + 1, last + 1), c0 - 1, c1 + 1)
    f, ent, ent_flux, speeds, low, high = model.level_terms(u[:, :n_levels])
    jumps = u[1:, :n_levels] - u[:-1, :n_levels]
    tv = window_sums(np.abs(jumps, out=jumps), c0, J + 1)
    del jumps
    # each level's speeds over the grid cells; min and max may take either
    # signed zero of tied cells, by layout: + 0.0 makes it +0.0
    speed_range = np.empty((n_levels, 2))
    speed_range[:, 0] = low[1:-1].T.min(axis=1) + 0.0
    speed_range[:, 1] = high[1:-1].T.max(axis=1) + 0.0
    del low, high
    layers = slice(0, n_layers)
    dt = t[first + 1:first + n_layers + 1] - t[first:first + n_layers]
    f, ent_flux, speeds = f[:, layers], ent_flux[:, layers], speeds[:, layers]
    fluxes = interface_fluxes(sol.flux_kind, model, u[:, layers], f, speeds)
    de = np.empty((len(u) - 2, n_layers))
    np.subtract(ent[1:-1, :n_levels - 1], ent[1:-1, 1:], out=de[:, :n_levels - 1])
    if n_layers == n_levels:  # level stop closes the last layer
        np.subtract(ent[1:-1, -1], model.entropy(u[1:-1, -1]), out=de[:, -1])
    del u
    bounds = _cell_bounds(sol.grid.dx, dt[:, None], fluxes, f[1:-1])
    del fluxes, f
    # the LLF entropy-flux companion, as numerical_entropy_flux computes it
    lam = np.maximum(speeds[:-1], speeds[1:])
    q_hat = (0.5 * (ent_flux[:-1] + ent_flux[1:])
             - 0.5 * lam * (ent[1:, layers] - ent[:-1, layers]))
    return _Block(first, slice(c0, c1), tv, speed_range, dt, bounds, (q_hat, de, ent_flux[1:-1]))


def epsilon(sol: SpaceTimeSolution) -> ResidualReport:
    """The ResidualReport of sol: the smallest computed constant bounding
    the weak and entropy residuals of the recorded marching flux, with the
    per-level figures it comes from; speed_range keeps each level's extreme
    signed wave speeds for the slab cover.

    epsilon = C * max{beta, eta} / sup_n TV[u(t^n)], and 0 for constant
    solutions (also when both residual rates vanish).  beta is the maximal
    summed-bound rate over the time layers, eta the maximal rate of cell
    entropy-inequality violation (the negative part of the constant-test
    functional); both maxima exclude the very first layer, where the freshly
    projected initial data still carries unresolved jumps, whenever the run
    has more than one step.
    """
    n_steps, J, m = sol.n_steps, sol.grid.J, sol.model.m
    tv = np.empty((n_steps + 1, m))
    speed_range = np.empty((n_steps + 1, 2))
    beta_levels = np.empty(n_steps)
    eta_levels = np.empty(n_steps)
    for block in _layer_blocks(sol):
        c0, levels = block.cells.start, slice(block.first, block.first + len(block.tv))
        tv[levels], speed_range[levels] = block.tv, block.speed_range
        layers = slice(block.first, block.first + len(block.dt))
        beta_levels[layers] = window_sums(block.bounds, c0, J).max(axis=1) / block.dt
        deficit = np.abs(np.minimum(_entropy_e1(sol.grid.dx, block.dt, *block.entropy[:2]), 0.0))
        eta_levels[layers] = window_sums(deficit[..., None], c0, J)[:, 0] / block.dt
        del block, deficit  # before the next block is built
    c_max = float(np.diff(sol.times.t).max(initial=0.0)) / sol.grid.dx
    tv_scalar = tv.max(axis=1)
    start = 1 if n_steps >= 2 else 0
    beta = float(beta_levels[start:].max()) if n_steps else 0.0
    eta = float(eta_levels[start:].max()) if n_steps else 0.0
    big_c = max(3.0, float(np.sqrt(8.0 + 8.0 * c_max * c_max)))
    tv_max = float(tv_scalar.max())
    if tv_max == 0.0 or max(beta, eta) == 0.0:
        eps = 0.0
    else:
        eps = big_c * max(beta, eta) / tv_max
    return ResidualReport(
        flux_kind=normalize_flux_kind(sol.flux_kind),
        epsilon=eps,
        beta=beta,
        eta=eta,
        stability_constant=big_c,
        c_max=c_max,
        tv=tv,
        tv_scalar=tv_scalar,
        beta_levels=beta_levels,
        eta_levels=eta_levels,
        speed_range=speed_range,
    )
