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

from .grid import level_blocks, window_sums
from .models import interface_fluxes, normalize_flux_kind, numerical_entropy_flux
from .solver import SpaceTimeSolution


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
    tv = window_sums(np.abs(np.diff(_padded(sol, n), axis=0))[:, None])[0]
    return tv, float(tv.max())


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
        Every cell outside a block's cells is +0.0, so its row is the same
        text at every layer; a block's cells are formatted by repr."""
        dx, J, m = sol.grid.dx, sol.grid.J, sol.model.m
        heads = [str(j) for j in range(J)]
        zero_rows = [f"{head}," + ",".join(["0.0"] * (m + 4)) for head in heads]
        with open(path, "w", newline="") as fh:
            cols = ["n", "j"] + [f"bound_{c}" for c in range(m)]
            fh.write(",".join(cols + ["E1", "E2", "E3", "ent_lower"]) + "\r\n")
            for block in _layer_blocks(sol):
                e1, e2, e3 = _entropy_triplets(dx, block.dt, *block.entropy)
                cells = np.concatenate(
                    [block.bounds, np.stack([e1, e2, e3, _entropy_lower(e1, e2, e3)], axis=-1)],
                    axis=-1)
                c0, c1 = block.cells.start, block.cells.stop
                for k, n in enumerate(range(block.first, block.first + len(block.dt))):
                    values = map(repr, cells[:, k].ravel().tolist())
                    # one iterator: zip takes m + 4 values per row
                    rows = map(",".join, zip(heads[c0:c1], *[values] * (m + 4)))
                    fh.write(f"{n}," + f"\r\n{n},".join([*zero_rows[:c0], *rows, *zero_rows[c1:]])
                             + "\r\n")
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


def _layer_blocks(sol: SpaceTimeSolution):
    """The residual pass: yield the _Block of each block of consecutive
    levels of sol (grid.level_blocks), one at a time.  Layer n's cells are
    the union of the hulls of levels n and n + 1 (the last level's, its own
    hull) grown by two cells and clipped to the grid, so a block's cells
    hold every cell whose stencil is not constant in any of its layers, and
    a ghost cell on each side of each hull where the grid has one.  Level
    stop of a block, when there is one, gives only the entropy that closes
    the block's last layer."""
    hulls, J = sol.ghost_hulls, sol.grid.J
    ahead = np.concatenate([hulls[1:], hulls[-1:]])  # level n + 1's hull, the last level's own
    lo = np.maximum(np.minimum(hulls[:, 0], ahead[:, 0]) - 2, 0)
    hi = np.minimum(np.maximum(hulls[:, 1], ahead[:, 1]) + 2, J)
    del ahead
    for first, stop, c0, c1 in level_blocks(lo, hi):
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
    model, t, last = sol.model, sol.times.t, sol.n_steps
    n_levels, n_layers = stop - first, min(stop, last) - first
    u = sol.states.columns(first, min(stop + 1, last + 1), c0 - 1, c1 + 1)
    f, ent, ent_flux, speeds, low, high = model.level_terms(u[:, :n_levels])
    jumps = u[1:, :n_levels] - u[:-1, :n_levels]
    tv = window_sums(np.abs(jumps, out=jumps))
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
    n_steps, m = sol.n_steps, sol.model.m
    tv = np.empty((n_steps + 1, m))
    speed_range = np.empty((n_steps + 1, 2))
    beta_levels = np.empty(n_steps)
    eta_levels = np.empty(n_steps)
    for block in _layer_blocks(sol):
        levels = slice(block.first, block.first + len(block.tv))
        tv[levels], speed_range[levels] = block.tv, block.speed_range
        layers = slice(block.first, block.first + len(block.dt))
        beta_levels[layers] = window_sums(block.bounds).max(axis=1) / block.dt
        deficit = np.abs(np.minimum(_entropy_e1(sol.grid.dx, block.dt, *block.entropy[:2]), 0.0))
        eta_levels[layers] = window_sums(deficit[..., None])[:, 0] / block.dt
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
