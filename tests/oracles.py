"""Reference code the tests check fvbound against and nothing in fvbound
calls: pointwise sampling of an exact Riemann fan, its cell averages and L1
distances built one level at a time, jump detection over a whole level,
and the per-cell cover counts of a slab partition."""

import numpy as np

from fvbound.grid import Grid1D, column_sums
from fvbound.models import Burgers
from fvbound.partition import JumpRegion, SlabPartition, trapezoid_cell_ranges
from fvbound.riemann import WaveFan, _fan_integral, _riemann_invariant
from fvbound.solver import SpaceTimeSolution


def _fan_profile(fan: WaveFan, family: int, xi: np.ndarray) -> np.ndarray:
    """State inside the rarefaction fan of the given family at xi = x/t."""
    model = fan.model
    if isinstance(model, Burgers):
        return xi[..., None]
    gamma = model.gamma
    if family == 0:
        w = _riemann_invariant(model, fan.left, 0)
        c = (gamma - 1.0) / (gamma + 1.0) * (w - xi)
        v = xi + c
    else:
        w = _riemann_invariant(model, fan.right, 1)
        c = (gamma - 1.0) / (gamma + 1.0) * (xi - w)
        v = xi - c
    rho = (c * c / (model.C * gamma)) ** (1.0 / (gamma - 1.0))
    return np.stack([rho, rho * v], axis=-1)


def sample(fan: WaveFan, xi) -> np.ndarray:
    """Self-similar solution value(s) at xi = x/t."""
    xi = np.asarray(xi, dtype=float)
    scalar_input = xi.ndim == 0
    xi = np.atleast_1d(xi)
    out = np.empty(xi.shape + (fan.model.m,))
    for lo, hi, kind, payload in fan.segments:
        mask = (xi >= lo) & (xi < hi) if hi != np.inf else (xi >= lo)
        if not mask.any():
            continue
        if kind == "const":
            out[mask] = payload
        else:
            out[mask] = _fan_profile(fan, payload, xi[mask])
    return out[0] if scalar_input else out


def whole_level_jumps(sol: SpaceTimeSolution, n: int, x_interval, sigma0: float) -> list:
    """detect_jumps over all J cells of level n, built in full: the value
    range, the details and the flags of every interface."""
    states = sol.states[n]
    grid = sol.grid
    if grid.J < 2:
        return []
    span = states.max(axis=0) - states.min(axis=0)
    scale = np.where(span > 1e-12 * (1.0 + np.abs(states).max(axis=0)), span, np.inf)
    detail = (np.abs(np.diff(states, axis=0)) / scale).max(axis=1)
    flagged = detail > sigma0
    edges = grid.interfaces()
    if x_interval is not None:
        pos = edges[1:-1]
        flagged &= (pos >= x_interval[0]) & (pos <= x_interval[1])
    regions = []
    for j in np.nonzero(flagged)[0].tolist():
        if regions and regions[-1][1] == j:
            regions[-1][1] = j + 1
        else:
            regions.append([j, j + 1])
    return [JumpRegion(j1, j2, float(edges[j1]), float(edges[j2 + 1])) for j1, j2 in regions]


def cover_counts(sol: SpaceTimeSolution, part: SlabPartition) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell intersection counts with (surge, smooth) trapezoids; rows are
    the slab's cell levels."""
    rows = part.n_hi - part.n_lo
    surge_counts = np.zeros((rows, sol.grid.J), dtype=int)
    smooth_counts = np.zeros((rows, sol.grid.J), dtype=int)
    for counts, traps in (
        (surge_counts, [s.outer for s in part.surges]),
        (smooth_counts, part.smooth),
    ):
        for trap in traps:
            levels, j_lo, j_hi = trapezoid_cell_ranges(trap, sol, part.n_lo, part.n_hi)
            for level, a, b in zip(levels - part.n_lo, j_lo, j_hi + 1):
                counts[level, a:b] += 1
    return surge_counts, smooth_counts


def _constant_rows(fan: WaveFan, J: int) -> list:
    """Each constant segment's state repeated over J rows (None for a fan)."""
    return [np.tile(payload, (J, 1)) if kind == "const" else None
            for _, _, kind, payload in fan.segments]


def _average_pieces(fan: WaveFan, origin: float, t: float, edges: np.ndarray, dx: float,
                    rows: list):
    """Cover the cells at time t > 0 with (cell slice, averages) pairs, one
    level at a time: the cells wholly inside a constant state get that state
    (sliced from rows, see _constant_rows), the cells wholly inside a
    rarefaction their closed-form averages, and each cell that a breakpoint
    cuts the sum of its pieces, from 0.0 in segment order.

    One searchsorted of the breakpoints x_k = origin + t*xi_k on the grid
    edges places them all; a breakpoint on an edge cuts no cell.
    """
    J = edges.size - 1
    x = [origin + t * seg[1] for seg in fan.segments[:-1]]
    left = edges.searchsorted(x, "left").tolist()
    right = edges.searchsorted(x, "right").tolist()
    cuts = [r - 1 if l == r and 0 < r <= J else None for l, r in zip(left, right)]
    firsts = [0] + [min(i, J) for i in left]  # first cell wholly right of x_{k-1}
    stops = [max(i - 1, 0) for i in right] + [J]  # past the cells wholly left of x_k
    cut_parts: dict[int, np.ndarray] = {}

    def add_cut(cell, integral):
        cut_parts[cell] = cut_parts.get(cell, 0.0) + integral

    for k, (_, _, kind, payload) in enumerate(fan.segments):
        lo, hi = firsts[k], stops[k]
        x_lo, x_hi = (x[k - 1] if k else -np.inf), (x[k] if k < len(x) else np.inf)
        c_lo, c_hi = (cuts[k - 1] if k else None), (cuts[k] if k < len(x) else None)
        if kind == "const":
            if lo < hi:
                yield slice(lo, hi), rows[k][lo:hi]
            if c_lo is not None:
                add_cut(c_lo, (min(edges[c_lo + 1], x_hi) - x_lo) * payload)
            if c_hi is not None and c_hi != c_lo:
                add_cut(c_hi, (x_hi - max(edges[c_hi], x_lo)) * payload)
            continue
        points = [edges[lo:hi + 1]]
        if c_lo is not None:
            points.insert(0, [x_lo])
        if c_hi is not None:
            points.append([x_hi])
        points = np.concatenate(points)
        if points.size < 2:
            continue
        integrals = _fan_integral(fan, payload, points[:-1], points[1:], origin, t)
        first = int(c_lo is not None)
        if lo < hi:
            yield slice(lo, hi), integrals[first:first + hi - lo] / dx
        if c_lo is not None:
            add_cut(c_lo, integrals[0])
        if c_hi is not None and c_hi != c_lo:
            add_cut(c_hi, integrals[-1])
    for cell, integral in cut_parts.items():
        yield slice(cell, cell + 1), integral / dx


def per_level_cell_averages(fan: WaveFan, origin: float, t: float, grid: Grid1D) -> np.ndarray:
    """The exact fan's cell averages at time t >= 0, built piece by piece."""
    edges = grid.interfaces()
    if t == 0.0:
        left_w = np.clip(origin, edges[:-1], edges[1:]) - edges[:-1]
        out = (left_w[:, None] * fan.left + (grid.dx - left_w)[:, None] * fan.right)
        return out / grid.dx
    out = np.empty((grid.J, fan.model.m))
    for cells, averages in _average_pieces(fan, origin, t, edges, grid.dx,
                                           _constant_rows(fan, grid.J)):
        out[cells] = averages
    return out


def per_level_l1_distances(fan: WaveFan, origin: float, grid: Grid1D, times: np.ndarray,
                           levels) -> np.ndarray:
    """exact_l1_distances one level at a time: each level's pieces are
    subtracted from its cells as they come, and the level summed."""
    rows = _constant_rows(fan, grid.J)
    out = np.empty((len(times), fan.model.m))
    diff = np.empty((grid.J, fan.model.m))
    for n, (t, u) in enumerate(zip(np.asarray(times, dtype=float).tolist(), levels)):
        if t == 0.0:
            np.subtract(u, per_level_cell_averages(fan, origin, 0.0, grid), out=diff)
        else:
            for cells, averages in _average_pieces(fan, origin, t, grid.interfaces(), grid.dx,
                                                   rows):
                np.subtract(u[cells], averages, out=diff[cells])
        out[n] = column_sums(np.abs(diff, out=diff))
    return out
