"""Reference code the tests check fvbound against and nothing in fvbound
calls: the stepping core as a whole-grid loop that allocates every array,
the column sums of one level, the dense form of a level history, pointwise sampling of an exact
Riemann fan, its cell averages and L1 distances built one level at a time,
the restriction of a fine level to a coarse grid that nests in it,
jump detection over a whole level, a trapezoid's cell ranges and their
min and max one level at a time, the surge detector's strip search one
iteration at a time, the per-cell cover counts of a slab
partition, the residual report and residuals CSV folded one level at a
time, and the weak residual itself: the affine test functions of one cell
and their edge-average projection, the residual's edge-average form, its
exact sup over the corner test functions, and the weak residual of a whole
slab against a globally Lipschitz test function."""

from dataclasses import dataclass

import numpy as np

from fvbound.cli import _nesting_ratio, _restrict
from fvbound.grid import Grid1D, cfl_timestep
from fvbound.models import Burgers, interface_fluxes, normalize_flux_kind, numerical_flux
from fvbound.partition import (JumpRegion, SlabPartition, SurgeTrapezoid, build_surge_trapezoid,
                               detect_jumps, merge_close_regions, trapezoid_cell_ranges)
from fvbound.residual import (ResidualReport, _cell_bounds, _entropy_e1, _entropy_lower,
                              _entropy_triplets, _padded)
from fvbound.riemann import WaveFan, _fan_integral, _riemann_invariant
from fvbound.solver import LevelHistory, SpaceTimeSolution


def column_sums(a: np.ndarray) -> np.ndarray:
    """The column sums of a (J >= 1, m) array in row order, one row added at
    a time from the first, as every per-level sum of fvbound adds them."""
    return np.add.accumulate(a, axis=0)[-1]


def hand_march(states, model, kind, grid, cfl, t0, t_final):
    """The stepping core as a whole-grid loop that allocates every array: a
    separate CFL scan, the pairwise numerical flux at every interface of the
    ghost-padded level, and the update.  Returns each level's (t, states,
    window), where window is the active window of the level before (the
    cells from the left cell of its first interface whose two states differ
    in some bit to the right cell of the last), at t0 the level's own, and
    an empty window is (lo, lo) at the lo of the window before; and the
    interface fluxes of each step."""
    ghost_left, ghost_right = states[0].copy(), states[-1].copy()
    J = len(states)

    def active(level, lo_before):
        padded = np.vstack([ghost_left[None, :], level, ghost_right[None, :]])
        bits = padded.view(np.int64)
        differ = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1))
        if not len(differ):
            return lo_before, lo_before
        return max(int(differ[0]) - 1, 0), min(int(differ[-1]) + 1, J)

    tol = 1e-14 * max(1.0, abs(t_final))
    t, window = t0, active(states, 0)
    out, fluxes = [(t0, states, window)], []
    while t < t_final - tol:
        dt = cfl_timestep(states, model, grid, cfl, ghost_left, ghost_right, max_dt=t_final - t)
        ext = np.vstack([ghost_left[None, :], states, ghost_right[None, :]])
        flux = numerical_flux(kind, model, ext[:-1], ext[1:])
        step_window = active(states, window[0])
        states = states - (dt / grid.dx) * (flux[1:] - flux[:-1])
        fluxes.append(flux)
        t = t_final if t_final - (t + dt) <= tol else t + dt
        window = step_window
        out.append((t, states, window))
    return out, fluxes


def dense(history: LevelHistory) -> np.ndarray:
    """The dense (N+1, J, m) array of a history's levels, walked forward."""
    out = np.empty(history.shape)
    for level, stored in zip(out, history.walk()):
        level[...] = stored
    return out


def restrict(states: np.ndarray, fine_grid: Grid1D, coarse_grid: Grid1D) -> np.ndarray:
    """Conservative restriction: the mean over the fine cells nested in each
    coarse cell, as the fine reference restricts; grids that do not nest are
    refused."""
    return _restrict(states, _nesting_ratio(fine_grid, coarse_grid))


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
    states = dense(sol.states)[n]
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


def ranges_oracle(trap, sol, n_lo, n_hi):
    """The per-level loop the range arrays replace: (level, j_lo, j_hi) for
    cells whose closed space-time rectangle meets the trapezoid."""
    grid = sol.grid
    out = []
    if trap.t_top - trap.t_bot <= 0:
        return out
    for level in range(n_lo, n_hi):
        w_lo = max(float(sol.times.t[level]), trap.t_bot)
        w_hi = min(float(sol.times.t[level + 1]), trap.t_top)
        if w_lo > w_hi:
            continue
        g_lo = trap.right_at(w_lo) - trap.left_at(w_lo)
        g_hi = trap.right_at(w_hi) - trap.left_at(w_hi)
        if g_lo < 0.0 and g_hi < 0.0:
            continue
        if g_lo < 0.0 or g_hi < 0.0:
            t_root = w_lo + (w_hi - w_lo) * g_lo / (g_lo - g_hi)
            if g_lo < 0.0:
                w_lo = t_root
            else:
                w_hi = t_root
        xlo = min(trap.left_at(w_lo), trap.left_at(w_hi))
        xhi = max(trap.right_at(w_lo), trap.right_at(w_hi))
        j_lo = max(int(np.ceil((xlo - grid.x_min) / grid.dx - 1.0 - 1e-9)), 0)
        j_hi = min(int(np.floor((xhi - grid.x_min) / grid.dx + 1e-9)), grid.J - 1)
        if j_lo <= j_hi:
            out.append((level, j_lo, j_hi))
    return out


def minmax_oracle(sol, ranges):
    """Per-level loop over the ranges: componentwise (min, max), or None."""
    if not ranges:
        return None
    levels = dense(sol.states)
    mins = np.min([levels[n][a : b + 1].min(axis=0) for n, a, b in ranges], axis=0)
    maxs = np.max([levels[n][a : b + 1].max(axis=0) for n, a, b in ranges], axis=0)
    return mins, maxs


def _range_osc(mm) -> float:
    return float((mm[1] - mm[0]).max()) if mm is not None else 0.0


def _join(mm, new):
    """The componentwise (min, max) of two, either of which may be None."""
    if mm is None or new is None:
        return mm or new
    return np.minimum(mm[0], new[0]), np.maximum(mm[1], new[1])


def strip_search(sol: SpaceTimeSolution, n_lo: int, n_hi: int, sigma0: float,
                 lam_minus: float, lam_plus: float,
                 eps: float) -> tuple[list[SurgeTrapezoid], list[float], list[int]]:
    """detect_surges one strip iteration at a time: per confirmed candidate,
    rebuild the surge trapezoid at each half-width and join the min and max
    over its sub-trapezoids' cells (ranges_oracle, minmax_oracle) into each
    side's running union, while the unions oscillate at most tau and the
    strip still shrinks.  Returns the surges, their kappa' and the number of
    iterations each took."""
    grid = sol.grid
    times = sol.times.t
    t_bot, t_top = float(times[n_lo]), float(times[n_hi])
    tau = t_top - t_bot
    sep = (lam_plus - lam_minus) * tau
    bottom = merge_close_regions(detect_jumps(sol, n_lo, None, sigma0), sep)
    eps13 = eps ** (1.0 / 3.0)
    eps23 = eps ** (2.0 / 3.0)

    def union(mm, trap):
        return _join(mm, minmax_oracle(sol, ranges_oracle(trap, sol, n_lo, n_hi)))

    surges, oscs, iterations = [], [], []
    for region in bottom:
        cone = (region.x_left + lam_minus * tau, region.x_right + lam_plus * tau)
        top_jumps = merge_close_regions(detect_jumps(sol, n_hi, cone, sigma0), sep)
        if len(top_jumps) != 1:
            continue
        top = top_jumps[0]
        floor = 0.5 * eps23
        delta_l = delta_r = max(eps13 - eps23, floor)
        trap = build_surge_trapezoid(tau, region, top, delta_l, delta_r,
                                     lam_minus, lam_plus, grid, eps13, t_bot, t_top)
        mm_l, mm_r = union(None, trap.left), union(None, trap.right)
        count = 1
        while (max(_range_osc(mm_l), _range_osc(mm_r)) <= tau
               and delta_l + delta_r > eps23 > 0.0):
            new_l = max(delta_l - eps23, floor)
            new_r = max(delta_r - eps23, floor)
            if new_l == delta_l and new_r == delta_r:
                break
            delta_l, delta_r = new_l, new_r
            trap = build_surge_trapezoid(tau, region, top, delta_l, delta_r,
                                         lam_minus, lam_plus, grid, eps13, t_bot, t_top)
            mm_l, mm_r = union(mm_l, trap.left), union(mm_r, trap.right)
            count += 1
        surges.append(trap)
        oscs.append(max(_range_osc(mm_l), _range_osc(mm_r)))
        iterations.append(count)
    return surges, oscs, iterations


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
        j_lo, j_hi = trapezoid_cell_ranges(traps, sol, part.n_lo, part.n_hi)
        for ranges_lo, ranges_hi in zip(j_lo.tolist(), j_hi.tolist()):
            for level, (a, b) in enumerate(zip(ranges_lo, ranges_hi)):
                counts[level, a:b + 1] += 1
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
    """The exact fan's cell averages at time t >= 0, built piece by piece;
    at t = 0 each cell wholly on one side of the origin holds the outer
    segment's state on that side, and the cell straddling it the
    width-weighted mix of the two states."""
    edges = grid.interfaces()
    if t == 0.0:
        out = np.empty((grid.J, fan.model.m))
        for j, (a, b) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
            if b <= origin:
                out[j] = fan.segments[0][3]
            elif a >= origin:
                out[j] = fan.segments[-1][3]
            else:
                out[j] = ((origin - a) * fan.left + (grid.dx - (origin - a)) * fan.right) / grid.dx
        return out
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


class ResidualFold:
    """epsilon as a fold over the levels of a record, one level at a time
    over the whole grid.  Each level arrives ghost-padded with its terms
    (see level_terms) and the interface fluxes of the step that produced
    it, and closes the layer below it."""

    def __init__(self, dx: float):
        self.dx = dx
        self.tv: list[list[float]] = []
        self.speed_range: list[tuple[float, float]] = []
        self.beta_levels: list[float] = []
        self.eta_levels: list[float] = []
        self._last = None  # (t, level terms) of the level folded last

    def add(self, t, padded: np.ndarray, terms, fluxes: np.ndarray | None):
        """Fold the level at time t; return the layer it closes, (dt, cell
        bounds, (q_hat, entropy decrease, cell entropy flux)) with
        dt = t - t_prev, or None for the first."""
        self.tv.append(column_sums(np.abs(np.diff(padded, axis=0))).tolist())
        self.speed_range.append(terms[4])
        last, self._last = self._last, (t, terms)
        if last is None:
            return None
        t_prev, (f, ent, ent_flux, speeds, _) = last
        dx, dt = self.dx, float(t) - float(t_prev)
        # the LLF entropy-flux companion, as numerical_entropy_flux computes it
        lam = np.maximum(speeds[:-1], speeds[1:])
        q_hat = 0.5 * (ent_flux[:-1] + ent_flux[1:]) - 0.5 * lam * (ent[1:] - ent[:-1])
        de = ent[1:-1] - terms[1][1:-1]
        bounds = _cell_bounds(dx, dt, fluxes, f[1:-1])
        e1 = _entropy_e1(dx, dt, q_hat, de)
        self.beta_levels.append(float(column_sums(bounds).max() / dt))
        self.eta_levels.append(float(column_sums(np.abs(np.minimum(e1, 0.0))[:, None])[0] / dt))
        return dt, bounds, (q_hat, de, ent_flux[1:-1])

    def report(self, sol: SpaceTimeSolution) -> ResidualReport:
        """The ResidualReport of the folded levels, which are sol's."""
        n_steps = sol.n_steps
        tv = np.array(self.tv)
        beta_levels = np.array(self.beta_levels)
        eta_levels = np.array(self.eta_levels)
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
            flux_kind=normalize_flux_kind(sol.flux_kind), epsilon=eps, beta=beta, eta=eta,
            stability_constant=big_c, c_max=c_max, tv=tv, tv_scalar=tv_scalar,
            beta_levels=beta_levels, eta_levels=eta_levels,
            speed_range=np.array(self.speed_range))


def level_terms(model, padded: np.ndarray):
    """model.level_terms of a ghost-padded level with its signed speeds
    reduced to the level's (lowest, highest) over the interior cells; a zero
    extreme is +0.0, whichever signed zero the cells hold."""
    f, ent, ent_flux, speeds, low, high = model.level_terms(padded)
    return f, ent, ent_flux, speeds, (float(low[1:-1].min()) + 0.0,
                                      float(high[1:-1].max()) + 0.0)


def stored_levels(sol: SpaceTimeSolution):
    """(t, ghost-padded level, level_terms, fluxes of the step into the level
    or None) for every recorded level of sol, walking the history forward."""
    fluxes = None
    for n, (t, level) in enumerate(zip(sol.times.t, sol.states.walk())):
        padded = np.vstack([sol.ghost_left[None, :], level, sol.ghost_right[None, :]])
        terms = level_terms(sol.model, padded)
        yield t, padded, terms, fluxes
        if n < sol.n_steps:
            fluxes = interface_fluxes(sol.flux_kind, sol.model, padded, terms[0], terms[3])


def per_level_epsilon(sol: SpaceTimeSolution) -> ResidualReport:
    """epsilon(sol), folded one level at a time over the whole grid."""
    fold = ResidualFold(sol.grid.dx)
    for level in stored_levels(sol):
        fold.add(*level)
    return fold.report(sol)


def per_level_cells_csv(sol: SpaceTimeSolution, path: str) -> None:
    """ResidualReport.write_cells_csv(sol, path), each layer folded one
    level at a time over the whole grid, every row formatted value by value."""
    dx = sol.grid.dx
    fold = ResidualFold(dx)
    with open(path, "w", newline="") as fh:
        cols = ["n", "j"] + [f"bound_{c}" for c in range(sol.model.m)]
        fh.write(",".join(cols + ["E1", "E2", "E3", "ent_lower"]) + "\r\n")
        for n, level in enumerate(stored_levels(sol), start=-1):
            layer = fold.add(*level)
            if layer is None:
                continue
            dt, bounds, entropy = layer
            e1, e2, e3 = _entropy_triplets(dx, dt, *entropy)
            block = np.column_stack([bounds, e1, e2, e3, _entropy_lower(e1, e2, e3)])
            for j, row in enumerate(block.tolist()):
                fh.write(",".join([str(n), str(j), *map(repr, row)]) + "\r\n")


# Maps the edge averages (left, top, right) of an affine test function
# a1 + a2*(t^{n+1}-t)/dt + a3*(x-x_center)/dx  to its coefficients and back.
PROJECTION_MATRIX = np.array([[1.0, 0.5, -0.5], [1.0, 0.0, 0.0], [1.0, 0.5, 0.5]])
PROJECTION_INV = np.array([[0.0, 1.0, 0.0], [1.0, -2.0, 1.0], [-1.0, 0.0, 1.0]])


@dataclass(frozen=True)
class TestFunctionCoefficients:
    """Coefficients of {1, backward time hat, centered x hat} on one cell."""

    a1: float
    a2: float
    a3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])

    def edge_averages(self) -> np.ndarray:
        """Averages (left, top, right) of the induced affine function."""
        return PROJECTION_MATRIX @ self.as_array()

    def corner_values(self) -> np.ndarray:
        return np.array(
            [self.a1 + i * self.a2 + s * 0.5 * self.a3 for i in (0.0, 1.0) for s in (-1.0, 1.0)]
        )

    def w1inf_norm(self, dt: float, dx: float) -> float:
        """W^{1,inf} norm on a dt-by-dx cell (sup-norm gradient)."""
        return max(
            float(np.abs(self.corner_values()).max()),
            abs(self.a2) / dt,
            abs(self.a3) / dx,
        )


def projection_coefficients(edge_averages) -> TestFunctionCoefficients:
    """Affine function matching the given (left, top, right) edge averages."""
    alpha = PROJECTION_INV @ np.asarray(edge_averages, dtype=float)
    return TestFunctionCoefficients(*alpha)


def _b_edge_form(dx, dt, u_n, u_np1, f_center, flux_l, flux_r, avg_l, avg_top, avg_r):
    """Local weak residual from edge averages of the test function.

    All state arguments may carry leading cell axes; the averages are scalars
    or arrays broadcastable against them.
    """
    return (
        dx * (u_n - u_np1) * np.asarray(avg_top)[..., None]
        + dt * f_center * (np.asarray(avg_r) - np.asarray(avg_l))[..., None]
        + dt * (flux_l * np.asarray(avg_l)[..., None] - flux_r * np.asarray(avg_r)[..., None])
    )


def _layer(sol: SpaceTimeSolution, kind: str, n: int):
    """Levels n and n + 1 of sol and level n's J + 1 interface fluxes of kind."""
    u_n = _padded(sol, n)
    return u_n[1:-1], _padded(sol, n + 1)[1:-1], interface_fluxes(kind, sol.model, u_n)


def level_corner_oracle(sol: SpaceTimeSolution, kind: str, n: int) -> np.ndarray:
    """Exact sup of |B_j^n(phi)| over the 8 corner test functions of the
    normalized affine box with zero mean coefficient, per cell (J, m).

    Independent of the closed-form bound: evaluates the residual operator
    through its edge-average form for each corner function.
    """
    dt = sol.times.dt(n)
    dx = sol.grid.dx
    u_n, u_np1, fluxes = _layer(sol, kind, n)
    flux_l, flux_r = fluxes[:-1], fluxes[1:]
    f_center = sol.model.flux(u_n)
    best = np.zeros_like(u_n)
    for s2 in (-1.0, 0.0, 1.0):
        for s3 in (-1.0, 0.0, 1.0):
            if s2 == 0.0 and s3 == 0.0:
                continue
            # phi = s2*(t^{n+1}-t) + s3*(x - x_center)
            avg_l = s2 * dt / 2.0 - s3 * dx / 2.0
            avg_r = s2 * dt / 2.0 + s3 * dx / 2.0
            val = _b_edge_form(dx, dt, u_n, u_np1, f_center, flux_l, flux_r,
                               avg_l, 0.0, avg_r)
            best = np.maximum(best, np.abs(val))
    return best


@dataclass(frozen=True)
class SlabTestFunction:
    """Globally Lipschitz test function, affine on every cell of a slab:
    phi(t, x) = time_slope*(t - t^n) + pwl(x) with node values at the J+1
    interfaces."""

    time_slope: float
    node_values: np.ndarray

    @staticmethod
    def constant(value: float, grid) -> "SlabTestFunction":
        return SlabTestFunction(0.0, np.full(grid.J + 1, float(value)))

    @staticmethod
    def coordinate_x(grid) -> "SlabTestFunction":
        return SlabTestFunction(0.0, grid.interfaces().copy())


def global_weak_residual(
    sol: SpaceTimeSolution,
    kind: str,
    n: int,
    phi: SlabTestFunction,
    method: str = "local",
) -> np.ndarray:
    """Weak residual of the slab [t^n, t^{n+1}] x Omega against phi.

    method="local" sums the per-cell operators (interior numerical fluxes
    telescope); method="direct" integrates the weak form exactly, keeping
    only the two boundary flux terms.  Both agree for continuous phi.
    """
    dt = sol.times.dt(n)
    dx = sol.grid.dx
    psi = np.asarray(phi.node_values, dtype=float)
    if psi.shape != (sol.grid.J + 1,):
        raise ValueError(f"need {sol.grid.J + 1} node values, got {psi.shape}")
    u_n, u_np1, fluxes = _layer(sol, kind, n)

    if method == "local":
        avg_l = phi.time_slope * dt / 2.0 + psi[:-1]
        avg_r = phi.time_slope * dt / 2.0 + psi[1:]
        avg_top = phi.time_slope * dt + 0.5 * (psi[:-1] + psi[1:])
        f_center = sol.model.flux(u_n)
        cells = _b_edge_form(dx, dt, u_n, u_np1, f_center, fluxes[:-1], fluxes[1:],
                             avg_l, avg_top, avg_r)
        return cells.sum(axis=0)
    if method != "direct":
        raise ValueError(f"unknown method '{method}'")

    psi_bar = 0.5 * (psi[:-1] + psi[1:])
    slope = (psi[1:] - psi[:-1]) / dx
    f_center = sol.model.flux(u_n)
    total = (u_n * (dx * psi_bar)[:, None]).sum(axis=0)
    total -= (u_np1 * (dx * (phi.time_slope * dt + psi_bar))[:, None]).sum(axis=0)
    total += dx * dt * phi.time_slope * u_n.sum(axis=0)
    total += dt * dx * (f_center * slope[:, None]).sum(axis=0)
    avg_bl = phi.time_slope * dt / 2.0 + psi[0]
    avg_br = phi.time_slope * dt / 2.0 + psi[-1]
    total += dt * (fluxes[0] * avg_bl - fluxes[-1] * avg_br)
    return total
