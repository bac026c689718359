"""Jump detection, surge trapezoids, and the meso-timeslab decomposition.

A meso-timeslab (a strip of several consecutive time levels) is covered by
surge trapezoids around sufficiently isolated strong discontinuities and by
smooth trapezoids everywhere else.  Trapezoid slopes come from the extreme
wave speeds observed in the slab, which the residual pass records per level.

The cells a trapezoid meets are (K, levels) arrays of closed ranges,
computed for K trapezoids and all of a slab's levels at once.  Their min and
max come from LevelHistory.range_minmax: one reduction of the history for
all of a slab's smooth trapezoids, and one for each batch of a surge
candidate's strip iterations, whose trapezoids do not depend on the data:
only the stop rule does, and it reads the running unions afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BLOCK_CELLS, Grid1D
from .solver import SpaceTimeSolution, _runs


def inb(x: float, grid: Grid1D) -> float:
    """Clamp a coordinate into the domain."""
    return max(grid.x_min, min(float(x), grid.x_max))


@dataclass(frozen=True)
class JumpRegion:
    """Maximal run of flagged interfaces, spanning cells j1..j2."""

    j1: int
    j2: int
    x_left: float
    x_right: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.x_left + self.x_right)

    @property
    def width(self) -> float:
        return self.x_right - self.x_left


def detect_jumps(
    sol: SpaceTimeSolution,
    n: int,
    x_interval: tuple[float, float] | None,
    sigma0: float,
) -> list[JumpRegion]:
    """Flag interfaces whose relative jump exceeds sigma0; merge runs.

    The single-level Haar detail of component c at interface j+1/2 is
    |u_{c,j+1} - u_{c,j}| normalized by the value range of that component
    over the whole time level (so the threshold is invariant under solution
    rescaling and offsets); the detector takes the max over components.
    Only interfaces inside x_interval are considered.

    Only level n's ghost hull is read, with a ghost cell on each side that
    has one: the level's values are those cells' values, and every jump
    outside them, between two cells of one ghost state, is zero.
    """
    if not sigma0 > 0:  # NaN included
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    grid = sol.grid
    if grid.J < 2:
        return []
    n = range(len(sol.ghost_hulls))[n]
    lo, hi = sol.ghost_hulls[n].tolist()
    first = max(lo - 1, 0)
    # the cells first..first+len(states)-1 of level n
    states = sol.states.columns(n, n + 1, first, min(hi + 1, grid.J))[:, 0]
    span = states.max(axis=0) - states.min(axis=0)
    # components that are constant up to roundoff cannot carry a jump
    scale = np.where(span > 1e-12 * (1.0 + np.abs(states).max(axis=0)), span, np.inf)
    detail = (np.abs(np.diff(states, axis=0)) / scale).max(axis=1)
    flagged = detail > sigma0
    edges = grid.interfaces()
    if x_interval is not None:
        pos = edges[first + 1:first + len(states)]
        x_lo, x_hi = x_interval
        flagged &= (pos >= x_lo) & (pos <= x_hi)

    idx = np.flatnonzero(flagged) + first
    cells = idx.tolist()
    regions = []
    for a, b in _runs(idx - np.arange(len(idx))):  # runs of consecutive interfaces
        j1, j2 = cells[a], cells[b - 1] + 1
        regions.append(JumpRegion(j1, j2, float(edges[j1]), float(edges[j2 + 1])))
    return regions


@dataclass(frozen=True)
class Trapezoid:
    """Region between two linear boundaries over [t_bot, t_top]:
    bottom interval [a_bot, b_bot], top interval [a_top, b_top]."""

    t_bot: float
    t_top: float
    a_bot: float
    b_bot: float
    a_top: float
    b_top: float

    def left_at(self, t: float) -> float:
        w = (t - self.t_bot) / (self.t_top - self.t_bot)
        return (1.0 - w) * self.a_bot + w * self.a_top

    def right_at(self, t: float) -> float:
        w = (t - self.t_bot) / (self.t_top - self.t_bot)
        return (1.0 - w) * self.b_bot + w * self.b_top

    def to_json_dict(self) -> dict:
        return {
            "t_bot": self.t_bot,
            "t_top": self.t_top,
            "bottom": [self.a_bot, self.b_bot],
            "top": [self.a_top, self.b_top],
        }


def trapezoid_cell_ranges(
    traps, sol: SpaceTimeSolution, n_lo: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """(j_lo, j_hi), two (K, n_hi - n_lo) arrays: on level n_lo + l, the
    closed range of cells whose closed space-time rectangle meets the k-th of
    the K trapezoids; boundary touching counts.  A level the trapezoid does
    not meet has j_lo > j_hi."""
    # the K trapezoids as one whose corners are (K, 1) columns
    trap = Trapezoid(*np.array([(g.t_bot, g.t_top, g.a_bot, g.b_bot, g.a_top, g.b_top)
                                for g in traps], dtype=float).reshape(-1, 6, 1).transpose(1, 0, 2))
    times = sol.times.t
    w_lo = np.maximum(times[n_lo:n_hi], trap.t_bot)
    w_hi = np.minimum(times[n_lo + 1 : n_hi + 1], trap.t_top)
    grid = sol.grid
    slop = 1e-9
    # a trapezoid without height meets nothing; its entries are dropped
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        left_lo, right_lo = trap.left_at(w_lo), trap.right_at(w_lo)
        left_hi, right_hi = trap.left_at(w_hi), trap.right_at(w_hi)
        # restrict to the sub-window where the trapezoid is non-degenerate
        g_lo, g_hi = right_lo - left_lo, right_hi - left_hi
        keep = (trap.t_top - trap.t_bot > 0) & (w_lo <= w_hi) & ((g_lo >= 0.0) | (g_hi >= 0.0))
        cut_lo, cut_hi = g_lo < 0.0, g_hi < 0.0
        if cut_lo.any() or cut_hi.any():  # the edges cross inside a level
            t_root = w_lo + (w_hi - w_lo) * g_lo / (g_lo - g_hi)  # linear in t, one sign change
            left, right = trap.left_at(t_root), trap.right_at(t_root)
            left_lo, right_lo = np.where(cut_lo, left, left_lo), np.where(cut_lo, right, right_lo)
            left_hi, right_hi = np.where(cut_hi, left, left_hi), np.where(cut_hi, right, right_hi)
        xlo, xhi = np.minimum(left_lo, left_hi), np.maximum(right_lo, right_hi)
        j_lo = np.maximum(np.ceil((xlo - grid.x_min) / grid.dx - 1.0 - slop), 0).astype(np.intp)
        j_hi = np.minimum(np.floor((xhi - grid.x_min) / grid.dx + slop),
                          grid.J - 1).astype(np.intp)
    return np.where(keep, j_lo, 0), np.where(keep, j_hi, -1)


def _oscillations(mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Per set, the sup-norm range max - min of its (..., m) min and max:
    0.0 for a set without cells, whose min and max are +inf and -inf."""
    return np.maximum((maxs - mins).max(axis=-1), 0.0)


def oscillation(sol: SpaceTimeSolution, traps, n_lo: int, n_hi: int) -> np.ndarray:
    """Per trapezoid, the sup-norm range of the solution over all cells of
    levels n_lo..n_hi-1 meeting it: one reduction of the history for all."""
    ranges = trapezoid_cell_ranges(traps, sol, n_lo, n_hi)
    return _oscillations(*sol.states.range_minmax(n_lo, n_hi, *ranges))


@dataclass(frozen=True)
class SurgeTrapezoid:
    """Trapezoid enclosing one surge, with the strip of half-widths
    (delta_l, delta_r) around the approximate surge line x0 + lam*t excluded
    from the left/right sub-trapezoids."""

    outer: Trapezoid
    left: Trapezoid
    right: Trapezoid
    x0: float
    lam: float
    delta_l: float
    delta_r: float
    jump_width: float  # max width of the detected bottom/top jump regions
    bottom: JumpRegion
    top: JumpRegion

    @property
    def delta(self) -> float:
        return self.delta_l + self.delta_r

    def to_json_dict(self) -> dict:
        return {
            "outer": self.outer.to_json_dict(),
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
            "x0": self.x0,
            "lam": self.lam,
            "delta_l": self.delta_l,
            "delta_r": self.delta_r,
            "jump_width": self.jump_width,
        }


def build_surge_trapezoid(
    tau: float,
    bottom: JumpRegion,
    top: JumpRegion,
    delta_l: float,
    delta_r: float,
    lam_minus: float,
    lam_plus: float,
    grid: Grid1D,
    eps13: float,
    t_bot: float,
    t_top: float,
) -> SurgeTrapezoid:
    """Surge trapezoid with footpoint at the bottom jump midpoint; the slope
    of the strip is the secant through the bottom/top jump midpoints."""
    x0 = bottom.midpoint
    a_top = inb(x0 + lam_minus * tau - delta_l - eps13, grid)
    b_top = inb(x0 + lam_plus * tau + delta_r + eps13, grid)
    # a top end on the domain boundary keeps its bottom end there too
    a_bot = inb(a_top - lam_plus * tau, grid) if a_top > grid.x_min else grid.x_min
    b_bot = inb(b_top - lam_minus * tau, grid) if b_top < grid.x_max else grid.x_max
    lam = (top.midpoint - x0) / tau
    left = Trapezoid(
        t_bot, t_top,
        a_bot, inb(x0 - delta_l, grid),
        a_top, inb(x0 - delta_l + lam * tau, grid),
    )
    right = Trapezoid(
        t_bot, t_top,
        inb(x0 + delta_r, grid), b_bot,
        inb(x0 + delta_r + lam * tau, grid), b_top,
    )
    outer = Trapezoid(t_bot, t_top, a_bot, b_bot, a_top, b_top)
    width = max(bottom.width, top.width)
    return SurgeTrapezoid(outer, left, right, x0, lam, delta_l, delta_r, width,
                          bottom, top)


def merge_close_regions(regions: list[JumpRegion], min_distance: float) -> list[JumpRegion]:
    """Agglomerate sorted, disjoint jump regions until consecutive midpoints
    are at least min_distance apart.

    Discontinuities closer than the slab's wave-speed spread cannot be
    treated as isolated surges; enclosing such a cluster in one candidate
    keeps the separation guarantee without discarding the cluster.  One pass
    suffices: a merge only moves the right end of the last region rightwards,
    so its midpoint rises and its distance to the region before only grows.
    """
    merged: list[JumpRegion] = []
    for region in regions:
        if merged and region.midpoint - merged[-1].midpoint < min_distance:
            prev = merged[-1]
            merged[-1] = JumpRegion(prev.j1, region.j2, prev.x_left, region.x_right)
        else:
            merged.append(region)
    return merged


def _half_widths(eps13: float, eps23: float):
    """Each strip iteration's half-width per side: from max(eps^(1/3) -
    eps^(2/3), eps^(2/3)/2) down by eps^(2/3) to that floor, where the total
    width reaches eps^(2/3), or until it no longer changes."""
    floor = 0.5 * eps23
    delta = max(eps13 - eps23, floor)
    yield delta
    while delta + delta > eps23 > 0.0:
        new = max(delta - eps23, floor)
        if new == delta:
            return
        delta = new
        yield delta


def detect_surges(
    sol: SpaceTimeSolution, n_lo: int, n_hi: int, sigma0: float, lam_minus: float,
    lam_plus: float, eps: float,
) -> tuple[list[SurgeTrapezoid], list[float]]:
    """Confirmed surge trapezoids of a slab and their oscillations kappa'.

    A bottom candidate is confirmed as a surge when the cone of extreme wave
    speeds emanating from it contains exactly one jump region at the top
    level; jump regions closer than the minimal surge distance are merged
    into one candidate first.  The strip half-widths (_half_widths) shrink
    while the sub-trapezoid oscillations stay below tau.  kappa' is the
    oscillation over the union of the sub-trapezoids of every iteration:
    the outer edges move inward as the strip shrinks, so the union can hold
    cells the final sub-trapezoids no longer meet.

    The half-widths depend on eps alone, so a candidate reduces its
    iterations' sub-trapezoids a batch at a time, in one call: 8, then twice
    as many each batch, and at most BLOCK_CELLS range entries (2 sides x 2
    ranges x iterations x levels) unless one iteration needs more.  It stops
    at its first iteration whose running union oscillates more than tau.
    """
    grid = sol.grid
    times = sol.times.t
    t_bot, t_top = float(times[n_lo]), float(times[n_hi])
    tau = t_top - t_bot
    sep = (lam_plus - lam_minus) * tau

    bottom = merge_close_regions(detect_jumps(sol, n_lo, None, sigma0), sep)

    eps13 = eps ** (1.0 / 3.0)
    eps23 = eps ** (2.0 / 3.0)
    L, m = n_hi - n_lo, sol.states.shape[2]
    surges: list[SurgeTrapezoid] = []
    oscs: list[float] = []
    for region in bottom:
        cone = (region.x_left + lam_minus * tau, region.x_right + lam_plus * tau)
        top_jumps = merge_close_regions(detect_jumps(sol, n_hi, cone, sigma0), sep)
        if len(top_jumps) != 1:
            continue
        # per side, the running union's min and max and the last iteration's ranges
        low, high = np.full((2, 1, m), np.inf), np.full((2, 1, m), -np.inf)
        last_lo, last_hi = np.zeros((2, 1, L), dtype=np.intp), np.full((2, 1, L), -1)
        widths, batch = _half_widths(eps13, eps23), 8
        while deltas := [d for _, d in zip(range(min(batch, max(1, BLOCK_CELLS // (4 * L)))),
                                           widths)]:
            traps = [build_surge_trapezoid(tau, region, top_jumps[0], delta, delta, lam_minus,
                                           lam_plus, grid, eps13, t_bot, t_top)
                     for delta in deltas]
            j_lo, j_hi = (a.reshape(2, len(deltas), L) for a in trapezoid_cell_ranges(
                [t.left for t in traps] + [t.right for t in traps], sol, n_lo, n_hi))
            # The union of a side's iterations up to i is that up to i - 1 and
            # the cells of iteration i outside iteration i - 1's range: two
            # ranges per level, of a few cells as the strip shrinks.
            before_lo = np.concatenate([last_lo, j_lo[:, :-1]], axis=1)
            before_hi = np.concatenate([last_hi, j_hi[:, :-1]], axis=1)
            pieces = (np.stack([j_lo, np.maximum(j_lo, before_hi + 1)], axis=2),
                      np.stack([np.minimum(j_hi, before_lo - 1), j_hi], axis=2))
            mins, maxs = sol.states.range_minmax(n_lo, n_hi, *(a.reshape(-1, L) for a in pieces))
            low = np.minimum.accumulate(np.concatenate([low, mins.reshape(2, -1, m)], axis=1),
                                        axis=1)[:, 2::2]
            high = np.maximum.accumulate(np.concatenate([high, maxs.reshape(2, -1, m)], axis=1),
                                         axis=1)[:, 2::2]
            # per iteration, the larger side's oscillation over its union so far
            kappa = _oscillations(low, high).max(axis=0)
            over = ~(kappa <= tau)
            i = int(over.argmax()) if over.any() else len(deltas) - 1
            trap, osc = traps[i], float(kappa[i])
            if over.any():
                break
            low, high, last_lo, last_hi = low[:, -1:], high[:, -1:], j_lo[:, -1:], j_hi[:, -1:]
            batch *= 2
        surges.append(trap)
        oscs.append(osc)
    return surges, oscs


# The figures of a slab that its report entry and slabs.csv hold, in order.
SLAB_FIGURES = ("t_lo", "t_hi", "n_surges", "kappa", "kappa_prime_max", "delta_max", "c0")


@dataclass(frozen=True)
class SlabPartition:
    """Trapezoidal cover of one meso-timeslab with kappa, its largest smooth
    oscillation, and c0, its surge-strength diagnostic (None without surges),
    which the estimator fills in."""

    n_lo: int
    n_hi: int
    t_lo: float
    t_hi: float
    lam_minus: float
    lam_plus: float
    surges: list[SurgeTrapezoid]
    surge_oscillations: list[float]
    smooth: list[Trapezoid]
    kappa: float = 0.0
    c0: float | None = None

    @property
    def n_surges(self) -> int:
        return len(self.surges)

    @property
    def kappa_prime_max(self) -> float:
        """Largest surge oscillation kappa'."""
        return max(self.surge_oscillations, default=0.0)

    @property
    def delta_max(self) -> float:
        """Largest total strip width among the slab's surges."""
        return max((s.delta for s in self.surges), default=0.0)

    def to_json_dict(self) -> dict:
        """The report's slab entry: SLAB_FIGURES, then the cover under "partition"."""
        return {
            **{name: getattr(self, name) for name in SLAB_FIGURES},
            "partition": {
                "t_lo": self.t_lo,
                "t_hi": self.t_hi,
                "lam_minus": self.lam_minus,
                "lam_plus": self.lam_plus,
                "surges": [s.to_json_dict() for s in self.surges],
                "surge_oscillations": list(self.surge_oscillations),
                "smooth": [g.to_json_dict() for g in self.smooth],
            },
        }


def _span_union(t1: Trapezoid, t2: Trapezoid) -> Trapezoid:
    return Trapezoid(
        t1.t_bot, t1.t_top,
        min(t1.a_bot, t2.a_bot), max(t1.b_bot, t2.b_bot),
        min(t1.a_top, t2.a_top), max(t1.b_top, t2.b_top),
    )


def partition_meso_slab(
    sol: SpaceTimeSolution, n_lo: int, n_hi: int, eps: float, sigma0: float,
    speed_range: np.ndarray,
) -> SlabPartition:
    """Cover the slab by surge trapezoids plus gap-filling smooth trapezoids.

    The slopes lam_minus/lam_plus are the extreme signed wave speeds over
    levels n_lo..n_hi, read from rows n_lo..n_hi of speed_range, the (N+1, 2)
    per-level (min, max) that epsilon records.  Without surges a single smooth trapezoid
    covers the whole slab.  Smooth trapezoids between two close surges whose
    bottom width is at most 2*tau*(lam_plus - lam_minus) are merged into a
    neighbor so no point ends up in more than two smooth trapezoids.
    """
    if n_hi <= n_lo:
        raise ValueError("a slab must span at least one time step")
    grid = sol.grid
    times = sol.times.t
    t_bot, t_top = float(times[n_lo]), float(times[n_hi])
    tau = t_top - t_bot
    lam_minus = float(speed_range[n_lo : n_hi + 1, 0].min())
    lam_plus = float(speed_range[n_lo : n_hi + 1, 1].max())

    surges, oscs = detect_surges(sol, n_lo, n_hi, sigma0, lam_minus, lam_plus, eps)
    eps23 = eps ** (2.0 / 3.0)

    if not surges:
        whole = Trapezoid(t_bot, t_top, grid.x_min, grid.x_max, grid.x_min, grid.x_max)
        return SlabPartition(n_lo, n_hi, t_bot, t_top, lam_minus, lam_plus, [], [], [whole])

    def bottom_right(b: float, k: int) -> float:
        """Bottom right end of the smooth trapezoid whose top ends at b, the top
        left end of surge k: it reaches that surge's bottom, or the domain's
        right end past the last surge, so the cover leaves no cell out."""
        if k == len(surges):
            return grid.x_max
        return max(inb(b - tau * lam_minus - eps23, grid), surges[k].outer.a_bot)

    raw: list[tuple[Trapezoid, bool]] = []
    first_a = surges[0].outer.a_top
    if grid.x_min < first_a:
        raw.append((
            Trapezoid(t_bot, t_top, grid.x_min, bottom_right(first_a, 0), grid.x_min, first_a),
            False,
        ))
    for k, surge in enumerate(surges):
        if surge.outer.b_top >= grid.x_max:
            break
        a = surge.outer.b_top
        b = grid.x_max if k == len(surges) - 1 else surges[k + 1].outer.a_top
        between = k < len(surges) - 1
        if a >= b:
            continue  # overlapping surge trapezoids, nothing to fill
        raw.append((
            Trapezoid(t_bot, t_top, inb(a - tau * lam_plus - eps23, grid),
                      bottom_right(b, k + 1), a, b),
            between,
        ))

    smooth: list[Trapezoid] = []
    pending: Trapezoid | None = None
    min_width = 2.0 * tau * (lam_plus - lam_minus)
    for trap, between in raw:
        if pending is not None:
            trap = _span_union(pending, trap)
            pending = None
        if between and (trap.b_bot - trap.a_bot) <= min_width:
            if smooth:
                smooth[-1] = _span_union(smooth[-1], trap)
            else:
                pending = trap
            continue
        smooth.append(trap)
    if pending is not None:
        smooth.append(pending)

    return SlabPartition(n_lo, n_hi, t_bot, t_top, lam_minus, lam_plus,
                         surges, oscs, smooth)
