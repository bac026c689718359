"""Jump detection, surge trapezoids, and the meso-timeslab decomposition.

A meso-timeslab (a strip of several consecutive time levels) is covered by
surge trapezoids around sufficiently isolated strong discontinuities and by
smooth trapezoids everywhere else.  Trapezoid slopes come from the extreme
wave speeds observed in the slab, which the residual pass records per level.

The cells a trapezoid meets are (levels, j_lo, j_hi) arrays computed for all
of a slab's levels at once.  A slab's block (SlabBlock) is the history's runs
of its levels' ghost-hull cells, one piece per chunk of the history, the
cells between the runs holding the ghost states' bits; each piece is one
component-major array of per-level segments with an offset table.  A
trapezoid's min and max clip each level's range to the hull, reduce each
piece's clipped segments with one reduceat each and join the pieces'
results; a ghost state joins wherever a range reaches past the hull on its
side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D
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
    trap: Trapezoid, sol: SpaceTimeSolution, n_lo: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(levels, j_lo, j_hi) arrays: on each listed level of n_lo..n_hi-1, the
    closed range of cells whose closed space-time rectangle meets the
    trapezoid; boundary touching counts."""
    levels = np.arange(n_lo, n_hi)
    if trap.t_top - trap.t_bot <= 0:
        return levels[:0], levels[:0], levels[:0]
    times = sol.times.t
    w_lo = np.maximum(times[n_lo:n_hi], trap.t_bot)
    w_hi = np.minimum(times[n_lo + 1 : n_hi + 1], trap.t_top)
    # restrict to the sub-window where the trapezoid is non-degenerate
    g_lo = trap.right_at(w_lo) - trap.left_at(w_lo)
    g_hi = trap.right_at(w_hi) - trap.left_at(w_hi)
    keep = (w_lo <= w_hi) & ((g_lo >= 0.0) | (g_hi >= 0.0))
    levels, w_lo, w_hi, g_lo, g_hi = (a[keep] for a in (levels, w_lo, w_hi, g_lo, g_hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        # linear in t, single sign change
        t_root = w_lo + (w_hi - w_lo) * g_lo / (g_lo - g_hi)
    w_lo, w_hi = np.where(g_lo < 0.0, t_root, w_lo), np.where(g_hi < 0.0, t_root, w_hi)
    xlo = np.minimum(trap.left_at(w_lo), trap.left_at(w_hi))
    xhi = np.maximum(trap.right_at(w_lo), trap.right_at(w_hi))
    grid = sol.grid
    slop = 1e-9
    j_lo = np.maximum(np.ceil((xlo - grid.x_min) / grid.dx - 1.0 - slop), 0).astype(np.intp)
    j_hi = np.minimum(np.floor((xhi - grid.x_min) / grid.dx + slop), grid.J - 1).astype(np.intp)
    keep = j_lo <= j_hi
    return levels[keep], j_lo[keep], j_hi[keep]


@dataclass(frozen=True)
class SlabBlock:
    """The ghost-hull cells of levels n_lo..n_hi-1, one piece per chunk of
    the history they lie in: piece p holds the levels n_lo + first[p] up to
    the next piece's first, level after level, as one component-major
    (m, S) array, and cell j of level n_lo + k sits at column start[k] + j -
    lo[k] of its piece for lo[k] <= j < hi[k].  Every other cell of the
    level holds the bits of the ghost state on its side."""

    pieces: tuple[np.ndarray, ...]  # (m, S) each
    first: np.ndarray  # (P,) each piece's first level, counted from n_lo
    lo: np.ndarray  # (L,) each level's ghost hull [lo, hi)
    hi: np.ndarray
    start: np.ndarray  # (L,) the column of each level's first hull cell in its piece


def slab_block(sol: SpaceTimeSolution, n_lo: int, n_hi: int) -> SlabBlock:
    """The SlabBlock of levels n_lo..n_hi-1, read in place from the history,
    which stores the hull cells of the levels in one chunk as one run: each
    piece is a view of its chunk at m = 1."""
    first, pieces, start = zip(*sol.states.hull_cells(n_lo, n_hi))
    lo, hi = sol.ghost_hulls[n_lo:n_hi].T
    return SlabBlock(pieces, np.array(first), lo, hi, np.concatenate(start))


def trapezoid_minmax(sol: SpaceTimeSolution, trap: Trapezoid, n_lo: int, n_hi: int,
                     block: SlabBlock) -> tuple[np.ndarray, np.ndarray] | None:
    """Componentwise (min, max) over all cells meeting the trapezoid, None if
    it meets none; block is slab_block(sol, n_lo, n_hi).  Each level's range
    is clipped to the level's ghost hull, each piece's clipped segments are
    reduced in place and the pieces' results joined, and a ghost state joins
    wherever a range reaches past the hull on its side; min and max do not
    round, so this is the min and max over the ranges."""
    levels, j_lo, j_hi = trapezoid_cell_ranges(trap, sol, n_lo, n_hi)
    if levels.size == 0:
        return None
    k = levels - n_lo
    lo, hi = block.lo[k], block.hi[k]
    shift = block.start[k] - lo
    starts, stops = np.maximum(j_lo, lo) + shift, np.minimum(j_hi + 1, hi) + shift
    keep = starts < stops
    k, starts, stops = k[keep], starts[keep], stops[keep]
    piece = np.searchsorted(block.first, k, side="right") - 1
    mm = None
    for a, b in _runs(piece):
        mm = _join(mm, _segments_minmax(block.pieces[piece[a]], starts[a:b], stops[a:b]))
    # a range that misses the hull reaches past it on one side, so mm is set
    for reaches, ghost in ((j_lo < lo, sol.ghost_left), (j_hi >= hi, sol.ghost_right)):
        if reaches.any():
            ghost = np.asarray(ghost, dtype=float)
            mm = _join(mm, (ghost, ghost))
    return mm


def _join(mm, new):
    """The componentwise (min, max) of two, either of which may be None."""
    if mm is None or new is None:
        return mm or new
    return np.minimum(mm[0], new[0]), np.maximum(mm[1], new[1])


def _segments_minmax(values: np.ndarray, starts: np.ndarray,
                     stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (min, max) over the ascending, disjoint column segments
    [starts, stops) of values: one reduceat each over interleaved start/stop
    offsets on the columns from the first start to the last stop, keeping
    the segments' results and dropping those of the gaps between them."""
    first = int(starts[0])
    offsets = np.empty(2 * len(starts) - 1, dtype=np.intp)
    offsets[0::2] = starts - first
    offsets[1::2] = stops[:-1] - first
    span = values[:, first:int(stops[-1])]
    return (np.minimum.reduceat(span, offsets, axis=1)[:, ::2].min(axis=1),
            np.maximum.reduceat(span, offsets, axis=1)[:, ::2].max(axis=1))


def _range_osc(mm) -> float:
    return float((mm[1] - mm[0]).max()) if mm is not None else 0.0


def oscillation(sol: SpaceTimeSolution, trap: Trapezoid, n_lo: int, n_hi: int,
                block: SlabBlock) -> float:
    """Sup-norm range of the solution over all cells meeting the trapezoid;
    block is slab_block(sol, n_lo, n_hi)."""
    return _range_osc(trapezoid_minmax(sol, trap, n_lo, n_hi, block))


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


def detect_surges(
    sol: SpaceTimeSolution, n_lo: int, n_hi: int, sigma0: float, lam_minus: float,
    lam_plus: float, eps: float, block: SlabBlock,
) -> tuple[list[SurgeTrapezoid], list[float]]:
    """Confirmed surge trapezoids of a slab and their oscillations kappa'.

    A bottom candidate is confirmed as a surge when the cone of extreme wave
    speeds emanating from it contains exactly one jump region at the top
    level; jump regions closer than the minimal surge distance are merged
    into one candidate first.  The strip half-widths start at
    eps^(1/3) - eps^(2/3) per side and shrink by eps^(2/3) per side while
    the sub-trapezoid oscillations stay below tau, stopping once the total
    width reaches eps^(2/3).  kappa' is the oscillation over the union of the
    sub-trapezoids of every iteration: the outer edges move inward as the
    strip shrinks, so the union can hold cells the final sub-trapezoids no
    longer meet.  block is slab_block(sol, n_lo, n_hi).
    """
    grid = sol.grid
    times = sol.times.t
    t_bot, t_top = float(times[n_lo]), float(times[n_hi])
    tau = t_top - t_bot
    sep = (lam_plus - lam_minus) * tau

    bottom = merge_close_regions(detect_jumps(sol, n_lo, None, sigma0), sep)

    eps13 = eps ** (1.0 / 3.0)
    eps23 = eps ** (2.0 / 3.0)
    surges: list[SurgeTrapezoid] = []
    oscs: list[float] = []

    def union(mm, trap: Trapezoid):
        """Running (min, max) extended by the cells meeting trap."""
        return _join(mm, trapezoid_minmax(sol, trap, n_lo, n_hi, block))

    for region in bottom:
        cone = (region.x_left + lam_minus * tau, region.x_right + lam_plus * tau)
        top_jumps = merge_close_regions(detect_jumps(sol, n_hi, cone, sigma0), sep)
        if len(top_jumps) != 1:
            continue
        top = top_jumps[0]

        floor = 0.5 * eps23  # per side, so the total width stops at eps^(2/3)
        delta_l = delta_r = max(eps13 - eps23, floor)
        trap = build_surge_trapezoid(tau, region, top, delta_l, delta_r,
                                     lam_minus, lam_plus, grid, eps13, t_bot, t_top)
        mm_l, mm_r = union(None, trap.left), union(None, trap.right)
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

        surges.append(trap)
        oscs.append(max(_range_osc(mm_l), _range_osc(mm_r)))
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
    speed_range: np.ndarray, block: SlabBlock,
) -> SlabPartition:
    """Cover the slab by surge trapezoids plus gap-filling smooth trapezoids.

    The slopes lam_minus/lam_plus are the extreme signed wave speeds over
    levels n_lo..n_hi, read from rows n_lo..n_hi of speed_range, the (N+1, 2)
    per-level (min, max) that epsilon records.  block is
    slab_block(sol, n_lo, n_hi).  Without surges a single smooth trapezoid
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

    surges, oscs = detect_surges(sol, n_lo, n_hi, sigma0, lam_minus, lam_plus, eps, block)
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
