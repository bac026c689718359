"""Exact Riemann solvers for Burgers and the p-system.

Used to build initial data (cell averages of the self-similar solution) and
reference solutions for measuring L-inf/L1 errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, level_blocks
from .models import Burgers, PSystem

RH_TOL = 1e-10
STAR_ATOL = 1e-13
# The velocity mismatch the star density may leave.  Near vacuum the
# mismatch's slope grows like rho^-0.8, so a step below STAR_ATOL can still
# leave more than RH_TOL across a rarefaction.
STAR_GTOL = 1e-12
MAX_ITER = 200


class VacuumError(ValueError):
    """The Riemann data admit no positive-density solution."""


class ConvergenceError(RuntimeError):
    """Star-state iteration failed to converge."""


@dataclass(frozen=True)
class Wave:
    """One wave family: shock(speed), rarefaction(head, tail), contact(speed),
    or none."""

    kind: str
    speed: float | None = None
    head: float | None = None
    tail: float | None = None

    def speeds(self) -> tuple[float, ...]:
        """Speeds spanned by the wave, in spatial (left-to-right) order."""
        if self.kind in ("shock", "contact"):
            return (self.speed,)
        if self.kind == "rarefaction":
            return tuple(sorted((self.head, self.tail)))
        return ()


@dataclass(frozen=True)
class WaveFan:
    """Self-similar solution of a Riemann problem."""

    model: object
    left: np.ndarray
    right: np.ndarray
    star: np.ndarray | None
    waves: tuple[Wave, ...]
    # (xi_lo, xi_hi, kind, payload): kind is "const" (payload = state) or
    # "fan" (payload = wave family index); built once in solve_riemann.
    segments: tuple = field(repr=False, default=())

    def wave_speeds(self) -> list[float]:
        out: list[float] = []
        for w in self.waves:
            out.extend(w.speeds())
        return out

    def validate(self) -> None:
        speeds = self.wave_speeds()
        if any(b < a - RH_TOL for a, b in zip(speeds, speeds[1:])):
            raise AssertionError(f"wave speeds not ordered: {speeds}")
        states = self._states_between_waves()
        for k, w in enumerate(self.waves):
            ul, ur = states[k], states[k + 1]
            if w.kind == "shock":
                fl, fr = self.model.flux(ul), self.model.flux(ur)
                resid = np.abs(fr - fl - w.speed * (ur - ul)).max()
                scale = 1.0 + float(np.abs(fl).max())
                if resid > RH_TOL * scale:
                    raise AssertionError(f"Rankine-Hugoniot residual {resid:.3e}")
            elif w.kind == "rarefaction" and isinstance(self.model, PSystem):
                if abs(_riemann_invariant(self.model, ul, k) -
                       _riemann_invariant(self.model, ur, k)) > RH_TOL:
                    raise AssertionError("Riemann invariant jumps across rarefaction")

    def _states_between_waves(self) -> list[np.ndarray]:
        if len(self.waves) == 1:
            return [self.left, self.right]
        return [self.left, self.star, self.right]


def _riemann_invariant(model: PSystem, u: np.ndarray, family: int) -> float:
    rho, q = float(u[0]), float(u[1])
    v = q / rho
    c = float(model.sound_speed(np.asarray(rho)))
    sign = 1.0 if family == 0 else -1.0
    return v + sign * 2.0 * c / (model.gamma - 1.0)


def _psystem_branch(model: PSystem, rho: float, rho_k: float):
    """Velocity change across one wave connecting rho_k to rho, and its
    derivative in rho: rarefaction branch for rho <= rho_k, shock otherwise."""
    c = float(model.sound_speed(np.asarray(rho)))
    if rho <= rho_k:
        c_k = float(model.sound_speed(np.asarray(rho_k)))
        return 2.0 * (c - c_k) / (model.gamma - 1.0), c / rho
    p, p_k = model.C * rho**model.gamma, model.C * rho_k**model.gamma
    h = (p - p_k) * (1.0 / rho_k - 1.0 / rho)
    phi = np.sqrt(h)
    if phi < 1e-14:
        return phi, c / rho
    dh = model.C * model.gamma * rho ** (model.gamma - 1.0) * (1.0 / rho_k - 1.0 / rho)
    dh += (p - p_k) / rho**2
    return phi, dh / (2.0 * phi)


def _solve_star_density(model: PSystem, rho_l, v_l, rho_r, v_r) -> float:
    """Root of the velocity-match function by bisection-safeguarded Newton."""

    def g(rho: float):
        phi_l, dphi_l = _psystem_branch(model, rho, rho_l)
        phi_r, dphi_r = _psystem_branch(model, rho, rho_r)
        return (v_l - phi_l) - (v_r + phi_r), -(dphi_l + dphi_r)

    c_l = float(model.sound_speed(np.asarray(rho_l)))
    c_r = float(model.sound_speed(np.asarray(rho_r)))
    if v_l - v_r + 2.0 * (c_l + c_r) / (model.gamma - 1.0) <= 0.0:
        raise VacuumError("Riemann data produce a vacuum region")

    lo = 1e-14 * min(rho_l, rho_r)
    hi = max(rho_l, rho_r)
    for _ in range(MAX_ITER):
        if g(hi)[0] < 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the star density")

    x = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        gx, dgx = g(x)
        if gx > 0.0:
            lo = x
        else:
            hi = x
        if dgx != 0.0:
            x_new = x - gx / dgx
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= STAR_ATOL and abs(g(x_new)[0]) <= STAR_GTOL:
            return x_new
        x = x_new
    raise ConvergenceError(f"star density iteration did not converge in {MAX_ITER} steps")


def _burgers_fan(model, uL, uR) -> WaveFan:
    a, b = float(uL[0]), float(uR[0])
    if a == b:
        wave = Wave("none")
        segments = ((-np.inf, np.inf, "const", uL),)
    elif a > b:
        s = 0.5 * (a + b)
        wave = Wave("shock", speed=s)
        segments = ((-np.inf, s, "const", uL), (s, np.inf, "const", uR))
    else:
        wave = Wave("rarefaction", head=a, tail=b)
        segments = (
            (-np.inf, a, "const", uL),
            (a, b, "fan", 0),
            (b, np.inf, "const", uR),
        )
    return WaveFan(model, uL, uR, None, (wave,), segments)


def _psystem_fan(model: PSystem, uL, uR) -> WaveFan:
    rho_l, q_l = float(uL[0]), float(uL[1])
    rho_r, q_r = float(uR[0]), float(uR[1])
    v_l, v_r = q_l / rho_l, q_r / rho_r

    rho_s = _solve_star_density(model, rho_l, v_l, rho_r, v_r)
    v_s = v_l - _psystem_branch(model, rho_s, rho_l)[0]
    star = np.array([rho_s, rho_s * v_s])
    c_s = float(model.sound_speed(np.asarray(rho_s)))
    c_l = float(model.sound_speed(np.asarray(rho_l)))
    c_r = float(model.sound_speed(np.asarray(rho_r)))

    same_tol = 1e-12 * max(rho_l, rho_r)
    waves = []
    segments = [(-np.inf, None, "const", uL)]

    def close_segment(upto):
        lo, _, kind, payload = segments[-1]
        segments[-1] = (lo, upto, kind, payload)

    if abs(rho_s - rho_l) <= same_tol:
        waves.append(Wave("none"))
    elif rho_s > rho_l:
        s1 = (star[1] - q_l) / (rho_s - rho_l)
        waves.append(Wave("shock", speed=s1))
        close_segment(s1)
        segments.append((s1, None, "const", star))
    else:
        head, tail = v_l - c_l, v_s - c_s
        waves.append(Wave("rarefaction", head=head, tail=tail))
        close_segment(head)
        segments.append((head, tail, "fan", 0))
        segments.append((tail, None, "const", star))

    if abs(rho_s - rho_r) <= same_tol:
        waves.append(Wave("none"))
        close_segment(np.inf)
    elif rho_s > rho_r:
        s2 = (q_r - star[1]) / (rho_r - rho_s)
        waves.append(Wave("shock", speed=s2))
        close_segment(s2)
        segments.append((s2, np.inf, "const", uR))
    else:
        tail, head = v_s + c_s, v_r + c_r
        waves.append(Wave("rarefaction", head=head, tail=tail))
        close_segment(tail)
        segments.append((tail, head, "fan", 1))
        segments.append((head, np.inf, "const", uR))

    fan = WaveFan(model, uL, uR, star, tuple(waves), tuple(segments))
    fan.validate()
    return fan


def solve_riemann(model, uL, uR) -> WaveFan:
    """Exact self-similar solution for two-state initial data."""
    uL = np.asarray(uL, dtype=float).reshape(model.m)
    uR = np.asarray(uR, dtype=float).reshape(model.m)
    model.check_domain(uL)
    model.check_domain(uR)
    if isinstance(model, Burgers):
        return _burgers_fan(model, uL, uR)
    if np.array_equal(uL, uR):
        return WaveFan(model, uL, uR, uL,
                       (Wave("none"), Wave("none")),
                       ((-np.inf, np.inf, "const", uL),))
    return _psystem_fan(model, uL, uR)


def _fan_integral(fan: WaveFan, family: int, a: np.ndarray, b: np.ndarray,
                  origin: float, t) -> np.ndarray:
    """Integral of the rarefaction profile of the given family over the
    x-intervals [a, b] inside it at the times t > 0 (one per interval, or
    one for all), in closed form, (n, m)."""
    model = fan.model
    if isinstance(model, Burgers):
        return ((b - a) * (0.5 * (a + b) - origin) / t)[:, None]
    gamma = model.gamma
    p = 2.0 / (gamma - 1.0)
    k = (gamma - 1.0) / (gamma + 1.0)
    s = -1.0 if family == 0 else 1.0
    w = _riemann_invariant(model, fan.left if family == 0 else fan.right, family)
    # In the fan c = s*k*(xi - w) is linear in xi = (x - origin)/t, rho = A*c^p
    # and q = rho*v = A*c^p*(w + s*p*c), so both integrate as powers of c;
    # c_b^n - c_a^n = c_a^n*expm1(n*log1p(dc/c_a)) keeps narrow cells exact.
    c_a = s * k * ((a - origin) / t - w)
    log_ratio = np.log1p(s * k * (b - a) / (t * c_a))
    power = t * (model.C * gamma) ** (-1.0 / (gamma - 1.0)) / (s * k) * c_a ** (p + 1.0)
    out = np.empty((a.size, 2))
    out[:, 0] = power * np.expm1((p + 1.0) * log_ratio) / (p + 1.0)
    out[:, 1] = w * out[:, 0] + s * p / (p + 2.0) * power * c_a * np.expm1((p + 2.0) * log_ratio)
    return out


def _ragged(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row r and column j of every lo[r] <= j < hi[r], row after row."""
    counts = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(lo.size), counts)
    return rows, np.arange(rows.size) + (lo - (np.cumsum(counts) - counts))[rows]


def _average_blocks(fan: WaveFan, origin: float, t: np.ndarray, edges: np.ndarray,
                    dx: float, needed: np.ndarray):
    """Yield (levels, cells, averages) per block of consecutive levels: two
    slices, and the cell averages of the self-similar solution at the times
    t[levels] over the grid cells in cells, a (levels, cells, m) array.

    Each level's cells are its row [lo, hi) of needed joined with the fan's
    band, the cells not wholly inside one of the fan's two outer constant
    states (outside the band each average holds the bits of the outer state
    on its side); at t = 0 they are the whole grid.  The blocks are
    grid.level_blocks of the levels' cells: a block's cells are the union of
    its levels', and it holds at most grid.BLOCK_CELLS cells (cells x levels)
    unless one level alone is wider.

    At t > 0 the breakpoints x_k = origin + t*xi_k split each level: the
    cells wholly inside a constant state get that state, the cells wholly
    inside a rarefaction their closed-form averages, and each cell that
    breakpoints cut the sum of its pieces in segment order, from 0.0; a
    breakpoint on an edge cuts no cell.  At t = 0 each cell wholly on one
    side of the origin gets the outer state on that side, and the cell
    straddling it the width-weighted mix of the two states.  What is per
    breakpoint is found for all the levels at once, and what is per cell one
    block at a time.
    """
    J, m, N = edges.size - 1, fan.model.m, t.size
    zero = t == 0.0
    t = np.where(zero, 1.0, t)  # the t = 0 levels are overwritten with the mix below
    # Segment k spans x[:, k]..x[:, k + 1]; -inf and inf close the fan.
    x = np.empty((N, len(fan.segments) + 1))
    x[:, 0], x[:, -1] = -np.inf, np.inf
    with np.errstate(over="ignore"):  # a breakpoint past the float range is off the grid
        x[:, 1:-1] = origin + t[:, None] * [seg[1] for seg in fan.segments[:-1]]
    left, right = edges.searchsorted(x, "left"), edges.searchsorted(x, "right")
    firsts = np.minimum(left[:, :-1], J)  # each segment's first cell wholly right of its left end
    stops = np.maximum(right[:, 1:] - 1, 0)  # past its cells wholly left of its right end
    fans = [(k, family) for k, (_, _, kind, family) in enumerate(fan.segments) if kind == "fan"]

    # Each level in runs: segment 0's whole cells, the cell that breakpoint
    # x[:, 1] cuts (or none), segment 1's whole cells, ...; a run that would
    # end before the one ahead of it is empty.  ends[:, r]..ends[:, r + 1]
    # are run r's cells.
    ends = np.zeros((N, 2 * len(fan.segments)), dtype=np.intp)
    ends[:, 1::2], ends[:, 2::2] = stops, firsts[:, 1:]
    ends = np.maximum.accumulate(ends, axis=1)
    runs = np.zeros((len(fan.segments), 2, m))  # a segment's state, then its cut cell's 0.0
    states = runs[:, 0]
    for k, (_, _, kind, payload) in enumerate(fan.segments):
        if kind == "const":
            states[k] = payload
    runs = runs.reshape(-1, m)[:-1]

    # The inner breakpoints x[:, 1:-1]: the cell each cuts, and its pieces in
    # the segments up to its left (read only from the leftmost breakpoint in
    # a cell, so from the cell's left edge) and down to its right.  Clipped
    # to the grid, the breakpoints keep the bits of every piece that is read
    # and leave the others finite.
    cut = (left[:, 1:-1] == right[:, 1:-1]) & (0 < right[:, 1:-1]) & (right[:, 1:-1] <= J)
    cell = np.minimum(right[:, 1:-1], J) - 1
    shared = np.zeros((N, cut.shape[1] + 1), dtype=bool)  # [:, k + 1]: k and k + 1 cut one cell
    shared[:, 1:-1] = cut[:, :-1] & cut[:, 1:] & (cell[:, :-1] == cell[:, 1:])
    leads = cut & ~shared[:, :-1]  # the leftmost breakpoint in its cell
    clipped = np.clip(x, edges[0], edges[-1])
    up_a, up_b = edges[cell], clipped[:, 1:-1]
    down_a, down_b = clipped[:, 1:-1], np.minimum(edges[cell + 1], clipped[:, 2:])
    up = (up_b - up_a)[:, :, None] * states[:-1]
    down = (down_b - down_a)[:, :, None] * states[1:]
    for k, family in fans:
        # the levels where the fan's left end cuts a cell, and where its right end does first
        downs = cut[:, k - 1].nonzero()[0] if k else np.arange(0)
        ups = leads[:, k].nonzero()[0] if k < cut.shape[1] else np.arange(0)
        pieces = _fan_integral(fan, family, np.concatenate([down_a[downs, k - 1], up_a[ups, k]]),
                               np.concatenate([down_b[downs, k - 1], up_b[ups, k]]), origin,
                               np.concatenate([t[downs], t[ups]]))
        down[downs, k - 1], up[ups, k] = pieces[:downs.size], pieces[downs.size:]
    # Each cut cell sums its pieces left to right: the piece up from its
    # leftmost breakpoint, then each breakpoint's piece down.
    sums = np.empty_like(down)
    for k in range(cut.shape[1]):
        head = np.where(leads[:, k, None], 0.0 + up[:, k], sums[:, k - 1] if k else 0.0)
        np.add(head, down[:, k], out=sums[:, k])
    cut_rows, k = (cut & ~shared[:, 1:]).nonzero()  # the rightmost breakpoint in its cell
    cut_cells, cut_averages = cell[cut_rows, k], sums[cut_rows, k] / dx
    if zero.any():
        left_w = np.clip(origin, edges[:-1], edges[1:]) - edges[:-1]
        mix = (left_w[:, None] * fan.left + (dx - left_w)[:, None] * fan.right) / dx
        mix[edges[1:] <= origin] = fan.segments[0][3]
        mix[edges[:-1] >= origin] = fan.segments[-1][3]

    # Each level's cells: its needed cells and its band, from the end of
    # segment 0's whole cells to the start of the last segment's.
    lo = np.where(zero, 0, np.minimum(needed[:, 0], stops[:, 0]))
    hi = np.where(zero, J, np.maximum(needed[:, 1], firsts[:, -1]))
    for start, stop, a, b in level_blocks(lo, hi):
        lengths = np.diff(np.clip(ends[start:stop], a, b), axis=1).ravel()
        out = np.repeat(np.tile(runs, (stop - start, 1)), lengths, axis=0)
        out = out.reshape(stop - start, b - a, m)
        for k, family in fans:
            rows, cells = _ragged(firsts[start:stop, k], stops[start:stop, k])
            out[rows, cells - a] = _fan_integral(fan, family, edges[cells], edges[cells + 1],
                                                 origin, t[start:stop][rows]) / dx
        i, j = cut_rows.searchsorted([start, stop])
        out[cut_rows[i:j] - start, cut_cells[i:j] - a] = cut_averages[i:j]
        if zero[start:stop].any():
            out[zero[start:stop]] = mix[a:b]
        yield slice(start, stop), slice(a, b), out
        del out  # with the caller's, so that one block at a time is held


def _check_times(origin: float, times: np.ndarray) -> None:
    """Refuse a non-finite origin and a non-finite or negative time."""
    if not np.isfinite(origin):
        raise ValueError(f"origin must be finite, got {origin}")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time must be finite, got {bad[0]}")
    if (times < 0).any():
        raise ValueError(f"time must be non-negative, got {times[times < 0][0]}")


def cell_average_exact(fan: WaveFan, origin: float, t: float, grid: Grid1D) -> np.ndarray:
    """Cell averages of the self-similar solution at time t.

    Cells wholly inside a constant state get that state.  Rarefaction
    profiles are integrated in closed form: xi^2/2 for Burgers, powers of the
    sound speed (linear in xi) for the p-system.  Cells that a shock, a
    contact or a fan edge cuts sum the pieces on either side.  At t = 0 each
    cell wholly on one side of the origin gets the outer state on that side
    (segments[0] or segments[-1]; fan.left and fan.right may differ from
    them in the sign of a zero), and the cell straddling the origin the
    width-weighted mix of the two states.
    """
    times = np.array([t], dtype=float)
    _check_times(origin, times)
    blocks = _average_blocks(fan, origin, times, grid.interfaces(), grid.dx,
                             np.array([[0, grid.J]]))
    return next(blocks)[2][0]


def exact_l1_distances(fan: WaveFan, origin: float, grid: Grid1D, times: np.ndarray,
                       history) -> np.ndarray:
    """Per time level and component, the sum over cells of |u - exact cell
    averages|, (N+1, m), where history is the LevelHistory of the levels u
    at times; a ValueError names both counts when it holds fewer or more
    levels than there are times.

    The exact averages (those of cell_average_exact) come a block of levels
    at a time (grid.level_blocks), over the union of the levels' ghost hulls
    and the fan's band (_average_blocks).  Outside it each level u holds its
    ghost state and the averages the fan's outer state on that side, so
    where their bits agree every term there is +0.0; on a side where they
    differ the block runs out to the end of the grid.  Each block's sums
    come from history.l1_distances.
    """
    times = np.asarray(times, dtype=float)
    _check_times(origin, times)
    if len(history) != len(times):
        raise ValueError(f"the history holds {len(history)} levels for {len(times)} times")
    needed = history.hulls.copy()
    if history.ghost_left.tobytes() != fan.segments[0][3].tobytes():
        needed[:, 0] = 0
    if history.ghost_right.tobytes() != fan.segments[-1][3].tobytes():
        needed[:, 1] = grid.J
    out = np.empty((len(times), fan.model.m))
    for levels, cells, averages in _average_blocks(fan, origin, times, grid.interfaces(),
                                                   grid.dx, needed):
        out[levels] = history.l1_distances(levels.start, levels.stop, cells.start, cells.stop,
                                           averages)
        del averages  # so that the next block is built in this one's place
    return out
