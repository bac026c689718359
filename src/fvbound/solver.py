"""First-order finite-volume time marching and the space-time solution record."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py wraps cfl_timestep here; the stepping core fuses its scan.
from .grid import Grid1D, TimeLevels, cfl_timestep, window_sums  # noqa: F401
from .models import (DomainError, interface_fluxes, make_model, normalize_flux_kind,
                     normalize_model_name)
# perfbench/tracing.py wraps numerical_flux here.
from .models import numerical_flux  # noqa: F401

# march refuses to take more steps than this before reaching t_final.
MAX_STEPS = 10_000_000

# The values a chunk of a LevelHistory holds, unless one level needs more.
CHUNK = 2**16


class LevelHistory:
    """The (N+1, J, m) levels of a space-time solution, each stored as its
    ghost hull.

    Every cell of a level left of its hull [lo, hi) holds the bits of
    ghost_left and every cell at or right of hi those of ghost_right; only
    the hull cells are stored, in chunks of one fixed capacity, max(CHUNK,
    J*m) values, with a (lo, hi, chunk, at) row per level.  A level never
    straddles two chunks: one that does not fit in the rest of the last
    chunk starts a new one, so the levels in a chunk are one contiguous run
    of it.  Each chunk is allocated once and never grown; freeze trims only
    the last.

    append builds the history level by level and freeze makes it read-only.
    Two readers, walk (the levels forward) and columns (a dense block of
    levels over a range of cells), and two reductions, l1_distances (read
    with columns) and range_minmax (min and max over sets of cell ranges),
    reach the stored cells through _cells; hulls gives the (lo, hi) rows.
    The history has no dense form: np.asarray(history) raises a TypeError.
    """

    def __init__(self, J: int, m: int, ghost_left, ghost_right):
        self._J, self._m = J, m
        self.ghost_left = _frozen(np.array(ghost_left, dtype=float).reshape(m))
        self.ghost_right = _frozen(np.array(ghost_right, dtype=float).reshape(m))
        self._capacity = max(CHUNK, J * m)
        self._chunks = [np.empty(self._capacity)]
        self._index = np.empty((16, 4), dtype=np.intp)  # (lo, hi, chunk, at) per level
        self._n = self._at = self._used = 0  # levels, values in the last chunk, values held

    @classmethod
    def from_levels(cls, levels, ghost_left, ghost_right) -> LevelHistory:
        """The frozen history of the (J, m) levels of a dense (N+1, J, m)
        array or of a LevelHistory, each stored as its tightest ghost hull
        against ghost_left and ghost_right."""
        if isinstance(levels, LevelHistory):
            shape, levels = levels.shape, levels.walk()
        else:
            levels = np.ascontiguousarray(levels, dtype=float)
            shape = levels.shape
        history = cls(*shape[1:], ghost_left, ghost_right)
        for level in levels:
            lo, hi = _ghost_hull(level, ghost_left, ghost_right)
            history.append(level[lo:hi], lo, hi)
        return history.freeze()

    def keyed_on(self, ghost_left, ghost_right) -> bool:
        """Whether the history's ghosts hold the bits of these."""
        return all(np.asarray(new, dtype=float).tobytes() == own.tobytes()
                   for new, own in ((ghost_left, self.ghost_left),
                                    (ghost_right, self.ghost_right)))

    def append(self, cells: np.ndarray, lo: int, hi: int) -> None:
        """Store the level after the last one by its ghost hull [lo, hi) and
        its (hi - lo, m) hull cells: every other cell of the level holds the
        bits of the ghost state on its side."""
        if not self._index.flags.writeable:
            raise ValueError("the history is frozen")
        size = (hi - lo) * self._m
        if self._at + size > self._capacity:
            self._chunks.append(np.empty(self._capacity))
            self._at = 0
        if self._n == len(self._index):
            self._index.resize((self._n * 3 // 2, 4), refcheck=False)
        chunk = len(self._chunks) - 1
        self._cells(chunk, self._at, self._at + size)[...] = cells
        self._index[self._n] = lo, hi, chunk, self._at
        self._n, self._at, self._used = self._n + 1, self._at + size, self._used + size

    def freeze(self) -> LevelHistory:
        """Trim the last chunk and the index to what they hold and make them
        read-only."""
        self._chunks[-1].resize(self._at, refcheck=False)
        self._index.resize((self._n, 4), refcheck=False)
        for chunk in self._chunks:
            _frozen(chunk)
        _frozen(self._index)
        return self

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._n, self._J, self._m

    @property
    def nbytes(self) -> int:
        """The bytes of the cell values held; the index adds 32 bytes a level."""
        return self._used * self._chunks[0].itemsize

    @property
    def hulls(self) -> np.ndarray:
        """The (N+1, 2) ghost hulls [lo, hi) of the levels, read-only once frozen."""
        return self._index[:self._n, :2]

    def _cells(self, chunk: int, at: int, end: int) -> np.ndarray:
        """The values at..end-1 of a chunk as (cells, m) rows: a level's
        hull cells, or those of a run of levels that lie in the chunk."""
        return self._chunks[chunk][at:end].reshape(-1, self._m)

    def columns(self, start: int, stop: int, a: int, b: int) -> np.ndarray:
        """The cells a..b-1 of levels start..stop-1 as one (b - a, stop -
        start, m) array whose levels each lie contiguous in memory; the cells
        must hold every level's hull.  Each level's hull cells are one slice
        copy, and every other cell, a = -1 and b = J + 1 included, holds the
        ghost state on its side."""
        m = self._m
        out = np.empty((stop - start, b - a, m))
        for level, (lo, hi, chunk, at) in zip(out, self._index[start:stop].tolist()):
            level[:lo - a] = self.ghost_left
            level[lo - a:hi - a] = self._cells(chunk, at, at + (hi - lo) * m)
            level[hi - a:] = self.ghost_right
        return out.transpose(1, 0, 2)

    def l1_distances(self, start: int, stop: int, a: int, b: int,
                     values: np.ndarray) -> np.ndarray:
        """Per level start..stop-1 and component, the sum over the J cells of
        |level - values|, (stop - start, m), where values (stop - start,
        b - a, m) holds each level's values over the cells a..b-1, which
        hold its hull, and every other cell's values are the level's own.
        The block's levels come from columns and each level's sum from
        grid.window_sums, the row-order sum, which has the same bits as
        over all the level's cells, where the others add +0.0."""
        diff = self.columns(start, stop, a, b)
        diff -= values.transpose(1, 0, 2)
        return window_sums(np.abs(diff, out=diff))

    def range_minmax(self, start: int, stop: int, j_lo: np.ndarray,
                     j_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per set k of closed cell ranges [j_lo[k, l], j_hi[k, l]] on the
        levels start + l, given as (K, stop - start) arrays in which a range
        with j_lo > j_hi is empty, the componentwise min and max over the
        set's cells, as two (K, m) arrays: +inf and -inf for a set with no
        cell.  Wherever a range passes the level's hull, the ghost state on
        that side joins.

        The ranges clipped to the hulls of the levels in one chunk are
        reduced with one reduceat each for min and max, on the chunk in place
        at m = 1 and on one component-major copy of their span at m >= 2.
        Sorted by their ends, the segments of a cover each start within the
        one before, so only cells that no segment meets are reduced in vain.
        A segment that ends at the span's end, which no offset may be, stops
        a cell short and takes that cell back from its odd entry."""
        m, K = self._m, len(j_lo)
        rows, per_chunk = self._index[start:stop], self._capacity // m
        met = np.flatnonzero(j_lo <= j_hi)
        sets, levels = np.divmod(met, stop - start)
        j_lo, j_hi = np.take(j_lo, met), np.take(j_hi, met)
        lo, hi = rows[levels, 0], rows[levels, 1]
        mins, maxs = np.full((K + 1, m), np.inf), np.full((K + 1, m), -np.inf)
        for passes, ghost in ((j_lo < lo, self.ghost_left), (j_hi >= hi, self.ghost_right)):
            reaches = np.bincount(sets[passes], minlength=K + 1) > 0
            mins[reaches] = np.minimum(mins[reaches], ghost)
            maxs[reaches] = np.maximum(maxs[reaches], ghost)
        first, end = np.maximum(j_lo, lo), np.minimum(j_hi + 1, hi)
        keep = np.flatnonzero(first < end)
        # each segment's rows [first, end) over the chunks laid end to end,
        # per_chunk rows each, sorted by their ends
        row = rows[:, 2] * per_chunk + rows[:, 3] // m - rows[:, 0]
        first, end = first[keep] + row[levels[keep]], end[keep] + row[levels[keep]]
        order = np.argsort(end, kind="stable")
        sets, first, end = sets[keep][order], first[order], end[order]
        chunk = first // per_chunk
        labels, low, high = [], [], []
        for a, b in _runs(chunk):
            r0, r1 = int(first[a:b].min()), int(end[b - 1])
            at = int(chunk[a]) * per_chunk
            span = self._cells(int(chunk[a]), (r0 - at) * m, (r1 - at) * m).T
            if m > 1:
                span = np.ascontiguousarray(span)
            offsets = np.empty(2 * (b - a), dtype=np.intp)
            offsets[0::2] = first[a:b] - r0
            offsets[1::2] = np.minimum(end[a:b], r1 - 1) - r0
            low.append(np.minimum.reduceat(span, offsets, axis=1))
            high.append(np.maximum.reduceat(span, offsets, axis=1))
            label = np.repeat(sets[a:b], 2)
            label[1::2][end[a:b] < r1] = K  # an odd entry that holds no cell of the set
            labels.append(label)
        if labels:
            labels = np.concatenate(labels)
            np.minimum.at(mins, labels, np.concatenate(low, axis=1).T)
            np.maximum.at(maxs, labels, np.concatenate(high, axis=1).T)
        return mins[:K], maxs[:K]

    def __len__(self) -> int:
        return self._n

    def walk(self, start: int = 0, stop: int | None = None):
        """Yield the levels start..stop-1 as one read-only (J, m) view,
        updated in place: each is valid until the next resume.  A step
        writes the level's hull cells and gives the cells that leave the
        hull the ghost state on their new side."""
        stop = self._n if stop is None else stop
        if not 0 <= start <= stop <= self._n:
            raise IndexError(f"levels {start}..{stop} out of range for {self._n} levels")
        level = np.empty((self._J, self._m))
        view = _frozen(level.view())
        before_lo, before_hi = 0, self._J  # every cell is written at start
        for lo, hi, chunk, at in self._index[start:stop].tolist():
            level[before_lo:lo] = self.ghost_left
            level[hi:before_hi] = self.ghost_right
            level[lo:hi] = self._cells(chunk, at, at + (hi - lo) * self._m)
            before_lo, before_hi = lo, hi
            yield view

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a level history has no dense form: read its levels with walk, "
                        "or a block of them with columns")

    def __array_function__(self, func, types, args, kwargs):
        """np.array_equal of two histories compares them level by level;
        numpy refuses every other function, as np.asarray is refused."""
        if func is np.array_equal and all(isinstance(a, LevelHistory) for a in args[:2]):
            a, b = args[:2]
            return a.shape == b.shape and all(
                np.array_equal(u, v, **kwargs) for u, v in zip(a.walk(), b.walk()))
        return NotImplemented


def _runs(values: np.ndarray) -> list[tuple[int, int]]:
    """The runs [a, b) of equal entries of a 1-D array."""
    if not len(values):
        return []
    cuts = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(values)]))


def _ghost_hull(level: np.ndarray, ghost_left: np.ndarray,
                ghost_right: np.ndarray) -> tuple[int, int]:
    """The tightest ghost hull [lo, hi) of a (J, m) level: every cell left of
    lo holds the bits of ghost_left and every cell at or right of hi those of
    ghost_right."""
    bits = level.view(np.int64)
    off_left = (bits != np.asarray(ghost_left, dtype=float).view(np.int64)).any(axis=1)
    off_right = (bits != np.asarray(ghost_right, dtype=float).view(np.int64)).any(axis=1)
    J = len(level)
    lo = int(off_left.argmax()) if off_left.any() else J
    hi = J - int(off_right[::-1].argmax()) if off_right.any() else 0
    return lo, max(lo, hi)  # cells in [hi, lo) hold both ghosts' bits


@dataclass
class SpaceTimeSolution:
    """Piecewise-constant numerical solution on [t^0, T] x [x_min, x_max].

    states is the LevelHistory of the (N+1, J, m) cell values, which stores
    each level as its ghost hull against the record's ghosts; a hand-built
    record may pass the dense array, and a record whose ghosts differ from
    its history's (dataclasses.replace with new ghosts) stores its levels
    again against its own.  The outer ghost states are constant in time
    (frozen at the initial first/last cell values).  ghost_hulls gives each
    level's ghost hull [lo, hi): every cell outside it holds the bits of the
    ghost state on its side, so a reader that needs the cells' values reads
    only the hull.
    """

    grid: Grid1D
    times: TimeLevels
    states: LevelHistory  # (N+1, J, m)
    ghost_left: np.ndarray  # (m,)
    ghost_right: np.ndarray  # (m,)
    model: object
    flux_kind: str
    cfl: float

    def __post_init__(self):
        if not (isinstance(self.states, LevelHistory)
                and self.states.keyed_on(self.ghost_left, self.ghost_right)):
            self.states = LevelHistory.from_levels(self.states, self.ghost_left,
                                                   self.ghost_right)

    @property
    def ghost_hulls(self) -> np.ndarray:
        """The read-only (N+1, 2) ghost hulls [lo, hi) of the levels."""
        return self.states.hulls

    @property
    def n_steps(self) -> int:
        return self.times.n_steps

    @property
    def t0(self) -> float:
        return float(self.times.t[0])

    @property
    def t_final(self) -> float:
        return float(self.times.t[-1])


class _Workspace:
    """The buffers of one step over at most J cells with m components,
    which march allocates once per run: the padded window's max wave speeds
    and fluxes (J + 2 rows), and its interfaces' halved LLF speeds, fluxes
    and differences (J + 1 rows)."""

    def __init__(self, J: int, m: int):
        self.speeds = np.empty(J + 2)
        self.f = np.empty((J + 2, m))
        self.lam = np.empty(J + 1)
        self.fluxes = np.empty((J + 1, m))
        self.diff = np.empty((J + 1, m))


def step(
    states: np.ndarray,
    model,
    flux_kind: str,
    grid: Grid1D,
    dt: float,
    ghost_left: np.ndarray,
    ghost_right: np.ndarray,
    padded: np.ndarray | None = None,
    speeds: np.ndarray | None = None,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One conservative update of the W cells states; returns (new states,
    interface fluxes).

    The stepping core passes its ghost-padded slice of the level, whose
    inner rows are states, their max wave speeds, already scanned for the
    CFL step and checked, and its workspace: the new states are written
    into the inner rows, and the fluxes are the workspace's, valid until the
    next step.  Called with the states alone, step pads a copy of them and
    gives the copy and a workspace of its own the same ufuncs, so the
    states stay as they are.
    """
    W = len(states)
    if padded is None:
        padded = np.vstack([np.asarray(ghost_left)[None, :], states,
                            np.asarray(ghost_right)[None, :]])
    if work is None:
        work = _Workspace(W, model.m)
    fluxes = interface_fluxes(flux_kind, model, padded, speeds=speeds, out=(
        work.f[:W + 2], work.lam[:W + 1], work.fluxes[:W + 1], work.diff[:W + 1]))
    new, diff = padded[1:-1], work.diff[:W]
    np.subtract(fluxes[1:], fluxes[:-1], out=diff)
    np.multiply(dt / grid.dx, diff, out=diff)
    return np.subtract(new, diff, out=new), fluxes


def _left_domain(model, states: np.ndarray, lo: int, n: int, t: float) -> DomainError:
    """The error for a step whose updated cells, states, starting at the
    grid's cell lo, left the domain; it names the first such cell by its
    index j on the grid."""
    k = int(np.argmax(~model.in_domain(states)))
    return DomainError(f"state left the model domain at cell j={lo + k}, step n={n}, "
                       f"t={t:.6g}: {states[k]}")


def _window(bits: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """The active window among the interfaces lo..hi of a ghost-padded level,
    given as its int64 bit patterns: the cells [lo', hi') from the left cell
    of the first interface whose two states differ in some bit to the right
    cell of the last, clipped to the grid, or the empty (lo, lo) when no two
    states there differ."""
    rows = (bits[lo + 1:hi + 2] != bits[lo:hi + 1]).nonzero()[0]  # in order
    if not len(rows):
        return lo, lo
    return max(lo + int(rows[0]) - 1, 0), min(lo + int(rows[-1]) + 1, len(bits) - 2)


def march(
    initial: np.ndarray,
    model,
    flux_kind: str,
    grid: Grid1D,
    cfl: float,
    t0: float,
    t_final: float,
):
    """The stepping core: yield (t, states, window) for every level from t0
    to exactly t_final (last step clipped) without storing the history.
    states is the core's level, updated in place, as a read-only view that
    is valid until the next resume.  window (lo, hi) holds the cells the step
    into the level updated, and at t0 the initial active window; every other
    cell equals the ghost state on its side, in this level and the one
    before.

    Each step touches only its active window: the cells whose stencil is not
    constant (_window).  Every cell outside it equals the ghost state on its
    side, so its update is exactly zero.  The window's padded slice ends in
    a copy of each ghost state, so the max wave speed over it is the whole
    level's, and max does not round: dt is bit for bit the full scan's.  The
    next window lies within this one grown by a cell on each side, and is
    found there.  One max-wave-speed scan of the window's padded slice per
    step gives both dt and the LLF lambda.  It is made as soon as the window
    is found, before the level is yielded, and the updated cells are checked
    against the domain then.  For a model whose speeds_check_domain is true
    the scan is the check: a state outside the domain has a non-finite max
    wave speed, and each run of equal updated cells that left the domain
    ends next to a cell with other bits, so the next window's padded slice
    holds a cell of it; only a non-finite max makes march check the cells
    themselves.

    The step's buffers are allocated once per run (_Workspace), and at
    m = 1 the window scan reads the level's bits as a 1-D view.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl!r}")
    for name, value in (("t0", t0), ("t_final", t_final)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    flux_kind = normalize_flux_kind(flux_kind)
    states = np.array(initial, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    J = grid.J
    if states.shape != (J, model.m):
        raise ValueError(f"initial states have shape {states.shape}, expected {(J, model.m)}")
    padded = np.empty((J + 2, model.m))
    padded[0] = states[0]
    padded[-1] = states[-1]
    padded[1:-1] = states
    states = padded[1:-1]
    ghost_left, ghost_right = padded[0], padded[-1]
    model.check_domain(states)
    tol = 1e-14 * max(1.0, abs(t_final))
    t = t0
    view = _frozen(states.view())
    bits = padded.view(np.int64)
    if model.m == 1:
        bits = bits[:, 0]
    work = _Workspace(J, model.m)
    dx = grid.dx
    lo, hi = _window(bits, 0, J)
    yield t, view, (lo, hi)
    speeds = model.max_wave_speed(padded[lo:hi + 2], check=False, out=work.speeds[:hi - lo + 2])
    lam = float(np.maximum.reduce(speeds))
    n = 0
    while t < t_final - tol:
        if n >= MAX_STEPS:
            raise RuntimeError(f"exceeded {MAX_STEPS} time steps before reaching t={t_final}")
        dt = t_final - t if lam == 0.0 else min(cfl * dx / lam, t_final - t)
        new, _ = step(states[lo:hi], model, flux_kind, grid, dt, ghost_left, ghost_right,
                      padded[lo:hi + 2], speeds, work)
        updated = lo, hi
        lo, hi = _window(bits, lo, hi)
        speeds = model.max_wave_speed(padded[lo:hi + 2], check=False,
                                      out=work.speeds[:hi - lo + 2])
        lam = float(np.maximum.reduce(speeds))
        checked = model.speeds_check_domain and math.isfinite(lam)
        if not checked and not model.in_domain(new).all():
            raise _left_domain(model, new, updated[0], n, t + dt)
        t = t_final if t_final - (t + dt) <= tol else t + dt
        n += 1
        yield t, view, updated


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def run(
    initial: np.ndarray,
    model,
    flux_kind: str,
    grid: Grid1D,
    cfl: float,
    t0: float,
    t_final: float,
) -> SpaceTimeSolution:
    """March from t0 to exactly t_final (last step clipped) on the stepping
    core and record each level in the history by its ghost hull, the window
    that march yields with it.  The record is frozen."""
    history, times = None, []
    for t, states, (lo, hi) in march(initial, model, flux_kind, grid, cfl, t0, t_final):
        if history is None:  # level 0: the ghosts are its first and last cell
            history = LevelHistory(grid.J, model.m, states[0], states[-1])
        history.append(states[lo:hi], lo, hi)
        times.append(t)
    return SpaceTimeSolution(
        grid=grid,
        times=TimeLevels(times),
        states=history.freeze(),
        ghost_left=history.ghost_left,
        ghost_right=history.ghost_right,
        model=model,
        flux_kind=normalize_flux_kind(flux_kind),
        cfl=cfl,
    )


# The first line of a solution dump: the format that save_solution writes and
# load_solution reads.
_MAGIC = "# fvbound-solution "
_VERSION = "2"


def save_solution(sol: SpaceTimeSolution, path: str) -> None:
    """Dump the solution to a single text file, format 2: header, then one
    row per time level, t, the level's ghost hull lo and hi, and its
    (hi - lo) x m hull cells row-major by repr (no trailing comma when the
    hull is empty), written row by row rather than held as one string."""
    params = ",".join(f"{k}={v!r}" for k, v in sorted(sol.model.params().items()))
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC}{_VERSION}\n")
        fh.write(f"# model={sol.model.name} params={params}\n")
        fh.write(f"# flux={sol.flux_kind} cfl={sol.cfl!r}\n")
        fh.write(f"# x_min={sol.grid.x_min!r} x_max={sol.grid.x_max!r} J={sol.grid.J} "
                 f"m={sol.model.m}\n")
        for key, ghost in (("ghost_left", sol.ghost_left), ("ghost_right", sol.ghost_right)):
            fh.write(f"# {key}=" + ",".join(f"{v!r}" for v in ghost.tolist()) + "\n")
        rows = zip(sol.times.t.tolist(), sol.ghost_hulls.tolist(), sol.states.walk())
        for t, (lo, hi), level in rows:
            fh.write(",".join([f"{t!r},{lo},{hi}", *map(repr, level[lo:hi].ravel().tolist())])
                     + "\n")


# Header entries save_solution writes and load_solution needs (params is optional).
_DUMP_KEYS = ("model", "flux", "cfl", "x_min", "x_max", "J", "m", "ghost_left", "ghost_right")


def _parse_params(text: str) -> dict[str, float]:
    return {k: float(v) for k, v in (tok.split("=") for tok in text.split(","))}


def _parse_floats(text: str) -> np.ndarray:
    return np.array(text.split(","), dtype=float)


def _parse_row(line: str, J: int, m: int,
               before: float | None) -> tuple[float, int, int, np.ndarray]:
    """The time, ghost hull and (hi - lo, m) hull cells of the dump row
    t,lo,hi,cells...: t must be finite and exceed the time before, if any,
    and 0 <= lo <= hi <= J."""
    values = line.split(",")
    if len(values) < 3:
        raise ValueError(f"{len(values)} columns, expected t, lo, hi and the hull cells")
    t = float(values[0])
    if not math.isfinite(t):
        raise ValueError(f"time {t!r} is not finite")
    if before is not None and not t > before:
        raise ValueError(f"time {t!r} does not exceed the time before, {before!r}")
    try:
        lo, hi = int(values[1]), int(values[2])
    except ValueError:
        raise ValueError(f"ghost hull lo={values[1]!r} hi={values[2]!r} is not two "
                         f"integers") from None
    if not 0 <= lo <= hi <= J:
        raise ValueError(f"ghost hull lo={lo} hi={hi} is not within 0 <= lo <= hi <= J = {J}")
    cells = np.array(values[3:], dtype=float)
    if cells.size != (hi - lo) * m:
        raise ValueError(f"{cells.size} hull cell values, expected (hi - lo)*m = "
                         f"{(hi - lo) * m}")
    return t, lo, hi, cells.reshape(hi - lo, m)


def load_solution(path: str) -> SpaceTimeSolution:
    """Read a save_solution dump of format 2, each row's hull cells appended
    straight into the history with the row's ghost hull.  Another format is
    refused with its version.  A malformed time-level row raises a
    ValueError naming the file and the line, and a hull cell outside the
    model's domain a DomainError naming the file, the line and the cell; a
    missing or malformed header entry, an m that is not the model's, a
    ghost outside its domain, or a grid that Grid1D refuses, one naming the
    file and the key."""
    header: dict[str, str] = {}

    def value(key: str, parse):
        try:
            return parse(header[key])
        except ValueError as exc:
            raise ValueError(f"{path}: header value {key}={header[key]!r} does not parse: "
                             f"{exc}") from None

    def grid() -> Grid1D:
        x_min, x_max, J = value("x_min", float), value("x_max", float), value("J", int)
        try:
            return Grid1D(x_min, x_max, J)
        except ValueError as exc:
            keys = ("J",) if x_max > x_min else ("x_min", "x_max")
            given = " ".join(f"{key}={header[key]!r}" for key in keys)
            raise ValueError(f"{path}: header value {given} is refused: {exc}") from None

    def record() -> dict:
        """The record's fields that the header gives."""
        missing = [key for key in _DUMP_KEYS if key not in header]
        if missing:
            raise ValueError(f"{path}: header is missing {', '.join(map(repr, missing))}")
        params = value("params", _parse_params) if header.get("params") else {}
        model = make_model(value("model", normalize_model_name), **params)
        m = value("m", int)
        if m != model.m:
            raise ValueError(f"{path}: header value m={header['m']!r} does not match model "
                             f"{model.name}, whose m = {model.m}")
        ghosts = {key: _frozen(value(key, _parse_floats)) for key in ("ghost_left", "ghost_right")}
        for key, ghost in ghosts.items():
            if ghost.shape != (m,):
                raise ValueError(f"{path}: header value {key}={header[key]!r} holds "
                                 f"{ghost.size} values, expected m = {m}")
            try:
                model.check_domain(ghost)
            except DomainError as exc:
                raise DomainError(f"{path}: header value {key}={header[key]!r} is refused: "
                                  f"{exc}") from None
        return dict(
            model=model,
            grid=grid(),
            flux_kind=value("flux", normalize_flux_kind),
            cfl=value("cfl", float),
            **ghosts,
        )

    fields, times = None, []
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != _MAGIC + _VERSION:
            if not magic.startswith(_MAGIC):
                raise ValueError(f"{path} is not a fvbound solution dump")
            raise ValueError(f"{path}, line 1: a fvbound solution dump of format "
                             f"{magic[len(_MAGIC):]}, and only format {_VERSION} is read: "
                             f"dump the solution again with `fvbound run --dump-solution`")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].strip().split(" "):
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        header[k] = v
                continue
            if fields is None:  # the header precedes the rows
                fields, m = record(), value("m", int)
                J, model = fields["grid"].J, fields["model"]
                history = LevelHistory(J, m, fields["ghost_left"], fields["ghost_right"])
            try:
                t, lo, hi, cells = _parse_row(line, J, m, times[-1] if times else None)
                model.check_domain(cells)
            except DomainError as exc:  # named by the first cell outside the domain
                k = int(np.argmax(~model.in_domain(cells)))
                raise DomainError(f"{path}, line {lineno}: cell j={lo + k} holds "
                                  f"{cells[k].tolist()}: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            history.append(cells, lo, hi)
            times.append(t)
    if fields is None:
        record()
        raise ValueError(f"{path} holds no time levels after its header")
    return SpaceTimeSolution(times=TimeLevels(times), states=history.freeze(), **fields)
