"""First-order finite-volume time marching and the space-time solution record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py wraps cfl_timestep here; the stepping core fuses its scan.
from .grid import Grid1D, TimeLevels, cfl_timestep  # noqa: F401
from .models import (DomainError, llf_interface_fluxes, make_model, normalize_flux_kind,
                     normalize_model_name, numerical_flux)

# march refuses to take more steps than this before reaching t_final.
MAX_STEPS = 10_000_000


@dataclass
class SpaceTimeSolution:
    """Piecewise-constant numerical solution on [t^0, T] x [x_min, x_max].

    states[n] holds the J cell values at time level n; the outer ghost states
    are constant in time (frozen at the initial first/last cell values).
    """

    grid: Grid1D
    times: TimeLevels
    states: np.ndarray  # (N+1, J, m)
    ghost_left: np.ndarray  # (m,)
    ghost_right: np.ndarray  # (m,)
    model: object
    flux_kind: str
    cfl: float

    @property
    def n_steps(self) -> int:
        return self.times.n_steps

    @property
    def t0(self) -> float:
        return float(self.times.t[0])

    @property
    def t_final(self) -> float:
        return float(self.times.t[-1])

    def extended_states(self, n: int) -> np.ndarray:
        """Level-n states with the two ghost cells prepended/appended."""
        return np.vstack([self.ghost_left[None, :], self.states[n], self.ghost_right[None, :]])

    def interface_fluxes(self, n: int, kind: str | None = None) -> np.ndarray:
        """Numerical fluxes at the J+1 interfaces for level n; for the marching
        kind they equal the marching fluxes bit for bit."""
        kind = normalize_flux_kind(kind or self.flux_kind)
        ext = self.extended_states(n)
        return numerical_flux(kind, self.model, ext[:-1], ext[1:])


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
) -> tuple[np.ndarray, np.ndarray]:
    """One conservative update; returns (new states, interface fluxes).

    LLF evaluates each cell's flux and max wave speed once for its two
    interfaces.  The stepping core passes its ghost-padded copy of the states
    and their speeds, already scanned for the CFL step and checked.
    """
    if padded is None:
        padded = np.vstack([np.asarray(ghost_left)[None, :], states,
                            np.asarray(ghost_right)[None, :]])
    if normalize_flux_kind(flux_kind) == "llf":
        check = speeds is None
        if check:
            speeds = model.max_wave_speed(padded)
        fluxes = llf_interface_fluxes(padded, model.flux(padded, check=check), speeds)
    else:
        fluxes = numerical_flux(flux_kind, model, padded[:-1], padded[1:])
    new = states - (dt / grid.dx) * (fluxes[1:] - fluxes[:-1])
    return new, fluxes


def march(
    initial: np.ndarray,
    model,
    flux_kind: str,
    grid: Grid1D,
    cfl: float,
    t0: float,
    t_final: float,
):
    """The stepping core: yield (t, states) for every level from t0 to
    exactly t_final (last step clipped) without storing the history.

    One max-wave-speed scan of the ghost-padded states per step gives both
    dt and the LLF lambda; each new level is checked against the domain once.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl!r}")
    flux_kind = normalize_flux_kind(flux_kind)
    states = np.array(initial, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.shape != (grid.J, model.m):
        raise ValueError(f"initial states have shape {states.shape}, expected {(grid.J, model.m)}")
    model.check_domain(states)
    padded = np.empty((grid.J + 2, model.m))
    padded[0] = states[0]
    padded[-1] = states[-1]
    ghost_left, ghost_right = padded[0], padded[-1]
    tol = 1e-14 * max(1.0, abs(t_final))
    t = t0
    yield t, states
    n = 0
    while t < t_final - tol:
        if n >= MAX_STEPS:
            raise RuntimeError(f"exceeded {MAX_STEPS} time steps before reaching t={t_final}")
        padded[1:-1] = states
        speeds = model.max_wave_speed(padded, check=False)
        lam = float(speeds.max())
        dt = t_final - t if lam == 0.0 else min(cfl * grid.dx / lam, t_final - t)
        states, _ = step(states, model, flux_kind, grid, dt, ghost_left, ghost_right,
                         padded, speeds)
        bad = ~model.in_domain(states)
        if bad.any():
            j = int(np.argmax(bad))
            raise DomainError(
                f"state left the model domain at cell j={j}, step n={n}, "
                f"t={t + dt:.6g}: {states[j]}"
            )
        t = t_final if t_final - (t + dt) <= tol else t + dt
        n += 1
        yield t, states


def run(
    initial: np.ndarray,
    model,
    flux_kind: str,
    grid: Grid1D,
    cfl: float,
    t0: float,
    t_final: float,
) -> SpaceTimeSolution:
    """March from t0 to exactly t_final (last step clipped) and record every
    level in one buffer, grown in place by a quarter when full, then trimmed."""
    times, history = [], np.empty((16, grid.J, model.m))
    for n, (t, states) in enumerate(march(initial, model, flux_kind, grid, cfl, t0, t_final)):
        if n == len(history):
            history.resize((n + n // 4, grid.J, model.m), refcheck=False)
        history[n] = states
        times.append(t)
    history.resize((len(times), grid.J, model.m), refcheck=False)
    history.setflags(write=False)  # levels are frozen once recorded
    ghost_left = history[0, 0].copy()
    ghost_right = history[0, -1].copy()
    ghost_left.setflags(write=False)
    ghost_right.setflags(write=False)
    return SpaceTimeSolution(
        grid=grid,
        times=TimeLevels(np.array(times)),
        states=history,
        ghost_left=ghost_left,
        ghost_right=ghost_right,
        model=model,
        flux_kind=normalize_flux_kind(flux_kind),
        cfl=cfl,
    )


def save_solution(sol: SpaceTimeSolution, path: str) -> None:
    """Dump the solution to a single text file: header, then one row per
    time level (t followed by the row-major J x m cell states), written
    row by row rather than held as one string."""
    params = ",".join(f"{k}={v!r}" for k, v in sorted(sol.model.params().items()))
    with open(path, "w") as fh:
        fh.write("# fvbound-solution 1\n")
        fh.write(f"# model={sol.model.name} params={params}\n")
        fh.write(f"# flux={sol.flux_kind} cfl={sol.cfl!r}\n")
        fh.write(f"# x_min={sol.grid.x_min!r} x_max={sol.grid.x_max!r} J={sol.grid.J} "
                 f"m={sol.model.m}\n")
        fh.write(f"# ghost_left={','.join(repr(float(v)) for v in sol.ghost_left)}\n")
        fh.write(f"# ghost_right={','.join(repr(float(v)) for v in sol.ghost_right)}\n")
        for t, row in zip(sol.times.t.tolist(), sol.states.reshape(len(sol.states), -1)):
            fh.write(repr(t) + "," + ",".join(map(repr, row.tolist())) + "\n")


# Header entries save_solution writes and load_solution needs (params is optional).
_DUMP_KEYS = ("model", "flux", "cfl", "x_min", "x_max", "J", "m", "ghost_left", "ghost_right")


def _parse_params(text: str) -> dict[str, float]:
    return {k: float(v) for k, v in (tok.split("=") for tok in text.split(","))}


def _parse_floats(text: str) -> np.ndarray:
    return np.array(text.split(","), dtype=float)


def load_solution(path: str) -> SpaceTimeSolution:
    """Read a save_solution dump; a malformed time-level row raises a
    ValueError naming the file and the line, a missing or malformed header
    entry one naming the file and the key."""
    header: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "# fvbound-solution 1":
            raise ValueError(f"{path} is not a fvbound solution dump")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].strip().split(" "):
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        header[k] = v
            else:
                try:
                    rows.append((lineno, np.array(line.split(","), dtype=float)))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
    missing = [key for key in _DUMP_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: header is missing {', '.join(map(repr, missing))}")

    def value(key: str, parse):
        try:
            return parse(header[key])
        except ValueError as exc:
            raise ValueError(f"{path}: header value {key}={header[key]!r} does not parse: "
                             f"{exc}") from None

    params = value("params", _parse_params) if header.get("params") else {}
    model = make_model(value("model", normalize_model_name), **params)
    grid = Grid1D(value("x_min", float), value("x_max", float), value("J", int))
    m = value("m", int)
    if not rows:
        raise ValueError(f"{path} holds no time levels after its header")
    width = grid.J * m + 1
    for lineno, row in rows:
        if row.size != width:
            raise ValueError(f"{path}, line {lineno}: {row.size} columns, expected "
                             f"J*m + 1 = {width} (t, then the J x m cell states)")
    data = np.array([row for _, row in rows])
    times = TimeLevels(data[:, 0])
    states = data[:, 1:].reshape(len(rows), grid.J, m)
    return SpaceTimeSolution(
        grid=grid,
        times=times,
        states=states,
        ghost_left=value("ghost_left", _parse_floats),
        ghost_right=value("ghost_right", _parse_floats),
        model=model,
        flux_kind=value("flux", normalize_flux_kind),
        cfl=value("cfl", float),
    )
