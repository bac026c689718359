"""Exact Riemann solvers for Burgers and the p-system.

Used to build initial data (cell averages of the self-similar solution) and
reference solutions for measuring L-inf/L1 errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, column_sums
from .models import Burgers, PSystem

RH_TOL = 1e-10
STAR_ATOL = 1e-13
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
        if abs(x_new - x) <= STAR_ATOL:
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
                  origin: float, t: float) -> np.ndarray:
    """Integral of the rarefaction profile of the given family over the
    x-intervals [a, b] inside it at time t > 0, in closed form, (n, m)."""
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


def _constant_rows(fan: WaveFan, J: int) -> list:
    """Each constant segment's state repeated over J rows (None for a fan):
    row-wise slices of it combine with a level far faster than numpy's
    broadcast of one m-vector over every row."""
    return [np.tile(payload, (J, 1)) if kind == "const" else None
            for _, _, kind, payload in fan.segments]


def _average_pieces(fan: WaveFan, origin: float, t: float, edges: np.ndarray, dx: float,
                    rows: list):
    """Cover the cells at time t > 0 with (cell slice, averages) pairs: the
    cells wholly inside a constant state get that state (sliced from rows,
    see _constant_rows), the cells wholly inside a rarefaction their
    closed-form averages, and each cell that a breakpoint cuts the sum of its
    pieces.

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


def cell_average_exact(fan: WaveFan, origin: float, t: float, grid: Grid1D) -> np.ndarray:
    """Cell averages of the self-similar solution at time t.

    Cells wholly inside a constant state get that state.  Rarefaction
    profiles are integrated in closed form: xi^2/2 for Burgers, powers of the
    sound speed (linear in xi) for the p-system.  Cells that a shock, a
    contact or a fan edge cuts sum the pieces on either side.  At t = 0 the
    cell straddling the origin gets the width-weighted mix of the two states.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    edges = grid.interfaces()
    if t == 0.0:
        left_w = np.clip(origin, edges[:-1], edges[1:]) - edges[:-1]
        out = (left_w[:, None] * fan.left + (grid.dx - left_w)[:, None] * fan.right)
        return out / grid.dx
    out = np.empty((grid.J, fan.model.m))
    rows = _constant_rows(fan, grid.J)
    for cells, averages in _average_pieces(fan, origin, t, edges, grid.dx, rows):
        out[cells] = averages
    return out


def exact_l1_distances(fan: WaveFan, origin: float, grid: Grid1D, times: np.ndarray,
                       levels) -> np.ndarray:
    """Per time level and component, the sum over cells of |u - exact cell
    averages|, (N+1, m), where levels yields the (J, m) level u at each of
    times in turn.

    One fused pass per level: cells wholly inside a constant state are
    compared with that state directly, and only the rarefaction and cut cells
    get averages (as in cell_average_exact, which also gives the t = 0 level).
    """
    edges = grid.interfaces()
    rows = _constant_rows(fan, grid.J)
    out = np.empty((len(times), fan.model.m))
    diff = np.empty((grid.J, fan.model.m))
    for n, (t, u) in enumerate(zip(times.tolist(), levels)):
        if t == 0.0:
            np.subtract(u, cell_average_exact(fan, origin, 0.0, grid), out=diff)
        else:
            for cells, averages in _average_pieces(fan, origin, t, edges, grid.dx, rows):
                np.subtract(u[cells], averages, out=diff[cells])
        out[n] = column_sums(np.abs(diff, out=diff))
    return out
