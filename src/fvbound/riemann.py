"""Exact Riemann solvers for Burgers and the p-system.

Used to build initial data (cell averages of the self-similar solution) and
reference solutions for measuring L-inf/L1 errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D
from .models import Burgers, PSystem

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

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


def _segment_integral(fan, seg, a: np.ndarray, b: np.ndarray,
                      origin: float, t: float) -> np.ndarray:
    """Integral of the profile over the x-intervals [a, b] for one smooth
    segment, via fixed Gauss-Legendre quadrature in the similarity variable."""
    _, _, kind, payload = seg
    width = b - a
    if kind == "const":
        return width[:, None] * payload
    mid = 0.5 * (a + b)
    half = 0.5 * width
    nodes = (mid[:, None] + half[:, None] * _GL_NODES - origin) / t
    vals = _fan_profile(fan, payload, nodes)
    return np.einsum("k,nkm->nm", _GL_WEIGHTS, vals) * half[:, None]


def cell_average_exact(fan: WaveFan, origin: float, t: float, grid: Grid1D) -> np.ndarray:
    """Cell averages of the self-similar solution at time t.

    Wave heads/tails/shocks are used as subinterval boundaries so the
    quadrature never integrates across a kink.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    edges = grid.interfaces()
    m = fan.model.m
    out = np.zeros((grid.J, m))
    if t == 0.0:
        # Two-state data: width-weighted mix in the straddling cell.
        left_w = np.clip(origin, edges[:-1], edges[1:]) - edges[:-1]
        out = (left_w[:, None] * fan.left + (grid.dx - left_w)[:, None] * fan.right)
        return out / grid.dx
    for seg in fan.segments:
        lo, hi, _, _ = seg
        xlo = origin + t * lo if np.isfinite(lo) else -np.inf
        xhi = origin + t * hi if np.isfinite(hi) else np.inf
        a = np.maximum(edges[:-1], xlo)
        b = np.minimum(edges[1:], xhi)
        idx = np.nonzero(b > a)[0]
        if idx.size:
            out[idx] += _segment_integral(fan, seg, a[idx], b[idx], origin, t)
    return out / grid.dx
