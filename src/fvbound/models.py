"""Conservation-law models (Burgers, p-system) and numerical fluxes.

States are arrays whose last axis holds the m conserved components, so the
scalar Burgers equation uses shape (..., 1).  All model operations are
vectorized over leading axes.  `flux` and `max_wave_speed` take check=False
from the stepping core, and an out array from its workspace, which each of
their ufuncs writes into.  A model whose speeds_check_domain is true has a
non-finite max wave speed at every state outside its domain, so the core's
scan of the speeds checks each new level for it.
"""

from __future__ import annotations

import numpy as np


# 0.5 as a 0-d array: numpy multiplies by it as by an array, at the cost of a
# ufunc on two arrays, where a Python float is converted on every call.
_HALF = np.array(0.5)
_HALF.setflags(write=False)


class DomainError(ValueError):
    """A state left the admissible set of the model (e.g. rho <= 0)."""


class UnsupportedFluxError(ValueError):
    """Requested numerical flux is not defined for this model."""


class Burgers:
    """u_t + (u^2/2)_x = 0 with entropy pair (u^2/2, u^3/3)."""

    m = 1
    name = "burgers"
    speeds_check_domain = True  # |u| is finite exactly where u is

    def flux(self, u: np.ndarray, check: bool = True, out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(np.multiply(_HALF, u, out=out), u, out=out)

    def wave_speeds(self, u: np.ndarray) -> np.ndarray:
        return np.array(u, dtype=float, copy=True)

    def max_wave_speed(self, u: np.ndarray, check: bool = True,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Sup-norm of the wave speeds, shape = leading axes of u."""
        return np.abs(u[..., 0], out=out)

    def entropy(self, u: np.ndarray) -> np.ndarray:
        return 0.5 * u[..., 0] ** 2

    def entropy_flux(self, u: np.ndarray) -> np.ndarray:
        u = u[..., 0]
        return u * u * u / 3.0  # u**3 takes numpy's much slower pow path

    def level_terms(self, u: np.ndarray):
        """(flux, entropy, entropy flux, max wave speed, lowest and highest
        signed wave speed) per cell of states u after one domain check; the
        signed speeds are both u itself."""
        self.check_domain(u)
        v = u[..., 0]
        return 0.5 * u * u, 0.5 * v**2, v * v * v / 3.0, np.abs(v), v, v

    def in_domain(self, u: np.ndarray) -> np.ndarray:
        return np.isfinite(u[..., 0])

    def check_domain(self, u: np.ndarray) -> None:
        if not np.isfinite(u).all():
            raise DomainError("non-finite Burgers state")

    def params(self) -> dict:
        return {}


class PSystem:
    """Isentropic gas dynamics in (rho, q = rho*v) with pressure C*rho^gamma.

    Wave speeds are v -+ c with c = sqrt(C*gamma*rho^(gamma-1)); the entropy
    pair is the mechanical energy e = q^2/(2 rho) + C rho^gamma/(gamma-1)
    with flux v*(e + p).
    """

    m = 2
    name = "psystem"

    def __init__(self, C: float = 1.0, gamma: float = 1.4):
        if C <= 0:
            raise ValueError(f"pressure constant must be positive, got {C}")
        if gamma <= 1:
            raise ValueError(f"adiabatic exponent must exceed 1, got {gamma}")
        self.C = float(C)
        self.gamma = float(gamma)
        # |q/rho| + c is not finite at rho = +-0 or a non-finite rho or q; at
        # rho < 0, c is NaN unless gamma is an integer: rho^(gamma-1) > 0 for
        # an odd gamma, and for an even one it or C*gamma*rho^(gamma-1) may
        # underflow to -0.0, whose square root is -0.0
        self.speeds_check_domain = not self.gamma.is_integer()

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        return self.C * rho**self.gamma

    def sound_speed(self, rho: np.ndarray) -> np.ndarray:
        return np.sqrt(self.C * self.gamma * rho ** (self.gamma - 1.0))

    def flux(self, u: np.ndarray, check: bool = True, out: np.ndarray | None = None) -> np.ndarray:
        """(q, q*q/rho + C*rho^gamma); out, allocated when not given, holds
        the pressure in its first column until q goes there."""
        if check:
            self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        if out is None:
            out = np.empty(np.shape(u))
        p, f = out[..., 0], out[..., 1]
        np.multiply(self.C, np.power(rho, self.gamma, out=p), out=p)
        np.divide(np.multiply(q, q, out=f), rho, out=f)
        np.add(f, p, out=f)
        p[...] = q
        return out

    def wave_speeds(self, u: np.ndarray) -> np.ndarray:
        self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        v = q / rho
        c = self.sound_speed(rho)
        return np.stack([v - c, v + c], axis=-1)

    def max_wave_speed(self, u: np.ndarray, check: bool = True,
                       out: np.ndarray | None = None) -> np.ndarray:
        """|v| + c, shape = leading axes of u (0-d for a single state)."""
        if check:
            self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        if out is None:
            out = np.empty(np.shape(rho))
        c = np.multiply(self.C * self.gamma, np.power(rho, self.gamma - 1.0, out=out), out=out)
        v = np.abs(q / rho)
        return np.add(v, np.sqrt(c, out=c), out=out)

    def entropy(self, u: np.ndarray) -> np.ndarray:
        self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        return 0.5 * q * q / rho + self.C * rho**self.gamma / (self.gamma - 1.0)

    def entropy_flux(self, u: np.ndarray) -> np.ndarray:
        rho, q = u[..., 0], u[..., 1]
        return (q / rho) * (self.entropy(u) + self.pressure(rho))

    def level_terms(self, u: np.ndarray):
        """(flux, entropy, entropy flux, max wave speed, lowest and highest
        signed wave speed v - c and v + c) per cell of states u after one
        domain check; the flux and the entropy share one pressure
        C*rho^gamma.  rho and q are copied out of u once, in u's memory
        order, so each ufunc runs on contiguous data."""
        self.check_domain(u)
        rho, q = u[..., 0].copy(order="K"), u[..., 1].copy(order="K")
        v = q / rho
        c = self.sound_speed(rho)
        p = self.C * rho**self.gamma
        eta = 0.5 * q * q / rho + p / (self.gamma - 1.0)
        f = np.stack([q, q * q / rho + p], axis=-1)
        return f, eta, v * (eta + p), np.abs(v) + c, v - c, v + c

    def in_domain(self, u: np.ndarray) -> np.ndarray:
        rho, q = u[..., 0], u[..., 1]
        return np.isfinite(rho) & np.isfinite(q) & (rho > 0.0)

    def check_domain(self, u: np.ndarray) -> None:
        if not self.in_domain(u).all():
            raise DomainError("p-system state with rho <= 0 or non-finite entries")

    def params(self) -> dict:
        return {"C": self.C, "gamma": self.gamma}


def normalize_model_name(name: str) -> str:
    name = name.lower()
    if name not in ("burgers", "psystem"):
        raise ValueError(f"unknown model '{name}' (expected burgers or psystem)")
    return name


def make_model(name: str, **params):
    if normalize_model_name(name) == "burgers":
        return Burgers()
    return PSystem(**params)


# Canonical flux-kind names with the aliases accepted on the CLI.
_FLUX_ALIASES = {
    "llf": "llf",
    "godunov": "godunov_burgers",
    "godunov_burgers": "godunov_burgers",
    "eo": "engquist_osher_burgers",
    "engquist_osher_burgers": "engquist_osher_burgers",
}


def normalize_flux_kind(kind: str) -> str:
    try:
        return _FLUX_ALIASES[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown numerical flux '{kind}'") from None


def _llf_lambda(model, uL: np.ndarray, uR: np.ndarray) -> np.ndarray:
    return np.maximum(model.max_wave_speed(uL), model.max_wave_speed(uR))


def interface_fluxes(kind: str, model, padded: np.ndarray, f: np.ndarray | None = None,
                     speeds: np.ndarray | None = None, out: tuple | None = None) -> np.ndarray:
    """Numerical fluxes at the n interfaces of a ghost-padded level, bit-identical
    to the pairwise numerical_flux.  LLF evaluates each cell's flux and max
    wave speed once for its two interfaces; a caller that has them (and has
    checked the level) passes them as f and speeds.

    The stepping core passes out, its buffers (f, lam, fluxes, diff) of n + 1,
    n, n and n rows, and LLF's ufuncs write into them: the cells' fluxes, the
    interfaces' halved speeds, the fluxes returned, and the jumps scaled by
    the speeds.  Without out, each array is allocated by its first ufunc;
    Godunov and Engquist-Osher allocate either way."""
    if kind != "llf" and normalize_flux_kind(kind) != "llf":
        return numerical_flux(kind, model, padded[:-1], padded[1:])
    f_out, lam, fluxes, diff = (None,) * 4 if out is None else out
    check = speeds is None
    if check:
        speeds = model.max_wave_speed(padded)
    if f is None:
        f = model.flux(padded, check=check, out=f_out)
    lam = np.maximum(speeds[:-1], speeds[1:], out=lam)
    np.multiply(_HALF, lam, out=lam)
    fluxes = np.add(f[:-1], f[1:], out=fluxes)
    np.multiply(_HALF, fluxes, out=fluxes)
    diff = np.subtract(padded[1:], padded[:-1], out=diff)
    np.multiply(lam[..., None], diff, out=diff)
    return np.subtract(fluxes, diff, out=fluxes)


def numerical_flux(kind: str, model, uL: np.ndarray, uR: np.ndarray) -> np.ndarray:
    """Interface flux for a pair of cell states, vectorized over interfaces."""
    kind = normalize_flux_kind(kind)
    uL = np.asarray(uL, dtype=float)
    uR = np.asarray(uR, dtype=float)
    if kind == "llf":
        lam = _llf_lambda(model, uL, uR)
        return 0.5 * (model.flux(uL) + model.flux(uR)) - 0.5 * lam[..., None] * (uR - uL)
    if model.name != "burgers":
        raise UnsupportedFluxError(f"{kind} is only available for the Burgers model")
    a, b = uL[..., 0], uR[..., 0]
    if kind == "godunov_burgers":
        # Exact Riemann flux for f(u) = u^2/2: max of f over [b, a] for a > b
        # (shock side picked by the Rankine-Hugoniot speed), min over [a, b]
        # otherwise, which vanishes on transonic rarefactions.
        fa, fb = 0.5 * a * a, 0.5 * b * b
        shock = np.maximum(fa, fb)
        raref = np.where((a <= 0.0) & (b >= 0.0), 0.0, np.minimum(fa, fb))
        return np.where(a > b, shock, raref)[..., None]
    # Engquist-Osher: f^+(uL) + f^-(uR) with the sign-split antiderivatives.
    return (0.5 * np.maximum(a, 0.0) ** 2 + 0.5 * np.minimum(b, 0.0) ** 2)[..., None]


def numerical_entropy_flux(model, uL: np.ndarray, uR: np.ndarray) -> np.ndarray:
    """Entropy flux companion to the local Lax-Friedrichs flux."""
    uL = np.asarray(uL, dtype=float)
    uR = np.asarray(uR, dtype=float)
    lam = _llf_lambda(model, uL, uR)
    return 0.5 * (model.entropy_flux(uL) + model.entropy_flux(uR)) - 0.5 * lam * (
        model.entropy(uR) - model.entropy(uL)
    )
