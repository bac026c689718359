"""Conservation-law models (Burgers, p-system) and numerical fluxes.

States are arrays whose last axis holds the m conserved components, so the
scalar Burgers equation uses shape (..., 1).  All model operations are
vectorized over leading axes.  `flux` and `max_wave_speed` take check=False
from the stepping core, which checks every new level once itself.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """A state left the admissible set of the model (e.g. rho <= 0)."""


class UnsupportedFluxError(ValueError):
    """Requested numerical flux is not defined for this model."""


class Burgers:
    """u_t + (u^2/2)_x = 0 with entropy pair (u^2/2, u^3/3)."""

    m = 1
    name = "burgers"

    def flux(self, u: np.ndarray, check: bool = True) -> np.ndarray:
        return 0.5 * u * u

    def wave_speeds(self, u: np.ndarray) -> np.ndarray:
        return np.array(u, dtype=float, copy=True)

    def max_wave_speed(self, u: np.ndarray, check: bool = True) -> np.ndarray:
        """Sup-norm of the wave speeds, shape = leading axes of u."""
        return np.abs(u[..., 0])

    def entropy(self, u: np.ndarray) -> np.ndarray:
        return 0.5 * u[..., 0] ** 2

    def entropy_flux(self, u: np.ndarray) -> np.ndarray:
        u = u[..., 0]
        return u * u * u / 3.0  # u**3 takes numpy's much slower pow path

    def level_terms(self, u: np.ndarray):
        """(flux, entropy, entropy flux, max wave speed, (min, max) wave speed
        over the interior cells u[1:-1]) of a padded level after one domain check."""
        self.check_domain(u)
        v = u[..., 0]
        extremes = (float(v[1:-1].min()), float(v[1:-1].max()))
        return 0.5 * u * u, 0.5 * v**2, v * v * v / 3.0, np.abs(v), extremes

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

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        return self.C * rho**self.gamma

    def sound_speed(self, rho: np.ndarray) -> np.ndarray:
        return np.sqrt(self.C * self.gamma * rho ** (self.gamma - 1.0))

    def flux(self, u: np.ndarray, check: bool = True) -> np.ndarray:
        if check:
            self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        return np.stack([q, q * q / rho + self.pressure(rho)], axis=-1)

    def wave_speeds(self, u: np.ndarray) -> np.ndarray:
        self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        v = q / rho
        c = self.sound_speed(rho)
        return np.stack([v - c, v + c], axis=-1)

    def max_wave_speed(self, u: np.ndarray, check: bool = True) -> np.ndarray:
        if check:
            self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        return np.abs(q / rho) + self.sound_speed(rho)

    def entropy(self, u: np.ndarray) -> np.ndarray:
        self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        return 0.5 * q * q / rho + self.C * rho**self.gamma / (self.gamma - 1.0)

    def entropy_flux(self, u: np.ndarray) -> np.ndarray:
        rho, q = u[..., 0], u[..., 1]
        return (q / rho) * (self.entropy(u) + self.pressure(rho))

    def level_terms(self, u: np.ndarray):
        """(flux, entropy, entropy flux, max wave speed, (min v - c, max v + c)
        over the interior cells u[1:-1]) of a ghost-padded level after one
        domain check; the flux and the entropy share one pressure C*rho^gamma."""
        self.check_domain(u)
        rho, q = u[..., 0], u[..., 1]
        v = q / rho
        c = self.sound_speed(rho)
        p = self.C * rho**self.gamma
        eta = 0.5 * q * q / rho + p / (self.gamma - 1.0)
        f = np.stack([q, q * q / rho + p], axis=-1)
        extremes = (float((v[1:-1] - c[1:-1]).min()), float((v[1:-1] + c[1:-1]).max()))
        return f, eta, v * (eta + p), np.abs(v) + c, extremes

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


def llf_interface_fluxes(padded: np.ndarray, f: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """LLF fluxes at the interfaces of a ghost-padded level from each cell's
    flux and max wave speed; bit-identical to the pairwise numerical_flux."""
    lam = np.maximum(speeds[:-1], speeds[1:])
    return 0.5 * (f[:-1] + f[1:]) - 0.5 * lam[..., None] * (padded[1:] - padded[:-1])


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
