"""Global L-inf/L1 error estimator built from slab-wise trapezoid covers.

The run window is split into meso-timeslabs of target size eps^(1/3) (or eps
with the literal slab mode), each slab is partitioned into surge and smooth
trapezoids, and the oscillation aggregates combine into

    E_surge  = (eps^(1/3) * kappa'_max + delta_max) * sum_mu J_S^mu
    E_smooth = eps^(1/3) * (T + sum_mu kappa^mu)

up to uncomputable stability constants, reported as unit multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .partition import SlabPartition, oscillation, partition_meso_slab
from .residual import ResidualReport, epsilon
from .solver import SpaceTimeSolution

# The slab modes: slabs of target size eps^(1/3), or eps.
SLAB_MODES = ("eps13", "eps")


@dataclass
class EstimateReport:
    """Error-estimator output for one solution: epsilon's report, the slab
    boundary times and each slab's cover with its kappa and c0; the
    aggregates and the two estimator components are derived from them."""

    sigma0: float
    slab_mode: str
    residual: ResidualReport
    slab_times: np.ndarray
    slabs: list[SlabPartition]
    # The true stability constants are not computable; estimates are reported
    # with unit multipliers in their place (class constants, not fields).
    c_surge = 1.0
    c_smooth = 1.0

    @property
    def epsilon_t(self) -> float:
        return self.residual.epsilon

    @property
    def tau_target(self) -> float:
        """Target slab length: eps^(1/3), or eps with the literal slab mode."""
        return self.epsilon_t ** (1.0 / 3.0) if self.slab_mode == "eps13" else self.epsilon_t

    @property
    def surge_count(self) -> int:
        return sum(s.n_surges for s in self.slabs)

    @property
    def kappa_sum(self) -> float:
        return sum((s.kappa for s in self.slabs), 0.0)

    @property
    def kappa_prime_max(self) -> float:
        return max((s.kappa_prime_max for s in self.slabs), default=0.0)

    @property
    def delta_max(self) -> float:
        return max((s.delta_max for s in self.slabs), default=0.0)

    @property
    def e_surge(self) -> float:
        eps13 = self.epsilon_t ** (1.0 / 3.0)
        return (eps13 * self.kappa_prime_max + self.delta_max) * self.surge_count

    @property
    def e_smooth(self) -> float:
        duration = float(self.slab_times[-1] - self.slab_times[0])
        return self.epsilon_t ** (1.0 / 3.0) * (duration + self.kappa_sum)

    def to_json_dict(self) -> dict:
        return {
            "sigma0": self.sigma0,
            "slab_mode": self.slab_mode,
            "tau_target": self.tau_target,
            "epsilon": self.epsilon_t,
            "residual": self.residual.to_json_dict(),
            "slab_times": [float(t) for t in self.slab_times],
            "slabs": [{"index": k, **s.to_json_dict()} for k, s in enumerate(self.slabs)],
            "surge_count": self.surge_count,
            "kappa_sum": self.kappa_sum,
            "kappa_prime_max": self.kappa_prime_max,
            "delta_max": self.delta_max,
            "e_surge": self.e_surge,
            "e_smooth": self.e_smooth,
            "c_surge": self.c_surge,
            "c_smooth": self.c_smooth,
        }


def slab_boundaries(times: np.ndarray, tau_target: float) -> list[int]:
    """Level indices bounding the slabs: slab mu ends at the first time level
    at or beyond t0 + mu * tau_target; the final slab ends at T.  Multiples
    that end no new slab are skipped by galloping, so a tau_target far below
    the time step costs a few probes per slab."""
    t0 = float(times[0])
    n_last = len(times) - 1

    def edge(mu: int) -> float:
        target = t0 + mu * tau_target
        return target - 1e-12 * max(1.0, abs(target))

    bounds = [0]
    mu = 0
    while bounds[-1] < n_last:
        # gallop to the last multiple whose edge is at or before the boundary
        last, step = times[bounds[-1]], 1
        while step:
            if edge(mu + step) <= last:
                mu, step = mu + step, 2 * step
            else:
                step //= 2
        mu += 1
        idx = int(np.searchsorted(times, edge(mu), side="left"))
        if idx >= n_last:
            break
        bounds.append(idx)
    bounds.append(n_last)
    return bounds


def _slab_c0(sigma0: float, eps: float, part: SlabPartition) -> float | None:
    """sigma0 / min_k (eps/delta_k + delta_k/eps^(1/3) + 2 kappa'_k)^(1/3)."""
    if not part.surges:
        return None
    eps13 = eps ** (1.0 / 3.0)
    best = np.inf
    for surge, osc in zip(part.surges, part.surge_oscillations):
        delta = surge.delta
        term = (eps / delta if delta > 0 else np.inf) + delta / eps13 + 2.0 * osc
        best = min(best, term)
    if not np.isfinite(best) or best <= 0:
        return 0.0
    return float(sigma0 / best ** (1.0 / 3.0))


def error_estimator(
    sol: SpaceTimeSolution,
    sigma0: float,
    slab_mode: str = "eps13",
) -> EstimateReport:
    """Full a-posteriori estimate: epsilon over the whole domain and each
    slab's cover with its oscillations; a run with epsilon = 0 has no slabs.
    An unknown slab mode, or a sigma0 that is not finite and positive, is
    refused before anything is estimated."""
    if slab_mode not in SLAB_MODES:
        raise ValueError(f"unknown slab mode '{slab_mode}'")
    if not (math.isfinite(sigma0) and sigma0 > 0):
        raise ValueError(f"sigma0 must be a finite positive number, got {sigma0!r}")
    res = epsilon(sol)
    report = EstimateReport(sigma0, slab_mode, res, np.array([sol.t0, sol.t_final]), [])
    if res.epsilon == 0.0:
        return report
    bounds = slab_boundaries(sol.times.t, report.tau_target)
    report.slab_times = sol.times.t[np.array(bounds)]
    for n_lo, n_hi in zip(bounds[:-1], bounds[1:]):
        part = partition_meso_slab(sol, n_lo, n_hi, res.epsilon, sigma0, res.speed_range)
        kappa = max(oscillation(sol, part.smooth, n_lo, n_hi).tolist(), default=0.0)
        report.slabs.append(replace(part, kappa=kappa, c0=_slab_c0(sigma0, res.epsilon, part)))
    return report
