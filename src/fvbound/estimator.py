"""Global L-inf/L1 error estimator built from slab-wise trapezoid covers.

The run window is split into meso-timeslabs of target size eps^(1/3) (or eps
with the literal slab mode), each slab is partitioned into surge and smooth
trapezoids, and the oscillation aggregates combine into

    E_surge  = (eps^(1/3) * kappa'_max + delta_max) * sum_mu J_S^mu
    E_smooth = eps^(1/3) * (T + sum_mu kappa^mu)

up to uncomputable stability constants, reported as unit multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partition import SlabPartition, oscillation, partition_meso_slab, slab_block
from .residual import ResidualReport, epsilon
from .solver import SpaceTimeSolution


@dataclass(frozen=True)
class SlabDiagnostics:
    index: int
    n_lo: int
    n_hi: int
    t_lo: float
    t_hi: float
    n_surges: int
    kappa: float  # max smooth-trapezoid oscillation
    kappa_prime_max: float  # max surge oscillation
    delta_max: float  # max total strip width among the slab's surges
    c0: float | None  # surge-strength diagnostic, None without surges

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "n_surges": self.n_surges,
            "kappa": self.kappa,
            "kappa_prime_max": self.kappa_prime_max,
            "delta_max": self.delta_max,
            "c0": self.c0,
        }


@dataclass
class EstimateReport:
    """Aggregated error-estimator output for one solution."""

    sigma0: float
    slab_mode: str
    tau_target: float
    epsilon_t: float
    residual: ResidualReport
    slab_times: np.ndarray
    slabs: list[SlabDiagnostics]
    surge_count: int
    kappa_sum: float
    kappa_prime_max: float
    delta_max: float
    e_surge: float
    e_smooth: float
    # The true stability constants are not computable; estimates are reported
    # with unit multipliers in their place.
    c_surge: float = 1.0
    c_smooth: float = 1.0
    partitions: list[SlabPartition] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        slabs = [s.to_json_dict() for s in self.slabs]
        for blob, part in zip(slabs, self.partitions):
            blob["partition"] = part.to_json_dict()
        return {
            "sigma0": self.sigma0,
            "slab_mode": self.slab_mode,
            "tau_target": self.tau_target,
            "epsilon": self.epsilon_t,
            "residual": self.residual.to_json_dict(),
            "slab_times": [float(t) for t in self.slab_times],
            "slabs": slabs,
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


def _slab_c0(sigma0: float, eps: float, surges, oscs) -> float | None:
    """sigma0 / min_k (eps/delta_k + delta_k/eps^(1/3) + 2 kappa'_k)^(1/3)."""
    if not surges:
        return None
    eps13 = eps ** (1.0 / 3.0)
    best = np.inf
    for surge, osc in zip(surges, oscs):
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
    """Full a-posteriori estimate: epsilon over the whole domain, slab covers,
    oscillation aggregates, and the two estimator components."""
    if slab_mode not in ("eps13", "eps"):
        raise ValueError(f"unknown slab mode '{slab_mode}'")
    res = epsilon(sol)
    eps_t = res.epsilon
    duration = sol.t_final - sol.t0

    if eps_t == 0.0:
        return EstimateReport(
            sigma0=sigma0,
            slab_mode=slab_mode,
            tau_target=0.0,
            epsilon_t=0.0,
            residual=res,
            slab_times=np.array([sol.t0, sol.t_final]),
            slabs=[],
            surge_count=0,
            kappa_sum=0.0,
            kappa_prime_max=0.0,
            delta_max=0.0,
            e_surge=0.0,
            e_smooth=0.0,
        )

    eps13 = eps_t ** (1.0 / 3.0)
    tau_target = eps13 if slab_mode == "eps13" else eps_t
    bounds = slab_boundaries(sol.times.t, tau_target)

    slabs: list[SlabDiagnostics] = []
    partitions: list[SlabPartition] = []
    kappa_sum = 0.0
    kappa_prime_max = 0.0
    delta_max = 0.0
    surge_count = 0
    for k, (n_lo, n_hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = slab_block(sol, n_lo, n_hi)
        part = partition_meso_slab(sol, n_lo, n_hi, eps_t, sigma0, res.speed_range, block)
        kappa = max((oscillation(sol, g, n_lo, n_hi, block) for g in part.smooth), default=0.0)
        del block  # dropped before the next slab's block is built
        kp = max(part.surge_oscillations, default=0.0)
        dmax = max((s.delta for s in part.surges), default=0.0)
        slabs.append(SlabDiagnostics(
            index=k,
            n_lo=n_lo,
            n_hi=n_hi,
            t_lo=part.t_lo,
            t_hi=part.t_hi,
            n_surges=len(part.surges),
            kappa=kappa,
            kappa_prime_max=kp,
            delta_max=dmax,
            c0=_slab_c0(sigma0, eps_t, part.surges, part.surge_oscillations),
        ))
        partitions.append(part)
        kappa_sum += kappa
        kappa_prime_max = max(kappa_prime_max, kp)
        delta_max = max(delta_max, dmax)
        surge_count += len(part.surges)

    if surge_count == 0:
        e_surge = 0.0
    else:
        e_surge = (eps13 * kappa_prime_max + delta_max) * surge_count
    e_smooth = eps13 * (duration + kappa_sum)

    return EstimateReport(
        sigma0=sigma0,
        slab_mode=slab_mode,
        tau_target=tau_target,
        epsilon_t=eps_t,
        residual=res,
        slab_times=sol.times.t[np.array(bounds)],
        slabs=slabs,
        surge_count=surge_count,
        kappa_sum=kappa_sum,
        kappa_prime_max=kappa_prime_max,
        delta_max=delta_max,
        e_surge=e_surge,
        e_smooth=e_smooth,
        partitions=partitions,
    )
