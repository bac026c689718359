"""Reference code the tests check fvbound against and nothing in fvbound
calls: pointwise sampling of an exact Riemann fan and the per-cell cover
counts of a slab partition."""

import numpy as np

from fvbound.models import Burgers
from fvbound.partition import SlabPartition, trapezoid_cell_ranges
from fvbound.riemann import WaveFan, _riemann_invariant
from fvbound.solver import SpaceTimeSolution


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


def cover_counts(sol: SpaceTimeSolution, part: SlabPartition) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell intersection counts with (surge, smooth) trapezoids; rows are
    the slab's cell levels."""
    rows = part.n_hi - part.n_lo
    surge_counts = np.zeros((rows, sol.grid.J), dtype=int)
    smooth_counts = np.zeros((rows, sol.grid.J), dtype=int)
    for counts, traps in (
        (surge_counts, [s.outer for s in part.surges]),
        (smooth_counts, part.smooth),
    ):
        for trap in traps:
            levels, j_lo, j_hi = trapezoid_cell_ranges(trap, sol, part.n_lo, part.n_hi)
            for level, a, b in zip(levels - part.n_lo, j_lo, j_hi + 1):
                counts[level, a:b] += 1
    return surge_counts, smooth_counts
