"""Local weak residuals, entropy dissipation, and the consistency scalar.

The local weak residual of a piecewise-constant solution on cell (j, n) is a
linear functional of the test function's averages along the left, top and
right cell edges.  Its operator norm over affine test functions is bounded by

    1/2 dt^2 |F_l - F_r|  +  1/2 dx dt |F_l + F_r - 2 f(u_j^n)|

per component, where F_l/F_r are the interface fluxes.  Summing the bounds
per time slab, together with an analogous entropy-dissipation bound, yields
the scalar consistency parameter epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import column_sums
from .models import interface_fluxes, normalize_flux_kind, numerical_entropy_flux

if TYPE_CHECKING:  # solver imports this module to fold epsilon while it marches
    from .solver import SpaceTimeSolution

# Maps the edge averages (left, top, right) of an affine test function
# a1 + a2*(t^{n+1}-t)/dt + a3*(x-x_center)/dx  to its coefficients and back.
PROJECTION_MATRIX = np.array([[1.0, 0.5, -0.5], [1.0, 0.0, 0.0], [1.0, 0.5, 0.5]])
PROJECTION_INV = np.array([[0.0, 1.0, 0.0], [1.0, -2.0, 1.0], [-1.0, 0.0, 1.0]])


@dataclass(frozen=True)
class TestFunctionCoefficients:
    """Coefficients of {1, backward time hat, centered x hat} on one cell."""

    a1: float
    a2: float
    a3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])

    def edge_averages(self) -> np.ndarray:
        """Averages (left, top, right) of the induced affine function."""
        return PROJECTION_MATRIX @ self.as_array()

    def corner_values(self) -> np.ndarray:
        return np.array(
            [self.a1 + i * self.a2 + s * 0.5 * self.a3 for i in (0.0, 1.0) for s in (-1.0, 1.0)]
        )

    def w1inf_norm(self, dt: float, dx: float) -> float:
        """W^{1,inf} norm on a dt-by-dx cell (sup-norm gradient)."""
        return max(
            float(np.abs(self.corner_values()).max()),
            abs(self.a2) / dt,
            abs(self.a3) / dx,
        )


def projection_coefficients(edge_averages) -> TestFunctionCoefficients:
    """Affine function matching the given (left, top, right) edge averages."""
    alpha = PROJECTION_INV @ np.asarray(edge_averages, dtype=float)
    return TestFunctionCoefficients(*alpha)


def _b_edge_form(dx, dt, u_n, u_np1, f_center, flux_l, flux_r, avg_l, avg_top, avg_r):
    """Local weak residual from edge averages of the test function.

    All state arguments may carry leading cell axes; the averages are scalars
    or arrays broadcastable against them.
    """
    return (
        dx * (u_n - u_np1) * np.asarray(avg_top)[..., None]
        + dt * f_center * (np.asarray(avg_r) - np.asarray(avg_l))[..., None]
        + dt * (flux_l * np.asarray(avg_l)[..., None] - flux_r * np.asarray(avg_r)[..., None])
    )


def _cell_bounds(dx, dt, fluxes, f_center):
    """Operator-norm bound per cell from the J+1 interface fluxes:
    1/2 dt^2 |F_l - F_r| + 1/2 dx dt |F_l + F_r - 2 f|, in place."""
    flux_l, flux_r = fluxes[:-1], fluxes[1:]
    bounds = flux_l - flux_r
    np.abs(bounds, out=bounds)
    bounds *= 0.5 * dt * dt
    center = flux_l + flux_r
    center -= 2.0 * f_center
    np.abs(center, out=center)
    center *= 0.5 * dx * dt
    bounds += center
    return bounds


def level_residual_bounds(sol: SpaceTimeSolution, kind: str, n: int) -> np.ndarray:
    """Componentwise operator-norm bounds for every cell of level n, (J, m)."""
    return _cell_bounds(sol.grid.dx, sol.times.dt(n), sol.interface_fluxes(n, kind),
                        sol.model.flux(sol.states[n]))


def _entropy_e1(dx, dt, q_hat, de):
    """E1 per cell, the only triplet entry epsilon needs, from the J+1
    numerical entropy fluxes and the entropy decrease over the step."""
    return dx * de + dt * (q_hat[:-1] - q_hat[1:])


def _entropy_triplets(dx, dt, q_hat, de, q_center):
    """(E1, E2, E3) per cell from the J+1 numerical entropy fluxes, the
    entropy decrease over the step and the cell entropy flux."""
    e3 = 0.5 * dx * dx * de + dt * dx * (q_hat[:-1] - q_center)
    return _entropy_e1(dx, dt, q_hat, de), 0.5 * dt * dt * (q_hat[:-1] - q_hat[1:]), e3


def level_entropy_triplets(sol: SpaceTimeSolution, n: int):
    """(E1, E2, E3) per cell of level n plus the lower bound
    min{0,E1} + min{0,E2} + min{0,E3}."""
    model = sol.model
    ext = sol.extended_states(n)
    e1, e2, e3 = _entropy_triplets(
        sol.grid.dx, sol.times.dt(n), numerical_entropy_flux(model, ext[:-1], ext[1:]),
        model.entropy(sol.states[n]) - model.entropy(sol.states[n + 1]),
        model.entropy_flux(sol.states[n]),
    )
    return e1, e2, e3, _entropy_lower(e1, e2, e3)


def _entropy_lower(e1, e2, e3):
    """min{0,E1} + min{0,E2} + min{0,E3}."""
    return np.minimum(e1, 0.0) + np.minimum(e2, 0.0) + np.minimum(e3, 0.0)


def total_variation(sol: SpaceTimeSolution, n: int) -> tuple[np.ndarray, float]:
    """Per-component TV of level n (ghost interfaces included) and its
    sup-norm reduction."""
    ext = sol.extended_states(n)
    tv = np.abs(np.diff(ext, axis=0)).sum(axis=0)
    return tv, float(tv.max())


def level_corner_oracle(sol: SpaceTimeSolution, kind: str, n: int) -> np.ndarray:
    """Exact sup of |B_j^n(phi)| over the 8 corner test functions of the
    normalized affine box with zero mean coefficient, per cell (J, m).

    Independent of the closed-form bound: evaluates the residual operator
    through its edge-average form for each corner function.
    """
    dt = sol.times.dt(n)
    dx = sol.grid.dx
    fluxes = sol.interface_fluxes(n, kind)
    flux_l, flux_r = fluxes[:-1], fluxes[1:]
    u_n, u_np1 = sol.states[n], sol.states[n + 1]
    f_center = sol.model.flux(u_n)
    best = np.zeros_like(u_n)
    for s2 in (-1.0, 0.0, 1.0):
        for s3 in (-1.0, 0.0, 1.0):
            if s2 == 0.0 and s3 == 0.0:
                continue
            # phi = s2*(t^{n+1}-t) + s3*(x - x_center)
            avg_l = s2 * dt / 2.0 - s3 * dx / 2.0
            avg_r = s2 * dt / 2.0 + s3 * dx / 2.0
            val = _b_edge_form(dx, dt, u_n, u_np1, f_center, flux_l, flux_r,
                               avg_l, 0.0, avg_r)
            best = np.maximum(best, np.abs(val))
    return best


@dataclass(frozen=True)
class SlabTestFunction:
    """Globally Lipschitz test function, affine on every cell of a slab:
    phi(t, x) = time_slope*(t - t^n) + pwl(x) with node values at the J+1
    interfaces."""

    time_slope: float
    node_values: np.ndarray

    @staticmethod
    def constant(value: float, grid) -> "SlabTestFunction":
        return SlabTestFunction(0.0, np.full(grid.J + 1, float(value)))

    @staticmethod
    def coordinate_x(grid) -> "SlabTestFunction":
        return SlabTestFunction(0.0, grid.interfaces().copy())


def global_weak_residual(
    sol: SpaceTimeSolution,
    kind: str,
    n: int,
    phi: SlabTestFunction,
    method: str = "local",
) -> np.ndarray:
    """Weak residual of the slab [t^n, t^{n+1}] x Omega against phi.

    method="local" sums the per-cell operators (interior numerical fluxes
    telescope); method="direct" integrates the weak form exactly, keeping
    only the two boundary flux terms.  Both agree for continuous phi.
    """
    dt = sol.times.dt(n)
    dx = sol.grid.dx
    psi = np.asarray(phi.node_values, dtype=float)
    if psi.shape != (sol.grid.J + 1,):
        raise ValueError(f"need {sol.grid.J + 1} node values, got {psi.shape}")
    u_n, u_np1 = sol.states[n], sol.states[n + 1]
    fluxes = sol.interface_fluxes(n, kind)

    if method == "local":
        avg_l = phi.time_slope * dt / 2.0 + psi[:-1]
        avg_r = phi.time_slope * dt / 2.0 + psi[1:]
        avg_top = phi.time_slope * dt + 0.5 * (psi[:-1] + psi[1:])
        f_center = sol.model.flux(u_n)
        cells = _b_edge_form(dx, dt, u_n, u_np1, f_center, fluxes[:-1], fluxes[1:],
                             avg_l, avg_top, avg_r)
        return cells.sum(axis=0)
    if method != "direct":
        raise ValueError(f"unknown method '{method}'")

    psi_bar = 0.5 * (psi[:-1] + psi[1:])
    slope = (psi[1:] - psi[:-1]) / dx
    f_center = sol.model.flux(u_n)
    total = (u_n * (dx * psi_bar)[:, None]).sum(axis=0)
    total -= (u_np1 * (dx * (phi.time_slope * dt + psi_bar))[:, None]).sum(axis=0)
    total += dx * dt * phi.time_slope * u_n.sum(axis=0)
    total += dt * dx * (f_center * slope[:, None]).sum(axis=0)
    avg_bl = phi.time_slope * dt / 2.0 + psi[0]
    avg_br = phi.time_slope * dt / 2.0 + psi[-1]
    total += dt * (fluxes[0] * avg_bl - fluxes[-1] * avg_br)
    return total


@dataclass
class ResidualReport:
    """Weak-residual and entropy-dissipation bounds for a full solution."""

    flux_kind: str
    epsilon: float
    beta: float  # max layer rate of the summed weak-residual bounds
    eta: float  # max layer rate of cell entropy-inequality violation
    stability_constant: float  # max{3, sqrt(8 + 8 c^2)}
    c_max: float  # max dt/dx over all steps
    tv: np.ndarray  # (N+1, m) per-component total variation history
    tv_scalar: np.ndarray  # (N+1,)
    beta_levels: np.ndarray  # (N,)
    eta_levels: np.ndarray  # (N,)
    speed_range: np.ndarray  # (N+1, 2) min/max signed wave speed per level

    @property
    def tv_max(self) -> float:
        return float(self.tv_scalar.max()) if self.tv_scalar.size else 0.0

    def to_json_dict(self) -> dict:
        return {
            "flux_kind": self.flux_kind,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "eta": self.eta,
            "stability_constant": self.stability_constant,
            "c_max": self.c_max,
            "tv_max": self.tv_max,
            "levels": len(self.tv_scalar),
        }

    def write_cells_csv(self, sol: SpaceTimeSolution, path: str) -> None:
        """One row per layer and cell of sol: the bound per component, E1, E2,
        E3 and their lower bound, from a replay of sol's levels through the
        fold that gives epsilon.  A row whose bits equal the same cell's row
        of the layer before is not formatted again."""
        dx = sol.grid.dx
        fold = ResidualFold(dx)
        rows = _RowTexts(sol.grid.J, sol.model.m + 4, [str(j) for j in range(sol.grid.J)])
        with open(path, "w", newline="") as fh:
            cols = ["n", "j"] + [f"bound_{c}" for c in range(sol.model.m)]
            fh.write(",".join(cols + ["E1", "E2", "E3", "ent_lower"]) + "\r\n")
            for n, level in enumerate(_stored_levels(sol), start=-1):
                layer = fold.add(*level)
                if layer is None:
                    continue
                dt, bounds, entropy = layer
                e1, e2, e3 = _entropy_triplets(dx, dt, *entropy)
                block = np.column_stack([bounds, e1, e2, e3, _entropy_lower(e1, e2, e3)])
                fh.write(f"{n}," + f"\r\n{n},".join(rows.update(block)) + "\r\n")


class _RowTexts:
    """The text of each row of a sequence of (rows, width) float blocks: its
    head, if given, and its values by repr, joined by commas, kept from
    block to block.  A row is formatted again only where its int64 bit
    pattern differs from the previous block's (from an all +0.0 block before
    the first), so -0.0 and 0.0 stay apart and the texts equal formatting
    every row afresh."""

    def __init__(self, rows: int, width: int, heads: list[str] | None = None):
        zeros = ",".join(["0.0"] * width)
        if heads is None:
            self._heads, texts = None, [zeros] * rows
        else:
            self._heads = np.array(heads, dtype=object)
            texts = [f"{head},{zeros}" for head in heads]
        self._texts = np.array(texts, dtype=object)
        self._bits = np.zeros((rows, width), dtype=np.int64)

    def update(self, block: np.ndarray) -> list[str]:
        """The texts of block's rows; block may change after the call."""
        bits = block.view(np.int64)
        changed = np.flatnonzero((bits != self._bits).any(axis=1))
        values = map(repr, block[changed].ravel().tolist())
        columns = [values] * block.shape[1]  # one iterator: zip takes width values per row
        if self._heads is not None:
            columns.insert(0, self._heads[changed])
        self._texts[changed] = list(map(",".join, zip(*columns)))
        self._bits[changed] = bits[changed]
        return self._texts.tolist()


def _terms_cells(lo: int, hi: int, J: int) -> tuple[int, int]:
    """The cells [a, b) whose model.level_terms a level carries after a step
    that updated the cells [lo, hi): those grown by one cell on each side,
    clipped to the grid.  They hold the next step's window, and a copy of
    each ghost state wherever cells lie beyond them, so the terms' speed
    extremes over their interior are the whole level's."""
    return max(lo - 1, 0), min(hi + 1, J)


def _zero_padded_sums(buffer: np.ndarray, rows: slice) -> np.ndarray:
    """column_sums of a (J, m) buffer that is zero outside rows, bit for bit.
    With m >= 2 each column is added in order, so the zero rows add nothing
    and only rows are summed; numpy sums the m = 1 column pairwise, grouped
    by position, so there the whole buffer is summed."""
    return column_sums(buffer if buffer.shape[1] == 1 else buffer[rows])


class ResidualFold:
    """The residual kernel: epsilon as a fold over the levels of a run, with
    O(J) state.  Each level arrives ghost-padded with its model.level_terms
    and the interface fluxes of the step that produced it, and closes the
    layer below it.  run feeds the fold while it marches, level by level
    over each step's active window; epsilon(sol) and write_cells_csv replay
    stored levels through it with the whole grid as the window."""

    def __init__(self, dx: float):
        self.dx = dx
        # per-level figures as Python floats, which keep no small numpy buffers alive
        self.tv: list[list[float]] = []
        self.speed_range: list[tuple[float, float]] = []
        self.beta_levels: list[float] = []
        self.eta_levels: list[float] = []
        self._last = None  # (t, first cell of its terms, level terms) of the level folded last
        # Full-length |jumps|, cell bounds and E1 deficits |min(E1, 0)|, kept
        # exactly zero outside the window, so their pairwise sums keep the
        # bits of a whole-grid pass; allocated at the first level.
        self._jumps = self._bounds = self._deficit = None
        self._layer = slice(0, 0)  # the window of the layer closed last

    def add(self, t, padded: np.ndarray, terms, fluxes: np.ndarray | None, window=None):
        """Fold the level at time t; return the layer it closes, (dt, cell
        bounds, (q_hat, entropy decrease, cell entropy flux)) over the cells
        of window with dt = t - t_prev, or None for the first.  Only E1
        enters epsilon; _entropy_triplets gives (E1, E2, E3) from the
        returned entropy parts.

        window (lo, hi) holds the cells the step into the level updated and
        fluxes are its interface fluxes lo..hi; terms are model.level_terms
        of padded over _terms_cells(window).  None means the whole grid,
        which the first level always is.  Outside window every layer term is
        exactly zero."""
        J = len(padded) - 2
        lo, hi = window or (0, J)
        a, b = _terms_cells(lo, hi, J)
        if self._last is None:
            self._jumps = np.empty((J + 1, padded.shape[1]))
            self._bounds = np.zeros((J, padded.shape[1]))
            self._deficit = np.zeros(J)
        jumps = self._jumps[a:b + 1]
        np.subtract(padded[a + 1:b + 2], padded[a:b + 1], out=jumps)
        np.abs(jumps, out=jumps)
        self.tv.append(_zero_padded_sums(self._jumps, slice(a, b + 1)).tolist())
        self.speed_range.append(terms[4])
        last, self._last = self._last, (t, a, terms)
        if last is None:
            return None
        t_prev, a_prev, (f, ent, ent_flux, speeds, _) = last
        rows = slice(lo - a_prev, hi - a_prev + 2)  # the window's padded slice
        f, ent, ent_flux, speeds = f[rows], ent[rows], ent_flux[rows], speeds[rows]
        dx, dt = self.dx, float(t) - float(t_prev)
        # the LLF entropy-flux companion, as numerical_entropy_flux computes it
        lam = np.maximum(speeds[:-1], speeds[1:])
        q_hat = 0.5 * (ent_flux[:-1] + ent_flux[1:]) - 0.5 * lam * (ent[1:] - ent[:-1])
        de = ent[1:-1] - terms[1][lo - a + 1:hi - a + 1]
        bounds = _cell_bounds(dx, dt, fluxes, f[1:-1])
        e1 = _entropy_e1(dx, dt, q_hat, de)
        self._bounds[self._layer] = 0.0
        self._deficit[self._layer] = 0.0
        self._layer = slice(lo, hi)
        self._bounds[lo:hi] = bounds
        self._deficit[lo:hi] = np.abs(np.minimum(e1, 0.0))
        self.beta_levels.append(float(_zero_padded_sums(self._bounds, self._layer).max() / dt))
        self.eta_levels.append(float(self._deficit.sum() / dt))
        return dt, bounds, (q_hat, de, ent_flux[1:-1])

    def report(self, sol: SpaceTimeSolution) -> ResidualReport:
        """The ResidualReport of the folded levels, which are sol's.

        epsilon = C * max{beta, eta} / sup_n TV[u(t^n)], and 0 for constant
        solutions (also when both residual rates vanish).  beta is the maximal
        summed-bound rate over the time layers, eta the maximal rate of cell
        entropy-inequality violation (the negative part of the constant-test
        functional); both maxima exclude the very first layer, where the
        freshly projected initial data still carries unresolved jumps,
        whenever the run has more than one step.
        """
        n_steps = sol.n_steps
        tv = np.array(self.tv)
        beta_levels = np.array(self.beta_levels)
        eta_levels = np.array(self.eta_levels)
        c_max = float(np.diff(sol.times.t).max(initial=0.0)) / sol.grid.dx
        tv_scalar = tv.max(axis=1)
        start = 1 if n_steps >= 2 else 0
        beta = float(beta_levels[start:].max()) if n_steps else 0.0
        eta = float(eta_levels[start:].max()) if n_steps else 0.0
        big_c = max(3.0, float(np.sqrt(8.0 + 8.0 * c_max * c_max)))
        tv_max = float(tv_scalar.max())
        if tv_max == 0.0 or max(beta, eta) == 0.0:
            eps = 0.0
        else:
            eps = big_c * max(beta, eta) / tv_max
        return ResidualReport(
            flux_kind=normalize_flux_kind(sol.flux_kind),
            epsilon=eps,
            beta=beta,
            eta=eta,
            stability_constant=big_c,
            c_max=c_max,
            tv=tv,
            tv_scalar=tv_scalar,
            beta_levels=beta_levels,
            eta_levels=eta_levels,
            speed_range=np.array(self.speed_range),
        )


def _stored_levels(sol: SpaceTimeSolution):
    """(t, ghost-padded level, model.level_terms, fluxes of the step into the
    level or None) for every recorded level of sol, as run feeds its fold,
    walking the history forward."""
    fluxes = None
    for n, (t, level) in enumerate(zip(sol.times.t, sol.states.walk())):
        padded = np.vstack([sol.ghost_left[None, :], level, sol.ghost_right[None, :]])
        terms = sol.model.level_terms(padded)
        yield t, padded, terms, fluxes
        if n < sol.n_steps:
            fluxes = interface_fluxes(sol.flux_kind, sol.model, padded, terms[0], terms[3])


def epsilon(sol: SpaceTimeSolution) -> ResidualReport:
    """Smallest computed constant bounding the weak and entropy residuals of
    the recorded marching flux (see ResidualFold.report); speed_range keeps
    each level's extreme signed wave speeds for the slab cover.

    A solution recorded by run carries the report its run folded; any other
    (a loaded dump, a hand-built or dataclasses.replace'd record) replays its
    stored levels through the same fold.
    """
    if sol.residual is not None:
        return sol.residual
    fold = ResidualFold(sol.grid.dx)
    for level in _stored_levels(sol):
        fold.add(*level)
    return fold.report(sol)
