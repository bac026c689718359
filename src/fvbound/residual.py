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

import numpy as np

from .grid import column_sums
from .models import llf_interface_fluxes, normalize_flux_kind, numerical_entropy_flux
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
    """Operator-norm bound per cell from the J+1 interface fluxes."""
    flux_l, flux_r = fluxes[:-1], fluxes[1:]
    return 0.5 * dt * dt * np.abs(flux_l - flux_r) + 0.5 * dx * dt * np.abs(
        flux_l + flux_r - 2.0 * f_center
    )


def level_residual_bounds(sol: SpaceTimeSolution, kind: str, n: int) -> np.ndarray:
    """Componentwise operator-norm bounds for every cell of level n, (J, m)."""
    return _cell_bounds(sol.grid.dx, sol.times.dt(n), sol.interface_fluxes(n, kind),
                        sol.model.flux(sol.states[n]))


def _entropy_triplets(dx, dt, q_hat, de, q_center):
    """(E1, E2, E3) per cell from the J+1 numerical entropy fluxes, the
    entropy decrease over the step and the cell entropy flux."""
    dq = q_hat[:-1] - q_hat[1:]
    e3 = 0.5 * dx * dx * de + dt * dx * (q_hat[:-1] - q_center)
    return dx * de + dt * dq, 0.5 * dt * dt * dq, e3


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
        E3 and their lower bound, from a second walk of the kernel epsilon folds."""
        with open(path, "w", newline="") as fh:
            cols = ["n", "j"] + [f"bound_{c}" for c in range(sol.model.m)]
            fh.write(",".join(cols + ["E1", "E2", "E3", "ent_lower"]) + "\r\n")
            for n, (_, _, layer) in enumerate(_layers(sol)):
                if layer is None:
                    break
                _, bounds, (e1, e2, e3) = layer
                rows = np.column_stack([bounds, e1, e2, e3, _entropy_lower(e1, e2, e3)]).tolist()
                fh.write("".join(f"{n},{j},{','.join(map(repr, row))}\r\n"
                                 for j, row in enumerate(rows)))


def _layers(sol: SpaceTimeSolution):
    """The residual kernel.  Per level n, yield (ghost-padded level n, its
    (min, max) signed wave speed, layer), where layer is (dt, cell bounds,
    (E1, E2, E3)) of the step to level n+1 under the recorded flux, or None
    for the last level.  Each level's model.level_terms is evaluated once."""
    llf = normalize_flux_kind(sol.flux_kind) == "llf"
    dx = sol.grid.dx
    levels = ((ext, *sol.model.level_terms(ext))
              for ext in map(sol.extended_states, range(sol.n_steps + 1)))
    ext, f, ent, ent_flux, speeds, speed_range = next(levels)
    for n, nxt in enumerate(levels):
        dt = sol.times.dt(n)
        fluxes = llf_interface_fluxes(ext, f, speeds) if llf else sol.interface_fluxes(n)
        # the LLF entropy-flux companion, as numerical_entropy_flux computes it
        lam = np.maximum(speeds[:-1], speeds[1:])
        q_hat = 0.5 * (ent_flux[:-1] + ent_flux[1:]) - 0.5 * lam * (ent[1:] - ent[:-1])
        triplets = _entropy_triplets(dx, dt, q_hat, ent[1:-1] - nxt[2][1:-1], ent_flux[1:-1])
        yield ext, speed_range, (dt, _cell_bounds(dx, dt, fluxes, f[1:-1]), triplets)
        ext, f, ent, ent_flux, speeds, speed_range = nxt
    yield ext, speed_range, None


def epsilon(sol: SpaceTimeSolution) -> ResidualReport:
    """Smallest computed constant bounding the weak and entropy residuals of
    the recorded marching flux.

    epsilon = C * max{beta, eta} / sup_n TV[u(t^n)], and 0 for constant
    solutions (also when both residual rates vanish).  beta is the maximal
    summed-bound rate over the time layers, eta the maximal rate of cell
    entropy-inequality violation (the negative part of the constant-test
    functional); both maxima exclude the very first layer, where the freshly
    projected initial data still carries unresolved jumps, whenever the run
    has more than one step.  speed_range keeps each level's extreme signed
    wave speeds for the slab cover.
    """
    n_steps = sol.n_steps
    tv = np.empty((n_steps + 1, sol.model.m))
    speed_range = np.empty((n_steps + 1, 2))
    beta_levels = np.zeros(n_steps)
    eta_levels = np.zeros(n_steps)
    for n, (ext, speed_range[n], layer) in enumerate(_layers(sol)):
        tv[n] = column_sums(np.abs(np.diff(ext, axis=0)))
        if layer is not None:
            dt, bounds, (e1, _, _) = layer
            beta_levels[n] = column_sums(bounds).max() / dt
            eta_levels[n] = np.abs(np.minimum(e1, 0.0)).sum() / dt

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
        speed_range=speed_range,
    )
