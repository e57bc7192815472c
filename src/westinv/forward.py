"""Forward solver for the 1-D Westervelt equation in pressure form.

The equation

    p_tt - c^2 p_xx - b p_xx,t = kappa(x) (p^2)_tt + r(x, t)

is integrated once in time and solved as a parabolic problem with memory,

    (1 - 2 kappa p) p_t + b A p + c^2 \\int_0^t A p dtau = R(x, t),

with A = -d2/dx2 (boundary conditions folded in) and R the running time
integral of r.  Time stepping is Crank-Nicolson with the memory integral
accumulated by the trapezoidal rule and the nonlinear factor resolved by an
inner fixed-point loop.  The march (cn_march) is shared with the linear
sensitivity, second-derivative and adjoint solves in westinv.derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneracyError,
    GridTooCoarseError,
    IncompatibleBCError,
    NoConvergenceError,
    OffGridError,
)
from .grids import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    MaterialParams,
    SolverOptions,
    SpatialGrid,
    TimeGrid,
)
from .laplacian import Laplace1D, build_laplacian
from .trace import TimeTrace


@dataclass
class SourceTerm:
    """Excitation r(x, t) sampled on the space-time grid."""

    values: np.ndarray  # shape (nx, nt + 1)
    tag: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("source values must be finite")


@dataclass
class StateField:
    """Space-time sample of a PDE solution (p, z, a or w)."""

    values: np.ndarray  # shape (nx, nt + 1)
    grid: SpatialGrid
    tgrid: TimeGrid
    _dt_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nx, self.tgrid.nt + 1)
        if self.values.shape != expected:
            raise ValueError(
                f"state shape {self.values.shape} does not match grids {expected}"
            )

    @property
    def time_derivative(self) -> np.ndarray:
        """First time derivative, second-order centered (one-sided at ends)."""
        if self._dt_cache is None:
            self._dt_cache = _time_derivative(self.values, self.tgrid.dt)
        return self._dt_cache

    def to_csv(self, path) -> None:
        """Write the field as CSV: header t,x0,...,x{nx-1}, one row per time
        level, 17 significant digits."""
        nx = self.grid.nx
        header = "t," + ",".join(f"x{i}" for i in range(nx))
        data = np.column_stack([self.tgrid.times, self.values.T])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")

    @classmethod
    def from_csv(cls, path, grid: SpatialGrid, tgrid: TimeGrid) -> "StateField":
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls(data[:, 1:].T, grid, tgrid)


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2 * dt)
    out[:, 0] = (-3 * values[:, 0] + 4 * values[:, 1] - values[:, 2]) / (2 * dt)
    out[:, -1] = (3 * values[:, -1] - 4 * values[:, -2] + values[:, -3]) / (2 * dt)
    return out


def kappa_samples(kappa, grid: SpatialGrid) -> np.ndarray:
    """Normalize a coefficient argument (None, array, or CoefficientField)
    to grid samples."""
    if kappa is None:
        return np.zeros(grid.nx)
    samples = getattr(kappa, "samples", kappa)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0:
        return np.full(grid.nx, float(samples))
    if samples.shape != (grid.nx,):
        raise ValueError("kappa samples do not match the spatial grid")
    return samples


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral along the time axis, same shape."""
    out = np.zeros_like(values)
    increments = 0.5 * dt * (values[:, 1:] + values[:, :-1])
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def cn_march(A: Laplace1D, params: MaterialParams, tgrid: TimeGrid,
             forcing: np.ndarray, advance) -> np.ndarray:
    """Crank-Nicolson march of (a u)_t + b A u + c^2 \\int_0^t A u = f with
    homogeneous initial data; the one time loop behind every solve.

    forcing[:, n] is f on step n -> n + 1.  advance(n, un, step) returns
    u^{n+1}, where step(a_old, a_new) solves
    (a_new/dt + coef A) u = a_old un/dt + rest for the step's fixed
    rest = f - coef A un - c^2 \\int_0^{t_n} A u (trapezoidal memory).
    """
    dt = tgrid.dt
    coef = params.b / 2 + params.c2 * dt / 4
    u = np.zeros((A.nx, tgrid.nt + 1))
    memory = np.zeros(A.nx)  # running integral of A u
    for n in range(tgrid.nt):
        un = u[:, n]
        Aun = A.apply(un)
        rest = -coef * Aun - params.c2 * memory + forcing[:, n]

        def step(a_old, a_new):
            ab = A.banded(a_new / dt, coef)
            return A.solve_banded_system(ab, a_old * un / dt + rest)

        u[:, n + 1] = advance(n, un, step)
        memory += 0.5 * dt * (Aun + A.apply(u[:, n + 1]))
    return u


def march_linear(A: Laplace1D, params: MaterialParams, tgrid: TimeGrid,
                 a_old: np.ndarray, a_new: np.ndarray,
                 forcing: np.ndarray) -> np.ndarray:
    """Linear march of cn_march with per-step coefficients a_old[:, n],
    a_new[:, n] and forcing[:, n], all of shape (nx, nt)."""
    return cn_march(A, params, tgrid, forcing,
                    lambda n, un, step: step(a_old[:, n], a_new[:, n]))


def solve_forward(
    params: MaterialParams,
    kappa,
    source: SourceTerm,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    opts: SolverOptions | None = None,
    operator: Laplace1D | None = None,
) -> StateField:
    """Crank-Nicolson solve of the time-integrated Westervelt equation with
    homogeneous initial data.

    Raises DegeneracyError if 1 - 2*kappa*p drops below the positivity floor
    and NoConvergenceError if the inner fixed-point loop stalls.
    """
    opts = opts or SolverOptions()
    kap = kappa_samples(kappa, grid)
    if source.values.shape != (grid.nx, tgrid.nt + 1):
        raise ValueError("source shape does not match grids")
    A = operator if operator is not None else build_laplacian(grid, bc)
    R = _cumulative_trapezoid(source.values, tgrid.dt)
    nonlinear = np.any(kap != 0.0)

    def advance(n, pn, step):
        pk = pn
        for _ in range(opts.max_inner):
            alpha_mid = 1.0 - kap * (pn + pk)
            pnew = step(alpha_mid, alpha_mid)
            done = not nonlinear or np.max(np.abs(pnew - pk)) <= opts.inner_tol
            pk = pnew
            if done:
                break
        else:
            raise NoConvergenceError(
                f"inner iteration did not reach {opts.inner_tol} in "
                f"{opts.max_inner} steps at t = {tgrid.times[n + 1]:.6g}"
            )
        floor = np.min(1.0 - 2.0 * kap * pk)
        if floor < opts.positivity_floor:
            raise DegeneracyError(
                f"1 - 2*kappa*p = {floor:.4g} fell below the floor "
                f"{opts.positivity_floor} at t = {tgrid.times[n + 1]:.6g}"
            )
        return pk

    p = cn_march(A, params, tgrid, 0.5 * (R[:, :-1] + R[:, 1:]), advance)
    return StateField(p, grid, tgrid)


def observe(state: StateField, obs_point: float) -> TimeTrace:
    """Extract the time trace h(t) = p(obs_point, t); the observation point
    must be a grid node (no interpolation)."""
    idx = state.grid.node_index(obs_point)
    if idx is None:
        raise OffGridError(f"observation point {obs_point} is not a grid node")
    return TimeTrace(state.tgrid.times.copy(), state.values[idx, :].copy(),
                     noise_level=0.0, provenance="synthetic-clean")


def manufactured_source(
    f,
    f_xx,
    beta,
    beta_t,
    beta_tt,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    kappa=None,
) -> SourceTerm:
    """Source r = f * beta'' + (A f) * (c^2 beta + b beta') whose linear
    (kappa = 0) solution is exactly f(x) beta(t).

    When kappa is given, kappa * (f^2) * (beta^2)'' is subtracted so that
    f beta also solves the nonlinear equation.
    """
    x = grid.nodes
    t = tgrid.times
    fx = np.asarray(f(x), dtype=float)
    Af = -np.asarray(f_xx(x), dtype=float)
    bt = np.asarray(beta(t), dtype=float)
    bt1 = np.asarray(beta_t(t), dtype=float)
    bt2 = np.asarray(beta_tt(t), dtype=float)

    scale = max(np.max(np.abs(fx)), 1.0)
    if abs(bt[0]) > 1e-12 or abs(bt1[0]) > 1e-12:
        raise ValueError("beta must satisfy beta(0) = beta'(0) = 0")
    _check_profile_bc(f, fx, grid, bc, scale)

    r = fx[:, None] * bt2[None, :] + Af[:, None] * (
        params.c2 * bt[None, :] + params.b * bt1[None, :]
    )
    if kappa is not None:
        kap = kappa_samples(kappa, grid)
        sq_tt = 2.0 * (bt * bt2 + bt1**2)  # (beta^2)''
        r = r - (kap * fx**2)[:, None] * sq_tt[None, :]
    return SourceTerm(r, tag="manufactured")


def _check_profile_bc(f, fx, grid: SpatialGrid, bc: BoundaryCondition, scale):
    h = 1e-6 * (grid.b - grid.a)
    for cond, endpoint, inward in ((bc.left, grid.a, 1.0), (bc.right, grid.b, -1.0)):
        value = fx[0] if inward > 0 else fx[-1]
        if cond.kind == DIRICHLET and abs(value) > 1e-10 * scale:
            raise IncompatibleBCError(
                f"f({endpoint}) = {value:.3g} violates the Dirichlet condition"
            )
        if cond.kind == NEUMANN:
            slope = (f(endpoint + inward * h) - f(endpoint)) / (inward * h)
            if abs(slope) > 1e-4 * scale:
                raise IncompatibleBCError(
                    f"f'({endpoint}) = {slope:.3g} violates the Neumann condition"
                )


def second_time_derivative_of_square(state: StateField) -> np.ndarray:
    """(p^2)_tt by second-order stencils: centered inside, one-sided 4-point
    at t = 0 and t = T."""
    if state.tgrid.nt < 3:
        raise GridTooCoarseError("need nt >= 3 for the one-sided stencils")
    q = state.values**2
    dt2 = state.tgrid.dt**2
    out = np.empty_like(q)
    out[:, 1:-1] = (q[:, 2:] - 2 * q[:, 1:-1] + q[:, :-2]) / dt2
    out[:, 0] = (2 * q[:, 0] - 5 * q[:, 1] + 4 * q[:, 2] - q[:, 3]) / dt2
    out[:, -1] = (2 * q[:, -1] - 5 * q[:, -2] + 4 * q[:, -3] - q[:, -4]) / dt2
    return out
