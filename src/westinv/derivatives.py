"""Linearized (sensitivity), adjoint and second-derivative PDE solves, plus
assembly of the discretized Jacobian and directional Hessian over a basis.

The sensitivity and second-derivative equations are integrated once in time
and marched in the conservative form ((1 - 2 kappa p) u)_t + b A u
+ c^2 \\int A u = g by the forward solver's own Crank-Nicolson march
(westinv.forward.march_linear); this makes the discrete solves the exact
first and second derivatives of the discrete forward map (up to the inner
fixed-point tolerance).

The adjoint equation (1 - 2 kappa p) a_tt - b A a_t + c^2 A a = 0 is the
continuous (optimize-then-discretize) adjoint.  In the time-reversed variable
u(s) = a(T - s), with the observation residual entering as a boundary flux at
x = 1, it is marched in v = u_s by the same scheme, and u is the trapezoidal
integral of v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, CoefficientField, evaluate_basis
from .errors import GridMismatchError, UnsupportedObservationError
from .forward import (
    SourceTerm,
    StateField,
    _cumulative_trapezoid,
    kappa_samples,
    march_linear,
    solve_forward,
)
from .grids import (
    DIRICHLET,
    BoundaryCondition,
    MaterialParams,
    SolverOptions,
    SpatialGrid,
    TimeGrid,
)
from .laplacian import Laplace1D, build_laplacian
from .trace import TimeTrace


@dataclass
class Direction:
    """A coefficient perturbation d-kappa sampled on the spatial grid."""

    samples: np.ndarray
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("direction samples must be finite")


@dataclass
class JacobianMatrix:
    """Discretized F'(kappa0): column j is the sampled trace of the
    sensitivity solution for basis direction e_j.  Shape (ns, m)."""

    entries: np.ndarray
    sample_times: np.ndarray
    basis: BasisSet
    frozen_at: np.ndarray  # kappa0 grid samples
    sensitivities: list | None = None  # cached z fields, reused by the Hessian


@dataclass
class DirectionalHessianMatrix:
    """Discretized F''(kappa0)[d, .]: column j is the sampled trace of the
    second-derivative solution for the pair (d, e_j)."""

    entries: np.ndarray
    sample_times: np.ndarray
    direction: Direction


def _check_same_grids(state: StateField, grid: SpatialGrid, tgrid: TimeGrid):
    if state.grid != grid or state.tgrid != tgrid:
        raise GridMismatchError("state field lives on different grids")


def solve_sensitivity(
    base: StateField,
    kappa,
    direction: Direction,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    opts: SolverOptions | None = None,
    operator: Laplace1D | None = None,
) -> StateField:
    """Solve the linearized equation for z = G'(kappa) d-kappa:

    (1 - 2 kappa p) z_tt + c^2 A z + b A z_t - 4 kappa p_t z_t
        - 2 kappa p_tt z = 2 d-kappa (p p_tt + p_t^2),

    via its once-integrated conservative form (no inner loop needed)."""
    _check_same_grids(base, grid, tgrid)
    kap = kappa_samples(kappa, grid)
    if direction.samples.shape != (grid.nx,):
        raise GridMismatchError("direction does not match the spatial grid")
    A = operator if operator is not None else build_laplacian(grid, bc)
    p = base.values
    alpha = 1.0 - 2.0 * kap[:, None] * p
    # integrated RHS: d-kappa * p^2 (its discrete time increment drives z)
    rhs_levels = direction.samples[:, None] * p**2
    z = march_linear(A, params, tgrid, alpha[:, :-1], alpha[:, 1:],
                     np.diff(rhs_levels, axis=1) / tgrid.dt)
    return StateField(z, grid, tgrid)


def solve_second_derivative(
    base: StateField,
    kappa0,
    z1: StateField,
    z2: StateField,
    d1: Direction,
    d2: Direction,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    operator: Laplace1D | None = None,
) -> StateField:
    """Solve for w = G''(kappa0)[d1, d2]:

    ((1 - 2 kappa0 p) w)_tt + b A w_t + c^2 A w
        = 2 (kappa0 z1 z2 + p (d1 z2 + d2 z1))_tt,

    marched in the once-integrated conservative form."""
    for s in (base, z1, z2):
        _check_same_grids(s, grid, tgrid)
    kap = kappa_samples(kappa0, grid)
    A = operator if operator is not None else build_laplacian(grid, bc)
    p = base.values
    alpha = 1.0 - 2.0 * kap[:, None] * p
    rhs_levels = 2.0 * (
        kap[:, None] * z1.values * z2.values
        + p * (d1.samples[:, None] * z2.values + d2.samples[:, None] * z1.values)
    )
    w = march_linear(A, params, tgrid, alpha[:, :-1], alpha[:, 1:],
                     np.diff(rhs_levels, axis=1) / tgrid.dt)
    return StateField(w, grid, tgrid)


def solve_adjoint(
    base: StateField,
    kappa,
    residual: TimeTrace,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    obs_point: float | None = None,
    operator: Laplace1D | None = None,
) -> StateField:
    """Solve the adjoint equation backward in time with end conditions
    a(T) = a_t(T) = 0 and the residual y entering as the flux condition
    d/dx (b a_t - c^2 a) = -y at the observation endpoint x = 1.

    The residual must be sampled on the solver time grid (prefilter /
    upsample beforehand).  Returns a in forward-time orientation."""
    _check_same_grids(base, grid, tgrid)
    if len(residual) != tgrid.nt + 1:
        raise GridMismatchError("residual is not sampled on the solver time grid")
    obs = grid.b if obs_point is None else obs_point
    if obs != grid.b:
        raise UnsupportedObservationError(
            "only observation at the right boundary x = b is supported in 1-D"
        )
    if bc.right.kind == DIRICHLET:
        raise UnsupportedObservationError(
            "observation at a Dirichlet endpoint carries no information"
        )
    kap = kappa_samples(kappa, grid)
    A = operator if operator is not None else build_laplacian(grid, bc)

    # time-reversed variables u(s) = a(T - s), v = u_s: alpha v_s + b A v
    # + c^2 A u = delta_{x=1} y(T - s) is the linear march in v with
    # alpha frozen at each step's midpoint and memory A u = \\int_0^s A v
    alpha_rev = (1.0 - 2.0 * kap[:, None] * base.values)[:, ::-1]
    alpha_mid = 0.5 * (alpha_rev[:, :-1] + alpha_rev[:, 1:])
    y_rev = residual.values[::-1]
    delta = np.zeros(grid.nx)
    delta[-1] = 2.0 / grid.dx  # discrete boundary delta at x = 1
    forcing = delta[:, None] * (0.5 * (y_rev[:-1] + y_rev[1:]))[None, :]
    v = march_linear(A, params, tgrid, alpha_mid, alpha_mid, forcing)
    u = _cumulative_trapezoid(v, tgrid.dt)
    return StateField(u[:, ::-1].copy(), grid, tgrid)


def apply_gradient(
    adjoint: StateField,
    psq_tt: np.ndarray,
    s: int,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    operator: Laplace1D | None = None,
    bc: BoundaryCondition | None = None,
) -> Direction:
    """Gradient g(x) = \\int_0^T (p^2)_tt a dt (trapezoidal in time); for
    smoothing order s = 1 the result is A^{-1} g with the active boundary
    conditions."""
    if s not in (0, 1):
        raise ValueError("smoothing order s must be 0 or 1")
    if psq_tt.shape != adjoint.values.shape:
        raise GridMismatchError("field shapes do not match")
    g = np.trapezoid(psq_tt * adjoint.values, dx=tgrid.dt, axis=1)
    if s == 1:
        A = operator if operator is not None else build_laplacian(grid, bc)
        g = A.solve(g)
    return Direction(g)


def sample_trace(trace_values: np.ndarray, tgrid: TimeGrid,
                 sample_times: np.ndarray) -> np.ndarray:
    """Linear-interpolation sampling of a solver-grid trace at given times."""
    return np.interp(sample_times, tgrid.times, trace_values)


def assemble_jacobian(
    kappa0,
    basis: BasisSet,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    source: SourceTerm,
    obs_point: float,
    sample_times: np.ndarray,
    opts: SolverOptions | None = None,
    base: StateField | None = None,
    keep_sensitivities: bool = True,
) -> JacobianMatrix:
    """Column j = sampled observation trace of the sensitivity solve for
    basis direction e_j at kappa0 (m linear solves)."""
    A = build_laplacian(grid, bc)
    kap = kappa_samples(kappa0, grid)
    if base is None:
        base = solve_forward(params, kap, source, grid, tgrid, bc, opts, A)
    E = evaluate_basis(basis, grid)
    obs_idx = grid.node_index(obs_point)
    cols = []
    zs = []
    for j in range(basis.m):
        d = Direction(E[:, j], np.eye(basis.m)[j])
        z = solve_sensitivity(base, kap, d, params, grid, tgrid, bc, opts, A)
        cols.append(sample_trace(z.values[obs_idx, :], tgrid, sample_times))
        if keep_sensitivities:
            zs.append(z)
    return JacobianMatrix(
        np.column_stack(cols), np.asarray(sample_times), basis, kap,
        zs if keep_sensitivities else None,
    )


def assemble_directional_hessian(
    d: Direction,
    kappa0,
    basis: BasisSet,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    source: SourceTerm,
    obs_point: float,
    sample_times: np.ndarray,
    base: StateField,
    jacobian: JacobianMatrix,
    opts: SolverOptions | None = None,
) -> DirectionalHessianMatrix:
    """Column j = sampled trace of the second-derivative solve for (d, e_j),
    reusing the sensitivity fields cached on the Jacobian (m solves)."""
    if jacobian.sensitivities is None:
        raise ValueError("jacobian was assembled without cached sensitivities")
    A = build_laplacian(grid, bc)
    kap = kappa_samples(kappa0, grid)
    E = evaluate_basis(basis, grid)
    obs_idx = grid.node_index(obs_point)
    zd = solve_sensitivity(base, kap, d, params, grid, tgrid, bc, opts, A)
    cols = []
    for j in range(basis.m):
        ej = Direction(E[:, j])
        w = solve_second_derivative(
            base, kap, zd, jacobian.sensitivities[j], d, ej,
            params, grid, tgrid, bc, A,
        )
        cols.append(sample_trace(w.values[obs_idx, :], tgrid, sample_times))
    return DirectionalHessianMatrix(
        np.column_stack(cols), np.asarray(sample_times), d
    )


def fd_jacobian_oracle(
    kappa0,
    basis: BasisSet,
    step: float,
    params: MaterialParams,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    bc: BoundaryCondition,
    source: SourceTerm,
    obs_point: float,
    sample_times: np.ndarray,
    opts: SolverOptions | None = None,
) -> JacobianMatrix:
    """Independent central-difference Jacobian: column j is
    (F(kappa0 + h e_j) - F(kappa0 - h e_j)) / (2h), two nonlinear forward
    solves per column."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    A = build_laplacian(grid, bc)
    kap = kappa_samples(kappa0, grid)
    E = evaluate_basis(basis, grid)
    obs_idx = grid.node_index(obs_point)
    cols = []
    for j in range(basis.m):
        traces = []
        for sign in (1.0, -1.0):
            state = solve_forward(
                params, kap + sign * step * E[:, j], source, grid, tgrid, bc,
                opts, A,
            )
            traces.append(
                sample_trace(state.values[obs_idx, :], tgrid, sample_times)
            )
        cols.append((traces[0] - traces[1]) / (2 * step))
    return JacobianMatrix(
        np.column_stack(cols), np.asarray(sample_times), basis, kap, None
    )


def matrix_to_csv(entries: np.ndarray, path) -> None:
    """CSV export of an assembled matrix, header j0..j{m-1}, row-major."""
    m = entries.shape[1]
    header = ",".join(f"j{j}" for j in range(m))
    np.savetxt(path, entries, delimiter=",", header=header, comments="",
               fmt="%.17g")
