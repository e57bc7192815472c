"""Forward solver for the 1-D Westervelt equation in pressure form.

The equation

    p_tt - c^2 p_xx - b p_xx,t = kappa(x) (p^2)_tt + r(x, t)

is integrated once in time and solved as a parabolic problem with memory,

    (1 - 2 kappa p) p_t + b A p + c^2 \\int_0^t A p dtau = R(x, t),

with A = -d2/dx2 (boundary conditions folded in) and R the running time
integral of r.  Time stepping is Crank-Nicolson with the memory integral
accumulated by the trapezoidal rule; each step's quadratic equation is
solved by Newton's method from a quadratic extrapolation of the last three
levels.  The march (cn_march) is shared with the linear sensitivity,
second-derivative and adjoint solves in westinv.derivatives.
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

POSITIVITY_FLOOR = 0.25  # least admissible 1 - 2 kappa p


@dataclass
class SourceTerm:
    """Excitation r(x, t) sampled on the space-time grid."""

    values: np.ndarray  # shape (nx, nt + 1)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("source values must be finite")


@dataclass
class StateField:
    """Space-time sample of a PDE solution (p, z, a or w), or of k of them
    marched together."""

    values: np.ndarray  # shape (nx, nt + 1), or (nx, k, nt + 1)
    grid: SpatialGrid
    tgrid: TimeGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        shape = self.values.shape
        expected = (self.grid.nx, self.tgrid.nt + 1)
        if len(shape) not in (2, 3) or (shape[0], shape[-1]) != expected:
            raise ValueError(
                f"state shape {shape} does not match grids {expected}"
            )


def kappa_samples(kappa, grid: SpatialGrid) -> np.ndarray:
    """Normalize a coefficient argument (None, an (nx,) array, or a
    CoefficientField) to grid samples."""
    if kappa is None:
        return np.zeros(grid.nx)
    samples = np.asarray(getattr(kappa, "samples", kappa), dtype=float)
    if samples.shape != (grid.nx,):
        raise ValueError("kappa samples do not match the spatial grid")
    return samples


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral along the time axis, same shape."""
    out = np.zeros_like(values)
    increments = 0.5 * dt * (values[:, 1:] + values[:, :-1])
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


@dataclass(frozen=True, eq=False)
class Problem:
    """One measurement setup of the forward map kappa -> p|_Sigma: grids,
    material parameters, boundary conditions, excitation, solver options,
    the observation node and the trace sample times.

    Construction solves no PDE.  It builds the operator A, resolves the
    observation index (OffGridError if obs_point is not a grid node) and
    checks the source shape, once for every solve on this setup.
    sample_times defaults to the solver time levels.
    """

    params: MaterialParams
    grid: SpatialGrid
    tgrid: TimeGrid
    bc: BoundaryCondition
    source: SourceTerm
    opts: SolverOptions = field(default_factory=SolverOptions)
    obs_point: float = 1.0
    sample_times: np.ndarray | None = None
    operator: Laplace1D = field(init=False, repr=False)
    obs_index: int = field(init=False)

    def __post_init__(self):
        if self.source.values.shape != (self.grid.nx, self.tgrid.nt + 1):
            raise ValueError("source shape does not match grids")
        idx = self.grid.node_index(self.obs_point)
        if idx is None:
            raise OffGridError(
                f"observation point {self.obs_point} is not a grid node"
            )
        times = np.array(self.tgrid.times if self.sample_times is None
                         else self.sample_times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "obs_index", idx)
        object.__setattr__(self, "operator", build_laplacian(self.grid, self.bc))

    def sampled_trace(self, state: StateField) -> np.ndarray:
        """The observation trace of a solution, linearly interpolated at the
        sample times; (ns, k) for k solutions marched together."""
        return sample_trace(state.values[self.obs_index, :], self.tgrid,
                            self.sample_times)


def sample_trace(trace_values: np.ndarray, tgrid: TimeGrid,
                 sample_times: np.ndarray) -> np.ndarray:
    """Linear-interpolation sampling of a solver-grid trace at given times;
    the k rows of a (k, nt + 1) array give the k columns of the result."""
    if trace_values.ndim == 2:
        return np.column_stack([sample_trace(t, tgrid, sample_times)
                                for t in trace_values])
    return np.interp(sample_times, tgrid.times, trace_values)


def cn_march(problem: Problem, forcing, advance, keep=slice(None)) -> np.ndarray:
    """Crank-Nicolson march of (a u)_t + b A u + c^2 \\int_0^t A u = f with
    homogeneous initial data; the one time loop behind every solve.

    forcing yields f for steps n -> n + 1, n = 0, ..., nt - 1, shaped (nx,)
    or (nx, k): k columns march through the same step matrices.
    advance(n, un, step, u) returns u^{n+1}, where u is the returned array,
    filled up to level n; step(a_new, old) solves
    (a_new/dt + coef A) u = old/dt + f - coef A un - c^2 \\int_0^{t_n} A u
    (trapezoidal memory), so a linear step passes old = a_old un.  Returns
    u[keep] at every time level, time last.
    """
    A, params, tgrid = problem.operator, problem.params, problem.tgrid
    dt = tgrid.dt
    coef = params.b / 2 + params.c2 * dt / 4
    ab = A.banded(0.0, coef)  # each step rewrites only the diagonal
    cdiag, fixed = coef * A.diag, np.flatnonzero(A.dirichlet)
    steps = iter(forcing)
    f = next(steps)
    un = np.zeros(f.shape)
    u = np.zeros(un[keep].shape + (tgrid.nt + 1,))
    memory = np.zeros(f.shape)  # running integral of A u
    Aun = A.apply(un)

    def step(a_new, old):  # reads the loop's current rest
        np.add(a_new / dt, cdiag, out=ab[1])
        ab[1, fixed] = 1.0
        return A.solve_banded_system(ab, old / dt + rest)

    for n in range(tgrid.nt):
        rest = -coef * Aun - params.c2 * memory + f
        un = advance(n, un, step, u)
        u[..., n + 1] = un[keep]
        Aun_old, Aun = Aun, A.apply(un)
        memory += 0.5 * dt * (Aun_old + Aun)
        f = next(steps, None)
    return u


# weights of the constant, linear and quadratic extrapolation to t_{n+1}
# from the levels p^{n-2}, p^{n-1}, p^n that exist, oldest first
_EXTRAPOLATION = (np.array([1.0]), np.array([-1.0, 2.0]),
                  np.array([1.0, -3.0, 3.0]))


def solve_forward(problem: Problem, kappa) -> StateField:
    """Crank-Nicolson solve of the time-integrated Westervelt equation with
    homogeneous initial data.

    Each step solves F(p) = (p - p^n - kappa (p^2 - (p^n)^2))/dt + coef A p
    - rest = 0 by Newton's method, one tridiagonal solve per update, from
    the quadratic extrapolation of the last three levels.  F is quadratic,
    so after an update D the residual is exactly -kappa D^2/dt, and Varah's
    bound for the diagonally dominant step matrix caps the next update at
    max |kappa| D^2 / min(1 - 2 kappa p); the loop stops once that is at
    most opts.inner_tol.  At kappa = 0 this is one linear solve per step,
    taken directly: the same solve, without the predictor or the bound.

    Raises DegeneracyError if 1 - 2*kappa*p drops below POSITIVITY_FLOOR
    and NoConvergenceError if the bound is still above inner_tol after
    max_inner updates.
    """
    opts, tgrid = problem.opts, problem.tgrid
    kap = kappa_samples(kappa, problem.grid)
    two_kap, abs_kap = 2.0 * kap, np.abs(kap)
    R = _cumulative_trapezoid(problem.source.values, tgrid.dt)

    def advance(n, pn, step, p):
        levels = p[:, max(n - 2, 0):n + 1]
        pk = levels @ _EXTRAPOLATION[levels.shape[1] - 1]
        for _ in range(opts.max_inner):
            pnew = step(1.0 - two_kap * pk, pn - kap * (pk**2 + pn**2))
            margin = 1.0 - (two_kap * pnew).max()  # min(1 - 2 kappa p)
            # multiplied out, so that a margin <= 0 never stops the loop
            if (abs_kap * (pnew - pk)**2).max() <= opts.inner_tol * margin:
                break
            pk = pnew
        else:
            raise NoConvergenceError(
                f"Newton's method did not reach {opts.inner_tol} in "
                f"{opts.max_inner} updates at t = {tgrid.times[n + 1]:.6g}"
            )
        if margin < POSITIVITY_FLOOR:
            raise DegeneracyError(
                f"1 - 2*kappa*p = {margin:.4g} fell below the floor "
                f"{POSITIVITY_FLOOR} at t = {tgrid.times[n + 1]:.6g}"
            )
        return pnew

    ones = np.ones(problem.grid.nx)

    def linear(n, pn, step, p):  # kappa = 0: Newton's single solve
        return step(ones, pn)

    p = cn_march(problem, (0.5 * (R[:, :-1] + R[:, 1:])).T,
                 advance if kap.any() else linear)
    return StateField(p, problem.grid, tgrid)


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

    if abs(bt[0]) > 1e-12 or abs(bt1[0]) > 1e-12:
        raise ValueError("beta must satisfy beta(0) = beta'(0) = 0")
    _check_profile_bc(f, fx, bc)

    r = fx[:, None] * bt2[None, :] + Af[:, None] * (
        params.c2 * bt[None, :] + params.b * bt1[None, :]
    )
    if kappa is not None:
        kap = kappa_samples(kappa, grid)
        sq_tt = 2.0 * (bt * bt2 + bt1**2)  # (beta^2)''
        r = r - (kap * fx**2)[:, None] * sq_tt[None, :]
    return SourceTerm(r)


def _check_profile_bc(f, fx, bc: BoundaryCondition):
    """Raise IncompatibleBCError if the profile f (fx = f at the nodes)
    violates a Dirichlet or Neumann endpoint condition of [0, 1]."""
    scale = max(np.max(np.abs(fx)), 1.0)
    h = 1e-6
    for cond, endpoint, inward in ((bc.left, 0.0, 1.0), (bc.right, 1.0, -1.0)):
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
