"""Forward solver for the 1-D Westervelt equation in pressure form.

The equation

    p_tt - c^2 p_xx - b p_xx,t = kappa(x) (p^2)_tt + r(x, t)

is integrated once in time and solved as a parabolic problem with memory,

    (1 - 2 kappa p) p_t + b A p + c^2 \\int_0^t A p dtau = R(x, t),

with A = -d2/dx2 (boundary conditions folded in) and R the running time
integral of r.  Time stepping is Crank-Nicolson, the memory integral the
trapezoidal sum of the A u^n read off each step's solved system; Newton's
method solves each step's quadratic equation from a quadratic extrapolation
of the last three levels.  The march (cn_march) is shared with the linear
sensitivity, second-derivative and adjoint solves in westinv.derivatives.
It solves each step's system in its symmetric positive definite form, rows
scaled by the trapezoid weights, by LAPACK's tridiagonal LDL^T, factoring a
matrix that is the same on every step once.  It keeps its per-step state
in LAPACK's layout, Fortran-ordered (nx, k) blocks, and stores the levels
time-major, so a solution's values are a strided view along time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, NoConvergenceError, SingularOperatorError
from .grids import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    MaterialParams,
    SpatialGrid,
    TimeGrid,
)
from .laplacian import Laplace1D, build_laplacian

POSITIVITY_FLOOR = 0.25  # least admissible 1 - 2 kappa p
INNER_TOL = 1e-10  # bound on each step's next Newton update (max-norm)
MAX_INNER = 20  # Newton updates per step before NoConvergenceError


@dataclass
class StateField:
    """Space-time sample of a PDE solution (p, z, a or w), or of k of them
    marched together.  values from a march (cn_march) is a view of its
    time-major (nt + 1[, k], nx) store: contiguous per time level, strided
    along time."""

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
    material parameters, boundary conditions, excitation, the observation
    node and the trace sample times.

    Construction solves no PDE.  It builds the operator A, resolves the
    observation index and checks that the source r(x, t) is a finite
    (nx, nt + 1) array, once for every solve on this setup.  sample_times,
    a non-empty 1-D array of finite values, defaults to the solver time
    levels.  A malformed argument, such as an obs_point that is not a grid
    node, raises ValueError.  It keeps read-only copies of source and
    sample_times, and its cached arrays are read-only, so runs can share
    one Problem.  The kappa = 0 solution frozen_base and the
    impulse_response of every frozen linearization are the two columns of
    one kappa = 0 march, made on first use.
    """

    params: MaterialParams
    grid: SpatialGrid
    tgrid: TimeGrid
    bc: BoundaryCondition
    source: np.ndarray
    obs_point: float = 1.0
    sample_times: np.ndarray | None = None
    operator: Laplace1D = field(init=False, repr=False)
    obs_index: int = field(init=False)

    def __post_init__(self):
        source = np.array(self.source, dtype=float)
        if source.shape != (self.grid.nx, self.tgrid.nt + 1):
            raise ValueError("source shape does not match grids")
        if not np.all(np.isfinite(source)):
            raise ValueError("source values must be finite")
        idx = self.grid.node_index(self.obs_point)
        if idx is None:
            raise ValueError(
                f"observation point {self.obs_point} is not a grid node"
            )
        times = np.array(self.tgrid.times if self.sample_times is None
                         else self.sample_times, dtype=float)
        if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
            raise ValueError("sample times must be a non-empty 1-D array of "
                             "finite values")
        for array in (source, times):
            array.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "obs_index", idx)
        object.__setattr__(self, "operator", build_laplacian(self.grid, self.bc))

    def sampled_trace(self, state: StateField) -> np.ndarray:
        """The observation trace of a solution, linearly interpolated at the
        sample times; (ns, k) for k solutions marched together."""
        return sample_trace(state.values[self.obs_index, :], self.tgrid,
                            self.sample_times)

    @cached_property
    def _frozen_pair(self) -> tuple:
        """p0 and R from one kappa = 0 march of two columns: column 0 forced
        by step_forcing, column 1 by W e_obs = w_obs e_obs in step 0 (0 at a
        Dirichlet node).  The step matrix is the same for both, so each
        column has the bits of its own march; each is copied out of the
        march's store, which is then freed."""
        obs, free = self.obs_index, self.operator.free_weights

        def forcing():  # one Fortran-ordered (nx, 2) block per step
            for n, f in enumerate(self.step_forcing):
                block = np.zeros((self.grid.nx, 2), order="F")
                block[:, 0] = f
                if n == 0:
                    block[obs, 1] = free[obs]
                yield block

        u = cn_march(self, forcing(), lambda n, un, step: step(None))
        p0 = np.ascontiguousarray(u[:, 0].T).T  # time-major, as any solve
        w = self.operator.weights
        R = np.ascontiguousarray((w / w[obs])[:, None] * u[:, 1, 1:])
        for array in (p0, R):
            array.setflags(write=False)
        return StateField(p0, self.grid, self.tgrid), R

    @property
    def frozen_base(self) -> StateField:
        """The kappa = 0 solution p0, read-only and shared by every frozen
        linearization: bit for bit solve_forward(self, None), and marched
        with impulse_response."""
        return self._frozen_pair[0]

    @property
    def impulse_response(self) -> np.ndarray:
        """The kappa = 0 observation kernel R, read-only, (nx, nt) and
        C-ordered: with u the kappa = 0 march forced by e_obs in step 0 and
        w the operator's trapezoid weights, R[x, j] = (w_x / w_obs) u[x, j +
        1] is by reciprocity the lag-j observation response to unit forcing
        at x.  Marched with frozen_base."""
        return self._frozen_pair[1]

    @cached_property
    def step_forcing(self) -> np.ndarray:
        """Read-only (nt, nx) forcing W f of solve_forward's steps n -> n +
        1, time-major, as cn_march takes it: f the running time integral R
        of the source averaged over each step, scaled by the trapezoid
        weights W and 0 on Dirichlet rows.  Computed on first use."""
        R = _cumulative_trapezoid(self.source, self.tgrid.dt)
        forcing = (0.5 * (R[:, :-1] + R[:, 1:])).T.copy()
        forcing *= self.operator.free_weights
        forcing.setflags(write=False)
        return forcing


def sample_trace(trace_values: np.ndarray, tgrid: TimeGrid,
                 sample_times: np.ndarray) -> np.ndarray:
    """np.interp of a finite solver-grid trace at given times, bit for bit;
    the k rows of a (k, nt + 1) array are sampled at once into k columns.
    Times outside [0, T] take the end values, also at any finite size."""
    times, s = tgrid.times, np.asarray(sample_times, dtype=float)
    j, offset = _sample_intervals(tgrid, s)
    y0, y1 = trace_values[..., j], trace_values[..., j + 1]
    y = np.where(offset == 0.0, y0,
                 (y1 - y0) / (times[j + 1] - times[j]) * offset + y0)
    y[..., s < times[0]] = trace_values[..., :1]
    y[..., s >= times[-1]] = trace_values[..., -1:]
    return y.T.copy()


def _sample_intervals(tgrid: TimeGrid, sample_times: np.ndarray) -> tuple:
    """sample_trace's rule: for each sample time s, the step j in [0, nt -
    1] whose levels j and j + 1 it interpolates between, and its offset
    from t_j once s is clipped to [0, T] (0 before 0, t_nt - t_j at or
    after T), so no offset overflows."""
    times = tgrid.times
    j = np.clip(np.searchsorted(times, sample_times, side="right") - 1, 0,
                tgrid.nt - 1)
    return j, np.clip(sample_times, times[0], times[-1]) - times[j]


def cn_march(problem: Problem, forcing, advance, keep=slice(None)) -> np.ndarray:
    """Crank-Nicolson march of (a u)_t + b A u + c^2 \\int_0^t A u = f with
    homogeneous initial data; the one time loop behind every solve.

    Each step's system is solved as the symmetric positive definite W (a/dt
    + coef A), W the trapezoid weights A.weights, so the march takes its
    terms scaled by W and 0 on Dirichlet rows (A.free_weights).  forcing
    yields W f for steps n -> n + 1, n = 0, ..., nt - 1, shaped (nx,) or
    (nx, k): k columns march through the same step matrices.  An (nx, k) W
    f must be Fortran-ordered, the layout of the march's state: every op
    that mixes a C-ordered W f with that state reads one of them with
    strides on every step (same bits, slower).
    advance(n, un, step) calls step(mass, old=None) at least once; step
    solves (mass + W coef A) u = rhs, rhs = old + W f - W coef A un - W c^2
    \\int_0^{t_n} A u (trapezoidal memory), and returns u.  mass is the
    (nx,) diagonal W a_new / dt; None is a_new = 1, W / dt, the same matrix
    on every step, factored once per march and its factors reused, bit for
    bit the u of factoring it each step.  old is W a_old un / dt; None is
    the conservative linear step's, the last step's mass times un, which
    the march keeps.  The last call's u is u^{n+1}, and W coef A u^{n+1} =
    rhs - mass u^{n+1} is read off its system, so no step applies A.
    Dirichlet rows are the identity with rhs 0, so u and A u are exactly 0
    there.

    The per-step state is kept in LAPACK's layout, Fortran-ordered (nx, k)
    blocks, and the levels time-major, (nt + 1, k, nx), so that each step
    stores one contiguous row.  Returns u[keep] at every time level, time
    last: the (nx[, k], nt + 1) transposed view of that store.
    """
    A, params, tgrid = problem.operator, problem.params, problem.tgrid
    dt = tgrid.dt
    coef = params.b / 2 + params.c2 * dt / 4
    bands = A.banded(coef)  # each step rewrites only the main diagonal
    diag = bands[0].copy()  # W coef A's, 1 on Dirichlet rows, where A is 0
    unit = A.free_weights / dt  # step(None)'s mass: a = 1
    steps = iter(forcing)
    f = next(steps)
    # u^0, its mass W a u^0 / dt, W coef A u^0 and the memory W c^2 \\int
    # A u, in LAPACK's layout
    un, mass_u, coef_Au, memory = (np.zeros(f.shape, order="F")
                                   for _ in range(4))
    levels = np.zeros((tgrid.nt + 1,) + un[keep].T.shape)
    scale = params.c2 * dt / (2 * coef)  # trapezoid weight per coef A u
    solved = ()
    factors = None  # of the a = 1 matrix, on the first step(None)

    def step(mass, old=None):  # reads the loop's current rest and mass_u
        nonlocal solved, factors
        if mass is None:
            if factors is None:
                np.add(unit, diag, out=bands[0])
                factors = A.factor(bands)
            mass, system = unit, factors
        else:
            np.add(mass, diag, out=bands[0])
            system = bands
        rhs = (mass_u if old is None else old) + rest
        solved = A.solve_banded_system(system, rhs), rhs, mass
        return solved[0]

    for n in range(tgrid.nt):
        rest = f - coef_Au  # W f, coef A u and memory are 0 on Dirichlet rows
        rest -= memory
        advance(n, un, step)
        (un, rhs, mass), solved = solved, ()  # fails if step was not called
        levels[n + 1] = un[keep].T
        mass_u = (mass * un.T).T
        rhs -= mass_u  # W coef A u^{n+1}
        coef_Au += rhs
        coef_Au *= scale
        memory += coef_Au
        coef_Au = rhs
        f = next(steps, None)
    return levels.T


def solve_forward(problem: Problem, kappa) -> StateField:
    """Crank-Nicolson solve of the time-integrated Westervelt equation with
    homogeneous initial data.

    Each step solves F(p) = (p - p^n - kappa (p^2 - (p^n)^2))/dt + coef A p
    - rest = 0 by Newton's method, one tridiagonal solve per update, from
    the quadratic extrapolation of the last three levels.  F is quadratic,
    so after an update D the residual is exactly -kappa D^2/dt, and Varah's
    bound for the diagonally dominant step matrix caps the next update at
    max |kappa| D^2 / min(1 - 2 kappa p); the loop stops once that is at
    most INNER_TOL.  The steps' remaining errors add up over the march, so
    the field can sit several INNER_TOL from the exact discrete solution on
    a coarse time grid.  At kappa = 0 this is one linear solve per step,
    taken directly: the same solve, without the predictor or the bound.

    Raises DegeneracyError if 1 - 2*kappa*p drops below POSITIVITY_FLOOR,
    in the solution, in a Newton iterate whose step matrix is not positive
    definite or in the last of MAX_INNER updates (a negative margin never
    meets the bound), and NoConvergenceError if the bound is still above
    INNER_TOL after MAX_INNER updates at an admissible margin.
    """
    tgrid = problem.tgrid
    kap = kappa_samples(kappa, problem.grid)
    two_kap, abs_kap = 2.0 * kap, np.abs(kap)
    unit = problem.operator.free_weights / tgrid.dt  # cn_march's W / dt
    kap_unit, two_kap_unit = kap * unit, two_kap * unit
    p2 = p1 = None  # p^{n-2} and p^{n-1}: the contiguous step solutions

    def advance(n, pn, step):
        nonlocal p2, p1
        # quadratic extrapolation; p^0 = 0, so 2 p^1 is the linear one
        pk = 3.0 * (pn - p1) + p2 if n > 1 else (n + 1) * pn
        p2, p1 = p1, pn
        pn_sq, unit_pn = pn * pn, unit * pn
        for _ in range(MAX_INNER):
            try:  # a = 1 - 2 kappa pk, cn_march's terms scaled by W / dt
                pnew = step(unit - two_kap_unit * pk,
                            unit_pn - kap_unit * (pk * pk + pn_sq))
            except SingularOperatorError:  # only if 1 - 2 kappa pk <= 0
                margin = 1.0 - np.max(two_kap * pk)
                if margin >= POSITIVITY_FLOOR:
                    raise
                break
            peak = two_kap * pnew
            margin = 1.0 - peak[peak.argmax()]  # min(1 - 2 kappa p)
            bound = abs_kap * (pnew - pk)**2
            # multiplied out, so that a margin <= 0 never stops the loop
            if bound[bound.argmax()] <= INNER_TOL * margin:
                break
            pk = pnew
        else:
            if not margin < POSITIVITY_FLOOR:  # else DegeneracyError below
                raise NoConvergenceError(
                    f"Newton's method did not reach {INNER_TOL} in "
                    f"{MAX_INNER} updates at t = {tgrid.times[n + 1]:.6g}"
                )
        if margin < POSITIVITY_FLOOR:
            raise DegeneracyError(
                f"1 - 2*kappa*p = {margin:.4g} fell below the floor "
                f"{POSITIVITY_FLOOR} at t = {tgrid.times[n + 1]:.6g}"
            )

    p = cn_march(problem, problem.step_forcing,
                 advance if kap.any()  # kappa = 0: Newton's single solve
                 else lambda n, pn, step: step(None))
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
) -> np.ndarray:
    """Source r = f * beta'' + (A f) * (c^2 beta + b beta'), shape (nx, nt +
    1), whose linear (kappa = 0) solution is exactly f(x) beta(t)."""
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

    return fx[:, None] * bt2[None, :] + Af[:, None] * (
        params.c2 * bt[None, :] + params.b * bt1[None, :]
    )


def _check_profile_bc(f, fx, bc: BoundaryCondition):
    """Raise ValueError if the profile f (fx = f at the nodes)
    violates a Dirichlet or Neumann endpoint condition of [0, 1]."""
    scale = max(np.max(np.abs(fx)), 1.0)
    h = 1e-6
    for kind, endpoint, inward in ((bc.left, 0.0, 1.0), (bc.right, 1.0, -1.0)):
        value = fx[0] if inward > 0 else fx[-1]
        if kind == DIRICHLET and abs(value) > 1e-10 * scale:
            raise ValueError(
                f"f({endpoint}) = {value:.3g} violates the Dirichlet condition"
            )
        if kind == NEUMANN:
            slope = (f(endpoint + inward * h) - f(endpoint)) / (inward * h)
            if abs(slope) > 1e-4 * scale:
                raise ValueError(
                    f"f'({endpoint}) = {slope:.3g} violates the Neumann condition"
                )


def second_time_derivative_of_square(state: StateField) -> np.ndarray:
    """(p^2)_tt by second-order stencils: centered inside, one-sided 4-point
    at t = 0 and t = T."""
    q = state.values**2
    dt2 = state.tgrid.dt**2
    out = np.empty_like(q)
    out[:, 1:-1] = (q[:, 2:] - 2 * q[:, 1:-1] + q[:, :-2]) / dt2
    out[:, 0] = (2 * q[:, 0] - 5 * q[:, 1] + 4 * q[:, 2] - q[:, 3]) / dt2
    out[:, -1] = (2 * q[:, -1] - 5 * q[:, -2] + 4 * q[:, -3] - q[:, -4]) / dt2
    return out
