"""Linearized (sensitivity), adjoint and second-derivative PDE solves, plus
assembly of the discretized Jacobian and directional Hessian over a basis.

The sensitivity and second-derivative equations are integrated once in time
and marched in the conservative form ((1 - 2 kappa p) u)_t + b A u
+ c^2 \\int A u = g by the forward solver's own Crank-Nicolson march
(westinv.forward.cn_march); this makes the discrete solves the exact
first and second derivatives of the discrete forward map (up to the forward
solve's Newton tolerance).  The m Jacobian (or Hessian) columns march
together as one (nx, m) block through the shared per-step matrices.

At kappa0 = 0 the sensitivity march is time-invariant and A is self-adjoint
in the trapezoid-weighted inner product, so by reciprocity one impulse march
at the observation node gives the frozen Jacobian by convolution, with no
m-column march (the discrete-adjoint argument of Giles & Pierce, 2000).

The adjoint equation (1 - 2 kappa p) a_tt - b A a_t + c^2 A a = 0 is the
continuous (optimize-then-discretize) adjoint.  In the time-reversed variable
u(s) = a(T - s), with the observation residual entering as a boundary flux at
x = 1, it is marched in v = u_s by the same scheme, and u is the trapezoidal
integral of v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, pairwise, repeat

import numpy as np

from .basis import BasisSet, evaluate_basis
from .errors import GridMismatchError, UnsupportedObservationError
from .forward import (
    Problem,
    StateField,
    _cumulative_trapezoid,
    cn_march,
    kappa_samples,
    sample_trace,
    solve_forward,
)
from .grids import DIRICHLET


@dataclass
class Direction:
    """A coefficient perturbation d-kappa sampled on the spatial grid."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("direction samples must be finite")


@dataclass
class JacobianMatrix:
    """Discretized F'(kappa0): column j is the sampled trace of the
    sensitivity solution for basis direction e_j.  Shape (ns, m)."""

    entries: np.ndarray
    sensitivities: np.ndarray | None = None  # (nx, m, nt + 1), for the Hessian
    _svd: tuple | None = field(default=None, init=False, repr=False)

    def svd(self) -> tuple:
        """Thin SVD (U, sigma, Vt) of the entries, sigma descending;
        computed on the first call and cached."""
        if self._svd is None:
            self._svd = np.linalg.svd(self.entries, full_matrices=False)
        return self._svd


def _check_same_grids(problem: Problem, *states: StateField):
    for state in states:
        if state.grid != problem.grid or state.tgrid != problem.tgrid:
            raise GridMismatchError("state field lives on different grids")


def _march(problem: Problem, base: StateField, kap: np.ndarray, level,
           trace_only: bool) -> StateField | np.ndarray:
    """March ((1 - 2 kappa p) u)_t + b A u + c^2 \\int A u = d/dt level,
    where level(n) is the integrated right-hand side at t_n, computed once
    per level; a StateField, or with trace_only the observation row."""
    tgrid = problem.tgrid
    alpha = 1.0 - 2.0 * kap[:, None] * base.values
    levels = pairwise(map(level, range(tgrid.nt + 1)))
    u = cn_march(problem, ((new - old) / tgrid.dt for old, new in levels),
                 lambda n, un, step, _: step(alpha[:, n + 1],
                                             (alpha[:, n] * un.T).T),
                 problem.obs_index if trace_only else slice(None))
    return u if trace_only else StateField(u, problem.grid, tgrid)


def solve_sensitivity(problem: Problem, base: StateField, kappa,
                      direction: Direction,
                      trace_only: bool = False) -> StateField | np.ndarray:
    """Solve the linearized equation for z = G'(kappa) d-kappa:

    (1 - 2 kappa p) z_tt + c^2 A z + b A z_t - 4 kappa p_t z_t
        - 2 kappa p_tt z = 2 d-kappa (p p_tt + p_t^2),

    via its once-integrated conservative form (no inner loop needed).
    Directions (nx, k) march together into z of shape (nx, k, nt + 1);
    trace_only returns only z's observation row, (nt + 1,) or (k, nt + 1)."""
    _check_same_grids(problem, base)
    kap = kappa_samples(kappa, problem.grid)
    d = direction.samples
    if d.ndim not in (1, 2) or d.shape[0] != problem.grid.nx:
        raise GridMismatchError("direction does not match the spatial grid")
    # integrated RHS: d-kappa * p^2 (its discrete time increment drives z);
    # transposed so that per-node vectors broadcast over the k columns
    psq = base.values**2
    return _march(problem, base, kap, lambda n: (d.T * psq[:, n]).T,
                  trace_only)


def solve_second_derivative(problem: Problem, base: StateField, kappa0,
                            z1: StateField, z2: StateField, d1: Direction,
                            d2: Direction, trace_only: bool = False
                            ) -> StateField | np.ndarray:
    """Solve for w = G''(kappa0)[d1, d2]:

    ((1 - 2 kappa0 p) w)_tt + b A w_t + c^2 A w
        = 2 (kappa0 z1 z2 + p (d1 z2 + d2 z1))_tt,

    marched in the once-integrated conservative form; batched (z, d) pairs
    and trace_only work as in solve_sensitivity."""
    _check_same_grids(problem, base, z1, z2)
    kap = kappa_samples(kappa0, problem.grid)
    p = base.values

    def level(n):
        z1n, z2n = z1.values[..., n].T, z2.values[..., n].T
        return (2.0 * (kap * z1n * z2n
                       + p[:, n] * (d1.samples.T * z2n + d2.samples.T * z1n))).T

    return _march(problem, base, kap, level, trace_only)


def solve_adjoint(problem: Problem, base: StateField, kappa,
                  residual: np.ndarray) -> StateField:
    """Solve the adjoint equation backward in time with end conditions
    a(T) = a_t(T) = 0 and the residual y entering as the flux condition
    d/dx (b a_t - c^2 a) = -y at the observation endpoint x = 1.

    The residual y is an (nt + 1,) array on the solver time levels
    (prefilter beforehand).  Returns a in forward-time orientation."""
    grid, tgrid = problem.grid, problem.tgrid
    _check_same_grids(problem, base)
    if np.shape(residual) != (tgrid.nt + 1,):
        raise GridMismatchError("residual is not sampled on the solver time grid")
    if problem.obs_index != grid.nx - 1:
        raise UnsupportedObservationError(
            "only observation at the right boundary x = 1 is supported in 1-D"
        )
    if problem.bc.right.kind == DIRICHLET:
        raise UnsupportedObservationError(
            "observation at a Dirichlet endpoint carries no information"
        )
    kap = kappa_samples(kappa, grid)

    # time-reversed variables u(s) = a(T - s), v = u_s: alpha v_s + b A v
    # + c^2 A u = delta_{x=1} y(T - s) is the linear march in v with
    # alpha frozen at each step's midpoint and memory A u = \\int_0^s A v
    alpha_rev = (1.0 - 2.0 * kap[:, None] * base.values)[:, ::-1]
    alpha_mid = 0.5 * (alpha_rev[:, :-1] + alpha_rev[:, 1:])
    y_rev = np.asarray(residual, dtype=float)[::-1]
    delta = np.zeros(grid.nx)
    delta[-1] = 2.0 / grid.dx  # discrete boundary delta at x = 1
    forcing = (delta * (0.5 * (y_rev[n] + y_rev[n + 1]))
               for n in range(tgrid.nt))
    v = cn_march(problem, forcing,
                 lambda n, un, step, _: step(alpha_mid[:, n],
                                             alpha_mid[:, n] * un))
    u = _cumulative_trapezoid(v, tgrid.dt)
    return StateField(u[:, ::-1].copy(), grid, tgrid)


def apply_gradient(problem: Problem, adjoint: StateField, psq_tt: np.ndarray,
                   s: int) -> Direction:
    """Gradient g(x) = \\int_0^T (p^2)_tt a dt (trapezoidal in time); for
    smoothing order s = 1 the result is A^{-1} g with the active boundary
    conditions."""
    if s not in (0, 1):
        raise ValueError("smoothing order s must be 0 or 1")
    if psq_tt.shape != adjoint.values.shape:
        raise GridMismatchError("field shapes do not match")
    g = np.trapezoid(psq_tt * adjoint.values, dx=problem.tgrid.dt, axis=1)
    if s == 1:
        g = problem.operator.solve(g)
    return Direction(g)


def _frozen_traces(problem: Problem, base: StateField,
                   E: np.ndarray) -> np.ndarray:
    """Observation rows (m, nt + 1) of the kappa0 = 0 sensitivity march for
    the columns of E.  With u the march forced by e_obs in step 0 and w = 1/2
    at the endpoints, 1 elsewhere, R[x, j] = (w_x / w_obs) u[x, j + 1] is the
    lag-j observation response to unit forcing at x (u vanishes at Dirichlet
    nodes), and trace i is sum_x E[x, i] (R[x] conv Delta(p0^2)[x] / dt)."""
    _check_same_grids(problem, base)
    nx, nt, obs = problem.grid.nx, problem.tgrid.nt, problem.obs_index
    impulse, ones = np.zeros(nx), np.ones(nx)
    impulse[obs] = 1.0
    u = cn_march(problem, chain([impulse], repeat(np.zeros(nx), nt - 1)),
                 lambda n, un, step, _: step(ones, un))
    w = np.ones(nx)
    w[[0, -1]] = 0.5
    R = (w / w[obs])[:, None] * u[:, 1:]
    D = np.diff(base.values**2, axis=1) / problem.tgrid.dt
    spectrum = E.T @ (np.fft.rfft(R, 2 * nt) * np.fft.rfft(D, 2 * nt))
    return np.pad(np.fft.irfft(spectrum, 2 * nt)[:, :nt], ((0, 0), (1, 0)))


def assemble_jacobian(problem: Problem, kappa0, basis: BasisSet,
                      base: StateField | None = None,
                      keep_sensitivities: bool = True) -> JacobianMatrix:
    """Column j = observation trace, at the sample times, of the sensitivity
    solve for basis direction e_j at kappa0: one march of m columns.  For
    the frozen linearization (kappa0 None, i.e. 0) without kept
    sensitivities, one single-column impulse march and a convolution give
    the same columns up to rounding (_frozen_traces)."""
    kap = kappa_samples(kappa0, problem.grid)
    if base is None:
        base = solve_forward(problem, kap)
    E = Direction(evaluate_basis(basis, problem.grid))
    if keep_sensitivities:
        z = solve_sensitivity(problem, base, kap, E)
        return JacobianMatrix(problem.sampled_trace(z), z.values)
    traces = (_frozen_traces(problem, base, E.samples) if kappa0 is None
              else solve_sensitivity(problem, base, kap, E, trace_only=True))
    return JacobianMatrix(sample_trace(traces, problem.tgrid,
                                       problem.sample_times))


def assemble_directional_hessian(problem: Problem, d: Direction, kappa0,
                                 basis: BasisSet, base: StateField,
                                 jacobian: JacobianMatrix) -> np.ndarray:
    """Discretized F''(kappa0)[d, .], shape (ns, m): column j is the sampled
    trace of the second-derivative solve for (d, e_j), reusing the
    sensitivity fields cached on the Jacobian (one march of m columns)."""
    if jacobian.sensitivities is None:
        raise ValueError("jacobian was assembled without cached sensitivities")
    kap = kappa_samples(kappa0, problem.grid)
    E = Direction(evaluate_basis(basis, problem.grid))
    zd = solve_sensitivity(problem, base, kap, d)
    z = StateField(jacobian.sensitivities, problem.grid, problem.tgrid)
    traces = solve_second_derivative(problem, base, kap, zd, z, d, E,
                                     trace_only=True)
    return sample_trace(traces, problem.tgrid, problem.sample_times)


def fd_jacobian_oracle(problem: Problem, kappa0, basis: BasisSet,
                       step: float) -> JacobianMatrix:
    """Independent central-difference Jacobian: column j is
    (F(kappa0 + h e_j) - F(kappa0 - h e_j)) / (2h), two nonlinear forward
    solves per column."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    kap = kappa_samples(kappa0, problem.grid)
    E = evaluate_basis(basis, problem.grid)
    cols = []
    for j in range(basis.m):
        traces = [
            problem.sampled_trace(
                solve_forward(problem, kap + sign * step * E[:, j]))
            for sign in (1.0, -1.0)
        ]
        cols.append((traces[0] - traces[1]) / (2 * step))
    return JacobianMatrix(np.column_stack(cols))

