"""Linearized (sensitivity), adjoint and second-derivative PDE solves, plus
assembly of the discretized Jacobian and directional Hessian over a basis.

The sensitivity and second-derivative equations are integrated once in time
and marched in the conservative form ((1 - 2 kappa p) u)_t + b A u
+ c^2 \\int A u = g by the forward solver's own Crank-Nicolson march
(westinv.forward.cn_march); this makes the discrete solves the exact
first and second derivatives of the discrete forward map (up to the forward
solve's Newton tolerance).  The m Jacobian columns march together as one
(nx, m) block through the shared per-step matrices.

At kappa0 = 0 the linear march is time-invariant and A is self-adjoint in
the trapezoid-weighted inner product, so by reciprocity one impulse march at
the observation node (Problem.impulse_response, marched with p0 as the
second column of Problem's one kappa = 0 march) gives any observation trace
by convolution (Giles & Pierce, 2000): the frozen Jacobian by FFT, and the
F''(0) tensor of frozen Halley in the time domain, one matrix product per
node of its sampled, time-reversed kernel windows.

The adjoint equation (1 - 2 kappa p) a_tt - b A a_t + c^2 A a = 0 is the
continuous (optimize-then-discretize) adjoint.  In the time-reversed variable
u(s) = a(T - s), with the observation residual entering as a point source at
the observation node, it is marched in v = u_s by the same scheme, and u is
the trapezoidal integral of v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import BasisSet, evaluate_basis
from .forward import (
    Problem,
    StateField,
    _cumulative_trapezoid,
    _sample_intervals,
    cn_march,
    kappa_samples,
    sample_trace,
)

NODE_BLOCK = 16  # nodes per contraction in frozen_hessian_tensor


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
            raise ValueError("state field lives on different grids")


def _march(problem: Problem, base: StateField, kap: np.ndarray, forcing,
           trace_only: bool) -> StateField | np.ndarray:
    """March ((1 - 2 kappa p) u)_t + b A u + c^2 \\int A u = g, where
    forcing yields W g for steps n -> n + 1 (cn_march); a StateField, or
    with trace_only the observation row.  The step masses are W (1 - 2
    kappa p) / dt, time-major; at kappa = 0, None: the constant matrix."""
    mass = ((1.0 - 2.0 * kap * base.values.T)
            * (problem.operator.free_weights / problem.tgrid.dt)
            if kap.any() else [None] * (problem.tgrid.nt + 1))
    u = cn_march(problem, forcing, lambda n, un, step: step(mass[n + 1]),
                 problem.obs_index if trace_only else slice(None))
    return u if trace_only else StateField(u, problem.grid, problem.tgrid)


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
        raise ValueError("direction does not match the spatial grid")
    # the integrated RHS d-kappa p^2 drives z by its time increments,
    # d-kappa Delta(p^2) / dt, which cn_march takes scaled by W; on a
    # C-ordered d.T the per-node W Delta(p^2) broadcast over the k columns,
    # and the product's transpose is Fortran-ordered, as cn_march keeps its
    # state
    psq = base.values**2
    rate = ((psq[:, 1:] - psq[:, :-1]) / problem.tgrid.dt).T
    rate *= problem.operator.free_weights
    dT = np.ascontiguousarray(d.T)
    return _march(problem, base, kap, ((dT * r).T for r in rate), trace_only)


def solve_second_derivative(problem: Problem, base: StateField, kappa0,
                            z1: StateField, z2: StateField, d1: Direction,
                            d2: Direction) -> StateField:
    """Solve for w = G''(kappa0)[d1, d2]:

    ((1 - 2 kappa0 p) w)_tt + b A w_t + c^2 A w
        = 2 (kappa0 z1 z2 + p (d1 z2 + d2 z1))_tt,

    marched in the once-integrated conservative form; batched (z, d) pairs
    work as in solve_sensitivity."""
    _check_same_grids(problem, base, z1, z2)
    kap = kappa_samples(kappa0, problem.grid)
    p = base.values
    two_w = 2.0 * problem.operator.free_weights  # cn_march takes W g

    def level(n):
        z1n, z2n = z1.values[..., n].T, z2.values[..., n].T
        return (two_w * (kap * z1n * z2n
                         + p[:, n] * (d1.samples.T * z2n
                                      + d2.samples.T * z1n))).T

    levels = pairwise(map(level, range(problem.tgrid.nt + 1)))
    return _march(problem, base, kap,
                  ((new - old) / problem.tgrid.dt for old, new in levels),
                  False)


def solve_adjoint(problem: Problem, base: StateField, kappa,
                  residual: np.ndarray) -> StateField:
    """Solve the adjoint equation backward in time with end conditions
    a(T) = a_t(T) = 0 and the residual y entering as a point source at the
    observation node (at an end node, the flux condition
    d/dx (b a_t - c^2 a) = -y).  The source is handed to the march
    weighted, W delta y, which is 0 at a Dirichlet node, so a = 0 there:
    the adjoint of a trace that is identically 0.  At kappa = 0 the step
    matrix is constant, factored once.

    The residual y is an (nt + 1,) array on the solver time levels
    (prefilter beforehand).  Returns a in forward-time orientation."""
    grid, tgrid = problem.grid, problem.tgrid
    _check_same_grids(problem, base)
    if np.shape(residual) != (tgrid.nt + 1,):
        raise ValueError("residual is not sampled on the solver time grid")
    kap = kappa_samples(kappa, grid)
    A = problem.operator

    # time-reversed variables u(s) = a(T - s), v = u_s: alpha v_s + b A v
    # + c^2 A u = delta_obs y(T - s) is the linear march in v with
    # alpha frozen at each step's midpoint and memory A u = \\int_0^s A v;
    # the step masses are W alpha / dt, time-major, and at kappa = 0 None,
    # the march's constant matrix
    mass = None
    if kap.any():
        alpha_rev = (1.0 - 2.0 * kap * base.values.T)[::-1]
        mass = (0.5 * (alpha_rev[:-1] + alpha_rev[1:])
                * (A.free_weights / tgrid.dt))
    y_rev = np.asarray(residual, dtype=float)[::-1]
    delta = np.zeros(grid.nx)
    obs = problem.obs_index  # discrete delta: 2 / dx at an end node
    delta[obs] = 1.0 / (grid.dx * A.weights[obs])
    delta *= A.free_weights  # W delta, as cn_march takes it
    forcing = (delta * (0.5 * (y_rev[n] + y_rev[n + 1]))
               for n in range(tgrid.nt))
    v = cn_march(problem, forcing,
                 lambda n, un, step: step(None) if mass is None
                 else step(mass[n], mass[n] * un))
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
        raise ValueError("field shapes do not match")
    g = np.trapezoid(psq_tt * adjoint.values, dx=problem.tgrid.dt, axis=1)
    if s == 1:
        g = problem.operator.solve(g)
    return Direction(g)


def _frozen_jacobian(problem: Problem, E: np.ndarray) -> np.ndarray:
    """The (ns, m) kappa0 = 0 Jacobian: the observation trace of the march
    forced by E[:, i] Delta(p0^2) / dt is sum_x E[x, i] (R[x] conv
    Delta(p0^2)[x] / dt), R = problem.impulse_response.  Each node's
    convolution is one rfft/irfft pair, zero-padded to 2 nt, sampled at the
    sample times before the contraction with E, which then costs ns, not
    nt + 1, terms per node and column."""
    nx, nt, dt = problem.grid.nx, problem.tgrid.nt, problem.tgrid.dt
    level = problem.frozen_base.values**2
    D = np.subtract(level[:, 1:], level[:, :-1], out=np.empty((nx, nt)))
    D /= dt  # C-ordered, like the kernel: the faster rfft
    # kernel first (complex products do not commute bitwise)
    transform = np.fft.rfft(problem.impulse_response, 2 * nt)
    transform *= np.fft.rfft(D, 2 * nt)
    # irfft writes the 2 nt-point convolution after a first level of zeros
    padded = np.zeros((nx, 2 * nt + 1))
    np.fft.irfft(transform, 2 * nt, out=padded[:, 1:])
    return sample_trace(padded[:, :nt + 1], problem.tgrid,
                        problem.sample_times) @ E


def _sampled_kernels(problem: Problem):
    """Per node x in turn, the (ns, nt) rows K_x for which K_x
    Delta(level)[x] / dt is node x's term of the kappa0 = 0 observation
    trace at the sample times.  Level L of that term is sum_k R[x, L - 1 -
    k] Delta(level)[x, k] / dt, R = problem.impulse_response: row L of that
    Toeplitz matrix W_x is the window at nt - L of the time-reversed R,
    zero-padded by nt, read through a strided view.  Each sample's row of
    K_x interpolates rows j and j + 1 of W_x by _sample_intervals, the rule
    of sample_trace, so it clamps to level 0 before 0 and to level nt at or
    after T."""
    tgrid, nt = problem.tgrid, problem.tgrid.nt
    j, offset = _sample_intervals(tgrid, problem.sample_times)
    w1 = (offset / (tgrid.times[j + 1] - tgrid.times[j]))[:, None]
    w0 = 1.0 - w1
    padded = np.zeros(2 * nt)
    W = sliding_window_view(padded, nt)[::-1]
    for R in problem.impulse_response:
        padded[:nt] = R[::-1]
        K = W[j] * w0
        K += W[j + 1] * w1
        yield K


def assemble_jacobian(problem: Problem, kappa0, basis: BasisSet,
                      base: StateField | None = None) -> JacobianMatrix:
    """Column j = observation trace, at the sample times, of the sensitivity
    solve for basis direction e_j at kappa0 from base, the forward solution
    there: one trace-only march of m columns, explicit zeros too.  kappa0
    None takes problem.frozen_base, not a base, and convolves the impulse
    response instead, sampled node by node before the basis contraction;
    equal up to rounding (_frozen_jacobian)."""
    if (kappa0 is None) != (base is None):
        raise ValueError("kappa0 None takes problem.frozen_base; an array "
                         "kappa0 needs its base")
    E = evaluate_basis(basis, problem.grid)
    if kappa0 is None:
        return JacobianMatrix(_frozen_jacobian(problem, E))
    traces = solve_sensitivity(problem, base, kappa0, Direction(E),
                               trace_only=True)
    return JacobianMatrix(sample_trace(traces, problem.tgrid,
                                       problem.sample_times))


def frozen_hessian_tensor(problem: Problem, basis: BasisSet) -> np.ndarray:
    """Discretized F''(0), shape (ns, m, m), at p0 = problem.frozen_base:
    T[s, i, j] = F''(0)[e_i, e_j] = T1[s, i, j] + T1[s, j, i], where
    T1[s, i, j] is, at sample time s, the observation trace of the kappa0
    = 0 march forced by E[:, i] Delta(2 p0 z_j) / dt.  The kappa0 = 0
    sensitivities z_j are marched once; then one matrix product per node
    x, of its sampled kernel rows (_sampled_kernels) and its (nt, m) block
    Delta(2 p0 z)[x], gives node x's sampled traces, and one more per
    NODE_BLOCK nodes contracts them with E."""
    E, base = evaluate_basis(basis, problem.grid), problem.frozen_base
    z = solve_sensitivity(problem, base, None, Direction(E)).values
    nx, m = E.shape
    kernels = _sampled_kernels(problem)
    T1 = np.zeros((m, len(problem.sample_times) * m))
    # NODE_BLOCK nodes' (ns, m) traces at a time add little to the peak
    # memory beside z
    for x0 in range(0, nx, NODE_BLOCK):
        nodes = range(x0, min(x0 + NODE_BLOCK, nx))
        traces = np.stack([K @ np.diff(2.0 * base.values[x, :, None]
                                       * z[x].T, axis=0)
                           for x, K in zip(nodes, kernels)])
        T1 += E[x0:x0 + NODE_BLOCK].T @ traces.reshape(len(nodes), -1)
    T1 = T1.reshape(m, -1, m).swapaxes(0, 1)
    T1 /= problem.tgrid.dt
    return T1 + T1.transpose(0, 2, 1)


def assemble_directional_hessian(tensor: np.ndarray, c) -> np.ndarray:
    """Discretized F''(0)[E c, .], shape (ns, m): the frozen_hessian_tensor
    contracted with the coefficients c of the direction E c."""
    return tensor @ c
