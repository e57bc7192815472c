"""Regularized iterative reconstruction of the nonlinearity coefficient:
(frozen) Landweber, (frozen) Levenberg-Marquardt / Newton, frozen Halley
predictor-corrector and the discrepancy stopping rule.

The data space is the vector of trace samples at the measurement times with
the Euclidean norm; the recorded noise level delta must be expressed in that
norm (the harness converts the per-sample bound eta to sqrt(ns) * eta).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import BasisSet, CoefficientField, clip_nonnegative, evaluate_basis
from .data import prefilter
from .derivatives import (
    Direction,
    JacobianMatrix,
    apply_gradient,
    assemble_directional_hessian,
    assemble_jacobian,
    solve_adjoint,
)
from .errors import DivergenceError, GridMismatchError, LinearSolveError
from .forward import (
    Problem,
    StateField,
    kappa_samples,
    second_time_derivative_of_square,
    solve_forward,
)
from .grids import SpatialGrid
from .trace import TimeTrace

STAGNATION_TOL = 1e-10
STAGNATION_WINDOW = 5


@dataclass(frozen=True)
class RegularizationSchedule:
    """Geometrically decaying regularization parameters alpha_n = theta^n alpha0.
    alpha0 None is left to the run, which sets default_alpha0 at its first
    step and keeps theta."""

    alpha0: float | None = None
    theta: float = 0.5

    def __post_init__(self):
        if self.alpha0 is not None and not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")

    def alpha(self, n: int) -> float:
        return self.theta**n * self.alpha0


@dataclass(frozen=True)
class StoppingRule:
    """Discrepancy principle parameters and the iteration cap: a run stops
    at the first iterate whose residual norm is at most tau * delta."""

    tau: float = 2.0
    delta: float = 0.0
    max_iter: int = 50

    def __post_init__(self):
        if not self.tau > 1:
            raise ValueError("tau must exceed 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class InversionReport:
    """Per-iteration history of an inversion run."""

    residuals: list
    errors_linf: list
    errors_l2: list
    stop_index: int
    stop_reason: str  # discrepancy | max-iter | stagnation
    final: CoefficientField

    def to_dict(self) -> dict:
        return {
            "iterations": len(self.residuals),
            "residuals": [float(r) for r in self.residuals],
            "errors_linf": [float(e) for e in self.errors_linf],
            "errors_l2": [float(e) for e in self.errors_l2],
            "stop_index": self.stop_index,
            "stop_reason": self.stop_reason,
            "final_coefficients": (
                [float(c) for c in self.final.coefficients]
                if self.final.coefficients is not None
                else None
            ),
        }

    def history_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,residual,err_linf,err_l2\n")
            for k, res in enumerate(self.residuals):
                linf = self.errors_linf[k] if self.errors_linf else float("nan")
                l2 = self.errors_l2[k] if self.errors_l2 else float("nan")
                fh.write(f"{k},{res:.17g},{linf:.17g},{l2:.17g}\n")


@dataclass(frozen=True, eq=False)
class InversionContext:
    """Everything a reconstruction run needs besides the data: the forward
    problem, the basis and the smoothing order s of the Landweber gradient.
    The frozen quantities linearize at kappa0 = 0 and are computed at most
    once per context; the context is immutable, so they never go stale.
    The data must be sampled at problem.sample_times."""

    problem: Problem
    basis: BasisSet
    smoothing_s: int = 0

    def __post_init__(self):
        if self.smoothing_s not in (0, 1):
            raise ValueError("smoothing order s must be 0 or 1")

    @cached_property
    def frozen_base(self) -> StateField:
        return solve_forward(self.problem, None)

    @cached_property
    def frozen_jacobian(self) -> JacobianMatrix:
        """J at kappa0 = 0 without sensitivities (one impulse march)."""
        return assemble_jacobian(self.problem, None, self.basis,
                                 base=self.frozen_base,
                                 keep_sensitivities=False)

    @cached_property
    def frozen_gradient_map(self) -> np.ndarray:
        """G, shape (nx, nt + 1), with G @ y = apply_gradient(solve_adjoint(
        problem, base0, None, y), (p0^2)_tt, s) up to rounding.  At kappa0 = 0
        the reversed adjoint march is time-invariant, so forcing in reversed
        step j gives the step-0 impulse response a shifted by j levels
        (exactly: the march from a zero state stays zero)."""
        problem, base = self.problem, self.frozen_base
        nt = problem.tgrid.nt
        impulse = np.zeros(nt + 1)
        impulse[-1] = 2.0  # midpoint forcing 1 in the first reversed step
        a = solve_adjoint(problem, base, None, impulse)
        w = np.full(nt + 1, problem.tgrid.dt)
        w[[0, -1]] /= 2
        wpsq = w * second_time_derivative_of_square(base)
        # K[x, j] = sum_m wpsq[x, m] a[x, m + j], j = 0, ..., nt - 1
        K = np.array([np.correlate(ax, wx, "full")[nt:2 * nt]
                      for ax, wx in zip(a.values, wpsq)])
        # reversed step j is forced by (y[nt - j] + y[nt - j - 1]) / 2
        Kr = K[:, ::-1] / 2
        G = np.pad(Kr, ((0, 0), (1, 0))) + np.pad(Kr, ((0, 0), (0, 1)))
        return problem.operator.solve(G) if self.smoothing_s == 1 else G


def default_alpha0(jacobian: JacobianMatrix, residual0: np.ndarray) -> float:
    """Scale-aware default alpha0 = ||J^T r0||_inf."""
    value = float(np.max(np.abs(jacobian.entries.T @ residual0)))
    return value if value > 0 else 1.0


def _error_norms(kappa: CoefficientField, truth, grid: SpatialGrid):
    if truth is None:
        return float("nan"), float("nan")
    t = kappa_samples(truth, grid)
    diff = kappa.samples - t
    linf = float(np.max(np.abs(diff)))
    l2 = float(np.sqrt(np.trapezoid(diff**2, dx=grid.dx)))
    return linf, l2


def _stagnated(residuals) -> bool:
    # relative to the initial residual, so runs that have converged to the
    # machine floor terminate even though the floor values jitter
    if len(residuals) < STAGNATION_WINDOW + 1:
        return False
    recent = residuals[-(STAGNATION_WINDOW + 1):]
    scale = max(abs(residuals[0]), 1e-300)
    return max(abs(recent[i + 1] - recent[i]) for i in range(STAGNATION_WINDOW)) \
        < STAGNATION_TOL * scale


def _normal_condition(jacobian: JacobianMatrix, alpha: float) -> float:
    """Condition number of J^T J + alpha I from the singular values of J:
    (sigma_0^2 + alpha) / (sigma_min^2 + alpha), with sigma_min = 0 when J
    has fewer rows than columns."""
    sigma = jacobian.svd()[1]
    ns, m = jacobian.entries.shape
    low = (sigma[-1] if ns >= m else 0.0) ** 2 + alpha
    return (sigma[0] ** 2 + alpha) / low if low > 0 else np.inf


def _solve_regularized(jacobian: JacobianMatrix, alpha: float,
                       rhs: np.ndarray) -> np.ndarray:
    """(J^T J + alpha I)^{-1} J^T rhs from the thin SVD J = U diag(sigma) V^T,
    through the filter factors sigma / (sigma^2 + alpha)."""
    cond = _normal_condition(jacobian, alpha)
    if not np.isfinite(cond) or cond > 1e15:
        raise LinearSolveError(
            f"regularized normal matrix is numerically singular "
            f"(cond = {cond:.3g}, alpha = {alpha:.3g})"
        )
    U, sigma, Vt = jacobian.svd()
    return Vt.T @ (sigma / (sigma**2 + alpha) * (U.T @ rhs))


def _run_loop(data, init, ctx, stop, truth, step_fn, divergence_guard=False):
    """Shared iteration driver: record, check stopping, update via step_fn."""
    if not np.array_equal(data.times, ctx.problem.sample_times):
        raise GridMismatchError("data is not sampled at the problem's "
                                "sample times")
    kappa = init
    residuals, errs_inf, errs_l2 = [], [], []
    reason = "max-iter"
    while True:
        state = (solve_forward(ctx.problem, kappa) if kappa.samples.any()
                 else ctx.frozen_base)
        r = data.values - ctx.problem.sampled_trace(state)
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        linf, l2 = _error_norms(kappa, truth, ctx.problem.grid)
        errs_inf.append(linf)
        errs_l2.append(l2)
        if divergence_guard and rnorm > 10 * residuals[0] and residuals[0] > 0:
            raise DivergenceError(
                f"residual {rnorm:.3g} exceeds 10x its initial value"
            )
        if rnorm <= stop.tau * stop.delta:
            reason = "discrepancy"
            break
        if _stagnated(residuals):
            reason = "stagnation"
            break
        if len(residuals) - 1 >= stop.max_iter:
            reason = "max-iter"
            break
        kappa = step_fn(len(residuals) - 1, kappa, state, r)
    return InversionReport(
        residuals, errs_inf, errs_l2,
        stop_index=len(residuals) - 1, stop_reason=reason, final=kappa,
    )


def landweber_run(
    data: TimeTrace,
    init: CoefficientField,
    frozen: bool,
    mu: float | None,
    stop: StoppingRule,
    ctx: InversionContext,
    truth=None,
) -> InversionReport:
    """Landweber iteration kappa_{n+1} = clip(kappa_n + mu * F'(.)^* (h - F)),
    h = prefilter(data, nt): frozen at kappa0 = 0, the gradient is
    ctx.frozen_gradient_map @ y; unfrozen, the adjoint solve at the iterate.
    mu = None selects 0.9 / sigma_0^2 from the SVD of the frozen Jacobian."""
    problem = ctx.problem
    data_on_grid = prefilter(data, problem.tgrid.nt)
    if mu is None:
        mu = 0.9 / ctx.frozen_jacobian.svd()[1][0] ** 2

    def step(n, kappa, state, r):
        y = data_on_grid.values - state.values[problem.obs_index, :]
        if frozen:
            g = ctx.frozen_gradient_map @ y
        else:
            a = solve_adjoint(problem, state, kappa.samples, y)
            g = apply_gradient(problem, a,
                               second_time_derivative_of_square(state),
                               ctx.smoothing_s).samples
        # clip, then project once: the same field as clip_nonnegative of
        # the projected unclipped samples
        samples = np.maximum(kappa.samples + mu * g, 0.0)
        return CoefficientField.from_samples(samples, problem.grid, ctx.basis)

    return _run_loop(data, init, ctx, stop, truth, step, divergence_guard=True)


def newton_lm_run(
    data: TimeTrace,
    init: CoefficientField,
    frozen: bool,
    reg: RegularizationSchedule | None,
    stop: StoppingRule,
    ctx: InversionContext,
    truth=None,
) -> InversionReport:
    """Levenberg-Marquardt / regularized (frozen) Newton iteration
    c_{n+1} = c_n + (J^T J + alpha_n I)^{-1} J^T (h - F(kappa_n)); frozen
    steps, and an unfrozen step at kappa = 0, reuse the SVD of the frozen
    Jacobian.  reg None is RegularizationSchedule()."""
    reg = reg or RegularizationSchedule()

    def step(n, kappa, state, r):
        nonlocal reg
        if frozen or not kappa.samples.any():
            J = ctx.frozen_jacobian
        else:
            J = assemble_jacobian(ctx.problem, kappa.samples, ctx.basis,
                                  base=state, keep_sensitivities=False)
        if reg.alpha0 is None:
            reg = replace(reg, alpha0=default_alpha0(J, r))
        c_step = _solve_regularized(J, reg.alpha(n), r)
        coeffs = kappa.coefficients + c_step
        return clip_nonnegative(
            CoefficientField.from_coefficients(ctx.basis, coeffs,
                                               ctx.problem.grid)
        )

    return _run_loop(data, init, ctx, stop, truth, step)


def halley_run(
    data: TimeTrace,
    init: CoefficientField,
    reg: RegularizationSchedule | None,
    stop: StoppingRule,
    ctx: InversionContext,
    truth=None,
) -> InversionReport:
    """Frozen Halley predictor-corrector: the predictor is the frozen
    Levenberg-Marquardt step d (from the SVD of J at kappa0 = 0); the
    corrector re-solves against the same residual with system matrix
    J + H_d / 2, factored once per step, and the same alpha_n.  J is
    marched once, keeping the sensitivities every H_d reuses.  reg None is
    RegularizationSchedule()."""
    reg = reg or RegularizationSchedule()
    grid = ctx.problem.grid
    J = assemble_jacobian(ctx.problem, None, ctx.basis, base=ctx.frozen_base)

    def step(n, kappa, state, r):
        nonlocal reg
        if reg.alpha0 is None:
            reg = replace(reg, alpha0=default_alpha0(J, r))
        alpha = reg.alpha(n)
        d_coeffs = _solve_regularized(J, alpha, r)
        d = Direction(evaluate_basis(ctx.basis, grid) @ d_coeffs)
        H = assemble_directional_hessian(
            ctx.problem, d, None, ctx.basis, ctx.frozen_base, J
        )
        c_step = _solve_regularized(JacobianMatrix(J.entries + 0.5 * H),
                                    alpha, r)
        coeffs = kappa.coefficients + c_step
        return clip_nonnegative(
            CoefficientField.from_coefficients(ctx.basis, coeffs, grid)
        )

    return _run_loop(data, init, ctx, stop, truth, step)
