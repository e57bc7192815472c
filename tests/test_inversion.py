"""Iterative reconstruction: stopping rules, regularization schedules, the
regularized linear solves, and the Landweber / Newton / Halley drivers."""

import dataclasses
from functools import cache
from itertools import chain

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    CoefficientField,
    DivergenceError,
    GridMismatchError,
    InversionContext,
    LinearSolveError,
    MaterialParams,
    Problem,
    RegularizationSchedule,
    SingularOperatorError,
    SpatialGrid,
    StoppingRule,
    TimeGrid,
    apply_gradient,
    assemble_jacobian,
    halley_run,
    landweber_run,
    manufactured_source,
    newton_lm_run,
    prefilter,
    run_inversion,
    second_time_derivative_of_square,
    solve_adjoint,
    solve_forward,
    synthesize_data,
    truth_field,
)
from westinv.basis import BasisSet, evaluate_basis
from westinv.experiment import ExperimentConfig, build_problem
from westinv.inversion import (
    _normal_condition,
    _solve_regularized,
    default_alpha0,
)
from westinv.derivatives import JacobianMatrix

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition.from_kinds("dirichlet", "neumann")


def make_setup(nx=51, nt=100, m=9, noise=0.0, seed=0, amplitude=0.15,
               sample_count=30, bc=BC):
    grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
    basis = BasisSet("gaussian", m)
    f = lambda x: np.sin(np.pi * x / 2)
    f_xx = lambda x: -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)
    source = manufactured_source(
        f, f_xx, lambda t: t**2, lambda t: 2 * t,
        lambda t: 2 * np.ones_like(t), PARAMS, grid, tgrid, bc,
    )
    problem = Problem(PARAMS, grid, tgrid, bc, source,
                      sample_times=np.linspace(0.0, 1.0, sample_count))
    truth = truth_field("smooth_bump", grid, amplitude)
    _, _, noisy = synthesize_data(problem, truth, noise, seed)
    ctx = InversionContext(problem, basis)
    init = CoefficientField.from_coefficients(basis, np.zeros(m), grid)
    return ctx, init, truth, noisy


def mock_jacobian(entries):
    return JacobianMatrix(np.asarray(entries, dtype=float))


def test_discrepancy_stop_at_zero_residual_and_zero_delta():
    # the rule is residual <= tau * delta, so data equal to F(0) with
    # delta = 0 (residual exactly 0) stops every method at iterate 0
    ctx, init, truth, _ = make_setup()
    _, _, data = synthesize_data(ctx.problem, None, 0.0, 0)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=5)
    reg = RegularizationSchedule(1.0)
    for report in (
        newton_lm_run(data, init, True, reg, stop, ctx),
        landweber_run(data, init, True, 0.1, stop, ctx),
        halley_run(data, init, reg, stop, ctx),
    ):
        assert report.residuals == [0.0]
        assert (report.stop_index, report.stop_reason) == (0, "discrepancy")


def test_regularization_schedule():
    # alpha_n = theta^n alpha0 exactly
    sched = RegularizationSchedule(8.0, 0.5)
    assert [sched.alpha(n) for n in range(4)] == [8.0, 4.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        RegularizationSchedule(0.0)
    with pytest.raises(ValueError):
        RegularizationSchedule(1.0, 1.0)


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(tau=1.0)
    with pytest.raises(ValueError):
        StoppingRule(delta=-1.0)
    with pytest.raises(ValueError):
        StoppingRule(max_iter=0)


def test_default_alpha0():
    # identity Jacobian: alpha0 = ||r||_inf; zero residual -> 1
    J = mock_jacobian(np.eye(4))
    r = np.array([0.1, -0.7, 0.3, 0.2])
    assert default_alpha0(J, r) == 0.7
    assert default_alpha0(J, np.zeros(4)) == 1.0


def test_regularized_solve_identity():
    # identity Jacobian and alpha = 0: the step equals the residual
    r = np.array([0.5, -0.25, 1.0])
    np.testing.assert_allclose(
        _solve_regularized(mock_jacobian(np.eye(3)), 0.0, r), r)
    # large alpha shrinks the step toward zero
    small = _solve_regularized(mock_jacobian(np.eye(3)), 1e6, r)
    assert np.max(np.abs(small)) < 1e-5


def test_regularized_solve_singular():
    J = np.ones((4, 3))  # rank one
    with pytest.raises(LinearSolveError):
        _solve_regularized(mock_jacobian(J), 0.0, np.ones(4))


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(st.integers(1, 8), st.integers(1, 8), st.floats(1e-2, 10.0),
                  st.integers(0, 2**32))
@hypothesis.example(3, 6, 0.1, 0)  # wide: fewer samples than coefficients
@hypothesis.example(6, 3, 0.1, 0)  # tall
def test_svd_step_matches_normal_equations(ns, m, alpha, seed):
    # the filter-factor step is the regularized normal-equation solution,
    # and the closed-form condition number is that of J^T J + alpha I
    rng = np.random.Generator(np.random.Philox(seed))
    J = rng.standard_normal((ns, m))
    r = rng.standard_normal(ns)
    normal = J.T @ J + alpha * np.eye(m)
    ref = np.linalg.solve(normal, J.T @ r)
    step = _solve_regularized(mock_jacobian(J), alpha, r)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)
    np.testing.assert_allclose(_normal_condition(mock_jacobian(J), alpha),
                               np.linalg.cond(normal), rtol=1e-10)


def test_frozen_newton_factors_the_jacobian_once(monkeypatch):
    # every frozen step and the diagnostics spectrum read one SVD
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           max_iter=4, noise=0.0, alpha0=1.0,
                           diagnostics=True)
    result = run_inversion(cfg)
    assert result.report.stop_index >= 2
    assert result.sigma is not None
    assert len(calls) == 1


def test_frozen_newton_marches_one_impulse_response(monkeypatch):
    # the m frozen Jacobian columns come from one single-column march and
    # no sensitivity march
    import westinv.derivatives as derivatives

    shapes, sensitivities = [], []
    march = derivatives.cn_march

    def counting_march(problem, forcing, advance, *args):
        forcing = iter(forcing)
        first = next(forcing)
        shapes.append(first.shape)
        return march(problem, chain([first], forcing), advance, *args)

    monkeypatch.setattr(derivatives, "cn_march", counting_march)
    monkeypatch.setattr(derivatives, "solve_sensitivity",
                        lambda *args, **kwargs: sensitivities.append(1))
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           max_iter=4, noise=0.0, alpha0=1.0)
    result = run_inversion(cfg)
    assert result.report.stop_index >= 2
    assert shapes == [(41,)]
    assert sensitivities == []


def test_halley_default_alpha0():
    # alpha0 = None takes ||J^T r0||_inf from the frozen Jacobian and the
    # initial residual; the run with that alpha0 given is the same run
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           method="halley", alpha0=None, max_iter=4,
                           noise=0.001, time_profile="ramp",
                           truth_amplitude=0.3)
    auto = run_inversion(cfg)
    assert auto.report.stop_index >= 2
    problem, basis, _ = build_problem(cfg)
    r0 = (auto.traces["noisy"].values
          - problem.sampled_trace(solve_forward(problem, None)))
    J = assemble_jacobian(problem, None, basis,
                          base=InversionContext(problem, basis).frozen_base)
    given = run_inversion(dataclasses.replace(cfg,
                                              alpha0=default_alpha0(J, r0)))
    assert auto.report.to_dict() == given.report.to_dict()


@pytest.mark.parametrize("method", ["newton", "halley"])
def test_default_alpha0_keeps_theta(method):
    # alpha_n = theta^n alpha0 with the configured theta, also when alpha0
    # is left to the run: step 0 uses alpha0 alone, later steps differ
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           max_iter=3, noise=1e-4, truth_amplitude=0.3,
                           method=method)
    low, high = (run_inversion(dataclasses.replace(cfg, theta=theta))
                 .report.residuals for theta in (0.5, 0.9))
    assert len(low) == len(high) == 4
    assert low[:2] == high[:2]
    assert all(a != b for a, b in zip(low[2:], high[2:]))


def test_landweber_default_step_size():
    # mu = None is 0.9 / ||J||_2^2 for the frozen Jacobian
    ctx, init, truth, data = make_setup(m=5, noise=0.001, seed=3)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=3)
    mu = 0.9 / np.linalg.norm(ctx.frozen_jacobian.entries, 2) ** 2
    auto = landweber_run(data, init, True, None, stop, ctx)
    given = landweber_run(data, init, True, mu, stop, ctx)
    np.testing.assert_allclose(auto.residuals, given.residuals, rtol=1e-12)
    np.testing.assert_allclose(auto.final.samples, given.final.samples,
                               rtol=1e-12, atol=1e-15)


def test_zero_residual_immediate_stop():
    # data generated at the initial guess: both drivers stop at
    # iterate 0 by the discrepancy principle
    ctx, init, truth, _ = make_setup()
    _, _, data = synthesize_data(
        ctx.problem,
        CoefficientField.from_samples(init.samples, ctx.problem.grid), 0.0, 0,
    )
    stop = StoppingRule(tau=2.0, delta=1e-12, max_iter=5)
    for report in (
        newton_lm_run(data, init, True, RegularizationSchedule(1.0), stop, ctx),
        landweber_run(data, init, True, 0.1, stop, ctx),
    ):
        assert report.stop_reason == "discrepancy"
        assert report.stop_index == 0
        np.testing.assert_allclose(report.final.samples, init.samples)


def test_data_off_the_sample_times_rejected():
    # the Jacobian rows are the problem's sample times, so data sampled
    # elsewhere cannot be compared with the model
    ctx, init, truth, _ = make_setup()
    data = make_setup(sample_count=20)[3]
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=2)
    with pytest.raises(GridMismatchError):
        newton_lm_run(data, init, True, RegularizationSchedule(1.0), stop, ctx)


def test_landweber_auto_step_residual_nonincreasing():
    # invariant: with the auto step 0.9 / sigma_max^2 the residual does not
    # increase over the early iterations at 0.1% noise
    ctx, init, truth, data = make_setup(noise=0.001, seed=3)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=50)
    report = landweber_run(data, init, True, None, stop, ctx, truth=truth)
    res = np.array(report.residuals)
    # strictly decreasing until the residual reaches the noise floor
    floor = np.sqrt(len(data)) * data.noise_level
    above = res > floor
    k = int(np.argmin(above)) if not above.all() else len(res)
    assert k > 5
    assert np.all(np.diff(res[: k + 1]) < 0)
    # beyond the floor only sub-noise-level drift is allowed
    assert np.all(np.diff(res) <= 1e-2 * floor)


def test_newton_noise_free_monotone_and_clipped():
    # invariant: noise-free frozen Newton decreases the residual over the
    # first iterations; all iterates stay nonnegative up to 1e-12
    ctx, init, truth, data = make_setup(noise=0.0)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=5)
    report = newton_lm_run(data, init, True, None, stop, ctx, truth=truth)
    res = report.residuals
    assert all(res[k + 1] < res[k] for k in range(len(res) - 1))
    assert report.final.samples.min() >= -1e-12
    # reconstruction error decreases as well
    assert report.errors_l2[-1] < report.errors_l2[0]


def test_landweber_divergence_guard():
    # a grossly overshooting step inflates the residual past 10x its start
    ctx, init, truth, data = make_setup(noise=0.0, amplitude=0.01)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=10)
    with pytest.raises(DivergenceError):
        landweber_run(data, init, True, 200.0, stop, ctx)


def test_newton_linear_solve_error_on_tiny_alpha():
    # an ill-conditioned basis with vanishing regularization is rejected
    ctx, init, truth, data = make_setup(m=21, noise=0.0)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=3)
    with pytest.raises(LinearSolveError):
        newton_lm_run(data, init, True, RegularizationSchedule(1e-250), stop,
                      ctx)


def test_unfrozen_variants_run():
    # unfrozen branches relinearize at the current iterate and still converge
    ctx, init, truth, data = make_setup(noise=0.0)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=2)
    rep_n = newton_lm_run(data, init, False, RegularizationSchedule(1.0),
                          stop, ctx, truth=truth)
    assert rep_n.residuals[-1] < rep_n.residuals[0]
    rep_l = landweber_run(data, init, False, None, stop, ctx, truth=truth)
    assert rep_l.residuals[-1] < rep_l.residuals[0]


def test_stagnation_detection():
    # a run that has converged to machine precision reports stagnation
    ctx, init, truth, data = make_setup(noise=0.0, m=5)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=40)
    report = newton_lm_run(data, init, True, RegularizationSchedule(1.0),
                           stop, ctx, truth=truth)
    assert report.stop_reason in ("stagnation", "max-iter")
    if report.stop_reason == "stagnation":
        assert report.stop_index < 40


def test_adjoint_gradient_matches_fd():
    # directional derivative of the misfit 1/2 int (F - h)^2 dt by central
    # differences matches the adjoint-based gradient at kappa != 0, the
    # gradient unfrozen Landweber takes every step
    ctx, init, truth, _ = make_setup(nx=101, nt=200)
    problem = ctx.problem
    grid, tgrid = problem.grid, problem.tgrid
    _, _, data = synthesize_data(problem, truth, 0.0, 0)
    data_grid = prefilter(data, tgrid.nt)
    kap = CoefficientField.from_samples(
        0.05 * np.sin(np.pi * grid.nodes / 2) ** 2, grid
    )
    dk = np.sin(np.pi * grid.nodes) * 0.1

    def misfit(samples):
        state = solve_forward(problem, samples)
        y = state.values[problem.obs_index, :] - data_grid.values
        return 0.5 * np.trapezoid(y**2, dx=tgrid.dt)

    h = 1e-3
    fd = (misfit(kap.samples + h * dk)
          - misfit(kap.samples - h * dk)) / (2 * h)
    state = solve_forward(problem, kap)
    y = state.values[problem.obs_index, :] - data_grid.values
    a = solve_adjoint(problem, state, kap.samples, y)
    g = apply_gradient(problem, a, second_time_derivative_of_square(state), 0)
    pairing = np.trapezoid(g.samples * dk, dx=grid.dx)
    assert abs(fd - pairing) / abs(fd) < 5e-3


def test_report_serialization(tmp_path):
    ctx, init, truth, data = make_setup(noise=0.01, seed=2)
    stop = StoppingRule(tau=2.0, delta=0.05, max_iter=3)
    report = newton_lm_run(data, init, True, RegularizationSchedule(1.0),
                           stop, ctx, truth=truth)
    d = report.to_dict()
    assert d["iterations"] == len(report.residuals)
    assert d["stop_reason"] in ("discrepancy", "max-iter", "stagnation")
    assert len(d["final_coefficients"]) == ctx.basis.m
    path = tmp_path / "history.csv"
    report.history_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,residual,err_linf,err_l2"
    assert len(lines) == 1 + len(report.residuals)


# the frozen gradient map G (kappa0 = 0): G @ y replaces the adjoint solve
# plus apply_gradient in frozen Landweber; the boundary pairs are those of
# the derivative identities in test_derivatives.py
BC_IDS = ["dirichlet-neumann", "dirichlet-impedance", "impedance-neumann"]


@cache
def gradient_map_context(bc_id, s):
    ctx = make_setup(bc=BoundaryCondition.from_kinds(*bc_id.split("-")))[0]
    return InversionContext(ctx.problem, ctx.basis, smoothing_s=s)


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(bc_id=st.sampled_from(BC_IDS), s=st.sampled_from([0, 1]),
                  seed=st.integers(0, 2**32 - 1))
def test_frozen_gradient_map_matches_the_adjoint_solve(bc_id, s, seed):
    ctx = gradient_map_context(bc_id, s)
    G, problem, base = ctx.frozen_gradient_map, ctx.problem, ctx.frozen_base
    times = problem.tgrid.times
    y = np.random.Generator(np.random.Philox(seed)).standard_normal(
        len(times))
    a = solve_adjoint(problem, base, None, y)
    ref = apply_gradient(problem, a, second_time_derivative_of_square(base),
                         s).samples
    assert G.shape == (problem.grid.nx, problem.tgrid.nt + 1)
    assert np.max(np.abs(G @ y - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_context_is_immutable():
    # the frozen quantities are cached on the context, so it cannot change
    # under them
    ctx = gradient_map_context("dirichlet-neumann", 0)
    G = ctx.frozen_gradient_map
    assert ctx.frozen_gradient_map is G
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.smoothing_s = 1
    assert ctx.frozen_gradient_map is G


@pytest.mark.parametrize("s", [-1, 2])
def test_context_rejects_a_bad_smoothing_order(s):
    ctx = make_setup(m=5)[0]
    with pytest.raises(ValueError, match="smoothing order s must be 0 or 1"):
        InversionContext(ctx.problem, ctx.basis, smoothing_s=s)


def count_adjoint_solves(monkeypatch):
    import westinv.inversion as inversion

    calls = []
    solve = inversion.solve_adjoint

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(inversion, "solve_adjoint", counting_solve)
    return calls


def test_frozen_landweber_solves_the_adjoint_once(monkeypatch):
    # the impulse response behind the gradient map is the run's only
    # adjoint solve
    calls = count_adjoint_solves(monkeypatch)
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           method="landweber", mu=0.01, max_iter=4,
                           noise=0.0001)
    result = run_inversion(cfg)
    assert result.report.stop_index == 4
    assert len(calls) == 1


def test_unfrozen_landweber_solves_the_adjoint_per_step(monkeypatch):
    # the map holds only at kappa0 = 0; unfrozen, every step solves the
    # adjoint at its iterate
    ctx, init, truth, data = make_setup(m=5, noise=0.001, seed=3)
    calls = count_adjoint_solves(monkeypatch)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=3)
    report = landweber_run(data, init, False, None, stop, ctx)
    assert report.stop_index == 3
    assert len(calls) == 3


def test_frozen_landweber_pure_neumann_smoothing_is_singular():
    # s = 1 applies A^{-1}, which does not exist under pure Neumann
    # conditions, whether per step or once for the whole map
    grid, tgrid = SpatialGrid(41), TimeGrid(80)
    bc = BoundaryCondition.from_kinds("neumann", "neumann")
    source = manufactured_source(
        lambda x: np.cos(np.pi * x), lambda x: -np.pi**2 * np.cos(np.pi * x),
        lambda t: t**2, lambda t: 2 * t, lambda t: 2 * np.ones_like(t),
        PARAMS, grid, tgrid, bc,
    )
    problem = Problem(PARAMS, grid, tgrid, bc, source,
                      sample_times=np.linspace(0.0, 1.0, 25))
    basis = BasisSet("gaussian", 5)
    _, _, data = synthesize_data(problem, truth_field("smooth_bump", grid,
                                                      0.1), 0.0, 0)
    init = CoefficientField.from_coefficients(basis, np.zeros(5), grid)
    ctx = InversionContext(problem, basis, smoothing_s=1)
    with pytest.raises(SingularOperatorError):
        landweber_run(data, init, True, 0.01,
                      StoppingRule(tau=2.0, delta=0.0, max_iter=3), ctx)
