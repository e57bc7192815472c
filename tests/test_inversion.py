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
    InversionContext,
    LinearSolveError,
    MaterialParams,
    Problem,
    RegularizationSchedule,
    SingularOperatorError,
    SpatialGrid,
    StoppingRule,
    TimeGrid,
    TimeTrace,
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
from westinv.basis import BasisSet, evaluate_basis, project
from westinv.experiment import ExperimentConfig, build_problem
from westinv.inversion import (
    _normal_condition,
    _solve_regularized,
    default_alpha0,
)
from westinv.derivatives import JacobianMatrix

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition("dirichlet", "neumann")


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


def count_marches(monkeypatch):
    """Record each march of westinv.derivatives (its first forcing's shape)
    and each march of westinv.forward whose second column is forced by
    w_obs e_obs in step 0 (the kappa = 0 march of p0 and the impulse
    response), by module name."""
    import westinv.derivatives as derivatives
    import westinv.forward as forward

    marches = []

    def counting(module):
        march = module.cn_march

        def counted(problem, forcing, advance, *args):
            forcing = iter(forcing)
            first = next(forcing)
            e_obs = np.zeros(problem.grid.nx)
            e_obs[problem.obs_index] = problem.operator.weights[
                problem.obs_index]
            if module is derivatives or (
                    first.ndim == 2 and np.array_equal(first[:, 1], e_obs)):
                marches.append((module.__name__, first.shape))
            return march(problem, chain([first], forcing), advance, *args)

        monkeypatch.setattr(module, "cn_march", counted)

    counting(derivatives)
    counting(forward)
    return marches


def test_frozen_newton_marches_one_impulse_response(monkeypatch):
    # the m frozen Jacobian columns come from one two-column march, of p0
    # and the impulse response, and no sensitivity march
    import westinv.derivatives as derivatives

    marches, sensitivities = count_marches(monkeypatch), []
    monkeypatch.setattr(derivatives, "solve_sensitivity",
                        lambda *args, **kwargs: sensitivities.append(1))
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           max_iter=4, noise=0.0, alpha0=1.0)
    result = run_inversion(cfg)
    assert result.report.stop_index >= 2
    assert marches == [("westinv.forward", (41, 2))]
    assert sensitivities == []


def test_halley_marches_one_impulse_response_and_one_sensitivity_block(
        monkeypatch):
    # J and the F''(0) tensor share the problem's impulse response and its
    # kappa = 0 solution: a Halley run makes one two-column march of both
    # and one (batched) sensitivity march, and a second kappa0 = None
    # Jacobian on the same problem neither marches nor solves; it takes no
    # other base, and an array kappa0 takes no Jacobian without its base
    import westinv.derivatives as derivatives
    import westinv.forward as forward

    marches = count_marches(monkeypatch)
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           method="halley", max_iter=4, noise=0.0,
                           alpha0=1.0)
    assert run_inversion(cfg).report.stop_index >= 2
    assert marches == [("westinv.forward", (41, 2)),
                       ("westinv.derivatives", (41, 7))]
    problem, basis, truth = build_problem(cfg)
    first = InversionContext(problem, basis).frozen_jacobian
    calls = []
    # derivatives looks up cn_march only; solve_forward lives in forward
    for module, name in ((forward, "cn_march"), (forward, "solve_forward"),
                         (derivatives, "cn_march")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *a, name=name, original=original, **k:
                calls.append(name) or original(*a, **k))
    again = assemble_jacobian(problem, None, basis)
    assert calls == []
    assert np.array_equal(again.entries, first.entries)
    at_truth = solve_forward(problem, truth)
    with pytest.raises(ValueError):
        assemble_jacobian(problem, None, basis, base=at_truth)
    with pytest.raises(ValueError, match="needs its base"):
        assemble_jacobian(problem, truth.samples, basis)


def test_halley_builds_the_hessian_tensor_once(monkeypatch):
    # a Halley run marches the kappa0 = 0 sensitivities once, and every
    # step's H_d is a contraction of the tensor built from them: no second-
    # derivative march, no further sensitivity march
    import westinv.derivatives as derivatives
    import westinv.inversion as inversion

    calls = {"solve_sensitivity": 0, "solve_second_derivative": 0,
             "assemble_directional_hessian": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(derivatives, "solve_sensitivity")
    counting(derivatives, "solve_second_derivative")
    counting(inversion, "assemble_directional_hessian")
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           method="halley", max_iter=4, noise=0.0,
                           alpha0=1.0)
    report = run_inversion(cfg).report
    assert report.stop_index >= 2
    assert calls == {"solve_sensitivity": 1, "solve_second_derivative": 0,
                     "assemble_directional_hessian": report.stop_index}


def test_halley_stopped_at_iterate_zero_builds_neither_j_nor_t(monkeypatch):
    # J and T are taken at the first step, as frozen Newton takes J: a run
    # whose initial residual meets the discrepancy level builds neither
    import westinv.inversion as inversion

    built = []
    for name in ("assemble_jacobian", "frozen_hessian_tensor"):
        monkeypatch.setattr(inversion, name,
                            lambda *a, name=name, **k: built.append(name))
    ctx, init, truth, data = make_setup(noise=0.0)
    stop = StoppingRule(tau=2.0, delta=1e3, max_iter=5)
    report = halley_run(data, init, RegularizationSchedule(), stop, ctx,
                        truth=truth)
    assert (report.stop_index, report.stop_reason) == (0, "discrepancy")
    assert built == []


def test_halley_diagnostics_assemble_one_jacobian(monkeypatch):
    # the diagnostics spectrum of a Halley run is read off the frozen J the
    # run itself factors: one Jacobian, one SVD
    import westinv.inversion as inversion

    assembled, factored = [], []
    assemble = inversion.assemble_jacobian
    svd = np.linalg.svd
    monkeypatch.setattr(inversion, "assemble_jacobian",
                        lambda *a, **k: assembled.append(k) or assemble(*a, **k))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: factored.append(a) or svd(*a, **k))
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           method="halley", alpha0=1.0, max_iter=3,
                           diagnostics=True)
    result = run_inversion(cfg)
    assert len(assembled) == 1 and len(factored) == 1
    np.testing.assert_array_equal(
        result.sigma, svd(factored[0][0], full_matrices=False)[1])


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
    J = assemble_jacobian(problem, None, basis)
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


@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0, 0.0])
def test_landweber_rejects_a_bad_step_size(mu):
    # a library call gets the check validate makes, not a run to max-iter
    ctx, init, _, data = make_setup(nx=41, nt=80, m=7, noise=0.01)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        landweber_run(data, init, True, mu, StoppingRule(2.0, 0.01, 3), ctx)


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
    with pytest.raises(ValueError):
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
    # first iterations; every method's iterates stay nonnegative up to
    # 1e-12, and their coefficients are the projection of their samples
    ctx, init, truth, data = make_setup(noise=0.0)
    stop = StoppingRule(tau=2.0, delta=0.0, max_iter=5)
    report = newton_lm_run(data, init, True, RegularizationSchedule(), stop,
                           ctx, truth=truth)
    res = report.residuals
    assert all(res[k + 1] < res[k] for k in range(len(res) - 1))
    # reconstruction error decreases as well
    assert report.errors_l2[-1] < report.errors_l2[0]
    for report in (report, landweber_run(data, init, True, None, stop, ctx),
                   halley_run(data, init, RegularizationSchedule(), stop,
                              ctx)):
        assert report.stop_index > 0
        assert report.final.samples.min() >= -1e-12
        np.testing.assert_array_equal(
            report.final.coefficients,
            project(ctx.basis, report.final.samples, ctx.problem.grid))


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
# the derivative identities in test_derivatives.py, observed at x = 1 and
# at an interior node
BC_IDS = ["dirichlet-neumann", "dirichlet-impedance", "impedance-neumann"]


@cache
def gradient_map_context(bc_id, s, obs=1.0):
    ctx = make_setup(bc=BoundaryCondition(*bc_id.split("-")))[0]
    problem = dataclasses.replace(ctx.problem, obs_point=obs)
    return InversionContext(problem, ctx.basis, smoothing_s=s)


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(bc_id=st.sampled_from(BC_IDS), s=st.sampled_from([0, 1]),
                  obs=st.sampled_from([1.0, 0.5]),
                  seed=st.integers(0, 2**32 - 1))
def test_frozen_gradient_map_matches_the_adjoint_solve(bc_id, s, obs, seed):
    ctx = gradient_map_context(bc_id, s, obs)
    G, problem = ctx.frozen_gradient_map, ctx.problem
    base = problem.frozen_base
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


def test_frozen_gradient_map_factors_its_adjoint_step_once(monkeypatch):
    # at kappa = 0 the adjoint's step matrix is the march's own constant
    # one: one dpttrf, then the factors' solve on every step, no dptsv
    import westinv.laplacian as laplacian

    ctx = gradient_map_context("dirichlet-neumann", 0)
    ctx = InversionContext(ctx.problem, ctx.basis)  # G not yet cached
    ctx.problem.frozen_base  # its own kappa = 0 march, cached beforehand
    calls = []
    for name in ("dptsv", "dpttrf"):
        monkeypatch.setattr(
            laplacian, name,
            lambda *a, name=name, original=getattr(laplacian, name):
                calls.append(name) or original(*a))
    ctx.frozen_gradient_map
    assert calls == ["dpttrf"]


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
    bc = BoundaryCondition("neumann", "neumann")
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


@pytest.mark.parametrize("build", [
    lambda: StoppingRule(delta=np.nan),
    lambda: StoppingRule(tau=np.inf),
    lambda: StoppingRule(delta=np.inf),
    lambda: RegularizationSchedule(alpha0=np.inf),
    lambda: truth_field("tent", SpatialGrid(11), np.nan),
    lambda: truth_field("smooth_bump", SpatialGrid(21), np.finfo(float).max),
    lambda: TimeGrid(10, np.inf),
    lambda: TimeGrid(10, np.nan),
    lambda: MaterialParams(np.inf, 0.2),
    lambda: MaterialParams(1.0, np.nan),
    lambda: BasisSet("gaussian", 5, sigma=np.nan),
    lambda: BasisSet("gaussian", 5, sigma=0.0),
    lambda: TimeTrace(np.arange(3.0), np.zeros(3), noise_level=np.nan),
    lambda: TimeTrace(np.arange(3.0), np.zeros(3), noise_level=np.inf),
], ids=["delta-nan", "tau-inf", "delta-inf", "alpha0-inf", "amplitude-nan",
        "amplitude-overflows", "t_final-inf", "t_final-nan", "c2-inf",
        "b-nan", "sigma-nan", "sigma-zero", "noise_level-nan",
        "noise_level-inf"])
def test_constructors_refuse_non_finite_values(build):
    # a NaN delta would turn off the discrepancy stop: rnorm <= tau * nan
    # is never true; a zero sigma would divide by zero in evaluate_basis,
    # and the largest float times the bump's peak 1.0013 overflows
    with pytest.raises(ValueError, match="must be finite"):
        build()
