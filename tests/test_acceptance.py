"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import time

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    CoefficientField,
    Direction,
    InversionContext,
    MaterialParams,
    Problem,
    RegularizationSchedule,
    SpatialGrid,
    StoppingRule,
    TimeGrid,
    apply_gradient,
    assemble_jacobian,
    eigenvalues,
    landweber_run,
    manufactured_source,
    newton_lm_run,
    halley_run,
    pole_distinctness,
    poles,
    run_experiment,
    second_time_derivative_of_square,
    solve_adjoint,
    solve_forward,
    solve_second_derivative,
    solve_sensitivity,
    svd_decay,
    synthesize_data,
)
from westinv.experiment import ExperimentConfig, build_problem

from oracles import fd_jacobian_oracle, nonlinear_source, pole_residual

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition("dirichlet", "neumann")


def report_line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def excitation():
    f = lambda x: np.sin(np.pi * x / 2)
    f_xx = lambda x: -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)
    return f, f_xx


def quadratic_profile():
    return (lambda t: t**2, lambda t: 2 * t, lambda t: 2 * np.ones_like(t))


def make_base(nx, nt, kappa_const=0.1):
    grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
    f, f_xx = excitation()
    beta, beta_t, beta_tt = quadratic_profile()
    kap = np.full(nx, kappa_const)
    source = nonlinear_source(f, f_xx, beta, beta_t, beta_tt, PARAMS,
                              grid, tgrid, BC, kap)
    problem = Problem(PARAMS, grid, tgrid, BC, source)
    base = solve_forward(problem, kap)
    return grid, tgrid, kap, problem, base


def smooth_direction(grid, seed, amplitude=0.4):
    rng = np.random.Generator(np.random.Philox(seed))
    c = rng.uniform(-1.0, 1.0, 4)
    c *= amplitude / np.sum(np.abs(c))
    x = grid.nodes
    return Direction(sum(cj * np.sin((j + 1) * np.pi * x)
                         for j, cj in enumerate(c)))


@pytest.fixture(scope="module")
def baseline_jacobians():
    """Frozen Jacobian at kappa0 = 0 (41 Gaussian bumps, 50 samples) and its
    central-difference oracle, shared by criteria 4 and 8."""
    from westinv.basis import BasisSet

    grid, tgrid = SpatialGrid(101), TimeGrid(400)
    f, f_xx = excitation()
    beta, beta_t, beta_tt = quadratic_profile()
    source = manufactured_source(f, f_xx, beta, beta_t, beta_tt, PARAMS,
                                 grid, tgrid, BC)
    problem = Problem(PARAMS, grid, tgrid, BC, source,
                      sample_times=np.linspace(0.0, 1.0, 50))
    basis = BasisSet("gaussian", 41)
    kap0 = np.zeros(101)
    J = assemble_jacobian(problem, kap0, basis,
                          base=solve_forward(problem, kap0))
    Jfd = fd_jacobian_oracle(problem, kap0, basis, 1e-4)
    return J, Jfd


def reconstruction_config(**overrides):
    cfg = ExperimentConfig(
        nx=101, nt=400, t_final=1.0, b=0.2,
        basis_kind="gaussian", n_basis=41,
        truth_family="smooth_bump", truth_amplitude=0.3,
        time_profile="ramp", noise=0.01, seed=11, sample_count=50,
        method="newton", tau=2.0, alpha0=4.0, theta=0.5, max_iter=20,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def run_reconstruction(cfg):
    """Data synthesis + method dispatch mirroring the harness, returning the
    report plus the pieces needed for cross-method comparisons."""
    problem, basis, truth = build_problem(cfg)
    _, _, noisy = synthesize_data(problem, truth, cfg.noise, cfg.seed)
    delta = np.sqrt(cfg.sample_count) * noisy.noise_level
    ctx = InversionContext(problem, basis)
    init = CoefficientField.from_coefficients(basis, np.zeros(basis.m),
                                              problem.grid)
    stop = StoppingRule(cfg.tau, delta, cfg.max_iter)
    reg = RegularizationSchedule(cfg.alpha0, cfg.theta)
    if cfg.method == "newton":
        report = newton_lm_run(noisy, init, cfg.frozen, reg, stop, ctx,
                               truth=truth)
    elif cfg.method == "halley":
        report = halley_run(noisy, init, reg, stop, ctx, truth=truth)
    else:
        stop = StoppingRule(cfg.tau, 0.0, cfg.max_iter)  # run the full budget
        report = landweber_run(noisy, init, cfg.frozen, cfg.mu, stop, ctx,
                               truth=truth)
    return report, truth, delta


def test_criterion_1_manufactured_convergence():
    start = time.perf_counter()
    f, _ = excitation()
    errors = []
    for level in range(3):
        nx = 25 * 2**level + 1
        nt = 50 * 2**level
        grid, tgrid, kap, _, base = make_base(nx, nt, kappa_const=0.0)
        exact = f(grid.nodes)[:, None] * (tgrid.times**2)[None, :]
        errors.append(np.max(np.abs(base.values - exact)))
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    elapsed = time.perf_counter() - start
    ok = all(o >= 1.9 for o in orders) and elapsed < 10.0
    report_line(1, ok, f"observed orders {orders[0]:.3f}, {orders[1]:.3f} "
                       f"(need >= 1.9), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_2_adjoint_consistency():
    def mismatches(nx, nt):
        grid, tgrid, kap, problem, base = make_base(nx, nt)
        psq = second_time_derivative_of_square(base)
        out = []
        for seed in range(5):
            rng = np.random.Generator(np.random.Philox(seed))
            d = smooth_direction(grid, seed + 100)
            y = np.sin(np.pi * tgrid.times) * rng.uniform(0.5, 1.5)
            z = solve_sensitivity(problem, base, kap, d)
            a = solve_adjoint(problem, base, kap, y)
            g = apply_gradient(problem, a, psq, 0)
            lhs = np.trapezoid(z.values[-1, :] * y, dx=tgrid.dt)
            rhs = np.trapezoid(d.samples * g.samples, dx=grid.dx)
            out.append(abs(lhs - rhs) / abs(lhs))
        return np.array(out)

    coarse = mismatches(101, 400)
    fine = mismatches(201, 800)
    ok = bool(np.all(coarse <= 1e-3) and np.all(fine <= coarse / 2))
    report_line(2, ok, f"max mismatch {coarse.max():.3e} at Nx=101/Nt=400 "
                       f"(<= 1e-3), refinement ratios "
                       f"{(coarse / fine).min():.2f}..{(coarse / fine).max():.2f} "
                       f"(need >= 2) over 5 pairs")


def test_criterion_3_derivative_orders():
    grid, tgrid, kap, problem, base = make_base(51, 100)
    d = smooth_direction(grid, 7)
    z = solve_sensitivity(problem, base, kap, d)
    w = solve_second_derivative(problem, base, kap, z, z, d, d)
    hs = 2.0 ** -np.arange(2, 7)
    rem1, rem2 = [], []
    for h in hs:
        pert = solve_forward(problem, kap + h * d.samples)
        diff = pert.values - base.values
        rem1.append(np.max(np.abs(diff - h * z.values)))
        rem2.append(np.max(np.abs(diff - h * z.values
                                  - 0.5 * h**2 * w.values)))
    slope1 = np.polyfit(np.log(hs), np.log(rem1), 1)[0]
    slope2 = np.polyfit(np.log(hs), np.log(rem2), 1)[0]
    ok = abs(slope1 - 2.0) <= 0.2 and abs(slope2 - 3.0) <= 0.3
    report_line(3, ok, f"Taylor remainder slopes {slope1:.3f} "
                       f"(need 2.0 +/- 0.2) and {slope2:.3f} "
                       f"(need 3.0 +/- 0.3)")


def test_criterion_4_jacobian_oracle(baseline_jacobians):
    J, Jfd = baseline_jacobians
    rel = (np.linalg.norm(J.entries - Jfd.entries)
           / np.linalg.norm(Jfd.entries))
    ok = rel <= 1e-2
    report_line(4, ok, f"relative Frobenius error {rel:.3e} (<= 1e-2), "
                       f"M=41 basis functions, 50 samples")


def test_criterion_5_newton_discrepancy_behavior():
    start = time.perf_counter()
    rep1, _, _ = run_reconstruction(reconstruction_config(noise=0.01))
    rep01, _, _ = run_reconstruction(reconstruction_config(noise=0.001))
    elapsed = time.perf_counter() - start
    ok = (rep1.stop_reason == "discrepancy" and 2 <= rep1.stop_index <= 4
          and rep01.stop_index >= rep1.stop_index + 1 and elapsed < 60.0)
    report_line(5, ok, f"1% noise: stop by {rep1.stop_reason} at iteration "
                       f"{rep1.stop_index} (need 2-4); 0.1% noise: iteration "
                       f"{rep01.stop_index} (need >= +1); "
                       f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_6_halley_vs_newton():
    rep_n, _, _ = run_reconstruction(reconstruction_config(method="newton"))
    rep_h, _, _ = run_reconstruction(reconstruction_config(method="halley"))
    n_inf = rep_n.errors_linf[rep_n.stop_index]
    n_l2 = rep_n.errors_l2[rep_n.stop_index]
    h_inf = rep_h.errors_linf[rep_h.stop_index]
    h_l2 = rep_h.errors_l2[rep_h.stop_index]
    ok = h_inf <= n_inf and h_l2 <= n_l2
    report_line(6, ok, f"identical data/seed: Halley finals "
                       f"Linf={h_inf:.5f}, L2={h_l2:.5f} vs Newton "
                       f"Linf={n_inf:.5f}, L2={n_l2:.5f} (need <=)")


def test_criterion_7_landweber_slowness():
    base = dict(nx=51, nt=400, t_final=2.0, b=0.01, truth_family="tent",
                truth_amplitude=0.3, noise=0.01, seed=11)
    rep_n, _, _ = run_reconstruction(reconstruction_config(**base))
    rep_l, _, _ = run_reconstruction(
        reconstruction_config(method="landweber", mu=0.002, max_iter=1000,
                              alpha0=None, **base)
    )
    err_l2 = np.array(rep_l.errors_l2)
    still_decreasing = bool(np.all(np.diff(err_l2[-10:]) < 0))
    ran_full = len(err_l2) == 1001
    newton_l2 = rep_n.errors_l2[rep_n.stop_index]
    ok = (rep_n.stop_reason == "discrepancy" and ran_full
          and err_l2[-1] > newton_l2 and still_decreasing)
    report_line(7, ok, f"Landweber L2 error after 1000 iterations "
                       f"{err_l2[-1]:.5f} > Newton at discrepancy stop "
                       f"{newton_l2:.5f}; still strictly decreasing: "
                       f"{still_decreasing}")


def test_criterion_8_ill_posedness(baseline_jacobians):
    J, _ = baseline_jacobians
    q = svd_decay(J.svd()[1])
    lams = eigenvalues(BC, 20)
    pairs = [poles(1.0, 1.0, v) for v in lams]
    res = max(pole_residual(p, 1.0, 1.0, lam)
              for lam, pair in zip(lams, pairs)
              for p in pair)
    distinct = pole_distinctness(lams, pairs)["distinct"]
    ok = q < 0.9 and res <= 1e-12 and distinct
    report_line(8, ok, f"singular-value decay rate q={q:.4f} (< 0.9); "
                       f"max pole residual {res:.2e} (<= 1e-12); "
                       f"pairwise distinct: {distinct}")


def test_criterion_9_noise_free_consistency():
    cfg = reconstruction_config(
        nx=101, nt=400, b=0.05, basis_kind="hat", n_basis=5,
        truth_family="tent", truth_in_span=True, noise=0.0, max_iter=60,
    )
    rep, truth, _ = run_reconstruction(cfg)
    truth_l2 = np.sqrt(np.trapezoid(truth.samples**2, dx=1.0 / (cfg.nx - 1)))
    rel = np.array(rep.errors_l2) / truth_l2
    best = rel[: rep.stop_index + 1].min()
    ok = rep.stop_reason == "stagnation" and best <= 1e-3
    report_line(9, ok, f"best relative L2 error {best:.2e} (<= 1e-3) before "
                       f"the {rep.stop_reason} stop at iteration "
                       f"{rep.stop_index}")


def test_criterion_10_determinism(tmp_path):
    cfg = reconstruction_config(nx=41, nt=80, n_basis=7, sample_count=25,
                                max_iter=6, diagnostics=True)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("report.json", "config.json", "history.csv",
                     "kappa_final.csv", "trace_noisy.csv", "svd.csv")
    )
    report_line(10, same, "two runs of the same config+seed produce "
                          "byte-identical artifacts" if same else
                          "artifact bytes differ between identical runs")
