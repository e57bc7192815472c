"""Sensitivity, second-derivative and adjoint solves, gradient application,
and the assembled Jacobian / directional Hessian."""

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    Direction,
    GridMismatchError,
    MaterialParams,
    SpatialGrid,
    StateField,
    TimeGrid,
    TimeTrace,
    UnsupportedObservationError,
    apply_gradient,
    assemble_directional_hessian,
    assemble_jacobian,
    fd_jacobian_oracle,
    manufactured_source,
    sample_trace,
    second_time_derivative_of_square,
    solve_adjoint,
    solve_forward,
    solve_second_derivative,
    solve_sensitivity,
)
from westinv.basis import BasisSet, evaluate_basis
from westinv.derivatives import matrix_to_csv

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition.from_kinds("dirichlet", "neumann")


def f(x):
    return np.sin(np.pi * x / 2)


def f_xx(x):
    return -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)


# boundary pairs for the derivative identities (observation at x = 1 must
# not be Dirichlet); the impedance pairs run at nx = 51, nt = 200 to keep
# the suite short
BC_DI = BoundaryCondition.from_kinds("dirichlet", "impedance")
BC_IN = BoundaryCondition.from_kinds("impedance", "neumann")
BC_IDS = ["dirichlet-neumann", "dirichlet-impedance", "impedance-neumann"]


def make_problem(nx=51, nt=100, kappa_const=0.1, bc=BC):
    grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
    kap = np.full(nx, kappa_const)
    source = manufactured_source(
        f, f_xx, lambda t: t**2, lambda t: 2 * t,
        lambda t: 2 * np.ones_like(t), PARAMS, grid, tgrid, bc, kappa=kap,
    )
    base = solve_forward(PARAMS, kap, source, grid, tgrid, bc)
    return grid, tgrid, kap, source, base


def smooth_direction(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    c = rng.uniform(-1.0, 1.0, 4)
    x = grid.nodes
    vals = sum(cj * np.sin((j + 1) * np.pi * x) for j, cj in enumerate(c))
    return Direction(vals)


def test_sensitivity_zero_direction():
    # d-kappa == 0 -> z == 0
    grid, tgrid, kap, _, base = make_problem()
    z = solve_sensitivity(base, kap, Direction(np.zeros(grid.nx)), PARAMS,
                          grid, tgrid, BC)
    assert np.all(z.values == 0.0)


def test_sensitivity_linearity():
    # z(2d) == 2 z(d) exactly (linear solve)
    grid, tgrid, kap, _, base = make_problem()
    d = smooth_direction(grid, 1)
    z1 = solve_sensitivity(base, kap, d, PARAMS, grid, tgrid, BC)
    z2 = solve_sensitivity(base, kap, Direction(2 * d.samples), PARAMS, grid,
                           tgrid, BC)
    np.testing.assert_allclose(z2.values, 2 * z1.values, atol=1e-12)


def test_sensitivity_direction_shape_mismatch():
    grid, tgrid, kap, _, base = make_problem()
    with pytest.raises(GridMismatchError):
        solve_sensitivity(base, kap, Direction(np.zeros(grid.nx + 3)),
                          PARAMS, grid, tgrid, BC)


@pytest.mark.parametrize(
    "bc, nx, nt", [(BC, 51, 100), (BC_DI, 51, 200), (BC_IN, 51, 200)],
    ids=BC_IDS,
)
def test_sensitivity_taylor_second_order(bc, nx, nt):
    # ||G(k + h d) - G(k) - h z|| = O(h^2): halving h shrinks the
    # remainder by ~4
    grid, tgrid, kap, source, base = make_problem(nx, nt, bc=bc)
    d = smooth_direction(grid, 2)
    z = solve_sensitivity(base, kap, d, PARAMS, grid, tgrid, bc)
    rem = []
    for h in (2e-2, 1e-2):
        pert = solve_forward(PARAMS, kap + h * d.samples, source, grid,
                             tgrid, bc)
        rem.append(np.max(np.abs(pert.values - base.values - h * z.values)))
    assert 3.3 <= rem[0] / rem[1] <= 4.7


def test_second_derivative_taylor_third_order():
    # ||G(k + h d) - G - h z - h^2/2 w|| = O(h^3): halving ~8x
    grid, tgrid, kap, source, base = make_problem()
    d = smooth_direction(grid, 3)
    z = solve_sensitivity(base, kap, d, PARAMS, grid, tgrid, BC)
    w = solve_second_derivative(base, kap, z, z, d, d, PARAMS, grid, tgrid, BC)
    rem = []
    for h in (4e-2, 2e-2):
        pert = solve_forward(PARAMS, kap + h * d.samples, source, grid,
                             tgrid, BC)
        rem.append(np.max(np.abs(
            pert.values - base.values - h * z.values - 0.5 * h**2 * w.values
        )))
    assert 6.0 <= rem[0] / rem[1] <= 10.0


def test_second_derivative_symmetric_and_zero():
    grid, tgrid, kap, _, base = make_problem()
    d1, d2 = smooth_direction(grid, 4), smooth_direction(grid, 5)
    z1 = solve_sensitivity(base, kap, d1, PARAMS, grid, tgrid, BC)
    z2 = solve_sensitivity(base, kap, d2, PARAMS, grid, tgrid, BC)
    w12 = solve_second_derivative(base, kap, z1, z2, d1, d2, PARAMS, grid,
                                  tgrid, BC)
    w21 = solve_second_derivative(base, kap, z2, z1, d2, d1, PARAMS, grid,
                                  tgrid, BC)
    # invariant: symmetry in the pair (d1, d2)
    np.testing.assert_allclose(w12.values, w21.values, atol=1e-12)
    # zero first slot -> zero second derivative
    zero = Direction(np.zeros(grid.nx))
    z0 = solve_sensitivity(base, kap, zero, PARAMS, grid, tgrid, BC)
    w0 = solve_second_derivative(base, kap, z0, z2, zero, d2, PARAMS, grid,
                                 tgrid, BC)
    assert np.all(w0.values == 0.0)


def test_adjoint_zero_residual():
    # y == 0 -> a == 0
    grid, tgrid, kap, _, base = make_problem()
    y = TimeTrace(tgrid.times, np.zeros(tgrid.nt + 1))
    a = solve_adjoint(base, kap, y, PARAMS, grid, tgrid, BC)
    assert np.all(a.values == 0.0)


def test_adjoint_end_conditions():
    grid, tgrid, kap, _, base = make_problem()
    y = TimeTrace(tgrid.times, np.sin(2 * np.pi * tgrid.times))
    a = solve_adjoint(base, kap, y, PARAMS, grid, tgrid, BC)
    assert np.all(a.values[:, -1] == 0.0)


def test_adjoint_unsupported_observation():
    grid, tgrid, kap, _, base = make_problem()
    y = TimeTrace(tgrid.times, np.ones(tgrid.nt + 1))
    with pytest.raises(UnsupportedObservationError):
        solve_adjoint(base, kap, y, PARAMS, grid, tgrid, BC, obs_point=0.5)
    bc_dd = BoundaryCondition.from_kinds("dirichlet", "dirichlet")
    with pytest.raises(UnsupportedObservationError):
        solve_adjoint(base, kap, y, PARAMS, grid, tgrid, bc_dd)


@pytest.mark.parametrize(
    "bc, nx, nt", [(BC, 101, 400), (BC_DI, 51, 200), (BC_IN, 51, 200)],
    ids=BC_IDS,
)
def test_adjoint_pairing_identity(bc, nx, nt):
    # <z(1, .), y>_{L^2(0,T)} == <d-kappa, g>_{L^2(0,1)} with
    # g = apply_gradient(a, (p^2)_tt, s=0); relative mismatch <= 1e-3
    grid, tgrid, kap, _, base = make_problem(nx, nt, bc=bc)
    psq = second_time_derivative_of_square(base)
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.Philox(seed))
        d = smooth_direction(grid, seed + 10)
        yv = np.sin(np.pi * tgrid.times) * rng.uniform(0.5, 1.5)
        y = TimeTrace(tgrid.times, yv)
        z = solve_sensitivity(base, kap, d, PARAMS, grid, tgrid, bc)
        a = solve_adjoint(base, kap, y, PARAMS, grid, tgrid, bc)
        g = apply_gradient(a, psq, 0, grid, tgrid)
        lhs = np.trapezoid(z.values[-1, :] * yv, dx=tgrid.dt)
        rhs = np.trapezoid(d.samples * g.samples, dx=grid.dx)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-3


def test_apply_gradient_closed_forms():
    grid, tgrid = SpatialGrid(101), TimeGrid(200)
    t, x = tgrid.times, grid.nodes
    ones = StateField(np.ones((grid.nx, tgrid.nt + 1)), grid, tgrid)
    # a == 1, (p^2)_tt = 12 t^2 f^2 -> g = 4 T^3 f^2
    psq = 12 * (t**2)[None, :] * (f(x) ** 2)[:, None]
    g = apply_gradient(ones, psq, 0, grid, tgrid)
    assert np.max(np.abs(g.samples - 4 * f(x) ** 2)) < 1e-3
    # s = 1, Dirichlet-Dirichlet, g = sin(pi x) -> u = sin(pi x)/pi^2
    bc_dd = BoundaryCondition.from_kinds("dirichlet", "dirichlet")
    psq_sin = np.tile(np.sin(np.pi * x)[:, None], (1, tgrid.nt + 1))
    u = apply_gradient(ones, psq_sin, 1, grid, tgrid, bc=bc_dd)
    assert np.max(np.abs(u.samples - np.sin(np.pi * x) / np.pi**2)) < 1e-3
    # zero adjoint -> zero gradient
    zero = StateField(np.zeros_like(ones.values), grid, tgrid)
    assert np.all(apply_gradient(zero, psq, 0, grid, tgrid).samples == 0.0)


def test_sample_trace_linear_interpolation():
    # sampling a linear trace is exact at arbitrary times
    tgrid = TimeGrid(10)
    vals = 3.0 * tgrid.times
    out = sample_trace(vals, tgrid, np.array([0.0, 0.123, 0.5, 1.0]))
    np.testing.assert_allclose(out, 3.0 * np.array([0.0, 0.123, 0.5, 1.0]),
                               atol=1e-15)


def test_jacobian_matches_fd_oracle():
    # frozen Jacobian vs independent central-difference oracle
    grid, tgrid, kap, source, base = make_problem()
    basis = BasisSet("gaussian", 7)
    times = np.linspace(0.0, 1.0, 20)
    J = assemble_jacobian(kap, basis, PARAMS, grid, tgrid, BC, source, 1.0,
                          times, base=base)
    Jfd = fd_jacobian_oracle(kap, basis, 1e-4, PARAMS, grid, tgrid, BC,
                             source, 1.0, times)
    rel = (np.linalg.norm(J.entries - Jfd.entries)
           / np.linalg.norm(Jfd.entries))
    assert rel < 1e-4


def test_fd_oracle_step_halving_quarters_error():
    # invariant: oracle truncation error is O(h^2) against the exact
    # discrete derivative
    grid, tgrid, kap, source, base = make_problem()
    basis = BasisSet("gaussian", 5)
    times = np.linspace(0.0, 1.0, 20)
    J = assemble_jacobian(kap, basis, PARAMS, grid, tgrid, BC, source, 1.0,
                          times, base=base)
    errs = []
    for h in (4e-3, 2e-3):
        Jfd = fd_jacobian_oracle(kap, basis, h, PARAMS, grid, tgrid, BC,
                                 source, 1.0, times)
        errs.append(np.linalg.norm(J.entries - Jfd.entries))
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_directional_hessian_bilinear_and_quadratic_model():
    grid, tgrid, kap, source, base = make_problem()
    basis = BasisSet("gaussian", 5)
    times = np.linspace(0.0, 1.0, 25)
    J = assemble_jacobian(kap, basis, PARAMS, grid, tgrid, BC, source, 1.0,
                          times, base=base)
    E = evaluate_basis(basis, grid)
    c = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    d = Direction(E @ c, c)
    H = assemble_directional_hessian(d, kap, basis, PARAMS, grid, tgrid, BC,
                                     source, 1.0, times, base, J)
    # invariant: H_{2d} = 2 H_d (bilinearity in the frozen direction)
    H2 = assemble_directional_hessian(Direction(2 * d.samples, 2 * c), kap,
                                      basis, PARAMS, grid, tgrid, BC, source,
                                      1.0, times, base, J)
    np.testing.assert_allclose(H2.entries, 2 * H.entries, atol=1e-10)
    # quadratic model F + J c + 1/2 H_d c beats the linear model
    eps = 1e-2
    step = Direction(eps * d.samples, eps * c)
    Heps = assemble_directional_hessian(step, kap, basis, PARAMS, grid,
                                        tgrid, BC, source, 1.0, times, base, J)
    obs = grid.node_index(1.0)
    pert = solve_forward(PARAMS, kap + step.samples, source, grid, tgrid, BC)
    Fp = sample_trace(pert.values[obs, :], tgrid, times)
    F0 = sample_trace(base.values[obs, :], tgrid, times)
    lin_err = np.linalg.norm(Fp - F0 - J.entries @ step.coefficients)
    quad_err = np.linalg.norm(
        Fp - F0 - (J.entries + 0.5 * Heps.entries) @ step.coefficients
    )
    assert quad_err < 0.1 * lin_err


def test_zero_direction_hessian_is_zero():
    # zero frozen direction -> zero Hessian columns, so the
    # corrector matrix J + H/2 reduces to the plain Newton matrix
    grid, tgrid, kap, source, base = make_problem()
    basis = BasisSet("gaussian", 4)
    times = np.linspace(0.0, 1.0, 15)
    J = assemble_jacobian(kap, basis, PARAMS, grid, tgrid, BC, source, 1.0,
                          times, base=base)
    H = assemble_directional_hessian(
        Direction(np.zeros(grid.nx), np.zeros(4)), kap, basis, PARAMS, grid,
        tgrid, BC, source, 1.0, times, base, J,
    )
    assert np.max(np.abs(H.entries)) < 1e-14


def test_matrix_csv_export(tmp_path):
    rng = np.random.Generator(np.random.Philox(13))
    M = rng.standard_normal((6, 3))
    path = tmp_path / "jac.csv"
    matrix_to_csv(M, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(back, M, rtol=1e-15)
