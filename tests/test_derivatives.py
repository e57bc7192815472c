"""Sensitivity, second-derivative and adjoint solves, gradient application,
and the assembled Jacobian / directional Hessian."""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    Direction,
    GridMismatchError,
    MaterialParams,
    Problem,
    SourceTerm,
    SpatialGrid,
    StateField,
    TimeGrid,
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


def make_problem(nx=51, nt=100, kappa_const=0.1, bc=BC, sample_times=None):
    grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
    kap = np.full(nx, kappa_const)
    source = manufactured_source(
        f, f_xx, lambda t: t**2, lambda t: 2 * t,
        lambda t: 2 * np.ones_like(t), PARAMS, grid, tgrid, bc, kappa=kap,
    )
    problem = Problem(PARAMS, grid, tgrid, bc, source,
                      sample_times=sample_times)
    base = solve_forward(problem, kap)
    return grid, tgrid, kap, problem, base


def smooth_direction(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    c = rng.uniform(-1.0, 1.0, 4)
    x = grid.nodes
    vals = sum(cj * np.sin((j + 1) * np.pi * x) for j, cj in enumerate(c))
    return Direction(vals)


def test_sensitivity_zero_direction():
    # d-kappa == 0 -> z == 0
    grid, tgrid, kap, problem, base = make_problem()
    z = solve_sensitivity(problem, base, kap, Direction(np.zeros(grid.nx)))
    assert np.all(z.values == 0.0)


def test_sensitivity_linearity():
    # z(2d) == 2 z(d) exactly (linear solve)
    grid, tgrid, kap, problem, base = make_problem()
    d = smooth_direction(grid, 1)
    z1 = solve_sensitivity(problem, base, kap, d)
    z2 = solve_sensitivity(problem, base, kap, Direction(2 * d.samples))
    np.testing.assert_allclose(z2.values, 2 * z1.values, atol=1e-12)


def test_sensitivity_direction_shape_mismatch():
    grid, tgrid, kap, problem, base = make_problem()
    with pytest.raises(GridMismatchError):
        solve_sensitivity(problem, base, kap,
                          Direction(np.zeros(grid.nx + 3)))


@pytest.mark.parametrize(
    "bc, nx, nt", [(BC, 51, 100), (BC_DI, 51, 200), (BC_IN, 51, 200)],
    ids=BC_IDS,
)
def test_sensitivity_taylor_second_order(bc, nx, nt):
    # ||G(k + h d) - G(k) - h z|| = O(h^2): halving h shrinks the
    # remainder by ~4
    grid, tgrid, kap, problem, base = make_problem(nx, nt, bc=bc)
    d = smooth_direction(grid, 2)
    z = solve_sensitivity(problem, base, kap, d)
    rem = []
    for h in (2e-2, 1e-2):
        pert = solve_forward(problem, kap + h * d.samples)
        rem.append(np.max(np.abs(pert.values - base.values - h * z.values)))
    assert 3.3 <= rem[0] / rem[1] <= 4.7


@pytest.mark.parametrize(
    "bc, nx, nt", [(BC, 51, 100), (BC_DI, 51, 200), (BC_IN, 51, 200)],
    ids=BC_IDS,
)
def test_second_derivative_taylor_third_order(bc, nx, nt):
    # ||G(k + h d) - G - h z - h^2/2 w|| = O(h^3): halving ~8x
    grid, tgrid, kap, problem, base = make_problem(nx, nt, bc=bc)
    d = smooth_direction(grid, 3)
    z = solve_sensitivity(problem, base, kap, d)
    w = solve_second_derivative(problem, base, kap, z, z, d, d)
    rem = []
    for h in (4e-2, 2e-2):
        pert = solve_forward(problem, kap + h * d.samples)
        rem.append(np.max(np.abs(
            pert.values - base.values - h * z.values - 0.5 * h**2 * w.values
        )))
    assert 6.0 <= rem[0] / rem[1] <= 10.0


def test_second_derivative_symmetric_and_zero():
    grid, tgrid, kap, problem, base = make_problem()
    d1, d2 = smooth_direction(grid, 4), smooth_direction(grid, 5)
    z1 = solve_sensitivity(problem, base, kap, d1)
    z2 = solve_sensitivity(problem, base, kap, d2)
    w12 = solve_second_derivative(problem, base, kap, z1, z2, d1, d2)
    w21 = solve_second_derivative(problem, base, kap, z2, z1, d2, d1)
    # invariant: symmetry in the pair (d1, d2)
    np.testing.assert_allclose(w12.values, w21.values, atol=1e-12)
    # zero first slot -> zero second derivative
    zero = Direction(np.zeros(grid.nx))
    z0 = solve_sensitivity(problem, base, kap, zero)
    w0 = solve_second_derivative(problem, base, kap, z0, z2, zero, d2)
    assert np.all(w0.values == 0.0)


def test_adjoint_zero_residual():
    # y == 0 -> a == 0
    grid, tgrid, kap, problem, base = make_problem()
    a = solve_adjoint(problem, base, kap, np.zeros(tgrid.nt + 1))
    assert np.all(a.values == 0.0)


def test_adjoint_end_conditions():
    grid, tgrid, kap, problem, base = make_problem()
    a = solve_adjoint(problem, base, kap, np.sin(2 * np.pi * tgrid.times))
    assert np.all(a.values[:, -1] == 0.0)


def test_adjoint_unsupported_observation():
    grid, tgrid, kap, problem, base = make_problem()
    y = np.ones(tgrid.nt + 1)
    with pytest.raises(UnsupportedObservationError):
        solve_adjoint(replace(problem, obs_point=0.5), base, kap, y)
    bc_dd = BoundaryCondition.from_kinds("dirichlet", "dirichlet")
    with pytest.raises(UnsupportedObservationError):
        solve_adjoint(replace(problem, bc=bc_dd), base, kap, y)


def test_adjoint_residual_off_the_solver_grid():
    # the residual must have one value per solver time level
    grid, tgrid, kap, problem, base = make_problem()
    for y in (np.ones(tgrid.nt), np.ones(tgrid.nt + 2)):
        with pytest.raises(GridMismatchError):
            solve_adjoint(problem, base, kap, y)


@pytest.mark.parametrize(
    "bc, nx, nt", [(BC, 101, 400), (BC_DI, 51, 200), (BC_IN, 51, 200)],
    ids=BC_IDS,
)
def test_adjoint_pairing_identity(bc, nx, nt):
    # <z(1, .), y>_{L^2(0,T)} == <d-kappa, g>_{L^2(0,1)} with
    # g = apply_gradient(a, (p^2)_tt, s=0); relative mismatch <= 1e-3
    grid, tgrid, kap, problem, base = make_problem(nx, nt, bc=bc)
    psq = second_time_derivative_of_square(base)
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.Philox(seed))
        d = smooth_direction(grid, seed + 10)
        yv = np.sin(np.pi * tgrid.times) * rng.uniform(0.5, 1.5)
        z = solve_sensitivity(problem, base, kap, d)
        a = solve_adjoint(problem, base, kap, yv)
        g = apply_gradient(problem, a, psq, 0)
        lhs = np.trapezoid(z.values[-1, :] * yv, dx=tgrid.dt)
        rhs = np.trapezoid(d.samples * g.samples, dx=grid.dx)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-3


def test_apply_gradient_closed_forms():
    grid, tgrid = SpatialGrid(101), TimeGrid(200)
    problem = Problem(PARAMS, grid, tgrid, BC,
                      SourceTerm(np.zeros((grid.nx, tgrid.nt + 1))))
    t, x = tgrid.times, grid.nodes
    ones = StateField(np.ones((grid.nx, tgrid.nt + 1)), grid, tgrid)
    # a == 1, (p^2)_tt = 12 t^2 f^2 -> g = 4 T^3 f^2
    psq = 12 * (t**2)[None, :] * (f(x) ** 2)[:, None]
    g = apply_gradient(problem, ones, psq, 0)
    assert np.max(np.abs(g.samples - 4 * f(x) ** 2)) < 1e-3
    # s = 1, Dirichlet-Dirichlet, g = sin(pi x) -> u = sin(pi x)/pi^2
    bc_dd = BoundaryCondition.from_kinds("dirichlet", "dirichlet")
    psq_sin = np.tile(np.sin(np.pi * x)[:, None], (1, tgrid.nt + 1))
    u = apply_gradient(replace(problem, bc=bc_dd), ones, psq_sin, 1)
    assert np.max(np.abs(u.samples - np.sin(np.pi * x) / np.pi**2)) < 1e-3
    # zero adjoint -> zero gradient
    zero = StateField(np.zeros_like(ones.values), grid, tgrid)
    assert np.all(apply_gradient(problem, zero, psq, 0).samples == 0.0)


def test_sample_trace_linear_interpolation():
    # sampling a linear trace is exact at arbitrary times
    tgrid = TimeGrid(10)
    vals = 3.0 * tgrid.times
    out = sample_trace(vals, tgrid, np.array([0.0, 0.123, 0.5, 1.0]))
    np.testing.assert_allclose(out, 3.0 * np.array([0.0, 0.123, 0.5, 1.0]),
                               atol=1e-15)


@pytest.mark.parametrize(
    "bc, nx, nt", [(BC, 51, 100), (BC_DI, 51, 200), (BC_IN, 51, 200)],
    ids=BC_IDS,
)
def test_jacobian_matches_fd_oracle(bc, nx, nt):
    # frozen Jacobian vs independent central-difference oracle
    times = np.linspace(0.0, 1.0, 20)
    grid, tgrid, kap, problem, base = make_problem(nx, nt, bc=bc,
                                                   sample_times=times)
    basis = BasisSet("gaussian", 7)
    J = assemble_jacobian(problem, kap, basis, base=base)
    Jfd = fd_jacobian_oracle(problem, kap, basis, 1e-4)
    rel = (np.linalg.norm(J.entries - Jfd.entries)
           / np.linalg.norm(Jfd.entries))
    assert rel < 1e-4


@pytest.mark.parametrize("obs_point", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["gaussian", "hat", "haar"])
@pytest.mark.parametrize("bc", [BC, BC_DI, BC_IN], ids=BC_IDS)
def test_frozen_jacobian_from_one_impulse_response(bc, kind, obs_point):
    # at kappa0 = 0 without kept sensitivities, J is one impulse march and a
    # convolution; it equals the m-column sensitivity march up to rounding
    times = np.linspace(0.0, 1.0, 23)  # off the solver time levels
    grid, tgrid, kap, problem, base = make_problem(41, 90, kappa_const=0.0,
                                                   bc=bc, sample_times=times)
    problem = replace(problem, obs_point=obs_point)
    basis = BasisSet(kind, 7)
    marched = assemble_jacobian(problem, None, basis, base=base).entries
    lean = assemble_jacobian(problem, None, basis, base=base,
                             keep_sensitivities=False)
    assert lean.sensitivities is None
    assert (np.max(np.abs(lean.entries - marched))
            <= 1e-13 * np.max(np.abs(marched)))


def test_fd_oracle_step_halving_quarters_error():
    # invariant: oracle truncation error is O(h^2) against the exact
    # discrete derivative
    times = np.linspace(0.0, 1.0, 20)
    grid, tgrid, kap, problem, base = make_problem(sample_times=times)
    basis = BasisSet("gaussian", 5)
    J = assemble_jacobian(problem, kap, basis, base=base)
    errs = []
    for h in (4e-3, 2e-3):
        Jfd = fd_jacobian_oracle(problem, kap, basis, h)
        errs.append(np.linalg.norm(J.entries - Jfd.entries))
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_directional_hessian_bilinear_and_quadratic_model():
    times = np.linspace(0.0, 1.0, 25)
    grid, tgrid, kap, problem, base = make_problem(sample_times=times)
    basis = BasisSet("gaussian", 5)
    J = assemble_jacobian(problem, kap, basis, base=base)
    E = evaluate_basis(basis, grid)
    c = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    d = Direction(E @ c)
    H = assemble_directional_hessian(problem, d, kap, basis, base, J)
    # invariant: H_{2d} = 2 H_d (bilinearity in the frozen direction)
    H2 = assemble_directional_hessian(problem, Direction(2 * d.samples),
                                      kap, basis, base, J)
    np.testing.assert_allclose(H2, 2 * H, atol=1e-10)
    # quadratic model F + J c + 1/2 H_d c beats the linear model
    eps = 1e-2
    step = Direction(eps * d.samples)
    Heps = assemble_directional_hessian(problem, step, kap, basis, base, J)
    obs = grid.node_index(1.0)
    pert = solve_forward(problem, kap + step.samples)
    Fp = sample_trace(pert.values[obs, :], tgrid, times)
    F0 = sample_trace(base.values[obs, :], tgrid, times)
    lin_err = np.linalg.norm(Fp - F0 - J.entries @ (eps * c))
    quad_err = np.linalg.norm(
        Fp - F0 - (J.entries + 0.5 * Heps) @ (eps * c)
    )
    assert quad_err < 0.1 * lin_err


def test_zero_direction_hessian_is_zero():
    # zero frozen direction -> zero Hessian columns, so the
    # corrector matrix J + H/2 reduces to the plain Newton matrix
    times = np.linspace(0.0, 1.0, 15)
    grid, tgrid, kap, problem, base = make_problem(sample_times=times)
    basis = BasisSet("gaussian", 4)
    J = assemble_jacobian(problem, kap, basis, base=base)
    H = assemble_directional_hessian(
        problem, Direction(np.zeros(grid.nx)), kap, basis,
        base, J,
    )
    assert np.max(np.abs(H)) < 1e-14


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
BASIS_PROPERTY = hypothesis.settings(max_examples=15, deadline=None,
                                     database=None)


@cache
def basis_problem(bc_id):
    # nx = 51 and nt = 200 for every boundary pair
    return make_problem(51, 200,
                        bc=BoundaryCondition.from_kinds(*bc_id.split("-")))


def basis_direction(grid, kind, m, seed, low):
    # hat or Haar direction with random coefficients in [low, 1], scaled to
    # max |c| = 1
    c = np.random.Generator(np.random.Philox(seed)).uniform(low, 1.0, m)
    E = evaluate_basis(BasisSet(kind, m), grid)
    return Direction(E @ (c / np.max(np.abs(c))))


@BASIS_PROPERTY
@hypothesis.given(bc_id=st.sampled_from(BC_IDS),
                  kind=st.sampled_from(["hat", "haar"]),
                  m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_sensitivity_taylor_second_order_basis_directions(bc_id, kind, m,
                                                          seed):
    # the Taylor test above, for signed hat and Haar directions
    grid, tgrid, kap, problem, base = basis_problem(bc_id)
    d = basis_direction(grid, kind, m, seed, -1.0)
    z = solve_sensitivity(problem, base, kap, d)
    rem = []
    for h in (2e-2, 1e-2):
        pert = solve_forward(problem, kap + h * d.samples)
        rem.append(np.max(np.abs(pert.values - base.values - h * z.values)))
    assert 3.3 <= rem[0] / rem[1] <= 4.7


@BASIS_PROPERTY
@hypothesis.given(bc_id=st.sampled_from(BC_IDS),
                  kind=st.sampled_from(["hat", "haar"]),
                  m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_second_derivative_taylor_third_order_basis_directions(bc_id, kind,
                                                               m, seed):
    # the third-order Taylor test above, for signed hat and Haar directions
    grid, tgrid, kap, problem, base = basis_problem(bc_id)
    d = basis_direction(grid, kind, m, seed, -1.0)
    z = solve_sensitivity(problem, base, kap, d)
    w = solve_second_derivative(problem, base, kap, z, z, d, d)
    rem = []
    for h in (4e-2, 2e-2):
        pert = solve_forward(problem, kap + h * d.samples)
        rem.append(np.max(np.abs(
            pert.values - base.values - h * z.values - 0.5 * h**2 * w.values
        )))
    assert 6.0 <= rem[0] / rem[1] <= 10.0


@BASIS_PROPERTY
@hypothesis.given(bc_id=st.sampled_from(BC_IDS),
                  kind=st.sampled_from(["hat", "haar"]),
                  m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_adjoint_pairing_identity_basis_directions(bc_id, kind, m, seed):
    # the pairing test above, for hat and Haar directions.  The coefficients
    # are nonnegative: signed ones can cancel in <z(1, .), y>, and then a
    # mismatch that is small against |d| |g| is large relative to lhs
    grid, tgrid, kap, problem, base = basis_problem(bc_id)
    rng = np.random.Generator(np.random.Philox(seed))
    d = basis_direction(grid, kind, m, seed, 0.1)
    yv = np.sin(np.pi * tgrid.times) * rng.uniform(0.5, 1.5)
    z = solve_sensitivity(problem, base, kap, d)
    a = solve_adjoint(problem, base, kap, yv)
    g = apply_gradient(problem, a, second_time_derivative_of_square(base), 0)
    lhs = np.trapezoid(z.values[-1, :] * yv, dx=tgrid.dt)
    rhs = np.trapezoid(d.samples * g.samples, dx=grid.dx)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-3
