"""Forward solver: manufactured solutions, convergence order, linearity,
degeneracy guard and the observation operator."""

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    DegeneracyError,
    IncompatibleBCError,
    MaterialParams,
    OffGridError,
    SourceTerm,
    SpatialGrid,
    StateField,
    TimeGrid,
    manufactured_source,
    observe,
    second_time_derivative_of_square,
    solve_forward,
)
from westinv.errors import GridTooCoarseError
from westinv.laplacian import build_laplacian

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition.from_kinds("dirichlet", "neumann")


def f(x):
    return np.sin(np.pi * x / 2)


def f_xx(x):
    return -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)


def beta(t):
    return t**2


def beta_t(t):
    return 2 * t


def beta_tt(t):
    return 2 * np.ones_like(t)


def make_source(grid, tgrid, kappa=None):
    return manufactured_source(f, f_xx, beta, beta_t, beta_tt, PARAMS,
                               grid, tgrid, BC, kappa=kappa)


def test_zero_source_zero_solution():
    # zero data, zero solution
    grid, tgrid = SpatialGrid(21), TimeGrid(20)
    src = SourceTerm(np.zeros((21, 21)))
    state = solve_forward(PARAMS, None, src, grid, tgrid, BC)
    assert np.all(state.values == 0.0)
    assert np.all(observe(state, 1.0).values == 0.0)


def test_manufactured_linear_second_order():
    # exact linear solution p = f(x) beta(t); order by Richardson
    # refinement.  Also covers the temporal-order invariant (factor >= 3.6).
    errors = []
    for level in range(3):
        nx = 25 * 2**level + 1
        nt = 50 * 2**level
        grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
        state = solve_forward(PARAMS, None, make_source(grid, tgrid), grid,
                              tgrid, BC)
        exact = f(grid.nodes)[:, None] * beta(tgrid.times)[None, :]
        errors.append(np.max(np.abs(state.values - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.6


def test_manufactured_nonlinear_exact():
    # source corrected by kappa*(f^2)(beta^2)'' keeps p = f beta
    grid, tgrid = SpatialGrid(101), TimeGrid(400)
    kap = np.full(101, 0.1)
    state = solve_forward(PARAMS, kap, make_source(grid, tgrid, kappa=kap),
                          grid, tgrid, BC)
    exact = f(grid.nodes)[:, None] * beta(tgrid.times)[None, :]
    assert np.max(np.abs(state.values - exact)) < 1e-4


def test_initial_conditions_homogeneous():
    grid, tgrid = SpatialGrid(41), TimeGrid(80)
    state = solve_forward(PARAMS, None, make_source(grid, tgrid), grid,
                          tgrid, BC)
    assert np.all(state.values[:, 0] == 0.0)
    assert np.max(np.abs(state.time_derivative[:, 0])) < 1e-7


def test_manufactured_source_closed_form():
    # r = 2f + (pi^2/4) f (c^2 t^2 + 2 b t)
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    src = make_source(grid, tgrid)
    x, t = grid.nodes, tgrid.times
    expected = (2 * f(x)[:, None]
                + (np.pi**2 / 4) * f(x)[:, None]
                * (PARAMS.c2 * t**2 + 2 * PARAMS.b * t)[None, :])
    np.testing.assert_allclose(src.values, expected, atol=1e-12)


def test_manufactured_source_zero_beta():
    # beta == 0 -> r == 0
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    zero = lambda t: np.zeros_like(t)
    src = manufactured_source(f, f_xx, zero, zero, zero, PARAMS, grid,
                              tgrid, BC)
    assert np.all(src.values == 0.0)


def test_manufactured_source_kappa_correction():
    # kappa = 0.1 subtracts 1.2 t^2 sin^2(pi x / 2)
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    plain = make_source(grid, tgrid)
    corrected = make_source(grid, tgrid, kappa=np.full(11, 0.1))
    x, t = grid.nodes, tgrid.times
    expected = 1.2 * (t**2)[None, :] * (f(x) ** 2)[:, None]
    np.testing.assert_allclose(plain.values - corrected.values, expected,
                               atol=1e-12)


def test_manufactured_source_incompatible_bc():
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    g = lambda x: np.cos(np.pi * x / 2)  # g(0) != 0 violates Dirichlet
    g_xx = lambda x: -((np.pi / 2) ** 2) * np.cos(np.pi * x / 2)
    with pytest.raises(IncompatibleBCError):
        manufactured_source(g, g_xx, beta, beta_t, beta_tt, PARAMS, grid,
                            tgrid, BC)


def test_observe_closed_form_and_off_grid():
    # h(t) = t^2 at x = 1; OffGrid for non-node points
    grid, tgrid = SpatialGrid(101), TimeGrid(200)
    state = solve_forward(PARAMS, None, make_source(grid, tgrid), grid,
                          tgrid, BC)
    h = observe(state, 1.0)
    assert np.max(np.abs(h.values - tgrid.times**2)) < 1e-4
    with pytest.raises(OffGridError):
        observe(state, 0.505)


def test_observe_dirichlet_endpoint_zero():
    # boundary value pinned at a Dirichlet endpoint
    grid, tgrid = SpatialGrid(41), TimeGrid(40)
    state = solve_forward(PARAMS, None, make_source(grid, tgrid), grid,
                          tgrid, BC)
    assert np.max(np.abs(observe(state, 0.0).values)) < 1e-12


def test_linearity_at_zero_kappa():
    # invariant: solve_forward(r1 + r2) = solve_forward(r1) + solve_forward(r2)
    rng = np.random.Generator(np.random.Philox(3))
    grid, tgrid = SpatialGrid(31), TimeGrid(40)
    shape = (31, 41)
    x, t = grid.nodes, tgrid.times
    r1 = np.sin(np.pi * x)[:, None] * t[None, :] * rng.uniform(0.5, 1.5)
    r2 = (x * (1 - x))[:, None] * np.cos(3 * t)[None, :] * rng.uniform(0.5, 1.5)
    assert r1.shape == r2.shape == shape
    s1 = solve_forward(PARAMS, None, SourceTerm(r1), grid, tgrid, BC)
    s2 = solve_forward(PARAMS, None, SourceTerm(r2), grid, tgrid, BC)
    s12 = solve_forward(PARAMS, None, SourceTerm(r1 + r2), grid, tgrid, BC)
    assert np.max(np.abs(s12.values - s1.values - s2.values)) < 1e-9


def test_second_order_form_residual_decays():
    # invariant: the computed p satisfies the second-order equation
    # p_tt - c^2 p_xx - b p_xx,t = r at interior points, at second order
    def interior_residual(nx, nt):
        grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
        src = make_source(grid, tgrid)
        p = solve_forward(PARAMS, None, src, grid, tgrid, BC).values
        dt, dx = tgrid.dt, grid.dx
        ptt = (p[:, 2:] - 2 * p[:, 1:-1] + p[:, :-2]) / dt**2
        pxx = (p[2:, :] - 2 * p[1:-1, :] + p[:-2, :]) / dx**2
        pxxt = (pxx[:, 2:] - pxx[:, :-2]) / (2 * dt)
        res = (ptt[1:-1, :] - PARAMS.c2 * pxx[:, 1:-1]
               - PARAMS.b * pxxt - src.values[1:-1, 1:-1])
        return np.max(np.abs(res))
    coarse = interior_residual(26, 50)
    fine = interior_residual(51, 100)
    assert coarse / fine >= 3.0


def test_degeneracy_guard():
    grid, tgrid = SpatialGrid(51), TimeGrid(100)
    kap = np.full(51, 0.6)  # 2*kappa*p reaches 1.2 > 0.75
    with pytest.raises(DegeneracyError):
        solve_forward(PARAMS, kap, make_source(grid, tgrid), grid, tgrid, BC)


def test_second_time_derivative_of_square():
    grid, tgrid = SpatialGrid(21), TimeGrid(40)
    t = tgrid.times
    # constant field -> 0
    const = StateField(np.ones((21, 41)), grid, tgrid)
    assert np.max(np.abs(second_time_derivative_of_square(const))) < 1e-10
    # p = t -> (t^2)_tt = 2 exactly
    lin = StateField(np.tile(t, (21, 1)), grid, tgrid)
    np.testing.assert_allclose(second_time_derivative_of_square(lin), 2.0,
                               atol=1e-9)
    # p = f beta -> (p^2)_tt = 12 t^2 f^2 to O(dt^2)
    vals = f(grid.nodes)[:, None] * (t**2)[None, :]
    state = StateField(vals, grid, tgrid)
    exact = 12 * (t**2)[None, :] * (f(grid.nodes) ** 2)[:, None]
    got = second_time_derivative_of_square(state)
    assert np.max(np.abs(got - exact)) < 50 * tgrid.dt**2


def test_second_time_derivative_grid_too_coarse():
    grid, tgrid = SpatialGrid(5), TimeGrid(2)
    state = StateField(np.zeros((5, 3)), grid, tgrid)
    with pytest.raises(GridTooCoarseError):
        second_time_derivative_of_square(state)


def test_statefield_csv_roundtrip(tmp_path):
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    rng = np.random.Generator(np.random.Philox(5))
    state = StateField(rng.standard_normal((11, 11)), grid, tgrid)
    path = tmp_path / "state.csv"
    state.to_csv(path)
    back = StateField.from_csv(path, grid, tgrid)
    np.testing.assert_allclose(back.values, state.values, rtol=1e-15)


@pytest.mark.parametrize("left, right", [
    (l, r) for l in ("dirichlet", "neumann", "impedance")
    for r in ("dirichlet", "neumann", "impedance")
    if not l == r == "neumann"
])
def test_banded_identity_rows_at_dirichlet_nodes(left, right):
    # every time-stepping matrix replaces a Dirichlet row by the identity
    A = build_laplacian(SpatialGrid(11), BoundaryCondition.from_kinds(left, right))
    ab = A.banded(np.linspace(1.0, 2.0, 11), 0.7)
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    rows = np.flatnonzero(A.dirichlet)
    assert len(rows) == [left, right].count("dirichlet")
    np.testing.assert_array_equal(dense[rows], np.eye(11)[rows])
