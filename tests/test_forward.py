"""Forward solver: manufactured solutions, convergence order, linearity,
the Newton inner loop, degeneracy guard and the observation operator."""

import json

import numpy as np
import pytest
from scipy.linalg.lapack import dptsv

from westinv import (
    BoundaryCondition,
    DegeneracyError,
    Direction,
    MaterialParams,
    NoConvergenceError,
    Problem,
    SingularOperatorError,
    SpatialGrid,
    StateField,
    TimeGrid,
    manufactured_source,
    second_time_derivative_of_square,
    solve_adjoint,
    solve_forward,
    solve_sensitivity,
)
from westinv import forward
from westinv.experiment import (
    ExperimentConfig,
    build_problem,
    run_experiment,
    run_inversion,
)
from westinv.laplacian import Laplace1D, build_laplacian

from oracles import nonlinear_source

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition("dirichlet", "neumann")
PAIRS = [(left, right) for left in ("dirichlet", "neumann", "impedance")
         for right in ("dirichlet", "neumann", "impedance")
         if not left == right == "neumann"]


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
    args = (f, f_xx, beta, beta_t, beta_tt, PARAMS, grid, tgrid, BC)
    if kappa is None:
        return manufactured_source(*args)
    return nonlinear_source(*args, kappa)


def make_problem(grid, tgrid, kappa=None):
    return Problem(PARAMS, grid, tgrid, BC, make_source(grid, tgrid, kappa))


def test_zero_source_zero_solution():
    # zero data, zero solution
    grid, tgrid = SpatialGrid(21), TimeGrid(20)
    src = np.zeros((21, 21))
    state = solve_forward(Problem(PARAMS, grid, tgrid, BC, src), None)
    assert np.all(state.values == 0.0)
    assert np.all(state.values[grid.node_index(1.0)] == 0.0)


def test_manufactured_linear_second_order():
    # exact linear solution p = f(x) beta(t); order by Richardson
    # refinement.  Also covers the temporal-order invariant (factor >= 3.6).
    errors = []
    for level in range(3):
        nx = 25 * 2**level + 1
        nt = 50 * 2**level
        grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
        state = solve_forward(make_problem(grid, tgrid), None)
        exact = f(grid.nodes)[:, None] * beta(tgrid.times)[None, :]
        errors.append(np.max(np.abs(state.values - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.6


def test_manufactured_nonlinear_exact():
    # source corrected by kappa*(f^2)(beta^2)'' keeps p = f beta
    grid, tgrid = SpatialGrid(101), TimeGrid(400)
    kap = np.full(101, 0.1)
    state = solve_forward(make_problem(grid, tgrid, kappa=kap), kap)
    exact = f(grid.nodes)[:, None] * beta(tgrid.times)[None, :]
    assert np.max(np.abs(state.values - exact)) < 1e-4


def test_initial_conditions_homogeneous():
    grid, tgrid = SpatialGrid(41), TimeGrid(80)
    state = solve_forward(make_problem(grid, tgrid), None)
    assert np.all(state.values[:, 0] == 0.0)
    u = state.values  # one-sided second-order p_t at t = 0
    p_t0 = (-3 * u[:, 0] + 4 * u[:, 1] - u[:, 2]) / (2 * tgrid.dt)
    assert np.max(np.abs(p_t0)) < 1e-7


def test_manufactured_source_closed_form():
    # r = 2f + (pi^2/4) f (c^2 t^2 + 2 b t)
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    src = make_source(grid, tgrid)
    x, t = grid.nodes, tgrid.times
    expected = (2 * f(x)[:, None]
                + (np.pi**2 / 4) * f(x)[:, None]
                * (PARAMS.c2 * t**2 + 2 * PARAMS.b * t)[None, :])
    np.testing.assert_allclose(src, expected, atol=1e-12)


def test_manufactured_source_zero_beta():
    # beta == 0 -> r == 0
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    zero = lambda t: np.zeros_like(t)
    src = manufactured_source(f, f_xx, zero, zero, zero, PARAMS, grid,
                              tgrid, BC)
    assert np.all(src == 0.0)


def test_manufactured_source_kappa_correction():
    # kappa = 0.1 subtracts 1.2 t^2 sin^2(pi x / 2)
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    plain = make_source(grid, tgrid)
    corrected = make_source(grid, tgrid, kappa=np.full(11, 0.1))
    x, t = grid.nodes, tgrid.times
    expected = 1.2 * (t**2)[None, :] * (f(x) ** 2)[:, None]
    np.testing.assert_allclose(plain - corrected, expected,
                               atol=1e-12)


def test_manufactured_source_incompatible_bc():
    grid, tgrid = SpatialGrid(11), TimeGrid(10)
    g = lambda x: np.cos(np.pi * x / 2)  # g(0) != 0 violates Dirichlet
    g_xx = lambda x: -((np.pi / 2) ** 2) * np.cos(np.pi * x / 2)
    with pytest.raises(ValueError):
        manufactured_source(g, g_xx, beta, beta_t, beta_tt, PARAMS, grid,
                            tgrid, BC)


def test_observe_closed_form_and_off_grid():
    # h(t) = t^2 at x = 1 (off-grid points: see the Problem test below)
    grid, tgrid = SpatialGrid(101), TimeGrid(200)
    state = solve_forward(make_problem(grid, tgrid), None)
    h = state.values[grid.node_index(1.0)]
    assert np.max(np.abs(h - tgrid.times**2)) < 1e-4


def test_problem_checks_observation_point_and_source_shape():
    # the observation index is resolved, and the source checked, once at
    # construction
    grid, tgrid = SpatialGrid(41), TimeGrid(40)
    assert make_problem(grid, tgrid).obs_index == 40
    with pytest.raises(ValueError):
        Problem(PARAMS, grid, tgrid, BC, make_source(grid, tgrid),
                obs_point=0.505)
    with pytest.raises(ValueError):
        Problem(PARAMS, grid, tgrid, BC, np.zeros((41, 40)))
    with pytest.raises(ValueError, match="must be finite"):
        Problem(PARAMS, grid, tgrid, BC, np.full((41, 41), np.inf))


@pytest.mark.parametrize("times", [[np.nan, 0.5], [0.0, np.inf],
                                   [[0.0, 0.5], [0.5, 1.0]], 0.5, []],
                         ids=["nan", "inf", "2-d", "0-d", "empty"])
def test_problem_refuses_sample_times_that_are_not_a_finite_vector(times):
    # a NaN time sampled a NaN trace, a 2-D array gave a 3-D Jacobian, and
    # an empty one a (0, m) Jacobian whose first regularized step failed
    grid, tgrid = SpatialGrid(21), TimeGrid(20)
    with pytest.raises(ValueError, match="1-D array of finite values"):
        Problem(PARAMS, grid, tgrid, BC, make_source(grid, tgrid),
                sample_times=times)


def test_problem_keeps_a_read_only_copy_of_the_source():
    # the problem's source is read-only (runs share it, see
    # test_shared_state_is_read_only); the caller's array stays writable,
    # and writing to it does not reach the problem
    grid, tgrid = SpatialGrid(21), TimeGrid(20)
    source = make_source(grid, tgrid)
    problem = Problem(PARAMS, grid, tgrid, BC, source)
    assert np.array_equal(problem.source, source)
    source[...] = 0.0
    assert problem.source.any()


def test_observe_dirichlet_endpoint_zero():
    # boundary value pinned at a Dirichlet endpoint
    grid, tgrid = SpatialGrid(41), TimeGrid(40)
    state = solve_forward(make_problem(grid, tgrid), None)
    assert np.max(np.abs(state.values[grid.node_index(0.0)])) < 1e-12


def test_linearity_at_zero_kappa():
    # invariant: solve_forward(r1 + r2) = solve_forward(r1) + solve_forward(r2)
    rng = np.random.Generator(np.random.Philox(3))
    grid, tgrid = SpatialGrid(31), TimeGrid(40)
    shape = (31, 41)
    x, t = grid.nodes, tgrid.times
    r1 = np.sin(np.pi * x)[:, None] * t[None, :] * rng.uniform(0.5, 1.5)
    r2 = (x * (1 - x))[:, None] * np.cos(3 * t)[None, :] * rng.uniform(0.5, 1.5)
    assert r1.shape == r2.shape == shape
    s1, s2, s12 = (
        solve_forward(Problem(PARAMS, grid, tgrid, BC, r), None)
        for r in (r1, r2, r1 + r2)
    )
    assert np.max(np.abs(s12.values - s1.values - s2.values)) < 1e-9


def test_second_order_form_residual_decays():
    # invariant: the computed p satisfies the second-order equation
    # p_tt - c^2 p_xx - b p_xx,t = r at interior points, at second order
    def interior_residual(nx, nt):
        grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
        src = make_source(grid, tgrid)
        p = solve_forward(Problem(PARAMS, grid, tgrid, BC, src), None).values
        dt, dx = tgrid.dt, grid.dx
        ptt = (p[:, 2:] - 2 * p[:, 1:-1] + p[:, :-2]) / dt**2
        pxx = (p[2:, :] - 2 * p[1:-1, :] + p[:-2, :]) / dx**2
        pxxt = (pxx[:, 2:] - pxx[:, :-2]) / (2 * dt)
        res = (ptt[1:-1, :] - PARAMS.c2 * pxx[:, 1:-1]
               - PARAMS.b * pxxt - src[1:-1, 1:-1])
        return np.max(np.abs(res))
    coarse = interior_residual(26, 50)
    fine = interior_residual(51, 100)
    assert coarse / fine >= 3.0


def test_degeneracy_guard():
    grid, tgrid = SpatialGrid(51), TimeGrid(100)
    kap = np.full(51, 0.6)  # 2*kappa*p reaches 1.2 > 0.75
    with pytest.raises(DegeneracyError):
        solve_forward(make_problem(grid, tgrid), kap)


def test_indefinite_newton_iterate_raises_degeneracy_error(monkeypatch):
    # the predictor of a step at t = 0.7 has 1 - 2 kappa p < 0, so the step
    # matrix W (a / dt + coef A) is not positive definite and its LDL^T
    # factorization fails: a degenerate state (exit 4), as when the solve
    # goes through and the solution's margin is below the floor
    grid, tgrid = SpatialGrid(51), TimeGrid(10)
    failed, original = [], Laplace1D.solve_banded_system

    def recording(self, bands, rhs):
        try:
            return original(self, bands, rhs)
        except SingularOperatorError:
            failed.append(None)
            raise

    monkeypatch.setattr(Laplace1D, "solve_banded_system", recording)
    with pytest.raises(DegeneracyError, match="= -0.18.* at t = 0.7"):
        solve_forward(make_problem(grid, tgrid), np.full(51, 0.6))
    assert len(failed) == 1


def test_time_levels_are_computed_once():
    tgrid = TimeGrid(40, 2.0)
    times = tgrid.times
    assert tgrid.times is times
    assert not times.flags.writeable
    assert np.array_equal(times, np.linspace(0.0, 2.0, 41))


def test_time_levels_of_the_largest_window_are_finite():
    # 3 * (t_final / 3) can round past the largest float, but the last
    # level is t_final itself, so no overflow warning escapes
    t_final = np.finfo(float).max
    times = TimeGrid(3, t_final).times
    assert np.all(np.isfinite(times)) and times[-1] == t_final


def test_no_convergence_raised(monkeypatch):
    # no update meets a tolerance of 1e-300 within two updates
    grid, tgrid = SpatialGrid(51), TimeGrid(100)
    kap = np.full(51, 0.1)
    problem = Problem(PARAMS, grid, tgrid, BC, make_source(grid, tgrid, kap))
    monkeypatch.setattr(forward, "INNER_TOL", 1e-300)
    monkeypatch.setattr(forward, "MAX_INNER", 2)
    with pytest.raises(NoConvergenceError, match="in 2 updates"):
        solve_forward(problem, kap)


def test_newton_loop_that_runs_out_below_the_floor_is_degenerate(tmp_path):
    # at t = 2.125 the Newton iterate settles on the other root of the
    # step's quadratic, 1 - 2 kappa p = -0.28, whose step matrix is still
    # positive definite; no update can meet the bound at a negative margin,
    # so the loop runs out of MAX_INNER updates: a degenerate state, exit 4
    cfg = ExperimentConfig(nx=28, nt=4, t_final=8.50, c2=7.45, b=0.140,
                           time_profile="ramp", truth_family="two_step",
                           truth_amplitude=0.829, n_basis=3)
    with pytest.raises(DegeneracyError, match="= -0.28.* at t = 2.125"):
        run_inversion(cfg)
    assert run_experiment(cfg, tmp_path) == 4
    assert json.loads((tmp_path / "report.json").read_text())[
        "exit_code"] == 4


# the boundary pairs of the derivative tests
BC_IDS = ["dirichlet-neumann", "dirichlet-impedance", "impedance-neumann"]


def criterion5_problem(bc_id="dirichlet-neumann", nx=101, nt=400):
    """The criterion-5 reconstruction problem (ramp excitation, nt = 400
    unless given) and its smooth-bump truth."""
    left, right = bc_id.split("-")
    cfg = ExperimentConfig(nx=nx, nt=nt, truth_family="smooth_bump",
                           truth_amplitude=0.3, time_profile="ramp",
                           bc_left=left, bc_right=right)
    problem, _, truth = build_problem(cfg)
    return problem, truth


@pytest.mark.parametrize("bc_id", BC_IDS)
def test_newton_field_within_inner_tol_of_a_tight_solve(bc_id, monkeypatch):
    # INNER_TOL bounds each step's next Newton update, so the steps' errors
    # add up over the march.  From the quadratic predictor they stay below
    # INNER_TOL here (3.4e-11); the linear predictor 2 p^n - p^{n-1} stops
    # after as many updates and leaves the field 2.6e-9 to 4.5e-9 off.
    problem, truth = criterion5_problem(bc_id, nx=51)
    p = solve_forward(problem, truth).values
    inner_tol = forward.INNER_TOL
    monkeypatch.setattr(forward, "INNER_TOL", 1e-14)
    p_tight = solve_forward(problem, truth).values
    assert np.max(np.abs(p - p_tight)) <= inner_tol


def test_one_tridiagonal_solve_per_step(monkeypatch):
    # kappa = 0 takes one linear solve per step; at the criterion-5 truth
    # the quadratic predictor leaves about one Newton update per step, and
    # on the coarse grids no more updates than the per-node Varah bound
    # takes there (a bound by max |kappa| max |D|^2 takes 126 and 136)
    calls, original = [], Laplace1D.solve_banded_system

    def counting(self, ab, rhs):
        calls.append(None)
        return original(self, ab, rhs)

    monkeypatch.setattr(Laplace1D, "solve_banded_system", counting)
    for nx, nt, most in ((101, 400, 1.1 * 400), (51, 100, 102), (41, 80, 121)):
        problem, truth = criterion5_problem(nx=nx, nt=nt)
        calls.clear()
        solve_forward(problem, None)
        assert len(calls) == nt, nx
        calls.clear()
        solve_forward(problem, truth)
        assert nt <= len(calls) <= most, (nx, len(calls))


def test_marches_never_apply_the_operator(monkeypatch):
    # each step reads coef A u^{n+1} off its own solved system
    problem, truth = criterion5_problem()
    base = solve_forward(problem, truth)
    calls, original = [], Laplace1D.apply

    def counting(self, u):
        calls.append(None)
        return original(self, u)

    monkeypatch.setattr(Laplace1D, "apply", counting)
    solve_forward(problem, truth)
    directions = np.random.Generator(np.random.Philox(2)).standard_normal(
        (problem.grid.nx, 5))
    solve_sensitivity(problem, base, truth, Direction(directions))
    solve_adjoint(problem, base, truth, base.values[-1])
    assert calls == []
    problem.operator.apply(base.values[:, -1])  # the count is live
    assert len(calls) == 1


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
    # the one-sided stencils read four levels, so TimeGrid takes no nt < 3
    with pytest.raises(ValueError, match="nt must be an integer at least 3"):
        TimeGrid(2)


def shifted_bands(A, shift, scale=0.7):
    """The bands of W (diag(shift) + scale * A): banded(scale) with W shift
    added on the free rows only, as cn_march adds W a / dt on every step."""
    bands = A.banded(scale)
    free = ~A.dirichlet
    bands[0][free] += (A.weights * shift)[free]
    return bands


@pytest.mark.parametrize("left, right", PAIRS)
def test_banded_identity_rows_at_dirichlet_nodes(left, right):
    # every time-stepping matrix replaces a Dirichlet row by the identity
    A = build_laplacian(SpatialGrid(11), BoundaryCondition(left, right))
    main, off = shifted_bands(A, np.linspace(1.0, 2.0, 11))
    dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    rows = np.flatnonzero(A.dirichlet)
    assert len(rows) == [left, right].count("dirichlet")
    np.testing.assert_array_equal(dense[rows], np.eye(11)[rows])


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_condition_checks_both_kinds(side):
    with pytest.raises(ValueError, match="unknown boundary kind 'robin'"):
        BoundaryCondition(**{side: "robin"})


@pytest.mark.parametrize("side", ["left", "right"])
def test_impedance_row_is_du_dn_plus_u_zero(side):
    # u = y^2 - 3, y the distance from the other end, meets du/dn + u = 0 at
    # the impedance end and du/dn = 0 at the Neumann end; ghost-node
    # elimination is exact for a quadratic, so A u = -u'' = -2 at every node
    # only if the impedance coefficient is 1
    grid = SpatialGrid(11)
    y = grid.nodes if side == "right" else 1.0 - grid.nodes
    kinds = {"left": "neumann", "right": "neumann", side: "impedance"}
    A = build_laplacian(grid, BoundaryCondition(**kinds))
    np.testing.assert_allclose(A.apply(y**2 - 3.0), -2.0, rtol=0, atol=1e-9)


def test_singular_step_system_raises_named_error():
    # a zero row of a step matrix is a zero pivot for dptsv: a named solver
    # error (exit 4), not scipy's LinAlgError
    A = build_laplacian(SpatialGrid(11), BC)
    bands = shifted_bands(A, np.linspace(1.0, 2.0, 11))
    main, off = bands
    off[3] = main[4] = off[4] = 0.0  # row and column 4 of the matrix
    for rhs in (np.ones(11), np.ones((11, 3))):
        with pytest.raises(SingularOperatorError, match="zero pivot"):
            A.solve_banded_system(bands, rhs)


def test_batched_apply_and_solve_equal_single_columns():
    # k right-hand sides in one call give the k one-column results exactly
    A = build_laplacian(SpatialGrid(11),
                        BoundaryCondition("impedance", "neumann"))
    shift = np.linspace(1.0, 2.0, 11)
    bands = shifted_bands(A, shift)
    U = np.random.Generator(np.random.Philox(5)).standard_normal((11, 4))
    WU = A.weights[:, None] * U  # the symmetric system's right-hand side
    AU, X = A.apply(U), A.solve_banded_system(bands, WU)
    for j in range(4):
        assert np.array_equal(AU[:, j], A.apply(U[:, j]))
        assert np.array_equal(X[:, j], A.solve_banded_system(bands, WU[:, j]))
    np.testing.assert_allclose(shift[:, None] * X + 0.7 * A.apply(X), U,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("left, right", [("dirichlet", "neumann"),
                                         ("impedance", "dirichlet"),
                                         ("dirichlet", "dirichlet")])
@pytest.mark.parametrize("layout", ["vector", "C", "F"])
def test_solve_banded_system_contract(left, right, layout):
    # u = 0 at Dirichlet nodes where rhs is not, the caller's rhs keeps its
    # bits, and u equals the route that masks a Fortran copy of rhs first
    A = build_laplacian(SpatialGrid(11), BoundaryCondition(left, right))
    bands = shifted_bands(A, np.linspace(1.0, 2.0, 11))
    block = np.random.Generator(np.random.Philox(8)).standard_normal((11, 4))
    rhs = {"vector": block[:, 0].copy(), "C": np.ascontiguousarray(block),
           "F": np.asfortranarray(block)}[layout]
    assert rhs[A.dirichlet].all()
    before = rhs.copy(order="K")
    u = A.solve_banded_system(bands, rhs)
    assert not u[A.dirichlet].any()
    assert np.array_equal(rhs.view(np.uint64), before.view(np.uint64))
    masked = np.array(rhs, dtype=float, order="F")
    masked[A.dirichlet] = 0.0
    *_, expected, info = dptsv(*bands, masked, overwrite_b=True)
    assert info == 0
    assert np.array_equal(u, expected)


@pytest.mark.parametrize("left, right", PAIRS)
@pytest.mark.parametrize("shifted", [False, True], ids=["A", "shift+A"])
@pytest.mark.parametrize("k", [None, 4])
def test_solve_banded_system_matches_a_dense_solve(left, right, shifted, k):
    # the symmetric W (diag(shift) + scale A), Dirichlet rows and columns
    # of the identity, solved densely; u = 0 at the Dirichlet nodes
    A = build_laplacian(SpatialGrid(21), BoundaryCondition(left, right))
    shift = np.linspace(1.0, 2.0, 21) if shifted else np.zeros(21)
    bands = shifted_bands(A, shift)
    rng = np.random.Generator(np.random.Philox(13))
    rhs = rng.standard_normal(21 if k is None else (21, k))
    matrix = A.weights[:, None] * (np.diag(shift) + 0.7 * A.apply(np.eye(21)))
    fixed = A.dirichlet
    matrix[fixed] = matrix[:, fixed] = 0.0
    matrix[fixed, fixed] = 1.0
    expected = np.linalg.solve(matrix, rhs)
    expected[fixed] = 0.0
    u = A.solve_banded_system(bands, rhs)
    assert not u[fixed].any()
    assert np.max(np.abs(u - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("left, right", PAIRS)
def test_solve_inverts_the_operator(left, right):
    # solve scales its right-hand side by W, as banded scales the rows of A
    A = build_laplacian(SpatialGrid(21), BoundaryCondition(left, right))
    u = np.random.Generator(np.random.Philox(6)).standard_normal((21, 2))
    u[A.dirichlet] = 0.0
    for v in (u, u[:, 0]):
        assert np.max(np.abs(A.solve(A.apply(v)) - v)) <= 1e-12


def test_forward_field_exactly_zero_at_the_dirichlet_node():
    # u = 0 at a Dirichlet node exactly, not up to the rounding that a
    # step solve could leave there
    problem, truth = criterion5_problem()
    for kappa in (None, truth):
        assert not solve_forward(problem, kappa).values[0].any()
