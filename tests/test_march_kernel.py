"""The Crank-Nicolson kernel: reading coef A u^{n+1} off the solved system
gives the fields of a march that applies A and integrates its memory by the
trapezoidal rule, on every accepted boundary pair; the last step call's
solution is the next level; sample_trace is np.interp bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import westinv.derivatives
import westinv.forward
import westinv.laplacian
from westinv import (
    BoundaryCondition,
    Direction,
    MaterialParams,
    Problem,
    SpatialGrid,
    TimeGrid,
    sample_trace,
    solve_adjoint,
    solve_forward,
    solve_second_derivative,
    solve_sensitivity,
)
from westinv.forward import cn_march

PAIRS = [(left, right) for left in ("dirichlet", "neumann", "impedance")
         for right in ("dirichlet", "neumann", "impedance")
         if not left == right == "neumann"]


def reference_march(problem, forcing, advance, keep=slice(None)):
    """The march with A applied to every new level, the running integral
    of A u accumulated by the trapezoidal rule and each step's matrix
    assembled densely and solved by np.linalg.solve.  It takes cn_march's
    weighted terms, W f, the mass W a / dt and old = W a un / dt, and
    divides them by W."""
    A, params, tgrid = problem.operator, problem.params, problem.tgrid
    dt = tgrid.dt
    coef = params.b / 2 + params.c2 * dt / 4
    nx = problem.grid.nx
    coef_A = coef * A.apply(np.eye(nx))  # column j is coef A e_j
    fixed = np.flatnonzero(A.dirichlet)

    def unweighted(x):  # per node, over any k columns
        return (x.T / A.weights).T

    steps = iter(forcing)
    f = next(steps)
    un = np.zeros(f.shape)
    u = np.zeros(un[keep].shape + (tgrid.nt + 1,))
    memory, Aun = np.zeros(f.shape), np.zeros(f.shape)
    solution = new_a_dt = None
    a_dt = np.zeros(nx)  # the last step's a / dt, any at u^0 = 0

    def step(mass, old=None):
        nonlocal solution, new_a_dt
        new_a_dt = np.full(nx, 1.0 / dt) if mass is None else mass / A.weights
        matrix = np.diag(new_a_dt) + coef_A
        matrix[fixed] = np.eye(nx)[fixed]  # u = 0 at Dirichlet nodes
        rhs = ((a_dt * un.T).T if old is None else unweighted(old)) + rest
        rhs[fixed] = 0.0
        solution = np.linalg.solve(matrix, rhs)
        return solution

    for n in range(tgrid.nt):
        rest = -coef * Aun - params.c2 * memory + unweighted(f)
        advance(n, un, step)
        un, a_dt = solution, new_a_dt  # the last step's
        u[..., n + 1] = un[keep]
        Aun_old, Aun = Aun, A.apply(un)
        memory += 0.5 * dt * (Aun_old + Aun)
        f = next(steps, None)
    return u


def make_problem(left, right, nx=31, nt=80):
    grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
    x, t = grid.nodes, tgrid.times
    # nonzero at the end nodes too: a Dirichlet row must ignore its forcing
    source = np.outer(1.0 + np.cos(2.0 * x), 3.0 * t * np.exp(-t))
    obs = 0.5 if right == "dirichlet" else 1.0
    problem = Problem(MaterialParams(c2=1.0, b=0.2), grid, tgrid,
                      BoundaryCondition(left, right), source,
                      obs_point=obs)
    kap = 0.25 * (1.0 + 0.5 * np.sin(3.0 * x))
    return problem, kap


def solves(problem, kap, base):
    """Every march kind on one problem: the forward solve at kappa = 0 and
    at kap, five sensitivity columns in one block at kap and at kappa = 0,
    the adjoint at the observation node, and the impulse response of a
    fresh Problem."""
    nx = problem.grid.nx
    E = np.random.Generator(np.random.Philox(3)).standard_normal((nx, 5))
    out = {"p0": solve_forward(problem, None).values,
           "p": solve_forward(problem, kap).values,
           "z": solve_sensitivity(problem, base, kap, Direction(E)).values,
           "z0": solve_sensitivity(problem, base, None, Direction(E)).values}
    residual = np.sin(7.0 * problem.tgrid.times)
    out["a"] = solve_adjoint(problem, base, kap, residual).values
    fresh = Problem(problem.params, problem.grid, problem.tgrid, problem.bc,
                    problem.source, obs_point=problem.obs_point)
    out["impulse"] = fresh.impulse_response
    return out


@pytest.mark.parametrize("left, right", PAIRS)
def test_kernel_matches_the_applied_operator_march(monkeypatch, left, right):
    problem, kap = make_problem(left, right)
    base = solve_forward(problem, kap)
    assert np.min(1.0 - 2.0 * kap[:, None] * base.values) < 0.9  # nonlinear
    got = solves(problem, kap, base)
    for module in (westinv.forward, westinv.derivatives):
        monkeypatch.setattr(module, "cn_march", reference_march)
    ref = solves(problem, kap, base)
    assert got.keys() == ref.keys()
    dirichlet = problem.operator.dirichlet
    for name, values in got.items():
        scale = np.max(np.abs(ref[name]))
        assert scale > 0.0, name
        assert np.max(np.abs(values - ref[name])) <= 1e-12 * scale, name
        assert not values[dirichlet].any(), name


def discard_then_step(n, un, step):
    step(2.0, 3.0 * un + 1.0)  # a different system, solved and dropped
    step(1.0, un)


@pytest.mark.parametrize("advance", [
    lambda n, un, step: step(1.0, un).copy(),  # returns a copy, ignored
    discard_then_step,
], ids=["copy", "twice"])
def test_march_takes_the_last_step_call_as_the_next_level(advance):
    # advance returns nothing the march reads: u^{n+1} and coef A u^{n+1}
    # come from its last step call, bit for bit as if that were the only one
    problem, _ = make_problem("impedance", "neumann", nt=6)
    forcing = np.ones((problem.tgrid.nt, problem.grid.nx))
    got = cn_march(problem, forcing, advance)
    plain = cn_march(problem, forcing, lambda n, un, step: step(1.0, un))
    assert np.max(np.abs(plain)) > 0.0
    assert np.array_equal(got, plain)


@pytest.mark.parametrize("nt, t_final", [(8, 1.0), (80, 2.0)])
def test_sample_trace_equals_np_interp_bit_for_bit(nt, t_final):
    tgrid = TimeGrid(nt, t_final)
    times = tgrid.times
    rng = np.random.Generator(np.random.Philox(11))
    samples = np.concatenate([
        times[::3],  # on the grid
        [0.0, t_final, -0.5, -1e-12, t_final + 1e-12, 3.0 * t_final],
        [-np.finfo(float).max, np.finfo(float).max],  # no overflow warning
        rng.uniform(-0.2, 1.2 * t_final, 37),  # off the grid, both sides
    ])
    traces = rng.standard_normal((6, nt + 1))
    expected = np.column_stack([np.interp(samples, times, t) for t in traces])
    assert np.array_equal(sample_trace(traces, tgrid, samples), expected)
    assert np.array_equal(sample_trace(traces[2], tgrid, samples),
                          np.interp(samples, times, traces[2]))


def test_constant_step_matrix_is_factored_once(monkeypatch):
    # step(None) is the same matrix on every step: one dpttrf, then the
    # factors' solve, bit for bit the march that factors on every step
    problem, _ = make_problem("impedance", "neumann")
    nt, nx = problem.tgrid.nt, problem.grid.nx
    forcing = np.random.Generator(np.random.Philox(4)).standard_normal(
        (nt, nx, 3))
    factored, original = [], westinv.laplacian.dpttrf

    def counting(*args):
        factored.append(None)
        return original(*args)

    monkeypatch.setattr(westinv.laplacian, "dpttrf", counting)
    once = cn_march(problem, forcing, lambda n, un, step: step(None))
    assert len(factored) == 1
    unit = problem.operator.free_weights / problem.tgrid.dt  # W / dt
    each_step = cn_march(problem, forcing,
                         lambda n, un, step: step(unit, (unit * un.T).T))
    assert len(factored) == 1  # an array mass: dptsv on every step
    assert np.max(np.abs(once)) > 0.0
    assert np.array_equal(once, each_step)
    solve_forward(problem, None)
    assert len(factored) == 2


def lone_impulse_response(problem):
    """The impulse response from its own single-column kappa = 0 march,
    forced by e_obs in step 0 and scaled by w / w_obs per node."""
    nx, nt, obs = problem.grid.nx, problem.tgrid.nt, problem.obs_index
    forcing = np.zeros((nt, nx))
    forcing[0, obs] = problem.operator.free_weights[obs]  # W e_obs
    u = cn_march(problem, forcing, lambda n, un, step: step(None))
    w = problem.operator.weights
    return (w / w[obs])[:, None] * u[:, 1:]


@pytest.mark.parametrize("obs_point", [1.0, 0.5])
@pytest.mark.parametrize("left, right", PAIRS)
def test_frozen_march_columns_equal_their_own_marches(left, right,
                                                      obs_point):
    # p0 and the impulse response share one two-column kappa = 0 march;
    # each column keeps the bits of its own march
    problem = replace(make_problem(left, right)[0], obs_point=obs_point)
    p0 = solve_forward(problem, None).values
    R = lone_impulse_response(problem)
    assert np.max(np.abs(p0)) > 0.0
    assert np.array_equal(problem.frozen_base.values, p0)
    assert np.array_equal(problem.impulse_response, R)


def test_every_forcing_block_is_fortran_ordered(monkeypatch):
    # cn_march keeps its state Fortran-ordered, so every (nx, k) forcing
    # block that westinv hands it must be too: the sensitivities at kappa0 =
    # 0 and kappa != 0, trace-only or not, the second derivatives and the
    # kappa = 0 march of p0 and the impulse response
    blocks = []

    def checked(forcing):
        for f in forcing:
            if f.ndim == 2:
                assert f.flags.f_contiguous, f.shape
                blocks.append(f.shape)
            yield f

    for module in (westinv.forward, westinv.derivatives):
        march = module.cn_march
        monkeypatch.setattr(
            module, "cn_march",
            lambda problem, forcing, *args, march=march:
                march(problem, checked(forcing), *args))
    problem, kap = make_problem("impedance", "neumann")
    nx, nt = problem.grid.nx, problem.tgrid.nt
    d = Direction(np.random.Generator(np.random.Philox(5)).standard_normal(
        (nx, 4)))
    for kappa in (None, kap):
        base = solve_forward(problem, kappa)  # (nx,) forcing
        for trace_only in (False, True):
            solve_sensitivity(problem, base, kappa, d, trace_only)
    z = solve_sensitivity(problem, base, kap, d)
    solve_second_derivative(problem, base, kap, z, z, d, d)
    assert blocks == [(nx, 4)] * (6 * nt)
    problem.frozen_base
    assert blocks == [(nx, 4)] * (6 * nt) + [(nx, 2)] * nt
