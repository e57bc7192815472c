"""Batched marches: k sensitivity or second-derivative columns marched as
one block equal k one-column marches bit for bit, and the assembled
Jacobian equals its column-by-column traces."""

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    Direction,
    MaterialParams,
    Problem,
    SpatialGrid,
    TimeGrid,
    assemble_jacobian,
    solve_forward,
    solve_second_derivative,
    solve_sensitivity,
)
from westinv.basis import BasisSet, evaluate_basis

from oracles import nonlinear_source

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=25, deadline=None, database=None)

PARAMS = MaterialParams(c2=1.0, b=0.2)
# the boundary pairs of the derivative tests (observation at x = 1 is never
# a Dirichlet node)
BC_IDS = ["dirichlet-neumann", "dirichlet-impedance", "impedance-neumann"]


def make_problem(bc_id, nx, nt, kappa_scale, ns):
    grid, tgrid = SpatialGrid(nx), TimeGrid(nt)
    bc = BoundaryCondition(*bc_id.split("-"))
    kap = kappa_scale * (1.0 + 0.5 * np.sin(3.0 * grid.nodes))
    source = nonlinear_source(
        lambda x: np.sin(np.pi * x / 2),
        lambda x: -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2),
        lambda t: t**2, lambda t: 2 * t, lambda t: 2 * np.ones_like(t),
        PARAMS, grid, tgrid, bc, kap,
    )
    problem = Problem(PARAMS, grid, tgrid, bc, source,
                      sample_times=np.linspace(0.0, 1.0, ns))
    return problem, kap, solve_forward(problem, kap)


@SETTINGS
@hypothesis.given(
    bc_id=st.sampled_from(BC_IDS),
    kind=st.sampled_from(["gaussian", "hat", "haar"]),
    nx=st.integers(11, 51),
    nt=st.integers(8, 60),
    m=st.integers(1, 6),
    kappa_scale=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_marches_equal_single_columns(bc_id, kind, nx, nt, m,
                                              kappa_scale, seed):
    problem, kap, base = make_problem(bc_id, nx, nt, kappa_scale, ns=12)
    basis = BasisSet(kind, m)
    E = evaluate_basis(basis, problem.grid)
    c = np.random.Generator(np.random.Philox(seed)).uniform(-1.0, 1.0, m)
    d = Direction(E @ c)
    obs = problem.obs_index

    Z = solve_sensitivity(problem, base, kap, Direction(E))
    zs = [solve_sensitivity(problem, base, kap, Direction(E[:, j]))
          for j in range(m)]
    assert Z.values.shape == (nx, m, nt + 1)
    for j in range(m):
        assert np.array_equal(Z.values[:, j, :], zs[j].values)
    assert np.array_equal(
        solve_sensitivity(problem, base, kap, Direction(E), trace_only=True),
        Z.values[obs])

    zd = solve_sensitivity(problem, base, kap, d)
    W = solve_second_derivative(problem, base, kap, zd, Z, d, Direction(E))
    ws = [solve_second_derivative(problem, base, kap, zd, zs[j], d,
                                  Direction(E[:, j])) for j in range(m)]
    for j in range(m):
        assert np.array_equal(W.values[:, j, :], ws[j].values)

    J = assemble_jacobian(problem, kap, basis, base=base)
    assert np.array_equal(
        J.entries, np.column_stack([problem.sampled_trace(z) for z in zs]))
    assert np.array_equal(J.entries, problem.sampled_trace(Z))


@pytest.mark.parametrize("bc_id", BC_IDS)
@pytest.mark.parametrize("frozen", [True, False])
def test_sensitivity_block_equals_one_column_marches(bc_id, frozen):
    # each column of a k-column block steps through the march's Fortran-
    # ordered (nx, k) state and time-major store exactly as it would alone
    problem, kap, base = make_problem(bc_id, nx=41, nt=60, kappa_scale=0.2,
                                      ns=12)
    if frozen:
        kap, base = None, problem.frozen_base
    E = evaluate_basis(BasisSet("gaussian", 7), problem.grid)
    singles = [solve_sensitivity(problem, base, kap, Direction(E[:, j])).values
               for j in range(7)]
    for block in (np.ascontiguousarray(E), np.asfortranarray(E)):
        Z = solve_sensitivity(problem, base, kap, Direction(block)).values
        assert Z.shape == (41, 7, 61)
        for j in range(7):
            assert np.array_equal(Z[:, j, :], singles[j])
