"""Test oracles: references that the tests hold the package against and that
no run uses, kept apart from the code they check.

- fd_jacobian_oracle: the central-difference Jacobian, two nonlinear forward
  solves per column, against the sensitivity marches (criterion 4);
- pole_residual: the residual of the resolvent pole quadratic (criterion 8);
- nonlinear_source: a manufactured source whose nonlinear solution is still
  exactly f(x) beta(t).
"""

import numpy as np

from westinv import JacobianMatrix, Problem, manufactured_source, solve_forward
from westinv.basis import BasisSet, evaluate_basis
from westinv.forward import kappa_samples


def fd_jacobian_oracle(problem: Problem, kappa0, basis: BasisSet,
                       step: float) -> JacobianMatrix:
    """Independent central-difference Jacobian: column j is
    (F(kappa0 + h e_j) - F(kappa0 - h e_j)) / (2h), two nonlinear forward
    solves per column."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    kap = kappa_samples(kappa0, problem.grid)
    E = evaluate_basis(basis, problem.grid)
    cols = []
    for j in range(basis.m):
        traces = [
            problem.sampled_trace(
                solve_forward(problem, kap + sign * step * E[:, j]))
            for sign in (1.0, -1.0)
        ]
        cols.append((traces[0] - traces[1]) / (2 * step))
    return JacobianMatrix(np.column_stack(cols))


def pole_residual(p: complex, b: float, c2: float, lam: float) -> float:
    """Relative residual of the pole quadratic identity."""
    value = abs(p * p + b * lam * p + c2 * lam)
    return value / max(1.0, abs(p) ** 2)


def nonlinear_source(f, f_xx, beta, beta_t, beta_tt, params, grid, tgrid, bc,
                     kappa) -> np.ndarray:
    """manufactured_source minus kappa * (f^2) * (beta^2)'', so that f beta
    also solves the nonlinear equation with coefficient kappa."""
    r = manufactured_source(f, f_xx, beta, beta_t, beta_tt, params, grid,
                            tgrid, bc)
    fx = np.asarray(f(grid.nodes), dtype=float)
    bt, bt1, bt2 = (np.asarray(g(tgrid.times), dtype=float)
                    for g in (beta, beta_t, beta_tt))
    kap = kappa_samples(kappa, grid)
    sq_tt = 2.0 * (bt * bt2 + bt1**2)  # (beta^2)''
    return r - (kap * fx**2)[:, None] * sq_tt[None, :]
