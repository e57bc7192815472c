"""Second-order finite-difference elliptic operator A = -d2/dx2 with boundary
conditions folded in by ghost-node elimination.

Dirichlet nodes are tracked separately: their operator rows are zeroed and
time-stepping systems replace those equations by the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import SingularOperatorError
from .grids import DIRICHLET, IMPEDANCE, NEUMANN, BoundaryCondition, SpatialGrid


@dataclass
class Laplace1D:
    """Tridiagonal representation of A = -Laplacian with boundary conditions.

    lower[i] couples row i to node i-1, upper[i] couples row i to node i+1.
    Rows of Dirichlet-constrained nodes are zero; callers impose u = 0 there.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    dirichlet: np.ndarray  # boolean mask of constrained nodes
    grid: SpatialGrid
    bc: BoundaryCondition

    @property
    def nx(self) -> int:
        return self.grid.nx

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-vector product A @ u (zero at Dirichlet rows)."""
        out = self.diag * u
        out[:-1] += self.upper[:-1] * u[1:]
        out[1:] += self.lower[1:] * u[:-1]
        return out

    def banded(self, diag_shift: np.ndarray | float, scale: float) -> np.ndarray:
        """Banded storage of diag(diag_shift) + scale * A with Dirichlet rows
        replaced by the identity, ready for scipy.linalg.solve_banded."""
        n = self.nx
        ab = np.zeros((3, n))
        ab[0, 1:] = scale * self.upper[:-1]
        ab[1, :] = diag_shift + scale * self.diag
        ab[2, :-1] = scale * self.lower[1:]
        ab[1, self.dirichlet] = 1.0  # build_laplacian zeroed their couplings
        return ab

    def solve_banded_system(self, ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        rhs = rhs.copy()
        rhs[self.dirichlet] = 0.0
        return solve_banded((1, 1), ab, rhs, check_finite=False)

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Solve A u = g with the active boundary conditions (u = 0 at
        Dirichlet nodes). Raises for the singular pure-Neumann operator."""
        if self.bc.pure_neumann:
            raise SingularOperatorError(
                "A is singular under pure Neumann conditions"
            )
        ab = self.banded(0.0, 1.0)
        return self.solve_banded_system(ab, np.asarray(g, dtype=float))


def build_laplacian(grid: SpatialGrid, bc: BoundaryCondition) -> Laplace1D:
    nx, dx = grid.nx, grid.dx
    inv2 = 1.0 / dx**2
    lower = np.full(nx, -inv2)
    diag = np.full(nx, 2.0 * inv2)
    upper = np.full(nx, -inv2)
    lower[0] = upper[-1] = 0.0
    dirichlet = np.zeros(nx, dtype=bool)

    def _endpoint(cond, i, neighbor_slot):
        if cond.kind == DIRICHLET:
            dirichlet[i] = True
            diag[i] = 0.0
            neighbor_slot[i] = 0.0
        elif cond.kind == NEUMANN:
            neighbor_slot[i] = -2.0 * inv2
        elif cond.kind == IMPEDANCE:
            neighbor_slot[i] = -2.0 * inv2
            diag[i] = 2.0 * inv2 + 2.0 * cond.coefficient / dx

    _endpoint(bc.left, 0, upper)
    _endpoint(bc.right, nx - 1, lower)
    return Laplace1D(lower, diag, upper, dirichlet, grid, bc)
