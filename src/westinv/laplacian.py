"""Second-order finite-difference elliptic operator A = -d2/dx2 with boundary
conditions folded in by ghost-node elimination.

Dirichlet nodes are tracked separately: their operator rows are zeroed and
time-stepping systems replace those equations by the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

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
        """A @ u for u of shape (nx,) or (nx, k), zero at Dirichlet rows (on
        u.T, so the bands broadcast over the k columns)."""
        ut = u.T
        out = self.diag * ut
        out[..., :-1] += self.upper[:-1] * ut[..., 1:]
        out[..., 1:] += self.lower[1:] * ut[..., :-1]
        return out.T

    def banded(self, scale: float) -> tuple:
        """dgtsv's sub-, main and super-diagonal of scale * A, views of one
        (3, nx) block, with Dirichlet rows and columns those of the identity
        (u = 0 there, so dgtsv's pivoting never mixes them into free rows),
        ready for solve_banded_system."""
        ab = np.zeros((3, self.nx))
        ab[0, :-1] = scale * self.lower[1:]
        ab[1, :] = scale * self.diag
        ab[2, 1:] = scale * self.upper[:-1]
        ab[:, self.dirichlet] = [[0.0], [1.0], [0.0]]  # ab[:, j] is column j
        return ab[0, :-1], ab[1], ab[2, 1:]

    @cached_property
    def dirichlet_nodes(self) -> tuple:
        """Indices of the Dirichlet-constrained nodes."""
        return tuple(np.flatnonzero(self.dirichlet).tolist())

    def solve_banded_system(self, bands: tuple, rhs: np.ndarray) -> np.ndarray:
        """Solve the system of bands (from banded) for u, rhs (nx,) or (nx,
        k) and u = 0 at Dirichlet nodes, by one LAPACK dgtsv call (what
        scipy's solve_banded runs for (1, 1) bands); a zero pivot raises
        SingularOperatorError.  dgtsv solves a Fortran-ordered copy, so rhs
        is left as it was, and u comes back in Fortran order.  u is zeroed
        at Dirichlet nodes after the solve: for finite rhs that equals
        zeroing rhs there first, as those rows and columns are the
        identity."""
        *_, u, info = dgtsv(*bands, rhs)
        if info > 0:
            raise SingularOperatorError(
                f"singular tridiagonal system (zero pivot in row {info})")
        for i in self.dirichlet_nodes:
            u[i] = 0.0
        return u

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Solve A u = g with the active boundary conditions (u = 0 at
        Dirichlet nodes). Raises for the singular pure-Neumann operator."""
        if self.bc.pure_neumann:
            raise SingularOperatorError(
                "A is singular under pure Neumann conditions"
            )
        return self.solve_banded_system(self.banded(1.0), g)


def build_laplacian(grid: SpatialGrid, bc: BoundaryCondition) -> Laplace1D:
    nx, dx = grid.nx, grid.dx
    inv2 = 1.0 / dx**2
    lower = np.full(nx, -inv2)
    diag = np.full(nx, 2.0 * inv2)
    upper = np.full(nx, -inv2)
    lower[0] = upper[-1] = 0.0
    dirichlet = np.zeros(nx, dtype=bool)

    def _endpoint(kind, i, neighbor_slot):
        if kind == DIRICHLET:
            dirichlet[i] = True
            diag[i] = 0.0
            neighbor_slot[i] = 0.0
        elif kind == NEUMANN:
            neighbor_slot[i] = -2.0 * inv2
        elif kind == IMPEDANCE:  # du/dn + u = 0
            neighbor_slot[i] = -2.0 * inv2
            diag[i] = 2.0 * inv2 + 2.0 / dx

    _endpoint(bc.left, 0, upper)
    _endpoint(bc.right, nx - 1, lower)
    return Laplace1D(lower, diag, upper, dirichlet, grid, bc)
