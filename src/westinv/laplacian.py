"""Second-order finite-difference elliptic operator A = -d2/dx2 with boundary
conditions folded in by ghost-node elimination.

Dirichlet nodes are tracked separately: their operator rows are zeroed and
time-stepping systems replace those equations by the identity.  A is not
symmetric, but W A is, with W the trapezoid weights (1/2 at the end nodes, 1
inside): the step systems are solved in that form, by LAPACK's symmetric
positive definite tridiagonal LDL^T (dptsv, or dpttrf once and dpttrs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dptsv, dpttrf, dpttrs
from .errors import SingularOperatorError
from .grids import DIRICHLET, IMPEDANCE, NEUMANN, BoundaryCondition, SpatialGrid


class Factors(tuple):
    """LDL^T factors (d, e) of a system of bands, from Laplace1D.factor."""


def _check_definite(info: int):
    if info > 0:
        raise SingularOperatorError(
            "singular or indefinite tridiagonal system (a zero pivot, or a "
            f"negative one, in row {info})")


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

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only trapezoid weights W, 1/2 at the end nodes and 1 inside,
        in whose inner product A is self-adjoint."""
        w = np.ones(self.nx)
        w[[0, -1]] = 0.5
        w.setflags(write=False)
        return w

    @cached_property
    def free_weights(self) -> np.ndarray:
        """Read-only W with 0 on Dirichlet rows: the scaling of every
        forcing and step mass that westinv.forward.cn_march takes."""
        w = self.weights * ~self.dirichlet
        w.setflags(write=False)
        return w

    def banded(self, scale: float) -> tuple:
        """The main and off diagonal of the symmetric W (scale * A), views
        of one (2, nx) block, with Dirichlet rows and columns those of the
        identity (u = 0 there), ready for solve_banded_system once a
        positive shift is added to the main diagonal's free rows."""
        ab = np.zeros((2, self.nx))
        d, e = ab[0], ab[1, :-1]  # e[i] couples nodes i and i + 1
        d[:] = self.weights * (scale * self.diag)
        e[:] = self.weights[:-1] * (scale * self.upper[:-1])
        d[self.dirichlet] = 1.0
        e[self.dirichlet[:-1] | self.dirichlet[1:]] = 0.0
        return d, e

    @cached_property
    def dirichlet_nodes(self) -> tuple:
        """Indices of the Dirichlet-constrained nodes."""
        return tuple(np.flatnonzero(self.dirichlet).tolist())

    def factor(self, bands: tuple) -> Factors:
        """The LDL^T factors of the system of bands, by one LAPACK dpttrf
        call, for solve_banded_system to reuse."""
        d, e, info = dpttrf(*bands)
        _check_definite(info)
        return Factors((d, e))

    def solve_banded_system(self, bands: tuple, rhs: np.ndarray) -> np.ndarray:
        """Solve the symmetric positive definite system of bands (from
        banded, or its Factors) for u, rhs (nx,) or (nx, k) and u = 0 at
        Dirichlet nodes, by one LAPACK dptsv call, or one dpttrs call on
        Factors (bit for bit dptsv's u, which factors by dpttrf and solves
        by dpttrs); a pivot that is not positive raises
        SingularOperatorError.  LAPACK solves a Fortran-ordered copy, so rhs
        is left as it was, and u comes back in Fortran order.  u is zeroed
        at Dirichlet nodes after the solve: for finite rhs that equals
        zeroing rhs there first, as those rows and columns are the
        identity."""
        if isinstance(bands, Factors):
            u, info = dpttrs(*bands, rhs)
        else:
            *_, u, info = dptsv(*bands, rhs)
        _check_definite(info)
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
        return self.solve_banded_system(self.banded(1.0),
                                        (self.weights * g.T).T)


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
