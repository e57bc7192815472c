"""Grids, material parameters, boundary conditions and solver options."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
IMPEDANCE = "impedance"

_KINDS = (DIRICHLET, NEUMANN, IMPEDANCE)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of nx nodes on the fixed domain [0, 1], which the
    eigenvalues, truth families, excitations and adjoint flux assume too."""

    nx: int

    def __post_init__(self):
        if self.nx < 2:
            raise ValueError("nx must be at least 2")

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    def node_index(self, x: float) -> int | None:
        """Index of the node within 1e-9 of x, or None if x is off-grid."""
        idx = int(round(x / self.dx))
        if 0 <= idx < self.nx and abs(idx * self.dx - x) <= 1e-9:
            return idx
        return None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with nt steps (nt + 1 levels)."""

    nt: int
    t_final: float = 1.0

    def __post_init__(self):
        if self.nt < 2:
            raise ValueError("nt must be at least 2")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")

    @property
    def dt(self) -> float:
        return self.t_final / self.nt

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.nt + 1)


@dataclass(frozen=True)
class MaterialParams:
    """Wave speed squared c2 and sound diffusivity b, both positive."""

    c2: float = 1.0
    b: float = 0.2

    def __post_init__(self):
        if not (self.c2 > 0 and self.b > 0):
            raise ValueError("c2 and b must be positive")


@dataclass(frozen=True)
class EndpointCondition:
    """Boundary condition at one endpoint.

    Dirichlet and Neumann conditions are homogeneous; impedance carries a
    positive coefficient (default 1.0).
    """

    kind: str = DIRICHLET
    coefficient: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == IMPEDANCE and not 0 < self.coefficient < np.inf:
            raise ValueError("impedance coefficient must be positive and "
                             f"finite, got {self.coefficient!r}")


@dataclass(frozen=True)
class BoundaryCondition:
    left: EndpointCondition = field(default_factory=EndpointCondition)
    right: EndpointCondition = field(
        default_factory=lambda: EndpointCondition(NEUMANN)
    )

    @property
    def pure_neumann(self) -> bool:
        return self.left.kind == NEUMANN and self.right.kind == NEUMANN

    @classmethod
    def from_kinds(cls, left: str, right: str, coefficient: float = 1.0):
        return cls(
            EndpointCondition(left, coefficient),
            EndpointCondition(right, coefficient),
        )


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances for the nonlinear forward solver.

    inner_tol bounds the next Newton update of each time step (max-norm):
    a step stops once its a-priori bound on that update is at most
    inner_tol, and raises NoConvergenceError if max_inner updates do not
    get there.  The steps' remaining errors add up over the march, so the
    field can sit several inner_tol from the exact discrete solution on a
    coarse time grid.  1 - 2 kappa p must stay at or above the fixed floor
    westinv.forward.POSITIVITY_FLOOR.
    """

    inner_tol: float = 1e-10
    max_inner: int = 20

    def __post_init__(self):
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")
