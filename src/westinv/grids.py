"""Grids, material parameters and boundary conditions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
IMPEDANCE = "impedance"

_KINDS = (DIRICHLET, NEUMANN, IMPEDANCE)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of nx >= 3 nodes on the fixed domain [0, 1], which the
    eigenvalues, truth families, excitations and adjoint flux assume too."""

    nx: int

    def __post_init__(self):
        if not (isinstance(self.nx, (int, np.integer)) and self.nx >= 3):
            raise ValueError("nx must be an integer at least 3")

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    def node_index(self, x: float) -> int | None:
        """Index of the node within 1e-9 of x, or None if x is off-grid."""
        idx = int(round(x / self.dx)) if -1 < x < 2 else -1  # NaN, inf too
        if 0 <= idx < self.nx and abs(idx * self.dx - x) <= 1e-9:
            return idx
        return None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with nt >= 3 steps (nt + 1 levels)."""

    nt: int
    t_final: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.nt, (int, np.integer)) and self.nt >= 3):
            raise ValueError("nt must be an integer at least 3")
        if not 0 < self.t_final < np.inf:
            raise ValueError("t_final must be finite and positive")

    @property
    def dt(self) -> float:
        return self.t_final / self.nt

    @cached_property
    def times(self) -> np.ndarray:
        """The nt + 1 time levels, read-only, computed on first use."""
        with np.errstate(over="ignore"):  # its last level is t_final itself
            times = np.linspace(0.0, self.t_final, self.nt + 1)
        times.setflags(write=False)
        return times


@dataclass(frozen=True)
class MaterialParams:
    """Wave speed squared c2 and sound diffusivity b, positive and finite."""

    c2: float = 1.0
    b: float = 0.2

    def __post_init__(self):
        if not (0 < self.c2 < np.inf and 0 < self.b < np.inf):
            raise ValueError("c2 and b must be finite and positive")


@dataclass(frozen=True)
class BoundaryCondition:
    """Homogeneous boundary kinds at x = 0 (left) and x = 1 (right):
    Dirichlet u = 0, Neumann du/dn = 0 or impedance du/dn + u = 0, with n
    the outward normal."""

    left: str = DIRICHLET
    right: str = NEUMANN

    def __post_init__(self):
        for kind in (self.left, self.right):
            if kind not in _KINDS:
                raise ValueError(f"unknown boundary kind {kind!r}")

    @property
    def pure_neumann(self) -> bool:
        return self.left == NEUMANN and self.right == NEUMANN
