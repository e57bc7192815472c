"""Finite-dimensional parameterizations of the nonlinearity coefficient:
shifted Gaussian bumps, chapeau (hat) piecewise-linear functions and a Haar
piecewise-constant basis."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import RankDeficientError
from .grids import SpatialGrid

GAUSSIAN = "gaussian"
HAT = "hat"
HAAR = "haar"


@dataclass(frozen=True)
class BasisSet:
    """Basis of size m on the domain [0, 1] of SpatialGrid.

    For the Gaussian basis, sigma is the squared-width parameter in
    exp(-(x - x_j)^2 / sigma); by default adjacent bumps overlap at e^{-1},
    i.e. sigma = spacing^2.
    """

    kind: str
    m: int
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, HAT, HAAR):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError("basis size must be an integer at least 1")
        if self.kind == GAUSSIAN and self.sigma is None:
            object.__setattr__(self, "sigma", self.spacing**2)
        # so (x - x_j)^2 / sigma <= 1 / sigma in evaluate_basis stays finite
        if (self.sigma is not None
                and not np.finfo(float).tiny <= self.sigma < np.inf):
            raise ValueError("sigma must be finite and at least the smallest "
                             "normal float")

    @property
    def spacing(self) -> float:  # between bump centers / hat nodes
        return 1.0 / max(self.m - 1, 1)

    @property
    def nodes(self) -> np.ndarray:
        """Node locations (bump centers / hat nodes / Haar cell edges)."""
        return np.linspace(0.0, 1.0, self.m + 1 if self.kind == HAAR else self.m)


def evaluate_basis(basis: BasisSet, grid: SpatialGrid) -> np.ndarray:
    """Matrix E with E[i, j] = b_j(x_i), shape (nx, m)."""
    x = grid.nodes
    if basis.kind == GAUSSIAN:
        centers = basis.nodes
        E = np.exp(-((x[:, None] - centers[None, :]) ** 2) / basis.sigma)
        # exp's subnormals far from a bump slow every product with E 3x
        return np.where(E < np.finfo(float).tiny, 0.0, E)
    if basis.kind == HAT:
        centers = basis.nodes
        return np.clip(1.0 - np.abs(x[:, None] - centers[None, :])
                       / basis.spacing, 0.0, 1.0)
    # Haar: indicator of equal-width cells, right-closed at x = 1
    edges = basis.nodes
    cell = np.minimum(
        np.searchsorted(edges, x, side="right") - 1, basis.m - 1
    )
    E = np.zeros((grid.nx, basis.m))
    E[np.arange(grid.nx), cell] = 1.0
    return E


@lru_cache(maxsize=16)
def _normal_equations(basis: BasisSet, grid: SpatialGrid) -> tuple:
    """Read-only E and Gram matrix E^T E of project, built and checked once
    per (basis, grid); a failed check raises again on every call, since
    lru_cache keeps no exceptions."""
    if grid.nx < basis.m:
        raise ValueError("need at least as many grid nodes as basis functions")
    E = evaluate_basis(basis, grid)
    gram = E.T @ E
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficientError(
            f"basis Gram matrix condition {cond:.3g} exceeds 1e12"
        )
    E.setflags(write=False)
    gram.setflags(write=False)
    return E, gram


def project(
    basis: BasisSet,
    samples: np.ndarray,
    grid: SpatialGrid,
) -> np.ndarray:
    """Least-squares coefficients of grid samples via the normal equations.

    Raises RankDeficientError when the Gram matrix condition exceeds 1e12.
    """
    samples = np.asarray(samples, dtype=float)
    E, gram = _normal_equations(basis, grid)
    return np.linalg.solve(gram, E.T @ samples)


@dataclass
class CoefficientField:
    """kappa(x) as basis coefficients plus grid samples.

    Grid samples are authoritative for the solvers; the coefficient vector is
    the basis representation (exact for synthesized fields, a least-squares
    fit after clipping).
    """

    basis: BasisSet | None
    coefficients: np.ndarray | None
    samples: np.ndarray
    grid: SpatialGrid = field(repr=False, default=None)

    @classmethod
    def from_coefficients(
        cls, basis: BasisSet, coefficients, grid: SpatialGrid
    ) -> "CoefficientField":
        coefficients = np.asarray(coefficients, dtype=float)
        samples = evaluate_basis(basis, grid) @ coefficients
        return cls(basis, coefficients, samples, grid)

    @classmethod
    def from_samples(
        cls, samples, grid: SpatialGrid, basis: BasisSet | None = None
    ) -> "CoefficientField":
        samples = np.asarray(samples, dtype=float)
        coeffs = project(basis, samples, grid) if basis is not None else None
        return cls(basis, coeffs, samples, grid)


def clip_nonnegative(f: CoefficientField) -> CoefficientField:
    """Truncate negative grid samples to zero; coefficients are re-projected
    from the clipped samples.  Idempotent and nonexpansive in the max norm."""
    return CoefficientField.from_samples(np.maximum(f.samples, 0.0), f.grid,
                                         f.basis)
