"""Ill-posedness diagnostics walkthrough.

Quantifies why the coefficient reconstruction is severely ill-posed:
the singular values of the linearized trace map decay geometrically, so
only a handful of coefficient modes are resolvable from boundary data.
Also tabulates the resolvent poles of the linearized problem, whose
pairwise distinctness underlies the injectivity of the linearized map.

Run from the repository root:  python3 demos/ill_posedness_diagnostics.py
"""

import os

import numpy as np

from westinv import (
    BoundaryCondition,
    InversionContext,
    MaterialParams,
    Problem,
    SpatialGrid,
    TimeGrid,
    eigenvalues,
    manufactured_source,
    pole_distinctness,
    poles,
    svd_decay,
)
from westinv.basis import BasisSet
from westinv.spectra import svd_csv

OUT = os.path.join(os.path.dirname(__file__), "output", "diagnostics")

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition("dirichlet", "neumann")


def singular_value_decay():
    print("Singular values of the linearized trace map (41 Gaussian bumps):")
    grid, tgrid = SpatialGrid(101), TimeGrid(400)
    f = lambda x: np.sin(np.pi * x / 2)
    f_xx = lambda x: -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)
    source = manufactured_source(
        f, f_xx, lambda t: t**2, lambda t: 2 * t,
        lambda t: 2 * np.ones_like(t), PARAMS, grid, tgrid, BC,
    )
    problem = Problem(PARAMS, grid, tgrid, BC, source,
                      sample_times=np.linspace(0.0, 1.0, 50))
    J = InversionContext(problem, BasisSet("gaussian", 41)).frozen_jacobian
    sigma = J.svd()[1]
    q = svd_decay(sigma)
    resolvable = int(np.sum(sigma > 1e-8 * sigma[0]))
    print(f"  sigma_0 = {sigma[0]:.3e}, sigma_40 = {sigma[-1]:.3e}")
    print(f"  fitted geometric decay rate q = {q:.4f} per index")
    print(f"  modes above a 1e-8 relative noise floor: {resolvable} of 41")
    print("  -> fine spatial detail of the coefficient is unrecoverable; "
          "regularization and early stopping are essential.")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "svd.csv")
    svd_csv(sigma, path)
    print(f"  singular values written to {path}")


def pole_structure():
    print("\nResolvent poles of the linearized problem (b = 1, c2 = 1):")
    lams = eigenvalues(BC, 8)
    pairs = [poles(1.0, 1.0, v) for v in lams]
    print(f"  {'lambda_j':>10} {'p_plus':>22} {'p_minus':>22}")
    for lam, (pp, pm) in zip(lams, pairs):
        print(f"  {lam:>10.4f} {str(np.round(pp, 6)):>22} "
              f"{str(np.round(pm, 6)):>22}")
    report = pole_distinctness(lams, pairs)
    print(f"  pairwise distinct poles: {report['distinct']}")
    print("  -> distinct poles underlie injectivity of the linearized map; "
          "instability, not non-uniqueness, is the obstacle.")


if __name__ == "__main__":
    singular_value_decay()
    pole_structure()
