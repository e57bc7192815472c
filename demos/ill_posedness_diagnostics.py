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
    eigenvalues,
    pole_distinctness,
    poles,
    svd_decay,
)
from westinv.experiment import ExperimentConfig, build_problem
from westinv.spectra import svd_csv

OUT = os.path.join(os.path.dirname(__file__), "output", "diagnostics")

CONFIG = ExperimentConfig()  # Dirichlet-Neumann, b = 0.2, 41 Gaussian bumps


def singular_value_decay():
    print("Singular values of the linearized trace map (41 Gaussian bumps):")
    # sine_half excitation, t^2 profile, 101 nodes, 400 steps, 50 samples
    problem, basis, _ = build_problem(CONFIG)
    J = InversionContext(problem, basis).frozen_jacobian
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
    lams = eigenvalues(BoundaryCondition(CONFIG.bc_left, CONFIG.bc_right), 8)
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
