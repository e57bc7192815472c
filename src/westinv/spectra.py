"""Ill-posedness diagnostics: closed-form eigenvalues of the 1-D negative
Laplacian, resolvent poles of the linearized time-integrated problem and
singular-value decay of the discretized linearized map."""

from __future__ import annotations

import numpy as np

from .grids import DIRICHLET, NEUMANN, BoundaryCondition
from .trace import write_csv

DISTINCTNESS_TOL = 1e-10


def eigenvalues(bc: BoundaryCondition, count: int) -> np.ndarray:
    """Closed-form eigenvalues of -d2/dx2 on [0, 1]: (j pi)^2 for
    Dirichlet-Dirichlet, ((j - 1/2) pi)^2 for mixed Dirichlet/Neumann."""
    if count < 1:
        raise ValueError("count must be at least 1")
    kinds = {bc.left, bc.right}
    if bc.pure_neumann:
        raise ValueError(
            "pure Neumann conditions are excluded from the spectral diagnostics"
        )
    if kinds == {DIRICHLET}:
        j = np.arange(1, count + 1)
        return (j * np.pi) ** 2
    if kinds == {DIRICHLET, NEUMANN}:
        j = np.arange(1, count + 1)
        return ((j - 0.5) * np.pi) ** 2
    raise ValueError(
        "no closed-form eigenvalues implemented for impedance conditions"
    )


def poles(b: float, c2: float, lam: float):
    """Roots of s^2 + b*lam*s + c2*lam = 0: a real pair when the discriminant
    b^2 lam^2 - 4 c2 lam is nonnegative, a conjugate pair otherwise.  Both
    roots have negative real part; as lam grows, p_plus -> -c2/b and
    p_minus ~ -b*lam.  ValueError unless b, c2 and lam are finite and
    positive, or if the roots are out of floating-point range."""
    b, c2, lam = float(b), float(c2), float(lam)  # overflow to inf, unwarned
    if not (0 < b < np.inf and 0 < c2 < np.inf and 0 < lam < np.inf):
        raise ValueError("b, c2 and lambda must be finite and positive")
    bl = b * lam
    s = bl if bl > 1e150 else 1.0  # scales disc where bl^2 would overflow
    disc = (bl / s) ** 2 - 4.0 * c2 / s * lam / s
    root = s * float(np.sqrt(abs(disc)))
    if disc >= 0:
        # stable evaluation: the large-magnitude root directly, the small one
        # from the product of roots c2 * lam (avoids cancellation)
        p_minus = complex(0.5 * (-bl - root))
        p_plus = complex(c2 * lam) / p_minus if p_minus else complex(np.nan)
    else:
        p_plus = complex(-0.5 * b * lam, 0.5 * root)
        p_minus = p_plus.conjugate()
    if not np.isfinite([p_plus, p_minus]).all():
        raise ValueError("the poles are out of floating-point range")
    return p_plus, p_minus


def svd_decay(sigma: np.ndarray) -> float:
    """Geometric decay rate q = exp(slope) of descending singular values,
    from a least-squares fit of log sigma_k against k restricted to the
    values above the machine-noise floor 1e3 * eps * sigma_0.  ValueError
    if sigma is empty."""
    if len(sigma) == 0:
        raise ValueError("svd_decay needs at least one singular value")
    if sigma[0] == 0:
        return 1.0
    floor = 1e3 * np.finfo(float).eps * sigma[0]
    k = np.flatnonzero(sigma > floor)
    if len(k) < 2:
        return 1.0
    slope = np.polyfit(k, np.log(sigma[k]), 1)[0]
    return float(np.exp(slope))


def pole_distinctness(eigenvalues, pole_pairs) -> dict:
    """Pairwise check that distinct eigenvalues yield distinct poles: the gap
    |p_j - p_k| must exceed 1e-10 scaled by the larger magnitude, separately
    for the p_plus and p_minus families.  pole_pairs holds one
    (p_plus, p_minus) pair per eigenvalue."""
    if len(pole_pairs) != len(eigenvalues):
        raise ValueError("one pole pair per eigenvalue required")
    report = {"distinct": True, "violations": []}
    n = len(eigenvalues)
    pp = [pair[0] for pair in pole_pairs]
    pm = [pair[1] for pair in pole_pairs]
    for j in range(n):
        for k in range(j + 1, n):
            if eigenvalues[j] == eigenvalues[k]:
                continue
            for family, vals in (("p_plus", pp), ("p_minus", pm)):
                scale = max(1.0, abs(vals[j]), abs(vals[k]))
                if abs(vals[j] - vals[k]) <= DISTINCTNESS_TOL * scale:
                    report["distinct"] = False
                    report["violations"].append(
                        {"family": family, "j": j + 1, "k": k + 1}
                    )
    return report


def svd_csv(sigma: np.ndarray, path) -> None:
    """Write singular values as CSV with columns k,sigma_k."""
    write_csv(path, "k,sigma_k", enumerate(sigma))
