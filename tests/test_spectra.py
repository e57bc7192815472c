"""Spectral / ill-posedness diagnostics: closed-form eigenvalues, resolvent
poles and singular-value decay."""

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    eigenvalues,
    pole_distinctness,
    poles,
    svd_decay,
)
from westinv.spectra import svd_csv

from oracles import pole_residual

BC_DD = BoundaryCondition("dirichlet", "dirichlet")
BC_DN = BoundaryCondition("dirichlet", "neumann")


def test_eigenvalues_closed_forms():
    # (j pi)^2 for Dirichlet-Dirichlet, ((j - 1/2) pi)^2 for mixed
    j = np.arange(1, 6)
    np.testing.assert_allclose(eigenvalues(BC_DD, 5), (j * np.pi) ** 2)
    np.testing.assert_allclose(eigenvalues(BC_DN, 5), ((j - 0.5) * np.pi) ** 2)


def test_eigenvalues_unsupported():
    # no closed form for pure Neumann or impedance ends: a ValueError, as
    # for count < 1, since neither is about the observation point
    with pytest.raises(ValueError):
        eigenvalues(BoundaryCondition("neumann", "neumann"), 3)
    with pytest.raises(ValueError):
        eigenvalues(BoundaryCondition("dirichlet", "impedance"), 3)


def test_poles_real_pair():
    # b = 1, c2 = 1, lambda = 5: golden-ratio roots
    p_plus, p_minus = poles(1.0, 1.0, 5.0)
    np.testing.assert_allclose(p_plus, complex(-5 / 2 + np.sqrt(5) / 2),
                               atol=1e-12)
    np.testing.assert_allclose(p_minus, complex(-5 / 2 - np.sqrt(5) / 2),
                               atol=1e-12)
    assert abs(p_plus - complex(-1.381966011)) < 1e-8
    assert abs(p_minus - complex(-3.618033989)) < 1e-8


def test_poles_double_root():
    # discriminant zero at lambda = 4 c2 / b^2: double root -2
    p_plus, p_minus = poles(1.0, 1.0, 4.0)
    assert p_plus == p_minus == complex(-2.0)


def test_poles_complex_pair():
    # small lambda gives a conjugate pair with Re = -b lambda / 2
    p_plus, p_minus = poles(1.0, 1.0, 1.0)
    assert p_plus == np.conj(p_minus)
    np.testing.assert_allclose(p_plus.real, -0.5)
    np.testing.assert_allclose(abs(p_plus), 1.0)  # |p|^2 = c2 lam / 1


def test_poles_large_lambda_asymptote():
    # invariant: p_plus -> -c2/b monotonically as lambda grows
    b, c2 = 0.5, 2.0
    gaps = []
    for lam in (1e2, 1e4, 1e6):
        p_plus, p_minus = poles(b, c2, lam)
        gaps.append(abs(p_plus - (-c2 / b)))
        # the fast pole tracks -b lambda
        assert abs(p_minus - (-b * lam)) / (b * lam) < 0.1
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_poles_refuse_what_floats_cannot_hold():
    # (b lam)^2 = 4e398 overflows a float, so its discriminant is scaled;
    # non-finite inputs and roots out of range raise ValueError, never
    # OverflowError or NaN poles
    p_plus, p_minus = poles(0.2, 1.0, 1e200)
    assert p_plus == pytest.approx(-5.0) and p_minus == pytest.approx(-2e199)
    for args in [(np.nan, 1.0, 1.0), (0.2, 1.0, np.inf), (0.2, np.inf, 1.0),
                 (-1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="must be finite and positive"):
            poles(*args)
    with pytest.raises(ValueError, match="out of floating-point range"):
        poles(1e300, 1e300, 1e300)


def test_pole_residual_small():
    # invariant: every computed pole satisfies its quadratic to 1e-12
    lams = eigenvalues(BC_DD, 20)
    for lam, pair in zip(lams, [poles(1.0, 1.0, v) for v in lams]):
        for p in pair:
            assert pole_residual(p, 1.0, 1.0, lam) <= 1e-12


def test_pole_distinctness_clean_and_violated():
    lams = eigenvalues(BC_DD, 10)
    report = pole_distinctness(lams, [poles(1.0, 1.0, v) for v in lams])
    assert report["distinct"] and report["violations"] == []
    # a hand-built spectrum with coincident poles is flagged
    lam = np.array([5.0, 6.0])
    pair = poles(1.0, 1.0, 5.0)
    bad = pole_distinctness(lam, [pair, pair])
    assert not bad["distinct"] and len(bad["violations"]) == 2


def test_pole_distinctness_needs_one_pair_per_eigenvalue():
    lam = eigenvalues(BC_DD, 3)
    pairs = [poles(1.0, 1.0, v) for v in lam]
    for args in ((lam, pairs[:2]), (lam[:2], pairs)):
        with pytest.raises(ValueError, match="one pole pair per eigenvalue"):
            pole_distinctness(*args)


def test_pole_distinctness_skips_equal_eigenvalues():
    # equal eigenvalues share their poles by definition: no violation
    pair = poles(1.0, 1.0, 5.0)
    report = pole_distinctness(np.array([5.0, 5.0]), [pair, pair])
    assert report == {"distinct": True, "violations": []}


def decay(M):
    """Singular values of M and their fitted decay rate."""
    sigma = np.linalg.svd(M, compute_uv=False)
    return sigma, svd_decay(sigma)


def test_svd_decay_identity_and_rank_one():
    # identity: all singular values 1, fitted rate q = 1
    sigma, q = decay(np.eye(6))
    np.testing.assert_allclose(sigma, 1.0)
    np.testing.assert_allclose(q, 1.0, atol=1e-12)
    # rank-one matrix: trailing singular values at noise level
    u = np.arange(1.0, 6.0)
    sigma, q = decay(np.outer(u, u))
    assert sigma[1] < 1e-12 * sigma[0]


def test_svd_decay_geometric():
    # exact geometric spectrum is recovered by the fit
    diag = 0.5 ** np.arange(8)
    sigma, q = decay(np.diag(diag))
    np.testing.assert_allclose(sigma, diag)
    np.testing.assert_allclose(q, 0.5, rtol=1e-10)


def test_svd_decay_zero_matrix():
    sigma, q = decay(np.zeros((4, 4)))
    assert q == 1.0 and np.all(sigma == 0.0)


def test_svd_decay_of_no_singular_values():
    with pytest.raises(ValueError, match="at least one singular value"):
        svd_decay(np.array([]))


def test_svd_csv(tmp_path):
    path = tmp_path / "svd.csv"
    svd_csv(np.array([3.0, 1.0, 0.25]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,sigma_k"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], [3.0, 1.0, 0.25], rtol=1e-15)
