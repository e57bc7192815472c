"""Basis representations: evaluation, least-squares projection, and the
nonnegativity clip."""

import numpy as np
import pytest

import westinv.basis
from westinv import (
    BasisSet,
    CoefficientField,
    RankDeficientError,
    SpatialGrid,
    clip_nonnegative,
    evaluate_basis,
    project,
)


def test_hat_identity_at_grid_nodes():
    # hat basis whose nodes coincide with the grid evaluates to I
    grid = SpatialGrid(21)
    E = evaluate_basis(BasisSet("hat", 21), grid)
    np.testing.assert_allclose(E, np.eye(21), atol=1e-14)


def test_hat_partition_of_unity():
    # invariant: hats sum to one everywhere on [0, 1]
    grid = SpatialGrid(97)
    E = evaluate_basis(BasisSet("hat", 9), grid)
    np.testing.assert_allclose(E.sum(axis=1), 1.0, atol=1e-13)


def test_gaussian_center_values():
    # each bump evaluates to 1 at its own center
    grid = SpatialGrid(41)
    basis = BasisSet("gaussian", 41)
    E = evaluate_basis(basis, grid)
    np.testing.assert_allclose(np.diag(E), 1.0, atol=1e-14)


def test_gaussian_neighbor_overlap():
    # default sigma = spacing^2 gives overlap exp(-1) at neighbors
    grid = SpatialGrid(41)
    E = evaluate_basis(BasisSet("gaussian", 41), grid)
    np.testing.assert_allclose(np.diag(E, 1), np.exp(-1.0), atol=1e-14)


def test_haar_indicator():
    # Haar pieces are 0/1 indicators of disjoint cells
    grid = SpatialGrid(101)
    E = evaluate_basis(BasisSet("haar", 4), grid)
    assert set(np.unique(E)) <= {0.0, 1.0}
    # cells partition the interval: exactly one active piece per node
    np.testing.assert_allclose(E.sum(axis=1), 1.0)
    # x = 0.3 lies in the second of four cells [0.25, 0.5)
    i = np.argmin(np.abs(grid.nodes - 0.3))
    assert E[i, 1] == 1.0 and E[i, 0] == E[i, 2] == E[i, 3] == 0.0


def test_project_recovers_coefficients():
    # invariant: project(evaluate(c)) == c to 1e-10 for well-conditioned bases
    grid = SpatialGrid(101)
    rng = np.random.Generator(np.random.Philox(7))
    for kind, m in [("hat", 11), ("gaussian", 15), ("haar", 8)]:
        basis = BasisSet(kind, m)
        c = rng.uniform(-1.0, 1.0, m)
        samples = evaluate_basis(basis, grid) @ c
        np.testing.assert_allclose(project(basis, samples, grid), c,
                                   atol=1e-10)


def test_project_residual_orthogonal():
    # invariant: least-squares residual is orthogonal to the basis columns
    grid = SpatialGrid(101)
    basis = BasisSet("gaussian", 9)
    samples = np.sin(3 * np.pi * grid.nodes)
    coeffs = project(basis, samples, grid)
    E = evaluate_basis(basis, grid)
    misfit = E @ coeffs - samples
    rel_res = np.linalg.norm(E @ coeffs - samples) / np.linalg.norm(samples)
    assert np.max(np.abs(E.T @ misfit)) < 1e-10
    np.testing.assert_allclose(
        rel_res, np.linalg.norm(misfit) / np.linalg.norm(samples), rtol=1e-12
    )


def test_project_rank_deficient():
    # near-identical columns make the Gram matrix numerically singular
    grid = SpatialGrid(51)
    basis = BasisSet("gaussian", 8, sigma=1e8)
    with pytest.raises(RankDeficientError):
        project(basis, grid.nodes, grid)


def test_project_builds_the_normal_equations_once(monkeypatch):
    # E, the Gram matrix and its check are built once per (basis, grid);
    # every call still solves, so the result is the uncached formula bit
    # for bit, and a rank-deficient basis raises on every call
    calls = []

    def counting(basis, grid):
        calls.append(basis)
        return evaluate_basis(basis, grid)

    monkeypatch.setattr(westinv.basis, "evaluate_basis", counting)
    westinv.basis._normal_equations.cache_clear()
    grid, basis = SpatialGrid(101), BasisSet("gaussian", 15)
    E = evaluate_basis(basis, grid)
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(3):
        samples = rng.standard_normal(101)
        assert np.array_equal(project(basis, samples, grid),
                              np.linalg.solve(E.T @ E, E.T @ samples))
    assert len(calls) == 1
    bad = BasisSet("gaussian", 8, sigma=1e8)
    for _ in range(2):
        with pytest.raises(RankDeficientError):
            project(bad, grid.nodes, grid)
    assert len(calls) == 3


def test_coefficient_field_roundtrip():
    grid = SpatialGrid(101)
    basis = BasisSet("hat", 11)
    c = np.linspace(0.0, 1.0, 11)
    field = CoefficientField.from_coefficients(basis, c, grid)
    refit = CoefficientField.from_samples(field.samples, grid, basis)
    np.testing.assert_allclose(refit.coefficients, c, atol=1e-12)


def test_clip_zero_field_unchanged():
    # clip of an all-zero field is the same field
    grid = SpatialGrid(31)
    field = CoefficientField.from_samples(np.zeros(31), grid, BasisSet("hat", 5))
    clipped = clip_nonnegative(field)
    assert np.all(clipped.samples == 0.0)
    np.testing.assert_allclose(clipped.coefficients, 0.0, atol=1e-14)


def test_clip_mixed_signs():
    # invariant: clipped samples have min >= -1e-12; positive part untouched
    grid = SpatialGrid(41)
    samples = np.sin(4 * np.pi * grid.nodes)
    field = CoefficientField.from_samples(samples, grid, BasisSet("hat", 41))
    clipped = clip_nonnegative(field)
    assert clipped.samples.min() >= -1e-12
    keep = samples >= 0
    np.testing.assert_allclose(clipped.samples[keep], samples[keep])


def test_clip_idempotent_and_nonexpansive():
    grid = SpatialGrid(41)
    rng = np.random.Generator(np.random.Philox(11))
    for trial in range(5):
        u = rng.uniform(-1.0, 1.0, 41)
        v = rng.uniform(-1.0, 1.0, 41)
        fu = CoefficientField.from_samples(u, grid)
        fv = CoefficientField.from_samples(v, grid)
        cu, cv = clip_nonnegative(fu), clip_nonnegative(fv)
        # idempotent
        np.testing.assert_array_equal(clip_nonnegative(cu).samples, cu.samples)
        # nonexpansive in the max norm
        assert (np.max(np.abs(cu.samples - cv.samples))
                <= np.max(np.abs(u - v)) + 1e-15)


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(kind=st.sampled_from(["gaussian", "hat", "haar"]),
                  nx=st.integers(5, 51), data=st.data())
def test_clip_then_project_equals_clip_of_projection(kind, nx, data):
    # the Landweber step clips the samples and projects once; that is the
    # same field, bit for bit, as clip_nonnegative of the projected
    # unclipped samples, and a second clip changes nothing
    grid = SpatialGrid(nx)
    basis = BasisSet(kind, data.draw(st.integers(1, (nx - 1) // 4)))
    s = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=nx,
                                    max_size=nx)))
    clipped = clip_nonnegative(CoefficientField.from_samples(s, grid, basis))
    direct = CoefficientField.from_samples(np.maximum(s, 0.0), grid, basis)
    twice = clip_nonnegative(clipped)
    for other in (direct, twice):
        assert np.array_equal(other.samples, clipped.samples)
        assert np.array_equal(other.coefficients, clipped.coefficients)
