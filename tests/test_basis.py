"""B-spline basis construction against an independent truncated-power oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesqvc import Dataset
from bayesqvc.basis import (
    SplineConfig,
    basis_matrix,
    basis_values,
    evaluate_basis,
    expand_design,
    knot_sequence,
)

from oracles import naive_bspline


def test_knot_sequence_quadratic_two_interior():
    cfg = SplineConfig(2, 2)
    assert cfg.basis_count == 5
    knots = knot_sequence(cfg)
    np.testing.assert_allclose(knots, [0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1])


def test_knot_sequence_linear_no_interior():
    knots = knot_sequence(SplineConfig(1, 0))
    np.testing.assert_allclose(knots, [0, 0, 1, 1])


def test_config_validation():
    with pytest.raises(ValueError):
        SplineConfig(-1, 2)
    with pytest.raises(ValueError):
        SplineConfig(2, -1)


def test_degree_zero_single_basis():
    cfg = SplineConfig(0, 0)
    for v in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(evaluate_basis(v, cfg), [1.0])


def test_clamped_endpoints():
    cfg = SplineConfig(2, 2)
    np.testing.assert_allclose(evaluate_basis(0.0, cfg), [1, 0, 0, 0, 0])
    # left-limit convention at v=1: the final basis equals one
    np.testing.assert_allclose(evaluate_basis(1.0, cfg), [0, 0, 0, 0, 1])


def test_rejects_points_outside_unit_interval():
    with pytest.raises(ValueError):
        evaluate_basis(-0.01, SplineConfig(2, 2))
    with pytest.raises(ValueError):
        evaluate_basis(1.01, SplineConfig(2, 2))


def test_against_divided_difference_oracle():
    rng = np.random.default_rng(7)
    for degree in (1, 2, 3):
        for interior in (0, 1, 2, 4):
            cfg = SplineConfig(degree, interior)
            knots = knot_sequence(cfg)
            for v in rng.random(8):
                if np.any(np.isclose(v, knots)):
                    continue
                ours = evaluate_basis(v, cfg)
                oracle = [
                    naive_bspline(knots, i, degree, v) for i in range(cfg.basis_count)
                ]
                np.testing.assert_allclose(ours, oracle, atol=1e-10)


def test_partition_of_unity_grid():
    v = np.linspace(0.0, 1.0, 1000)
    for degree in (1, 2, 3):
        for interior in range(6):
            values = basis_values(v, SplineConfig(degree, interior))
            np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)
            assert values.min() >= 0.0 and values.max() <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.integers(1, 3),
    st.integers(0, 5),
)
def test_local_support(v, degree, interior):
    cfg = SplineConfig(degree, interior)
    knots = knot_sequence(cfg)
    values = evaluate_basis(v, cfg)
    for s in range(cfg.basis_count):
        lo, hi = knots[s], knots[s + degree + 1]
        inside = lo <= v <= hi
        if not inside:
            assert values[s] == 0.0


def test_degree_one_reproduces_linear_interpolation():
    cfg = SplineConfig(1, 3)
    knots = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    rng = np.random.default_rng(3)
    coef = rng.normal(size=cfg.basis_count)
    # hat functions: value at knot k is coef[k]
    at_knots = basis_values(knots, cfg) @ coef
    np.testing.assert_allclose(at_knots, coef, atol=1e-14)
    mids = (knots[:-1] + knots[1:]) / 2
    at_mids = basis_values(mids, cfg) @ coef
    np.testing.assert_allclose(at_mids, (coef[:-1] + coef[1:]) / 2, atol=1e-14)


def test_basis_matrix_validates():
    bm = basis_matrix(np.array([0.2, 0.8]), SplineConfig(2, 2))
    assert bm.values.shape == (2, 5)
    bm.validate()


def test_expand_design_blocks():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 2))
    ds = Dataset(y=np.zeros(3), x=x, v=np.array([0.1, 0.5, 0.9]))
    design = expand_design(ds, SplineConfig(1, 0))
    # block 0 is exactly the basis matrix
    np.testing.assert_array_equal(design.blocks[0], design.basis.values)
    # entrywise: block j = basis * x_j
    for j in (1, 2):
        np.testing.assert_allclose(
            design.blocks[j], design.basis.values * x[:, j - 1][:, None]
        )
    zeros = Dataset(y=np.zeros(3), x=np.zeros((3, 1)), v=ds.v)
    np.testing.assert_array_equal(expand_design(zeros, SplineConfig(1, 0)).blocks[1], 0.0)
    ones = Dataset(y=np.zeros(3), x=np.ones((3, 1)), v=ds.v)
    np.testing.assert_array_equal(
        expand_design(ones, SplineConfig(1, 0)).blocks[1], design.basis.values
    )


def test_expand_design_rejects_bad_v():
    with pytest.raises(ValueError):
        Dataset(y=np.zeros(2), x=np.zeros((2, 1)), v=np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        Dataset(y=np.zeros(2), x=np.zeros((3, 1)), v=np.array([0.5, 0.7]))
