"""Posterior summarization: MPM selection, CI selection, curves, scalars."""

import numpy as np
import pytest

from bayesqvc.basis import SplineConfig, basis_values, default_grid
from bayesqvc.inference import (
    CURVE_CHUNK_BYTES,
    TAIL,
    _sorted_median,
    _sorted_percentile,
    all_curve_estimates,
    ci_selection,
    inclusion_probabilities,
    posterior_scalar_summaries,
    scalar_summary,
    selection,
)
from bayesqvc.samplers.config import method_spec
from bayesqvc.samplers.state import ChainSamples, PosteriorSamples


def make_samples(alpha, method="bqrvcss", scalars=None, beta=None, degree=1, knots=0):
    """One chain of the dense (M, p+1, d) draws ``alpha``, stored as a sampler stores them:
    a spike method includes the nonzero blocks, a plain method every block."""
    alpha = np.asarray(alpha, dtype=float)
    m, p1, d = alpha.shape
    if method_spec(method).spike:
        inclusion = np.any(alpha[:, 1:, :] != 0.0, axis=2).astype(np.uint8)
    else:
        inclusion = np.ones((m, p1 - 1), dtype=np.uint8)
    if scalars is None:
        scalars = {"theta": np.ones(m), "eta_sq": np.ones(m), "pi0": np.full(m, 0.5)}
    if beta is None:
        beta = np.zeros((m, 0))
    chain = ChainSamples(
        seed=0, stream_id=0, iterations=2 * m, burn_in=m, thin=1,
        alpha0=alpha[:, 0], rows=alpha[:, 1:][inclusion != 0], beta=beta,
        inclusion=inclusion, scalars=scalars,
    )
    return PosteriorSamples(
        method=method, tau=0.5 if method.startswith("bq") else None,
        spline_degree=degree, interior_knots=knots, chains=[chain],
    )


def test_inclusion_probabilities_arithmetic():
    alpha = np.zeros((4, 2, 2))
    alpha[[0, 1, 3], 1, 0] = 1.0  # block 1 active in 3 of 4 draws
    samples = make_samples(alpha)
    rule, selected, probs = selection(samples)
    assert probs[0] == pytest.approx(0.75)
    assert (rule, selected) == ("mpm", [1])


def test_inclusion_all_zero_draws():
    samples = make_samples(np.zeros((5, 3, 2)))
    _, selected, probs = selection(samples)
    np.testing.assert_array_equal(probs, 0.0)
    assert selected == []


def test_inclusion_boundary_is_selected():
    alpha = np.zeros((4, 2, 2))
    alpha[[0, 1], 1, 0] = 1.0  # exactly 0.5
    _, selected, probs = selection(make_samples(alpha))
    assert probs[0] == pytest.approx(0.5)
    assert selected == [1]  # "no less than" the threshold


def test_inclusion_rejects_non_spike_methods():
    samples = make_samples(np.zeros((4, 2, 2)), method="bqrvc")
    with pytest.raises(ValueError, match="ci_selection"):
        inclusion_probabilities(samples)


def test_inclusion_invariant_under_duplication():
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=(10, 3, 2)) * (rng.random((10, 3, 1)) > 0.4)
    alpha[:, 0, :] = 1.0
    samples = make_samples(alpha)
    doubled = make_samples(np.repeat(alpha, 3, axis=0))
    np.testing.assert_allclose(
        inclusion_probabilities(samples), inclusion_probabilities(doubled)
    )


def test_ci_selection_rules():
    m = 400
    rng = np.random.default_rng(1)
    alpha = np.zeros((m, 3, 2))
    alpha[:, 1, 0] = 1.0                      # constant +1: CI = [1,1], selected
    alpha[:, 2, :] = rng.normal(size=(m, 2))  # symmetric around 0: not selected
    samples = make_samples(alpha, method="bvc", scalars={"sigma_sq": np.ones(m),
                                                         "lambda_sq": np.ones(m),
                                                         "pi0": np.zeros(m)})
    assert ci_selection(samples) == [1]

    alpha[:, 2, 1] = 3.0 + 0.1 * rng.normal(size=m)
    samples = make_samples(alpha, method="bvc", scalars={"sigma_sq": np.ones(m),
                                                         "lambda_sq": np.ones(m),
                                                         "pi0": np.zeros(m)})
    sel = ci_selection(samples)
    assert sel == [1, 2]
    # verify against direct quantile computation
    lo = np.percentile(alpha[:, 2, 1], 2.5)
    assert lo > 0


def test_curve_estimate_identical_draws():
    cfg = SplineConfig(1, 0)
    coef = np.array([1.0, -2.0])
    alpha = np.tile(coef, (6, 2, 1))
    samples = make_samples(alpha)
    bands = all_curve_estimates(samples)
    expected = basis_values(default_grid(), cfg) @ coef
    np.testing.assert_allclose(bands.median[1], expected, atol=1e-12)
    np.testing.assert_allclose(bands.upper[1] - bands.lower[1], 0.0, atol=1e-12)


def test_curve_estimate_zero_block():
    samples = make_samples(np.zeros((5, 2, 2)))
    bands = all_curve_estimates(samples)
    np.testing.assert_array_equal(bands.median[1], 0.0)
    np.testing.assert_array_equal(bands.lower[1], 0.0)
    np.testing.assert_array_equal(bands.upper[1], 0.0)


def test_curve_estimate_three_draw_median():
    alpha = np.zeros((3, 2, 2))
    alpha[:, 1, 0] = [1.0, 5.0, 2.0]
    samples = make_samples(alpha)
    bands = all_curve_estimates(samples)
    assert bands.grid[0] == 0.0  # basis at 0 is (1, 0)
    assert bands.median[1, 0] == pytest.approx(2.0)  # elementwise middle value


def reference_curve_bands(alpha, grid):
    """The per-block loop over dense (M, p+1, d) draws of degree 2 with 2 interior knots:
    one (M, G) draw matrix and three quantile passes per 95% band."""
    basis = basis_values(grid, SplineConfig(2, 2))
    tail = 100.0 * (1.0 - 0.95) / 2.0
    out = []
    for j in range(alpha.shape[1]):
        draws = alpha[:, j, :] @ basis.T
        out.append((np.median(draws, axis=0), np.percentile(draws, tail, axis=0),
                    np.percentile(draws, 100.0 - tail, axis=0)))
    return out


@pytest.mark.parametrize(
    "m, one_block_per_chunk",
    [(300, True), (40, False), (1, False), (2, False), (3, False), (4, False), (39, False),
     (41, False), (301, True)],
)
def test_all_curve_estimates_match_per_block_loop(m, one_block_per_chunk):
    grid = default_grid()
    assert (CURVE_CHUNK_BYTES // (2 * m * grid.size * 8) <= 1) == one_block_per_chunk
    rng = np.random.default_rng(m)
    p1, d = 12, 5
    alpha = rng.normal(size=(m, p1, d))
    alpha[:, 2] = 0.0                                # all-zero block
    alpha[rng.random(m) < 0.9, 3] = 0.0              # mostly zero block
    alpha[:, 4, 1:] = 0.0                            # live, one coefficient only
    alpha[:, 5] = rng.integers(-1, 2, size=(m, 1)) / 2.0  # tied draws: three curves repeated
    alpha[:, 6] = rng.choice([0.0, -0.0], size=(m, d))    # coefficients mixing +0.0 and -0.0,
    alpha[::3, 6, 2] = 1.5                                # in a live block
    samples = make_samples(alpha, degree=2, knots=2)
    bands = all_curve_estimates(samples)
    assert len(bands.median) == p1
    for j, ref in enumerate(reference_curve_bands(alpha, grid)):
        for got, want in zip((bands.median[j], bands.lower[j], bands.upper[j]), ref):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 39, 40, 41, 300, 301])
def test_sorted_lane_quantiles_match_numpy(m):
    """Order statistics read off sorted lanes equal numpy's, sign bit included.

    The median lanes mix +0.0 and -0.0.  The percentile lanes hold -0.0 only
    when M = 1: which of two equal zeros numpy's own partition leaves at an
    index is not fixed, and the curve draws of a fit, sums started from +0.0,
    hold none.
    """
    rng = np.random.default_rng(m)
    lanes = np.sort(rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5], size=(4, 60, m)), axis=-1)
    got, want = _sorted_median(lanes), np.median(lanes, axis=-1)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    values = [-np.inf, -1.0, 0.0, 5e-324, 0.5, 1.0, np.inf] + [-0.0] * (m == 1)
    lanes = np.sort(rng.choice(values, size=(4, 60, m)), axis=-1)
    for q in (TAIL, 100.0 - TAIL):
        with np.errstate(invalid="ignore"):
            got, want = _sorted_percentile(lanes, q), np.percentile(lanes, q, axis=-1)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_scalar_summaries():
    assert scalar_summary(np.full(9, 2.3))["median"] == pytest.approx(2.3)
    assert scalar_summary(np.array([1.0, 3.0]))["median"] == pytest.approx(2.0)
    rng = np.random.default_rng(2)
    draws = rng.normal(size=1001)
    s = scalar_summary(draws)
    assert s["median"] == pytest.approx(np.sort(draws)[500])
    assert s["lower"] == pytest.approx(np.percentile(draws, 2.5))

    m = 50
    samples = make_samples(
        np.zeros((m, 2, 2)),
        scalars={"theta": np.arange(m, dtype=float), "eta_sq": np.ones(m),
                 "pi0": np.linspace(0, 1, m)},
        beta=np.linspace(-1, 1, m)[:, None],
    )
    out = posterior_scalar_summaries(samples)
    assert set(out) == {"theta", "eta_sq", "pi0", "beta"}
    assert out["beta"][0]["median"] == pytest.approx(0.0, abs=1e-12)
