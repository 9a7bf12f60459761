"""Unit-level checks of the quantile Gibbs conditionals against dense and
quadrature oracles; the heavier moment/joint suites live in the acceptance
module.  The block, alpha_0 and beta conditionals are read off the stages
themselves, fed fixed noise (``oracles.FixedNoise``).  The alpha_0 and beta
conditionals and ``draw_response``, which the engine forms from either
likelihood's working Gaussian, are checked for the Gaussian likelihood too.
The sparse residual refresh is checked against the dense blocks, and the
memory of one wide-shape block stage against a (p, n) array."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bayesqvc import Dataset, GaussianPriorConfig, McmcOptions, PriorConfig, RngHandle
from bayesqvc import SplineConfig
from bayesqvc.ald import ald_constants, ald_log_density
from bayesqvc.rng import sample_gamma, sample_inverse_gaussian
from bayesqvc.samplers.engine import (
    _spline_predictor,
    draw_response,
    draw_state_from_prior,
    full_residual,
    initial_state,
    pi0_conditional_params,
    refresh_residual,
    run_chain,
    update_alpha0,
    update_alpha_block,
    update_alpha_blocks,
    update_beta,
    update_slab_scales,
)
from bayesqvc.samplers.engine import shrinkage_conditional_params as eta_sq_conditional_params
from bayesqvc.samplers.gaussian import build_gaussian_model
from bayesqvc.samplers.quantile import (
    build_quantile_model,
    theta_conditional_params,
    update_g,
    update_latent_u,
)
from bayesqvc.simulate import ScenarioSpec, simulate_dataset

from oracles import (
    FixedNoise,
    affine_moments,
    assert_moments,
    block_replay,
    block_slab_moments,
    check_state,
    dense_blocks,
    dense_partial_residual,
    dense_ridge_posterior,
    density_cdf_oracle,
    quantile_block_fixture,
    spike_decisions,
    spike_probability_oracle_quantile,
    with_block_paths,
)


# ---------------------------------------------------------------------------
# latent u

def test_latent_u_median_tau_reduction():
    # at tau = 0.5, kappa1 = 0 and the IG mean becomes 4/|r|, shape 2*theta
    c = ald_constants(0.5)
    assert math.sqrt(c.kappa1**2 + 2 * c.kappa2_sq) == pytest.approx(4.0)
    assert c.kappa1**2 / c.kappa2_sq + 2.0 == pytest.approx(2.0)


def test_latent_u_reciprocal_mean():
    # fixed r=1, theta=1, tau=0.5: E[1/u] equals the IG mean parameter 4
    n = 100_000
    ds = Dataset(y=np.ones(n), x=np.zeros((n, 1)), v=np.full(n, 0.5))
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), tau=0.5)
    state = initial_state(model)
    state.alpha[:] = 0.0
    refresh_residual(state, model)  # residuals all exactly 1
    rng = RngHandle(81, 0)
    u = update_latent_u(state, model, rng)
    assert np.all(u > 0)
    assert_moments(1.0 / u, mean=4.0, nse=3.0, label="1/u")


def test_latent_u_density_quadrature():
    # draws match the unnormalized conditional density via its CDF
    tau, theta, r = 0.3, 1.3, 0.8
    c = ald_constants(tau)
    n = 100_000
    ds = Dataset(y=np.full(n, r), x=np.zeros((n, 1)), v=np.full(n, 0.5))
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), tau=tau)
    state = initial_state(model)
    state.theta = theta
    refresh_residual(state, model)
    draws = update_latent_u(state, model, RngHandle(82, 0))

    rate_term = theta * c.kappa1**2 / c.kappa2_sq + 2.0 * theta

    def log_density(x):
        return -0.5 * math.log(x) - 0.5 * (rate_term * x + theta * r**2 / (c.kappa2_sq * x))

    assert density_cdf_oracle(log_density, draws) < 0.01


# ---------------------------------------------------------------------------
# alpha blocks: the block stage fed fixed noise (oracles.block_replay)

INCLUDED, EXCLUDED = 1, 2  # the one-block path and the run scan of with_block_paths


def _block_case(d: int, seed: int):
    """A quantile spike model with n = 5, p = 3, q = 1 and d basis functions, and a
    with_block_paths state with fixed latents, slab scales and pi0."""
    rng = np.random.default_rng(seed)
    n = 5
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, 3)), v=rng.random(n),
                 e=rng.normal(size=(n, 1)))
    model = build_quantile_model(ds, SplineConfig(d - 1, 0), PriorConfig(), tau=0.3)
    state = with_block_paths(model, rng)
    state.theta, state.u_tilde = 1.4, rng.gamma(2.0, 1.0, size=n)
    state.g[:] = (0.8, 1.2, 0.6)
    state.pi0 = 0.45
    return model, state


def _block_working_gaussian(model, state, j: int):
    """Block j's dense design Z_j, and the working weights and target of its partial residual."""
    zj = dense_blocks(model)[j]
    w, target = quantile_block_fixture(zj, dense_partial_residual(model, state, j),
                                       state.u_tilde, state.theta, model.consts.tau)
    return zj, w, target


def _check_spike_decisions(d: int, seed: int) -> None:
    """The stage's spike decision on both paths against the quadrature P(spike): exact at
    E = (1 -+ 1e-6) (-log P), through each decision entry."""
    model, state = _block_case(d, seed)
    for j in (INCLUDED, EXCLUDED):
        zj, w, target = _block_working_gaussian(model, state, j)
        prob = spike_probability_oracle_quantile(zj, target, w, state.g[j - 1], state.pi0)
        assert 0.05 < prob < 0.95
        assert spike_decisions(state, model, j, math.log(prob)) == [False, True] * 2


def test_spike_probability_degenerate_pi0():
    """pi0 = 1 sends a block to the spike at E = 0, the energy most in favour of the slab, and
    pi0 = 0 keeps it in the slab at E = 1e6; on both paths."""
    model, state = _block_case(2, 0)
    slab_energy, spike_energy = np.zeros(model.d + 2), np.r_[np.zeros(model.d), 1e3, 1e3]
    for j in (INCLUDED, EXCLUDED):
        state.pi0 = 1.0
        assert not block_replay(state, model, j, slab_energy).inclusion[j - 1]
        state.pi0 = 0.0
        assert block_replay(state, model, j, spike_energy).inclusion[j - 1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spike_probability_quadrature_d1(seed):
    _check_spike_decisions(1, seed)


def test_spike_probability_quadrature_d2():
    _check_spike_decisions(2, 42)


def test_alpha_block_no_data_case():
    # one observation with Z = 0 for the block: slab N(0, g I) and P(spike) = pi0
    ds = Dataset(y=np.array([1.0]), x=np.array([[0.0]]), v=np.array([0.5]))
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), tau=0.4)
    state = initial_state(model)
    state.g[:] = 2.7
    state.pi0 = 0.37
    refresh_residual(state, model)
    for included in (False, True):  # the run scan, then the one-block path
        state.alpha[1] = (0.3, -0.2) if included else 0.0
        state.inclusion[0] = included
        mean, cov = block_slab_moments(state, model, 1)
        np.testing.assert_allclose(cov, 2.7 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)
        assert spike_decisions(state, model, 1, math.log(0.37)) == [False, True] * 2


def test_alpha_block_moments_dense_oracle():
    """The slab mean and covariance the block stage draws from, on both paths, against the
    dense normal equations (Z_j' W Z_j + I/g_j)^-1 Z_j' W r."""
    model, state = _block_case(3, 8)
    for j in (INCLUDED, EXCLUDED):
        zj, w, target = _block_working_gaussian(model, state, j)
        mean, cov = block_slab_moments(state, model, j)
        mean_oracle, cov_oracle = dense_ridge_posterior(zj, w, target, state.g[j - 1])
        np.testing.assert_allclose(cov, cov_oracle, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(mean, mean_oracle, rtol=1e-10, atol=1e-12)
        # the gram folded from X' o X' and w vec(B_i B_i') is the dense Z_j' diag(w) Z_j
        gram = model.block_system(state, j, j)[0][0]
        np.testing.assert_allclose(gram, (zj.T * w) @ zj, rtol=1e-12, atol=0.0)


def test_point_mass_update_leaves_other_blocks(tiny_model):
    model = tiny_model
    state = draw_state_from_prior(model, RngHandle(10, 3))
    state.pi0 = 1.0  # force the point mass
    before = state.alpha.copy()
    update_alpha_block(state, model, 1, RngHandle(0, 0))
    assert np.all(state.alpha[1] == 0.0)
    assert not state.inclusion[0]
    np.testing.assert_array_equal(state.alpha[0], before[0])
    np.testing.assert_array_equal(state.alpha[2], before[2])
    # cache stays consistent
    np.testing.assert_allclose(state.resid, full_residual(state, model), atol=1e-10)


def test_block_updates_match_single_and_batched(tiny_model):
    model = tiny_model
    s1 = draw_state_from_prior(model, RngHandle(11, 0))
    s2 = copy.deepcopy(s1)
    rng_a = RngHandle(55, 0)
    rng_b = RngHandle(55, 0)
    update_alpha_blocks(s1, model, rng_a)
    for j in (1, 2):
        update_alpha_block(s2, model, j, rng_b)
    np.testing.assert_allclose(s1.alpha, s2.alpha, atol=1e-9)
    np.testing.assert_array_equal(s1.inclusion, s2.inclusion)


# ---------------------------------------------------------------------------
# alpha0 / beta conditionals and the simulated response, for both likelihoods

def _working_gaussians(tiny_dataset, tiny_model, tiny_state):
    """(model, state, weights, shift, sd) of each likelihood on the tiny data.

    Given the latents, y - shift ~ N(Z coef, diag(1/weights)) with sd the
    noise's standard deviation, written out here from each likelihood's own
    parameters: theta / (kappa2^2 u), kappa1 u and sqrt(kappa2^2 u / theta)
    for the quantile model, 1 / sigma_sq, 0 and sigma for the Gaussian one.
    """
    c, state = tiny_model.consts, tiny_state
    quantile_case = (tiny_model, state, state.theta / (c.kappa2_sq * state.u_tilde),
                     c.kappa1 * state.u_tilde, np.sqrt(c.kappa2_sq * state.u_tilde / state.theta))
    model = build_gaussian_model(tiny_dataset, SplineConfig(1, 0), GaussianPriorConfig())
    state = draw_state_from_prior(model, RngHandle(77, 5))
    gaussian_case = (model, state, np.full(model.n, 1.0 / state.sigma_sq), np.zeros(model.n),
                     np.full(model.n, math.sqrt(state.sigma_sq)))
    return [quantile_case, gaussian_case]


def _dense_ridge_moments(model, state, weights, shift, term: str):
    """Mean and covariance of alpha_0 (``term`` "alpha0") or beta given the rest, from the
    dense design."""
    blocks = dense_blocks(model)
    x, coef = (blocks[0], state.alpha[0]) if term == "alpha0" else (model.e, state.beta)
    fitted = np.einsum("jnd,jd->n", blocks, state.alpha) + model.e @ state.beta
    return dense_ridge_posterior(x, weights, model.y - shift - fitted + x @ coef,
                                 model.prior.prior_scale)


def _stage_moments(model, state, term: str):
    """Mean and covariance of update_alpha0's (``term`` "alpha0") or update_beta's draw, read
    off the stage fed fixed noise."""
    update, size = (update_alpha0, model.d) if term == "alpha0" else (update_beta, model.q)
    return affine_moments(lambda z: update(copy.deepcopy(state), model, FixedNoise(z)), size)


def _check_stage_moments(tiny_dataset, tiny_model, tiny_state, term: str) -> None:
    for model, state, weights, shift, _ in _working_gaussians(tiny_dataset, tiny_model,
                                                                tiny_state):
        mean, cov = _stage_moments(model, state, term)
        mean_oracle, cov_oracle = _dense_ridge_moments(model, state, weights, shift, term)
        np.testing.assert_allclose(cov, cov_oracle, atol=1e-12)
        np.testing.assert_allclose(mean, mean_oracle, atol=1e-12)


def test_beta_moments_dense_ridge_oracle(tiny_dataset, tiny_model, tiny_state):
    _check_stage_moments(tiny_dataset, tiny_model, tiny_state, "beta")


def test_alpha0_moments_dense_ridge_oracle(tiny_dataset, tiny_model, tiny_state):
    _check_stage_moments(tiny_dataset, tiny_model, tiny_state, "alpha0")


def test_draw_response_is_mean_plus_likelihood_noise(tiny_dataset, tiny_model, tiny_state):
    for model, state, _, shift, sd in _working_gaussians(tiny_dataset, tiny_model, tiny_state):
        mean = np.einsum("jnd,jd->n", dense_blocks(model), state.alpha) + model.e @ state.beta
        z = RngHandle(12, 3).gen.standard_normal(model.n)
        y = draw_response(state, model, RngHandle(12, 3))
        np.testing.assert_allclose(y, mean + shift + sd * z, rtol=0, atol=1e-12)


FIXED_EFFECT_DRAWS = 20_000


@pytest.mark.parametrize("term", ["alpha0", "beta"])
def test_fixed_effect_draws_follow_the_dense_ridge_conditional(tiny_dataset, tiny_model,
                                                              tiny_state, term):
    """update_alpha0 and update_beta draw from the dense ridge oracle's Gaussian, both likelihoods.

    The conditional does not depend on the term's current value, so repeated
    updates from one state are independent draws from it.  Whitened by the
    Cholesky factor R of the oracle precision, R'(draw - mean) is N(0, I):
    each coordinate's mean and variance and each pair's correlation are
    checked.
    """
    update = update_alpha0 if term == "alpha0" else update_beta
    for model, state, weights, shift, _ in _working_gaussians(tiny_dataset, tiny_model,
                                                                tiny_state):
        mean, cov = _dense_ridge_moments(model, state, weights, shift, term)
        rng = RngHandle(41, 0)
        draws = np.array([update(state, model, rng).copy() for _ in range(FIXED_EFFECT_DRAWS)])
        white = (draws - mean) @ np.linalg.cholesky(np.linalg.inv(cov))
        assert white.shape[1] >= 2
        for i in range(white.shape[1]):
            assert_moments(white[:, i], 0.0, 1.0, label=f"{type(model).__name__} {term}[{i}]")
        corr = np.corrcoef(white.T)[np.triu_indices(white.shape[1], 1)]
        assert np.all(np.abs(corr) < 4.0 / math.sqrt(FIXED_EFFECT_DRAWS)), corr


def test_collinear_clinical_columns(tiny_dataset):
    """Two identical E columns make E'WE singular; the ridge keeps the beta precision definite.

    update_beta draws finite values, from the moments of the dense ridge oracle.
    """
    e = np.repeat(tiny_dataset.e[:, :1], 2, axis=1)
    ds = Dataset(y=tiny_dataset.y, x=tiny_dataset.x, v=tiny_dataset.v, e=e)
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), tau=0.3)
    state = draw_state_from_prior(model, RngHandle(77, 5))
    for model, state, weights, shift, _ in _working_gaussians(ds, model, state):
        assert np.linalg.matrix_rank(model.e.T @ np.diag(weights) @ model.e) == 1
        mean, cov = _dense_ridge_moments(model, state, weights, shift, "beta")
        mu, sigma = _stage_moments(model, state, "beta")
        np.testing.assert_allclose(sigma, cov, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(mu, mean, rtol=1e-10, atol=1e-12)
        rng = RngHandle(6, 0)
        for _ in range(20):
            assert np.all(np.isfinite(update_beta(state, model, rng)))
            np.testing.assert_allclose(state.resid, full_residual(state, model), atol=1e-9)


def test_beta_degenerate_prior_pins_posterior(tiny_dataset):
    prior = PriorConfig(prior_scale=1e-16)
    model = build_quantile_model(tiny_dataset, SplineConfig(1, 0), prior, tau=0.3)
    state = draw_state_from_prior(model, RngHandle(3, 0))
    mu, _ = _stage_moments(model, state, "beta")
    np.testing.assert_allclose(mu, 0.0, atol=1e-10)


def test_beta_diffuse_prior_matches_weighted_projection(tiny_dataset):
    prior = PriorConfig(prior_scale=1e8)
    model = build_quantile_model(tiny_dataset, SplineConfig(1, 0), prior, tau=0.3)
    state = draw_state_from_prior(model, RngHandle(3, 0))
    state.u_tilde = np.ones(model.n)  # equal weights
    refresh_residual(state, model)
    mu, _ = _stage_moments(model, state, "beta")
    c = model.consts
    zsum = np.einsum("jnd,jd->n", dense_blocks(model), state.alpha)
    target = model.y - zsum - c.kappa1 * state.u_tilde
    projection, *_ = np.linalg.lstsq(model.e, target, rcond=None)
    np.testing.assert_allclose(mu, projection, rtol=1e-5)


# ---------------------------------------------------------------------------
# scalar conditionals

def test_theta_conditional_params(tiny_dataset):
    """Collapsed theta | residual against the prior times the ALD likelihood, up to a constant.

    On a theta grid, differences of the Gamma log-density must equal those
    of log prior + sum_i ald_log_density(r_i, theta, tau): u is integrated
    out, so neither u nor the mixture constants enter.  Covers tau near 0
    and 1 and an all-zero residual.
    """
    prior = PriorConfig(a=2.0, b=1.5)
    grid = np.array([0.05, 0.3, 1.0, 2.7, 9.0])
    resid = np.random.default_rng(8).normal(scale=3.0, size=tiny_dataset.n)
    for tau in (0.01, 0.5, 0.99):
        model = build_quantile_model(tiny_dataset, SplineConfig(1, 0), prior, tau=tau)
        state = initial_state(model)
        state.u_tilde = np.full(model.n, np.nan)  # the collapsed conditional must not read u
        for r in (resid, np.zeros(model.n)):
            state.resid = r
            shape, rate = theta_conditional_params(state, model)
            posterior = stats.gamma.logpdf(grid, shape, scale=1.0 / rate)
            target = stats.gamma.logpdf(grid, prior.a, scale=1.0 / prior.b) + np.array(
                [np.sum(ald_log_density(r, theta, tau)) for theta in grid]
            )
            np.testing.assert_allclose(np.diff(posterior), np.diff(target), rtol=1e-10,
                                       atol=1e-9, err_msg=f"tau={tau}")


def test_eta_sq_conditional_params():
    """Shape (d+1)/2 k + c and rate sum_included g / 2 + m over the k included blocks."""
    # d=5, p=100, c=1, m=2
    ds = Dataset(
        y=np.zeros(3), x=np.zeros((3, 100)), v=np.array([0.1, 0.5, 0.9])
    )
    model = build_quantile_model(ds, SplineConfig(2, 2), PriorConfig(c=1.0, m=2.0), tau=0.5)
    state = initial_state(model)
    state.g = np.linspace(0.5, 3.0, 100)
    # no block included: the prior
    assert eta_sq_conditional_params(state, model) == pytest.approx((1.0, 2.0))
    # blocks 3, 10 and 41 included: only their slab scales enter
    included = [2, 9, 40]
    state.alpha[[j + 1 for j in included], 0] = 1.0
    state.inclusion[included] = True
    shape, rate = eta_sq_conditional_params(state, model)
    assert shape == pytest.approx(3.0 * 3 + 1.0)
    assert rate == pytest.approx(0.5 * sum(state.g[j] for j in included) + 2.0)
    # every block included: the uncollapsed conditional, 301
    state.alpha[1:, 0] = 1.0
    state.inclusion[:] = True
    shape, rate = eta_sq_conditional_params(state, model)
    assert shape == pytest.approx(301.0)
    assert rate == pytest.approx(0.5 * np.sum(state.g) + 2.0)


def test_g_update_zero_branch_moments():
    # alpha_j = 0, d = 5, eta^2 = 4: g ~ Gamma(3, 2) with mean 1.5
    p = 100_000
    ds = Dataset(y=np.zeros(3), x=np.zeros((3, p)), v=np.array([0.1, 0.5, 0.9]))
    model = build_quantile_model(ds, SplineConfig(2, 2), PriorConfig(), tau=0.5)
    state = initial_state(model)
    state.eta_sq = 4.0
    g = update_g(state, model, RngHandle(61, 0))
    assert_moments(g, mean=1.5, var=3.0 / 4.0, nse=4.0, label="g|alpha=0")


def test_g_update_nonzero_branch():
    # ||alpha||^2 = eta^2 makes the IG mean parameter one: 1/g ~ IG(1, eta^2)
    p = 50_000
    ds = Dataset(y=np.zeros(3), x=np.ones((3, p)), v=np.array([0.1, 0.5, 0.9]))
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), tau=0.5)
    state = initial_state(model)
    eta_sq = 2.5
    state.eta_sq = eta_sq
    state.alpha[1:, 0] = math.sqrt(eta_sq)  # ||alpha_j||^2 = eta^2
    state.inclusion[:] = True
    refresh_residual(state, model)
    g = update_g(state, model, RngHandle(62, 0))
    assert_moments(
        1.0 / g, mean=1.0, var=1.0 / eta_sq, nse=4.0, label="1/g|alpha!=0"
    )


@pytest.mark.parametrize("likelihood", ["quantile", "gaussian"])
@pytest.mark.parametrize("included", ["none", "some", "all"])
def test_slab_scale_draws_follow_their_stream_contract(likelihood, included):
    """One Gamma call for the excluded blocks, then the IG draws of the included ones."""
    rng = np.random.default_rng(21)
    n, p = 10, 7
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, p)), v=rng.random(n))
    if likelihood == "quantile":
        model = build_quantile_model(ds, SplineConfig(2, 1), PriorConfig(), tau=0.3)
    else:
        model = build_gaussian_model(ds, SplineConfig(2, 1), GaussianPriorConfig())
    state = initial_state(model)
    state.shrink = 1.7
    if likelihood == "gaussian":
        state.sigma_sq = 0.6
    inclusion = {"none": np.zeros(p, bool), "some": np.arange(p) % 3 == 1,
                 "all": np.ones(p, bool)}[included]
    state.alpha[1:][inclusion] = rng.normal(size=(inclusion.sum(), model.d))
    state.inclusion[:] = inclusion
    check_state(state)

    reference = RngHandle(8, 2)
    expected = np.empty(p)
    if not inclusion.all():
        expected[~inclusion] = sample_gamma(reference, 0.5 * (model.d + 1), 0.5 * state.shrink,
                                            size=int((~inclusion).sum()))
    if inclusion.any():
        norms = np.sum(state.alpha[1:][inclusion] ** 2, axis=1)
        mean = np.sqrt(state.noise_scale * state.shrink / norms)
        expected[inclusion] = 1.0 / sample_inverse_gaussian(reference, mean, state.shrink)
    drawn = update_slab_scales(state, model, RngHandle(8, 2))
    np.testing.assert_array_equal(drawn, expected)
    np.testing.assert_array_equal(state.slab, expected)

    if inclusion.any():
        state.alpha[1 + np.flatnonzero(inclusion)[-1]] = 0.0  # an included block at zero
        with pytest.raises(RuntimeError, match="inclusion"):
            update_slab_scales(state, model, RngHandle(8, 2))


def test_g_update_inconsistent_state_raises(tiny_model, tiny_state):
    state = tiny_state
    state.alpha[1] = 0.0
    state.inclusion[0] = True  # contradicts the zero block
    with pytest.raises(RuntimeError, match="inclusion"):
        update_g(state, tiny_model, RngHandle(0, 0))


def test_pi0_counting(tiny_model):
    ds = Dataset(y=np.zeros(3), x=np.zeros((3, 10)), v=np.array([0.1, 0.5, 0.9]))
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(e=1.0, f=1.0), tau=0.5)
    state = initial_state(model)
    state.alpha[1:4, 0] = 1.0
    state.inclusion[:3] = True
    assert pi0_conditional_params(state, model) == (8.0, 4.0)
    state.alpha[:] = 0.0
    state.inclusion[:] = False
    assert pi0_conditional_params(state, model) == (11.0, 1.0)
    state.alpha[1:, 0] = 1.0
    state.inclusion[:] = True
    assert pi0_conditional_params(state, model) == (1.0, 11.0)


# ---------------------------------------------------------------------------
# chain start

@pytest.mark.parametrize("tau", [0.001, 0.5, 0.999])
@pytest.mark.parametrize("zero_y", [False, True], ids=["y", "zero-y"])
def test_start_theta_is_its_conditional_mean(tiny_dataset, tau, zero_y):
    """The null start: no block, zero coefficients, residual y, and theta at shape / rate
    of its conditional given them, finite and positive also for y = 0 and tau near 0 or 1."""
    ds = tiny_dataset
    if zero_y:
        ds = Dataset(y=np.zeros(ds.n), x=ds.x, v=ds.v, e=ds.e)
    model = build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), tau=tau)
    state = initial_state(model)
    assert not state.inclusion.any() and not state.alpha.any() and not state.beta.any()
    np.testing.assert_array_equal(state.resid, model.y)
    shape, rate = theta_conditional_params(state, model)
    assert state.theta == shape / rate
    assert math.isfinite(state.theta) and state.theta > 0.0
    np.testing.assert_array_equal(state.u_tilde, 1.0)
    np.testing.assert_array_equal(state.g, 1.0)
    assert (state.eta_sq, state.pi0) == (1.0, 0.5)


# ---------------------------------------------------------------------------
# chain driver

def test_run_chain_zero_kept_rejected(tiny_dataset):
    with pytest.raises(ValueError):
        run_chain(
            build_quantile_model(tiny_dataset, SplineConfig(1, 0), PriorConfig(), 0.5),
            McmcOptions(iterations=100, burn_in=100, seed=1), 0,
        )


def test_run_chain_reproducible(tiny_dataset):
    opts = McmcOptions(iterations=60, burn_in=20, thin=2, seed=5, store_latents=True)
    a = run_chain(build_quantile_model(tiny_dataset, SplineConfig(1, 0), PriorConfig(), 0.5),
                  opts, 1)
    b = run_chain(build_quantile_model(tiny_dataset, SplineConfig(1, 0), PriorConfig(), 0.5),
                  opts, 1)
    assert a.stored == 20
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.scalars["theta"], b.scalars["theta"])
    np.testing.assert_array_equal(a.latents["u_tilde"], b.latents["u_tilde"])


def test_stored_states_satisfy_invariants(tiny_dataset):
    chain = run_chain(
        build_quantile_model(tiny_dataset, SplineConfig(1, 0), PriorConfig(), 0.3),
        McmcOptions(iterations=80, burn_in=30, seed=9, store_latents=True), 0,
    )
    assert np.all(chain.latents["u_tilde"] > 0)
    assert np.all(chain.latents["g"] > 0)
    assert np.all(chain.scalars["theta"] > 0)
    assert np.all(chain.scalars["eta_sq"] > 0)
    assert np.all((chain.scalars["pi0"] >= 0) & (chain.scalars["pi0"] <= 1))
    nonzero = np.any(chain.alpha[:, 1:, :] != 0.0, axis=2)
    np.testing.assert_array_equal(nonzero, chain.inclusion.astype(bool))


def test_spike_chain_stores_only_the_included_rows(tiny_dataset):
    chain = run_chain(
        build_quantile_model(tiny_dataset, SplineConfig(1, 0), PriorConfig(), 0.3),
        McmcOptions(iterations=80, burn_in=30, seed=9, store_latents=True), 0,
    )
    m, p = chain.inclusion.shape
    d = chain.alpha0.shape[1]
    assert 0 < chain.inclusion.sum() < m * p
    assert chain.rows.shape == (chain.inclusion.sum(), d)
    stored = [v for v in vars(chain).values() if isinstance(v, np.ndarray)]
    stored += [v for k in ("scalars", "latents") for v in getattr(chain, k).values()]
    assert all(a.ndim <= 2 for a in stored)
    dense = chain.alpha
    assert dense.shape == (m, p + 1, d) and not dense.flags.writeable
    np.testing.assert_array_equal(dense[:, 0], chain.alpha0)
    np.testing.assert_array_equal(dense[:, 1:][chain.inclusion != 0], chain.rows)


def test_run_chain_p_zero_recovers_constant_intercept():
    # pure varying-intercept quantile regression on a constant truth
    rng = RngHandle(123, 0)
    n = 120
    v = rng.gen.random(n)
    y = 3.0 + 0.3 * rng.gen.standard_normal(n)
    ds = Dataset(y=y, x=np.zeros((n, 0)), v=v)
    chain = run_chain(
        build_quantile_model(ds, SplineConfig(2, 2), PriorConfig(), 0.5),
        McmcOptions(iterations=1200, burn_in=400, seed=7), 0,
    )
    from bayesqvc.basis import basis_values, default_grid

    grid = default_grid(50)
    curves = chain.alpha[:, 0, :] @ basis_values(grid, SplineConfig(2, 2)).T
    med = np.median(curves, axis=0)
    lo = np.percentile(curves, 2.5, axis=0)
    hi = np.percentile(curves, 97.5, axis=0)
    assert np.max(np.abs(med - 3.0)) < 0.5
    assert np.mean((lo <= 3.0) & (3.0 <= hi)) > 0.8


@pytest.mark.parametrize("spike", [True, False])
def test_full_residual_matches_dense_blocks(spike):
    """A spike state with mixed inclusion sums alpha_0 and its included rows; a plain
    state includes every block."""
    rng = np.random.default_rng(9)
    n, p = 12, 6
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, p)), v=rng.random(n),
                 e=rng.normal(size=(n, 2)))
    model = build_quantile_model(ds, SplineConfig(2, 1), PriorConfig(), tau=0.3, spike=spike)
    state = draw_state_from_prior(model, RngHandle(5, 0))
    assert 0 < state.inclusion.sum() < p if spike else state.inclusion.all()
    predictor = np.einsum("jnd,jd->n", dense_blocks(model), state.alpha)
    np.testing.assert_allclose(full_residual(state, model),
                               model.y - model.e @ state.beta - predictor, rtol=0, atol=1e-12)


@pytest.mark.parametrize("included", ["none", "some", "all"])
def test_spline_predictor_matches_dense_block_sum(included):
    rng = np.random.default_rng(14)
    n, p = 11, 6
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, p)), v=rng.random(n))
    model = build_quantile_model(ds, SplineConfig(2, 2), PriorConfig(), tau=0.4)
    flags = {"none": np.zeros(p, bool), "some": np.arange(p) % 2 == 0,
             "all": np.ones(p, bool)}[included]
    alpha = rng.normal(size=(p + 1, model.d))
    alpha[1:][~flags] = 0.0
    dense = np.einsum("jnd,jd->n", dense_blocks(model), alpha)
    np.testing.assert_allclose(_spline_predictor(model, alpha, flags), dense, rtol=1e-12)
    np.testing.assert_allclose(_spline_predictor(model, alpha), dense, rtol=1e-12)


def test_dense_residual_and_response_form_no_p_by_n_temporary():
    """At n=200, p=2000 a (p, n) float array is 3.2 MB.  The residual of a state that
    includes every block and a simulated response each stay below a tenth of that."""
    dataset, _, _ = simulate_dataset(ScenarioSpec(n=200, p=2000, seed=1))
    model = build_quantile_model(dataset, SplineConfig(2, 2), PriorConfig(), tau=0.5,
                                 spike=False)
    state, rng = initial_state(model), RngHandle(2, 0)
    state.alpha[:] = 0.1 * rng.gen.normal(size=state.alpha.shape)
    state.inclusion[:] = True
    state.u_tilde = rng.gen.exponential(size=model.n)
    p_by_n = model.p * model.n * 8
    peaks = []
    tracemalloc.start()
    for call in (lambda: full_residual(state, model), lambda: draw_response(state, model, rng)):
        tracemalloc.reset_peak()
        call()
        peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    assert max(peaks) < p_by_n / 10


def test_block_stage_and_residual_refresh_form_no_p_by_n_temporary():
    """At n=200, p=2000 a (p, n) float array is 3.2 MB.  One residual refresh of a
    sparse state stays below a tenth of that, and one spike block stage below it."""
    dataset, _, _ = simulate_dataset(ScenarioSpec(n=200, p=2000, seed=1))
    model = build_quantile_model(dataset, SplineConfig(2, 2), PriorConfig(), tau=0.5)
    state, rng = initial_state(model), RngHandle(1, 0)
    state.alpha[1:11] = 0.1 * rng.gen.normal(size=(10, model.d))  # the sparse optimum's ~10 blocks
    state.inclusion[:10] = True
    state.u_tilde = rng.gen.exponential(size=model.n)
    refresh_residual(state, model)
    p_by_n = model.p * model.n * 8
    tracemalloc.start()
    refresh_residual(state, model)
    refresh_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    update_alpha_blocks(state, model, rng)
    stage_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert refresh_peak < p_by_n / 10
    assert stage_peak < p_by_n


def test_sweep_keeps_residual_cache_fresh(tiny_model):
    state = initial_state(tiny_model)
    rng = RngHandle(31, 0)
    for _ in range(5):
        tiny_model.sweep(state, rng)
        np.testing.assert_allclose(
            state.resid, full_residual(state, tiny_model), atol=1e-9
        )
        check_state(state)
