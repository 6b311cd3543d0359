import math

import numpy as np
import numpy.testing as npt
import pytest

from gmsmooth.backward import DegenerateGaussian, LogQuadLikelihood, backward_pass
from gmsmooth.baselines import build_joint, condition_joint
from gmsmooth.forward import (
    fuse_initial,
    log_path_posterior,
    propagate_marginals,
    smooth,
)
from gmsmooth.linalg import LOG_2PI, RTOL
from gmsmooth.model import (
    FlatEverywhere,
    FlatOnSupport,
    GaussMarkovModel,
    ObservationRecord,
    Proper,
    simulate_batch,
)

from conftest import gaussian_logpdf, random_model, smoothing_oracle
from test_model import scalar_random_walk

_TURN = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])


def conditioned_likelihood(s, rotate, rows=2):
    """x0-likelihood with c_bar = diag(s, 1) R', y_bar = 0 and log_c = 0: its
    x0 posterior is N(0, R diag(s^-2, 1) R') on R^2 (rows=1 keeps s's row only)."""
    r = _TURN if rotate else np.eye(2)
    return LogQuadLikelihood(0.0, np.zeros(rows), (np.diag([s, 1.0]) @ r.T)[:rows]), r


class TestFuseInitial:
    def test_proper_scalar(self):
        lik0 = LogQuadLikelihood(-0.5 * LOG_2PI, [1.0], [[1.0]])
        post, log_l = fuse_initial(lik0, Proper([0.0], [[1.0]]))
        npt.assert_allclose(log_l, gaussian_logpdf([1.0], [0.0], [[2.0]]), atol=1e-12)
        npt.assert_allclose(post.mean, [0.5])
        npt.assert_allclose(post.cov, [[0.5]], atol=1e-12)

    def test_flat_on_support_full_rank_scalar(self):
        lik0 = LogQuadLikelihood(-0.5 * LOG_2PI, [2.0], [[1.0]])
        post, log_l = fuse_initial(lik0, FlatOnSupport())
        npt.assert_allclose(post.mean, [2.0])
        npt.assert_allclose(post.cov, [[1.0]])
        assert post.rank == 1
        npt.assert_allclose(log_l, 0.0, atol=1e-12)

    def test_empty_likelihood_proper(self):
        prior = Proper([1.0, 2.0], np.diag([1.0, 2.0]))
        post, log_l = fuse_initial(LogQuadLikelihood.empty(2), prior)
        assert log_l == 0.0
        npt.assert_array_equal(post.mean, prior.mean)
        npt.assert_array_equal(post.cov, prior.cov)

    def test_unknown_initial_distribution_rejected(self):
        lik0 = LogQuadLikelihood(0.0, [2.0], [[1.0]])
        with pytest.raises(TypeError, match="unknown initial distribution 'flat'"):
            fuse_initial(lik0, "flat")

    def test_flat_everywhere_infinite_evidence(self):
        lik0 = LogQuadLikelihood(-0.5 * LOG_2PI, [2.0], [[1.0]])
        post, log_l = fuse_initial(lik0, FlatEverywhere())
        assert math.isinf(log_l)
        npt.assert_allclose(post.mean, [2.0])

    def test_flat_on_support_evidence_formula(self, rng):
        lik0 = LogQuadLikelihood(
            rng.standard_normal(), rng.standard_normal(2), rng.standard_normal((2, 3))
        )
        post, log_l = fuse_initial(lik0, FlatOnSupport())
        # the pseudo-covariance's determinant is 1 / prod s^2 over c_bar's kept singular values
        sv = np.linalg.svd(lik0.c_bar, compute_uv=False)
        kept = sv[sv > RTOL * sv[0]]
        assert post.rank == kept.size
        expected = lik0.log_c + 0.5 * kept.size * LOG_2PI - np.log(kept).sum()
        npt.assert_allclose(log_l, expected, rtol=1e-14)

    @pytest.mark.parametrize("batch", [None, 3])
    def test_flat_on_support_evidence_keeps_data_off_the_range(self, batch):
        # two rows seeing x_1 alone: h(x_1, 0) = c exp(-((x_1 - a)^2 + (x_1 - b)^2) / 2),
        # whose integral is c exp(-(a - b)^2 / 4) sqrt(pi)
        y = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]])[: batch or 1]
        y = y[0] if batch is None else y
        lik0 = LogQuadLikelihood(-LOG_2PI, y, [[1.0, 0.0], [1.0, 0.0]])
        post, log_l = fuse_initial(lik0, FlatOnSupport())
        assert post.rank == 1
        gap = y[..., 0] - y[..., 1]
        npt.assert_allclose(log_l, -LOG_2PI - gap**2 / 4 + 0.5 * np.log(np.pi), rtol=1e-14)

    @pytest.mark.parametrize("rotate", [False, True], ids=["axes", "rotated"])
    @pytest.mark.parametrize("s", [1e4, 1e6, 1e8])
    def test_flat_on_support_evidence_ill_conditioned(self, s, rotate):
        # an eigenvalue rule on the pseudo-covariance (spread s^2) drops s's direction
        lik0, _ = conditioned_likelihood(s, rotate)
        post, log_l = fuse_initial(lik0, FlatOnSupport())
        assert post.rank == 2
        npt.assert_allclose(log_l, LOG_2PI - np.log(s), rtol=0, atol=1e-12)
        # the diffuse-prior limit: log L under N(0, k I) plus log (2 pi k)^{n/2}
        k = 1e12
        _, log_l_diffuse = fuse_initial(lik0, Proper(np.zeros(2), k * np.eye(2)))
        npt.assert_allclose(log_l_diffuse + np.log(2 * np.pi * k), log_l, rtol=0, atol=1e-9)


class TestPropagateMarginals:
    def test_no_transitions(self):
        post0 = Proper([1.0], [[2.0]])
        result = propagate_marginals(post0, [])
        assert len(result.marginals) == 1
        assert result.marginals[0] is post0

    def test_identity_kernels(self, rng):
        from gmsmooth.model import Transition

        post0 = Proper(rng.standard_normal(2), np.eye(2))
        kernels = [
            Transition(np.eye(2), np.zeros(2), np.zeros((2, 2)))
            for _ in range(4)
        ]
        result = propagate_marginals(post0, kernels)
        for marg in result.marginals:
            npt.assert_allclose(marg.mean, post0.mean)
            npt.assert_allclose(marg.cov, post0.cov)

    def test_scalar_model_matches_oracle(self, rng):
        model = scalar_random_walk(horizon=5, values=list(rng.standard_normal(5)))
        result = smooth(model)
        oracle_marginals, _, _ = smoothing_oracle(model)
        for a, b in zip(result.marginals, oracle_marginals):
            npt.assert_allclose(a.mean, b.mean, atol=1e-8)
            npt.assert_allclose(a.cov, b.cov, atol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_models_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        result = smooth(model)
        oracle_marginals, _, evidence = smoothing_oracle(model)
        npt.assert_allclose(result.log_marginal_likelihood, evidence, atol=1e-8)
        for a, b in zip(result.marginals, oracle_marginals):
            npt.assert_allclose(a.mean, b.mean, atol=1e-8)
            npt.assert_allclose(a.cov, b.cov, atol=1e-8)


class TestLogPathPosterior:
    def test_horizon_zero_proper(self):
        post0 = Proper([1.0], [[2.0]])
        result = propagate_marginals(post0, [])
        x0 = np.array([0.3])
        npt.assert_allclose(
            log_path_posterior(result, [x0]), gaussian_logpdf(x0, [1.0], [[2.0]])
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_joint_posterior(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, zero_q_frac=0.0, singular_phi_frac=0.2)
        result = smooth(model)
        mean, cov, evidence = condition_joint(build_joint(model))
        n = model.state_dim
        for _ in range(10):
            path = [rng.standard_normal(n) for _ in range(model.horizon + 1)]
            flat = np.concatenate(path)
            expected = gaussian_logpdf(flat, mean, cov + 1e-13 * np.eye(cov.shape[0]))
            got = log_path_posterior(result, path)
            npt.assert_allclose(got, expected, atol=1e-7)

    def test_off_support_point_rejected(self):
        post0 = DegenerateGaussian([0.0, 0.0], np.diag([1.0, 0.0]), 1, 0.0, np.eye(1, 2))
        result = propagate_marginals(post0, [])
        with pytest.raises(ValueError, match="off the support"):
            log_path_posterior(result, [np.array([0.0, 1.0])])

    @pytest.mark.parametrize("rotate", [False, True], ids=["axes", "rotated"])
    @pytest.mark.parametrize("s", [1e4, 1e6, 1e8])
    def test_flat_posterior_density_at_t0(self, s, rotate):
        # cov stores its s^-2 eigenvalue only to ~eps s^2: the quadratic form must not read it
        lik0, r = conditioned_likelihood(s, rotate)
        result = propagate_marginals(fuse_initial(lik0, FlatOnSupport())[0], [])
        for z in ([1.0 / s, 0.5], [3.0 / s, 0.0]):  # one and three sigma along s's direction
            exact = -0.5 * (2 * LOG_2PI - 2 * np.log(s) + (s * z[0]) ** 2 + z[1] ** 2)
            npt.assert_allclose(log_path_posterior(result, [r @ z]), exact, rtol=1e-9)
        # with s's row alone the support is the line R (1, 0)
        lik0, r = conditioned_likelihood(s, rotate, rows=1)
        result = propagate_marginals(fuse_initial(lik0, FlatOnSupport())[0], [])
        npt.assert_allclose(
            log_path_posterior(result, [r @ [1.0 / s, 0.0]]), -0.5 * (LOG_2PI - 2 * np.log(s) + 1)
        )
        with pytest.raises(ValueError, match="off the support"):
            log_path_posterior(result, [r @ [0.0, 0.5]])

    @pytest.mark.parametrize("horizon", [0, 3])
    def test_wrong_size_state_rejected(self, horizon):
        # a length-1 state over n = 2 would broadcast against the mean at t = 0
        model = random_model(np.random.default_rng(horizon), n=2, horizon=max(horizon, 1))
        if horizon == 0:
            result = propagate_marginals(smooth(model).marginals[0], [])
        else:
            result = smooth(model)
        for bad in range(horizon + 1):
            path = [np.zeros(2) for _ in range(horizon + 1)]
            path[bad] = np.array([0.3])
            with pytest.raises(ValueError, match="path state dimension mismatch"):
                log_path_posterior(result, path)

    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_path_length_rejected(self, length):
        result = smooth(random_model(np.random.default_rng(0), n=2, horizon=3))
        with pytest.raises(ValueError, match="one state per time index"):
            log_path_posterior(result, [np.zeros(2)] * length)

    @pytest.mark.parametrize("seed", range(5))
    def test_bayes_consistency(self, seed):
        # log L + log posterior(path) = log prior(path) + sum log h_t(y_t)
        rng = np.random.default_rng(seed)
        model = random_model(rng, zero_q_frac=0.0, singular_phi_frac=0.2)
        result = smooth(model)
        n = model.state_dim
        for _ in range(10):
            path = [rng.standard_normal(n) for _ in range(model.horizon + 1)]
            lhs = result.log_marginal_likelihood + log_path_posterior(result, path)
            rhs = gaussian_logpdf(path[0], model.initial.mean, model.initial.cov + 1e-13 * np.eye(n))
            for t in range(1, model.horizon + 1):
                tr = model.transition(t)
                rhs += gaussian_logpdf(
                    path[t], tr.phi @ path[t - 1] + tr.offset, tr.noise_cov
                )
                rec = model.observation(t)
                if not rec.is_missing:
                    rhs += gaussian_logpdf(
                        rec.value, rec.model.c @ path[t], rec.model.noise_cov
                    )
            npt.assert_allclose(lhs, rhs, atol=1e-7)


def _z_max(samples, mean, cov):
    """Largest |z| of the sample mean over the components whose variance is above
    1e-12 of the largest; the rest are constant up to rounding."""
    var = cov.diagonal()
    keep = var > 1e-12 * var.max(initial=0.0)
    z = (samples.mean(axis=0) - mean)[keep] / np.sqrt(var[keep] / len(samples))
    return np.abs(z).max(initial=0.0)


class TestPosteriorPathDraws:
    """The path posterior is a model in the prior's own types: no sensor, the x0
    posterior as initial distribution and the smoothing kernels as transitions,
    so ``simulate_batch`` draws whole posterior paths from it as it stands."""

    DRAWS = 4000

    @staticmethod
    def posterior_model(model, result):
        records = [ObservationRecord(t) for t in range(1, model.horizon + 1)]
        return GaussMarkovModel(
            model.state_dim, model.horizon, result.transitions, records, result.marginals[0]
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_proper_prior_whole_path(self, seed):
        model = random_model(np.random.default_rng(seed))
        post = self.posterior_model(model, smooth(model))
        paths = simulate_batch(post, range(self.DRAWS))[0].reshape(self.DRAWS, -1)
        mean, cov, _ = condition_joint(build_joint(model))
        assert _z_max(paths, mean, cov) <= 4.5
        assert np.abs(np.cov(paths.T) - cov).max() <= 0.1 * np.abs(cov).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_on_support_marginals(self, seed):
        model = random_model(np.random.default_rng(seed), initial=FlatOnSupport())
        result = smooth(model)
        post = self.posterior_model(model, result)
        assert isinstance(post.initial, DegenerateGaussian)  # factored by psd_chol's eigh
        states = simulate_batch(post, range(self.DRAWS))[0]
        for t, marg in enumerate(result.marginals):
            assert _z_max(states[:, t], marg.mean, marg.cov) <= 4.5, t


class TestFlatPriorLimit:
    # the draws among seeds 0..6 whose x0-likelihood is solidly full rank
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 6])
    def test_diffuse_proper_prior_converges(self, seed):
        rng = np.random.default_rng(seed)
        # enough observations so the x0-likelihood has full rank n
        model = random_model(
            rng, n=2, horizon=6, zero_q_frac=0.0, singular_phi_frac=0.0
        )
        backward = backward_pass(model)
        lik0 = backward.initial_likelihood
        sv = np.linalg.svd(lik0.c_bar, compute_uv=False)
        assert sv.size == model.state_dim and sv.min() >= 0.05

        model.initial = FlatOnSupport()
        flat = smooth(model)

        model.initial = Proper(np.zeros(model.state_dim), 1e8 * np.eye(model.state_dim))
        diffuse = smooth(model)

        for a, b in zip(flat.marginals, diffuse.marginals):
            scale = max(1.0, np.abs(b.mean).max())
            npt.assert_allclose(a.mean, b.mean, atol=1e-4 * scale)
            cscale = max(1.0, np.abs(b.cov).max())
            npt.assert_allclose(a.cov, b.cov, atol=1e-4 * cscale)

    def test_flat_everywhere_marginals_match_flat_on_support(self, rng):
        model = random_model(rng, n=2, horizon=6, zero_q_frac=0.0, singular_phi_frac=0.0)
        model.initial = FlatOnSupport()
        a = smooth(model)
        model.initial = FlatEverywhere()
        b = smooth(model)
        assert math.isinf(b.log_marginal_likelihood)
        assert math.isfinite(a.log_marginal_likelihood)
        for ma, mb in zip(a.marginals, b.marginals):
            npt.assert_allclose(ma.mean, mb.mean)
            npt.assert_allclose(ma.cov, mb.cov)

    def test_flat_on_support_evidence_matches_dense_least_squares(self):
        # the integral of p(y | x0) over the support, from the stacked observation map:
        # N(y; H x0 + b, S) at the least-squares x0 times (2 pi)^{r/2} / prod s_i(S^-1/2 H)
        from gmsmooth.baselines import stacked_observation_map

        deficient = set()
        for seed in range(40):
            model = random_model(np.random.default_rng(seed), missing_frac=0.3)
            model.initial = FlatOnSupport()
            h, b, s, y = stacked_observation_map(model, 0)
            l = np.linalg.cholesky(s)
            hw, yw = np.linalg.solve(l, h), np.linalg.solve(l, y - b)
            sv = np.linalg.svd(hw, compute_uv=False)
            kept = sv[sv > RTOL * sv[0]]
            resid = yw - hw @ (np.linalg.pinv(hw, rcond=RTOL) @ yw)
            expected = -0.5 * (resid @ resid + (y.size - kept.size) * LOG_2PI)
            expected -= np.log(np.diag(l)).sum() + np.log(kept).sum()
            npt.assert_allclose(smooth(model).log_marginal_likelihood, expected, atol=1e-7)
            deficient.add(kept.size < model.state_dim)
        assert deficient == {False, True}  # rank-deficient draws, whose data off the range counts
