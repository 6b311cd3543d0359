from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from gmsmooth import linalg
from gmsmooth.backward import LogQuadLikelihood, backward_pass, predict_backward
from gmsmooth.baselines import future_likelihood_oracle, two_filter_combine
from gmsmooth.forward import fuse_initial, smooth
from gmsmooth.linalg import LOG_2PI, chol_lower
from gmsmooth.model import (
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
    attach_observations,
    model_from_dict,
    model_to_dict,
    simulate,
    wiener_acceleration_model,
)
from gmsmooth.sqrt import array_predict_backward, sqrt_backward_pass

from conftest import gaussian_logpdf, random_model, tracking_json_models


class TestArrayPredictBackward:
    def test_scalar_matches_plain_example(self):
        lik = LogQuadLikelihood(0.0, [2.0], [[1.0]])
        trans = Transition([[1.0]], [0.0], [[1.0]]).with_noise_chol()
        prev, post = array_predict_backward(lik, trans)
        npt.assert_allclose(prev.y_bar, [np.sqrt(2.0)])
        npt.assert_allclose(prev.c_bar, [[1.0 / np.sqrt(2.0)]])
        npt.assert_allclose(prev.log_c, -0.5 * np.log(2.0))
        npt.assert_allclose(post.phi, [[0.5]])
        npt.assert_allclose(post.offset, [1.0])
        npt.assert_allclose(post.noise_cov, [[0.5]])
        npt.assert_allclose(post.noise_chol, [[1.0 / np.sqrt(2.0)]])

    def test_empty_likelihood(self):
        trans = Transition(np.eye(2), np.zeros(2), np.eye(2)).with_noise_chol()
        prev, post = array_predict_backward(LogQuadLikelihood.empty(2), trans)
        assert prev.is_empty
        assert post is trans
        npt.assert_array_equal(post.noise_chol, trans.noise_chol)

    def test_zero_noise(self, rng):
        n = 2
        lik = LogQuadLikelihood(
            -0.1, rng.standard_normal(2), rng.standard_normal((2, n))
        )
        trans = Transition(
            rng.standard_normal((n, n)), rng.standard_normal(n), np.zeros((n, n))
        ).with_noise_chol()
        prev, post = array_predict_backward(lik, trans)
        npt.assert_allclose(post.noise_cov, np.zeros((n, n)), atol=1e-12)
        npt.assert_allclose(post.noise_chol, np.zeros((n, n)), atol=1e-12)
        # R_hat = I so whitening is a no-op
        npt.assert_allclose(prev.y_bar, lik.y_bar - lik.c_bar @ trans.offset, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_plain_prediction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m_bar = int(rng.integers(1, n + 1))
        lik = LogQuadLikelihood(
            rng.standard_normal(), rng.standard_normal(m_bar), rng.standard_normal((m_bar, n))
        )
        a = rng.standard_normal((n, n))
        trans = Transition(
            rng.standard_normal((n, n)), rng.standard_normal(n), a @ a.T
        ).with_noise_chol()
        p1, t1 = predict_backward(lik, trans)
        p2, t2 = array_predict_backward(lik, trans)
        npt.assert_allclose(p2.y_bar, p1.y_bar, atol=1e-8)
        npt.assert_allclose(p2.c_bar, p1.c_bar, atol=1e-8)
        npt.assert_allclose(p2.log_c, p1.log_c, atol=1e-8)
        npt.assert_allclose(t2.phi, t1.phi, atol=1e-8)
        npt.assert_allclose(t2.offset, t1.offset, atol=1e-8)
        npt.assert_allclose(t2.noise_cov, t1.noise_cov, atol=1e-8)

    def test_factor_validity(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 5))
            m_bar = int(rng.integers(1, n + 1))
            lik = LogQuadLikelihood(
                0.0, rng.standard_normal(m_bar), rng.standard_normal((m_bar, n))
            )
            a = rng.standard_normal((n, n))
            trans = Transition(
                rng.standard_normal((n, n)), rng.standard_normal(n), a @ a.T
            ).with_noise_chol()
            _, post = array_predict_backward(lik, trans)
            rec = post.noise_chol @ post.noise_chol.T
            npt.assert_allclose(rec, rec.T, atol=1e-12)
            chol_lower(rec + 1e-12 * np.eye(n))  # jittered Cholesky succeeds


class TestSqrtFuseInitial:
    """The proper branch of ``fuse_initial``: square-root fusion with the prior."""

    def test_scalar_marginal(self):
        lik0 = LogQuadLikelihood(-0.5 * np.log(2 * np.pi), [1.0], [[1.0]])
        prior = Proper([0.0], [[1.0]])
        post, log_l = fuse_initial(lik0, prior)
        # y = x + v with x ~ N(0,1), v ~ N(0,1): y ~ N(0, 2)
        npt.assert_allclose(log_l, gaussian_logpdf([1.0], [0.0], [[2.0]]), atol=1e-12)
        npt.assert_allclose(post.mean, [0.5])
        npt.assert_allclose(post.cov, [[0.5]], atol=1e-12)

    def test_empty_likelihood(self):
        prior = Proper([1.0, -1.0], np.diag([2.0, 3.0]))
        post, log_l = fuse_initial(LogQuadLikelihood.empty(2), prior)
        assert log_l == 0.0
        npt.assert_array_equal(post.mean, prior.mean)
        npt.assert_array_equal(post.cov, prior.cov)

    def test_point_prior(self):
        lik0 = LogQuadLikelihood(-np.log(2 * np.pi), [1.0, 2.0], np.eye(2))
        prior = Proper([1.0, 1.0], np.zeros((2, 2)))
        post, log_l = fuse_initial(lik0, prior)
        npt.assert_allclose(post.mean, [1.0, 1.0], atol=1e-12)
        npt.assert_allclose(post.cov, np.zeros((2, 2)), atol=1e-12)
        expected = lik0.log_c + np.log(2 * np.pi) + (
            -np.log(2 * np.pi) - 0.5 * ((1.0 - 1.0) ** 2 + (2.0 - 1.0) ** 2)
        )
        npt.assert_allclose(log_l, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_plain_fuse_initial(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m_bar = int(rng.integers(1, n + 1))
        lik0 = LogQuadLikelihood(
            rng.standard_normal(), rng.standard_normal(m_bar), rng.standard_normal((m_bar, n))
        )
        a = rng.standard_normal((n, n))
        prior = Proper(rng.standard_normal(n), a @ a.T)
        post, log_l = fuse_initial(lik0, prior)
        # the covariance-form (plain) fusion: a Kalman update against the
        # pseudo-observation, and its evidence
        expected = two_filter_combine(Proper(prior.mean, prior.cov), lik0)
        c_bar = lik0.c_bar
        evidence = (
            gaussian_logpdf(
                lik0.y_bar, c_bar @ prior.mean, c_bar @ prior.cov @ c_bar.T + np.eye(m_bar)
            )
            + lik0.log_c
            + 0.5 * m_bar * LOG_2PI
        )
        npt.assert_allclose(log_l, evidence, atol=1e-9)
        npt.assert_allclose(post.mean, expected.mean, atol=1e-9)
        npt.assert_allclose(post.cov, expected.cov, atol=1e-9)


class TestPlainSqrtEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_pass_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, zero_q_frac=0.2, missing_frac=0.2)
        plain = backward_pass(model)
        via_array = sqrt_backward_pass(model)
        for t in range(model.horizon):
            a, b = plain.likelihood_given_prev[t], via_array.likelihood_given_prev[t]
            npt.assert_allclose(b.y_bar, a.y_bar, atol=1e-8)
            npt.assert_allclose(b.c_bar, a.c_bar, atol=1e-8)
            npt.assert_allclose(b.log_c, a.log_c, atol=1e-8)
            ta, tb = plain.transitions_post[t], via_array.transitions_post[t]
            npt.assert_allclose(tb.phi, ta.phi, atol=1e-8)
            npt.assert_allclose(tb.offset, ta.offset, atol=1e-8)
            npt.assert_allclose(tb.noise_cov, ta.noise_cov, atol=1e-8)

    def test_each_distinct_transition_factored_once(self, monkeypatch):
        shared, expanded = tracking_json_models()
        calls = []
        monkeypatch.setattr(linalg, "psd_chol", lambda s: calls.append(s) or chol_lower(s))
        counts = []
        for model in (shared, expanded):
            calls.clear()
            result = sqrt_backward_pass(model)
            counts.append(len(calls))
            assert all(post.noise_chol is not None for post in result.transitions_post)
        assert counts == [1, 6]

    @pytest.mark.parametrize("seed", range(4))
    def test_json_model_without_noise_factor(self, seed):
        # model_from_dict's transitions factor their noise on first read, in the sqrt pass
        rng = np.random.default_rng(seed)
        model = model_from_dict(model_to_dict(random_model(rng, zero_q_frac=0.2)))
        plain = backward_pass(model)
        via_array = sqrt_backward_pass(model)
        for t in range(model.horizon):
            a, b = plain.likelihood_given_prev[t], via_array.likelihood_given_prev[t]
            npt.assert_allclose(b.y_bar, a.y_bar, atol=1e-8)
            npt.assert_allclose(b.c_bar, a.c_bar, atol=1e-8)
            npt.assert_allclose(b.log_c, a.log_c, atol=1e-8)
            ta, tb = plain.transitions_post[t], via_array.transitions_post[t]
            npt.assert_allclose(tb.phi, ta.phi, atol=1e-8)
            npt.assert_allclose(tb.offset, ta.offset, atol=1e-8)
            npt.assert_allclose(tb.noise_cov, ta.noise_cov, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_smoothing_marginals_agree(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, zero_q_frac=0.0)
        plain = smooth(model)
        via_array = smooth(model, backward=sqrt_backward_pass(model))
        for a, b in zip(plain.marginals, via_array.marginals):
            npt.assert_allclose(b.mean, a.mean, atol=1e-8)
            npt.assert_allclose(b.cov, a.cov, atol=1e-8)

    def test_long_horizon_weak_process_noise(self):
        # T = 4000 steps of the demo's tracking model with sigma = 1e-3 and a
        # proper prior: rounding accumulates over the horizon and the positions
        # reach ~1e7. Measured on seeds 0-11 (one BLAS thread): covariances
        # 1.1e-14 and means <= 3.0e-15 of their largest entry, log-likelihood
        # <= 2.1e-7 absolute (6e-8 on this seed, of |log L| ~ 1.2e4)
        model = wiener_acceleration_model(1.0, (1e-3, 1e-3), (1.0, 1.0), 4000, 1)
        model = replace(model, initial=Proper(np.zeros(6), np.eye(6)))
        model = attach_observations(model, simulate(model, seed=0)[1])
        plain = smooth(model)
        via_array = smooth(model, backward=sqrt_backward_pass(model))
        means = np.array([m.mean for m in plain.marginals])
        covs = np.array([m.cov for m in plain.marginals])
        npt.assert_allclose(
            [m.mean for m in via_array.marginals], means, rtol=0.0, atol=1e-13 * np.abs(means).max()
        )
        npt.assert_allclose(
            [m.cov for m in via_array.marginals], covs, rtol=0.0, atol=1e-12 * np.abs(covs).max()
        )
        assert abs(via_array.log_marginal_likelihood - plain.log_marginal_likelihood) <= 1e-6


def ill_conditioned_model(cond=1e12, horizon=6, seed=0):
    """Scalar-observation model whose process noise has condition >= cond."""
    rng = np.random.default_rng(seed)
    n = 3
    w = np.array([1.0, 1.0, 1.0 / cond])
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (v * w[None, :]) @ v.T
    q = 0.5 * (q + q.T)
    assert np.linalg.cond(q) >= 1e12 / 2
    transitions = [
        Transition(rng.standard_normal((n, n)) * 0.7, rng.standard_normal(n), q)
        for _ in range(horizon)
    ]
    records = [
        ObservationRecord(
            t, ObservationModel(rng.standard_normal((1, n)), [[1.0]]), rng.standard_normal(1)
        )
        for t in range(1, horizon + 1)
    ]
    return GaussMarkovModel(n, horizon, transitions, records, Proper(np.zeros(n), np.eye(n)))


class TestIllConditioning:
    def test_sqrt_path_stays_accurate(self, capsys):
        model = ill_conditioned_model()
        rng = np.random.default_rng(99)
        via_array = sqrt_backward_pass(model)
        plain = backward_pass(model)
        worst_sqrt = 0.0
        worst_plain = 0.0
        for t in range(1, model.horizon + 1):
            xs = rng.standard_normal((100, model.state_dim))
            expected = future_likelihood_oracle(model, t, xs)
            err_sqrt = np.max(
                np.abs(via_array.likelihood_given_t[t - 1].log_value(xs) - expected)
            )
            err_plain = np.max(
                np.abs(plain.likelihood_given_t[t - 1].log_value(xs) - expected)
            )
            worst_sqrt = max(worst_sqrt, err_sqrt)
            worst_plain = max(worst_plain, err_plain)
        print(
            f"cond(Q)~1e12 pointwise error: sqrt {worst_sqrt:.3e}, plain {worst_plain:.3e}"
        )
        assert worst_sqrt <= 1e-6
