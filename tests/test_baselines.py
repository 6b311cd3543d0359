import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from gmsmooth.backward import LogQuadLikelihood, backward_pass
from gmsmooth.baselines import (
    build_joint,
    condition_joint,
    future_likelihood_oracle,
    kalman_filter,
    rts_smoother,
    stacked_observation_map,
    two_filter_combine,
)
from gmsmooth.forward import smooth
from gmsmooth.linalg import pseudo_inverse, solve_triangular, chol_lower
from gmsmooth.model import FlatEverywhere, ObservationRecord, Proper

from conftest import gaussian_logpdf, random_model, smoothing_oracle, stacked_mle
from test_model import scalar_random_walk


class TestBuildJoint:
    def test_horizon_zero_is_initial(self):
        model = scalar_random_walk(horizon=1, values=[1.0])
        joint = build_joint(model)
        npt.assert_allclose(joint.mean[:1], model.initial.mean)
        npt.assert_allclose(joint.cov[:1, :1], model.initial.cov)

    def test_scalar_walk_hand_covariance(self):
        model = scalar_random_walk(horizon=1, values=[1.0])
        joint = build_joint(model)
        npt.assert_allclose(joint.cov, [[1.0, 1.0], [1.0, 2.0]])
        npt.assert_allclose(joint.mean, [0.0, 0.0])

    def test_zero_noise_rank(self, rng):
        model = random_model(rng, n=2, horizon=3, zero_q_frac=1.0, singular_phi_frac=0.0)
        joint = build_joint(model)
        rank = np.linalg.matrix_rank(joint.cov, tol=1e-10)
        assert rank <= 2

    def test_flat_prior_needs_substitute(self, rng):
        model = random_model(rng, initial=FlatEverywhere())
        with pytest.raises(ValueError, match="proper initial"):
            build_joint(model)


class TestConditionJoint:
    def test_scalar_walk_hand_conditioning(self):
        model = scalar_random_walk(horizon=1, values=[1.0])
        mean, cov, evidence = condition_joint(build_joint(model))
        npt.assert_allclose(mean, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        npt.assert_allclose(np.diag(cov), [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        npt.assert_allclose(evidence, gaussian_logpdf([1.0], [0.0], [[3.0]]), atol=1e-12)

    def test_no_observations(self, rng):
        model = random_model(rng)
        for i, rec in enumerate(model.observations):
            model.observations[i] = ObservationRecord(rec.time_index, None, None)
        joint = build_joint(model)
        mean, cov, evidence = condition_joint(joint)
        assert evidence == 0.0
        npt.assert_array_equal(mean, joint.mean)
        npt.assert_array_equal(cov, joint.cov)

    def test_zero_innovation_keeps_mean(self, rng):
        model = random_model(rng, missing_frac=0.0)
        joint = build_joint(model)
        # replace observed values with their prior predictions
        consistent = joint.obs_matrix @ joint.mean
        joint.obs_values = consistent
        mean, _, _ = condition_joint(joint)
        npt.assert_allclose(mean, joint.mean, atol=1e-8)


class TestKalmanFilter:
    def test_no_observations_is_prior_propagation(self, rng):
        model = random_model(rng)
        for i, rec in enumerate(model.observations):
            model.observations[i] = ObservationRecord(rec.time_index, None, None)
        result = kalman_filter(model)
        assert result.log_likelihood == 0.0
        joint = build_joint(model)
        n = model.state_dim
        for t, marg in enumerate(result.filtered):
            npt.assert_allclose(marg.mean, joint.mean[t * n : (t + 1) * n], atol=1e-10)
            npt.assert_allclose(
                marg.cov, joint.cov[t * n : (t + 1) * n, t * n : (t + 1) * n], atol=1e-10
            )

    def test_flat_prior_rejected(self, rng):
        with pytest.raises(ValueError, match="proper initial"):
            kalman_filter(random_model(rng, initial=FlatEverywhere()))

    def test_scalar_walk_update(self):
        model = scalar_random_walk(horizon=1, values=[1.0])
        result = kalman_filter(model)
        npt.assert_allclose(result.filtered[1].mean, [2.0 / 3.0], atol=1e-12)
        npt.assert_allclose(result.filtered[1].cov, [[2.0 / 3.0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_evidence_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        result = kalman_filter(model)
        _, _, evidence = condition_joint(build_joint(model))
        npt.assert_allclose(result.log_likelihood, evidence, atol=1e-10)


class TestRtsSmoother:
    def test_single_terminal_observation(self, rng):
        model = random_model(rng, n=2, horizon=4, missing_frac=0.0)
        for t in range(1, 4):
            rec = model.observations[t - 1]
            model.observations[t - 1] = ObservationRecord(t, rec.model, None)
        kal = kalman_filter(model)
        smoothed = rts_smoother(kal, model)
        npt.assert_allclose(smoothed[4].mean, kal.filtered[4].mean)
        npt.assert_allclose(smoothed[4].cov, kal.filtered[4].cov)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        smoothed = rts_smoother(kalman_filter(model), model)
        oracle_marginals, _, _ = smoothing_oracle(model)
        for a, b in zip(smoothed, oracle_marginals):
            npt.assert_allclose(a.mean, b.mean, atol=1e-8)
            npt.assert_allclose(a.cov, b.cov, atol=1e-8)

    def test_deterministic_chain_stays_rank_consistent(self, rng):
        model = random_model(
            rng, n=2, horizon=4, zero_q_frac=1.0, singular_phi_frac=0.0
        )
        smoothed = rts_smoother(kalman_filter(model), model)
        for marg in smoothed:
            assert np.linalg.matrix_rank(marg.cov, tol=1e-8) <= 2


class TestTwoFilterCombine:
    def test_empty_future(self):
        marg = Proper([1.0], [[2.0]])
        out = two_filter_combine(marg, LogQuadLikelihood.empty(1))
        npt.assert_array_equal(out.mean, marg.mean)
        npt.assert_array_equal(out.cov, marg.cov)

    def test_scalar_hand_update(self):
        marg = Proper([0.0], [[1.0]])
        lik = LogQuadLikelihood(0.0, [2.0], [[1.0]])
        out = two_filter_combine(marg, lik)
        npt.assert_allclose(out.mean, [1.0])
        npt.assert_allclose(out.cov, [[0.5]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        backward = backward_pass(model)
        kal = kalman_filter(model)
        via_smoother = smooth(model, backward=backward)
        via_rts = rts_smoother(kal, model)
        for t in range(model.horizon + 1):
            future = (
                backward.likelihood_given_prev[t]
                if t < model.horizon
                else LogQuadLikelihood.empty(model.state_dim)
            )
            combined = two_filter_combine(kal.filtered[t], future)
            npt.assert_allclose(combined.mean, via_smoother.marginals[t].mean, atol=1e-8)
            npt.assert_allclose(combined.cov, via_smoother.marginals[t].cov, atol=1e-8)
            npt.assert_allclose(combined.mean, via_rts[t].mean, atol=1e-8)
            npt.assert_allclose(combined.cov, via_rts[t].cov, atol=1e-8)


class TestPairwiseTransitionAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_kernel_reproduces_joint_posterior_blocks(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.1)
        n = model.state_dim
        result = smooth(model)
        _, cov, _ = condition_joint(build_joint(model))
        for t in range(1, model.horizon + 1):
            kernel = result.transitions[t - 1]
            prev = result.marginals[t - 1]
            cross = prev.cov @ kernel.phi.T
            marg_cov = kernel.phi @ prev.cov @ kernel.phi.T + kernel.noise_cov
            i, j = (t - 1) * n, t * n
            npt.assert_allclose(cross, cov[i : i + n, j : j + n], atol=1e-8)
            npt.assert_allclose(marg_cov, cov[j : j + n, j : j + n], atol=1e-8)


class TestStackedMle:
    def test_terminal_identity_observation(self, rng):
        model = scalar_random_walk(horizon=2, values=[0.5, 1.5])
        est = stacked_mle(model, 2)
        npt.assert_allclose(est.mean, [1.5], atol=1e-10)
        assert est.rank == 1

    def test_rank_deficient_future(self, rng):
        model = random_model(rng, n=2, horizon=2, missing_frac=0.0, zero_q_frac=0.0)
        # keep only a single scalar observation at the last step
        from gmsmooth.model import ObservationModel

        sensor = ObservationModel(rng.standard_normal((1, 2)), [[1.0]])
        model.observations[0] = ObservationRecord(1, sensor, None)
        model.observations[1] = ObservationRecord(2, sensor, rng.standard_normal(1))
        est = stacked_mle(model, 2)
        assert est.rank == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_whitened_least_squares(self, seed):
        # independent construction: whiten the stacked observation map and
        # solve minimum-norm least squares
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        backward = backward_pass(model)
        for t in range(model.horizon + 1):
            # times >= max(t, 1); missing records are skipped inside
            h, b, s, y = stacked_observation_map(model, t, include_current=True)
            est = stacked_mle(model, t, backward=backward)
            if h.shape[0] == 0:
                assert est.rank == 0
                continue
            l = chol_lower(s)
            hw = solve_triangular(l, h)
            yw = solve_triangular(l, y - b)
            h_pinv, rank = pseudo_inverse(hw)
            expected_mean = h_pinv @ yw
            expected_cov, _ = pseudo_inverse(hw.T @ hw)
            assert est.rank == rank
            scale = max(1.0, np.abs(expected_mean).max())
            npt.assert_allclose(est.mean, expected_mean, atol=1e-8 * scale)
            cscale = max(1.0, np.abs(expected_cov).max())
            npt.assert_allclose(est.cov, expected_cov, atol=1e-8 * cscale)


class TestFutureLikelihoodOracle:
    def test_no_future_observations(self, rng):
        model = random_model(rng, horizon=3)
        out = future_likelihood_oracle(model, 3, np.zeros(model.state_dim), include_current=False)
        assert out == 0.0


def test_references_load_no_recursion_module():
    # the references share no code with the recursion they check
    code = ("import sys, gmsmooth.baselines; "
            "print(sorted(m for m in sys.modules if m.startswith('gmsmooth.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "['gmsmooth.baselines', 'gmsmooth.linalg', 'gmsmooth.model']"
