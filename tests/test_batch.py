"""Batched observation data: a (B, m) stack through one structure pass.

Each batched result is checked against B single-sequence runs of the same
model. The structure (c_bar, the kernels' phi and noise_cov, marginal
covariances) never touches the data, so it must be bit-identical; the data
lines run in row form on a stack, so means, offsets and log c are held to a
relative 1e-9.
"""

import csv

import numpy as np
import numpy.testing as npt
import pytest

from gmsmooth.backward import backward_pass
from gmsmooth.cli import DemoConfig, run_demo
from gmsmooth.forward import log_path_posterior, smooth
from gmsmooth.model import FlatEverywhere, FlatOnSupport, attach_observations, validate
from gmsmooth.sqrt import sqrt_backward_pass

from conftest import random_model

DATA_RTOL = 1e-9

INITIALS = {
    "proper": "proper",
    "flat_on_support": FlatOnSupport(),
    "flat_everywhere": FlatEverywhere(),
}


def batched_and_singles(rng, batch, initial):
    """A random model with (B, m) values, and the B single-sequence models."""
    model = random_model(
        rng, missing_frac=0.3, singular_phi_frac=0.3, zero_q_frac=0.3, initial=initial
    )
    stacks = [
        None if rec.value is None else rng.standard_normal((batch,) + rec.value.shape)
        for rec in model.observations
    ]
    batched = attach_observations(model, stacks)
    singles = [
        attach_observations(model, [None if y is None else y[b] for y in stacks])
        for b in range(batch)
    ]
    return batched, singles


def assert_data_close(batched, single):
    npt.assert_allclose(batched, single, rtol=DATA_RTOL, atol=0.0)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("initial", list(INITIALS))
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("run_pass", [backward_pass, sqrt_backward_pass])
def test_backward_pass_matches_single_runs(run_pass, seed, initial, batch):
    rng = np.random.default_rng(seed)
    batched, singles = batched_and_singles(rng, batch, INITIALS[initial])
    assert validate(batched) == []
    got = run_pass(batched)
    for b, model in enumerate(singles):
        ref = run_pass(model)
        pairs = zip(
            got.likelihood_given_t + got.likelihood_given_prev,
            ref.likelihood_given_t + ref.likelihood_given_prev,
        )
        for lik, lik_ref in pairs:
            npt.assert_array_equal(lik.c_bar, lik_ref.c_bar)
            if not lik.is_empty:
                assert_data_close(lik.y_bar[b], lik_ref.y_bar)
            assert_data_close(np.broadcast_to(lik.log_c, (batch,))[b], lik_ref.log_c)
        for post, post_ref in zip(got.transitions_post, ref.transitions_post):
            npt.assert_array_equal(post.phi, post_ref.phi)
            npt.assert_array_equal(post.noise_cov, post_ref.noise_cov)
            offset = np.broadcast_to(post.offset, (batch,) + post_ref.offset.shape)
            assert_data_close(offset[b], post_ref.offset)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("initial", list(INITIALS))
@pytest.mark.parametrize("seed", range(6))
def test_smooth_matches_single_runs(seed, initial, batch):
    rng = np.random.default_rng(100 + seed)
    batched, singles = batched_and_singles(rng, batch, INITIALS[initial])
    got = smooth(batched)
    log_l = np.broadcast_to(got.log_marginal_likelihood, (batch,))
    for b, model in enumerate(singles):
        ref = smooth(model)
        for marg, marg_ref in zip(got.marginals, ref.marginals):
            npt.assert_array_equal(marg.cov, marg_ref.cov)
            mean = np.broadcast_to(marg.mean, (batch,) + marg_ref.mean.shape)
            assert_data_close(mean[b], marg_ref.mean)
        if np.isinf(ref.log_marginal_likelihood):
            assert np.isinf(log_l[b])
        else:
            assert_data_close(log_l[b], ref.log_marginal_likelihood)


def test_single_sequence_evaluators_reject_a_batch(rng):
    batched, _ = batched_and_singles(rng, 2, "proper")
    result = smooth(batched)
    lik = next(lik for lik in backward_pass(batched).likelihood_given_t if not lik.is_empty)
    with pytest.raises(ValueError, match="single-sequence"):
        lik.log_value(np.zeros(batched.state_dim))
    path = [np.zeros(batched.state_dim)] * (batched.horizon + 1)
    with pytest.raises(ValueError, match="single-sequence"):
        log_path_posterior(result, path)


def test_demo_replications_match_single_runs(tmp_path):
    replications = 3
    config = DemoConfig(
        horizon=40,
        first_obs_index=15,
        seed=7,
        replications=replications,
        output_path=str(tmp_path / "summary.csv"),
    )
    run_demo(config)
    with open(config.output_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == replications
    for i, row in enumerate(rows):
        single = DemoConfig(
            horizon=40,
            first_obs_index=15,
            seed=config.seed + i,
            output_path=str(tmp_path / f"single-{i}.csv"),
        )
        summary = run_demo(single)
        assert int(row[0]) == single.seed
        got = np.array([float(cell) for cell in row[1:]])
        expected = np.array([summary[key] for key in header[1:]])
        npt.assert_allclose(got, expected, rtol=DATA_RTOL, atol=0.0)
