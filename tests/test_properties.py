"""Property tests of both backward passes against the dense joint-Gaussian oracle,
and of both simulators against the per-step reference loop.

Hypothesis draws the structure of a model -- state dimension n in 1..4,
observation dimension m in 1..n+2, horizon T in 1..10, and per step whether
the transition matrix is singular, the process noise is zero, and the step
is observed, missing or sensor-less -- and a seed for its numbers. The
runs are derandomized, so the drawn models are the same on every run. Each
model has a proper prior; the flat-prior test swaps in ``FlatOnSupport``.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsmooth import linalg
from gmsmooth.baselines import stacked_observation_map
from gmsmooth.forward import smooth
from gmsmooth.model import (
    FlatOnSupport,
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
    attach_observations,
    simulate,
    simulate_batch,
    validate,
)
from gmsmooth.sqrt import sqrt_backward_pass

from conftest import random_psd, simulate_loop, smoothing_oracle

TOL = 1e-8  # the acceptance criteria's oracle tolerance
BATCH = 3
BATCH_RTOL = 1e-9  # tests/test_batch.py's data tolerance

PROPERTY_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def models(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n + 2))
    horizon = draw(st.integers(1, 10))
    per_step = st.lists(st.booleans(), min_size=horizon, max_size=horizon)
    singular_phi, zero_q = draw(per_step), draw(per_step)
    kinds = draw(
        st.lists(
            st.sampled_from(["observed", "missing", "sensorless"]),
            min_size=horizon,
            max_size=horizon,
        )
    )
    if "observed" not in kinds:
        kinds[draw(st.integers(0, horizon - 1))] = "observed"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    transitions, records = [], []
    for t in range(1, horizon + 1):
        phi = rng.standard_normal((n, n))
        if singular_phi[t - 1]:
            phi[rng.integers(n), :] = 0.0
        q = np.zeros((n, n)) if zero_q[t - 1] else random_psd(rng, n)
        transitions.append(Transition(phi, rng.standard_normal(n), q))
        kind = kinds[t - 1]
        sensor = None
        if kind != "sensorless":
            r = random_psd(rng, m) + np.diag(rng.uniform(0.5, 1.5, size=m))
            sensor = ObservationModel(rng.standard_normal((m, n)), r)
        value = rng.standard_normal(m) if kind == "observed" else None
        records.append(ObservationRecord(t, sensor, value))
    initial = Proper(rng.standard_normal(n), random_psd(rng, n))
    model = GaussMarkovModel(n, horizon, transitions, records, initial)
    assert validate(model) == []
    return model


def batch_of(model, rng):
    """The model with (B, m) values, and the B single-sequence models."""
    stacks = [
        None if rec.value is None else rng.standard_normal((BATCH, rec.value.size))
        for rec in model.observations
    ]
    singles = [
        attach_observations(model, [None if y is None else y[b] for y in stacks])
        for b in range(BATCH)
    ]
    return attach_observations(model, stacks), singles


def both_passes(model):
    return {
        "plain": smooth(model),
        "sqrt": smooth(model, backward=sqrt_backward_pass(model)),
    }


@PROPERTY_SETTINGS
@given(models())
def test_smoothing_matches_dense_oracle(model):
    oracle, _, evidence = smoothing_oracle(model)  # evidence by condition_joint
    for name, result in both_passes(model).items():
        assert len(result.marginals) == model.horizon + 1, name
        for got, want in zip(result.marginals, oracle):
            npt.assert_allclose(got.mean, want.mean, rtol=0.0, atol=TOL, err_msg=name)
            npt.assert_allclose(got.cov, want.cov, rtol=0.0, atol=TOL, err_msg=name)
        assert abs(result.log_marginal_likelihood - evidence) <= TOL, name


def assert_close(got, want, name):
    """Agreement to TOL relative to the larger of 1 and want's largest entry."""
    npt.assert_allclose(
        got, want, rtol=0.0, atol=TOL * max(1.0, np.abs(want).max(initial=0.0)), err_msg=name
    )


def flat_prior_oracle(model):
    """Exact x0 posterior and marginals under FlatOnSupport, from dense routes only.

    The x0 posterior is the minimum-norm whitened least-squares fit of the
    stacked observation map. Marginals at t >= 1 integrate the dense
    oracle's p(x_t | x0, y) over it: conditioning on x0 = 0 and x0 = e_i
    (zero-covariance proper priors) gives the affine map x0 -> E[x_t | x0, y]
    and the conditional covariance, which does not depend on x0.
    """
    n = model.state_dim
    h, b, s, y = stacked_observation_map(model, 0)
    l = linalg.chol_lower(s)
    h_pinv, rank = linalg.pseudo_inverse(linalg.solve_triangular(l, h))
    mean0 = h_pinv @ linalg.solve_triangular(l, y - b)
    cov0 = h_pinv @ h_pinv.T
    given = [
        smoothing_oracle(model, Proper(x0, np.zeros((n, n))))[0]
        for x0 in np.vstack([np.zeros(n), np.eye(n)])
    ]
    marginals = []
    for t in range(1, model.horizon + 1):
        offset = given[0][t].mean
        a = np.column_stack([g[t].mean - offset for g in given[1:]])
        cov = given[0][t].cov + a @ cov0 @ a.T
        marginals.append((a @ mean0 + offset, 0.5 * (cov + cov.T)))
    return (mean0, cov0, rank), marginals


@PROPERTY_SETTINGS
@given(models())
def test_flat_prior_matches_dense_least_squares(model):
    model = replace(model, initial=FlatOnSupport())
    (mean0, cov0, rank), marginals = flat_prior_oracle(model)
    for name, result in both_passes(model).items():
        assert result.initial_posterior.rank == rank, name
        assert_close(result.marginals[0].mean, mean0, name)
        assert_close(result.marginals[0].cov, cov0, name)
        for got, (mean, cov) in zip(result.marginals[1:], marginals, strict=True):
            assert_close(got.mean, mean, name)
            assert_close(got.cov, cov, name)


@PROPERTY_SETTINGS
@given(models(), st.integers(0, 2**32 - 1))
def test_batch_matches_single_sequences(model, seed):
    batched, singles = batch_of(model, np.random.default_rng(seed))
    got = both_passes(batched)
    for b, single in enumerate(singles):
        for name, ref in both_passes(single).items():
            result = got[name]
            for marg, marg_ref in zip(result.marginals, ref.marginals):
                npt.assert_array_equal(marg.cov, marg_ref.cov, err_msg=name)
                npt.assert_allclose(
                    marg.mean[b], marg_ref.mean, rtol=BATCH_RTOL, atol=0.0, err_msg=name
                )
            npt.assert_allclose(
                result.log_marginal_likelihood[b],
                ref.log_marginal_likelihood,
                rtol=BATCH_RTOL,
                atol=0.0,
                err_msg=name,
            )


@PROPERTY_SETTINGS
@pytest.mark.parametrize("offsets", [[0], [0, 1, 2], [0, 1, 0]], ids=["B1", "B3", "repeat"])
@given(models(), st.integers(0, 2**32 - 1), st.booleans())
def test_simulate_batch_rows_equal_simulate(offsets, model, seed, zero_prior_cov):
    # each transition derives its noise factor by psd_chol on first read, so
    # zero Q takes its eigh fallback; the demo's prior has zero covariance
    if zero_prior_cov:
        model = replace(model, initial=Proper(model.initial.mean, np.zeros_like(model.initial.cov)))
    seeds = [seed + k for k in offsets]
    states, observations = simulate_batch(model, seeds)
    assert states.shape == (len(seeds), model.horizon + 1, model.state_dim)
    for b, s in enumerate(seeds):
        states_ref, observations_ref = simulate_loop(model, s)
        npt.assert_array_equal(states[b], states_ref)
        for y, y_ref in zip(observations, observations_ref, strict=True):
            assert (y is None) == (y_ref is None)
            if y is not None:
                npt.assert_array_equal(y[b], y_ref)
        # simulate returns the reference's lists of vectors
        states_one, observations_one = simulate(model, s)
        for x, x_ref in zip(states_one, states_ref, strict=True):
            npt.assert_array_equal(x, x_ref, strict=True)
        for y, y_ref in zip(observations_one, observations_ref, strict=True):
            assert (y is None) == (y_ref is None)
            if y is not None:
                npt.assert_array_equal(y, y_ref, strict=True)
