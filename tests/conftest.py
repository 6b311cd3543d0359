import numpy as np
import pytest

from gmsmooth.backward import backward_pass, likelihood_moments
from gmsmooth.baselines import build_joint, condition_joint
from gmsmooth.forward import GaussianMarginal
from gmsmooth.linalg import LOG_2PI, chol_lower, log_diag, solve_triangular
from gmsmooth.model import (
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
    model_from_dict,
    model_to_dict,
    wiener_acceleration_model,
)


def gaussian_logpdf(x, mean, cov):
    """Log-density of a multivariate normal with PD covariance."""
    x = np.asarray(x, dtype=float).ravel()
    mean = np.asarray(mean, dtype=float).ravel()
    l = chol_lower(cov)
    z = solve_triangular(l, x - mean)
    return -0.5 * (x.size * LOG_2PI + float(z @ z)) - log_diag(l)


def smoothing_oracle(model, initial=None):
    """Per-time smoothing marginals from the dense oracle."""
    joint = build_joint(model, initial)
    mean, cov, evidence = condition_joint(joint)
    n = model.state_dim
    marginals = [
        GaussianMarginal(mean[t * n : (t + 1) * n], cov[t * n : (t + 1) * n, t * n : (t + 1) * n])
        for t in range(model.horizon + 1)
    ]
    return marginals, cov, evidence


def stacked_mle(model, t, backward=None):
    """Minimum-norm maximum likelihood estimate of x_t from future data.

    Maximizes the likelihood of observations at times >= t (falling back to
    strictly-future data when there is no observation at t). ``backward``
    may supply a precomputed backward pass to avoid recomputation.
    """
    backward = backward_pass(model) if backward is None else backward
    lik = backward.likelihood_given_t[t - 1] if t else backward.initial_likelihood
    return likelihood_moments(lik)


def simulate_loop(model, seed):
    """Draw a state trajectory and observations; deterministic given seed.

    The per-step reference that ``model.simulate`` and ``model.simulate_batch``
    must equal bit for bit. Returns (states, observations) with states
    indexed t = 0..T and observations indexed t = 1..T (None wherever no
    sensor is defined).
    """
    if not isinstance(model.initial, Proper):
        raise ValueError("simulation requires a proper initial distribution")
    rng = np.random.default_rng(seed)
    init = model.initial
    x = init.mean + init.chol @ rng.standard_normal(model.state_dim)
    states = [x]
    observations = []
    for t in range(1, model.horizon + 1):
        trans = model.transition(t).with_noise_chol()
        x = trans.phi @ x + trans.offset + trans.noise_chol @ rng.standard_normal(
            model.state_dim
        )
        states.append(x)
        rec = model.observation(t)
        if rec.model is None:
            observations.append(None)
        else:
            obs = rec.model
            y = obs.c @ x + obs.noise_chol @ rng.standard_normal(obs.obs_dim)
            observations.append(y)
    return states, observations


def tracking_json_models():
    """The 6-step tracking model as JSON files load it, with no noise factor
    set: (shared, expanded), one transition object shared by every step or
    one per step. t = 1 has no value; the prior is N(0, I)."""
    data = model_to_dict(wiener_acceleration_model(1.0, (1.0, 1.0), (1.0, 1.0), 6, 2))
    data["observations"] = [None] + [[0.1 * t, -0.2 * t] for t in range(1, 6)]
    data["initial"] = {"kind": "proper", "mean": [0.0] * 6, "cov": np.eye(6).tolist()}
    return model_from_dict(dict(data, transitions=data["transitions"][0])), model_from_dict(data)


def random_psd(rng, n, scale=1.0, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, max(rank, 1))) * scale
    if rank == 0:
        return np.zeros((n, n))
    s = a @ a.T
    return 0.5 * (s + s.T)


def random_model(
    rng,
    n=None,
    horizon=None,
    singular_phi_frac=0.2,
    zero_q_frac=0.2,
    missing_frac=0.0,
    initial="proper",
):
    """Random well-posed model at desk scale (n <= 4, T <= 12)."""
    n = int(rng.integers(1, 5)) if n is None else n
    horizon = int(rng.integers(1, 13)) if horizon is None else horizon

    transitions = []
    for _ in range(horizon):
        phi = rng.standard_normal((n, n))
        if rng.random() < singular_phi_frac:
            phi[rng.integers(n), :] = 0.0
        q = np.zeros((n, n)) if rng.random() < zero_q_frac else random_psd(rng, n)
        transitions.append(
            Transition(phi, rng.standard_normal(n), q).with_noise_chol()
        )

    m = int(rng.integers(1, n + 1))
    records = []
    for t in range(1, horizon + 1):
        c = rng.standard_normal((m, n))
        r = random_psd(rng, m) + np.diag(rng.uniform(0.5, 1.5, size=m))
        sensor = ObservationModel(c, r)
        value = None if rng.random() < missing_frac else rng.standard_normal(m)
        records.append(ObservationRecord(t, sensor, value))
    if all(rec.value is None for rec in records):
        rec = records[rng.integers(horizon)]
        records[rec.time_index - 1] = ObservationRecord(
            rec.time_index, rec.model, rng.standard_normal(m)
        )

    if initial == "proper":
        init = Proper(rng.standard_normal(n), random_psd(rng, n))
    else:
        init = initial
    return GaussMarkovModel(n, horizon, transitions, records, init)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
