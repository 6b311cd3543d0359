"""Independent verification machinery.

The dense joint-Gaussian oracle conditions the whole state trajectory on
all observations in one shot; it is built purely by linear propagation and
a single dense conditioning step, never via the recursions it checks. The
classical Kalman filter, RTS smoother, and two-filter combination provide
the alternative inference routes for cross-checking; the oracle, the
Kalman update and the two-filter combination share one covariance-form
conditioning step, which no module of the recursion calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .model import Proper


@dataclass
class JointGaussian:
    """Joint distribution of x_{0:T} plus the stacked observation map."""

    mean: np.ndarray  # n (T+1)
    cov: np.ndarray
    obs_matrix: np.ndarray  # rows: stacked C_t at non-missing t
    obs_noise: np.ndarray  # block-diagonal stacked R_t
    obs_values: np.ndarray


def build_joint(model):
    """Dense mean/covariance of x_{0:T} by forward accumulation; the model's
    prior must be proper."""
    init = model.initial
    if not isinstance(init, Proper):
        raise ValueError("dense joint requires a proper initial distribution")
    n, big_t = model.state_dim, model.horizon
    dim = n * (big_t + 1)
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))
    mean[:n] = init.mean
    cov[:n, :n] = init.cov
    for t in range(1, big_t + 1):
        tr = model.transition(t)
        a, b = t * n, (t + 1) * n
        p, q = (t - 1) * n, t * n
        mean[a:b] = tr.phi @ mean[p:q] + tr.offset
        cov[a:b, a:b] = tr.phi @ cov[p:q, p:q] @ tr.phi.T + tr.noise_cov
        for s in range(t):
            i, j = s * n, (s + 1) * n
            block = cov[i:j, p:q] @ tr.phi.T
            cov[i:j, a:b] = block
            cov[a:b, i:j] = block.T
    cov = 0.5 * (cov + cov.T)

    rows = []
    noise_blocks = []
    values = []
    for t, rec in enumerate(model.observations, start=1):
        if rec.is_missing:
            continue
        h = np.zeros((rec.model.obs_dim, dim))
        h[:, t * n : (t + 1) * n] = rec.model.c
        rows.append(h)
        noise_blocks.append(rec.model.noise_cov)
        values.append(rec.value)
    if rows:
        obs_matrix = np.vstack(rows)
        obs_noise = scipy.linalg.block_diag(*noise_blocks)
        obs_values = np.concatenate(values)
    else:
        obs_matrix = np.zeros((0, dim))
        obs_noise = np.zeros((0, 0))
        obs_values = np.zeros(0)
    return JointGaussian(mean, cov, obs_matrix, obs_noise, obs_values)


def _condition(mean, cov, h, r, y):
    """Condition x ~ N(mean, cov) on y = h x + v, v ~ N(0, r).

    Returns the posterior mean, the symmetrized posterior covariance and
    the log evidence log N(y; h mean, h cov hᵀ + r).
    """
    hc = h @ cov
    s = hc @ h.T + r
    s = 0.5 * (s + s.T)
    l = linalg.chol_lower(s)
    resid = y - h @ mean
    white = linalg.solve_triangular(l, resid)
    gain = linalg.solve_triangular(l, linalg.solve_triangular(l, hc), trans=True).T
    cov = cov - gain @ s @ gain.T
    evidence = (
        -0.5 * resid.size * linalg.LOG_2PI
        - linalg.log_diag(l)
        - 0.5 * float(white @ white)
    )
    return mean + gain @ resid, 0.5 * (cov + cov.T), evidence


def condition_joint(joint):
    """Condition the joint trajectory on the stacked observations.

    Returns (posterior mean, posterior covariance, log evidence).
    """
    if joint.obs_matrix.shape[0] == 0:
        return joint.mean.copy(), joint.cov.copy(), 0.0
    return _condition(
        joint.mean, joint.cov, joint.obs_matrix, joint.obs_noise, joint.obs_values
    )


@dataclass
class KalmanResult:
    filtered: list[Proper]  # t = 0..T
    predicted: list[Proper]  # t = 1..T
    log_likelihood: float


def kalman_filter(model):
    """Classical predict/update filter with the prediction-error evidence."""
    if not isinstance(model.initial, Proper):
        raise ValueError("the Kalman filter requires a proper initial distribution")
    mean, cov = model.initial.mean.copy(), model.initial.cov.copy()
    filtered = [Proper(mean, cov)]
    predicted = []
    log_l = 0.0
    for t in range(1, model.horizon + 1):
        tr = model.transition(t)
        mean = tr.phi @ mean + tr.offset
        cov = tr.phi @ cov @ tr.phi.T + tr.noise_cov
        cov = 0.5 * (cov + cov.T)
        predicted.append(Proper(mean, cov))
        rec = model.observation(t)
        if not rec.is_missing:
            mean, cov, log_h = _condition(
                mean, cov, rec.model.c, rec.model.noise_cov, rec.value
            )
            log_l += log_h
        filtered.append(Proper(mean, cov))
    return KalmanResult(filtered, predicted, log_l)


def rts_smoother(kalman, model):
    """Rauch-Tung-Striebel smoothing of a Kalman filter output.

    Uses a pseudo-inverse smoother gain so singular predictive covariances
    (zero process noise, singular transitions) are handled.
    """
    big_t = model.horizon
    smoothed = [None] * (big_t + 1)
    smoothed[big_t] = kalman.filtered[big_t]  # at T the smoothed marginal is the filtered one
    for t in range(big_t, 0, -1):
        tr = model.transition(t)
        filt = kalman.filtered[t - 1]
        pred = kalman.predicted[t - 1]
        pred_pinv, _ = linalg.pseudo_inverse(pred.cov)
        gain = filt.cov @ tr.phi.T @ pred_pinv
        nxt = smoothed[t]
        mean = filt.mean + gain @ (nxt.mean - pred.mean)
        cov = filt.cov + gain @ (nxt.cov - pred.cov) @ gain.T
        smoothed[t - 1] = Proper(mean, 0.5 * (cov + cov.T))
    return smoothed


def two_filter_combine(filter_marginal, future_lik):
    """Kalman update of a filtering marginal against the future likelihood.

    The likelihood acts as a pseudo-observation with identity noise; an
    empty likelihood leaves the marginal unchanged.
    """
    if future_lik.is_empty:
        return Proper(filter_marginal.mean.copy(), filter_marginal.cov.copy())
    c_bar, y_bar = future_lik.c_bar, future_lik.y_bar
    mean, cov, _ = _condition(
        filter_marginal.mean, filter_marginal.cov, c_bar, np.eye(future_lik.m_bar), y_bar
    )
    return Proper(mean, cov)


def stacked_observation_map(model, t, include_current=True):
    """Stacked linear map from x_t to all observations at times >= t.

    Returns (h, b, s, y) such that, conditioned on x_t = x, the stacked
    observation vector y is Gaussian with mean h x + b and covariance s.
    Built by direct propagation, independent of the backward recursion.
    """
    n = model.state_dim
    start = t if include_current else t + 1
    # affine state maps x_s = a_s x + b_s and state covariances given x_t
    a_map = {t: np.eye(n)}
    b_map = {t: np.zeros(n)}
    cov = {(t, t): np.zeros((n, n))}
    for s in range(t + 1, model.horizon + 1):
        tr = model.transition(s)
        a_map[s] = tr.phi @ a_map[s - 1]
        b_map[s] = tr.phi @ b_map[s - 1] + tr.offset
        for r in range(t, s):
            cov[(r, s)] = cov[(r, s - 1)] @ tr.phi.T
        cov[(s, s)] = tr.phi @ cov[(s - 1, s - 1)] @ tr.phi.T + tr.noise_cov

    rows, offsets, values, times = [], [], [], []
    for s in range(max(start, 1), model.horizon + 1):
        rec = model.observation(s)
        if rec.is_missing:
            continue
        rows.append(rec.model.c @ a_map[s])
        offsets.append(rec.model.c @ b_map[s])
        values.append(rec.value)
        times.append(s)
    if not rows:
        return (
            np.zeros((0, n)),
            np.zeros(0),
            np.zeros((0, 0)),
            np.zeros(0),
        )
    h = np.vstack(rows)
    b = np.concatenate(offsets)
    y = np.concatenate(values)
    dims = [model.observation(s).model.obs_dim for s in times]
    total = sum(dims)
    s_mat = np.zeros((total, total))
    row_of = np.cumsum([0] + dims)
    for i, si in enumerate(times):
        ci = model.observation(si).model.c
        for j, sj in enumerate(times):
            cj = model.observation(sj).model.c
            key = (si, sj) if si <= sj else (sj, si)
            block = cov[key] if si <= sj else cov[key].T
            s_mat[row_of[i] : row_of[i + 1], row_of[j] : row_of[j + 1]] = (
                ci @ block @ cj.T
            )
        s_mat[row_of[i] : row_of[i + 1], row_of[i] : row_of[i + 1]] += model.observation(
            si
        ).model.noise_cov
    return h, b, 0.5 * (s_mat + s_mat.T), y


def future_likelihood_oracle(model, t, x, include_current=True):
    """Oracle log p(y_{t:T} | x_t = x) by direct propagation.

    ``x`` may be a vector or a (k, n) batch; with no future observations the
    log-likelihood is 0.
    """
    h, b, s, y = stacked_observation_map(model, t, include_current)
    x = np.asarray(x, dtype=float)
    batch = x.ndim == 2
    if h.shape[0] == 0:
        return np.zeros(x.shape[0]) if batch else 0.0
    l = linalg.chol_lower(s)
    const = -0.5 * y.size * linalg.LOG_2PI - linalg.log_diag(l)
    if not batch:
        white = linalg.solve_triangular(l, y - b - h @ x)
        return const - 0.5 * float(white @ white)
    resid = y[None, :] - b[None, :] - x @ h.T
    white = linalg.solve_triangular(l, resid.T)
    return const - 0.5 * np.sum(white * white, axis=0)
