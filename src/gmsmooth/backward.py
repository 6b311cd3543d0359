"""Backward recursion over log-quadratic likelihoods.

The likelihood of future observations given the current state is carried as
h(x) = exp(log_c - 0.5 * |y_bar - c_bar x|^2), a linear-Gaussian
pseudo-observation of x with identity noise. The recursion alternates a
prediction step (marginalizing one transition, which also yields the forward
posterior transition kernel) with a fusion step (stacking the pseudo-
observation with the whitened real observation, QR-compressing when the
stack grows past the state dimension). Folding a Gaussian into the
likelihood in array form, as the square-root prediction and the fusion with
a proper prior both do, is the one kernel :func:`array_update`.

Data may carry a leading batch axis: observation values of shape (B, m)
give y_bar and offsets of shape (B, .) and log_c of shape (B,) (or a scalar
while no data has entered it). Everything else -- c_bar, the innovation
factor, the gain, the posterior kernel's phi and noise_cov, and the
compression QR -- depends only on the model and the missingness pattern, so
it is computed once per step for all B sequences; the data lines are
written in row form so that the same kernels serve one sequence (1-D data)
and a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import LOG_2PI
from .model import Transition


@dataclass
class LogQuadLikelihood:
    """Parameters (log_c, y_bar, c_bar) of h(x) = c exp(-|y_bar - c_bar x|^2 / 2).

    ``y_bar`` is ``(m_bar,)`` for one sequence or ``(B, m_bar)`` for a batch
    sharing ``c_bar``; ``log_c`` is then a scalar or broadcasts against ``(B,)``.
    """

    log_c: float
    y_bar: np.ndarray
    c_bar: np.ndarray

    def __post_init__(self):
        self.y_bar = linalg.as_data(self.y_bar)
        self.c_bar = np.atleast_2d(np.asarray(self.c_bar, dtype=float))
        if self.c_bar.shape[0] != self.y_bar.shape[-1]:
            raise ValueError("y_bar and c_bar row counts differ")

    @classmethod
    def empty(cls, state_dim):
        """The unit likelihood h = 1 (no data)."""
        return cls(0.0, np.zeros(0), np.zeros((0, state_dim)))

    @property
    def m_bar(self):
        return self.c_bar.shape[0]

    @property
    def state_dim(self):
        return self.c_bar.shape[1]

    @property
    def is_empty(self):
        return self.m_bar == 0

    def log_value(self, x):
        """Evaluate log h(x) of a single-sequence likelihood.

        ``x`` may be a vector or a (k, n) batch of states.
        """
        if self.y_bar.ndim != 1:
            raise ValueError("log_value needs a single-sequence likelihood")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            r = self.y_bar - self.c_bar @ x
            return self.log_c - 0.5 * float(r @ r)
        r = self.y_bar[None, :] - x @ self.c_bar.T
        return self.log_c - 0.5 * np.sum(r * r, axis=1)


@dataclass
class DegenerateGaussian:
    """Gaussian supported on the affine set mean + range(cov)."""

    mean: np.ndarray
    cov: np.ndarray
    rank: int
    support_basis: np.ndarray

    def __post_init__(self):
        self.mean = linalg.as_data(self.mean)
        self.cov = np.asarray(self.cov, dtype=float)
        self.support_basis = np.asarray(self.support_basis, dtype=float)


@dataclass
class BackwardPassResult:
    """All intermediate likelihoods and posterior transitions, t = 1..T."""

    likelihood_given_t: list[LogQuadLikelihood]
    likelihood_given_prev: list[LogQuadLikelihood]
    transitions_post: list[Transition]

    @property
    def initial_likelihood(self):
        """h over x_0 carrying all observations (alias of the t=1 entry)."""
        return self.likelihood_given_prev[0]


def terminal_init(obs):
    """Whitened single-observation likelihood; the unit likelihood if missing."""
    if obs.is_missing:
        if obs.model is None:
            raise ValueError("missing observation without a sensor has no state dim")
        return LogQuadLikelihood.empty(obs.model.c.shape[1])
    sensor = obs.model
    m = sensor.obs_dim
    l = sensor.noise_chol
    y_bar = linalg.solve_triangular(l, obs.value.T).T
    c_bar = linalg.solve_triangular(l, sensor.c)
    log_c = -0.5 * m * LOG_2PI - float(np.sum(np.log(np.diag(l))))
    return LogQuadLikelihood(log_c, y_bar, c_bar)


def array_update(lik, mean, factor):
    """Fold the Gaussian N(mean, S S') into a likelihood by one QR (S = factor).

    The likelihood is a pseudo-observation y_bar = c_bar x + e with identity
    noise, so both a backward prediction (mean and factor of the transition
    noise) and the fusion with a proper prior are this one update. The upper
    triangular factor of the pre-array

        [ I                 0   ]
        [ S' c_bar'         S'  ]

    holds, transposed, the innovation factor L (L L' = I + c_bar S S' c_bar'),
    the whitened gain K (K L^{-1} is the Kalman gain) and the posterior
    factor P (P P' = S S' - K K'). Returns (L, K, P, w) with the whitened
    residual w = L^{-1}(y_bar - c_bar mean), batched like ``y_bar``.
    """
    m_bar, n = lik.c_bar.shape
    st = factor.T
    pre = np.zeros((m_bar + n, m_bar + n))
    pre[:m_bar, :m_bar] = np.eye(m_bar)
    pre[m_bar:, :m_bar] = st @ lik.c_bar.T
    pre[m_bar:, m_bar:] = st
    post_array = linalg.qr_r(pre)

    innov_chol = post_array[:m_bar, :m_bar].T  # lower, positive diagonal
    gain_hat = post_array[:m_bar, m_bar:].T  # n x m_bar
    post_chol = post_array[m_bar:, m_bar:].T

    resid = lik.y_bar - lik.c_bar @ mean
    white = linalg.solve_triangular(innov_chol, resid.T).T
    return innov_chol, gain_hat, post_chol, white


def _clamp_psd(q):
    """Symmetrize a covariance and clamp tiny negative eigenvalues.

    A positive definite matrix, the usual case, is recognized by one
    Cholesky factorization and returned symmetrized; only a matrix that
    fails it (singular, or slightly indefinite from rounding) takes the
    eigendecomposition.
    """
    q = 0.5 * (q + q.T)
    try:
        linalg.chol_lower(q)
        return q
    except linalg.FactorizationError:
        pass
    w, v = np.linalg.eigh(q)
    linalg.check_psd(w)
    if w.min(initial=0.0) < 0.0:
        q = (v * np.clip(w, 0.0, None)[None, :]) @ v.T
        q = 0.5 * (q + q.T)
    return q


def predict_backward(lik, trans):
    """One backward prediction through a transition.

    Maps the likelihood over x_t to the likelihood over x_{t-1} and returns
    the forward posterior transition kernel for x_t given x_{t-1}, a
    :class:`~gmsmooth.model.Transition` like the prior's (the prior's own
    when no data lies ahead).
    """
    if lik.is_empty:
        return LogQuadLikelihood.empty(lik.state_dim), trans

    c_bar, y_bar = lik.c_bar, lik.y_bar
    q, phi, u = trans.noise_cov, trans.phi, trans.offset
    m_bar = lik.m_bar

    cq = c_bar @ q
    r_hat = np.eye(m_bar) + cq @ c_bar.T
    r_hat = 0.5 * (r_hat + r_hat.T)
    try:
        l_hat = linalg.chol_lower(r_hat)
    except linalg.FactorizationError as exc:
        # min eigenvalue of r_hat is >= 1 in exact arithmetic
        raise linalg.FactorizationError(
            "internal error: innovation covariance I + C Q C' lost positive "
            "definiteness"
        ) from exc

    resid = y_bar - c_bar @ u
    y_new = linalg.solve_triangular(l_hat, resid.T).T
    c_new = linalg.solve_triangular(l_hat, c_bar @ phi)
    log_c_new = lik.log_c - float(np.sum(np.log(np.diag(l_hat))))

    # gain = Q C' R_hat^{-1}, via two triangular solves
    gain = linalg.solve_triangular(
        l_hat, linalg.solve_triangular(l_hat, cq), trans=True
    ).T
    phi_post = (np.eye(lik.state_dim) - gain @ c_bar) @ phi
    u_post = u + resid @ gain.T
    q_post = _clamp_psd(q - gain @ r_hat @ gain.T)

    lik_prev = LogQuadLikelihood(log_c_new, y_new, c_new)
    return lik_prev, Transition(phi_post, u_post, q_post)


def fuse_observation(lik_prev, obs_lik):
    """Multiply two log-quadratic likelihoods over the same state.

    Pseudo-observation rows of ``lik_prev`` are stacked on top of
    ``obs_lik``. If the stack stays within the state dimension it is kept as
    is; otherwise the stacked matrix is QR-compressed to n rows and the
    orthogonal data residual is absorbed into the log-constant. The same
    holds for an observation with more rows than states fused into the unit
    likelihood, so the result never has more than n rows.
    """
    if lik_prev.state_dim != obs_lik.state_dim:
        raise ValueError("likelihoods are over different state dimensions")
    if obs_lik.is_empty:
        return lik_prev

    n = lik_prev.state_dim
    if lik_prev.is_empty:
        if obs_lik.m_bar <= n:
            return obs_lik
        y_hat, c_hat, log_c = obs_lik.y_bar, obs_lik.c_bar, obs_lik.log_c
    else:
        y_hat = np.concatenate([lik_prev.y_bar, obs_lik.y_bar], axis=-1)
        c_hat = np.vstack([lik_prev.c_bar, obs_lik.c_bar])
        log_c = lik_prev.log_c + obs_lik.log_c
    if c_hat.shape[0] <= n:
        return LogQuadLikelihood(log_c, y_hat, c_hat)

    v, u = linalg.qr_upper(c_hat, complete=True)
    c_new = u[:n, :]
    y_new = y_hat @ v[:, :n]
    e = y_hat @ v[:, n:]
    return LogQuadLikelihood(log_c - 0.5 * (e * e).sum(axis=-1), y_new, c_new)


def backward_pass(model, predict=predict_backward):
    """Run the full backward recursion over a validated model.

    ``predict`` may be swapped for the square-root variant; it must have the
    same signature as :func:`predict_backward`.
    """
    n, big_t = model.state_dim, model.horizon
    likelihood_given_t = [None] * big_t
    likelihood_given_prev = [None] * big_t
    transitions_post = [None] * big_t

    lik = LogQuadLikelihood.empty(n)  # h over x_T with no data yet
    for t in range(big_t, 0, -1):
        rec = model.observation(t)
        obs_lik = LogQuadLikelihood.empty(n) if rec.is_missing else terminal_init(rec)
        lik_t = fuse_observation(lik, obs_lik)
        likelihood_given_t[t - 1] = lik_t
        lik, post = predict(lik_t, model.transition(t))
        likelihood_given_prev[t - 1] = lik
        transitions_post[t - 1] = post
    return BackwardPassResult(likelihood_given_t, likelihood_given_prev, transitions_post)


def likelihood_moments(lik):
    """Minimum-norm maximizer and pseudo-covariance of a likelihood.

    The mean is the minimum-norm maximum likelihood estimate of the state,
    the covariance is the pseudo-inverse of the information matrix, and the
    support basis spans the affine set on which the induced density lives.
    """
    n = lik.state_dim
    if lik.is_empty:
        return DegenerateGaussian(np.zeros(n), np.zeros((n, n)), 0, np.zeros((n, 0)))
    # the basis of range(cov) = row space of c_bar comes from the same SVD
    c_pinv, rank, basis = linalg.pseudo_inverse(lik.c_bar)
    mean = lik.y_bar @ c_pinv.T
    cov = c_pinv @ c_pinv.T
    cov = 0.5 * (cov + cov.T)
    return DegenerateGaussian(mean, cov, rank, basis)
