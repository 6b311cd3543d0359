"""Backward recursion over log-quadratic likelihoods.

The likelihood of future observations given the current state is carried as
h(x) = exp(log_c - 0.5 * |y_bar - c_bar x|^2), a linear-Gaussian
pseudo-observation of x with identity noise. The recursion alternates a
prediction step (marginalizing one transition, which also yields the forward
posterior transition kernel) with a fusion step (stacking the pseudo-
observation with the whitened real observation, QR-compressing when the
stack grows past the state dimension). The square-root prediction folds the
transition noise in by the one array-form kernel :func:`array_update`.

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
from .model import Proper, Transition


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
        c_bar = np.asarray(self.c_bar, dtype=float)
        self.c_bar = c_bar if c_bar.ndim >= 2 else np.atleast_2d(c_bar)
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
class DegenerateGaussian(Proper):
    """Gaussian on mean + range(cov) read off a likelihood's ``c_bar``: c_bar' c_bar
    is its precision there, and rank and log pseudo-det ``logdet`` come from c_bar's SVD."""

    rank: int
    logdet: float
    c_bar: np.ndarray


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
    """Whitened single-observation likelihood; the unit likelihood if missing.

    Only y_bar = L^{-1} y depends on the value: c_bar = L^{-1} C and log_c are
    the sensor's :attr:`~gmsmooth.model.ObservationModel.whitened` pair,
    computed once per sensor object, so a sensor shared by many steps is
    whitened once.
    """
    if obs.is_missing:
        if obs.model is None:
            raise ValueError("missing observation without a sensor has no state dim")
        return LogQuadLikelihood.empty(obs.model.c.shape[1])
    c_bar, log_c = obs.model.whitened
    y_bar = linalg.solve_triangular(obs.model.noise_chol, obs.value.T).T
    return LogQuadLikelihood(log_c, y_bar, c_bar)


def array_update(lik, mean, factor):
    """Fold the Gaussian N(mean, S S') into a likelihood by one QR (S = factor).

    The likelihood is a pseudo-observation y_bar = c_bar x + e with identity
    noise, so a backward prediction folds in the transition noise (its mean
    and factor) by this one update. The upper triangular factor of the pre-array

        [ S' c_bar'         S'  ]
        [ I                 0   ]

    holds, transposed, the innovation factor L (L L' = I + c_bar S S' c_bar'),
    the whitened gain K (K L^{-1} is the Kalman gain) and the posterior
    factor P (P P' = S S' - K K'). Returns (L, K, P, w) with the whitened
    residual w = L^{-1}(y_bar - c_bar mean), batched like ``y_bar``.

    Row order leaves that factor unchanged in exact arithmetic; the heavy block
    goes first and the zero block last, as Householder QR of a weighted problem
    needs (Powell & Reid 1969; Cox & Higham 1998), else a wide S forms P by cancellation.
    """
    m_bar, n = lik.c_bar.shape
    st = factor.T
    pre = np.zeros((n + m_bar, m_bar + n))
    pre[:n, :m_bar] = st @ lik.c_bar.T
    pre[:n, m_bar:] = st
    pre.flat[n * (m_bar + n) :: m_bar + n + 1] = 1.0  # I in the bottom left
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


def _posterior_step(lik, trans, l, gain, y_new, noise_cov):
    """The assembly both predictions share once each has folded in the noise.

    From the innovation factor L (L L' = I + C Q C'), the whitened gain K and
    the whitened residual y_new: c_new = L^{-1} C phi, log_c - log det L and
    the kernel (phi - K c_new, u + K y_new) with the given noise."""
    c_new = linalg.solve_triangular(l, lik.c_bar @ trans.phi)
    lik_prev = LogQuadLikelihood(lik.log_c - linalg.log_diag(l), y_new, c_new)
    phi_post = trans.phi - gain @ c_new
    u_post = trans.offset + y_new @ gain.T
    return lik_prev, Transition(phi_post, u_post, noise_cov)


def predict_backward(lik, trans):
    """One backward prediction through a transition.

    Maps the likelihood over x_t to the likelihood over x_{t-1} and returns
    the forward posterior transition kernel for x_t given x_{t-1}, a
    :class:`~gmsmooth.model.Transition` like the prior's (the prior's own
    when no data lies ahead). With L L' = I + C Q C' and the whitened gain
    W = L^{-1} C Q, the kernel is (phi - W' c_new, u + W' y_new, Q - W' W).
    """
    if lik.is_empty:
        return LogQuadLikelihood.empty(lik.state_dim), trans

    c_bar, q = lik.c_bar, trans.noise_cov
    cq = c_bar @ q
    r_hat = cq @ c_bar.T
    r_hat.flat[:: lik.m_bar + 1] += 1.0  # I + C Q C'
    r_hat = 0.5 * (r_hat + r_hat.T)
    try:
        l_hat = linalg.chol_lower(r_hat)
    except linalg.FactorizationError as exc:
        # min eigenvalue of r_hat is >= 1 in exact arithmetic
        raise linalg.FactorizationError(
            "internal error: innovation covariance I + C Q C' lost positive "
            "definiteness"
        ) from exc

    resid = lik.y_bar - c_bar @ trans.offset
    y_new = linalg.solve_triangular(l_hat, resid.T).T
    w = linalg.solve_triangular(l_hat, cq)
    return _posterior_step(lik, trans, l_hat, w.T, y_new, _clamp_psd(q - w.T @ w))


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
        c_hat = np.concatenate([lik_prev.c_bar, obs_lik.c_bar])
        log_c = lik_prev.log_c + obs_lik.log_c
    if c_hat.shape[0] <= n:
        return LogQuadLikelihood(log_c, y_hat, c_hat)

    v, u = linalg.qr_upper(c_hat)
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

    unit = lik = LogQuadLikelihood.empty(n)  # h over x_T with no data yet
    for t in range(big_t, 0, -1):
        rec = model.observation(t)
        obs_lik = unit if rec.is_missing else terminal_init(rec)
        lik_t = fuse_observation(lik, obs_lik)
        likelihood_given_t[t - 1] = lik_t
        lik, post = predict(lik_t, model.transition(t))
        likelihood_given_prev[t - 1] = lik
        transitions_post[t - 1] = post
    return BackwardPassResult(likelihood_given_t, likelihood_given_prev, transitions_post)


def grouped_moments(liks):
    """Means ``(k, [B,] n)``, covariances ``(k, n, n)``, ranks and log pseudo-dets.

    Each likelihood shape takes one stacked SVD. numpy runs the same LAPACK
    and BLAS calls on each matrix of a stack as on one matrix, so an entry is
    bit-identical to its lone computation; a 1-D y_bar's mean broadcasts over B.
    The rank counts c_bar's singular values s > RTOL * s_max; logdet is -2 sum log s.
    """
    groups = {}
    for i, lik in enumerate(liks):
        groups.setdefault((lik.y_bar.shape, lik.c_bar.shape), []).append(i)
    k, n = len(liks), liks[0].state_dim
    batch = max((lik.y_bar.shape[0] for lik in liks if lik.y_bar.ndim == 2), default=0)
    mean, cov, rank = np.zeros((k, max(batch, 1), n)), np.zeros((k, n, n)), np.zeros(k, int)
    logdet = np.zeros(k)
    for (_, (m_bar, _)), idx in groups.items():
        if m_bar == 0:  # the unit likelihood: zero moments
            continue
        u, s, vt = np.linalg.svd(np.stack([liks[i].c_bar for i in idx]), full_matrices=False)
        keep = s > linalg.RTOL * s[:, :1]
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        c_pinv = (vt.transpose(0, 2, 1) * inv[:, None, :]) @ u.transpose(0, 2, 1)
        # a 1-D y_bar as one row: numpy's per-item gemv, as y_bar @ c_pinv.T alone
        y_bar = np.stack([liks[i].y_bar for i in idx]).reshape(len(idx), -1, m_bar)
        mean[idx] = y_bar @ c_pinv.transpose(0, 2, 1)
        c = c_pinv @ c_pinv.transpose(0, 2, 1)  # one buffer: numpy's per-item syrk
        cov[idx] = 0.5 * (c + c.transpose(0, 2, 1))
        rank[idx] = keep.sum(axis=1)
        logdet[idx] = -2.0 * np.log(s, out=np.zeros_like(s), where=keep).sum(axis=1)
    return (mean if batch else mean[:, 0]), cov, rank, logdet


def likelihood_moments(lik):
    """Minimum-norm MLE of the state and pseudo-inverse of the information matrix."""
    mean, cov, rank, logdet = grouped_moments([lik])
    return DegenerateGaussian(mean[0], cov[0], int(rank[0]), float(logdet[0]), lik.c_bar)
