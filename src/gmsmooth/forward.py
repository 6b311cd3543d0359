"""Forward half of the backward-forward smoother.

Given the backward pass output, the initial fusion combines the
x0-likelihood with the prior (proper or flat), yielding the marginal
likelihood, and the smoothing marginals then follow by propagating through
the posterior transition kernels. A proper prior is fused by the same array
update as a square-root backward prediction, so the x0 posterior comes with
its covariance factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .backward import (
    DegenerateGaussian,
    array_update,
    backward_pass,
    likelihood_moments,
)
from .linalg import LOG_2PI
from .model import FlatEverywhere, FlatOnSupport, Proper

_LEAK_TOL = 1e-6  # off-support distance, relative to 1 + |x - mean|, beyond rounding


@dataclass
class GaussianMarginal:
    """Mean and covariance of one smoothing (or filtering) marginal."""

    mean: np.ndarray
    cov: np.ndarray
    cov_chol: np.ndarray | None = None

    def __post_init__(self):
        self.mean = linalg.as_data(self.mean)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov_chol is not None:
            self.cov_chol = np.asarray(self.cov_chol, dtype=float)


@dataclass
class SmoothingResult:
    """Smoothing marginals t = 0..T plus the path-posterior transition kernels."""

    marginals: list[GaussianMarginal]
    transitions: list
    log_marginal_likelihood: float
    initial_posterior: object = None  # DegenerateGaussian when degenerate


def fuse_initial(lik0, initial):
    """Combine the x0-likelihood with the prior by Bayes' rule.

    Returns (posterior over x0, log marginal likelihood). A proper prior is
    folded in by one :func:`~gmsmooth.backward.array_update` on its
    covariance factor. For a flat prior on the likelihood's support, the
    posterior is the likelihood's own degenerate Gaussian and the evidence
    uses the pseudo-determinant. For a prior flat on all of R^n the evidence
    is infinite.
    """
    if isinstance(initial, Proper):
        prior = initial.with_chol()
        if lik0.is_empty:
            return GaussianMarginal(prior.mean, prior.cov, prior.chol), 0.0
        s0_chol, gain_hat, cov_chol, white = array_update(lik0, prior.mean, prior.chol)
        mean = prior.mean + white @ gain_hat.T
        # log N(y_bar; c_bar mu0, S0) plus the (2pi)^{m_bar/2} carried by h
        log_l = (
            lik0.log_c
            - float(np.sum(np.log(np.diag(s0_chol))))
            - 0.5 * (white * white).sum(axis=-1)
        )
        return GaussianMarginal(mean, cov_chol @ cov_chol.T, cov_chol), log_l

    moments = likelihood_moments(lik0)
    if isinstance(initial, FlatOnSupport):
        logdet, rank = linalg.pseudo_logdet(moments.cov)
        log_l = lik0.log_c + 0.5 * (rank * LOG_2PI + logdet)
        return moments, log_l
    if isinstance(initial, FlatEverywhere):
        return moments, math.inf
    raise TypeError(f"unknown initial distribution {initial!r}")


def propagate_marginals(
    posterior0,
    transitions,
    log_marginal_likelihood=math.nan,
):
    """Propagate the x0 posterior through the posterior transition kernels."""
    if isinstance(posterior0, DegenerateGaussian):
        first = GaussianMarginal(posterior0.mean, posterior0.cov)
        initial_posterior = posterior0
    else:
        first = posterior0
        initial_posterior = None
    marginals = [first]
    for trans in transitions:
        prev = marginals[-1]
        mean = prev.mean @ trans.phi.T + trans.offset
        cov = trans.phi @ prev.cov @ trans.phi.T + trans.noise_cov
        marginals.append(GaussianMarginal(mean, 0.5 * (cov + cov.T)))
    return SmoothingResult(
        marginals,
        list(transitions),
        log_marginal_likelihood,
        initial_posterior,
    )


def smooth(model, backward=None):
    """Full backward-forward smoothing of a model.

    ``backward`` may supply a precomputed :class:`BackwardPassResult` (for
    example from the square-root pass); otherwise the plain backward pass is
    run. With ``(B, m)`` observation values the marginal means (and a
    flat-on-support or proper log marginal likelihood) gain a leading batch
    axis, while the covariances are shared by the whole batch.
    """
    if backward is None:
        backward = backward_pass(model)
    posterior0, log_l = fuse_initial(backward.initial_likelihood, model.initial)
    return propagate_marginals(posterior0, backward.transitions_post, log_l)


def _degenerate_logpdf(x, mean, cov):
    """Log-density of a possibly singular Gaussian on its affine support."""
    x = np.asarray(x, dtype=float).ravel()
    d = x - mean
    cov_pinv, rank, _ = linalg.pseudo_inverse(cov)
    if rank < cov.shape[0]:
        leak = d - cov @ (cov_pinv @ d)
        if np.linalg.norm(leak) > _LEAK_TOL * (1.0 + np.linalg.norm(d)):
            raise ValueError("point lies off the support of a degenerate Gaussian")
    if rank == 0:
        return 0.0
    logdet, _ = linalg.pseudo_logdet(cov)
    return -0.5 * (rank * LOG_2PI + logdet + float(d @ cov_pinv @ d))


def log_path_posterior(result, path, model=None):
    """Log-density of a state path under the forward Markov path posterior.

    ``result`` must come from a single sequence, not a batch.
    """
    if result.marginals[0].mean.ndim != 1:
        raise ValueError("log_path_posterior needs a single-sequence result")
    if len(path) != len(result.transitions) + 1:
        raise ValueError("path must have one state per time index 0..T")
    path = [np.asarray(x, dtype=float).ravel() for x in path]
    if model is not None:
        for x in path:
            if x.shape != (model.state_dim,):
                raise ValueError("path state dimension mismatch")
    first = result.marginals[0]
    total = _degenerate_logpdf(path[0], first.mean, first.cov)
    for t, trans in enumerate(result.transitions, start=1):
        mean = trans.phi @ path[t - 1] + trans.offset
        total += _degenerate_logpdf(path[t], mean, trans.noise_cov)
    return total
