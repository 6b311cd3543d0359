"""Forward half of the backward-forward smoother.

Given the backward pass output, the initial fusion combines the
x0-likelihood with the prior (proper or flat), yielding the marginal
likelihood, and the smoothing marginals then follow by propagating through
the posterior transition kernels. A proper prior is fused as one more
square-root backward prediction, through a transition with phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .backward import DegenerateGaussian, backward_pass, likelihood_moments
from .linalg import LOG_2PI
from .model import FlatEverywhere, FlatOnSupport, Proper
from .sqrt import array_predict_backward

_LEAK_TOL = 1e-6  # off-support distance, relative to 1 + |x - mean|, beyond rounding


@dataclass
class SmoothingResult:
    """Smoothing marginals t = 0..T plus the path-posterior transition kernels."""

    marginals: list[Proper]
    transitions: list
    log_marginal_likelihood: float

    @property
    def initial_posterior(self):
        """The x0 posterior when a flat prior leaves it degenerate, else None."""
        first = self.marginals[0]
        return first if isinstance(first, DegenerateGaussian) else None


def fuse_initial(lik0, initial):
    """Combine the x0-likelihood with the prior by Bayes' rule.

    Returns (posterior over x0, log marginal likelihood). A proper prior
    N(mu0, S0 S0') is its own transition into x0 from a state nothing
    depends on (phi = 0), ``Proper.into_x0``, built and factored once per
    prior. One more square-root backward prediction through it folds it in:
    its kernel is the posterior, and the constant likelihood it leaves,
    log c' - |y_bar'|^2 / 2, is the evidence. For a flat prior on the
    likelihood's support, the posterior is the likelihood's own degenerate
    Gaussian and the evidence integrates h over its support: h at the mean
    times (2 pi)^{rank/2} and the root pseudo-determinant, both read off the
    likelihood's SVD. For a prior flat on all of R^n the evidence is infinite.
    """
    if isinstance(initial, Proper):
        lik, kernel = array_predict_backward(lik0, initial.into_x0)
        log_l = lik.log_c - 0.5 * (lik.y_bar * lik.y_bar).sum(axis=-1)
        return Proper(kernel.offset, kernel.noise_cov), log_l

    moments = likelihood_moments(lik0)
    if isinstance(initial, FlatOnSupport):  # log h(mean): data off c_bar's range lowers it
        resid = lik0.y_bar - moments.mean @ lik0.c_bar.T
        log_c = lik0.log_c - 0.5 * (resid * resid).sum(axis=-1)
        return moments, log_c + 0.5 * (moments.rank * LOG_2PI + moments.logdet)
    if isinstance(initial, FlatEverywhere):
        return moments, math.inf
    raise TypeError(f"unknown initial distribution {initial!r}")


def propagate_marginals(posterior0, transitions, log_marginal_likelihood=math.nan):
    """Propagate the x0 posterior through the posterior transition kernels."""
    marginals = [posterior0]
    for trans in transitions:
        prev = marginals[-1]
        mean = prev.mean @ trans.phi.T + trans.offset
        cov = trans.phi @ prev.cov @ trans.phi.T + trans.noise_cov
        marginals.append(Proper(mean, 0.5 * (cov + cov.T)))
    return SmoothingResult(marginals, list(transitions), log_marginal_likelihood)


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


def _degenerate_logpdf(x, gaussian):
    """Log-density of a possibly singular Gaussian on its affine support.

    One ``eigh`` of the covariance gives the support. A :class:`DegenerateGaussian`
    brings its rank, log pseudo-determinant and precision factor c_bar, so no
    eigenvalue of its covariance enters; any other Gaussian's are read off ``eigh``.
    """
    d = np.asarray(x, dtype=float).ravel() - gaussian.mean
    w, v = np.linalg.eigh(0.5 * gaussian.cov + 0.5 * gaussian.cov.T)
    if isinstance(gaussian, DegenerateGaussian):
        rank, logdet, white = gaussian.rank, gaussian.logdet, gaussian.c_bar @ d
    else:
        linalg.check_psd(w)
        rank = int((w > linalg.RTOL * np.abs(w).max(initial=0.0)).sum())
        w, v = w[w.size - rank :], v[:, w.size - rank :]  # eigh sorts ascending
        logdet, white = float(np.log(w).sum()), (d @ v) / np.sqrt(w)
    v = v[:, v.shape[1] - rank :]
    if rank < d.size and np.linalg.norm(d - v @ (d @ v)) > _LEAK_TOL * (1.0 + np.linalg.norm(d)):
        raise ValueError("point lies off the support of a degenerate Gaussian")
    return -0.5 * (rank * LOG_2PI + logdet + float(white @ white))


def log_path_posterior(result, path):
    """Log-density of a state path under the forward Markov path posterior.

    ``result`` must come from a single sequence, not a batch.
    """
    first = result.marginals[0]
    if first.mean.ndim != 1:
        raise ValueError("log_path_posterior needs a single-sequence result")
    if len(path) != len(result.transitions) + 1:
        raise ValueError("path must have one state per time index 0..T")
    path = [np.asarray(x, dtype=float).ravel() for x in path]
    if any(x.shape != first.mean.shape for x in path):
        raise ValueError("path state dimension mismatch")
    total = _degenerate_logpdf(path[0], first)
    for t, trans in enumerate(result.transitions, start=1):
        mean = trans.phi @ path[t - 1] + trans.offset
        total += _degenerate_logpdf(path[t], Proper(mean, trans.noise_cov))
    return total
