"""Square-root (array) variant of the backward recursion.

Covariances are never formed: each prediction step QR-factors the pre-array

    [ I                    0      ]
    [ Q^{T/2} c_bar^T   Q^{T/2}  ]

whose upper triangular factor holds the transposed factors of the innovation
covariance, the whitened gain, and the posterior transition noise. Fusion
steps involve no covariances at all and are shared with the plain module.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import linalg
from .backward import (
    LogQuadLikelihood,
    PosteriorTransition,
    backward_pass,
)
from .forward import GaussianMarginal


def array_predict_backward(lik, trans):
    """Backward prediction using only the triangular factor of the noise."""
    if trans.noise_chol is None:
        raise ValueError("square-root prediction requires noise_chol on the transition")
    if lik.is_empty:
        post = PosteriorTransition(
            trans.phi, trans.offset, trans.noise_cov, trans.noise_chol
        )
        return LogQuadLikelihood.empty(lik.state_dim), post

    n = lik.state_dim
    m_bar = lik.m_bar
    qt = trans.noise_chol.T  # Q^{T/2}

    pre = np.zeros((m_bar + n, m_bar + n))
    pre[:m_bar, :m_bar] = np.eye(m_bar)
    pre[m_bar:, :m_bar] = qt @ lik.c_bar.T
    pre[m_bar:, m_bar:] = qt
    _, post_array = linalg.qr_upper(pre)

    r_hat_chol = post_array[:m_bar, :m_bar].T  # lower, positive diagonal
    gain_hat = post_array[:m_bar, m_bar:].T  # n x m_bar
    q_post_chol = post_array[m_bar:, m_bar:].T

    resid = lik.y_bar - lik.c_bar @ trans.offset
    y_new = linalg.solve_triangular(r_hat_chol, resid.T).T
    c_new = linalg.solve_triangular(r_hat_chol, lik.c_bar @ trans.phi)
    log_c_new = lik.log_c - float(np.sum(np.log(np.diag(r_hat_chol))))

    # gain_hat multiplies the already-whitened quantities (y_new, c_new)
    phi_post = trans.phi - gain_hat @ c_new
    u_post = trans.offset + y_new @ gain_hat.T
    cov_post = q_post_chol @ q_post_chol.T

    lik_prev = LogQuadLikelihood(log_c_new, y_new, c_new)
    post = PosteriorTransition(phi_post, u_post, cov_post, q_post_chol)
    return lik_prev, post


def sqrt_backward_pass(model):
    """Backward recursion with all predictions in array form.

    Transitions without a noise factor (for example from a JSON model file)
    are factored once up front.
    """
    transitions = [trans.with_noise_chol() for trans in model.transitions]
    return backward_pass(
        replace(model, transitions=transitions), predict=array_predict_backward
    )


def sqrt_fuse_initial(lik0, prior):
    """Fuse the x0-likelihood with a proper prior using the array identity.

    Returns the posterior over x0 (with covariance factor) and the log
    marginal likelihood of all observations.
    """
    prior = prior.with_chol()
    n = prior.mean.shape[0]
    if lik0.is_empty:
        return (
            GaussianMarginal(prior.mean, prior.cov, prior.chol),
            0.0,
        )
    m_bar = lik0.m_bar
    st = prior.chol.T

    pre = np.zeros((m_bar + n, m_bar + n))
    pre[:m_bar, :m_bar] = np.eye(m_bar)
    pre[m_bar:, :m_bar] = st @ lik0.c_bar.T
    pre[m_bar:, m_bar:] = st
    _, post_array = linalg.qr_upper(pre)

    s0_chol = post_array[:m_bar, :m_bar].T
    gain_hat = post_array[:m_bar, m_bar:].T
    cov_chol = post_array[m_bar:, m_bar:].T

    resid = lik0.y_bar - lik0.c_bar @ prior.mean
    white = linalg.solve_triangular(s0_chol, resid.T).T
    mean = prior.mean + white @ gain_hat.T
    cov = cov_chol @ cov_chol.T

    # log L = log_c + (m_bar/2) log 2pi + log N(y_bar; c_bar mu0, S0); the
    # 2pi terms cancel against the Gaussian normalizer.
    log_l = (
        lik0.log_c
        - float(np.sum(np.log(np.diag(s0_chol))))
        - 0.5 * (white * white).sum(axis=-1)
    )
    return GaussianMarginal(mean, cov, cov_chol), log_l


def sqrt_propagate_marginal(prev, trans_post):
    """Propagate a smoothing marginal one step forward in factored form."""
    if prev.cov_chol is None or trans_post.cov_post_chol is None:
        raise ValueError("square-root propagation requires covariance factors")
    mean = prev.mean @ trans_post.phi_post.T + trans_post.offset_post
    stacked = np.vstack(
        [(trans_post.phi_post @ prev.cov_chol).T, trans_post.cov_post_chol.T]
    )
    _, u = linalg.qr_upper(stacked)
    cov_chol = u.T
    return GaussianMarginal(mean, cov_chol @ cov_chol.T, cov_chol)
