"""Square-root (array) variant of the backward recursion.

Covariances are never formed: each prediction folds the transition noise in
by one :func:`~gmsmooth.backward.array_update`, whose QR-factored pre-array
yields triangular factors of the innovation covariance and of the posterior
noise with the whitened gain; only this fold differs from the plain
prediction. The noise factor is the transition's own ``noise_chol``,
computed on first read, so a transition shared by many steps is factored
once, and the simulator and :func:`~gmsmooth.model.validate` read the same one.
Fusion steps involve no covariances and are shared with the plain module.
The forward half is shared too: a proper prior is fused by one more such
prediction (:func:`~gmsmooth.forward.fuse_initial`), and the marginals
are propagated in covariance form by :func:`~gmsmooth.forward.propagate_marginals`.
"""

from __future__ import annotations

from .backward import LogQuadLikelihood, _posterior_step, array_update, backward_pass


def array_predict_backward(lik, trans):
    """Backward prediction using only the triangular factor of the noise."""
    if lik.is_empty:
        return LogQuadLikelihood.empty(lik.state_dim), trans

    r_hat_chol, gain_hat, post_chol, y_new = array_update(lik, trans.offset, trans.noise_chol)
    return _posterior_step(lik, trans, r_hat_chol, gain_hat, y_new, post_chol @ post_chol.T)


def sqrt_backward_pass(model):
    """Backward recursion with all predictions in array form.

    Each transition brings its own ``noise_chol``, computed on first read.
    """
    return backward_pass(model, predict=array_predict_backward)
