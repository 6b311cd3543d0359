"""Backward-forward smoothing for partially observed Gauss-Markov models.

The backward recursion carries likelihoods of future observations in a
log-quadratic parametrization (a whitened pseudo-observation of the state),
which sidesteps information form and gives the forward Markov representation
of the path posterior directly. A square-root variant, two-filter fusion,
flat-prior inference, and a dense joint-Gaussian verification oracle are
included.
"""

from .backward import (
    BackwardPassResult,
    DegenerateGaussian,
    LogQuadLikelihood,
    backward_pass,
    fuse_observation,
    likelihood_moments,
    predict_backward,
    terminal_init,
)
from .forward import (
    GaussianMarginal,
    SmoothingResult,
    fuse_initial,
    log_path_posterior,
    propagate_marginals,
    smooth,
)
from .model import (
    FlatEverywhere,
    FlatOnSupport,
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
    attach_observations,
    load_model,
    save_model,
    simulate,
    simulate_batch,
    validate,
    wiener_acceleration_model,
)
from .sqrt import array_predict_backward, sqrt_backward_pass

__all__ = [
    "BackwardPassResult",
    "DegenerateGaussian",
    "FlatEverywhere",
    "FlatOnSupport",
    "GaussMarkovModel",
    "GaussianMarginal",
    "LogQuadLikelihood",
    "ObservationModel",
    "ObservationRecord",
    "Proper",
    "SmoothingResult",
    "Transition",
    "array_predict_backward",
    "attach_observations",
    "backward_pass",
    "fuse_initial",
    "fuse_observation",
    "likelihood_moments",
    "load_model",
    "log_path_posterior",
    "predict_backward",
    "propagate_marginals",
    "save_model",
    "simulate",
    "simulate_batch",
    "smooth",
    "sqrt_backward_pass",
    "terminal_init",
    "validate",
    "wiener_acceleration_model",
]
