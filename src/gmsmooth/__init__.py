"""Backward-forward smoothing for partially observed Gauss-Markov models.

The backward recursion carries likelihoods of future observations in a
log-quadratic parametrization (a whitened pseudo-observation of the state),
which sidesteps information form and gives the forward Markov representation
of the path posterior directly. A square-root variant, two-filter fusion,
flat-prior inference, and a dense joint-Gaussian verification oracle are
included. Each public name is imported from the module that defines it
(``from gmsmooth.forward import smooth``); the package itself re-exports
nothing.
"""
