"""Dense linear-algebra kernels with pinned conventions.

Everything downstream relies on two conventions fixed here:

* QR upper factors have a non-negative diagonal (sign flips are applied to
  matching rows of U and columns of Q), which makes factorizations
  deterministic and lets log-determinants be read off the diagonal.
* Rank and PSD decisions use one relative tolerance, :data:`RTOL` (rank
  relative to the largest singular value, PSD by :func:`check_psd`).

Kernel contract: the hot kernels :func:`chol_lower`, :func:`solve_triangular`
and :func:`qr_r` take finite float arrays of matching shapes and scan
nothing. Finiteness is checked once, at the boundary: ``model.validate``
checks every model array and the model constructors factor only finite
covariances, and everything the recursion derives from a valid model is
finite. ``chol_lower`` and ``solve_triangular`` call LAPACK ``potrf`` and
``trtrs`` directly with scipy's own call pattern, so their results are
bit-identical to ``scipy.linalg.cholesky``/``solve_triangular``, and report
failures from LAPACK's ``info``. :func:`qr_upper` keeps its finiteness
check, which its tests pin.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

LOG_2PI = float(np.log(2.0 * np.pi))

RTOL = 1e-10


class FactorizationError(ValueError):
    """A matrix factorization failed (non-PD pivot, zero diagonal, ...)."""


_POTRF, _TRTRS = scipy.linalg.get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)


def as_data(x):
    """Float array of one data vector ``(k,)`` or a batch of them ``(B, k)``.

    Inputs with fewer than two axes are raveled to a vector, so scalars and
    lists keep their single-sequence meaning; a leading batch axis is kept.
    """
    x = np.asarray(x, dtype=float)
    return x.ravel() if x.ndim < 2 else x


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _fix_signs(u):
    """Flip rows of U in place to make its diagonal non-negative; return the signs."""
    k = min(u.shape)
    signs = np.where(np.diag(u)[:k] < 0.0, -1.0, 1.0)
    u[:k, :] *= signs[:, None]
    return signs


def qr_upper(a, complete=False):
    """QR factorization A = Q U with a deterministic sign convention.

    The diagonal of U is forced non-negative by flipping signs of rows of U
    and the corresponding columns of Q. With ``complete=True`` the full
    square Q is returned (columns beyond min(m, n) keep numpy's sign).
    """
    a = _as_matrix(a, "A")
    q, u = np.linalg.qr(a, mode="complete" if complete else "reduced")
    signs = _fix_signs(u)
    q[:, : signs.size] *= signs[None, :]
    return q, u


def qr_r(a):
    """Upper factor U of :func:`qr_upper` (same signs), without forming Q."""
    u = np.linalg.qr(a, mode="r")
    _fix_signs(u)
    return u


def chol_lower(s):
    """Lower-triangular Cholesky factor of a symmetric PD matrix."""
    l, info = _POTRF(s, lower=True, clean=True)
    if info > 0:
        raise FactorizationError(
            f"Cholesky factorization failed at pivot {info}: matrix not "
            "positive definite"
        )
    return l


def solve_triangular(l, b, lower=True, trans=False):
    """Solve L X = B (or Lᵀ X = B with ``trans=True``) for triangular L."""
    l = np.asarray(l)
    if len(b) != l.shape[0]:
        raise ValueError(f"L of shape {l.shape} and b of length {len(b)} do not match")
    if l.flags.f_contiguous:
        x, info = _TRTRS(l, b, lower=lower, trans=trans)
    else:
        # trtrs reads Fortran order: solve the transposed system, as scipy does
        x, info = _TRTRS(l.T, b, lower=not lower, trans=not trans)
    if info > 0:
        raise FactorizationError(f"zero diagonal element at index {info - 1}")
    if info < 0:
        raise ValueError(f"LAPACK trtrs rejected argument {-info}")
    return x


def check_psd(w):
    """Raise FactorizationError unless eigenvalues ``w`` are those of a PSD matrix.

    An eigenvalue below ``-RTOL * max(1, largest)`` is genuinely negative;
    smaller negative ones are rounding, which callers clip to zero.
    """
    if w.min(initial=0.0) < -RTOL * max(1.0, w.max(initial=0.0)):
        raise FactorizationError(
            f"matrix is not positive semi-definite: eigenvalue {w.min():.3e}"
        )


def psd_chol(s):
    """Lower-triangular factor L with L Lᵀ = S for symmetric PSD S.

    Falls back to an eigendecomposition-based factor (re-triangularized via
    QR) when the matrix is singular, so zero noise covariances are fine.
    """
    s = _as_matrix(s, "S")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"S must be square, got shape {s.shape}")
    try:
        return chol_lower(s)
    except FactorizationError:
        pass
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    check_psd(w)
    f = v * np.sqrt(np.clip(w, 0.0, None))[None, :]
    # F Fᵀ = S; re-triangularize: Fᵀ = Q U gives S = Uᵀ U.
    return qr_r(f.T).T


def pseudo_inverse(a):
    """Moore-Penrose pseudo-inverse, numerical rank and row-space basis via SVD.

    Returns (A^+, rank, V) where the ``rank`` orthonormal columns of V are
    the right singular vectors kept, spanning the row space of A.
    """
    a = _as_matrix(a, "A")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0])), 0, np.zeros((a.shape[1], 0))
    rank = int(np.sum(s > RTOL * s[0]))
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (vt.T * inv[None, :]) @ u.T, rank, vt[:rank, :].T


def pseudo_logdet(s):
    """Sum of log-eigenvalues above the rank threshold, for symmetric PSD S."""
    s = _as_matrix(s, "S")
    w = np.linalg.eigvalsh(0.5 * (s + s.T))
    check_psd(w)
    kept = w[w > RTOL * np.max(np.abs(w), initial=0.0)]
    return float(np.sum(np.log(kept))), int(kept.size)


def gaussian_logpdf(x, mean, cov):
    """Log-density of a multivariate normal with PD covariance."""
    x = np.asarray(x, dtype=float).ravel()
    mean = np.asarray(mean, dtype=float).ravel()
    l = chol_lower(cov)
    z = solve_triangular(l, x - mean)
    return -0.5 * (x.size * LOG_2PI + float(z @ z)) - float(
        np.sum(np.log(np.diag(l)))
    )
