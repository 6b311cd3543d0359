"""Dense linear-algebra kernels with pinned conventions.

Everything downstream relies on two conventions fixed here:

* QR upper factors have a non-negative diagonal (sign flips are applied to
  matching rows of U and columns of Q), which makes factorizations
  deterministic and lets log-determinants be read off the diagonal.
* Rank and PSD decisions use one relative tolerance, :data:`RTOL` (rank
  relative to the largest singular value, PSD by :func:`check_psd`).

Kernel contract: the hot kernels :func:`chol_lower`, :func:`solve_triangular`,
:func:`qr_r` and :func:`qr_upper` take finite float arrays of matching shapes
and scan nothing. Finiteness is checked once, at the boundary:
``model.validate`` checks every model array, and reads a model object's
factor only once its covariance is finite, square and symmetric; everything
the recursion derives from a valid model is finite. The kernels call LAPACK
``potrf``, ``trtrs``, ``geqrf`` and ``orgqr`` directly with scipy's own call
pattern, so their results are bit-identical to
``scipy.linalg.cholesky``/``solve_triangular``/``qr``; QR factors come back
C-ordered, as numpy's do, and ``potrf``/``trtrs`` failures are read from
LAPACK's ``info``. ``qr_upper(a)`` is the complete factorization (square Q),
and ``solve_triangular(l, b, trans=False)`` solves with a lower-triangular
``l`` or its transpose.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

LOG_2PI = float(np.log(2.0 * np.pi))
_FLOAT = np.dtype(float)

RTOL = 1e-10


class FactorizationError(ValueError):
    """A matrix factorization failed (non-PD pivot, zero diagonal, ...)."""


_GEQRF, _ORGQR, _POTRF, _TRTRS = scipy.linalg.get_lapack_funcs(
    ("geqrf", "orgqr", "potrf", "trtrs"), dtype=np.float64
)
# QR block size: columns x it is scipy's workspace, which sets the rounding past 128 columns
_QR_NB = int(max(_GEQRF([[0.0]], lwork=-1)[2][0], _ORGQR([[0.0]], [0.0], lwork=-1)[1][0]))


def as_data(x):
    """Float array of one data vector ``(k,)`` or a batch of them ``(B, k)``.

    Inputs with fewer than two axes are raveled to a vector, so scalars and
    lists keep their single-sequence meaning; a leading batch axis is kept.
    A C-ordered float array of one or two axes is returned as it is.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT and 0 < x.ndim < 3 and x.flags.c_contiguous:
        return x
    x = np.asarray(x, dtype=float)
    return x.ravel() if x.ndim < 2 else x


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


@functools.lru_cache(maxsize=64)
def _strict_lower(shape):
    """Read-only mask of the entries below the diagonal of a ``shape`` matrix."""
    mask = np.tri(*shape, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _geqrf(a, rows):
    """LAPACK QR of A: (raw factor, tau, U, row signs).

    U is a C-ordered copy of the first ``rows`` rows of R, each row whose
    diagonal entry is < 0.0 flipped; the signs are None when no row was.
    """
    qr, tau, _, _ = _GEQRF(a, lwork=max(1, a.shape[1]) * _QR_NB)
    u = qr[:rows].copy()  # C order, and never a view of what orgqr overwrites
    np.putmask(u, _strict_lower(u.shape), 0.0)
    if min(u.diagonal().tolist(), default=0.0) >= 0.0:
        return qr, tau, u, None
    signs = np.where(u.diagonal() < 0.0, -1.0, 1.0)
    u[: signs.size] *= signs[:, None]
    return qr, tau, u, signs


def qr_upper(a):
    """Complete QR factorization A = Q U with a deterministic sign convention.

    Q is the full square (m, m) factor and U is (m, n), as numpy's
    ``mode="complete"`` returns them. The diagonal of U is forced
    non-negative by flipping signs of rows of U and the corresponding
    columns of Q; columns of Q beyond min(m, n) keep LAPACK's sign.
    """
    (m, n), k = a.shape, min(a.shape)
    if a.size == 0:
        raise ValueError("A must not be empty")
    qr, tau, u, signs = _geqrf(a, m)
    q = qr[:, :k]
    if m > n:
        q = np.empty((m, m), order="F")
        q[:, :n] = qr
    q = np.ascontiguousarray(_ORGQR(q, tau, lwork=q.shape[1] * _QR_NB, overwrite_a=1)[0])
    if signs is not None:
        q[:, :k] *= signs
    return q, u


def qr_r(a):
    """Upper factor U of :func:`qr_upper` (same signs), without forming Q."""
    return _geqrf(a, min(a.shape))[2]


def chol_lower(s):
    """Lower-triangular Cholesky factor of a symmetric PD matrix."""
    l, info = _POTRF(s, lower=True, clean=True)
    if info > 0:
        raise FactorizationError(
            f"Cholesky factorization failed at pivot {info}: matrix not "
            "positive definite"
        )
    return l


def solve_triangular(l, b, trans=False):
    """Solve L X = B (or Lᵀ X = B with ``trans=True``) for lower-triangular L."""
    l = np.asarray(l)
    if len(b) != l.shape[0]:
        raise ValueError(f"L of shape {l.shape} and b of length {len(b)} do not match")
    if l.flags.f_contiguous:
        x, info = _TRTRS(l, b, lower=True, trans=trans)
    else:
        # trtrs reads Fortran order: solve the transposed system, as scipy does
        x, info = _TRTRS(l.T, b, lower=False, trans=not trans)
    if info > 0:
        raise FactorizationError(f"zero diagonal element at index {info - 1}")
    if info < 0:
        raise ValueError(f"LAPACK trtrs rejected argument {-info}")
    return x


def check_psd(w):
    """Raise FactorizationError unless eigenvalues ``w`` are those of a PSD matrix.

    An eigenvalue below ``-RTOL * max(1, largest)`` is genuinely negative;
    smaller negative ones are rounding, which callers clip to zero. A
    non-finite eigenvalue (NaN or inf) is never PSD.
    """
    if not np.isfinite(w).all() or w.min(initial=0.0) < -RTOL * max(1.0, w.max(initial=0.0)):
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
    w, v = np.linalg.eigh(0.5 * s + 0.5 * s.T)
    check_psd(w)
    f = v * np.sqrt(np.clip(w, 0.0, None))[None, :]
    # F Fᵀ = S; re-triangularize: Fᵀ = Q U gives S = Uᵀ U.
    return qr_r(f.T).T


def pseudo_inverse(a):
    """Moore-Penrose pseudo-inverse and numerical rank via SVD: (A^+, rank)."""
    a = _as_matrix(a, "A")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0])), 0
    rank = int((s > RTOL * s[0]).sum())
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (vt.T * inv[None, :]) @ u.T, rank


def pseudo_logdet(s):
    """Sum of log-eigenvalues above the rank threshold, for symmetric PSD S."""
    s = _as_matrix(s, "S")
    w = np.linalg.eigvalsh(0.5 * s + 0.5 * s.T)
    check_psd(w)
    kept = w[w > RTOL * np.max(np.abs(w), initial=0.0)]
    return float(np.log(kept).sum()), int(kept.size)


def log_diag(l):
    """Sum of the logs of the diagonal of a triangular factor: log det(L)."""
    return float(np.log(l.diagonal()).sum())
