import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from gmsmooth import linalg


class TestQrUpper:
    def test_identity(self):
        q, u = linalg.qr_upper(np.eye(3))
        npt.assert_allclose(q, np.eye(3))
        npt.assert_allclose(u, np.eye(3))

    def test_single_column(self):
        a = np.array([[1.0], [1.0]])
        q, u = linalg.qr_upper(a)
        npt.assert_allclose(u, [[np.sqrt(2.0)]])
        npt.assert_allclose(q, a / np.sqrt(2.0))
        npt.assert_allclose(u.T @ u, a.T @ a, atol=1e-12)

    def test_permutation(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q, u = linalg.qr_upper(a)
        npt.assert_allclose(u, np.eye(2), atol=1e-14)
        npt.assert_allclose(q @ u, a, atol=1e-14)
        npt.assert_allclose(q.T @ q, np.eye(2), atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3))
        q1, u1 = linalg.qr_upper(a)
        q2, u2 = linalg.qr_upper(a.copy())
        assert np.array_equal(q1, q2)
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("seed", range(10))
    def test_gram_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 9, size=2)
        a = rng.standard_normal((m, n))
        _, u = linalg.qr_upper(a)
        scale = max(1.0, np.abs(a.T @ a).max())
        npt.assert_allclose(u.T @ u, a.T @ a, atol=1e-10 * scale)
        assert np.all(np.diag(u)[: min(m, n)] >= 0.0)

    def test_complete_mode(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 2))
        q, u = linalg.qr_upper(a, complete=True)
        assert q.shape == (5, 5)
        npt.assert_allclose(q @ u, a, atol=1e-12)
        npt.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.qr_upper(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestQrR:
    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (14, 14), (1, 4), (4, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_qr_upper_factor(self, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        assert np.array_equal(linalg.qr_r(a), linalg.qr_upper(a)[1])


class TestCholLower:
    def test_identity(self):
        npt.assert_allclose(linalg.chol_lower(np.eye(2)), np.eye(2))

    def test_hand_example(self):
        s = np.array([[4.0, 2.0], [2.0, 2.0]])
        l = linalg.chol_lower(s)
        npt.assert_allclose(l, [[2.0, 0.0], [1.0, 1.0]])
        npt.assert_allclose(l @ l.T, s, atol=1e-12)

    def test_scalar(self):
        npt.assert_allclose(linalg.chol_lower([[9.0]]), [[3.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        s = a @ a.T + n * np.eye(n)
        l = linalg.chol_lower(s)
        npt.assert_allclose(l @ l.T, s, atol=1e-12 * np.abs(s).max())
        assert np.all(np.diag(l) > 0.0)

    def test_not_pd(self):
        with pytest.raises(linalg.FactorizationError, match="pivot"):
            linalg.chol_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_scipy(self, order, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        s = np.asarray(a @ a.T + 0.1 * np.eye(n), order=order)
        assert np.array_equal(
            linalg.chol_lower(s), scipy.linalg.cholesky(s, lower=True)
        )

    def test_reports_first_failing_pivot(self):
        # leading minors 4, 4 and then -4: indefinite at the third
        s = np.array(
            [
                [4.0, 2.0, 0.0, 0.0],
                [2.0, 2.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        with pytest.raises(linalg.FactorizationError, match="pivot 3:"):
            linalg.chol_lower(s)


class TestSolveTriangular:
    def test_identity(self):
        b = np.array([1.0, -2.0])
        npt.assert_allclose(linalg.solve_triangular(np.eye(2), b), b)

    def test_hand_example(self):
        l = np.array([[2.0, 0.0], [1.0, 1.0]])
        x = linalg.solve_triangular(l, np.array([2.0, 2.0]))
        npt.assert_allclose(x, [1.0, 1.0])
        npt.assert_allclose(l @ x, [2.0, 2.0], atol=1e-10)

    def test_scalar(self):
        npt.assert_allclose(linalg.solve_triangular([[3.0]], [6.0]), [2.0])

    def test_transpose(self):
        l = np.array([[2.0, 0.0], [1.0, 1.0]])
        b = np.array([3.0, 1.0])
        x = linalg.solve_triangular(l, b, trans=True)
        npt.assert_allclose(l.T @ x, b, atol=1e-12)

    def test_zero_diagonal(self):
        with pytest.raises(linalg.FactorizationError, match="index 1"):
            linalg.solve_triangular(np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 1.0])

    @pytest.mark.parametrize("layout", ["C", "F", "transposed-view"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_zero_diagonal_index_in_every_layout(self, layout, lower):
        l = _triangular(np.arange(1.0, 10.0).reshape(3, 3), lower, layout)
        l[1, 1] = 0.0
        with pytest.raises(linalg.FactorizationError, match="index 1$"):
            linalg.solve_triangular(l, np.ones(3), lower=lower)

    @pytest.mark.parametrize("layout", ["C", "F", "transposed-view"])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("rhs", ["vector", "matrix", "batch-transposed"])
    def test_bit_identical_to_scipy(self, layout, lower, trans, rhs):
        rng = np.random.default_rng(3)
        m = 5
        l = _triangular(rng.standard_normal((m, m)) + 3.0 * np.eye(m), lower, layout)
        b = {
            "vector": rng.standard_normal(m),
            "matrix": rng.standard_normal((m, 4)),
            "batch-transposed": rng.standard_normal((7, m)).T,
        }[rhs]
        expected = scipy.linalg.solve_triangular(l, b, lower=lower, trans=int(trans))
        x = linalg.solve_triangular(l, b, lower=lower, trans=trans)
        assert x.shape == b.shape
        assert np.array_equal(x, expected)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            linalg.solve_triangular(np.eye(2), np.ones((3, 2)))


def _triangular(a, lower, layout):
    """Triangular part of ``a`` laid out C-ordered, F-ordered or as a transposed view."""
    if layout == "transposed-view":
        # the transpose of a C-ordered triangle of the opposite kind
        return np.ascontiguousarray(np.triu(a) if lower else np.tril(a)).T
    tri = np.tril(a) if lower else np.triu(a)
    return np.asarray(tri, order=layout)


class TestPseudoInverse:
    def test_identity(self):
        pinv, rank, _ = linalg.pseudo_inverse(np.eye(2))
        npt.assert_allclose(pinv, np.eye(2))
        assert rank == 2

    def test_diagonal(self):
        pinv, rank, _ = linalg.pseudo_inverse(np.diag([2.0, 0.0]))
        npt.assert_allclose(pinv, np.diag([0.5, 0.0]))
        assert rank == 1

    def test_column(self):
        pinv, rank, _ = linalg.pseudo_inverse(np.array([[1.0], [1.0]]))
        npt.assert_allclose(pinv, [[0.5, 0.5]])
        assert rank == 1

    def test_zero_matrix(self):
        pinv, rank, basis = linalg.pseudo_inverse(np.zeros((2, 3)))
        npt.assert_allclose(pinv, np.zeros((3, 2)))
        assert rank == 0
        assert basis.shape == (3, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_penrose_conditions(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 6, size=2)
        rank = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        pinv, detected, basis = linalg.pseudo_inverse(a)
        assert detected == rank
        tol = 1e-10 * max(1.0, np.abs(a).max())
        npt.assert_allclose(a @ pinv @ a, a, atol=tol)
        npt.assert_allclose(pinv @ a @ pinv, pinv, atol=tol)
        npt.assert_allclose(a @ pinv, (a @ pinv).T, atol=tol)
        npt.assert_allclose(pinv @ a, (pinv @ a).T, atol=tol)
        # the basis is orthonormal and spans the row space: V V' = A^+ A
        assert basis.shape == (n, rank)
        npt.assert_allclose(basis.T @ basis, np.eye(rank), atol=1e-12)
        npt.assert_allclose(basis @ basis.T, pinv @ a, atol=1e-9)


class TestPseudoLogdet:
    def test_diagonal(self):
        value, rank = linalg.pseudo_logdet(np.diag([2.0, 0.0]))
        npt.assert_allclose(value, np.log(2.0))
        assert rank == 1

    def test_identity(self):
        value, rank = linalg.pseudo_logdet(np.eye(3))
        assert value == 0.0
        assert rank == 3

    def test_rank_one(self):
        value, rank = linalg.pseudo_logdet(np.ones((2, 2)))
        npt.assert_allclose(value, np.log(2.0))
        assert rank == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_logdet_for_pd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        s = a @ a.T + n * np.eye(n)
        value, rank = linalg.pseudo_logdet(s)
        assert rank == n
        npt.assert_allclose(value, np.linalg.slogdet(s)[1], atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(linalg.FactorizationError):
            linalg.pseudo_logdet(np.diag([1.0, -1.0]))


class TestGaussianLogpdf:
    def test_standard_normal(self):
        npt.assert_allclose(
            linalg.gaussian_logpdf([0.0], [0.0], [[1.0]]), -0.5 * np.log(2 * np.pi)
        )

    def test_unit_shift(self):
        npt.assert_allclose(
            linalg.gaussian_logpdf([1.0], [0.0], [[1.0]]),
            -0.5 - 0.5 * np.log(2 * np.pi),
        )

    def test_variance_two(self):
        npt.assert_allclose(
            linalg.gaussian_logpdf([1.0], [0.0], [[2.0]]),
            -0.25 - 0.5 * np.log(4 * np.pi),
        )

    def test_rejects_non_pd(self):
        with pytest.raises(linalg.FactorizationError):
            linalg.gaussian_logpdf([0.0, 0.0], [0.0, 0.0], np.diag([1.0, 0.0]))


class TestPsdChol:
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_singular_factor(self, rank):
        rng = np.random.default_rng(rank)
        a = rng.standard_normal((3, max(rank, 1)))
        s = a @ a.T if rank else np.zeros((3, 3))
        l = linalg.psd_chol(s)
        npt.assert_allclose(l @ l.T, s, atol=1e-10 * max(1.0, np.abs(s).max()))
        npt.assert_allclose(l, np.tril(l))

    @pytest.mark.parametrize(
        "w, psd",
        [
            ([1.0, -1e-11], True),
            ([1.0, -1e-9], False),
            ([1e-12, -1e-12], True),
            ([1e12, -50.0], True),
            ([1e12, -200.0], False),
        ],
    )
    def test_one_psd_rule_with_pseudo_logdet(self, w, psd):
        # an eigenvalue below -RTOL * max(1, largest) is genuinely negative
        for factor in (linalg.psd_chol, linalg.pseudo_logdet):
            if psd:
                factor(np.diag(w))
            else:
                with pytest.raises(linalg.FactorizationError, match="eigenvalue"):
                    factor(np.diag(w))
