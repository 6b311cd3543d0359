import copy
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from gmsmooth import linalg
from gmsmooth.backward import (
    LogQuadLikelihood,
    _clamp_psd,
    array_update,
    backward_pass,
    fuse_observation,
    grouped_moments,
    likelihood_moments,
    predict_backward,
    terminal_init,
)
from gmsmooth.baselines import future_likelihood_oracle
from gmsmooth.forward import smooth
from gmsmooth.model import (
    ObservationModel,
    ObservationRecord,
    Transition,
    attach_observations,
    validate,
    wiener_acceleration_model,
)
from gmsmooth.sqrt import sqrt_backward_pass

from conftest import gaussian_logpdf, random_model
from test_model import scalar_random_walk


class TestTerminalInit:
    def test_identity_noise(self):
        rec = ObservationRecord(1, ObservationModel(np.eye(2), np.eye(2)), [1.0, 2.0])
        lik = terminal_init(rec)
        npt.assert_allclose(lik.y_bar, [1.0, 2.0])
        npt.assert_allclose(lik.c_bar, np.eye(2))
        npt.assert_allclose(lik.log_c, -np.log(2 * np.pi))

    def test_scalar_whitening(self):
        rec = ObservationRecord(1, ObservationModel([[1.0]], [[4.0]]), [2.0])
        lik = terminal_init(rec)
        npt.assert_allclose(lik.y_bar, [1.0])
        npt.assert_allclose(lik.c_bar, [[0.5]])
        npt.assert_allclose(lik.log_c, -0.5 * np.log(8 * np.pi))
        # pointwise against the density N(2; x, 4)
        for x in [0.0, 1.0, 2.0]:
            expected = -0.5 * np.log(8 * np.pi) - (2.0 - x) ** 2 / 8.0
            npt.assert_allclose(lik.log_value(np.array([x])), expected, atol=1e-14)

    def test_missing_value(self):
        rec = ObservationRecord(1, ObservationModel([[1.0, 0.0]], [[1.0]]), None)
        lik = terminal_init(rec)
        assert lik.is_empty
        assert lik.log_c == 0.0
        assert lik.state_dim == 2

    def test_missing_without_sensor_raises(self):
        with pytest.raises(ValueError, match="no state dim"):
            terminal_init(ObservationRecord(1))

    def test_whitens_each_sensor_object_once(self, rng):
        sensor = ObservationModel(rng.standard_normal((2, 3)), np.diag([4.0, 9.0]))
        twin = copy.deepcopy(sensor)
        first = terminal_init(ObservationRecord(1, sensor, [1.0, 2.0]))
        again = terminal_init(ObservationRecord(2, sensor, [3.0, 4.0]))
        other = terminal_init(ObservationRecord(3, twin, [1.0, 2.0]))
        c_bar, log_c = sensor.whitened
        assert first.c_bar is c_bar and again.c_bar is c_bar and sensor.whitened[0] is c_bar
        assert other.c_bar is twin.whitened[0] and other.c_bar is not c_bar
        assert not c_bar.flags.writeable  # shared by the steps, so read-only
        assert first.log_c == again.log_c == log_c
        fresh = terminal_init(ObservationRecord(2, replace(sensor), [3.0, 4.0]))
        assert fresh.c_bar is not c_bar
        for got, want in ((again, fresh), (other, first)):
            assert got.log_c == want.log_c
            assert np.array_equal(got.y_bar, want.y_bar) and np.array_equal(got.c_bar, want.c_bar)


class TestArrayUpdate:
    @pytest.mark.parametrize("seed", range(4))
    def test_factors_and_batched_residual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m_bar = int(rng.integers(1, n + 1))
        lik = LogQuadLikelihood(
            0.0, rng.standard_normal((3, m_bar)), rng.standard_normal((m_bar, n))
        )
        mean = rng.standard_normal(n)
        factor = np.tril(rng.standard_normal((n, n)))
        l, k, p, white = array_update(lik, mean, factor)
        cov = factor @ factor.T
        c = lik.c_bar
        npt.assert_allclose(l @ l.T, np.eye(m_bar) + c @ cov @ c.T, atol=1e-10)
        npt.assert_allclose(k @ l.T, cov @ c.T, atol=1e-10)
        npt.assert_allclose(p @ p.T, cov - k @ k.T, atol=1e-10)
        for row, y in zip(white, lik.y_bar):
            npt.assert_allclose(l @ row, y - c @ mean, atol=1e-10)


class TestClampPsd:
    @staticmethod
    def _with_eigenvalues(w, seed=0):
        v, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(w), len(w))))
        return (v * np.asarray(w)[None, :]) @ v.T

    def test_pd_input_returned_symmetrized(self, monkeypatch):
        q = self._with_eigenvalues([0.5, 1.0, 2.0, 3.0])
        q[0, 1] += 1e-13  # not exactly symmetric
        # a PD matrix is recognized by its Cholesky factor alone
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert np.array_equal(_clamp_psd(q), 0.5 * (q + q.T))

    def test_tiny_negative_eigenvalue_clamped(self):
        q = self._with_eigenvalues([-1e-14, 1.0, 2.0])
        with pytest.raises(linalg.FactorizationError):
            linalg.chol_lower(0.5 * (q + q.T))  # so the eigh path runs
        out = _clamp_psd(q)
        w, v = np.linalg.eigh(0.5 * (q + q.T))
        expected = (v * np.clip(w, 0.0, None)[None, :]) @ v.T
        assert np.array_equal(out, 0.5 * (expected + expected.T))
        assert np.array_equal(out, out.T)
        npt.assert_allclose(out, q, atol=1e-13)

    def test_significant_negative_eigenvalue_raises(self):
        q = self._with_eigenvalues([-1e-6, 1.0, 2.0])
        with pytest.raises(linalg.FactorizationError, match="eigenvalue"):
            _clamp_psd(q)


class TestPredictBackward:
    def test_empty_likelihood_passes_prior(self, rng):
        trans = Transition(
            rng.standard_normal((2, 2)), rng.standard_normal(2), np.eye(2)
        ).with_noise_chol()
        lik, post = predict_backward(LogQuadLikelihood.empty(2), trans)
        assert lik.is_empty
        assert post is trans
        npt.assert_array_equal(post.phi, trans.phi)
        npt.assert_array_equal(post.offset, trans.offset)
        npt.assert_array_equal(post.noise_cov, trans.noise_cov)

    def test_scalar_hand_example(self):
        lik = LogQuadLikelihood(0.0, [2.0], [[1.0]])
        trans = Transition([[1.0]], [0.0], [[1.0]])
        prev, post = predict_backward(lik, trans)
        npt.assert_allclose(prev.y_bar, [np.sqrt(2.0)])
        npt.assert_allclose(prev.c_bar, [[1.0 / np.sqrt(2.0)]])
        npt.assert_allclose(prev.log_c, -0.5 * np.log(2.0))
        npt.assert_allclose(post.phi, [[0.5]])
        npt.assert_allclose(post.offset, [1.0])
        npt.assert_allclose(post.noise_cov, [[0.5]])

    def test_zero_noise_shifts_data(self, rng):
        n = 3
        c_bar = rng.standard_normal((2, n))
        y_bar = rng.standard_normal(2)
        u0 = rng.standard_normal(n)
        lik = LogQuadLikelihood(-1.2, y_bar, c_bar)
        trans = Transition(np.eye(n), u0, np.zeros((n, n)))
        prev, post = predict_backward(lik, trans)
        npt.assert_allclose(prev.y_bar, y_bar - c_bar @ u0, atol=1e-12)
        npt.assert_allclose(prev.c_bar, c_bar, atol=1e-12)
        npt.assert_allclose(prev.log_c, -1.2, atol=1e-12)
        npt.assert_allclose(post.phi, np.eye(n), atol=1e-12)
        npt.assert_allclose(post.offset, u0, atol=1e-12)
        npt.assert_allclose(post.noise_cov, np.zeros((n, n)), atol=1e-12)


def _textbook_kernel(lik, trans):
    """Posterior kernel from the unwhitened gain G = Q C' R_hat^{-1}, by np.linalg.solve."""
    c, q, phi, u = lik.c_bar, trans.noise_cov, trans.phi, trans.offset
    r_hat = np.eye(lik.m_bar) + c @ q @ c.T
    gain = np.linalg.solve(r_hat, c @ q).T
    resid = lik.y_bar - c @ u
    return (
        (np.eye(lik.state_dim) - gain @ c) @ phi,
        u + resid @ gain.T,
        q - gain @ r_hat @ gain.T,
    )


class TestPosteriorKernel:
    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("zero_q", [False, True])
    @pytest.mark.parametrize("singular_phi", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_whitened_gain_matches_textbook_gain(self, batch, zero_q, singular_phi, seed):
        rng = np.random.default_rng(seed)
        n, m_bar = 4, 1 + seed
        phi = rng.standard_normal((n, n))
        if singular_phi:
            phi[1, :] = 0.0
        a = rng.standard_normal((n, n))
        q = np.zeros((n, n)) if zero_q else a @ a.T
        trans = Transition(phi, rng.standard_normal(n), q)
        shape = (m_bar,) if batch is None else (batch, m_bar)
        lik = LogQuadLikelihood(0.3, rng.standard_normal(shape), rng.standard_normal((m_bar, n)))
        _, post = predict_backward(lik, trans)
        expected = _textbook_kernel(lik, trans)
        assert post.offset.shape == expected[1].shape
        for got, want in zip((post.phi, post.offset, post.noise_cov), expected):
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_zero_noise_keeps_prior_kernel_exactly(self, rng):
        lik = LogQuadLikelihood(0.0, rng.standard_normal(2), rng.standard_normal((2, 3)))
        trans = Transition(rng.standard_normal((3, 3)), rng.standard_normal(3), np.zeros((3, 3)))
        _, post = predict_backward(lik, trans)
        assert np.array_equal(post.phi, trans.phi)
        assert np.array_equal(post.offset, trans.offset)
        assert not post.noise_cov.any()


class TestFuseObservation:
    def test_empty_returns_other(self, rng):
        obs = LogQuadLikelihood(-0.3, rng.standard_normal(2), rng.standard_normal((2, 3)))
        assert fuse_observation(LogQuadLikelihood.empty(3), obs) is obs
        assert fuse_observation(obs, LogQuadLikelihood.empty(3)) is obs

    def test_small_branch_plain_stack(self, rng):
        prev = LogQuadLikelihood(-0.5, rng.standard_normal(1), rng.standard_normal((1, 3)))
        obs = LogQuadLikelihood(-0.7, rng.standard_normal(1), rng.standard_normal((1, 3)))
        fused = fuse_observation(prev, obs)
        assert fused.m_bar == 2
        npt.assert_allclose(fused.log_c, -1.2)
        npt.assert_array_equal(fused.y_bar, np.concatenate([prev.y_bar, obs.y_bar]))
        npt.assert_array_equal(fused.c_bar, np.vstack([prev.c_bar, obs.c_bar]))

    def test_big_branch_scalar(self):
        # (1-x)^2 + (3-x)^2 = 2(2-x)^2 + 2
        prev = LogQuadLikelihood(-0.25, [1.0], [[1.0]])
        obs = LogQuadLikelihood(-0.75, [3.0], [[1.0]])
        fused = fuse_observation(prev, obs)
        assert fused.m_bar == 1
        npt.assert_allclose(fused.c_bar, [[np.sqrt(2.0)]])
        npt.assert_allclose(fused.y_bar, [2.0 * np.sqrt(2.0)])
        npt.assert_allclose(fused.log_c, -1.0 - 1.0)
        for x in [-1.0, 0.0, 2.0]:
            direct = (
                -1.0 - 0.5 * ((1.0 - x) ** 2 + (3.0 - x) ** 2)
            )
            npt.assert_allclose(fused.log_value(np.array([x])), direct, atol=1e-12)

    def test_compression_preserves_value(self, rng):
        n = 3
        prev = LogQuadLikelihood(
            -0.4, rng.standard_normal(n), rng.standard_normal((n, n))
        )
        obs = LogQuadLikelihood(
            -0.9, rng.standard_normal(2), rng.standard_normal((2, n))
        )
        fused = fuse_observation(prev, obs)
        assert fused.m_bar == n
        for _ in range(20):
            x = rng.standard_normal(n)
            direct = prev.log_value(x) + obs.log_value(x)
            npt.assert_allclose(fused.log_value(x), direct, atol=1e-10)

    def test_observation_wider_than_state_compressed(self, rng):
        n = 2
        obs = LogQuadLikelihood(-0.9, rng.standard_normal(3), rng.standard_normal((3, n)))
        fused = fuse_observation(LogQuadLikelihood.empty(n), obs)
        assert fused.m_bar == n
        for _ in range(20):
            x = rng.standard_normal(n)
            npt.assert_allclose(fused.log_value(x), obs.log_value(x), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fuse_observation(LogQuadLikelihood.empty(2), LogQuadLikelihood.empty(3))

    @pytest.mark.parametrize("y_bar", [np.zeros(3), np.zeros((4, 3))], ids=["single", "batch"])
    def test_row_count_mismatch_rejected(self, y_bar):
        with pytest.raises(ValueError, match="y_bar and c_bar row counts differ"):
            LogQuadLikelihood(0.0, y_bar, np.ones((2, 2)))


class TestBackwardPass:
    def test_single_step(self):
        model = scalar_random_walk(horizon=1, values=[1.0])
        result = backward_pass(model)
        assert len(result.likelihood_given_t) == 1
        assert result.likelihood_given_t[0].m_bar == 1
        assert result.initial_likelihood is result.likelihood_given_prev[0]

    def test_pointwise_scalar_random_walk(self, rng):
        model = scalar_random_walk(horizon=3, values=[0.3, -1.2, 0.8])
        result = backward_pass(model)
        for t in range(1, 4):
            lik = result.likelihood_given_t[t - 1]
            xs = rng.standard_normal((100, 1))
            expected = future_likelihood_oracle(model, t, xs)
            npt.assert_allclose(lik.log_value(xs), expected, atol=1e-8)

    def test_only_terminal_observation(self, rng):
        model = random_model(rng, n=3, horizon=5, missing_frac=0.0)
        for t in range(1, 5):
            rec = model.observations[t - 1]
            model.observations[t - 1] = ObservationRecord(t, rec.model, None)
        result = backward_pass(model)
        m = model.observation(5).model.obs_dim
        for t in range(1, 6):
            assert result.likelihood_given_t[t - 1].m_bar == min(m, 3)

    @pytest.mark.parametrize("seed", range(12))
    def test_pointwise_random_models(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        result = backward_pass(model)
        for t in range(1, model.horizon + 1):
            lik = result.likelihood_given_t[t - 1]
            xs = rng.standard_normal((100, model.state_dim))
            expected = future_likelihood_oracle(model, t, xs)
            npt.assert_allclose(lik.log_value(xs), expected, atol=1e-8)
            # one state rather than a batch of them
            npt.assert_allclose(
                lik.log_value(xs[0]), future_likelihood_oracle(model, t, xs[0]), atol=1e-8
            )
            # and the predicted likelihood over x_{t-1}
            prev = result.likelihood_given_prev[t - 1]
            expected_prev = future_likelihood_oracle(
                model, t - 1, xs, include_current=False
            )
            npt.assert_allclose(prev.log_value(xs), expected_prev, atol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_bounds(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, missing_frac=0.2)
        n = model.state_dim
        result = backward_pass(model)
        for t in range(1, model.horizon + 1):
            lik = result.likelihood_given_t[t - 1]
            assert lik.m_bar <= n
            rec = model.observation(t)
            if not rec.is_missing:
                assert lik.m_bar >= rec.model.obs_dim
            # innovation covariance eigenvalue floor
            if not lik.is_empty:
                q = model.transition(t).noise_cov
                r_hat = np.eye(lik.m_bar) + lik.c_bar @ q @ lik.c_bar.T
                assert np.linalg.eigvalsh(r_hat).min() >= 1.0 - 1e-10
            # posterior transition noise is PSD
            q_post = result.transitions_post[t - 1].noise_cov
            assert np.linalg.eigvalsh(q_post).min() >= -1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_posterior_transition_kernel_identity(self, seed):
        # log pi^(t:T)(x_t | x_{t-1})
        #   = log h_{t:T|t}(x_t) + log pi(x_t|x_{t-1}) - log h_{t:T|t-1}(x_{t-1})
        rng = np.random.default_rng(seed)
        model = random_model(rng, zero_q_frac=0.0, singular_phi_frac=0.2)
        result = backward_pass(model)
        for t in range(1, model.horizon + 1):
            tr = model.transition(t)
            post = result.transitions_post[t - 1]
            if np.linalg.eigvalsh(post.noise_cov).min() < 1e-8:
                continue  # degenerate kernels checked via the smoother tests
            for _ in range(5):
                x_prev = rng.standard_normal(model.state_dim)
                x_t = rng.standard_normal(model.state_dim)
                lhs = gaussian_logpdf(
                    x_t, post.phi @ x_prev + post.offset, post.noise_cov
                )
                rhs = (
                    result.likelihood_given_t[t - 1].log_value(x_t)
                    + gaussian_logpdf(x_t, tr.phi @ x_prev + tr.offset, tr.noise_cov)
                    - result.likelihood_given_prev[t - 1].log_value(x_prev)
                )
                npt.assert_allclose(lhs, rhs, atol=1e-8)


def _pass_bytes(result):
    """Every number of a backward pass, as bytes, in order."""
    out = []
    for lik in result.likelihood_given_t + result.likelihood_given_prev:
        out += [np.asarray(lik.log_c).tobytes(), lik.y_bar.tobytes(), lik.c_bar.tobytes()]
    for post in result.transitions_post:
        out += [post.phi.tobytes(), post.offset.tobytes(), post.noise_cov.tobytes()]
    return out


def _uncached_pass(model):
    """backward_pass's loop with every observation whitened afresh."""
    n, big_t = model.state_dim, model.horizon
    given_t, given_prev, posts = [None] * big_t, [None] * big_t, [None] * big_t
    lik = LogQuadLikelihood.empty(n)
    for t in range(big_t, 0, -1):
        rec = model.observation(t)
        if rec.is_missing:
            obs = LogQuadLikelihood.empty(n)
        else:  # a new sensor object: no whitened pair cached on it yet
            obs = terminal_init(replace(rec, model=replace(rec.model)))
        given_t[t - 1] = fuse_observation(lik, obs)
        lik, posts[t - 1] = predict_backward(given_t[t - 1], model.transition(t))
        given_prev[t - 1] = lik
    return replace(backward_pass(model), likelihood_given_t=given_t,
                   likelihood_given_prev=given_prev, transitions_post=posts)


def _tracking_model(rng, horizon=12, batch=None):
    """The shared-object tracking model (one sensor, one transition) with random data."""
    model = wiener_acceleration_model(1.0, (1.0, 2.0), (0.5, 1.5), horizon, 3)
    shape = (2,) if batch is None else (batch, 2)
    values = [None if rec.model is None else rng.standard_normal(shape)
              for rec in model.observations]
    return attach_observations(model, values)


def _with_sensors(model, sensors):
    records = [replace(rec, model=s) for rec, s in zip(model.observations, sensors)]
    return replace(model, observations=records)


class TestWhiteningOncePerPass:
    @pytest.mark.parametrize("batch", [None, 3])
    def test_shared_sensor_matches_per_step_copies(self, rng, batch):
        model = _tracking_model(rng, batch=batch)
        copies = _with_sensors(model, [copy.deepcopy(rec.model) for rec in model.observations])
        assert copies.observation(5).model is not copies.observation(6).model
        shared = _pass_bytes(backward_pass(model))
        assert shared == _pass_bytes(backward_pass(copies))
        assert shared == _pass_bytes(_uncached_pass(model))

    def test_alternating_sensors_never_mixed(self, rng):
        model = _tracking_model(rng)
        sensor_a = model.observation(12).model
        sensor_b = ObservationModel(sensor_a.c, [[4.0, 0.5], [0.5, 0.25]])
        sensors = [None if rec.model is None else (sensor_a, sensor_b)[rec.time_index % 2]
                   for rec in model.observations]
        alternating = _with_sensors(model, sensors)
        copies = _with_sensors(model, [copy.deepcopy(s) for s in sensors])
        result = _pass_bytes(backward_pass(alternating))
        assert result == _pass_bytes(backward_pass(copies))
        assert result == _pass_bytes(_uncached_pass(alternating))
        assert result != _pass_bytes(backward_pass(model))  # sensor_a at every step


def _reference_qr_upper(a):
    """The QR kernels' contract from scipy.linalg.qr: non-negative diagonal, C order."""
    q, r = scipy.linalg.qr(a, mode="full")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r[: signs.size] *= signs[:, None]
    q[:, : signs.size] *= signs
    return np.ascontiguousarray(q), np.ascontiguousarray(r)


def _smooth_arrays(model):
    """Every array of the plain and the square-root smoother's output."""
    out = []
    for backward in (None, sqrt_backward_pass(model)):
        result = smooth(model, backward=backward)
        for marg in result.marginals:
            out += [marg.mean, marg.cov]
        for trans in result.transitions:
            out += [trans.phi, trans.offset, trans.noise_cov, trans.noise_chol]
        out.append(result.log_marginal_likelihood)
    return out


class TestRecursionQr:
    @pytest.mark.parametrize("seed", range(3))
    def test_smooth_bit_identical_to_reference_qr(self, seed, monkeypatch):
        # n = 3 with 2-row sensors, some 4-row ones and missing steps: the
        # fusion stacks past n and compresses, and m > n enters compressed
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=3, horizon=12, zero_q_frac=0.3, missing_frac=0.3)
        records = []
        for rec in model.observations:
            m = 4 if rec.time_index % 4 == 0 else 2
            sensor = ObservationModel(rng.standard_normal((m, 3)), np.eye(m) + 0.1)
            value = None if rec.value is None else rng.standard_normal(m)
            records.append(ObservationRecord(rec.time_index, sensor, value))
        model = replace(model, observations=records)
        assert validate(model) == []
        production = _smooth_arrays(model)

        calls = {"qr_upper": 0, "qr_r": 0}

        def qr_upper(a):
            calls["qr_upper"] += 1
            return _reference_qr_upper(a)

        def qr_r(a):
            calls["qr_r"] += 1
            return _reference_qr_upper(a)[1][: min(a.shape)]

        monkeypatch.setattr(linalg, "qr_upper", qr_upper)
        monkeypatch.setattr(linalg, "qr_r", qr_r)
        reference = _smooth_arrays(model)
        assert calls["qr_upper"] > 0 and calls["qr_r"] > 0
        assert len(production) == len(reference)
        for got, expected in zip(production, reference):
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.array_equal(got, expected)


def _moments_alone(lik):
    """One likelihood's moments by the per-likelihood formula: pseudo-inverse,
    y_bar @ pinv.T, the symmetrized pinv @ pinv.T and -2 sum log s over the
    kept singular values; zero for h = 1."""
    n = lik.state_dim
    if lik.is_empty:
        return np.zeros(n), np.zeros((n, n)), 0, 0.0
    c_pinv, rank = linalg.pseudo_inverse(lik.c_bar)
    cov = c_pinv @ c_pinv.T
    logdet = -2.0 * np.log(np.linalg.svd(lik.c_bar, compute_uv=False)[:rank]).sum()
    return lik.y_bar @ c_pinv.T, 0.5 * (cov + cov.T), rank, logdet


class TestLikelihoodMoments:
    @pytest.mark.parametrize("batch", [None, 3])
    def test_grouped_bit_identical_to_each_alone(self, rng, batch):
        n = 7
        rows = [0, 3, 7, 7, 3, 10, 7, 1, 3, 7, 10, 0]  # repeated shapes, m_bar < n, = n, > n
        liks = []
        for i, m in enumerate(rows):
            c = rng.standard_normal((m, n))
            if i == 4:
                c[:] = 0.0  # no information: zero moments, rank 0
            elif i == 6:
                c[-1] = 2.0 * c[0]  # rank deficient
            y = rng.standard_normal((batch, m) if batch and i % 2 else m)
            liks.append(LogQuadLikelihood(0.0, y, c) if m else LogQuadLikelihood.empty(n))
        means, covs, ranks, logdets = grouped_moments(liks)
        assert means.shape == (len(rows),) + ((batch,) if batch else ()) + (n,)
        assert ranks.tolist() == [0, 3, 7, 7, 0, 7, 6, 1, 3, 7, 7, 0]
        for lik, mean, cov, rank, logdet in zip(liks, means, covs, ranks, logdets):
            expected_mean, expected_cov, expected_rank, expected_logdet = _moments_alone(lik)
            assert mean.tobytes() == np.broadcast_to(expected_mean, mean.shape).tobytes()
            assert cov.tobytes() == expected_cov.tobytes()
            assert rank == expected_rank
            npt.assert_allclose(logdet, expected_logdet, rtol=1e-14, atol=1e-14)
            est = likelihood_moments(lik)  # the one-likelihood case
            assert est.mean.tobytes() == expected_mean.tobytes()
            assert est.mean.shape == expected_mean.shape
            assert est.cov.tobytes() == expected_cov.tobytes() and est.rank == expected_rank
            assert est.logdet == logdet

    def test_full_rank(self):
        lik = LogQuadLikelihood(0.0, [1.0, 2.0], np.eye(2))
        est = likelihood_moments(lik)
        npt.assert_allclose(est.mean, [1.0, 2.0])
        npt.assert_allclose(est.cov, np.eye(2))
        assert est.rank == 2

    def test_rank_deficient_minimum_norm(self):
        lik = LogQuadLikelihood(0.0, [3.0], [[1.0, 0.0]])
        est = likelihood_moments(lik)
        npt.assert_allclose(est.mean, [3.0, 0.0])
        npt.assert_allclose(est.cov, np.diag([1.0, 0.0]))
        assert est.rank == 1
        # the covariance lives on the row space of c_bar
        basis = np.linalg.svd(lik.c_bar)[2][: est.rank].T
        npt.assert_allclose(basis @ basis.T @ est.cov, est.cov)

    def test_empty(self):
        est = likelihood_moments(LogQuadLikelihood.empty(2))
        assert est.rank == 0
        npt.assert_allclose(est.mean, np.zeros(2))

    def test_one_svd_per_call(self, rng, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        lik = LogQuadLikelihood(0.0, rng.standard_normal(2), rng.standard_normal((2, 4)))
        est = likelihood_moments(lik)
        assert len(calls) == 1
        assert est.rank == 2

    def test_mean_in_row_space(self, rng):
        lik = LogQuadLikelihood(
            0.0, rng.standard_normal(2), rng.standard_normal((2, 4))
        )
        est = likelihood_moments(lik)
        # minimum-norm solution lies in the row space of c_bar
        basis = np.linalg.svd(lik.c_bar)[2][: est.rank].T
        proj = basis @ basis.T
        npt.assert_allclose(proj @ est.mean, est.mean, atol=1e-10)
