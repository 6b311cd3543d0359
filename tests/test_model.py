import json
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.linalg

from gmsmooth import linalg
from gmsmooth.linalg import chol_lower
from gmsmooth.model import (
    FlatEverywhere,
    FlatOnSupport,
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
    attach_observations,
    model_from_dict,
    model_to_dict,
    save_model,
    simulate,
    simulate_batch,
    validate,
    wiener_acceleration_model,
)

from gmsmooth.forward import smooth
from gmsmooth.sqrt import sqrt_backward_pass

from conftest import random_model, tracking_json_models


def scalar_random_walk(horizon=3, q=1.0, r=1.0, values=None):
    sensor = ObservationModel([[1.0]], [[r]])
    records = [
        ObservationRecord(t, sensor, None if values is None else [values[t - 1]])
        for t in range(1, horizon + 1)
    ]
    return GaussMarkovModel(
        1,
        horizon,
        [Transition([[1.0]], [0.0], [[q]]).with_noise_chol()] * horizon,
        records,
        Proper([0.0], [[1.0]]),
    )


ASYMMETRIC = [[1.0, 0.5], [0.0, 1.0]]


def sensor_at_t2(model, *args):
    model.observations[1] = ObservationRecord(2, ObservationModel(*args), np.zeros(2))


def prior(model, *args):
    model.initial = Proper(np.zeros(2), *args)


def transition_at_t1(model, *args):
    model.transitions[0] = Transition(np.eye(2), np.zeros(2), *args)


class TestValidate:
    def test_well_formed(self):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        assert validate(model) == []

    def test_non_pd_observation_covariance(self):
        sensor = ObservationModel([[1.0]], [[0.0]])
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        model.observations[1] = ObservationRecord(2, sensor, np.array([1.0]))
        assert any("not PD at t=2" in v for v in validate(model))

    def test_wrong_observation_matrix_width(self):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        bad = ObservationModel([[1.0, 0.0]], np.eye(1))
        model.observations[2] = ObservationRecord(3, bad, np.array([1.0]))
        assert any("t=3" in v for v in validate(model))

    def test_batched_transition_offset_rejected(self):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        model.transitions[1] = Transition([[1.0]], np.zeros((2, 1)), [[1.0]])
        assert validate(model) == ["transition offset at t=2 has shape (2, 1)"]

    def test_no_observations(self):
        model = scalar_random_walk()
        assert any("no non-missing observation" in v for v in validate(model))

    def test_random_models_validate(self, rng):
        for _ in range(10):
            assert validate(random_model(rng)) == []

    def test_non_finite_value_reported_with_time(self):
        model = scalar_random_walk(values=[1.0, np.nan, 3.0])
        assert validate(model) == ["observation value at t=2 is not finite"]

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("transitions", 1, "phi"), "transition matrix at t=2 is not finite"),
            (("transitions", 1, "offset"), "transition offset at t=2 is not finite"),
            (
                ("transitions", 1, "noise_cov"),
                "transition noise covariance at t=2 is not finite",
            ),
            (("observation_models", 2, "c"), "observation matrix at t=3 is not finite"),
            (
                ("observation_models", 2, "noise_cov"),
                "observation covariance at t=3 is not finite",
            ),
            (("initial", "mean"), "initial mean is not finite"),
            (("initial", "cov"), "initial covariance is not finite"),
        ],
    )
    def test_non_finite_model_array_reported_by_name(self, keys, message):
        data = model_to_dict(scalar_random_walk(values=[1.0, 2.0, 3.0]))
        *path, last = keys
        holder = data
        for key in path:
            holder = holder[key]
        holder[last] = np.full(np.shape(holder[last]), np.nan).tolist()
        assert validate(model_from_dict(data)) == [message]

    @pytest.mark.parametrize(
        "noise_cov, message",
        [
            ([[np.nan]], "observation covariance at t=2 is not finite"),
            ([[1.0, 0.0]], "observation covariance at t=2 has shape (1, 2)"),
            ([[-1.0]], "observation covariance not PD at t=2"),
        ],
    )
    def test_unfactorable_noise_covariance_left_to_validate(self, noise_cov, message):
        sensor = ObservationModel([[1.0]], noise_cov)
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        model.observations[1] = ObservationRecord(2, sensor, np.array([2.0]))
        assert validate(model) == [message]

    @pytest.mark.parametrize(
        "put, args, message",
        [
            (sensor_at_t2, (np.eye(2), ASYMMETRIC), "observation covariance at t=2 not symmetric"),
            (prior, (ASYMMETRIC,), "initial covariance not symmetric"),
            (
                transition_at_t1,
                (np.diag([1.0, -1.0]),),
                "transition noise covariance not PSD at t=1",
            ),
            (
                transition_at_t1,
                (np.diag([-9e307, 0.1]),),
                "transition noise covariance not PSD at t=1",
            ),
            (
                transition_at_t1,
                ([[1.0, 1e308], [-1e308, 1.0]],),
                "transition noise covariance at t=1 not symmetric",
            ),
        ],
        ids=[
            "asymmetric-sensor",
            "asymmetric-prior",
            "indefinite-transition",
            "overflowing-transition",
            "overflowing-asymmetric-transition",
        ],
    )
    def test_covariance_defect_reported(self, rng, put, args, message):
        model = random_model(rng, n=2, horizon=3)
        put(model, *args)
        assert validate(model) == [message]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.transitions.pop(), "expected 3 transitions, got 2"),
            (lambda m: m.observations.pop(), "expected 3 observation records, got 2"),
            (
                lambda m: m.observations.__setitem__(1, ObservationRecord(2, None, [2.0])),
                "observation value without sensor model at t=2",
            ),
            (
                lambda m: m.observations.__setitem__(2, replace(m.observations[2], time_index=2)),
                "observation record at t=3 has time_index 2",
            ),
        ],
        ids=["short-transitions", "short-observations", "value-without-sensor", "time-index"],
    )
    def test_structure_defect_reported(self, edit, message):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        edit(model)
        assert validate(model) == [message]

    def test_batched_values_accepted(self, rng):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        batched = attach_observations(model, [rng.standard_normal((4, 1)) for _ in range(3)])
        assert validate(batched) == []

    def test_batch_size_mismatch_reported_with_time(self, rng):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        values = [rng.standard_normal((4, 1)), None, rng.standard_normal((5, 1))]
        assert validate(attach_observations(model, values)) == [
            "observation value at t=3 holds a batch of 5, but the value at t=1 holds a batch of 4"
        ]

    def test_batched_and_single_values_mixed(self, rng):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        values = [np.array([1.0]), rng.standard_normal((2, 1)), np.array([3.0])]
        assert validate(attach_observations(model, values)) == [
            "observation value at t=2 holds a batch of 2, but the value at t=1 holds one sequence"
        ]

    def test_batched_value_dimension_reported_with_time(self, rng):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        values = [rng.standard_normal((2, 1)), rng.standard_normal((2, 3)), None]
        assert validate(attach_observations(model, values)) == [
            "observation value at t=2 has dimension 3, expected 1"
        ]

    def test_value_with_too_many_axes_reported_with_time(self):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        model.observations[0] = ObservationRecord(1, model.observations[0].model, np.ones((2, 2, 1)))
        assert validate(model) == [
            "observation value at t=1 has shape (2, 2, 1), expected (1,) or (B, 1)"
        ]


class TestStepAccess:
    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_step_outside_horizon_rejected(self, t):
        # t = 0 used to count back from the end of the list and return step T
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            model.transition(t)
        with pytest.raises(IndexError):
            model.observation(t)


class TestSimulate:
    def test_noiseless_constant(self):
        sensor = ObservationModel([[1.0]], [[1.0]])
        model = GaussMarkovModel(
            1,
            4,
            [Transition([[1.0]], [0.0], [[0.0]]).with_noise_chol()] * 4,
            [ObservationRecord(t, sensor) for t in range(1, 5)],
            Proper([3.0], [[0.0]]),
        )
        states, _ = simulate(model, seed=0)
        for x in states:
            npt.assert_allclose(x, [3.0])

    def test_deterministic_given_seed(self, rng):
        model = random_model(rng, missing_frac=0.3)
        s1, y1 = simulate(model, seed=42)
        s2, y2 = simulate(model, seed=42)
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)
        for a, b in zip(y1, y2):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_respects_missing_pattern(self, rng):
        model = random_model(rng, missing_frac=0.5)
        # structural pattern is sensor presence, not value presence
        _, ys = simulate(model, seed=1)
        for rec, y in zip(model.observations, ys):
            assert (y is None) == (rec.model is None)

    def test_monte_carlo_state_covariance(self):
        # scalar: Var(x1) = phi^2 sigma0 + q
        model = scalar_random_walk(horizon=1, values=[0.0])
        samples = simulate_batch(model, range(100_000))[0][:, 1, 0]
        expected = 2.0  # 1*1*1 + 1
        se = np.sqrt(2.0 * expected**2 / samples.size)  # SE of sample variance
        assert abs(np.var(samples) - expected) < 3.0 * se

    def test_flat_initial_rejected(self):
        model = scalar_random_walk(values=[1.0, 2.0, 3.0])
        model.initial = FlatEverywhere()
        for draw in (lambda: simulate(model, seed=0), lambda: simulate_batch(model, [0, 1])):
            with pytest.raises(ValueError, match="proper initial"):
                draw()

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch(scalar_random_walk(values=[1.0, 2.0, 3.0]), [])

    def test_each_distinct_transition_factored_once(self, monkeypatch):
        # the prior's factor is one call of each count
        shared, expanded = tracking_json_models()
        calls = []
        monkeypatch.setattr(linalg, "psd_chol", lambda s: calls.append(s) or chol_lower(s))
        counts = []
        for model in (shared, expanded):
            calls.clear()
            simulate_batch(model, [0, 1])
            counts.append(len(calls))
        assert counts == [2, 7]


class TestFactorsOnce:
    def test_each_covariance_factored_once_per_object(self, monkeypatch):
        # loading factors nothing; validate's PD/PSD checks are the first
        # reads of each object's own factor, and the square-root pass and the
        # simulator read the same ones. Per model: one prior, 1 or 6 distinct
        # transitions (psd_chol) and 5 sensors (chol_lower)
        psd_calls, chol_calls = [], []
        monkeypatch.setattr(linalg, "psd_chol", lambda s: psd_calls.append(s) or chol_lower(s))
        monkeypatch.setattr(linalg, "chol_lower", lambda s: chol_calls.append(s) or chol_lower(s))
        models = tracking_json_models()
        counts = [(len(psd_calls), len(chol_calls))]
        for model in models:
            psd_calls.clear()
            chol_calls.clear()
            assert validate(model) == []
            sqrt_backward_pass(model)
            simulate_batch(model, [0, 1])
            counts.append((len(psd_calls), len(chol_calls)))
        assert counts == [(0, 0), (2, 5), (7, 5)]


class TestWienerAccelerationModel:
    def test_small_dt_limits(self):
        model = wiener_acceleration_model(1e-9, [1.0, 1.0], [1.0, 1.0], 4, 1)
        tr = model.transition(1)
        npt.assert_allclose(tr.phi, np.eye(6), atol=1e-8)
        npt.assert_allclose(tr.noise_cov, np.zeros((6, 6)), atol=1e-8)

    def test_process_noise_by_quadrature(self):
        # Q_axis = int_0^dt Phi(dt-s) G G' Phi(dt-s)' ds with G = (0,0,sigma)'
        dt = 1.0
        model = wiener_acceleration_model(dt, [1.0, 1.0], [1.0, 1.0], 4, 1)

        def phi_axis(h):
            return np.array([[1.0, h, 0.5 * h**2], [0.0, 1.0, h], [0.0, 0.0, 1.0]])

        g = np.array([0.0, 0.0, 1.0])

        def integrand(s, i, j):
            v = phi_axis(dt - s) @ g
            return v[i] * v[j]

        q_expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                q_expected[i, j], _ = scipy.integrate.quad(
                    integrand, 0.0, dt, args=(i, j), epsabs=1e-12
                )
        npt.assert_allclose(model.transition(1).noise_cov[:3, :3], q_expected, atol=1e-10)
        npt.assert_allclose(
            q_expected,
            [
                [1 / 20, 1 / 8, 1 / 6],
                [1 / 8, 1 / 3, 1 / 2],
                [1 / 6, 1 / 2, 1.0],
            ],
            atol=1e-10,
        )

    def test_transition_matrix_by_matrix_exponential(self):
        dt = 1.0
        drift = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        model = wiener_acceleration_model(dt, [1.0, 1.0], [1.0, 1.0], 4, 1)
        npt.assert_allclose(
            model.transition(1).phi[:3, :3], scipy.linalg.expm(drift * dt), atol=1e-12
        )
        npt.assert_allclose(
            model.transition(1).phi[:3, :3],
            [[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        )

    @pytest.mark.parametrize("dt", [0.01, 0.5, 1.0, 5.0])
    def test_process_noise_psd(self, dt):
        model = wiener_acceleration_model(dt, [0.7, 1.3], [1.0, 1.0], 4, 1)
        q = model.transition(1).noise_cov
        np.linalg.cholesky(q + 1e-14 * np.eye(6))
        assert np.linalg.eigvalsh(q).min() >= -1e-12

    def test_axes_do_not_couple(self):
        model = wiener_acceleration_model(1.0, [1.0, 2.0], [1.0, 1.0], 4, 1)
        tr = model.transition(1)
        npt.assert_allclose(tr.phi[:3, 3:], 0.0)
        npt.assert_allclose(tr.phi[3:, :3], 0.0)
        npt.assert_allclose(tr.noise_cov[:3, 3:], 0.0)

    def test_observation_pattern(self):
        model = wiener_acceleration_model(1.0, [1.0, 1.0], [2.0, 3.0], 10, 4)
        for t in range(1, 4):
            assert model.observation(t).model is None
        for t in range(4, 11):
            sensor = model.observation(t).model
            npt.assert_allclose(sensor.noise_cov, np.diag([2.0, 3.0]))
            npt.assert_allclose(sensor.c[0], [1, 0, 0, 0, 0, 0])
            npt.assert_allclose(sensor.c[1], [0, 0, 0, 1, 0, 0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            wiener_acceleration_model(0.0, [1, 1], [1, 1], 4, 1)
        with pytest.raises(ValueError):
            wiener_acceleration_model(1.0, [1, -1], [1, 1], 4, 1)
        with pytest.raises(ValueError):
            wiener_acceleration_model(1.0, [1, 1], [1, 1], 4, 5)

    @pytest.mark.parametrize(
        "dt, sigmas, lambdas, message",
        [
            (np.nan, [1, 1], [1, 1], "dt must be positive and finite, got nan"),
            (np.inf, [1, 1], [1, 1], "dt must be positive and finite, got inf"),
            (1e80, [1, 1], [1, 1], "dt=1e+80 overflows the transition or its noise covariance"),
            (1.0, [1, np.inf], [1, 1], "sigma2 must be positive and finite, got inf"),
            (1.0, [1e200, 1], [1, 1], "sigma1=1e+200 with dt=1.0 overflows the noise covariance"),
            (1e50, [1, 1e40], [1, 1], "sigma2=1e+40 with dt=1e+50 overflows the noise covariance"),
            (1.0, [1, 1], [np.nan, 1], "lambda1 must be positive and finite, got nan"),
            (1.0, [1, 1], [1, 0], "lambda2 must be positive and finite, got 0.0"),
            (1.0, [1, 1, 1], [1, 1], "sigmas and lambdas must each have two entries"),
            (1.0, [1], [1, 1], "sigmas and lambdas must each have two entries"),
            (1.0, [1, 1], [[1, 1], [1, 1]], "sigmas and lambdas must each have two entries"),
        ],
        ids=[
            "nan-dt",
            "inf-dt",
            "overflowing-dt",
            "inf-sigma",
            "overflowing-sigma",
            "overflowing-sigma-and-dt",
            "nan-lambda",
            "zero-lambda",
            "three-sigmas",
            "one-sigma",
            "four-lambdas",
        ],
    )
    def test_invalid_parameter_named(self, dt, sigmas, lambdas, message):
        with pytest.raises(ValueError) as info:
            wiener_acceleration_model(dt, sigmas, lambdas, 4, 1)
        assert str(info.value) == message


@pytest.mark.parametrize("cls", [FlatOnSupport, FlatEverywhere])
def test_flat_prior_repr(cls):
    assert repr(cls()) == f"{cls.__name__}()"


class TestJsonRoundTrip:
    def test_round_trip_lossless(self, rng):
        model = random_model(rng, missing_frac=0.3)
        data = model_to_dict(model)
        rebuilt = model_from_dict(data)
        assert model_to_dict(rebuilt) == data
        for t in range(1, model.horizon + 1):
            npt.assert_array_equal(rebuilt.transition(t).phi, model.transition(t).phi)
            npt.assert_array_equal(
                rebuilt.transition(t).noise_cov, model.transition(t).noise_cov
            )

    @pytest.mark.parametrize("initial", [FlatOnSupport(), FlatEverywhere()])
    def test_flat_initial_round_trip(self, rng, initial):
        model = random_model(rng, missing_frac=0.3, initial=initial)
        data = model_to_dict(model)
        rebuilt = model_from_dict(json.loads(json.dumps(data)))
        assert type(rebuilt.initial) is type(initial)
        assert model_to_dict(rebuilt) == data

    def test_batched_model_not_saved(self, tmp_path):
        # a batch validates, but the file format holds one sequence: nested
        # values would be flattened into one wide vector on reading
        model = wiener_acceleration_model(1.0, [1, 1], [1, 1], 4, 1)
        rng = np.random.default_rng(0)
        model = attach_observations(model, [rng.standard_normal((3, 2)) for _ in range(4)])
        assert validate(model) == []
        path = tmp_path / "batch.json"
        with pytest.raises(ValueError, match="t=1 holds a batch of 3, but a model file holds one"):
            save_model(model, path)
        assert not path.exists()

    def test_stationary_shorthand(self):
        data = {
            "state_dim": 1,
            "horizon": 3,
            "transitions": {"phi": [[1.0]], "offset": [0.0], "noise_cov": [[1.0]]},
            "observation_model": {"c": [[1.0]], "noise_cov": [[1.0]]},
            "observations": [[0.5], None, [1.5]],
            "initial": {"kind": "proper", "mean": [0.0], "cov": [[1.0]]},
        }
        model = model_from_dict(data)
        assert model.horizon == 3
        assert model.observation(2).value is None
        npt.assert_allclose(model.observation(3).value, [1.5])
        assert validate(model) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_time_invariant_form_builds_one_object(self, seed):
        rng = np.random.default_rng(seed)
        n, big_t = 3, 9
        a = rng.standard_normal((n, n))
        trans = {
            "phi": rng.standard_normal((n, n)).tolist(),
            "offset": rng.standard_normal(n).tolist(),
            "noise_cov": (a @ a.T).tolist(),
        }
        sensor = {"c": rng.standard_normal((2, n)).tolist(), "noise_cov": [[2.0, 0.3], [0.3, 1.0]]}
        data = {
            "state_dim": n,
            "horizon": big_t,
            "transitions": trans,
            "observation_model": sensor,
            "observations": [None if t % 4 == 1 else rng.standard_normal(2).tolist()
                             for t in range(big_t)],
            "initial": {"kind": "proper", "mean": [0.0] * n, "cov": np.eye(n).tolist()},
        }
        model = model_from_dict(data)
        assert model.transitions[0] is model.transitions[-1]
        assert model.observation(1).model is model.observation(big_t).model
        per_step = dict(data, transitions=[dict(trans) for _ in range(big_t)])
        del per_step["observation_model"]
        per_step["observation_models"] = [dict(sensor) for _ in range(big_t)]
        expanded = model_from_dict(per_step)
        assert expanded.transitions[0] is not expanded.transitions[1]
        for mdl in (model, expanded):
            assert validate(mdl) == []

        def outputs(mdl):
            out = []
            for backward in (None, sqrt_backward_pass(mdl)):
                result = smooth(mdl, backward=backward)
                out.append(np.float64(result.log_marginal_likelihood).tobytes())
                out += [m.mean.tobytes() + m.cov.tobytes() for m in result.marginals]
            return out

        assert outputs(model) == outputs(expanded)

    def test_mistyped_horizon_fails_fast(self):
        # the README example, its horizon mistyped: the observations' length
        # is checked before the single objects are shared over the horizon
        data = {
            "state_dim": 1,
            "horizon": 200_000,
            "transitions": {"phi": [[1.0]], "offset": [0.0], "noise_cov": [[1.0]]},
            "observation_model": {"c": [[1.0]], "noise_cov": [[1.0]]},
            "observations": [[0.3], [0.5]],
            "initial": {"kind": "proper", "mean": [0.0], "cov": [[1.0]]},
        }
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="observations must be a list of 200000 entries"):
                model_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_nested_value_read_as_one_sequence(self):
        data = model_to_dict(scalar_random_walk(values=[1.0, 2.0, 3.0]))
        data["observations"][1] = [[2.0]]
        model = model_from_dict(data)
        npt.assert_array_equal(model.observation(2).value, [2.0])
        assert validate(model) == []

    def test_nested_offset_read_as_vector(self):
        data = model_to_dict(scalar_random_walk(values=[1.0, 2.0, 3.0]))
        data["transitions"][1]["offset"] = [[0.5]]
        model = model_from_dict(data)
        npt.assert_array_equal(model.transition(2).offset, [0.5])
        assert validate(model) == []

    def test_unknown_initial_kind(self):
        with pytest.raises(ValueError, match="unknown initial"):
            model_from_dict(
                {
                    "state_dim": 1,
                    "horizon": 1,
                    "transitions": {"phi": [[1.0]], "offset": [0.0], "noise_cov": [[1.0]]},
                    "observation_model": {"c": [[1.0]], "noise_cov": [[1.0]]},
                    "observations": [[0.0]],
                    "initial": {"kind": "bogus"},
                }
            )


class TestAttachObservations:
    def test_attach_and_reject(self):
        model = wiener_acceleration_model(1.0, [1, 1], [1, 1], 4, 3)
        values = [None, None, np.zeros(2), np.ones(2)]
        attached = attach_observations(model, values)
        assert attached.observation(3).value is not None
        assert attached.observation(1).value is None
        with pytest.raises(ValueError, match="without a sensor"):
            attach_observations(model, [np.zeros(2), None, None, None])

    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_length_rejected(self, length):
        model = wiener_acceleration_model(1.0, [1, 1], [1, 1], 4, 1)
        with pytest.raises(ValueError, match="one entry per time step"):
            attach_observations(model, [np.zeros(2)] * length)
