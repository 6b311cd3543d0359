import csv
import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from gmsmooth.baselines import build_joint, condition_joint, smoothing_oracle, stacked_mle
from gmsmooth.cli import (
    PIPELINES,
    DemoConfig,
    main,
    run_demo,
    run_demo_batch,
    run_demo_single,
    run_model_file,
)
from gmsmooth.forward import smooth
from gmsmooth.model import (
    FlatOnSupport,
    ObservationModel,
    ObservationRecord,
    Proper,
    attach_observations,
    model_to_dict,
    save_model,
    simulate,
    wiener_acceleration_model,
)

from conftest import random_model
from test_model import scalar_random_walk


def in_place(change):
    """An edit that applies ``change`` to a model dict and returns the dict."""

    def edit(data):
        change(data)
        return data

    return edit


def asymmetric_sensor_at_t2(data):
    """Give the step-2 sensor two rows and an asymmetric noise covariance."""
    data["observation_models"][1].update(c=[[1.0], [1.0]], noise_cov=[[1.0, 0.5], [0.0, 1.0]])
    data["observations"][1] = [0.2, 0.2]
    return data


def small_config(tmp_path, **overrides):
    defaults = dict(
        horizon=40,
        first_obs_index=15,
        seed=7,
        output_path=str(tmp_path / "demo.csv"),
    )
    defaults.update(overrides)
    return DemoConfig(**defaults)


class TestDemo:
    def test_deterministic_csv(self, tmp_path):
        config = small_config(tmp_path)
        run_demo(config)
        first = (tmp_path / "demo.csv").read_bytes()
        run_demo(config)
        assert (tmp_path / "demo.csv").read_bytes() == first

    def test_noiseless_limit(self, tmp_path):
        config = small_config(
            tmp_path,
            sigma1=1e-10,
            sigma2=1e-10,
            lambda1=1e-16,
            lambda2=1e-16,
            estimator="smoother",
        )
        rep = run_demo_single(config, seed=config.seed)
        err = np.abs(rep["smooth_mean"] - rep["truth"])
        assert err.max() <= 1e-6

    def test_prefix_variance_exceeds_suffix(self, tmp_path):
        config = small_config(tmp_path, estimator="smoother")
        rep = run_demo_single(config, seed=config.seed)
        widths = rep["smooth_width"]
        prefix = widths[: config.first_obs_index].mean()
        suffix = widths[config.first_obs_index :].mean()
        assert prefix > suffix

    def test_replication_summary(self, tmp_path):
        config = small_config(tmp_path, replications=3)
        summary = run_demo(config)
        assert 0.0 <= summary["smoother_beats_mle_fraction"] <= 1.0
        assert 0.0 <= summary["mean_coverage"] <= 1.0
        lines = (tmp_path / "demo.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per replication

    def test_demo_csv_cells_are_numbers(self, tmp_path):
        run_demo(small_config(tmp_path))
        run_demo(small_config(tmp_path, replications=3, output_path=str(tmp_path / "s.csv")))
        for name in ("demo.csv", "s.csv"):
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            for row in rows:
                for cell in row:
                    if cell:  # the detail CSV leaves missing observations empty
                        float(cell)

    def test_batch_replays_simulate_per_seed(self):
        # the demo's replications, drawn together, equal the per-seed replay
        # that perfbench's mc-replications check runs
        config = DemoConfig(horizon=32, first_obs_index=15)
        seeds = range(40, 44)
        out = run_demo_batch(config, seeds)
        # np.mean sums in memory order: the RMSEs need truth in C order
        assert out["truth"].flags.c_contiguous
        inference = wiener_acceleration_model(
            config.dt,
            (config.sigma1, config.sigma2),
            (config.lambda1, config.lambda2),
            config.horizon,
            config.first_obs_index,
        )
        ref = np.asarray(config.reference_initial_state, dtype=float)
        sim_model = replace(inference, initial=Proper(ref, np.zeros((6, 6))))
        for b, seed in enumerate(seeds):
            states, ys = simulate(sim_model, seed)
            npt.assert_array_equal(out["truth"][b], [[x[0], x[3]] for x in states])
            for y, y_ref in zip(out["observations"], ys, strict=True):
                assert (y is None) == (y_ref is None)
                if y is not None:
                    npt.assert_array_equal(y[b], y_ref)

    def test_cli_entry_point(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = main(
            [
                "demo",
                "--horizon",
                "30",
                "--first-obs-index",
                "10",
                "--seed",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "smooth_rmse_prefix" in capsys.readouterr().out


class TestMleSmootherCoincidence:
    def test_scalar_flat_prior_fixture(self):
        # under a flat prior the t=0 smoothing marginal is exactly the
        # likelihood's degenerate-Gaussian moments
        model = scalar_random_walk(horizon=3, values=[0.4, -0.2, 1.1])
        model.initial = FlatOnSupport()
        result = smooth(model)
        est = stacked_mle(model, 0)
        npt.assert_allclose(result.marginals[0].mean, est.mean, atol=1e-6)
        npt.assert_allclose(result.marginals[0].cov, est.cov, atol=1e-6)


class TestRunModelFile:
    def write_fixture(self, tmp_path, model, name="model.json"):
        path = tmp_path / name
        save_model(model, path)
        return str(path)

    def test_evidence_matches_oracle(self, tmp_path):
        model = scalar_random_walk(horizon=4, values=[0.1, 0.7, -0.4, 0.2])
        path = self.write_fixture(tmp_path, model)
        summary = run_model_file(path, "evidence", str(tmp_path / "out"))
        _, _, expected = condition_joint(build_joint(model))
        npt.assert_allclose(summary["log_marginal_likelihood"], expected, atol=1e-10)

    def test_smoother_pipeline_writes_csv(self, tmp_path):
        model = scalar_random_walk(horizon=4, values=[0.1, 0.7, -0.4, 0.2])
        path = self.write_fixture(tmp_path, model)
        summary = run_model_file(path, "smoother", str(tmp_path / "out"))
        assert (tmp_path / "out.csv").exists()
        saved = json.loads((tmp_path / "out.json").read_text())
        assert saved["pipeline"] == "smoother"
        _, _, expected = condition_joint(build_joint(model))
        npt.assert_allclose(summary["log_marginal_likelihood"], expected, atol=1e-8)

    @pytest.mark.parametrize("pipeline", ["filter", "two-filter", "backward-only"])
    def test_other_pipelines_run(self, tmp_path, pipeline):
        model = scalar_random_walk(horizon=4, values=[0.1, 0.7, -0.4, 0.2])
        path = self.write_fixture(tmp_path, model)
        summary = run_model_file(path, pipeline, str(tmp_path / "out"))
        assert (tmp_path / "out.csv").exists()
        assert summary["pipeline"] == pipeline

    @pytest.mark.parametrize("pipeline", ["filter", "smoother", "two-filter", "backward-only"])
    def test_every_csv_cell_is_a_number(self, tmp_path, rng, pipeline):
        path = self.write_fixture(tmp_path, random_model(rng, n=3, missing_frac=0.3))
        run_model_file(path, pipeline, str(tmp_path / "out"))
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for row in rows:
            for cell in row:
                float(cell)

    def test_flat_prior_evidence_marked_infinite(self, tmp_path):
        model = scalar_random_walk(horizon=3, values=[0.1, 0.2, 0.3])
        data = model_to_dict(model)
        data["initial"] = {"kind": "flat_everywhere"}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        summary = run_model_file(str(path), "evidence", str(tmp_path / "out"))
        assert summary["log_marginal_likelihood"] == "infinite"

    def test_malformed_json_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_non_finite_value_rejected_with_time(self, tmp_path, capsys):
        data = model_to_dict(scalar_random_walk(horizon=3, values=[0.1, 0.2, 0.3]))
        data["observations"][2] = [float("nan")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code != 0
        assert "observation value at t=3 is not finite" in capsys.readouterr().err

    def test_non_finite_model_file_rejected_with_time(self, tmp_path, capsys):
        data = model_to_dict(scalar_random_walk(horizon=3, values=[0.1, 0.2, 0.3]))
        data["transitions"][1]["phi"] = [[float("nan")]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code == 2
        assert "transition matrix at t=2 is not finite" in capsys.readouterr().err

    def test_invalid_model_exits_nonzero(self, tmp_path, capsys):
        model = scalar_random_walk(horizon=3, values=[0.1, 0.2, 0.3])
        data = model_to_dict(model)
        data["observation_models"][0]["noise_cov"] = [[0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code != 0
        assert "not PD" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (in_place(lambda d: d["observations"].pop()), "observations must be a list of 3"),
            (
                in_place(lambda d: d["observation_models"].pop()),
                "observation_models must be a list",
            ),
            (
                in_place(lambda d: d["observations"].append([0.4])),
                "observations must be a list of 3",
            ),
            (in_place(lambda d: d.update(observations=None)), "observations must be a list of 3"),
            (
                in_place(lambda d: d["observation_models"][1].update(c=2.0)),
                "observation matrix at t=2 has shape ()",
            ),
            (
                in_place(lambda d: d["transitions"].__setitem__(1, [[1.0]])),
                "transitions entry at t=2 must be an object, got array",
            ),
            (
                in_place(lambda d: d["observation_models"].__setitem__(2, [[1.0]])),
                "observation_models entry at t=3 must be an object or null, got array",
            ),
            (
                in_place(lambda d: d.update(transitions="abc")),
                "transitions must be an object or a list of objects, got string",
            ),
            (in_place(lambda d: d.update(initial=None)), "initial must be an object, got null"),
            (in_place(lambda d: d.update(horizon=None)), "horizon must be an integer, got null"),
            (lambda d: [d], "a model must be a JSON object, got array"),
            (
                in_place(lambda d: d["transitions"][1].update(phi={"a": 1})),
                "transition phi at t=2 must be a number or a rectangular array",
            ),
            (
                in_place(lambda d: d["transitions"][1].update(phi=[[1.0], [1.0, 2.0]])),
                "transition phi at t=2 must be a number or a rectangular array",
            ),
            (
                in_place(lambda d: d["observations"].__setitem__(2, {"a": 1})),
                "observations at t=3 must be a number or a rectangular array",
            ),
            (
                in_place(lambda d: d["initial"].update(mean={"a": 1})),
                "initial mean must be a number or a rectangular array",
            ),
            (asymmetric_sensor_at_t2, "observation covariance at t=2 not symmetric"),
        ],
        ids=[
            "short-values",
            "short-sensors",
            "long-values",
            "null-values",
            "scalar-c",
            "list-transition",
            "list-sensor",
            "string-transitions",
            "null-initial",
            "null-horizon",
            "top-level-list",
            "object-phi",
            "ragged-phi",
            "object-value",
            "object-mean",
            "asymmetric-noise-cov",
        ],
    )
    def test_malformed_model_file_exits_2_naming_field(self, tmp_path, capsys, edit, message):
        data = model_to_dict(scalar_random_walk(horizon=3, values=[0.1, 0.2, 0.3]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(data)))
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_observation_wider_than_state(self, tmp_path, pipeline):
        # n = 2 states seen through m = 3 components at every step
        rng = np.random.default_rng(8)
        model = random_model(rng, n=2, horizon=5)
        records = [
            ObservationRecord(t, ObservationModel(rng.standard_normal((3, 2)), np.eye(3)))
            for t in range(1, 6)
        ]
        model.observations = records
        model = attach_observations(model, [rng.standard_normal(3) for _ in range(5)])
        oracle, _, evidence = smoothing_oracle(model)
        path = self.write_fixture(tmp_path, model)
        summary = run_model_file(path, pipeline, str(tmp_path / "out"))
        if pipeline != "backward-only":
            npt.assert_allclose(summary["log_marginal_likelihood"], evidence, atol=1e-8)
        if pipeline == "evidence":
            return
        with open(tmp_path / "out.csv", newline="") as fh:
            table = np.array([[float(c) for c in row] for row in list(csv.reader(fh))[1:]])
        if pipeline == "backward-only":
            assert np.all(table[:, 1] <= 2)  # m_bar never exceeds n
        elif pipeline != "filter":
            npt.assert_allclose(table[:, 1:3], [m.mean for m in oracle], atol=1e-8)
