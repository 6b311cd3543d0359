import csv
import json
import math
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from gmsmooth.backward import backward_pass
from gmsmooth.baselines import build_joint, condition_joint
from gmsmooth.cli import (
    PIPELINES,
    DemoConfig,
    build_parser,
    main,
    run_demo,
    run_demo_batch,
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

from conftest import random_model, smoothing_oracle, stacked_mle
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


def demo_inference_model(config):
    """The demo's inference model, built the way ``run_demo_batch`` defines it."""
    return wiener_acceleration_model(
        config.dt,
        (config.sigma1, config.sigma2),
        (config.lambda1, config.lambda2),
        config.horizon,
        config.first_obs_index,
    )


# two states seen directly, one 1e6 times more precisely: the flat-prior x0
# posterior's singular values spread 1e6, its pseudo-covariance's eigenvalues 1e12
ILL_CONDITIONED_FLAT = {
    "state_dim": 2,
    "horizon": 1,
    "transitions": {"phi": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0],
                    "noise_cov": [[0.0, 0.0], [0.0, 0.0]]},
    "observation_model": {"c": [[1.0, 0.0], [0.0, 1.0]], "noise_cov": [[1e-12, 0.0], [0.0, 1.0]]},
    "observations": [[0.0, 0.0]],
    "initial": {"kind": "flat_on_support"},
}


# README's two-step model file; its prior variance is set per test
TWO_STEP = {
    "state_dim": 1,
    "horizon": 2,
    "transitions": {"phi": [[1.0]], "offset": [0.0], "noise_cov": [[1.0]]},
    "observation_model": {"c": [[1.0]], "noise_cov": [[1.0]]},
    "observations": [[0.3], [0.5]],
    "initial": {"kind": "proper", "mean": [0.0], "cov": [[1.0]]},
}


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
        out = run_demo_batch(config, [config.seed])
        err = np.abs(out["smooth_mean"] - out["truth"])
        assert err.max() <= 1e-6

    def test_prefix_variance_exceeds_suffix(self, tmp_path):
        config = small_config(tmp_path, estimator="smoother")
        widths = run_demo_batch(config, [config.seed])["smooth_width"][0]
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

    @pytest.mark.parametrize("estimator", ["both", "smoother", "mle"])
    def test_demo_csv_cells_read_back_bit_for_bit(self, tmp_path, estimator):
        # every number cell reads back as the very float of run_demo_batch
        # that it was written from, and only a missing observation or an
        # estimator that did not run leaves cells empty
        def read(config):
            run_demo(config)
            with open(config.output_path, newline="") as fh:
                header, *rows = csv.reader(fh)
            return dict(zip(header, zip(*rows, strict=True), strict=True))

        def assert_cells(cells, values):
            read_back = np.array([float(cell) for cell in cells])
            assert read_back.tobytes() == np.asarray(values, dtype=float).tobytes()

        config = small_config(tmp_path, estimator=estimator)
        out = run_demo_batch(config, [config.seed])
        columns = read(config)
        assert columns.pop("t") == tuple(str(t) for t in range(config.horizon + 1))
        ys = [None, *out["observations"]]
        stats = {
            "true_pos": "truth",
            "smooth_mean": "smooth_mean",
            "smooth_2sigma": "smooth_width",
            "mle_mean": "mle_mean",
            "mle_2sigma": "mle_width",
        }
        for name, cells in columns.items():
            prefix, i = name[:-1], int(name[-1]) - 1
            if prefix == "obs":
                assert [cell == "" for cell in cells] == [y is None for y in ys]
                seen = [(cell, y[0, i]) for cell, y in zip(cells, ys) if y is not None]
                assert_cells(*zip(*seen))
            elif stats[prefix] in out:
                assert "" not in cells
                assert_cells(cells, out[stats[prefix]][0, :, i])
            else:
                assert set(cells) == {""}

        config = small_config(tmp_path, estimator=estimator, replications=3)
        out = run_demo_batch(config, range(config.seed, config.seed + 3))
        columns = read(config)
        assert columns.pop("seed") == tuple(str(config.seed + b) for b in range(3))
        assert len(columns) == 5
        for name, cells in columns.items():
            if name in out:
                assert "" not in cells
                assert_cells(cells, out[name])
            else:
                assert set(cells) == {""}

    def test_batch_replays_simulate_per_seed(self):
        # the demo's replications, drawn together, equal the per-seed replay
        # that perfbench's mc-replications check runs
        config = DemoConfig(horizon=32, first_obs_index=15)
        seeds = range(40, 44)
        out = run_demo_batch(config, seeds)
        # np.mean sums in memory order: the RMSEs need truth in C order
        assert out["truth"].flags.c_contiguous
        inference = demo_inference_model(config)
        ref = np.asarray(config.reference_initial_state, dtype=float)
        sim_model = replace(inference, initial=Proper(ref, np.zeros((6, 6))))
        for b, seed in enumerate(seeds):
            states, ys = simulate(sim_model, seed)
            npt.assert_array_equal(out["truth"][b], [[x[0], x[3]] for x in states])
            for y, y_ref in zip(out["observations"], ys, strict=True):
                assert (y is None) == (y_ref is None)
                if y is not None:
                    npt.assert_array_equal(y[b], y_ref)

    def test_mle_is_the_per_t_stacked_mle_bit_for_bit(self):
        # the grouped moments give each t's stacked_mle, read at the positions
        config = DemoConfig(horizon=64, first_obs_index=31)
        out = run_demo_batch(config, [11, 12])
        model = attach_observations(demo_inference_model(config), out["observations"])
        backward = backward_pass(model)
        estimates = [stacked_mle(model, t, backward=backward) for t in range(config.horizon + 1)]
        mean = np.stack([est.mean[..., [0, 3]] for est in estimates], axis=-2)
        var = np.array([est.cov.diagonal()[[0, 3]] for est in estimates])
        width = np.broadcast_to(2.0 * np.sqrt(np.maximum(var, 0.0)), mean.shape)
        assert out["mle_mean"].tobytes() == mean.tobytes()
        assert out["mle_width"].tobytes() == width.tobytes()
        assert out["mle_mean"].shape == out["mle_width"].shape == (2, config.horizon + 1, 2)

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
        assert main(["demo", "--replications", "0", "--output", str(out)]) == 2
        assert "replications must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lambda1", "nan"], "lambda1 must be positive and finite, got nan"),
            (["--lambda2", "inf"], "lambda2 must be positive and finite, got inf"),
            (["--dt", "nan"], "dt must be positive and finite, got nan"),
            (["--dt", "1e80"], "dt=1e+80 overflows the transition or its noise covariance"),
            (["--sigma1", "1e200"], "sigma1=1e+200 with dt=1.0 overflows the noise covariance"),
            (
                ["--reference-initial-state", "nan", "0", "0", "0", "0", "0"],
                "reference_initial_state must be 6 finite numbers, got [nan, 0.0",
            ),
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ],
        ids=["nan-lambda1", "inf-lambda2", "nan-dt", "overflowing-dt", "overflowing-sigma1",
             "nan-reference", "negative-seed"],
    )
    def test_bad_argument_exits_2_naming_it(self, tmp_path, capsys, argv, message):
        out = tmp_path / "demo.csv"
        base = ["demo", "--horizon", "8", "--first-obs-index", "4", "--output", str(out)]
        assert main(base + argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(estimator="kalman"), "unknown estimator 'kalman'"),
            (dict(reference_initial_state=(0.0,) * 5), "reference_initial_state must be 6"),
        ],
        ids=["estimator", "short-reference"],
    )
    def test_bad_config_rejected(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=message):
            run_demo(small_config(tmp_path, **overrides))
        assert list(tmp_path.iterdir()) == []

    def test_parser_defaults_are_demo_config(self):
        args = build_parser().parse_args(["demo"])
        for field in fields(DemoConfig):
            assert getattr(args, field.name) == getattr(DemoConfig(), field.name), field.name


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

    @pytest.mark.parametrize("pipeline", ["evidence", "smoother"])
    def test_ill_conditioned_flat_prior_evidence(self, tmp_path, capsys, pipeline):
        # exact: log N(0; 0, R) + log (2 pi)^{n/2} |R|^{1/2} = 0
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(ILL_CONDITIONED_FLAT))
        argv = ["run", str(path), "--pipeline", pipeline, "--output", str(tmp_path / "out")]
        assert main(argv) == 0
        printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        npt.assert_allclose(float(printed["log_marginal_likelihood"]), 0.0, rtol=0, atol=1e-9)
        if pipeline == "smoother":
            with open(tmp_path / "out.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            npt.assert_allclose([float(row["var_0"]) for row in rows], [1e-12, 1e-12], rtol=1e-9)

    @pytest.mark.parametrize("pipeline", ["smoother", "evidence"])
    @pytest.mark.parametrize("s", [1e13, 1e16, 1e100, 1e300])
    def test_diffuse_proper_prior_evidence(self, tmp_path, s, pipeline):
        # x0 ~ N(0, s): y ~ N(0, [[s + 2, s + 1], [s + 1, s + 3]]), whose
        # determinant is 3s + 5 and whose quadratic form at (0.3, 0.5) is
        # (0.04 s + 0.47) / (3s + 5)
        data = {**TWO_STEP, "initial": {"kind": "proper", "mean": [0.0], "cov": [[s]]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        run_model_file(str(path), pipeline, str(tmp_path / "out"))
        saved = json.loads((tmp_path / "out.json").read_text())
        expected = (-math.log(2 * math.pi) - 0.5 * math.log(3 * s + 5)
                    - 0.5 * (0.04 * s + 0.47) / (3 * s + 5))
        npt.assert_allclose(saved["log_marginal_likelihood"], expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("s", [1e12, 1e20, 1e30, 1e60, 1e100, 1e300])
    def test_diffuse_proper_prior_x0_variance(self, tmp_path, s):
        # the x0 posterior precision is 1/s + 0.6 (the data's precision on x0);
        # a pre-array with its unit rows first loses the variance as sqrt(s) eps
        data = {**TWO_STEP, "initial": {"kind": "proper", "mean": [0.0], "cov": [[s]]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        run_model_file(str(path), "smoother", str(tmp_path / "out"))
        with open(tmp_path / "out.csv", newline="") as fh:
            row0 = next(csv.DictReader(fh))
        npt.assert_allclose(float(row0["var_0"]), 1 / (1 / s + 0.6), rtol=1e-12, atol=0)

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
            (in_place(lambda d: d.update(state_dim=1.9)), "state_dim must be an integer, got number"),
            (in_place(lambda d: d.update(state_dim=True)), "state_dim must be an integer, got boolean"),
            (in_place(lambda d: d.update(horizon="2")), "horizon must be an integer, got string"),
            (in_place(lambda d: d.update(horizon=-1)), "horizon must be at least 1, got -1"),
            (in_place(lambda d: d.update(state_dim=0)), "state_dim must be at least 1, got 0"),
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
            (
                in_place(lambda d: d["transitions"].pop()),
                "transitions must be a list of 3 entries, one per step",
            ),
            (in_place(lambda d: d.pop("transitions")), "missing field 'transitions'"),
            (
                in_place(lambda d: d["transitions"][1].pop("phi")),
                "transition at t=2: missing field 'phi'",
            ),
            (in_place(lambda d: d["initial"].pop("kind")), "initial: missing field 'kind'"),
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
            "float-state-dim",
            "boolean-state-dim",
            "string-horizon",
            "negative-horizon",
            "zero-state-dim",
            "top-level-list",
            "object-phi",
            "ragged-phi",
            "object-value",
            "object-mean",
            "asymmetric-noise-cov",
            "short-transitions",
            "missing-transitions",
            "missing-phi",
            "missing-initial-kind",
        ],
    )
    def test_malformed_model_file_exits_2_naming_field(self, tmp_path, capsys, edit, message):
        data = model_to_dict(scalar_random_walk(horizon=3, values=[0.1, 0.2, 0.3]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(data)))
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["model.json", "model.csv"])
    def test_output_naming_model_file_exits_2(self, tmp_path, capsys, name):
        path = self.write_fixture(tmp_path, scalar_random_walk(values=[0.1, 0.2, 0.3]), name)
        before = (tmp_path / name).read_bytes()
        code = main(["run", path, "--output", str(tmp_path / "model")])
        assert code == 2
        assert f"output {path} would overwrite the model file" in capsys.readouterr().err
        assert (tmp_path / name).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]  # nothing written

    def test_unknown_pipeline_writes_nothing(self, tmp_path):
        path = self.write_fixture(tmp_path, scalar_random_walk(values=[0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="unknown pipeline 'kalman'; choose from"):
            run_model_file(path, "kalman", str(tmp_path / "out"))
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

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


def test_package_import_loads_no_module():
    # each name is imported from the module that defines it, so the package
    # itself imports none of them
    code = ("import sys, gmsmooth; "
            "print(sorted(m for m in sys.modules if m.startswith('gmsmooth.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
