"""Command-line interface: planar tracking demo and model-file pipelines."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import baselines, forward
from .backward import LogQuadLikelihood, backward_pass, grouped_moments
from .model import (
    Proper,
    attach_observations,
    load_model,
    simulate_batch,
    validate,
    wiener_acceleration_model,
)


@dataclass
class DemoConfig:
    dt: float = 1.0
    horizon: int = 256
    first_obs_index: int = 127
    sigma1: float = 1.0
    sigma2: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    seed: int = 0
    reference_initial_state: tuple = (0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    output_path: str = "demo.csv"
    estimator: str = "both"  # smoother | mle | both
    replications: int = 1


POSITION = [0, 3]  # p1 and p2 in the tracking state (p1, v1, a1, p2, v2, a2)


def _position_stats(mean, cov):
    """Position means ``(B, T+1, 2)`` and two-sigma half-widths of per-t stacks.

    ``mean`` is ``(T+1, B, n)`` and ``cov`` ``(T+1, n, n)``: the covariances
    are shared by the batch, so the widths are computed once and broadcast.
    """
    mean = np.ascontiguousarray(mean[..., POSITION].swapaxes(0, 1))
    var = cov[:, POSITION, POSITION]
    width = 2.0 * np.sqrt(np.maximum(var, 0.0))
    return mean, np.broadcast_to(width, mean.shape)


def run_demo_batch(config, seeds):
    """Replications with the given seeds: simulate and estimate all at once.

    The replications are simulated together by ``simulate_batch(sim_model,
    seeds)``; row b depends only on ``seeds[b]``, so it is bit-identical to
    ``simulate(sim_model, seeds[b])``, the one-seed case. The
    observation values come as ``(B, 2)`` stacks, so one backward pass, one
    forward sweep and one :func:`grouped_moments` pass (the stacked MLE of
    each x_t) serve all B sequences. Returns a dict of arrays with a leading
    replication axis: per-t truth, estimates and two-sigma half-widths, and
    per-replication RMSEs and coverage; ``observations`` is the per-t list of
    ``(B, 2)`` stacks or None.
    """
    inference_model = wiener_acceleration_model(
        config.dt,
        (config.sigma1, config.sigma2),
        (config.lambda1, config.lambda2),
        config.horizon,
        config.first_obs_index,
    )
    ref = np.asarray(config.reference_initial_state, dtype=float)
    if ref.shape != (6,) or not np.isfinite(ref).all():
        raise ValueError(f"reference_initial_state must be 6 finite numbers, got {ref.tolist()}")
    sim_model = replace(inference_model, initial=Proper(ref, np.zeros((6, 6))))
    states, ys = simulate_batch(sim_model, seeds)
    # C order keeps np.mean's summation order, and so every RMSE, unchanged
    truth = np.ascontiguousarray(states[:, :, POSITION])
    inference_model = attach_observations(inference_model, ys)

    backward = backward_pass(inference_model)
    out = {"truth": truth, "observations": ys}
    if config.estimator in ("smoother", "both"):
        marginals = forward.smooth(inference_model, backward=backward).marginals
        stacks = np.stack([m.mean for m in marginals]), np.stack([m.cov for m in marginals])
        out["smooth_mean"], out["smooth_width"] = _position_stats(*stacks)
    if config.estimator in ("mle", "both"):
        liks = [backward.initial_likelihood] + backward.likelihood_given_t
        mean, cov, _, _ = grouped_moments(liks)
        out["mle_mean"], out["mle_width"] = _position_stats(mean, cov)

    prefix = slice(0, config.first_obs_index)  # t = 0..k0-1
    for key in ("smooth", "mle"):
        if f"{key}_mean" not in out:
            continue
        err = out[f"{key}_mean"] - truth
        out[f"{key}_rmse_prefix"] = np.sqrt(np.mean(err[:, prefix] ** 2, axis=(1, 2)))
        out[f"{key}_rmse_overall"] = np.sqrt(np.mean(err**2, axis=(1, 2)))
    if "smooth_mean" in out:
        inside = np.abs(truth - out["smooth_mean"]) <= out["smooth_width"]
        out["coverage"] = np.mean(inside, axis=(1, 2))
    return out


def _write_csv(path, rows):
    """Write rows of Python values, an int, a float or "" per cell, as CSV.

    csv writes a cell as ``str(cell)``, which for a Python float is the
    shortest text that reads back to the same float. Row builders convert
    arrays with ``.tolist()``, so numpy's scalar formatting decides no cell.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _detail_table(out):
    """CSV rows of replication 0 of a :func:`run_demo_batch` result, header first.

    Each column pair is named next to its data. A step without a sensor, and
    an estimator that did not run, give a pair of empty cells.
    """
    blank = ["", ""]
    ys = [None, *out["observations"]]  # no observation at t = 0
    pairs = {
        "true_pos": out["truth"][0].tolist(),
        "obs": [blank if y is None else y[0].tolist() for y in ys],
    }
    for key in ("smooth", "mle"):
        for name, stat in (("mean", "mean"), ("2sigma", "width")):
            data = out.get(f"{key}_{stat}")
            pairs[f"{key}_{name}"] = [blank] * len(ys) if data is None else data[0].tolist()
    header = ["t"] + [f"{name}{i}" for name in pairs for i in (1, 2)]
    rows = zip(*pairs.values())
    return [header] + [[t] + [v for pair in row for v in pair] for t, row in enumerate(rows)]


SUMMARY_COLUMNS = (
    "smooth_rmse_prefix",
    "mle_rmse_prefix",
    "smooth_rmse_overall",
    "mle_rmse_overall",
    "coverage",
)


def run_demo(config):
    """Run the tracking demo and write result files.

    One replication writes the per-time detail CSV; several replications
    write a per-replication summary CSV instead. All replications go through
    one batched estimation (:func:`run_demo_batch`). Returns a summary dict.
    """
    if config.estimator not in ("smoother", "mle", "both"):
        raise ValueError(f"unknown estimator {config.estimator!r}")
    if config.replications < 1:
        raise ValueError("replications must be at least 1")
    if config.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {config.seed}")

    summary = {"replications": config.replications, "output": config.output_path}
    seeds = range(config.seed, config.seed + config.replications)
    out = run_demo_batch(config, seeds)
    if config.replications == 1:
        _write_csv(config.output_path, _detail_table(out))
        for key in SUMMARY_COLUMNS:
            if key in out:
                summary[key] = float(out[key][0])
        return summary

    columns = [out[key].tolist() if key in out else [""] * len(seeds) for key in SUMMARY_COLUMNS]
    _write_csv(config.output_path, [("seed",) + SUMMARY_COLUMNS, *zip(seeds, *columns)])
    if config.estimator == "both":
        wins = out["smooth_rmse_prefix"] <= out["mle_rmse_prefix"]
        summary["smoother_beats_mle_fraction"] = float(np.mean(wins))
    if "coverage" in out:
        summary["mean_coverage"] = float(np.mean(out["coverage"]))
    return summary


PIPELINES = ("filter", "smoother", "two-filter", "backward-only", "evidence")


def _marginal_table(marginals, n):
    """CSV rows of per-t marginals, header first: t, the means, the variances."""
    header = ["t"] + [f"mean_{i}" for i in range(n)] + [f"var_{i}" for i in range(n)]
    means = np.stack([marg.mean for marg in marginals])
    variances = np.stack([marg.cov.diagonal() for marg in marginals])
    rows = np.concatenate([means, variances], 1).tolist()
    return [header] + [[t] + row for t, row in enumerate(rows)]


def run_model_file(path, pipeline, output_prefix):
    """Run the requested pipeline on a JSON model file.

    Writes ``<prefix>.csv`` (per-time results) and ``<prefix>.json`` (a
    summary including the log marginal likelihood). Returns the summary.
    Raises ValueError, and writes nothing, if either output is the model file.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")
    for output in (output_prefix + ".json", output_prefix + ".csv"):
        if os.path.realpath(output) == os.path.realpath(path):
            raise ValueError(f"output {output} would overwrite the model file")
    mdl = load_model(path)
    violations = validate(mdl)
    if violations:
        raise ValueError("model validation failed:\n" + "\n".join(violations))

    n = mdl.state_dim
    table = log_l = None
    if pipeline == "filter":
        kal = baselines.kalman_filter(mdl)
        table, log_l = _marginal_table(kal.filtered, n), kal.log_likelihood
    elif pipeline == "smoother":
        result = forward.smooth(mdl)
        table, log_l = _marginal_table(result.marginals, n), result.log_marginal_likelihood
    elif pipeline == "two-filter":
        kal = baselines.kalman_filter(mdl)
        future = backward_pass(mdl).likelihood_given_prev + [LogQuadLikelihood.empty(n)]
        marginals = [baselines.two_filter_combine(f, lik) for f, lik in zip(kal.filtered, future)]
        table, log_l = _marginal_table(marginals, n), kal.log_likelihood
    elif pipeline == "backward-only":
        backward = backward_pass(mdl)
        liks = [backward.initial_likelihood] + backward.likelihood_given_t
        means, _, ranks, _ = grouped_moments(liks)
        table = [["t", "m_bar", "log_c", "rank"] + [f"mle_{i}" for i in range(n)]]
        for t, (lik, rank, mean) in enumerate(zip(liks, ranks.tolist(), means.tolist())):
            table.append([t, lik.m_bar, float(lik.log_c), rank, *mean])
    else:  # evidence
        _, log_l = forward.fuse_initial(backward_pass(mdl).initial_likelihood, mdl.initial)

    if log_l is not None and math.isinf(log_l):
        log_l = "infinite"
    summary = {
        "pipeline": pipeline,
        "state_dim": n,
        "horizon": mdl.horizon,
        "log_marginal_likelihood": log_l,
    }
    if table is not None:
        _write_csv(output_prefix + ".csv", table)
        summary["csv"] = output_prefix + ".csv"
    with open(output_prefix + ".json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmsmooth",
        description="Backward-forward smoothing for Gauss-Markov models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="planar tracking demo with a flat prior")
    # every flag's dest is a DemoConfig field, and its default the field's
    demo.set_defaults(**asdict(DemoConfig()))
    for flag in ("--dt", "--sigma1", "--sigma2", "--lambda1", "--lambda2"):
        demo.add_argument(flag, type=float)
    for flag in ("--horizon", "--first-obs-index", "--seed", "--replications"):
        demo.add_argument(flag, type=int)
    demo.add_argument(
        "--reference-initial-state",
        type=float,
        nargs=6,
        metavar=("P1", "V1", "A1", "P2", "V2", "A2"),
    )
    demo.add_argument("--estimator", choices=["smoother", "mle", "both"])
    demo.add_argument("--output", dest="output_path", metavar="OUTPUT")

    run = sub.add_parser("run", help="run a pipeline on a JSON model file")
    run.add_argument("model_file")
    run.add_argument("--pipeline", choices=list(PIPELINES), default="smoother")
    run.add_argument("--output", default="result", help="output file prefix")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            values = {f.name: getattr(args, f.name) for f in fields(DemoConfig)}
            values["reference_initial_state"] = tuple(values["reference_initial_state"])
            summary = run_demo(DemoConfig(**values))
        else:
            summary = run_model_file(args.model_file, args.pipeline, args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in summary.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
