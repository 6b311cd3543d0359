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


def _cell(value):
    """CSV text of a number: the shortest round-tripping Python float repr."""
    return repr(float(value))


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
    seeds)``, row b bit-identical to ``simulate(sim_model, seeds[b])``. The
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
        mean, cov, _ = grouped_moments(liks)
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


def _write_detail_csv(path, config, out):
    """Per-time CSV of replication 0 of a :func:`run_demo_batch` result."""
    big_t = config.horizon
    header = [
        "t",
        "true_pos1",
        "true_pos2",
        "obs1",
        "obs2",
        "smooth_mean1",
        "smooth_mean2",
        "smooth_2sigma1",
        "smooth_2sigma2",
        "mle_mean1",
        "mle_mean2",
        "mle_2sigma1",
        "mle_2sigma2",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(big_t + 1):
            row = [t, _cell(out["truth"][0, t, 0]), _cell(out["truth"][0, t, 1])]
            y = out["observations"][t - 1] if t >= 1 else None
            row += ["", ""] if y is None else [_cell(y[0, 0]), _cell(y[0, 1])]
            for key in ("smooth", "mle"):
                if f"{key}_mean" in out:
                    row += [
                        _cell(out[f"{key}_mean"][0, t, 0]),
                        _cell(out[f"{key}_mean"][0, t, 1]),
                        _cell(out[f"{key}_width"][0, t, 0]),
                        _cell(out[f"{key}_width"][0, t, 1]),
                    ]
                else:
                    row += ["", "", "", ""]
            writer.writerow(row)


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

    summary = {"replications": config.replications, "output": config.output_path}
    seeds = range(config.seed, config.seed + config.replications)
    out = run_demo_batch(config, seeds)
    if config.replications == 1:
        _write_detail_csv(config.output_path, config, out)
        for key in SUMMARY_COLUMNS:
            if key in out:
                summary[key] = float(out[key][0])
        return summary

    with open(config.output_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("seed",) + SUMMARY_COLUMNS)
        for i, seed in enumerate(seeds):
            writer.writerow(
                [seed]
                + [_cell(out[key][i]) if key in out else "" for key in SUMMARY_COLUMNS]
            )
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
    rows = np.concatenate([means, variances], 1).tolist()  # csv writes a float's repr, as _cell
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
        means, _, ranks = grouped_moments(liks)
        table = [["t", "m_bar", "log_c", "rank"] + [f"mle_{i}" for i in range(n)]]
        for t, (lik, rank, mean) in enumerate(zip(liks, ranks.tolist(), means.tolist())):
            table.append([t, lik.m_bar, _cell(lik.log_c), rank, *mean])
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
        with open(output_prefix + ".csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table)
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
