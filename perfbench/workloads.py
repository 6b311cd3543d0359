"""The three benchmark workloads: seeded inputs, the timed op, output checks.

Each workload builds its inputs from the benchmark seed in its constructor
(part of set-up), hands the program only those inputs, and provides:

* ``inputs(k)``: the untimed input of op ``k`` (op 0 is the warm-up);
* ``op(inp)``: the timed call into gmsmooth's public API;
* ``check(inp, out)``: compares the op's output with an independent route
  in ``gmsmooth.baselines`` and returns the largest relative difference,
  raising :class:`CheckFailed` when an output is wrong;
* ``probe(inp)``: runs ``sqrt_backward_pass`` on the op's model, as-is
  (traced runs only; a failure there is a measured defect, not an op
  failure).
"""

import contextlib
import csv
import io
import json
import re
from dataclasses import replace

import numpy as np
import scipy.linalg

from gmsmooth import baselines, cli, forward, sqrt
from gmsmooth.model import (
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
    attach_observations,
    load_model,
    save_model,
    simulate,
    wiener_acceleration_model,
)

# Largest relative difference accepted against the Kalman/RTS reference
# (measured at 1e-11 to 1e-15) and against the GLS estimate, whose own
# normal equations are ill-conditioned (measured at ~1e-7).
KALMAN_RTOL = 1e-8
GLS_RTOL = 1e-5


class CheckFailed(Exception):
    """An op's output disagrees with its reference or is malformed."""


def rel_diff(value, reference):
    """Largest absolute difference relative to the largest reference entry."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        raise CheckFailed(f"shape {value.shape} != reference shape {reference.shape}")
    if not np.all(np.isfinite(value)):
        raise CheckFailed("output contains non-finite values")
    scale = max(float(np.max(np.abs(reference), initial=0.0)), 1e-300)
    return float(np.max(np.abs(value - reference), initial=0.0)) / scale


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def read_numeric_csv(path, cells):
    """Header and float table of a CSV written by the CLI.

    Under numpy 2 the CLI writes numpy scalars with ``repr``, so cells read
    ``np.float64(x)`` instead of ``x``. The value inside is still checked;
    the formatting defect is counted in ``cells`` (numpy-repr cells, all
    cells) and reported as ``cli.csv_numpy_repr_frac``.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = []
    for row in rows[1:]:
        parsed = []
        for cell in row:
            match = _NUMPY_REPR.fullmatch(cell)
            cells[0] += match is not None
            parsed.append(float(match.group(1) if match else cell))
        cells[1] += len(row)
        values.append(parsed)
    return rows[0], np.array(values, dtype=float).reshape(len(values), len(rows[0]))


def _require(rel, tol, what):
    if not rel <= tol:
        raise CheckFailed(f"{what}: relative difference {rel:.3e} exceeds {tol:.0e}")
    return rel


def _marginal_arrays(marginals):
    return (
        np.array([m.mean for m in marginals]),
        np.array([np.diag(m.cov) for m in marginals]),
        np.array([m.cov for m in marginals]),
    )


def _kalman_reference(model):
    kal = baselines.kalman_filter(model)
    smoothed = baselines.rts_smoother(kal, model)
    return kal, smoothed


def _probe_sqrt(model):
    # The span records the failure; the exception itself is the measurement.
    try:
        sqrt.sqrt_backward_pass(model)
    except Exception:  # noqa: BLE001
        pass


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class TrackLong:
    """Planar constant-jerk tracking, proper prior, a sensor at every step.

    One op smooths one freshly simulated sequence with ``forward.smooth``.
    """

    name = "track-long"
    op_is_cli = False
    csv_cells = None

    def __init__(self, seed, workdir, toy=False):
        self.seed = seed
        self.horizon = 64 if toy else 2048
        base = wiener_acceleration_model(1.0, (1.0, 1.0), (1.0, 1.0), self.horizon, 1)
        ref = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        self.model = replace(base, initial=Proper(ref, np.eye(6)))
        self.steps_per_op = self.horizon

    def inputs(self, k):
        """A sequence drawn from the model by the benchmark's own simulator."""
        rng = np.random.default_rng([self.seed, k])
        trans = self.model.transition(1)
        sensor = self.model.observation(1).model
        q_chol = np.linalg.cholesky(trans.noise_cov)
        r_chol = np.linalg.cholesky(sensor.noise_cov)
        x = self.model.initial.mean + rng.standard_normal(6)
        ys = []
        for _ in range(self.horizon):
            x = trans.phi @ x + trans.offset + q_chol @ rng.standard_normal(6)
            ys.append(sensor.c @ x + r_chol @ rng.standard_normal(2))
        return attach_observations(self.model, ys)

    def op(self, model):
        return forward.smooth(model)

    def check(self, model, result):
        if len(result.marginals) != model.horizon + 1:
            raise CheckFailed("wrong number of marginals")
        kal, smoothed = _kalman_reference(model)
        means, _, covs = _marginal_arrays(result.marginals)
        ref_means, _, ref_covs = _marginal_arrays(smoothed)
        return max(
            _require(rel_diff(means, ref_means), KALMAN_RTOL, "smoothed means"),
            _require(rel_diff(covs, ref_covs), KALMAN_RTOL, "smoothed covariances"),
            _require(
                rel_diff(result.log_marginal_likelihood, kal.log_likelihood),
                KALMAN_RTOL,
                "log marginal likelihood",
            ),
        )

    def probe(self, model):
        _probe_sqrt(model)


class McReplications:
    """The paper's demo: flat prior, first sensor at t=127 of 256, both estimators.

    One op is one in-process ``gmsmooth demo --replications R`` call.
    """

    name = "mc-replications"
    op_is_cli = True
    _COLUMNS = [
        "seed",
        "smooth_rmse_prefix",
        "mle_rmse_prefix",
        "smooth_rmse_overall",
        "mle_rmse_overall",
        "coverage",
    ]
    _SUMMARY_KEYS = ("replications", "output", "smoother_beats_mle_fraction", "mean_coverage")

    def __init__(self, seed, workdir, toy=False):
        self.seed = seed
        self.csv_cells = [0, 0]
        self.replications, self.horizon, self.first_obs = (2, 32, 15) if toy else (32, 256, 127)
        self.output = str(workdir / "demo.csv")
        self.steps_per_op = self.replications * self.horizon

    def inputs(self, k):
        """The demo seed of op k and the replication its check samples."""
        rng = np.random.default_rng([self.seed, k])
        return int(rng.integers(10**6)) * 1000, int(rng.integers(self.replications))

    def op(self, inp):
        demo_seed, _ = inp
        return _run_cli(
            [
                "demo",
                "--replications", str(self.replications),
                "--horizon", str(self.horizon),
                "--first-obs-index", str(self.first_obs),
                "--estimator", "both",
                "--seed", str(demo_seed),
                "--output", self.output,
            ]
        )

    def _replication(self, demo_seed):
        """The demo's model for one replication, built the way the demo defines it."""
        config = cli.DemoConfig(horizon=self.horizon, first_obs_index=self.first_obs)
        inference = wiener_acceleration_model(
            config.dt,
            (config.sigma1, config.sigma2),
            (config.lambda1, config.lambda2),
            config.horizon,
            config.first_obs_index,
        )
        ref = np.asarray(config.reference_initial_state, dtype=float)
        states, ys = simulate(replace(inference, initial=Proper(ref, np.zeros((6, 6)))), demo_seed)
        return np.array([[x[0], x[3]] for x in states]), attach_observations(inference, ys)

    def check(self, inp, out):
        demo_seed, sampled = inp
        rc, stdout = out
        if rc != 0:
            raise CheckFailed(f"demo exited with {rc}")
        summary = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        missing = [key for key in self._SUMMARY_KEYS if key not in summary]
        if missing:
            raise CheckFailed(f"summary lacks {missing}")
        if int(summary["replications"]) != self.replications:
            raise CheckFailed("summary reports the wrong replication count")
        header, table = read_numeric_csv(self.output, self.csv_cells)
        if header != self._COLUMNS or table.shape[0] != self.replications:
            raise CheckFailed("summary CSV has the wrong shape")
        if not np.all(np.isfinite(table)):
            raise CheckFailed("summary CSV has a non-finite entry")
        if not np.array_equal(table[:, 0], demo_seed + np.arange(self.replications)):
            raise CheckFailed("summary CSV seeds are wrong")
        coverage = table[:, 5]
        if np.any(coverage < 0.0) or np.any(coverage > 1.0):
            raise CheckFailed("coverage outside [0, 1]")
        for key in ("mean_coverage", "smoother_beats_mle_fraction"):
            if not 0.0 <= float(summary[key]) <= 1.0:
                raise CheckFailed(f"{key} outside [0, 1]")

        # One sampled replication, recomputed and checked against GLS at t=0.
        truth, model = self._replication(demo_seed + sampled)
        result = forward.smooth(model)
        means = np.array([[m.mean[0], m.mean[3]] for m in result.marginals])
        widths = 2.0 * np.sqrt(
            np.array([[max(m.cov[0, 0], 0.0), max(m.cov[3, 3], 0.0)] for m in result.marginals])
        )
        err = means - truth
        expected = [
            np.sqrt(np.mean(err[: self.first_obs] ** 2)),
            np.sqrt(np.mean(err**2)),
            np.mean(np.abs(err) <= widths),
        ]
        got = table[sampled, [1, 3, 5]]
        _require(rel_diff(got, expected), 1e-9, "CSV row of the sampled replication")

        h, b, s, y = baselines.stacked_observation_map(model, 0)
        l_s = scipy.linalg.cholesky(s, lower=True)
        a = scipy.linalg.solve_triangular(l_s, h, lower=True)
        z = scipy.linalg.solve_triangular(l_s, y - b, lower=True)
        gls_mean = np.linalg.lstsq(a, z, rcond=None)[0]
        gls_cov = np.linalg.inv(a.T @ a)
        first = result.marginals[0]
        return max(
            _require(rel_diff(first.mean, gls_mean), GLS_RTOL, "x0 mean vs GLS"),
            _require(rel_diff(first.cov, gls_cov), GLS_RTOL, "x0 covariance vs GLS"),
        )

    def probe(self, inp):
        _probe_sqrt(self._replication(inp[0] + inp[1])[1])


def make_varying_model(rng, n=8, horizon=1024):
    """Random time-varying model exercising every branch of the schema.

    Phi_t = 0.99 * (Haar orthogonal), with one row zeroed on ~10% of steps,
    so the spectral radius stays <= 0.99: with explosive draws the
    covariance-form Kalman *reference* loses its Cholesky near T=1000 while
    ``smooth`` is fine, which is a robustness item for the library, not a
    workload. Q_t is zero on ~10% of steps, ~10% of steps have no sensor,
    the sensor dimension varies in 1..4, and 30% of values are missing.
    """
    transitions, sensors = [], []
    for _ in range(horizon):
        q_orth, r = np.linalg.qr(rng.standard_normal((n, n)))
        phi = 0.99 * q_orth * np.sign(np.diag(r))[None, :]
        if rng.random() < 0.1:
            phi[rng.integers(n), :] = 0.0
        if rng.random() < 0.1:
            q = np.zeros((n, n))
        else:
            a = 0.3 * rng.standard_normal((n, n))
            q = a @ a.T / n
        transitions.append(Transition(phi, 0.1 * rng.standard_normal(n), 0.5 * (q + q.T)))
        if rng.random() < 0.1:
            sensors.append(None)
        else:
            m = int(rng.integers(1, 5))
            b = 0.3 * rng.standard_normal((m, m))
            cov = b @ b.T + np.diag(rng.uniform(0.5, 1.5, size=m))
            sensors.append(ObservationModel(rng.standard_normal((m, n)), 0.5 * (cov + cov.T)))
    a = rng.standard_normal((n, n))
    initial = Proper(rng.standard_normal(n), a @ a.T / n + np.eye(n))

    # Observations drawn by the benchmark's own simulator.
    x = initial.mean + np.linalg.cholesky(initial.cov) @ rng.standard_normal(n)
    records = []
    for t, (trans, sensor) in enumerate(zip(transitions, sensors), start=1):
        w, v = np.linalg.eigh(trans.noise_cov)
        x = trans.phi @ x + trans.offset + v @ (np.sqrt(np.clip(w, 0.0, None)) * rng.standard_normal(n))
        value = None
        if sensor is not None:
            y = sensor.c @ x + np.linalg.cholesky(sensor.noise_cov) @ rng.standard_normal(sensor.obs_dim)
            value = None if rng.random() < 0.3 else y
        records.append(ObservationRecord(t, sensor, value))
    return GaussMarkovModel(n, horizon, transitions, records, initial)


class VaryingFile:
    """A time-varying model read from a JSON file by the CLI.

    One op runs ``gmsmooth run`` once with each of the five pipelines.
    """

    name = "varying-file"
    op_is_cli = True

    def __init__(self, seed, workdir, toy=False):
        self.csv_cells = [0, 0]
        self.model = make_varying_model(np.random.default_rng(seed), horizon=32 if toy else 1024)
        self.path = str(workdir / "model.json")
        save_model(self.model, self.path)
        self.prefix = str(workdir / "out")
        self.steps_per_op = len(cli.PIPELINES) * self.model.horizon

    def inputs(self, k):
        return self.path

    def op(self, path):
        return [
            _run_cli(["run", path, "--pipeline", p, "--output", f"{self.prefix}-{p}"])
            for p in cli.PIPELINES
        ]

    def check(self, path, out):
        bad = [p for p, (rc, _) in zip(cli.PIPELINES, out) if rc != 0]
        if bad:
            raise CheckFailed(f"pipelines {bad} exited with an error")
        n, big_t = self.model.state_dim, self.model.horizon
        kal, smoothed = _kalman_reference(self.model)
        worst = 0.0
        for p in cli.PIPELINES:
            with open(f"{self.prefix}-{p}.json") as fh:
                summary = json.load(fh)
            if (summary["pipeline"], summary["state_dim"], summary["horizon"]) != (p, n, big_t):
                raise CheckFailed(f"{p}: summary header is wrong")
            if p != "backward-only":
                rel = rel_diff(summary["log_marginal_likelihood"], kal.log_likelihood)
                worst = max(worst, _require(rel, KALMAN_RTOL, f"{p} log marginal likelihood"))
            if p == "evidence":
                continue
            _, table = read_numeric_csv(f"{self.prefix}-{p}.csv", self.csv_cells)
            if table.shape[0] != big_t + 1 or not np.array_equal(table[:, 0], np.arange(big_t + 1)):
                raise CheckFailed(f"{p}: CSV does not cover t = 0..T")
            if p == "backward-only":
                m_bar, rank = table[:, 1], table[:, 3]
                if not (np.all(np.isfinite(table)) and np.all(m_bar <= n) and np.all(rank <= m_bar)):
                    raise CheckFailed("backward-only: row bound or rank violated")
                continue
            ref = kal.filtered if p == "filter" else smoothed
            ref_means, ref_vars, _ = _marginal_arrays(ref)
            worst = max(
                worst,
                _require(rel_diff(table[:, 1 : n + 1], ref_means), KALMAN_RTOL, f"{p} means"),
                _require(rel_diff(table[:, n + 1 :], ref_vars), KALMAN_RTOL, f"{p} variances"),
            )
        return worst

    def probe(self, path):
        _probe_sqrt(load_model(path))


WORKLOADS = {w.name: w for w in (TrackLong, McReplications, VaryingFile)}
