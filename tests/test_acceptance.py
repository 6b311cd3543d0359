"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from gmsmooth.backward import (
    LogQuadLikelihood,
    backward_pass,
    fuse_observation,
    predict_backward,
    terminal_init,
)
from gmsmooth.baselines import (
    build_joint,
    condition_joint,
    future_likelihood_oracle,
    kalman_filter,
    rts_smoother,
    two_filter_combine,
)
from gmsmooth.cli import DemoConfig, run_demo
from gmsmooth.forward import fuse_initial, smooth
from gmsmooth.linalg import LOG_2PI, pseudo_logdet
from gmsmooth.model import (
    FlatOnSupport,
    GaussMarkovModel,
    ObservationModel,
    ObservationRecord,
    Proper,
    Transition,
)
from gmsmooth.sqrt import sqrt_backward_pass

from conftest import random_model, random_psd
from test_sqrt import ill_conditioned_model

BATTERY_SIZE = 50
POINTS_PER_TIME = 100


@pytest.fixture(scope="module")
def battery():
    """Fixed battery of random desk-scale models shared by several criteria.

    Each model has n <= 4 states, m <= n observed components, horizon <= 12,
    roughly 20% of steps with a singular transition matrix and 20% with zero
    process noise, plus occasional missing observations.
    """
    models = []
    for i in range(BATTERY_SIZE):
        rng = np.random.default_rng(1000 + i)
        models.append(random_model(rng, missing_frac=0.2))
    return models


def report(number, label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {number} [{label}]: {status}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


class TestCriterion1:
    def test_pointwise_likelihood(self, battery):
        start = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(77)
        for model in battery:
            result = backward_pass(model)
            for t in range(1, model.horizon + 1):
                xs = rng.standard_normal((POINTS_PER_TIME, model.state_dim))
                got = result.likelihood_given_t[t - 1].log_value(xs)
                expected = future_likelihood_oracle(model, t, xs)
                worst = max(worst, np.max(np.abs(got - expected)))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed <= 60.0
        print(f"\n  worst pointwise error {worst:.3e}, elapsed {elapsed:.1f} s")
        report(1, "pointwise backward likelihood vs oracle <= 1e-8, <= 60 s", ok)


class TestCriterion2:
    def test_three_way_smoothing_agreement(self, battery):
        worst = 0.0
        for model in battery:
            backward = backward_pass(model)
            kal = kalman_filter(model)
            via_forward = smooth(model, backward=backward)
            via_rts = rts_smoother(kal, model)
            for t in range(model.horizon + 1):
                future = (
                    backward.likelihood_given_prev[t]
                    if t < model.horizon
                    else LogQuadLikelihood.empty(model.state_dim)
                )
                via_two_filter = two_filter_combine(kal.filtered[t], future)
                a = via_forward.marginals[t]
                for other in (via_two_filter, via_rts[t]):
                    worst = max(worst, np.max(np.abs(a.mean - other.mean)))
                    worst = max(worst, np.max(np.abs(a.cov - other.cov)))
        print(f"\n  worst three-way discrepancy {worst:.3e}")
        report(2, "backward-forward, two-filter and RTS marginals agree <= 1e-8", worst <= 1e-8)


class TestCriterion3:
    def test_evidence_agreement(self, battery):
        worst = 0.0
        for model in battery:
            backward = backward_pass(model)
            _, log_l = fuse_initial(backward.initial_likelihood, model.initial)
            kal = kalman_filter(model)
            _, _, oracle = condition_joint(build_joint(model))
            worst = max(worst, abs(log_l - oracle), abs(kal.log_likelihood - oracle))
        print(f"\n  worst evidence discrepancy {worst:.3e}")
        report(3, "fused, prediction-error and dense-oracle evidence agree <= 1e-8", worst <= 1e-8)


class TestCriterion4:
    def test_square_root_equivalence(self, battery):
        worst = 0.0
        for model in battery:
            plain = backward_pass(model)
            via_array = sqrt_backward_pass(model)
            for t in range(model.horizon):
                a = plain.likelihood_given_prev[t]
                b = via_array.likelihood_given_prev[t]
                worst = max(worst, abs(a.log_c - b.log_c))
                if not a.is_empty:
                    worst = max(worst, np.max(np.abs(a.y_bar - b.y_bar)))
                    worst = max(worst, np.max(np.abs(a.c_bar - b.c_bar)))
                ta, tb = plain.transitions_post[t], via_array.transitions_post[t]
                worst = max(worst, np.max(np.abs(ta.phi - tb.phi)))
                worst = max(worst, np.max(np.abs(ta.offset - tb.offset)))
                worst = max(worst, np.max(np.abs(ta.noise_cov - tb.noise_cov)))

        model = ill_conditioned_model(cond=1e12)
        rng = np.random.default_rng(5)
        via_array = sqrt_backward_pass(model)
        worst_ill = 0.0
        for t in range(1, model.horizon + 1):
            xs = rng.standard_normal((POINTS_PER_TIME, model.state_dim))
            got = via_array.likelihood_given_t[t - 1].log_value(xs)
            expected = future_likelihood_oracle(model, t, xs)
            worst_ill = max(worst_ill, np.max(np.abs(got - expected)))

        ok = worst <= 1e-8 and worst_ill <= 1e-6
        print(
            f"\n  battery discrepancy {worst:.3e}, "
            f"cond(Q)=1e12 pointwise error {worst_ill:.3e}"
        )
        report(4, "square-root pass matches plain <= 1e-8; stays <= 1e-6 at cond 1e12", ok)


def well_identified_model(seed, n=3, horizon=6):
    """Model whose x0-likelihood is solidly full rank: near-identity sensors,
    mildly contracting dynamics, every step observed."""
    rng = np.random.default_rng(seed)
    transitions = []
    for _ in range(horizon):
        phi = 0.9 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        q = random_psd(rng, n) + 0.1 * np.eye(n)
        transitions.append(Transition(phi, rng.standard_normal(n), q).with_noise_chol())
    records = []
    for t in range(1, horizon + 1):
        c = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        r = random_psd(rng, n) + np.eye(n)
        records.append(ObservationRecord(t, ObservationModel(c, r), rng.standard_normal(n)))
    return GaussMarkovModel(n, horizon, transitions, records, FlatOnSupport())


class TestCriterion5:
    def test_flat_prior_consistency(self):
        worst_rel = 0.0
        worst_log_l = 0.0
        for seed in range(10):
            model = well_identified_model(seed)
            n = model.state_dim
            flat = smooth(model)

            backward = backward_pass(model)
            lik0 = backward.initial_likelihood
            logdet, rank = pseudo_logdet(flat.initial_posterior.cov)
            expected_log_l = lik0.log_c + 0.5 * (rank * LOG_2PI + logdet)
            worst_log_l = max(
                worst_log_l, abs(flat.log_marginal_likelihood - expected_log_l)
            )

            diffuse_model = GaussMarkovModel(
                n,
                model.horizon,
                model.transitions,
                model.observations,
                Proper(np.zeros(n), 1e8 * np.eye(n)),
            )
            diffuse = smooth(diffuse_model)
            for a, b in zip(flat.marginals, diffuse.marginals):
                scale = max(1.0, np.abs(b.mean).max())
                worst_rel = max(worst_rel, np.max(np.abs(a.mean - b.mean)) / scale)
                cscale = max(1.0, np.abs(b.cov).max())
                worst_rel = max(worst_rel, np.max(np.abs(a.cov - b.cov)) / cscale)
        ok = worst_rel <= 1e-4 and worst_log_l <= 1e-10
        print(
            f"\n  worst flat-vs-diffuse relative error {worst_rel:.3e}, "
            f"evidence identity error {worst_log_l:.3e}"
        )
        report(5, "flat prior matches diffuse proper prior <= 1e-4 relative", ok)


class TestCriterion6:
    def test_structural_bounds(self, battery):
        ok = True
        for model in battery:
            n = model.state_dim
            lik = LogQuadLikelihood.empty(n)
            for t in range(model.horizon, 0, -1):
                rec = model.observation(t)
                obs = terminal_init(rec)
                rows_stacked = lik.m_bar + obs.m_bar
                fused = fuse_observation(lik, obs)
                if not obs.is_empty:
                    ok = ok and obs.m_bar <= fused.m_bar <= n
                    if rows_stacked > n:
                        ok = ok and fused.m_bar == n
                else:
                    ok = ok and fused.m_bar <= n
                if not fused.is_empty:
                    q = model.transition(t).noise_cov
                    r_hat = np.eye(fused.m_bar) + fused.c_bar @ q @ fused.c_bar.T
                    ok = ok and np.linalg.eigvalsh(r_hat).min() >= 1.0 - 1e-10
                lik, _ = predict_backward(fused, model.transition(t))
        report(6, "row counts stay within [m, n] and innovation eigenvalues >= 1", ok)


class TestCriterion7:
    def test_tracking_demo_battery(self, tmp_path):
        start = time.perf_counter()
        config = DemoConfig(
            replications=200, seed=0, output_path=str(tmp_path / "demo.csv")
        )
        summary = run_demo(config)
        elapsed = time.perf_counter() - start
        wins = summary["smoother_beats_mle_fraction"]
        coverage = summary["mean_coverage"]
        ok = wins >= 0.95 and 0.90 <= coverage <= 0.99 and elapsed <= 300.0
        print(
            f"\n  smoother wins fraction {wins:.3f}, mean coverage {coverage:.3f}, "
            f"elapsed {elapsed:.1f} s"
        )
        report(7, "smoother beats MLE on the unobserved prefix with calibrated bands", ok)


class TestCriterion8:
    def test_determinism(self, tmp_path):
        config = DemoConfig(
            horizon=64, first_obs_index=31, seed=11, output_path=str(tmp_path / "a.csv")
        )
        rep_summary = run_demo(config)
        first = (tmp_path / "a.csv").read_bytes()
        run_demo(config)
        second = (tmp_path / "a.csv").read_bytes()

        multi = DemoConfig(
            horizon=64,
            first_obs_index=31,
            seed=11,
            replications=3,
            output_path=str(tmp_path / "b.csv"),
        )
        run_demo(multi)
        third = (tmp_path / "b.csv").read_bytes()
        run_demo(multi)
        fourth = (tmp_path / "b.csv").read_bytes()

        ok = first == second and third == fourth and rep_summary is not None
        report(8, "identical configs produce bit-identical CSV outputs", ok)
