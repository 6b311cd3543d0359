"""Partially observed Gauss-Markov models.

A model is a time-indexed collection of linear-Gaussian transitions
x_t = Phi x_{t-1} + u + w, w ~ N(0, Q), observed through y_t = C x_t + v,
v ~ N(0, R), with R positive definite. Observations may be structurally
missing (no sensor at t: record.model is None) or simply not yet attached
(record.value is None). The initial state is either a proper Gaussian or a
flat improper prior.

Observation values are ``(m,)`` vectors for one sequence, or ``(B, m)``
stacks of B sequences that share the model and the missingness pattern;
the smoother then runs all B through one structure pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import linalg


@dataclass
class Transition:
    """One step x_t = phi x_{t-1} + offset + noise, noise ~ N(0, noise_cov).

    Prior and path-posterior kernels share this type; a posterior kernel of a
    batch carries a ``(B, n)`` offset.
    """

    phi: np.ndarray
    offset: np.ndarray
    noise_cov: np.ndarray
    noise_chol: np.ndarray | None = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.offset = linalg.as_data(self.offset)
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        if self.noise_chol is not None:
            self.noise_chol = np.asarray(self.noise_chol, dtype=float)

    def with_noise_chol(self):
        """Return a copy with a PSD triangular factor of noise_cov filled in."""
        if self.noise_chol is not None:
            return self
        return replace(self, noise_chol=linalg.psd_chol(self.noise_cov))


@dataclass
class ObservationModel:
    """Linear-Gaussian sensor y = c x + v with PD noise covariance."""

    c: np.ndarray
    noise_cov: np.ndarray
    noise_chol: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        if self.noise_chol is None:
            # chol_lower scans nothing (a NaN gives a NaN factor), so only a
            # finite square matrix is factored; validate() reports the rest
            cov = self.noise_cov
            if cov.ndim == 2 and cov.shape[0] == cov.shape[1] and np.isfinite(cov).all():
                try:
                    self.noise_chol = linalg.chol_lower(cov)
                except linalg.FactorizationError:
                    pass  # not PD: left unset for validate() to report
        else:
            self.noise_chol = np.asarray(self.noise_chol, dtype=float)

    @property
    def obs_dim(self):
        return self.c.shape[0]


@dataclass
class ObservationRecord:
    """Observation slot at time t; model None means no sensor at t.

    ``value`` is an ``(m,)`` vector or a ``(B, m)`` batch of them.
    """

    time_index: int
    model: ObservationModel | None = None
    value: np.ndarray | None = None

    def __post_init__(self):
        if self.value is not None:
            self.value = linalg.as_data(self.value)

    @property
    def is_missing(self):
        return self.model is None or self.value is None


@dataclass
class Proper:
    """Proper Gaussian initial distribution N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = np.asarray(self.cov, dtype=float)
        if self.chol is not None:
            self.chol = np.asarray(self.chol, dtype=float)

    def with_chol(self):
        if self.chol is not None:
            return self
        return replace(self, chol=linalg.psd_chol(self.cov))


class FlatOnSupport:
    """Improper prior: indicator of the affine support of the x0-likelihood."""

    def __repr__(self):
        return "FlatOnSupport()"


class FlatEverywhere:
    """Improper prior flat on all of R^n; x0 is effectively a parameter."""

    def __repr__(self):
        return "FlatEverywhere()"


InitialDistribution = Proper | FlatOnSupport | FlatEverywhere


@dataclass
class GaussMarkovModel:
    state_dim: int
    horizon: int
    transitions: list[Transition]
    observations: list[ObservationRecord]
    initial: InitialDistribution

    def transition(self, t):
        """Transition taking x_{t-1} to x_t, for t = 1..T."""
        return self.transitions[t - 1]

    def observation(self, t):
        """Observation record at time t, for t = 1..T."""
        return self.observations[t - 1]


def _batch_text(value):
    return "one sequence" if value.ndim == 1 else f"a batch of {value.shape[0]}"


def _check_array(a, shape, name, violations):
    """True if ``a`` is unset, or finite and of ``shape`` (if set); else record why not."""
    if a is None:
        return True
    ok = bool(np.isfinite(a).all())
    if not ok:
        violations.append(f"{name} is not finite")
    if shape is not None and a.shape != shape:
        violations.append(f"{name} has shape {a.shape}")
        ok = False
    return ok


def _check_cov(cov, factor, dim, name, factor_name, at, violations, definite=False):
    """Check a covariance and its factor, if set, in order: both finite and
    ``(dim, dim)``, the covariance symmetric, PSD by linalg's rule (PD, one
    Cholesky, if ``definite``) and reconstructed by the factor, each check
    only if those before it pass. The recursion whitens by a sensor's
    factor: a definite one must also be lower triangular, diagonal > 0."""
    ok = _check_array(cov, (dim, dim), name + at, violations)
    if not (_check_array(factor, (dim, dim), factor_name + at, violations) and ok):
        return
    tol = linalg.RTOL * max(1.0, abs(cov).max(initial=0.0))
    if abs(cov - cov.T).max(initial=0.0) > tol:
        violations.append(f"{name}{at} not symmetric")
        return
    try:
        chol = (linalg.chol_lower if definite else linalg.psd_chol)(cov)
    except linalg.FactorizationError:
        violations.append(f"{name} not {'PD' if definite else 'PSD'}{at}")
        return
    if factor is None or np.array_equal(factor, chol):  # the factor the model computed
        return
    if abs(factor @ factor.T - cov).max(initial=0.0) > tol:
        violations.append(f"{factor_name}{at} does not reconstruct covariance")
    elif definite and not (np.array_equal(factor, np.tril(factor)) and all(np.diag(factor) > 0)):
        violations.append(f"{factor_name}{at} is not lower triangular with a positive diagonal")


def validate(model):
    """Return a list of violation messages; empty list means the model is ok.

    Every model array is checked for finiteness and shape, by name and time
    index, before any check that factors it; the transition noise, sensor
    noise and prior covariances all go through :func:`_check_cov`.
    """
    violations = []
    n, big_t = model.state_dim, model.horizon
    if len(model.transitions) != big_t:
        violations.append(
            f"expected {big_t} transitions, got {len(model.transitions)}"
        )
    if len(model.observations) != big_t:
        violations.append(
            f"expected {big_t} observation records, got {len(model.observations)}"
        )
    for t, trans in enumerate(model.transitions, start=1):
        at = f" at t={t}"
        _check_array(trans.phi, (n, n), "transition matrix" + at, violations)
        _check_array(trans.offset, (n,), "transition offset" + at, violations)
        _check_cov(trans.noise_cov, trans.noise_chol, n, "transition noise covariance",
                   "transition noise factor", at, violations)
    n_present = 0
    first = None  # (t, value) of the first present step
    for rec in model.observations:
        t = rec.time_index
        if rec.model is None:
            if rec.value is not None:
                violations.append(f"observation value without sensor model at t={t}")
            continue
        obs = rec.model
        if obs.c.ndim != 2 or obs.c.shape[0] == 0:  # a sensor has at least one row
            violations.append(f"observation matrix at t={t} has shape {obs.c.shape}")
            continue
        m = obs.c.shape[0]
        at = f" at t={t}"
        _check_array(obs.c, (m, n), "observation matrix" + at, violations)
        _check_cov(obs.noise_cov, obs.noise_chol, m, "observation covariance",
                   "observation noise factor", at, violations, definite=True)
        if rec.value is not None:
            n_present += 1
            value = rec.value
            if value.ndim > 2:
                violations.append(
                    f"observation value at t={t} has shape {value.shape}, "
                    f"expected ({m},) or (B, {m})"
                )
                continue
            if value.shape[-1] != m:
                violations.append(
                    f"observation value at t={t} has dimension {value.shape[-1]}, "
                    f"expected {m}"
                )
            if first is None:
                first = (t, value)
            elif value.shape[:-1] != first[1].shape[:-1]:
                violations.append(
                    f"observation value at t={t} holds {_batch_text(value)}, "
                    f"but the value at t={first[0]} holds {_batch_text(first[1])}"
                )
            _check_array(value, None, "observation value" + at, violations)
    if isinstance(model.initial, Proper):
        init = model.initial
        _check_array(init.mean, (n,), "initial mean", violations)
        _check_cov(init.cov, init.chol, n, "initial covariance",
                   "initial covariance factor", "", violations)
    if n_present == 0:
        violations.append("model has no non-missing observation")
    return violations


def simulate(model, seed):
    """Draw a state trajectory and observations; deterministic given seed.

    Returns (states, observations) with states indexed t = 0..T and
    observations indexed t = 1..T (None wherever no sensor is defined).
    """
    if not isinstance(model.initial, Proper):
        raise ValueError("simulation requires a proper initial distribution")
    rng = np.random.default_rng(seed)
    init = model.initial.with_chol()
    x = init.mean + init.chol @ rng.standard_normal(model.state_dim)
    states = [x]
    observations = []
    for t in range(1, model.horizon + 1):
        trans = model.transition(t).with_noise_chol()
        x = trans.phi @ x + trans.offset + trans.noise_chol @ rng.standard_normal(
            model.state_dim
        )
        states.append(x)
        rec = model.observation(t)
        if rec.model is None:
            observations.append(None)
        else:
            obs = rec.model
            y = obs.c @ x + obs.noise_chol @ rng.standard_normal(obs.obs_dim)
            observations.append(y)
    return states, observations


def simulate_batch(model, seeds):
    """Draw one sequence per seed, all B stepped together.

    Row b equals ``simulate(model, seeds[b])`` bit for bit: each seed's
    normals come from one draw in :func:`simulate`'s order (numpy's normal
    stream does not depend on how draws are split), and every product runs
    as one gemv per sequence, like ``a @ x`` (``x @ a.T`` would run a gemm,
    which need not round the same).

    Returns (states, observations): states ``(B, T+1, n)`` and a length-T
    list of ``(B, m)`` stacks, None wherever no sensor is defined.
    """
    if not isinstance(model.initial, Proper):
        raise ValueError("simulation requires a proper initial distribution")
    n, big_t = model.state_dim, model.horizon
    sensors = [model.observation(t).model for t in range(1, big_t + 1)]
    total = n * (big_t + 1) + sum(s.obs_dim for s in sensors if s is not None)
    normals = np.array([np.random.default_rng(s).standard_normal(total) for s in seeds])
    used = 0

    def noise(factor):
        """``factor`` times each seed's next block of normals, ``(B, rows)``."""
        nonlocal used
        block = normals[:, used : used + factor.shape[1]]
        used += factor.shape[1]
        return _gemv(factor, block)

    init = model.initial.with_chol()
    x = init.mean + noise(init.chol)
    states = [x]
    observations = []
    for t, sensor in enumerate(sensors, start=1):
        trans = model.transition(t).with_noise_chol()
        x = _gemv(trans.phi, x) + trans.offset + noise(trans.noise_chol)
        states.append(x)
        if sensor is None:
            observations.append(None)
        else:
            observations.append(_gemv(sensor.c, x) + noise(sensor.noise_chol))
    return np.stack(states, axis=1), observations


def _gemv(a, x):
    """``a @ v`` for every row v of the ``(B, k)`` stack x, one gemv each."""
    return np.matmul(a, x[..., None])[..., 0]


def attach_observations(model, values):
    """Return a copy of the model with observation values filled in.

    ``values`` is a length-T list of vectors or None, as produced by
    :func:`simulate`, or of ``(B, m)`` stacks of B such sequences; entries at
    times without a sensor must be None.
    """
    if len(values) != model.horizon:
        raise ValueError("values must have one entry per time step")
    records = []
    for rec, y in zip(model.observations, values):
        if y is not None and rec.model is None:
            raise ValueError(f"value supplied at t={rec.time_index} without a sensor")
        records.append(ObservationRecord(rec.time_index, rec.model, y))
    return replace(model, observations=records)


def wiener_acceleration_model(dt, sigmas, lambdas, horizon, first_obs_index):
    """Planar tracking model: two independent integrated-Wiener-acceleration axes.

    State ordering is (p1, v1, a1, p2, v2, a2). Position is observed with
    noise variances ``lambdas``; times before ``first_obs_index`` carry no
    sensor. The initial distribution is flat on all of R^6. Observation
    values are left unset; use :func:`attach_observations` after simulating.
    """
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if sigmas.shape != (2,) or lambdas.shape != (2,):
        raise ValueError("sigmas and lambdas must each have two entries")
    if np.any(sigmas <= 0.0) or np.any(lambdas <= 0.0):
        raise ValueError("sigmas and lambdas must be positive")
    if not 1 <= first_obs_index <= horizon:
        raise ValueError("first_obs_index must lie in 1..horizon")

    phi_axis = np.array(
        [[1.0, dt, 0.5 * dt**2], [0.0, 1.0, dt], [0.0, 0.0, 1.0]]
    )
    q_unit = np.array(
        [
            [dt**5 / 20.0, dt**4 / 8.0, dt**3 / 6.0],
            [dt**4 / 8.0, dt**3 / 3.0, dt**2 / 2.0],
            [dt**3 / 6.0, dt**2 / 2.0, dt],
        ]
    )
    phi = np.zeros((6, 6))
    q = np.zeros((6, 6))
    phi[:3, :3] = phi_axis
    phi[3:, 3:] = phi_axis
    q[:3, :3] = sigmas[0] ** 2 * q_unit
    q[3:, 3:] = sigmas[1] ** 2 * q_unit
    trans = Transition(phi, np.zeros(6), q).with_noise_chol()

    c = np.zeros((2, 6))
    c[0, 0] = 1.0
    c[1, 3] = 1.0
    sensor = ObservationModel(c, np.diag(lambdas))

    records = [
        ObservationRecord(t, sensor if t >= first_obs_index else None, None)
        for t in range(1, horizon + 1)
    ]
    return GaussMarkovModel(
        state_dim=6,
        horizon=horizon,
        transitions=[trans] * horizon,
        observations=records,
        initial=FlatEverywhere(),
    )


# ---------------------------------------------------------------------------
# JSON model files
#
# Schema (all matrices are nested lists, row-major):
#   {
#     "state_dim": n,
#     "horizon": T,
#     "transitions": [{"phi": ..., "offset": ..., "noise_cov": ...}, ...]
#                    or a single such object (repeated for every step),
#     "observation_models": [{"c": ..., "noise_cov": ...} or null, ...]
#                    or a single object via "observation_model",
#     "observations": [[...] or null, ...],   # length T, values y_t
#     "initial": {"kind": "proper", "mean": [...], "cov": [[...]]}
#                | {"kind": "flat_on_support"} | {"kind": "flat_everywhere"}
#   }
# ---------------------------------------------------------------------------


def model_to_dict(model):
    """Serialize a model to the JSON schema (always in expanded per-step form)."""
    if isinstance(model.initial, Proper):
        initial = {
            "kind": "proper",
            "mean": model.initial.mean.tolist(),
            "cov": model.initial.cov.tolist(),
        }
    elif isinstance(model.initial, FlatOnSupport):
        initial = {"kind": "flat_on_support"}
    else:
        initial = {"kind": "flat_everywhere"}
    return {
        "state_dim": model.state_dim,
        "horizon": model.horizon,
        "transitions": [
            {
                "phi": tr.phi.tolist(),
                "offset": tr.offset.tolist(),
                "noise_cov": tr.noise_cov.tolist(),
            }
            for tr in model.transitions
        ],
        "observation_models": [
            None
            if rec.model is None
            else {"c": rec.model.c.tolist(), "noise_cov": rec.model.noise_cov.tolist()}
            for rec in model.observations
        ],
        "observations": [
            None if rec.value is None else rec.value.tolist()
            for rec in model.observations
        ],
        "initial": initial,
    }


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}


def _json_type(value):
    return _JSON_TYPES.get(type(value), "number")


def _integer(data, key):
    try:
        return int(data[key])
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be an integer, got {_json_type(data[key])}") from None


def _array(value, name):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or a rectangular array of numbers") from None


def _check_objects(items, key, nullable=False):
    """Raise a ValueError naming the first per-step entry that is not an object."""
    for t, item in enumerate(items, start=1):
        if not isinstance(item, dict) and not (nullable and item is None):
            expected = "an object or null" if nullable else "an object"
            raise ValueError(
                f"{key} entry at t={t} must be {expected}, got {_json_type(item)}"
            )


def model_from_dict(data):
    """Parse a model from the JSON schema; see :func:`model_to_dict`.

    Raises ValueError, naming the field and step, for a value of the wrong
    JSON type; a missing field raises KeyError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a model must be a JSON object, got {_json_type(data)}")
    n = _integer(data, "state_dim")
    big_t = _integer(data, "horizon")

    raw_trans = data["transitions"]
    if isinstance(raw_trans, dict):
        raw_trans = [raw_trans] * big_t
    if not isinstance(raw_trans, list):
        raise ValueError(
            f"transitions must be an object or a list of objects, got {_json_type(raw_trans)}"
        )
    _check_objects(raw_trans, "transitions")
    transitions = []
    keys = ("phi", "offset", "noise_cov")
    for t, tr in enumerate(raw_trans, start=1):
        phi, offset, q = (_array(tr[k], f"transition {k} at t={t}") for k in keys)
        transitions.append(Transition(phi, np.ravel(offset), q))

    if "observation_models" in data:
        raw_obs_models = data["observation_models"]
    else:
        raw_obs_models = [data.get("observation_model")] * big_t
    raw_values = data.get("observations", [None] * big_t)
    per_step = {"observation_models": raw_obs_models, "observations": raw_values}
    for key, items in per_step.items():
        if not isinstance(items, list) or len(items) != big_t:
            raise ValueError(f"{key} must be a list of {big_t} entries, one per step")
    _check_objects(raw_obs_models, "observation_models", nullable=True)
    sensors = [
        None if om is None else ObservationModel(
            *(_array(om[k], f"observation model {k} at t={t}") for k in ("c", "noise_cov"))
        )
        for t, om in enumerate(raw_obs_models, start=1)
    ]

    # The file format holds one sequence: every value is one vector.
    values = [
        None if v is None else np.ravel(_array(v, f"observations at t={t}"))
        for t, v in enumerate(raw_values, start=1)
    ]
    records = [
        ObservationRecord(t, sensor, value)
        for t, (sensor, value) in enumerate(zip(sensors, values), start=1)
    ]

    init = data["initial"]
    if not isinstance(init, dict):
        raise ValueError(f"initial must be an object, got {_json_type(init)}")
    kind = init["kind"]
    if kind == "proper":
        initial = Proper(*(_array(init[k], f"initial {k}") for k in ("mean", "cov")))
    elif kind == "flat_on_support":
        initial = FlatOnSupport()
    elif kind == "flat_everywhere":
        initial = FlatEverywhere()
    else:
        raise ValueError(f"unknown initial distribution kind {kind!r}")

    return GaussMarkovModel(n, big_t, transitions, records, initial)


def load_model(path):
    with open(path) as fh:
        data = json.load(fh)
    return model_from_dict(data)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
