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
from functools import cached_property
from itertools import repeat

import numpy as np
import scipy.linalg

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

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.offset = linalg.as_data(self.offset)
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)

    @cached_property
    def noise_chol(self):
        """PSD triangular factor of noise_cov, computed on first read."""
        return linalg.psd_chol(self.noise_cov)

    def with_noise_chol(self):
        """Compute the noise factor now and return this transition."""
        _ = self.noise_chol
        return self


@dataclass
class ObservationModel:
    """Linear-Gaussian sensor y = c x + v with PD noise covariance.

    The factor and the whitened sensor are computed on first read, once per
    object; :func:`validate` reads the factor only once noise_cov is finite,
    square and symmetric, as ``chol_lower`` scans nothing.
    """

    c: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)

    @property
    def obs_dim(self):
        return self.c.shape[0]

    @cached_property
    def noise_chol(self):
        """Lower Cholesky factor L of noise_cov."""
        return linalg.chol_lower(self.noise_cov)

    @cached_property
    def whitened(self):
        """(c_bar, log_c) = (L^{-1} c, -m/2 log 2 pi - log det L): all of a whitened
        observation but y_bar; c_bar is read-only, as every step with this sensor shares it."""
        l = self.noise_chol
        c_bar = linalg.solve_triangular(l, self.c)
        c_bar.flags.writeable = False
        return c_bar, -0.5 * self.obs_dim * linalg.LOG_2PI - linalg.log_diag(l)


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
    """N(mean, cov), the one Gaussian type: a prior, any marginal (a batch's has a
    ``(B, n)`` mean), a kernel's density at one step. As a prior it is the transition
    into x0 from a state nothing depends on (phi = 0), built on first read."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = linalg.as_data(self.mean)
        self.cov = np.asarray(self.cov, dtype=float)

    @cached_property
    def into_x0(self):
        """Transition(0, mean, cov) into x0; its noise_chol is the prior's factor."""
        return Transition(np.zeros_like(self.cov), self.mean, self.cov)


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
        if t < 1:  # a negative list index would count back from step T
            raise IndexError(f"no transition at t={t}: t runs over 1..{self.horizon}")
        return self.transitions[t - 1]

    def observation(self, t):
        """Observation record at time t, for t = 1..T."""
        if t < 1:
            raise IndexError(f"no observation at t={t}: t runs over 1..{self.horizon}")
        return self.observations[t - 1]


def _batch_text(value):
    return "one sequence" if value.ndim == 1 else f"a batch of {value.shape[0]}"


def _check_array(a, shape, name, violations):
    """True if ``a`` is finite and of ``shape`` (if set); else record why not."""
    ok = bool(np.isfinite(a).all())
    if not ok:
        violations.append(f"{name} is not finite")
    if shape is not None and a.shape != shape:
        violations.append(f"{name} has shape {a.shape}")
        ok = False
    return ok


def _check_cov(cov, read_factor, dim, name, at, violations, definite=False):
    """Check a covariance in order: finite and ``(dim, dim)``, symmetric, and
    PSD by linalg's rule (PD, one Cholesky, if ``definite``), each check only
    if those before it pass. The last calls ``read_factor``, the first read
    of the owning object's own factor: the one the recursion uses."""
    if not _check_array(cov, (dim, dim), name + at, violations):
        return
    tol = linalg.RTOL * max(1.0, abs(cov).max(initial=0.0))
    if abs(0.5 * cov - 0.5 * cov.T).max(initial=0.0) > 0.5 * tol:  # halved: no overflow
        violations.append(f"{name}{at} not symmetric")
        return
    try:
        read_factor()
    except linalg.FactorizationError:
        violations.append(f"{name} not {'PD' if definite else 'PSD'}{at}")


def validate(model):
    """Return a list of violation messages; empty list means the model is ok.

    Every model array is checked for finiteness and shape, by name and time
    index, before any check that factors it; the transition noise, sensor
    noise and prior covariances all go through :func:`_check_cov`, whose
    PSD (PD) check computes the object's own factor for the recursion to reuse.
    A prior of none of the three initial kinds is reported as unknown.
    """
    violations = []
    n, big_t = model.state_dim, model.horizon
    for what, items in (("transitions", model.transitions),
                        ("observation records", model.observations)):
        if len(items) != big_t:
            violations.append(f"expected {big_t} {what}, got {len(items)}")
    for t, trans in enumerate(model.transitions, start=1):
        at = f" at t={t}"
        _check_array(trans.phi, (n, n), "transition matrix" + at, violations)
        _check_array(trans.offset, (n,), "transition offset" + at, violations)
        _check_cov(trans.noise_cov, lambda: trans.noise_chol, n,
                   "transition noise covariance", at, violations)
    n_present = 0
    first = None  # (t, value) of the first present step
    for t, rec in enumerate(model.observations, start=1):
        if rec.time_index != t:
            violations.append(f"observation record at t={t} has time_index {rec.time_index}")
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
        _check_cov(obs.noise_cov, lambda: obs.noise_chol, m, "observation covariance",
                   at, violations, definite=True)
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
        _check_cov(init.cov, lambda: init.into_x0.noise_chol, n, "initial covariance", "",
                   violations)
    elif not isinstance(model.initial, (FlatOnSupport, FlatEverywhere)):
        violations.append(f"unknown initial distribution {model.initial!r}")
    if n_present == 0:
        violations.append("model has no non-missing observation")
    return violations


def simulate(model, seed):
    """Draw a state trajectory and observations; deterministic given seed.

    Row 0 of ``simulate_batch(model, [seed])``. Returns (states, observations):
    a list of states indexed t = 0..T and a list of observations indexed
    t = 1..T (None wherever no sensor is defined).
    """
    states, observations = simulate_batch(model, [seed])
    return list(states[0]), [None if y is None else y[0] for y in observations]


def simulate_batch(model, seeds):
    """Draw one sequence per seed, all B stepped together.

    Each seed's normals come from one draw of its own generator, taken in
    the order the sequence uses them (numpy's normal stream does not depend
    on how draws are split), so row b does not depend on the other seeds.
    Every product runs as one gemv per sequence, like ``a @ x`` (``x @ a.T``
    would run a gemm, which need not round the same).

    Returns (states, observations): states ``(B, T+1, n)`` and a length-T
    list of ``(B, m)`` stacks, None wherever no sensor is defined.
    """
    if not isinstance(model.initial, Proper):
        raise ValueError("simulation requires a proper initial distribution")
    n, big_t = model.state_dim, model.horizon
    sensors = [model.observation(t).model for t in range(1, big_t + 1)]
    total = n * (big_t + 1) + sum(s.obs_dim for s in sensors if s is not None)
    normals = np.array([np.random.default_rng(s).standard_normal(total) for s in seeds])
    if len(normals) == 0:
        raise ValueError("seeds must hold at least one seed")
    used = 0

    def noise(factor):
        """``factor`` times each seed's next block of normals, ``(B, rows)``."""
        nonlocal used
        block = normals[:, used : used + factor.shape[1]]
        used += factor.shape[1]
        return _gemv(factor, block)

    x = model.initial.mean + noise(model.initial.into_x0.noise_chol)
    states = [x]
    observations = []
    for trans, sensor in zip(model.transitions, sensors, strict=True):
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

    ``values`` is a length-T list of vectors or None, as :func:`simulate`
    returns them, or of ``(B, m)`` stacks of B sequences, as
    :func:`simulate_batch` returns them; entries at times without a sensor
    must be None.
    """
    if len(values) != model.horizon:
        raise ValueError("values must have one entry per time step")
    records = []
    for t, (rec, y) in enumerate(zip(model.observations, values), start=1):
        if y is not None and rec.model is None:
            raise ValueError(f"value supplied at t={t} without a sensor")
        records.append(ObservationRecord(t, rec.model, y))
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
    if sigmas.shape != (2,) or lambdas.shape != (2,):
        raise ValueError("sigmas and lambdas must each have two entries")
    dt = float(dt)
    names = ("dt", "sigma1", "sigma2", "lambda1", "lambda2")
    for name, value in zip(names, [dt, *sigmas.tolist(), *lambdas.tolist()]):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not 1 <= first_obs_index <= horizon:
        raise ValueError("first_obs_index must lie in 1..horizon")

    try:  # a float power that overflows raises
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
    except OverflowError:
        raise ValueError(f"dt={dt} overflows the transition or its noise covariance") from None
    with np.errstate(over="ignore"):
        q_axes = [s**2 * q_unit for s in sigmas]
    for name, s, q_axis in zip(names[1:3], sigmas.tolist(), q_axes):
        if not np.isfinite(q_axis).all():
            raise ValueError(f"{name}={s} with dt={dt} overflows the noise covariance")
    phi = scipy.linalg.block_diag(phi_axis, phi_axis)
    trans = Transition(phi, np.zeros(6), scipy.linalg.block_diag(*q_axes))

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
#                    or a single such object (shared by every step),
#     "observation_models": [{"c": ..., "noise_cov": ...} or null, ...]
#                    or a single object or null via "observation_model",
#     "observations": [[...] or null, ...],   # values y_t; absent: none
#     "initial": {"kind": "proper", "mean": [...], "cov": [[...]]}
#                | {"kind": "flat_on_support"} | {"kind": "flat_everywhere"}
#   }
# Every per-step list has T entries, the t-th for step t, and the step's
# number is its position. A missing field is an error that names it.
# ---------------------------------------------------------------------------

_INITIAL_KINDS = {
    Proper: "proper",
    FlatOnSupport: "flat_on_support",
    FlatEverywhere: "flat_everywhere",
}


def model_to_dict(model):
    """Serialize a model to the JSON schema (always in expanded per-step form)."""
    for t, rec in enumerate(model.observations, start=1):
        if rec.value is not None and rec.value.ndim != 1:
            raise ValueError(
                f"observation value at t={t} holds {_batch_text(rec.value)}, "
                "but a model file holds one sequence"
            )
    kind = next((k for cls, k in _INITIAL_KINDS.items() if isinstance(model.initial, cls)), None)
    if kind is None:
        raise ValueError(f"unknown initial distribution {model.initial!r}")
    initial = {"kind": kind}
    if isinstance(model.initial, Proper):
        initial.update(mean=model.initial.mean.tolist(), cov=model.initial.cov.tolist())
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


def _field(obj, key, where=""):
    """``obj[key]``, or a ValueError "``where``missing field 'key'" if it is absent."""
    if key not in obj:
        raise ValueError(f"{where}missing field {key!r}")
    return obj[key]


def _integer(data, key):
    """A positive JSON integer: an int, not a bool, a float or a string."""
    value = _field(data, key)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {_json_type(value)}")
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


def _array(value, name):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or a rectangular array of numbers") from None


def _arrays(obj, keys, what, at=""):
    """The numeric fields ``keys`` of the JSON object ``obj`` as float arrays."""
    return [_array(_field(obj, k, f"{what}{at}: "), f"{what} {k}{at}") for k in keys]


def _object(value, name, nullable=False):
    """``value`` if it is a JSON object, or null where ``nullable``; else a ValueError."""
    if isinstance(value, dict) or (nullable and value is None):
        return value
    expected = "an object or null" if nullable else "an object"
    raise ValueError(f"{name} must be {expected}, got {_json_type(value)}")


def _per_step(items, key, big_t, build):
    """``build(t, entry)`` for the entries of the JSON list ``items``, t = 1..T; the
    list's type and length are checked before anything is built."""
    if not isinstance(items, list) or len(items) != big_t:
        raise ValueError(f"{key} must be a list of {big_t} entries, one per step")
    return [build(t, item) for t, item in enumerate(items, start=1)]


def model_from_dict(data):
    """Parse a model from the JSON schema; see :func:`model_to_dict`.

    Raises ValueError, naming the field and the step, for a missing field, a
    value of the wrong JSON type or a per-step list without ``horizon``
    entries. A single transition or sensor object is built once and shared
    by every step, and the records' time indices are their positions.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a model must be a JSON object, got {_json_type(data)}")
    n = _integer(data, "state_dim")
    big_t = _integer(data, "horizon")

    def transition(t, tr):
        at = f" at t={t}"
        tr = _object(tr, "transitions entry" + at)
        phi, offset, q = _arrays(tr, ("phi", "offset", "noise_cov"), "transition", at)
        return Transition(phi, np.ravel(offset), q)

    def sensor(t, om):
        at = f" at t={t}"
        if _object(om, "observation_models entry" + at, nullable=True) is None:
            return None
        return ObservationModel(*_arrays(om, ("c", "noise_cov"), "observation model", at))

    def value(t, y):  # the file format holds one sequence: every value is one vector
        return None if y is None else np.ravel(_array(y, f"observations at t={t}"))

    # the lists' lengths are all checked before a single object is shared over T steps
    values = repeat(None)
    if "observations" in data:
        values = _per_step(data["observations"], "observations", big_t, value)
    if "observation_models" in data:
        sensors = _per_step(data["observation_models"], "observation_models", big_t, sensor)
    else:
        sensors = repeat(sensor(1, data.get("observation_model")))
    raw = _field(data, "transitions")
    if isinstance(raw, dict):
        transitions = [transition(1, raw)] * big_t
    elif isinstance(raw, list):
        transitions = _per_step(raw, "transitions", big_t, transition)
    else:
        raise ValueError(
            f"transitions must be an object or a list of objects, got {_json_type(raw)}"
        )
    steps = zip(range(1, big_t + 1), sensors, values)
    records = [ObservationRecord(t, obs, y) for t, obs, y in steps]

    init = _object(_field(data, "initial"), "initial")
    kind = _field(init, "kind", "initial: ")
    cls = next((cls for cls, name in _INITIAL_KINDS.items() if name == kind), None)
    if cls is None:
        raise ValueError(f"unknown initial distribution kind {kind!r}")
    if cls is not Proper:
        return GaussMarkovModel(n, big_t, transitions, records, cls())
    mean, cov = _arrays(init, ("mean", "cov"), "initial")  # a mean is one vector, as offsets are
    return GaussMarkovModel(n, big_t, transitions, records, Proper(np.ravel(mean), cov))


def load_model(path):
    with open(path) as fh:
        data = json.load(fh)
    return model_from_dict(data)


def save_model(model, path):
    data = model_to_dict(model)  # raises before the file is opened
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
