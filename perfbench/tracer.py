"""Span tracing of gmsmooth's public functions, from outside the package.

While a :class:`Tracer` is active, every public module-level function of
every ``gmsmooth.<module>`` is replaced, in every gmsmooth namespace that
holds it (and in function defaults such as ``backward_pass``'s ``predict``),
by a wrapper that records one span per call: name, start, end, the span
that caused it, the op it belongs to, and whether it returned. Spans stay in
memory; :func:`layer_metrics` turns them into per-layer numbers and
:meth:`Tracer.write` dumps them when the benchmark ends. Nothing under
``src/`` is edited: the patches are undone when the tracer is deactivated,
so untraced ops run the original functions with no wrapper cost.
"""

import csv
import functools
import gzip
import inspect
import statistics
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent op context ok work")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _predict_work(args, kwargs):
    lik = _arg(args, kwargs, 0, "lik")
    return (lik.m_bar, lik.state_dim)


def _fuse_work(args, kwargs):
    prev, obs = _arg(args, kwargs, 0, "lik_prev"), _arg(args, kwargs, 1, "obs_lik")
    return (prev.m_bar, obs.m_bar, prev.state_dim)


# Per-call work recorded with the span, computed from the arguments.
WORK = {
    "backward.predict_backward": _predict_work,
    "sqrt.array_predict_backward": _predict_work,
    "backward.fuse_observation": _fuse_work,
    "forward.propagate_marginals": lambda a, k: len(_arg(a, k, 1, "transitions")),
    "baselines.kalman_filter": lambda a, k: _arg(a, k, 0, "model").horizon,
    "baselines.rts_smoother": lambda a, k: _arg(a, k, 1, "model").horizon,
}


PACKAGE = "gmsmooth"


def public_functions():
    """Map each public function object of gmsmooth's modules to its span name."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith(PACKAGE + "."):
            continue
        short = mod_name[len(PACKAGE) + 1 :]
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod_name
                and not attr.startswith("_")
            ):
                found[value] = f"{short}.{attr}"
    return found


class Tracer:
    """Records spans of gmsmooth calls while active."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._context = None

    def _wrap(self, fn, name):
        work_of = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = work_of(args, kwargs) if work_of is not None else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._op, self._context, ok, work)

        return traced

    @contextmanager
    def active(self, op, context="op"):
        """Trace every gmsmooth call made inside the block as part of ``op``."""
        originals = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    undo.append((mod, attr, value))
        for fn in originals:
            if fn.__defaults__ and any(
                inspect.isfunction(d) and d in wrappers for d in fn.__defaults__
            ):
                old = fn.__defaults__
                fn.__defaults__ = tuple(
                    wrappers.get(d, d) if inspect.isfunction(d) else d for d in old
                )
                undo.append((fn, "__defaults__", old))
        self._op, self._context = op, context
        try:
            yield self
        finally:
            self._op = self._context = None
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)

    def write(self, path):
        """Write every span as one gzip-compressed CSV row."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "op", "context", "ok"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, s.start, s.end, s.parent, s.op, s.context, int(s.ok)])


def _predict_flops(m, n):
    """Dense flop count of one predict step with m likelihood rows, state dim n."""
    if m == 0:
        return 0.0
    return (
        2 * m * n * n  # C Q
        + 2 * m * m * n  # C Q C'
        + m**3 / 3  # Cholesky of the innovation covariance
        + 2 * m * n + m * m  # residual and its whitening
        + 2 * m * n * n + m * m * n  # C Phi and its whitening
        + 2 * m * m * n  # gain, two triangular solves
        + 2 * n * n * m + 2 * n**3  # (I - G C) Phi
        + 2 * n * m  # offset update
        + 2 * n * m * m + 2 * n * n * m  # G R G'
        + 9 * n**3  # symmetric eigendecomposition in the PSD clamp
    )


def _fuse_flops(m_prev, m_obs, n):
    """Dense flop count of one fusion; only QR-compressing fusions do arithmetic."""
    r = m_prev + m_obs
    if m_prev == 0 or m_obs == 0 or r <= n:
        return 0.0
    householder = 2 * r * n * n - 2 * n**3 / 3
    form_q = 4 * (r * r * n - r * n * n + n**3 / 3)
    return householder + form_q + 2 * r * r


def _is_compressing(work):
    m_prev, m_obs, n = work
    return m_prev > 0 and m_obs > 0 and m_prev + m_obs > n


def layer_metrics(spans, traced_op_ns, steps_per_op, op_ms_p50, first_op_ms, op_is_cli):
    """Per-layer metrics from the spans of one traced run.

    ``traced_op_ns`` holds the wall time of each traced op and ``op_ms_p50``
    the median of the untraced ops run alongside them. Each layer is
    measured on the spans recorded inside timed ops, except the ``sqrt``
    probe (its own context) and the Kalman/RTS reference cost line (every
    context). A layer with no recorded call is ``None`` (missing), never 0.
    """
    ops = len(traced_op_ns)
    child_ns = {}
    by_name = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end - s.start)
        by_name.setdefault(s.name, []).append(i)

    def select(name, contexts=("op",)):
        return [spans[i] for i in by_name.get(name, ()) if spans[i].context in contexts and spans[i].ok]

    def us_per_call(name, contexts=("op",)):
        sel = select(name, contexts)
        return sum(s.end - s.start for s in sel) / len(sel) / 1e3 if sel else None

    def us_per_step(name, contexts=("op",)):
        sel = select(name, contexts)
        steps = sum(s.work for s in sel)
        return sum(s.end - s.start for s in sel) / steps / 1e3 if steps else None

    def calls_per(name, denominator):
        sel = select(name)
        return len(sel) / denominator if sel else None

    def self_ms_per_op(prefix):
        idx = [
            i for name, ids in by_name.items() if name.startswith(prefix) for i in ids
            if spans[i].context == "op" and spans[i].ok
        ]
        if not idx:
            return None
        total = sum(spans[i].end - spans[i].start - child_ns.get(i, 0) for i in idx)
        return total / ops / 1e6

    m = {}
    for name in (
        "backward.predict_backward",
        "backward.fuse_observation",
        "backward.terminal_init",
        "backward.likelihood_moments",
        "baselines.stacked_mle",
        "forward.fuse_initial",
    ):
        m[f"{name}.us_per_call"] = us_per_call(name)
    m["backward.predict_backward.calls_per_op"] = calls_per("backward.predict_backward", ops)
    predict = select("backward.predict_backward")
    fuse = select("backward.fuse_observation")
    m["backward.fuse_observation.compress_frac"] = (
        sum(_is_compressing(s.work) for s in fuse) / len(fuse) if fuse else None
    )
    m["backward.self_ms"] = self_ms_per_op("backward.backward_pass")
    busy_ns = sum(s.end - s.start for s in predict + fuse)
    flops = sum(_predict_flops(*s.work) for s in predict) + sum(_fuse_flops(*s.work) for s in fuse)
    m["backward.computed_gflops"] = flops / busy_ns if busy_ns else None
    m["sqrt.array_predict_backward.us_per_call"] = us_per_call(
        "sqrt.array_predict_backward", ("probe",)
    )
    probe = [spans[i] for i in by_name.get("sqrt.sqrt_backward_pass", ()) if spans[i].context == "probe"]
    m["sqrt.sqrt_backward_pass.failed_frac"] = (
        sum(not s.ok for s in probe) / len(probe) if probe else None
    )
    m["forward.propagate_marginals.us_per_step"] = us_per_step("forward.propagate_marginals")
    for name in ("model.load_model", "model.validate", "model.simulate"):
        v = us_per_call(name)
        m[f"{name}.ms"] = None if v is None else v / 1e3
    everywhere = ("op", "ref", "probe")
    m["baselines.kalman_filter.us_per_step"] = us_per_step("baselines.kalman_filter", everywhere)
    m["baselines.rts_smoother.us_per_step"] = us_per_step("baselines.rts_smoother", everywhere)
    for fn in ("qr_upper", "solve_triangular", "chol_lower", "pseudo_inverse"):
        name = f"linalg.{fn}"
        m[f"{name}.us_per_call"] = us_per_call(name)
        m[f"{name}.calls_per_step"] = calls_per(name, ops * steps_per_op)
    m["cli.self_ms"] = self_ms_per_op("cli.")
    m["cli.first_op_ms"] = first_op_ms if op_is_cli else None
    m["trace.overhead_frac"] = statistics.median(traced_op_ns) / 1e6 / op_ms_p50 - 1.0
    root_ns = sum(s.end - s.start for s in spans if s.context == "op" and s.parent < 0)
    m["trace.unattributed_frac"] = 1.0 - root_ns / sum(traced_op_ns)
    return m
