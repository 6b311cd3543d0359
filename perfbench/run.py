"""gmsmooth benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload track-long --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``. Load comes from this one process
with one closed-loop caller: each op starts when the previous one has ended
and its output has been checked. BLAS/OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics. Set-up (import gmsmooth,
generate the inputs, one warm-up op left out of the op metrics) is timed in
this process and in two fresh child processes, and ``setup_s`` is their
median. ``--trace 1``
alternates untraced and traced ops and reports per-layer metrics from the
spans (``tracer.py``); the spans go to ``.perfbench/trace-<workload>.csv.gz``
and every layer metric, with the ones that recorded no call marked missing,
to ``.perfbench/layers-<workload>.json``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

# Pin BLAS/OpenMP before numpy is first imported (in set-up); child
# processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("track-long", "mc-replications", "varying-file")
SETUP_SAMPLES = 3  # this process plus two fresh children

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "agree_digits": "digits",
    "ok_frac": "ratio",
}

# Per-layer metrics in the JSON result: those whose layer runs on every
# workload. The rest are in the printed report and the layers file.
PER_LAYER_UNITS = {
    "backward.predict_backward.us_per_call": "us",
    "backward.predict_backward.calls_per_op": "count",
    "backward.fuse_observation.us_per_call": "us",
    "backward.fuse_observation.compress_frac": "ratio",
    "backward.terminal_init.us_per_call": "us",
    "backward.self_ms": "ms",
    "backward.computed_gflops": "GFLOP/s",
    "forward.fuse_initial.us_per_call": "us",
    "forward.propagate_marginals.us_per_step": "us",
    "sqrt.sqrt_backward_pass.failed_frac": "ratio",
    "linalg.qr_upper.us_per_call": "us",
    "linalg.qr_upper.calls_per_step": "count",
    "linalg.solve_triangular.us_per_call": "us",
    "linalg.solve_triangular.calls_per_step": "count",
    "linalg.chol_lower.us_per_call": "us",
    "linalg.chol_lower.calls_per_step": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

WORKLOAD_LAYER_UNITS = {
    "backward.likelihood_moments.us_per_call": "us",
    "baselines.stacked_mle.us_per_call": "us",
    "sqrt.array_predict_backward.us_per_call": "us",
    "model.load_model.ms": "ms",
    "model.validate.ms": "ms",
    "model.simulate.ms": "ms",
    "baselines.kalman_filter.us_per_step": "us",
    "baselines.rts_smoother.us_per_step": "us",
    "linalg.pseudo_inverse.us_per_call": "us",
    "linalg.pseudo_inverse.calls_per_step": "count",
    "cli.self_ms": "ms",
    "cli.first_op_ms": "ms",
    "cli.csv_numpy_repr_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    # Internal: set up in the given work directory, print setup_s, exit.
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment():
    """Interpreter, library and machine facts printed with every result."""
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def set_up(args, workdir):
    """Import gmsmooth, build the inputs, run the warm-up op; all timed."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.toy)
    inp = workload.inputs(0)
    op_start = time.perf_counter()
    out = workload.op(inp)
    end = time.perf_counter()
    return workload, inp, out, end - start, (end - op_start) * 1e3


def probe_setup_s(args, workdir):
    """Set-up time of a fresh process running this workload in ``workdir``."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe", str(workdir),
    ] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def checked(workload, inp, out, tracer, k):
    """Check one op's output; returns the relative difference or None if it failed."""
    import workloads

    try:
        with tracer.active(k, "ref") if tracer else contextlib.nullcontext():
            return workload.check(inp, out)
    except workloads.CheckFailed as exc:
        print(f"op {k}: check failed: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - a crashing check counts as a failed op
        traceback.print_exc()
    return None


def measure(workload, tracer, seconds):
    """Closed loop of checked ops until ``seconds`` have passed.

    With a tracer, even-numbered ops are traced (and followed by the sqrt
    probe) and odd ones are not, so the overhead of tracing is measured in
    the same run. Returns (untraced op ns, traced op ns, relative
    differences, ops attempted, ops failed).
    """
    op_ns, traced_ns, rels = [], [], []
    attempted = failed = 0
    min_ops = 4 if tracer else 3
    deadline = time.perf_counter() + seconds
    k = 1
    while k <= min_ops or time.perf_counter() < deadline:
        inp = workload.inputs(k)
        traced = tracer is not None and k % 2 == 0
        # Start every op from a collected heap: otherwise a full collection
        # of the previous op's garbage lands in a random op (+20-30%).
        out = None
        gc.collect()
        attempted += 1
        try:
            with tracer.active(k) if traced else contextlib.nullcontext():
                start = time.perf_counter_ns()
                out = workload.op(inp)
                end = time.perf_counter_ns()
        except Exception:  # noqa: BLE001 - a raising op counts as failed
            traceback.print_exc()
            failed += 1
            k += 1
            continue
        (traced_ns if traced else op_ns).append(end - start)
        rel = checked(workload, inp, out, tracer if traced else None, k)
        if rel is None:
            failed += 1
        else:
            rels.append(rel)
        if traced:
            with tracer.active(k, "probe"):
                workload.probe(inp)
        k += 1
    return op_ns, traced_ns, rels, attempted, failed


def report_layers(args, workload, tracer, op_ms_p50, traced_ns, first_op_ms, env):
    """Print every per-layer metric, write spans and metrics; return the JSON ones."""
    metrics = tracing.layer_metrics(
        tracer.spans, traced_ns, workload.steps_per_op, op_ms_p50, first_op_ms,
        workload.op_is_cli,
    )
    cells = workload.csv_cells
    metrics["cli.csv_numpy_repr_frac"] = cells[0] / cells[1] if cells and cells[1] else None
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}.csv.gz")
    (OUT / f"layers-{args.workload}.json").write_text(
        json.dumps({"env": env, "seed": args.seed, "metrics": metrics}, indent=2) + "\n"
    )
    for name, unit in {**PER_LAYER_UNITS, **WORKLOAD_LAYER_UNITS}.items():
        value = metrics[name]
        shown = "missing (no call recorded)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<42} {shown}")
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
        if metrics[name] is not None
    }


def run(args, workdir):
    workload, inp, out, own_setup_s, first_op_ms = set_up(args, workdir)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    setups = [own_setup_s]
    if not args.trace:
        setups += [probe_setup_s(args, workdir / f"probe{i}") for i in range(1, SETUP_SAMPLES)]
    warm_rel = checked(workload, inp, out, None, 0)
    tracer = tracing.Tracer() if args.trace else None
    op_ns, traced_ns, rels, attempted, failed = measure(workload, tracer, args.seconds)
    # The warm-up op is checked and counted like any other.
    attempted += 1
    if warm_rel is None:
        failed += 1
    else:
        rels.append(warm_rel)

    if not op_ns:
        print("error: no op completed", file=sys.stderr)
        return 1
    env = environment()
    print("env: " + json.dumps(env))
    op_ms_p50 = statistics.median(op_ns) / 1e6
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} ops attempted "
        f"(1 warm-up, {len(op_ns)} timed untraced, {len(traced_ns)} traced), "
        f"{failed} failed, failed_frac {failed / attempted:.3g}"
    )
    if args.trace:
        reported = report_layers(args, workload, tracer, op_ms_p50, traced_ns, first_op_ms, env)
    else:
        digits = [-math.log10(max(rel, 1e-17)) for rel in rels]
        values = {
            "steps_per_s": workload.steps_per_op * len(op_ns) / (sum(op_ns) / 1e9),
            "op_ms_p50": op_ms_p50,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "agree_digits": statistics.median(digits) if digits else 0.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        print(
            f"  op_ms_p50 is the median of {len(op_ns)} ops, agree_digits of {len(digits)} "
            f"checks (worst {min(digits, default=0.0):.3g}), setup_s of {len(setups)} set-ups"
        )
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<42} {values[name]:.6g} {unit}")
        reported = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind so the work directory and any child are cleaned up.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "gmsmooth" / "__init__.py").is_file():
        print(f"error: gmsmooth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A probe's directory lies inside its parent's, which removes it.
    workdir = Path(args.setup_probe or OUT / f"work-{args.workload}-{os.getpid()}")
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
