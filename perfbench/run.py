"""Benchmark of t3mcg: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-n32 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload, untraced and traced, at the smallest sizes
that pass their exactness gates, in well under a minute.  See perfbench/README.md.
"""

import os

# Pin native thread pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_S have passed,
# so that the short set-ups (imports only) get a median of many.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SMOKE_SECONDS = 1


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def measure(wl, seconds: float, tracer=None):
    """Closed loop: start the next op until ``seconds`` of op time and the
    workload's minimum op count are both reached.  Returns each op's
    ``(start, end)`` clock readings and one problem per failed op; checks run
    outside the timed span and the trace."""
    spans, failures = [], []
    wl.begin()
    gc.collect()
    i = elapsed = 0
    while i < wl.min_ops or elapsed < seconds:
        x = wl.op_input(i)
        if tracer is not None:
            tracer.op = len(tracer.op_times)
        start = speed.clock()
        try:
            out = wl.run(x)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            error = f"op {i} raised {type(exc).__name__}: {exc}"
        end = speed.clock()
        spans.append((start, end))
        elapsed += end - start
        if tracer is not None:
            tracer.op = None
            tracer.op_times.append(end - start)
        if error is None:
            try:
                error = wl.check(i, x, out)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
                error = f"op {i} check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
        out = None
        if wl.collect_between_ops:
            gc.collect()
        i += 1
    return spans, failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    env_start = environment()
    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.smoke, args.seed, workdir, reference)
        with speed.SpeedProbe() as probe:
            setup_spans = []
            while len(setup_spans) < SETUP_REPS or \
                    sum(end - start for start, end in setup_spans) < SETUP_MIN_S:
                start = speed.clock()
                wl.setup()
                setup_spans.append((start, speed.clock()))
            op_spans, failures = measure(wl, args.seconds)
        setup_raw, setup_times = probe.scale(setup_spans)
        raw, times = probe.scale(op_spans)
        problems = failures + wl.finish()
        attempted, failed = len(times), len(failures)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            traced_spans, traced_failures = measure(wl, args.seconds, tracer)
            attempted += len(traced_spans)
            failed += len(traced_failures)
            problems += traced_failures + wl.finish() + tracer.coverage_problems(wl.key)
    env = dict(env_start, loadavg_end=os.getloadavg(), host_speed=probe.summary())

    if args.trace:
        values = tracer.layer_metrics(statistics.median(raw), failed, attempted)
        units = dict(tracing.PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p99_ms": percentile(times, 0.99) * 1e3,
            "ops_per_s": (len(times) - failed) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "ops_per_s": "1/s",
                 "peak_rss_mb": "MB"}
    declared = declared_metrics(args.trace)
    if declared != units:
        problems.append(f"metrics {sorted(units.items())} differ from BENCHMARK.json")

    record = {
        "workload": args.workload, "key": wl.key, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env, "setup_s": setup_times,
        "setup_s_unscaled": setup_raw, "op_s": times, "op_s_unscaled": raw,
        "digests": wl.digests, "problems": problems, "metrics": values,
    }
    if tracer is not None:
        record["counts"] = dict(tracer.counts)
        record["traced_op_s"] = tracer.op_times
        record["spans"] = tracer.spans
    name = f"{wl.key}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not problems else 1


def run_smoke() -> int:
    """Every workload at reduced size, its untraced and traced runs side by
    side, each in a fresh process."""
    ok = True
    for workload in workloads.WORKLOADS:
        start = time.perf_counter()
        procs = [
            (trace, subprocess.Popen(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", "0",
                 "--seconds", str(SMOKE_SECONDS), "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for trace in (0, 1)
        ]
        for trace, proc in procs:
            try:
                stdout, stderr = proc.communicate(timeout=170)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
            lines = stdout.strip().splitlines()
            passed = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            ok &= passed
            print(f"{workload:14s} trace={trace} {'ok' if passed else 'FAILED'} "
                  f"{time.perf_counter() - start:6.1f} s")
            if not passed:
                print(stderr, file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes that pass the exactness gates")
    args = parser.parse_args()
    if not (SRC / "t3mcg" / "__init__.py").is_file():
        print(f"error: no t3mcg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        return run_smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
