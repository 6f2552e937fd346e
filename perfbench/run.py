"""sepkit benchmark: one caller in a closed loop over one workload.

    python3 perfbench/run.py --workload fddem_infer --seed 1 --seconds 20 \
        --trace 0

Run from the root of a sepkit checkout; sepkit is imported from its `src/`.
After set-up the caller issues one request, waits for it, checks its outputs
against `reference.json`, and repeats until `--seconds` have passed.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The line before it holds the run's
details and metadata.  With `--trace 1` every other request is traced, so
the run also gives the tracing overhead, and the spans are written to
`.bench_work/traces/`.  `--fault modulate-sign` turns on sepkit's test-only
sign defect to show that the fddem_infer check catches it.

Exit codes: 0 all outputs correct, 1 a request failed or its output check
did, 2 the benchmark could not run (sepkit missing, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# Pinned before numpy loads: published numbers use one thread.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("modulate-sign",), default=None)
    return parser.parse_args(argv)


def _import_sepkit():
    """Import numpy, sepkit (from this checkout only) and the workloads."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy
    import sepkit
    if os.path.dirname(os.path.abspath(sepkit.__file__)) != \
            os.path.join(SRC, "sepkit"):
        raise ImportError(f"sepkit imported from {sepkit.__file__}, "
                          f"not from {SRC}")
    import tracing
    import workloads
    return numpy, workloads, tracing


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metadata(numpy, seed):
    import scipy
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        numpy, workloads, tracing = _import_sepkit()
    except ImportError as exc:
        print(f"run.py: cannot import sepkit from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    if args.fault == "modulate-sign":
        from sepkit import spectral
        spectral.FAULT_MODULATE_SIGN = True

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        # set-up: parameter build, input generation, warm-up; repeated so
        # setup_s is a median, each time into a fresh directory
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            if tracer:
                tracer.install()
            start = time.perf_counter()
            work = workloads.WORKLOADS[args.workload](workdir)
            work.warmup()
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
        result = _measure(args, numpy, work, reference, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = import_s + statistics.median(setup_times)

    latencies = result["latencies"]
    attempted, failed = result["attempted"], result["failed"]
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "fault": args.fault,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "samples": len(latencies),
        "latency_p90_ms": None,
        "worst_check_deviation": result["worst"],
        "first_error": result["first_error"],
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "meta": _metadata(numpy, args.seed),
    }
    # a percentile is reported only with at least 10 samples beyond it
    if len(latencies) >= 100:
        details["latency_p90_ms"] = statistics.quantiles(
            latencies, n=10, method="inclusive")[-1] * 1e3

    correct = failed == 0 and bool(latencies)
    if args.trace:
        values, extra = _layer_metrics(args, tracing, tracer, result)
        details.update(extra)
    else:
        busy = sum(latencies)
        values = {
            "throughput_rps": len(latencies) / busy if busy else 0.0,
            "latency_p50_ms": (statistics.median(latencies) * 1e3
                               if latencies else 0.0),
            "setup_s": setup_s,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def _measure(args, numpy, work, reference, tracer):
    """Closed loop for --seconds; returns latencies and failure counts."""
    order = numpy.random.default_rng(args.seed).permutation(work.pool)
    latencies, untraced, traced = [], [], []
    attempted = failed = 0
    worst = 0.0
    first_error = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        entry = int(order[i % work.pool])
        trace_this = tracer is not None and i % 2 == 0
        if trace_this:
            tracer.install()
        attempted += 1
        start = time.perf_counter()
        try:
            if trace_this:
                out = tracer.request(i, work.request, entry)
            else:
                out = work.request(entry)
            elapsed = time.perf_counter() - start
            errors, dev = work.check(out, reference[entry])
        except Exception as exc:  # a failed request is counted, not fatal
            elapsed = time.perf_counter() - start
            errors, dev = [f"{type(exc).__name__}: {exc}"], 0.0
        finally:
            if trace_this:
                tracer.uninstall()
        worst = max(worst, dev)
        if errors:
            failed += 1
            if first_error is None:
                first_error = f"request {i} (entry {entry}): {errors[0]}"
                print(f"run.py: {first_error}", file=sys.stderr)
        else:
            latencies.append(elapsed)
            (traced if trace_this else untraced).append(elapsed)
        i += 1
        if time.perf_counter() >= deadline:
            break
    return {"latencies": latencies, "untraced": untraced, "traced": traced,
            "attempted": attempted, "failed": failed, "worst": worst,
            "first_error": first_error}


def _layer_metrics(args, tracing, tracer, result):
    metrics, counts = tracing.summarize(tracer.spans)
    untraced, traced = result["untraced"], result["traced"]
    overhead = 0.0
    if untraced and traced:
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    - 1.0) * 100.0
    metrics["trace.overhead_pct"] = overhead
    repeat = all(c == counts[0] for c in counts)
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    path = os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")
    tracer.write(path)
    shares = {}
    if metrics["request.ms"] > 0:
        for layer in ("spectral.dft2", "tensor.depthwise", "tensor.bilinear",
                      "tensor.conv2d", "tensor.pointwise", "io.read",
                      "io.write"):
            shares[layer] = metrics[f"{layer}.ms"] / metrics["request.ms"]
        shares["request.self"] = (metrics["request.self_ms"]
                                  / metrics["request.ms"])
    extra = {"traced_requests": len(counts), "counts_repeat": repeat,
             "counts": counts[0] if counts else {},
             "layer_share": shares, "spans": len(tracer.spans),
             "trace_file": os.path.relpath(path, ROOT)}
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
