"""One benchmark process: build a workload's inputs, run its passes, check them.

Started by ``run.py``; prints one JSON line of raw measurements. With
``--setup-only`` it stops once the inputs are built and validated, so that
``run.py`` can take set-up time from several fresh processes.
"""

from __future__ import annotations

import time

# taken before any other import: set-up time covers importing closedmtp
_IMPORT_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import closedmtp  # noqa: E402,F401
import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_passes(wl, seconds: float, checks) -> list[dict]:
    """Untraced passes until the next would end after ``seconds``; at least one.

    Each pass records its stages' wall times and, as ``cpu``, the CPU time
    of the whole pass. CPU time excludes the time the host gives this
    process's core to others, which on a shared 2-vCPU virtual machine
    made wall time spread by 10-15% from run to run.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        tracer = spans.Tracer()
        with tracer.install(spans.STAGE_TARGETS):
            t0, c0 = time.perf_counter(), time.process_time()
            out = wl.run_pass(tracer)
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        passes.append(dict(workloads.stage_times(wl, tracer.spans), cpu=cpu, wall=wall))
        wl.check(out, tracer.spans, checks)
        if time.perf_counter() - begin + wall > seconds:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=_IMPORT_START)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    wl.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    wl.load_reference()
    checks = workloads.Checks()
    if args.trace:
        # one untraced pass as the baseline, then the same pass traced
        passes = run_passes(wl, 0.0, checks)
        tracer = spans.Tracer()
        with tracer.install(spans.LAYER_TARGETS) as patched:
            t0 = time.perf_counter()
            with tracer.span("stage.setup"):
                wl.setup(args.seed)
            c0 = time.process_time()
            out = wl.run_pass(tracer)
            traced_cpu = time.process_time() - c0
            window_s = time.perf_counter() - t0
        wl.check(out, tracer.spans, checks)
        layer = spans.layer_metrics(tracer.spans)
        metrics = spans.as_shares(layer, window_s)
        metrics["trace.window_s"] = (window_s, "s")
        # CPU time of the same pass traced and untraced
        metrics["trace.overhead_s"] = (traced_cpu - passes[0]["cpu"], "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(
            trace_path,
            {
                "workload": args.workload,
                "seed": args.seed,
                "environment": environment(),
                "bindings": sorted(f"{mod.__name__}.{key}" for mod, key, _ in patched),
                "window_s": window_s,
            },
        )
        result["layer"] = metrics
        result["layer_seconds"] = {k: v for k, (v, u) in layer.items() if u == "s"}
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        passes = run_passes(wl, args.seconds, checks)
        result["total_s"] = setup_s + passes[0]["wall"]

    result["passes"] = passes
    result["stages"] = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    result["compute_s"] = statistics.median(sum(v for k, v in p.items() if k in wl.stages) for p in passes)
    result["compute_cpu_s"] = statistics.median(p["cpu"] for p in passes)
    if isinstance(wl, workloads.FwerSim):
        result["replications"] = wl.scenario.replications
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "reasons": checks.reasons,
        "pvalue_err_rms": workloads.rms(checks.pvalue_err),
        "scale_err_rms": workloads.rms(checks.scale_err),
        "pvalues_checked": len(checks.pvalue_err),
        "scales_checked": len(checks.scale_err),
    }
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
