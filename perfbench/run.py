"""closedmtp benchmark: time to a closed-test decision, with every output checked.

    python3 perfbench/run.py --workload {gatekeeping,full-corr,fwer-sim} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each run starts fresh Python processes
(``worker.py``) with the BLAS thread count pinned to 1, takes set-up time
as the median over ``SETUP_SAMPLES`` of them, runs the workload's passes
in the last one and checks every output against frozen oracle values
(``reference/``, made by ``make_reference.py``).

Human-readable lines come first, including every stage metric of the
workload and the accuracy figures; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones in BENCHMARK.json: set-up wall time,
the CPU time of one pass (``compute_cpu_s``; wall times are printed too,
but steal time on a shared virtual machine adds to wall time only, so
wall times spread more) and peak memory. With ``--trace 1``
the per-layer ones from one traced pass, whose spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gatekeeping", "full-corr", "fwer-sim")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
# one BLAS thread: a second one burns a core for no wall-time gain here
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def worker(args, *extra: str) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name: str, value, unit: str) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return f"  {name:<40} n/a"
    return f"  {name:<40} {value:.6g} {unit}"


def stage_report(res: dict, setup_s: float | None) -> list[str]:
    """Every end-to-end figure the workload has, by name and unit."""
    st = res["stages"]
    sim_reps = None
    if "simulate" in st:
        sim_reps = res["replications"] / (st["simulate"] - st["thresholds"])
    chk = res["checks"]
    rows = [
        ("setup_s", setup_s, "s"),
        ("analyze_s", st.get("analyze"), "s"),
        ("shortcut_s", st.get("shortcut"), "s"),
        ("single_step_s", st.get("single_step"), "s"),
        ("thresholds_s", st.get("thresholds"), "s"),
        ("sim_reps_per_s", sim_reps, "1/s"),
        ("consonance_s", st.get("consonance"), "s"),
        ("compute_s", res["compute_s"], "s"),
        ("compute_cpu_s", res["compute_cpu_s"], "s"),
        ("total_s", res.get("total_s"), "s"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB"),
        ("pvalue_err_rms", chk["pvalue_err_rms"], f"(over {chk['pvalues_checked']} p-values)"),
        ("scale_err_rms", chk["scale_err_rms"], f"(over {chk['scales_checked']} scales)"),
        ("failed_frac", chk["failed"] / chk["attempted"], f"(of {chk['attempted']} operations)"),
    ]
    return [_line(*row) for row in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="closedmtp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-check size with online references")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "closedmtp", HERE / "reference") if not p.is_dir()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a closedmtp checkout",
              file=sys.stderr)
        return 2
    extra = ["--tiny"] if args.tiny else []
    try:
        setups = []
        if not args.trace:
            setups = [worker(args, "--setup-only", *extra)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = worker(args, *extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    setup_s = statistics.median(setups)

    env = res["environment"]
    print(f"closedmtp benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  blas threads {env['blas_threads']}")
    print(f"  passes {len(res['passes'])}  setup samples {[round(s, 4) for s in setups]}")
    print("\n".join(stage_report(res, None if args.trace else setup_s)))
    for reason in res["checks"]["reasons"]:
        print(f"  FAILED {reason}")

    if args.trace:
        print(f"  spans written to {res['trace_file']}")
        for name, seconds in res["layer_seconds"].items():
            print(_line(name, seconds, "s"))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layer"].items()}
        for name, m in metrics.items():
            print(_line(name, m["value"], m["unit"]))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "compute_cpu_s": {"value": res["compute_cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    chk = res["checks"]
    print(json.dumps({
        "correct": chk["failed"] == 0,
        "attempted": chk["attempted"],
        "failed": chk["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
