"""Replications per second and tracemalloc peak of ``simulate``'s replication loop.

    PYTHONPATH=src python3 tools/bench_simulate.py 10 12 13 14 15 16 18

Run from the repository root; point PYTHONPATH at another checkout's
``src`` to measure that one with the same script. Per m the scenario is
a seeded random graph under bonferroni with one correlated pair in the
generator, a zero-weight hypothesis and every other hypothesis a true
null, over eight chunks plus a short one. The cutoffs are solved once
beforehand and handed to ``simulate``, so the figures cover the
replications alone. CPU time is the median of three calls; the peak is
tracemalloc's over a fourth. BLAS is pinned to one thread. Prints one
JSON object per m, then one with all of them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from closedmtp import (  # noqa: E402
    CorrelationMatrix,
    CorrelationModel,
    GraphSpec,
    SimScenario,
    scheme_from_graph,
    simulation,
)


def scenario(m: int, replications: int) -> SimScenario:
    rng = np.random.default_rng(2024 + m)
    w = rng.dirichlet(np.ones(m))
    w[3] = 0.0
    g = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(g, 0.0)
    g /= g.sum(axis=1, keepdims=True)
    corr = np.eye(m)
    corr[0, 1] = corr[1, 0] = 0.5
    return SimScenario(
        scheme=scheme_from_graph(GraphSpec(m, w / w.sum(), g)),
        model=CorrelationModel.independent_blocks(m),
        generator=CorrelationMatrix(corr),
        alpha=0.05,
        method="bonferroni",
        true_nulls=[j % 2 == 0 for j in range(m)],
        mean_shifts=[0.0 if j % 2 == 0 else 2.0 for j in range(m)],
        replications=replications,
        master_seed=11,
    )


def measure(m: int) -> dict:
    n = 8 * simulation._chunk_size(m) + 1000
    scen = scenario(m, n)
    solve = simulation.decision_thresholds
    cutoffs = solve(scen.scheme, scen.model, scen.alpha, scen.method, scen.master_seed)
    simulation.decision_thresholds = lambda *args: cutoffs
    try:
        cpu = []
        for _ in range(3):
            start = time.process_time()
            report = simulation.simulate(scen)
            cpu.append(time.process_time() - start)
        tracemalloc.start()
        try:
            simulation.simulate(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        simulation.decision_thresholds = solve
    digest = hashlib.sha1(report.rejection_rates.tobytes()).hexdigest()[:12]
    return {
        "m": m,
        "replications": n,
        "cpu_s": round(statistics.median(cpu), 4),
        "reps_per_s": round(n / statistics.median(cpu)),
        "tracemalloc_peak_mb": round(peak / 1e6, 1),
        "fwer": report.fwer_estimate,
        "rejection_rates_sha1": digest,
    }


if __name__ == "__main__":
    results = []
    for arg in sys.argv[1:]:
        results.append(measure(int(arg)))
        print(json.dumps(results[-1]), flush=True)
    print(json.dumps(results))
