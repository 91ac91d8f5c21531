"""Time ``simulate``'s two halves: the replication loop, or with
``--thresholds`` the threshold table it solves first.

    PYTHONPATH=src python3 tools/bench_simulate.py 10 12 13 14 15 16 18
    PYTHONPATH=src python3 tools/bench_simulate.py --thresholds 10 12
    PYTHONPATH=src python3 tools/bench_simulate.py --schemes 12 14 16

Run from the repository root; point PYTHONPATH at another checkout's
``src`` to measure that one with the same script. BLAS is pinned to one
thread. Prints one JSON object per m, then one with all of them.

Replication loop: per m the scenario is a seeded random graph under
bonferroni with one correlated pair in the generator, a zero-weight
hypothesis and every other hypothesis a true null, over eight chunks
plus a short one. The cutoffs are solved once beforehand and handed to
``simulate``, so the figures cover the replications alone. CPU time is
the median of three calls; the peak is tracemalloc's over a fourth.
``tables_mb`` is the size of the largest tile's lookup tables (every
array ``_tile_tables`` returns for it) and ``tables_s`` the CPU time to
build every tile's tables from the same cutoffs, the median of three
passes: the part of ``cpu_s`` and of the peak that the tables take.
``decided_by_bounds`` is the share of replications whose every
hypothesis two exact bounds settle (p_i <= least_i > 0 rejects H_i;
p_i > t[O_i, i] or t[O_i, i] <= 0 retains it, O_i being i plus every j
above all its positive cutoffs), and ``ndtr_share`` the share of
(replication, hypothesis) entries within reach of a cutoff (p_j at most
top_j, j's largest positive cutoff), the only ones whose p-value needs
computing. Both are worked out here from the replayed p-values and the
same cutoffs, whichever checkout ``simulate`` comes from.

Thresholds: per m one ``decision_thresholds`` table shaped like the
fwer-sim benchmark's, parametric-common on a seeded random graph with
one known pair at rho = 0.5 and singletons. CPU time is the median of
three calls. A fourth call counts the rows solved one by one (calls of
``intersection._solve_scale``), the rows solved together in the array
pass (the problems handed to ``intersection._solve_scales``) and the
scalar root solves (``solve_monotone``) it makes; the table's sha1
prefix must match between checkouts.

Schemes: per m one seeded random graph with two zero initial weights.
CPU time, the median of three calls each, of ``scheme_from_graph``, of
``WeightingScheme`` built from the scheme's table copied into a dict,
of ``validate``, of ``check_consonance`` (m <= 12, under a model with
one known pair at rho = 0.5 and singletons) and of a bonferroni
``run_closure``; tracemalloc's peak over a fourth ``scheme_from_graph``.
Then the partitioned closures on the same scheme and p-values, under
that model: ``run_closure`` without scales for parametric-common and
parametric-subsets, the median CPU time of three calls each and
tracemalloc's peak over a fourth. The scheme's weights, the violations
and the adjusted p-values are hashed; their sha1 prefixes must match
between checkouts.
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
from scipy.special import ndtr  # noqa: E402

from closedmtp import (  # noqa: E402
    CorrelationMatrix,
    CorrelationModel,
    GraphSpec,
    SimScenario,
    TestProblem,
    WeightingScheme,
    check_consonance,
    closure,
    intersection,
    run_closure,
    scheme_from_graph,
    simulation,
    validate,
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


def bound_shares(scen: SimScenario, cutoffs: np.ndarray) -> tuple[float, float]:
    """Share of ``scen``'s replications in which every hypothesis is
    settled by its bounds under the cutoff table ``cutoffs``, and share
    of its p-values at most their hypothesis's largest positive cutoff."""
    m, n = scen.m, scen.replications
    chunk = simulation._chunk_size(m)
    lower = scen.generator.cholesky_lower()
    members = (np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
    top = np.where(cutoffs > 0.0, cutoffs, -1.0).max(axis=0)
    least = np.where(members, cutoffs, np.inf).min(axis=0)
    bits = 1 << np.arange(m)
    decided = within = 0
    for index, lo in enumerate(range(0, n, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scen.master_seed, spawn_key=(index,)))
        z = rng.standard_normal((min(chunk, n - lo), m)) @ lower.T + scen.mean_shifts
        p = ndtr(-z)
        cut = cutoffs[(((p > top) @ bits)[:, None] | bits) - 1, np.arange(m)]
        settled = (p > cut) | (cut <= 0.0) | ((p <= least) & (least > 0.0))
        decided += int(settled.all(axis=1).sum())
        within += int((p <= top).sum())
    return decided / n, within / (n * m)


def table_costs(m: int, cutoffs: np.ndarray) -> tuple[int, float]:
    """(bytes of the largest tile's tables, median CPU seconds to build
    every tile's tables) from ``simulate``'s cutoffs, read as it reads
    them: levels[j, mask], every cutoff that is not positive left out."""
    levels = np.full((m, 1 << m), -np.inf)
    levels[:, 1:] = cutoffs.T
    tile = simulation._TILE
    largest = 0
    cpu = []
    for _ in range(3):
        # one tile's tables held at a time, as in simulate
        spent = 0.0
        for lo in range(0, 1 << m, tile):
            start = time.process_time()
            tables = simulation._tile_tables(levels, lo, min(lo + tile, 1 << m))
            spent += time.process_time() - start
            largest = max(largest, sum(a.nbytes for t in tables for a in t[1:]))
            del tables
        cpu.append(spent)
    return largest, statistics.median(cpu)


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
    decided, within = bound_shares(scen, cutoffs)
    tables_bytes, tables_cpu = table_costs(m, cutoffs)
    return {
        "m": m,
        "replications": n,
        "cpu_s": round(statistics.median(cpu), 4),
        "reps_per_s": round(n / statistics.median(cpu)),
        "tracemalloc_peak_mb": round(peak / 1e6, 1),
        "tables_mb": round(tables_bytes / 1e6, 2),
        "tables_s": round(tables_cpu, 4),
        "decided_by_bounds": round(decided, 4),
        "ndtr_share": round(within, 4),
        "fwer": report.fwer_estimate,
        "rejection_rates_sha1": digest,
    }


def measure_thresholds(m: int) -> dict:
    rng = np.random.default_rng(3030 + m)
    g = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(g, 0.0)
    scheme = scheme_from_graph(
        GraphSpec(m, rng.dirichlet(np.ones(m)), g / g.sum(axis=1, keepdims=True))
    )
    a, b = sorted(int(j) for j in rng.choice(m, size=2, replace=False))
    pair = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    singles = tuple((j,) for j in range(m) if j not in (a, b))
    model = CorrelationModel(m, ((a, b),) + singles, (pair,) + (None,) * len(singles))

    def table():
        return closure.decision_thresholds(scheme, model, 0.025, "parametric-common", 11)

    cpu = []
    for _ in range(3):
        start = time.process_time()
        t = table()
        cpu.append(time.process_time() - start)
    counts = {"rows_alone": 0, "rows_batched": 0, "solves": 0}
    wrapped = [
        (intersection, "_solve_scale", "rows_alone"),
        (intersection, "_solve_scales", "rows_batched"),
        (intersection, "solve_monotone", "solves"),
    ]
    wrapped = [entry for entry in wrapped if hasattr(entry[0], entry[1])]
    originals = [getattr(module, name) for module, name, _ in wrapped]

    def counted(fn, key):
        def call(*args, **kwargs):
            # the array pass takes its problems' targets second
            counts[key] += len(args[1]) if key == "rows_batched" else 1
            return fn(*args, **kwargs)

        return call

    for (module, name, key), fn in zip(wrapped, originals):
        setattr(module, name, counted(fn, key))
    try:
        counted_table = table()
    finally:
        for (module, name, _), fn in zip(wrapped, originals):
            setattr(module, name, fn)
    if counted_table.tobytes() != t.tobytes():
        raise RuntimeError(f"m={m}: the counted call gave another table")
    return {
        "m": m,
        "pair": [a, b],
        "cpu_s": round(statistics.median(cpu), 4),
        **counts,
        "table_sha1": hashlib.sha1(t.tobytes()).hexdigest()[:12],
    }


def median_cpu(fn, calls: int = 3):
    """(median CPU seconds over ``calls`` calls, the last call's result)."""
    cpu = []
    for _ in range(calls):
        start = time.process_time()
        out = fn()
        cpu.append(time.process_time() - start)
    return round(statistics.median(cpu), 4), out


def measure_schemes(m: int) -> dict:
    rng = np.random.default_rng(5050 + m)
    w = rng.dirichlet(np.ones(m))
    w[[1, m - 2]] = 0.0
    g = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(g, 0.0)
    graph = GraphSpec(m, w / w.sum(), g / g.sum(axis=1, keepdims=True))
    out = {"m": m}
    out["scheme_from_graph_s"], scheme = median_cpu(lambda: scheme_from_graph(graph))
    tracemalloc.start()
    try:
        scheme_from_graph(graph)
        out["scheme_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 1)
    finally:
        tracemalloc.stop()
    table = dict(scheme.table)
    out["construct_s"] = median_cpu(lambda: WeightingScheme(m, table))[0]
    out["validate_s"], flags = median_cpu(lambda: validate(scheme))
    out["flags"] = flags
    pair = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    model = CorrelationModel(m, ((0, 1),) + tuple((j,) for j in range(2, m)), (pair,) + (None,) * (m - 2))
    if m <= closure.MAX_CONSONANCE_M:
        out["consonance_s"], report = median_cpu(lambda: check_consonance(scheme, model, 0.025))
        out["violations"] = len(report.violations)
        text = repr([(v.superset, v.subset, v.hypothesis, v.excess.hex()) for v in report.violations])
        out["violations_sha1"] = hashlib.sha1(text.encode()).hexdigest()[:12]
    p = rng.uniform(0.0, 0.05, size=m)
    problem = TestProblem(scheme, CorrelationModel.independent_blocks(m), p, 0.025, "bonferroni")
    out["bonferroni_closure_s"], report = median_cpu(lambda: run_closure(problem))
    weights = np.concatenate([scheme.weights_for(mask) for mask in range(1, 1 << m)])
    out["table_sha1"] = hashlib.sha1(weights.tobytes()).hexdigest()[:12]
    out["adjusted_sha1"] = hashlib.sha1(report.adjusted.tobytes()).hexdigest()[:12]
    for method in ("parametric-common", "parametric-subsets"):
        problem = TestProblem(scheme, model, p, 0.025, method)
        cpu, report = median_cpu(lambda: run_closure(problem, compute_scales=False))
        tracemalloc.start()
        try:
            run_closure(problem, compute_scales=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[method] = {
            "closure_s": cpu,
            "closure_peak_mb": round(peak / 1e6, 1),
            "adjusted_sha1": hashlib.sha1(report.adjusted.tobytes()).hexdigest()[:12],
        }
    return out


if __name__ == "__main__":
    args = sys.argv[1:]
    run = measure
    if args[:1] == ["--thresholds"]:
        args, run = args[1:], measure_thresholds
    elif args[:1] == ["--schemes"]:
        args, run = args[1:], measure_schemes
    results = []
    for arg in args:
        results.append(run(int(arg)))
        print(json.dumps(results[-1]), flush=True)
    print(json.dumps(results))
