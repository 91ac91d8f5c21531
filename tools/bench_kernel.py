"""CPU, memory and pass counts of the kernel (L0), of one root solve
(L1), of the tutorial closure with scales, of a cold start and, on
request, of an m=8 ``xie`` closure with and without scales and of
Dunnett-type threshold tables.

    PYTHONPATH=src python3 tools/bench_kernel.py            # L0, L1, tutorial, cold start
    PYTHONPATH=src python3 tools/bench_kernel.py --closure  # also the m=8 closure
    PYTHONPATH=src python3 tools/bench_kernel.py --dunnett  # also the m=6 and 8 tables
    PYTHONPATH=src python3 tools/bench_kernel.py --batched  # also fits alone against batched

Run from the repository root; point PYTHONPATH at another checkout's
``src`` to measure that one with the same script. Every instance is drawn
from a fixed seed, so both sides integrate the same problems.

- L0: one evaluation of a ``UnionRule`` fitted at targets 1e-6 and 1e-12
  under the 2^16-point cap, at k = 2, 3, 4, 5, 6, 8: CPU median of five
  evaluations, tracemalloc's peak over a sixth, and the rule's path and
  reported error. A QMC rule (``"path": "qmc"``) makes one kernel pass
  over 10 x n points; a quadrature rule (Plackett's reduction, k = 3 to
  6) reports its Gauss-Legendre node count instead, and a closed form
  (k <= 2) neither.
- near-singular: the same, at target 1e-6, for a block of k = 4, 5, 6
  with correlation 0.3 but for one pair at 0.99 or 0.999, at thresholds
  1e-3 and 0.05: the rule's path and node count or points.
- L1: one ``parametric_c`` at k = 4, 5, 6, 8 and targets 1e-4, 1e-5 and
  1e-6, with the 2^16-point cap: kernel passes, points in units of one
  capped pass (2^16 per shift) and CPU, each the mean over three
  instances, and the largest error a union fitted at the solved
  thresholds reports.
- L1 exact: one ``parametric_c`` at k = 2 and 3, where every union is
  exact (no kernel pass): the median CPU of one solve over ten instances,
  each timed as the fastest of five runs, the union evaluations per
  solve (calls of ``mvnorm._closed_form_union``,
  ``mvnorm._plackett_unions`` and, in a checkout that has them,
  ``mvnorm._plackett_values`` and ``intersection``'s own bindings of
  ``_pair_unions`` and ``_plackett_values``: the closed-form and
  quadrature entries a fit or an evaluation of a rule goes through, and
  those the array root solve calls) and a sha1 prefix of the scales.
- tutorial: ``run_closure`` with scales on ``tutorial/trial_problem.json``
  (the perfbench gatekeeping problem) at the CLI's target 1e-6: the
  median CPU of fifteen runs after a warm-up, the ``solve_monotone``
  calls of one run (counted through ``intersection``'s binding), the
  ``UnionRule``s it builds (``rules``, counted by wrapping its
  ``__init__``) and sha1 prefixes of the local levels and adjusted
  p-values.
- cold start: a fresh Python process that imports numpy, then
  ``closedmtp``, and makes a first k=7 ``union_exceedance`` (a QMC rule,
  so the Sobol' points are generated): wall time of the import and of the
  union, the median over five processes, the largest peak RSS
  (``ru_maxrss``) of the five, and whether ``scipy.stats`` was imported.
- closure: one ``run_closure`` of an m=8 ``xie`` problem at target 1e-5
  with scales, and of the same problem at target 1e-6 without them (the
  p-values only): CPU, kernel passes, points, refits, the decisions, and
  sha1 prefixes of the adjusted and of the intersection p-values, which
  show whether two sides agree bit for bit. ``refits`` counts the
  intersection p-values fitted past the first 2^11-point pass: the rows
  the method's ``pvalues`` entry in ``closure._METHODS`` receives at more
  than 2^11 points, counted by wrapping it; a closure that fits every
  p-value once to the target reports 0, and one that refits only what
  can change an answer leaves the other p-values at their first pass, so
  only the adjusted sha1 should agree between those two.
- batched: per k = 3 to 6, Plackett's reduction fitted at target 1e-6
  on 64 random problems (thresholds in 0.001 to 0.05), one
  ``_plackett_fit`` each (alone) and, in a checkout that has it, one
  ``_plackett_fits`` over all 64 (batched): the CPU per problem, the
  median of five runs, tracemalloc's peak over a sixth, and sha1
  prefixes of the values, which must agree between the two and across
  checkouts up to the last bits the summation order moves.
- dunnett: ``decision_thresholds`` for ``xie`` with equal weights and one
  block equicorrelated at rho = 0.5, alpha 0.025 and default tolerances,
  at m = 6 and 8: CPU, the rows solved one by one (calls of
  ``intersection._solve_scale``, the root solve of a row the array pass
  does not settle) and the table's sha1 prefix.

Passes and points are counted by wrapping ``_QmcRule._means``, which each
kernel pass goes through on both sides. BLAS is pinned to one thread.
Prints one JSON object per layer, then one with all of them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from pathlib import Path  # noqa: E402

from closedmtp import (  # noqa: E402
    CorrelationMatrix, CorrelationModel, TestProblem, decision_thresholds, run_closure, xie_scheme,
)
from closedmtp import closure as closure_module  # noqa: E402
from closedmtp import fileio, intersection, mvnorm  # noqa: E402
from closedmtp.intersection import parametric_c  # noqa: E402

CAP = 1 << 16
DIMS = (4, 5, 6, 8)
L0_DIMS = (2, 3) + DIMS
EXACT_DIMS = (2, 3)
TUTORIAL = Path(__file__).resolve().parent.parent / "tutorial" / "trial_problem.json"


def random_correlation(rng: np.random.Generator, dim: int) -> CorrelationMatrix:
    a = rng.standard_normal((dim, dim + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return CorrelationMatrix(s / np.outer(d, d))


class PassCounter:
    """Counts kernel passes and their points per shift while installed."""

    def __init__(self) -> None:
        self.passes = 0
        self.points = 0

    def __enter__(self) -> "PassCounter":
        self._means = means = mvnorm._QmcRule._means

        def counted(rule, shifts, start, *bounds):
            self.passes += 1
            self.points += rule.n - start
            return means(rule, shifts, start, *bounds)

        mvnorm._QmcRule._means = counted
        return self

    def __exit__(self, *exc) -> None:
        mvnorm._QmcRule._means = self._means


def rule_path(rule: mvnorm.UnionRule) -> str:
    if rule.sampled:
        return "qmc"
    return "closed form" if rule._nodes is None else "quadrature"


def kernel_pass(dim: int, target: float, corr=None, u0: float | None = None) -> dict:
    rng = np.random.default_rng(40 + dim)
    if corr is None:
        corr = random_correlation(rng, dim)
    u = np.full(dim, 0.025 / dim if u0 is None else u0)
    rule = mvnorm.UnionRule(u, corr, seed=3, target_error=target, max_points=CAP)
    cpu = []
    for _ in range(5):
        start = time.process_time()
        est = rule(1.1 * u)
        cpu.append(time.process_time() - start)
    tracemalloc.start()
    try:
        rule(1.1 * u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "k": dim,
        "target_error": target,
        "path": rule_path(rule),
        "points_per_shift": rule._qmc.n if rule.sampled else None,
        "nodes": None if rule.sampled else rule._nodes,
        "cpu_s": round(statistics.median(cpu), 5),
        "tracemalloc_peak_mb": round(peak / 1e6, 1),
        "value": est.value,
        "error": est.error,
    }


def near_singular(dim: int, rho: float, u0: float) -> dict:
    corr = np.full((dim, dim), 0.3)
    corr[0, 1] = corr[1, 0] = rho
    np.fill_diagonal(corr, 1.0)
    return {"pair_rho": rho, "u": u0, **kernel_pass(dim, 1e-6, CorrelationMatrix(corr), u0)}


def root_solve(dim: int, target: float) -> dict:
    rng = np.random.default_rng(100 + dim)
    cpu = 0.0
    scales, problems = [], []
    with PassCounter() as count:
        for inst in range(3):
            corr = random_correlation(rng, dim)
            w = rng.dirichlet(np.ones(dim) * 2.0)
            start = time.process_time()
            scales.append(parametric_c(range(dim), w, 0.025, corr, seed=inst, target_error=target))
            cpu += time.process_time() - start
            problems.append((np.minimum(1.0, scales[-1] * 0.025 * w), corr, inst))
    errors = [mvnorm.union_exceedance(u, corr, seed, target_error=target).error for u, corr, seed in problems]
    return {
        "k": dim,
        "target_error": target,
        "passes": round(count.passes / 3, 2),
        "capped_passes": round(count.points / CAP / 3, 2),
        "cpu_s": round(cpu / 3, 3),
        "union_error": max(errors),
        "scales": scales,
    }


def sha1(values) -> str:
    return hashlib.sha1(np.asarray(values, dtype=float).tobytes()).hexdigest()[:12]


class Counter:
    """Counts the calls of ``module.name`` (or of a class's method) for
    each of ``names`` the module has, while installed."""

    def __init__(self, module, *names: str) -> None:
        self.module, self.calls = module, 0
        self.names = [name for name in names if hasattr(module, name)]

    def __enter__(self) -> "Counter":
        self._fns = [getattr(self.module, name) for name in self.names]
        for name, fn in zip(self.names, self._fns):
            setattr(self.module, name, self._counted(fn))
        return self

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return counted

    def __exit__(self, *exc) -> None:
        for name, fn in zip(self.names, self._fns):
            setattr(self.module, name, fn)


def exact_solve(dim: int) -> dict:
    rng = np.random.default_rng(200 + dim)
    instances = [
        (random_correlation(rng, dim), rng.dirichlet(np.ones(dim) * 2.0)) for _ in range(10)
    ]
    cpu, scales = [], []
    with (
        Counter(mvnorm, "_closed_form_union", "_plackett_unions", "_plackett_values") as count,
        Counter(intersection, "_pair_unions", "_plackett_values") as array_count,
    ):
        for corr, w in instances:
            scales.append(parametric_c(range(dim), w, 0.025, corr))
    for corr, w in instances:
        runs = []
        for _ in range(5):
            start = time.process_time()
            parametric_c(range(dim), w, 0.025, corr)
            runs.append(time.process_time() - start)
        cpu.append(min(runs))
    return {
        "k": dim,
        "cpu_ms": round(1e3 * statistics.median(cpu), 3),
        "unions_per_solve": (count.calls + array_count.calls) / len(instances),
        "scales_sha1": sha1(scales),
    }


def tutorial_closure() -> dict:
    doc = fileio.load_document(TUTORIAL.read_text(encoding="utf-8"), "problem")
    problem = fileio.parse_problem(doc)
    with (
        Counter(intersection, "solve_monotone") as count,
        Counter(mvnorm.UnionRule, "__init__") as rules,
    ):
        report = run_closure(problem, target_error=1e-6)
    cpu = []
    for _ in range(15):
        start = time.process_time()
        run_closure(problem, target_error=1e-6)
        cpu.append(time.process_time() - start)
    return {
        "m": problem.m,
        "method": problem.method,
        "cpu_s": round(statistics.median(cpu), 4),
        "solve_monotone_calls": count.calls,
        "rules": rules.calls,
        "levels_sha1": sha1(np.concatenate([r.local_levels for r in report.intersections])),
        "adjusted_sha1": sha1(report.adjusted),
    }


COLD_START = """
import json, resource, sys, time
import numpy as np
start = time.perf_counter()
import closedmtp
imported = time.perf_counter()
a = np.random.default_rng(46).standard_normal((7, 9))
s = a @ a.T
d = np.sqrt(np.diag(s))
closedmtp.union_exceedance(np.full(7, 0.025 / 7), s / np.outer(d, d), seed=3)
done = time.perf_counter()
print(json.dumps({
    "import_s": imported - start,
    "first_union_s": done - imported,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_stats": "scipy.stats" in sys.modules,
}))
"""


def cold_start(runs: int = 5) -> dict:
    rows = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", COLD_START],
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
        for _ in range(runs)
    ]
    return {
        "k": 7,
        "import_s": round(statistics.median(r["import_s"] for r in rows), 3),
        "first_union_s": round(statistics.median(r["first_union_s"] for r in rows), 3),
        "peak_rss_mb": round(max(r["peak_rss_mb"] for r in rows), 1),
        "scipy_stats_imported": any(r["scipy_stats"] for r in rows),
    }


def closure(target: float, compute_scales: bool) -> dict:
    rng = np.random.default_rng(8)
    m = 8
    corr = random_correlation(rng, m)
    w = rng.dirichlet(np.ones(m) * 2.0)
    p = rng.uniform(0.0, 0.02, size=m)
    problem = TestProblem(
        scheme=xie_scheme(w), model=CorrelationModel.full(corr), pvalues=p, alpha=0.025, method="xie"
    )
    method = closure_module._METHODS["xie"]
    # (rows, max_points) of every call
    fits = []

    def counted(rows, *args):
        fits.append((len(rows), args[-1]))
        return method.pvalues(rows, *args)

    closure_module._METHODS["xie"] = dataclasses.replace(method, pvalues=counted)
    try:
        with PassCounter() as count:
            start = time.process_time()
            report = run_closure(problem, target_error=target, compute_scales=compute_scales)
            cpu = time.process_time() - start
    finally:
        closure_module._METHODS["xie"] = method
    return {
        "m": m,
        "target_error": target,
        "compute_scales": compute_scales,
        "cpu_s": round(cpu, 2),
        "passes": count.passes,
        "capped_passes": round(count.points / CAP, 2),
        "refits": sum(rows for rows, points in fits if points > 1 << 11),
        "rejected": [bool(r) for r in report.rejected],
        "adjusted_sha1": sha1(report.adjusted),
        "pvalues_sha1": sha1([r.p_value for r in report.intersections]),
    }


def timed(fn, runs: int = 5) -> tuple[float, float, object]:
    """(median CPU seconds of ``runs`` calls, tracemalloc's peak in MB over
    one more, the last result)."""
    cpu = []
    for _ in range(runs):
        start = time.process_time()
        out = fn()
        cpu.append(time.process_time() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(cpu), peak / 1e6, out


def batched(dim: int, n: int = 64) -> dict:
    rng = np.random.default_rng(60 + dim)
    cases = [(rng.uniform(0.001, 0.05, dim), random_correlation(rng, dim).values) for _ in range(n)]
    cpu, peak, fits = timed(lambda: [mvnorm._plackett_fit(u, c, 1e-6) for u, c in cases])
    out = {
        "k": dim,
        "problems": n,
        "alone_ms": round(1e3 * cpu / n, 3),
        "alone_peak_mb": round(peak, 2),
        "alone_sha1": sha1([fit[0].value for fit in fits]),
    }
    if hasattr(mvnorm, "_plackett_fits"):
        u = np.array([u for u, _ in cases]).T
        corr = np.stack([c for _, c in cases], axis=2)
        cpu, peak, (value, _, _) = timed(lambda: mvnorm._plackett_fits(u, corr, 1e-6))
        out.update(
            batched_ms=round(1e3 * cpu / n, 3), batched_peak_mb=round(peak, 2), batched_sha1=sha1(value)
        )
    return out


def dunnett(m: int) -> dict:
    corr = np.full((m, m), 0.5)
    np.fill_diagonal(corr, 1.0)
    scheme = xie_scheme(np.full(m, 1.0 / m))
    with Counter(intersection, "_solve_scale") as count:
        start = time.process_time()
        table = decision_thresholds(scheme, CorrelationModel.full(corr), 0.025, "xie")
        cpu = time.process_time() - start
    return {"m": m, "cpu_s": round(cpu, 2), "row_solves": count.calls, "table_sha1": sha1(table)}


if __name__ == "__main__":
    results = {"L0": [], "L1": [], "near_singular": []}
    for target in (1e-6, 1e-12):
        for dim in L0_DIMS:
            results["L0"].append(kernel_pass(dim, target))
            print(json.dumps(results["L0"][-1]), flush=True)
    for dim in DIMS[:3]:
        for rho in (0.99, 0.999):
            for u0 in (1e-3, 0.05):
                results["near_singular"].append(near_singular(dim, rho, u0))
                print(json.dumps(results["near_singular"][-1]), flush=True)
    for target in (1e-4, 1e-5, 1e-6):
        for dim in DIMS:
            results["L1"].append(root_solve(dim, target))
            print(json.dumps(results["L1"][-1]), flush=True)
    results["L1_exact"] = []
    for dim in EXACT_DIMS:
        results["L1_exact"].append(exact_solve(dim))
        print(json.dumps(results["L1_exact"][-1]), flush=True)
    results["tutorial_closure"] = tutorial_closure()
    print(json.dumps(results["tutorial_closure"]), flush=True)
    results["cold_start"] = cold_start()
    print(json.dumps(results["cold_start"]), flush=True)
    if "--closure" in sys.argv[1:]:
        results["closure"] = closure(1e-5, compute_scales=True)
        print(json.dumps(results["closure"]), flush=True)
        results["closure_pvalues"] = closure(1e-6, compute_scales=False)
        print(json.dumps(results["closure_pvalues"]), flush=True)
    if "--batched" in sys.argv[1:]:
        results["batched"] = [batched(dim) for dim in range(3, 7)]
        print(json.dumps(results["batched"]), flush=True)
    if "--dunnett" in sys.argv[1:]:
        results["dunnett"] = [dunnett(m) for m in (6, 8)]
        print(json.dumps(results["dunnett"]), flush=True)
    print(json.dumps(results))
