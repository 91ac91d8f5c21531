"""Generate the benchmark's instances and freeze their reference values.

Run once, offline, from the repository root:

    python3 perfbench/make_reference.py [--jobs 2]

It writes ``perfbench/reference/<workload>.json``. Every probability and
critical scale in those files comes from an oracle that shares no code
with closedmtp:

- unions inside an equicorrelated block (the one-factor case) are the
  1-D integral  int phi(x) (1 - prod_j Phi((z_j - sqrt(rho) x) / sqrt(1 - rho))) dx
  by ``scipy.integrate.quad``;
- other bivariate unions are u1 + u2 - int_{z1}^inf phi(x) Phi-bar(...) dx,
  also by ``quad``;
- unions in three or more dimensions with a general correlation use
  ``scipy.stats.multivariate_normal`` at ``abseps=1e-6`` with a fixed
  randomization per call (slow: several seconds per call at k=6);
- critical scales are roots of the defining equation by
  ``scipy.optimize.brentq``.

Graph weights are propagated by an independent implementation of the
graph update rule. The instances themselves (correlations, weights,
p-values, shifts) are drawn here from fixed seeds and stored next to their
references, so the benchmark reads inputs and answers from one file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
INPUT_DIR = HERE / "inputs"

ALPHA = 0.025
FULL_CORR_M = 6
FWER_SIM_M = 12
FWER_SIM_INSTANCES = 8
FWER_SIM_RHO = 0.5
FWER_SIM_REPLICATIONS = 100_000
FWER_SIM_ALTERNATIVES = 4
# each hypothesis passes its weight to this many others; sparser graphs give
# thousands of consonance violations, dense ones none
FWER_SIM_FANOUT = 8
MVN_ABSEPS = 1e-6
# the consonance sweep's tolerance on scale*weight products (the library default)
CONSONANCE_TOL = 1e-4
# reference violations within this distance of the tolerance are borderline
CONSONANCE_MARGIN = 1e-5
_TAG = 0xC105ED


# ------------------------------------------------------------------ oracle math

def members(mask: int) -> list[int]:
    """0-based members of a subset bitmask."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def one_factor_union(u, rho: float) -> float:
    """P(P_j <= u_j for some j), equicorrelated normals at rho >= 0, by quad."""
    import numpy as np
    from scipy.integrate import quad
    from scipy.special import log_ndtr, ndtri

    u = np.asarray(u, dtype=float)
    u = u[u > 0.0]
    if u.size == 0:
        return 0.0
    if np.any(u >= 1.0):
        return 1.0
    if u.size == 1:
        return float(u[0])
    z = -ndtri(u)
    a, s = math.sqrt(rho), math.sqrt(1.0 - rho)

    def integrand(x):
        # 1 - prod Phi(...) without cancellation
        return -math.expm1(float(np.sum(log_ndtr((z - a * x) / s)))) * math.exp(-0.5 * x * x)

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
    return min(1.0, val / math.sqrt(2.0 * math.pi))


def bivariate_union(u, rho: float) -> float:
    """P(P_1 <= u_1 or P_2 <= u_2) for correlation rho, by quad."""
    from scipy.integrate import quad
    from scipy.special import ndtr, ndtri

    u1, u2 = float(u[0]), float(u[1])
    if u1 >= 1.0 or u2 >= 1.0:
        return 1.0
    if u1 <= 0.0 or u2 <= 0.0:
        return max(u1, 0.0) + max(u2, 0.0)
    z1, z2 = -float(ndtri(u1)), -float(ndtri(u2))
    s = math.sqrt(1.0 - rho * rho)

    def integrand(x):
        return math.exp(-0.5 * x * x) * float(ndtr(-(z2 - rho * x) / s))

    both, _ = quad(integrand, z1, math.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
    return min(1.0, u1 + u2 - both / math.sqrt(2.0 * math.pi))


def general_union(u, corr, seed: int = 0) -> float:
    """P(P_j <= u_j for some j) for a general correlation.

    Dimensions 1-2 by quad; 3 and above by scipy's multivariate normal
    CDF at ``MVN_ABSEPS``, with a fixed randomization so that a root
    solve sees a deterministic function.
    """
    import numpy as np
    from scipy.special import ndtri
    from scipy.stats import multivariate_normal

    u = np.asarray(u, dtype=float)
    c = np.asarray(corr, dtype=float)
    keep = np.flatnonzero(u > 0.0)
    if keep.size == 0:
        return 0.0
    if np.any(u >= 1.0):
        return 1.0
    u, c = u[keep], c[np.ix_(keep, keep)]
    if u.size == 1:
        return float(u[0])
    if u.size == 2:
        return bivariate_union(u, float(c[0, 1]))
    k = u.size
    mvn = multivariate_normal(
        mean=np.zeros(k),
        cov=c,
        abseps=MVN_ABSEPS,
        releps=0.0,
        maxpts=10_000_000 * k,
        seed=np.random.default_rng(seed),
    )
    return min(1.0, max(0.0, 1.0 - float(mvn.cdf(-ndtri(u)))))


def solve_scale(union_at, target: float, cap: float) -> float:
    """Smallest c >= 1 with union_at(c) = target, by brentq on [1, cap]."""
    from scipy.optimize import brentq

    if union_at(1.0) >= target:
        return 1.0
    return float(brentq(lambda c: union_at(c) - target, 1.0, cap, xtol=1e-13))


def graph_weights(initial, transitions) -> dict[int, list[float]]:
    """Subset weights of a propagation graph, by removing nodes one at a time."""
    m = len(initial)
    table: dict[int, list[float]] = {}

    def visit(mask, w, g):
        if mask in table:
            return
        table[mask] = [w[j] for j in members(mask)]
        for j in members(mask):
            if mask == 1 << j:
                continue
            w2 = [w[l] + w[j] * g[j][l] for l in range(m)]
            w2[j] = 0.0
            g2 = [[0.0] * m for _ in range(m)]
            for l in range(m):
                if l == j:
                    continue
                denom = 1.0 - g[l][j] * g[j][l]
                for k in range(m):
                    if k in (l, j) or denom <= 1e-12:
                        continue
                    g2[l][k] = (g[l][k] + g[l][j] * g[j][k]) / denom
            visit(mask & ~(1 << j), w2, g2)

    visit((1 << m) - 1, list(map(float, initial)), [list(map(float, r)) for r in transitions])
    return table


# ------------------------------------------------------------------ workloads

def _random_correlation(rng, m: int):
    import numpy as np

    g = rng.standard_normal((m, m + 2))
    s = g @ g.T
    d = 1.0 / np.sqrt(np.diag(s))
    c = s * d[:, None] * d[None, :]
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return c


def gatekeeping_reference() -> dict:
    """The tutorial problem: parametric-subsets, one rho=0.5 block plus singletons."""
    doc = json.loads((INPUT_DIR / "gatekeeping_problem.json").read_text())
    m, alpha = doc["m"], doc["alpha"]
    p = doc["pvalues"]
    graph = doc["weights"]["graph"]
    table = graph_weights(graph["weights"], graph["transitions"])
    blocks = [[i - 1 for i in b] for b in doc["correlation"]["blocks"]]
    rho = doc["correlation"]["matrices"][0][0][1]
    pvalues, scales = {}, {}
    for mask in range(1, 1 << m):
        mem = members(mask)
        w = dict(zip(mem, table[mask]))
        best, block_scales = None, []
        for h, block in enumerate(blocks):
            bm = [j for j in mem if j in block]
            if not bm:
                continue
            act = [j for j in bm if w[j] > 0.0]
            total = sum(w[j] for j in bm)
            if act:
                q = min(p[j] / w[j] for j in act)
                ph = min(1.0, one_factor_union([w[j] * q for j in act], rho) / total)
                best = ph if best is None else min(best, ph)
            if len(act) <= 1:
                c = 1.0
            else:
                wa = [w[j] for j in act]
                c = solve_scale(
                    lambda c: one_factor_union([min(1.0, c * alpha * x) for x in wa], rho),
                    alpha * total,
                    1.0 / (alpha * max(wa)),
                )
            block_scales.append([[j + 1 for j in bm], c])
        pvalues[str(mask)] = best
        scales[str(mask)] = block_scales
    return {"alpha": alpha, "pvalues": pvalues, "block_scales": scales}


def full_corr_instance(i: int, m: int = FULL_CORR_M) -> dict:
    import numpy as np

    rng = np.random.default_rng([_TAG, 1, i])
    corr = _random_correlation(rng, m)
    w = np.maximum(rng.dirichlet(np.ones(m)), 0.1 / m)
    w = w / w.sum()
    p = 10.0 ** rng.uniform(-4.0, -1.0, m)
    return {
        "index": i,
        "alpha": ALPHA,
        "corr": corr.tolist(),
        "weights": w.tolist(),
        "pvalues": p.tolist(),
    }


def full_corr_reference(i: int = 0, m: int = FULL_CORR_M) -> dict:
    """Xie p-value of every intersection, plus the single-step scale and adjusted p-values."""
    import numpy as np

    inst = full_corr_instance(i, m)
    corr = np.array(inst["corr"])
    w0 = np.array(inst["weights"])
    p = np.array(inst["pvalues"])
    alpha = inst["alpha"]
    pvalues = {}
    for mask in range(1, 1 << m):
        mem = members(mask)
        w = w0[mem] / w0[mem].sum()
        q = float(np.min(p[mem] / w))
        sub = corr[np.ix_(mem, mem)]
        pvalues[str(mask)] = min(1.0, general_union(np.minimum(1.0, w * q), sub, seed=mask))
        print(f"full-corr {i}: mask {mask}", file=sys.stderr, flush=True)
    c = solve_scale(
        lambda c: general_union(np.minimum(1.0, c * alpha * w0), corr, seed=1 << m),
        alpha,
        1.0 / (alpha * w0.max()),
    )
    adjusted = [
        min(1.0, general_union(np.minimum(1.0, w0 * (p[j] / w0[j])), corr, seed=(1 << m) + j))
        for j in range(m)
    ]
    inst["reference"] = {"pvalues": pvalues, "single_step_c": c, "single_step_adjusted": adjusted}
    return inst


def fwer_sim_instance(i: int, m: int = FWER_SIM_M, replications: int = FWER_SIM_REPLICATIONS) -> dict:
    import numpy as np

    rng = np.random.default_rng([_TAG, 2, i])
    fanout = min(FWER_SIM_FANOUT, m - 1)
    w0 = rng.dirichlet(np.ones(m))
    trans = np.zeros((m, m))
    for j in range(m):
        others = [l for l in range(m) if l != j]
        targets = rng.choice(others, size=fanout, replace=False)
        trans[j, targets] = rng.dirichlet(np.ones(fanout))
    pair = sorted(int(j) for j in rng.choice(m, size=2, replace=False))
    alternatives = rng.choice(m, size=min(FWER_SIM_ALTERNATIVES, m // 3), replace=False)
    shifts = np.zeros(m)
    shifts[alternatives] = rng.uniform(2.0, 3.0, size=alternatives.size)
    return {
        "index": i,
        "alpha": ALPHA,
        "initial_weights": w0.tolist(),
        "transitions": trans.tolist(),
        "pair": pair,
        "rho": FWER_SIM_RHO,
        "mean_shifts": shifts.tolist(),
        "true_nulls": [bool(s == 0.0) for s in shifts],
        "replications": replications,
    }


def fwer_sim_reference(i: int, m: int = FWER_SIM_M, replications: int = FWER_SIM_REPLICATIONS) -> dict:
    """Common-scale c of every intersection, and the consonance violations they imply."""
    inst = fwer_sim_instance(i, m, replications)
    alpha = inst["alpha"]
    pair, rho = inst["pair"], inst["rho"]
    table = graph_weights(inst["initial_weights"], inst["transitions"])
    scales = {}
    for mask in range(1, 1 << m):
        mem = members(mask)
        w = dict(zip(mem, table[mask]))
        in_pair = [j for j in mem if j in pair and w[j] > 0.0]
        if len(in_pair) < 2:
            continue
        singles = [w[j] for j in mem if j not in pair and w[j] > 0.0]
        wp = [w[j] for j in in_pair]

        def union_at(c, wp=wp, singles=singles):
            lin = sum(min(1.0, c * alpha * x) for x in singles)
            return lin + one_factor_union([min(1.0, c * alpha * x) for x in wp], rho)

        active = wp + singles
        scales[str(mask)] = solve_scale(union_at, alpha * sum(w.values()), 1.0 / (alpha * max(active)))
    # scale*weight products per subset, then every (superset, subset, j) drop
    prod = {}
    for mask in range(1, 1 << m):
        c = scales.get(str(mask), 1.0)
        prod[mask] = {j: c * x for j, x in zip(members(mask), table[mask])}
    violations = []
    for mask in range(1, 1 << m):
        row = prod[mask]
        sub = (mask - 1) & mask
        while sub:
            sub_row = prod[sub]
            for j in members(sub):
                excess = row[j] - sub_row[j]
                if excess > CONSONANCE_TOL - CONSONANCE_MARGIN:
                    violations.append([mask, sub, j, excess])
            sub = (sub - 1) & mask
    inst["reference"] = {"scales": scales, "violations": violations}
    print(f"fwer-sim {i}: {len(scales)} scales, {len(violations)} near-violations", file=sys.stderr)
    return inst


# ------------------------------------------------------------------ main

def _write(name: str, doc: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    ap.add_argument(
        "--workload",
        choices=("gatekeeping", "full-corr", "fwer-sim"),
        action="append",
        help="only these workloads (default: all)",
    )
    args = ap.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    todo = args.workload or ["gatekeeping", "full-corr", "fwer-sim"]
    if "gatekeeping" in todo:
        _write("gatekeeping", gatekeeping_reference())
    if "fwer-sim" in todo:
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=get_context("spawn")) as pool:
            insts = list(pool.map(fwer_sim_reference, range(FWER_SIM_INSTANCES)))
        _write("fwer-sim", {"instances": insts})
    if "full-corr" in todo:
        _write("full-corr", full_corr_reference())
    return 0


if __name__ == "__main__":
    sys.exit(main())
