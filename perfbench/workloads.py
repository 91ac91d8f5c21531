"""The benchmark's workloads: inputs from a seed, one pass of library calls,
and the checks of every output against frozen oracle values.

Why these three (each exercises a different layer of closedmtp):

- ``gatekeeping``: ``closedmtp analyze`` on the tutorial problem through
  the click entry point, parametric-subsets at the CLI default target
  1e-6. Kernel work is all at k <= 3 and almost all in root solves, and
  most block solves repeat an earlier (correlation, weights, alpha).
- ``full-corr``: a fully known random correlation, m=6, unequal positive
  weights, xie at 1e-6: the closure without scales, then xie_shortcut and
  weighted_dunnett_single_step. One-shot p-values at k=3..6 and a single
  root solve at k=6.
- ``fwer-sim``: a random m=12 graph with one known pair (rho=0.5) and
  singletons, parametric-common, 100k replications with shifted
  alternatives, then check_consonance. Root solves only on the exact
  bivariate path, a 3^12 consonance sweep, and the replication loop.

The seed picks one of the frozen ``fwer-sim`` instances (``seed % count``)
and is the master seed of its simulated data. For ``full-corr`` it draws a
relabelling of the hypotheses of its one frozen instance: random
correlations differ by up to 15% in kernel work (six drawn with this
generator did), which would be most of that workload's run-to-run spread,
while a relabelling leaves every subset problem as it is. The seed is never an integration seed: the
kernel's adaptive sample size depends on that seed, so varying it would
vary the work of a run. ``gatekeeping`` is the tutorial file as it stands,
with its own integration seed, whatever the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import make_reference as oracle
import spans as tracing

HERE = Path(__file__).resolve().parent
GATEKEEPING_PROBLEM = HERE / "inputs" / "gatekeeping_problem.json"

# elementary decisions are compared only where the reference adjusted
# p-value lies farther than this from alpha: 100x the CLI's target error,
# and 5x the largest error the kernel reports at its sample cap
DECISION_MARGIN = 1e-4
CLI_TARGET_ERROR = 1e-6


def _mask(members) -> int:
    return sum(1 << int(j) for j in members)


def _adjusted(pvalues: dict, m: int) -> list[float]:
    """Closure adjusted p-values: max over the intersections containing each hypothesis."""
    adj = [0.0] * m
    for key, p in pvalues.items():
        for j in oracle.members(int(key)):
            adj[j] = max(adj[j], p)
    return adj


@dataclass
class Checks:
    """Outcome of checking one or more passes."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    pvalue_err: list = field(default_factory=list)
    scale_err: list = field(default_factory=list)

    def op(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{name}: {problems[0]}" + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))

    def decisions(self, problems, rejected, ref_adjusted, alpha) -> None:
        for j, (got, ref) in enumerate(zip(rejected, ref_adjusted)):
            if abs(ref - alpha) > DECISION_MARGIN and bool(got) != (ref <= alpha):
                problems.append(f"H{j + 1} rejected={bool(got)}, reference adjusted p {ref:.6g}")

    def pvalues(self, got, ref) -> None:
        self.pvalue_err.extend(float(g) - float(r) for g, r in zip(got, ref))


def rms(xs) -> float:
    return math.sqrt(sum(x * x for x in xs) / len(xs)) if xs else float("nan")


def _failed(exc: BaseException) -> list:
    return [f"raised {type(exc).__name__}: {exc}"]


def _call(fn, *args, **kwargs):
    """Run one library operation; an exception is returned as the output."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every raise is a failed operation, reported by check
        return exc


def _schema_problems(doc, kind: str) -> list:
    from closedmtp import fileio
    from closedmtp.exceptions import InputError

    if isinstance(doc, Exception):
        return _failed(doc)
    try:
        fileio.check_schema(doc, kind)
    except InputError as exc:
        return [f"report invalid: {exc}"]
    return []


def _stage_seconds(spans, name: str) -> float:
    return sum((s[2] - s[1] for s in spans if s[0] == name), 0.0)


def _within(recorded, outer: str, name: str) -> list:
    """Spans called ``name`` that ran inside a span called ``outer``."""
    return [s for i, s in enumerate(recorded) if s[0] == name and tracing.inside(recorded, i, outer)]


class Gatekeeping:
    name = "gatekeeping"
    stages = ("analyze",)

    def __init__(self, tiny: bool = False) -> None:
        # the smoke check runs the same problem at a loose target
        self.target_error = 1e-3 if tiny else CLI_TARGET_ERROR

    def setup(self, seed: int) -> None:
        from closedmtp import fileio

        doc = fileio.load_document(GATEKEEPING_PROBLEM.read_text(encoding="utf-8"), "problem")
        self.problem = fileio.parse_problem(doc)

    def load_reference(self) -> None:
        self.ref = json.loads((oracle.REFERENCE_DIR / "gatekeeping.json").read_text())
        self.ref_adjusted = _adjusted(self.ref["pvalues"], self.problem.m)

    def run_pass(self, tracer) -> dict:
        from click.testing import CliRunner

        from closedmtp.cli import main

        args = ["analyze", str(GATEKEEPING_PROBLEM), "--target-error", repr(self.target_error)]
        with tracer.span("stage.analyze"):
            res = CliRunner().invoke(main, args, catch_exceptions=True)
        return {"analyze": res}

    def check(self, out: dict, spans, checks: Checks) -> None:
        res = out["analyze"]
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            return checks.op("analyze", _failed(res.exception))
        if res.exit_code != 0:
            return checks.op("analyze", [f"exit code {res.exit_code}: {res.output.strip()[:200]}"])
        try:
            doc = json.loads(res.stdout)
        except ValueError as exc:
            return checks.op("analyze", [f"report is not JSON: {exc}"])
        problems = _schema_problems(doc, "analysis")
        if problems:
            return checks.op("analyze", problems)
        for entry in doc["intersections"]:
            mask = _mask(i - 1 for i in entry["set"])
            checks.pvalues([entry["p_value"]], [self.ref["pvalues"][str(mask)]])
            ref_scales = {tuple(s): c for s, c in self.ref["block_scales"][str(mask)]}
            for block in entry["block_scales"]:
                ref_c = ref_scales[tuple(block["set"])]
                if ref_c > 1.0:
                    checks.scale_err.append(block["scale"] - ref_c)
        rejected = [h["rejected"] for h in doc["hypotheses"]]
        checks.decisions(problems, rejected, self.ref_adjusted, self.problem.alpha)
        checks.op("analyze", problems)


class FullCorr:
    name = "full-corr"
    stages = ("analyze", "shortcut", "single_step")

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def setup(self, seed: int) -> None:
        from closedmtp import CorrelationMatrix, CorrelationModel, TestProblem, xie_scheme

        if self.tiny:
            self.inst = oracle.full_corr_reference(m=3)
        else:
            self.inst = json.loads((oracle.REFERENCE_DIR / "full-corr.json").read_text())
        inst = self.inst
        # hypothesis j of this run is hypothesis perm[j] of the frozen instance
        perm = self.perm = np.random.default_rng(seed).permutation(len(inst["weights"]))
        self.weights = np.array(inst["weights"])[perm]
        self.pvalues = np.array(inst["pvalues"])[perm]
        self.alpha = inst["alpha"]
        corr = np.array(inst["corr"])[np.ix_(perm, perm)]
        self.model = CorrelationModel.full(CorrelationMatrix(corr))
        self.problem = TestProblem(
            scheme=xie_scheme(self.weights),
            model=self.model,
            pvalues=self.pvalues,
            alpha=self.alpha,
            method="xie",
        )

    def load_reference(self) -> None:
        ref = self.inst["reference"]
        m = len(self.weights)
        self.ref_pvalues = {
            str(mask): ref["pvalues"][str(_mask(self.perm[oracle.members(mask)]))]
            for mask in range(1, 1 << m)
        }
        self.ref_adjusted = _adjusted(self.ref_pvalues, m)
        # the shortcut's chain: drop the smallest p/w (ties to the lowest index) each step
        active, order, chain_adj, running = list(range(m)), [], [0.0] * m, 0.0
        while active:
            running = max(running, self.ref_pvalues[str(_mask(active))])
            star = min(active, key=lambda j: (self.pvalues[j] / self.weights[j], j))
            chain_adj[star] = running
            order.append(star)
            active.remove(star)
        self.ref_order, self.ref_chain = tuple(order), chain_adj
        self.ref_c = ref["single_step_c"]
        self.ref_single = [ref["single_step_adjusted"][j] for j in self.perm]

    def run_pass(self, tracer) -> dict:
        from closedmtp import run_closure, weighted_dunnett_single_step, xie_shortcut

        out = {}
        with tracer.span("stage.analyze"):
            out["analyze"] = _call(run_closure, self.problem, compute_scales=False)
        args = (self.weights, self.pvalues, self.model, self.alpha)
        with tracer.span("stage.shortcut"):
            out["shortcut"] = _call(xie_shortcut, *args)
        with tracer.span("stage.single_step"):
            out["single_step"] = _call(weighted_dunnett_single_step, *args)
        return out

    def check(self, out: dict, spans, checks: Checks) -> None:
        alpha = self.alpha
        rep = out["analyze"]
        if isinstance(rep, Exception):
            checks.op("analyze", _failed(rep))
        else:
            problems = []
            masks = range(1, len(rep.intersections) + 1)
            checks.pvalues([r.p_value for r in rep.intersections], [self.ref_pvalues[str(k)] for k in masks])
            checks.decisions(problems, rep.rejected, self.ref_adjusted, alpha)
            checks.op("analyze", problems)
        sc = out["shortcut"]
        if isinstance(sc, Exception):
            checks.op("shortcut", _failed(sc))
        else:
            problems = [] if tuple(sc["order"]) == self.ref_order else [f"order {sc['order']} != {self.ref_order}"]
            checks.pvalues(sc["adjusted"], self.ref_chain)
            checks.decisions(problems, sc["rejected"], self.ref_chain, alpha)
            checks.op("shortcut", problems)
        ss = out["single_step"]
        if isinstance(ss, Exception):
            checks.op("single_step", _failed(ss))
        else:
            problems = []
            checks.scale_err.append(ss["c_I"] - self.ref_c)
            checks.pvalues(ss["adjusted"], self.ref_single)
            checks.decisions(problems, ss["rejected"], self.ref_single, alpha)
            checks.op("single_step", problems)


class FwerSim:
    name = "fwer-sim"
    stages = ("simulate", "consonance")

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def setup(self, seed: int) -> None:
        from closedmtp import (
            CorrelationMatrix, CorrelationModel, GraphSpec, SimScenario, scheme_from_graph,
        )

        if self.tiny:
            self.inst = oracle.fwer_sim_reference(seed % 4, m=4, replications=2000)
        else:
            doc = json.loads((oracle.REFERENCE_DIR / "fwer-sim.json").read_text())
            self.inst = doc["instances"][seed % len(doc["instances"])]
        inst = self.inst
        m = len(inst["initial_weights"])
        a, b = inst["pair"]
        rho = inst["rho"]
        pair = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
        singles = tuple((j,) for j in range(m) if j not in (a, b))
        self.model = CorrelationModel(m, ((a, b),) + singles, (pair,) + (None,) * len(singles))
        generator = np.eye(m)
        generator[a, b] = generator[b, a] = rho
        self.scheme = scheme_from_graph(GraphSpec(m, inst["initial_weights"], inst["transitions"]))
        self.scenario = SimScenario(
            scheme=self.scheme,
            model=self.model,
            generator=CorrelationMatrix(generator),
            alpha=inst["alpha"],
            method="parametric-common",
            true_nulls=np.array(inst["true_nulls"]),
            mean_shifts=np.array(inst["mean_shifts"]),
            replications=inst["replications"],
            master_seed=seed,
        )

    def load_reference(self) -> None:
        ref = self.inst["reference"]
        self.ref_scales = {int(k): c for k, c in ref["scales"].items()}
        tol, margin = oracle.CONSONANCE_TOL, oracle.CONSONANCE_MARGIN
        self.ref_clear = {(s, t, j) for s, t, j, e in ref["violations"] if e > tol + margin}
        self.ref_allowed = {(s, t, j) for s, t, j, e in ref["violations"]}

    def run_pass(self, tracer) -> dict:
        from closedmtp import check_consonance, fileio, simulate

        sc = self.scenario
        out = {}
        # each stage ends with the report document the CLI would print
        with tracer.span("stage.simulate"):
            rep = out["simulate"] = _call(simulate, sc)
            if not isinstance(rep, Exception):
                out["simulate_doc"] = _call(fileio.simulation_document, sc, rep)
        with tracer.span("stage.consonance"):
            rep = out["consonance"] = _call(check_consonance, self.scheme, self.model, sc.alpha)
            if not isinstance(rep, Exception):
                out["consonance_doc"] = _call(fileio.consonance_document, rep, sc.m, sc.alpha, 0)
        return out

    def check(self, out: dict, spans, checks: Checks) -> None:
        alpha = self.scenario.alpha
        rep = out["simulate"]
        if isinstance(rep, Exception):
            checks.op("simulate", _failed(rep))
        else:
            problems = _schema_problems(out["simulate_doc"], "simulation")
            if rep.fwer_estimate > alpha + 3.0 * rep.fwer_stderr:
                problems.append(f"FWER {rep.fwer_estimate:.5f} > alpha + 3 stderr")
            for span in _within(spans, "stage.simulate", "closure.thresholds")[:1]:
                t = span[4]["value"]
                for mask, ref_c in self.ref_scales.items():
                    mem = oracle.members(mask)
                    w = self.scheme.weights_for(mask)
                    pos = w > 0.0
                    c = t[mask - 1, mem][pos] / (alpha * w[pos])
                    checks.scale_err.append(float(c.mean()) - ref_c)
            checks.op("simulate", problems)
        rep = out["consonance"]
        if isinstance(rep, Exception):
            checks.op("consonance", _failed(rep))
        else:
            problems = _schema_problems(out["consonance_doc"], "consonance")
            got = {(_mask(v.superset), _mask(v.subset), v.hypothesis) for v in rep.violations}
            missing = self.ref_clear - got
            extra = got - self.ref_allowed
            if missing:
                problems.append(f"{len(missing)} reference violations missing, e.g. {sorted(missing)[0]}")
            if extra:
                problems.append(f"{len(extra)} violations not in the reference, e.g. {sorted(extra)[0]}")
            checks.op("consonance", problems)


WORKLOADS = {w.name: w for w in (Gatekeeping, FullCorr, FwerSim)}


def stage_times(workload, spans) -> dict:
    """Seconds per stage of one pass, plus the thresholds inside simulate."""
    out = {s: _stage_seconds(spans, f"stage.{s}") for s in workload.stages}
    if isinstance(workload, FwerSim):
        out["thresholds"] = sum(s[2] - s[1] for s in _within(spans, "stage.simulate", "closure.thresholds"))
    return out
