"""Smoke check of the benchmark harness itself; takes about a minute.

    python3 perfbench/smoke.py

1. Runs every workload at its tiny size (``--tiny``: loose target or small
   m, references computed on the spot), untraced and traced, and asserts
   that the last line carries every BENCHMARK.json metric with its unit
   and that the human-readable lines name every end-to-end figure.
2. Feeds each workload's checker a wrong decision and asserts that it is
   counted as a failed operation.
3. Asserts that the tracer wraps the by-name imports of traced functions,
   not only their home modules.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

STAGE_FIGURES = (
    "setup_s", "analyze_s", "shortcut_s", "single_step_s", "thresholds_s", "sim_reps_per_s",
    "consonance_s", "compute_s", "compute_cpu_s", "total_s", "peak_rss_mb", "pvalue_err_rms", "scale_err_rms",
    "failed_frac",
)


def check_printed_metrics(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=300, check=True)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
            for metric in listed:
                got = last["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric, got)
                assert isinstance(got["value"], (int, float)), (name, metric, got)
            assert set(last["metrics"]) == {m["name"] for m in listed}, (name, trace)
            for figure in STAGE_FIGURES:
                assert any(line.split()[:1] == [figure] for line in lines), (name, trace, figure)
            print(f"ok  {name:<12} trace={trace}  {len(last['metrics'])} metrics")


def _one_pass(name: str):
    wl = workloads.WORKLOADS[name](tiny=True)
    wl.setup(3)
    wl.load_reference()
    tracer = spans.Tracer()
    with tracer.install(spans.STAGE_TARGETS):
        out = wl.run_pass(tracer)
    checks = workloads.Checks()
    wl.check(out, tracer.spans, checks)
    assert checks.failed == 0, checks.reasons
    return wl, out, tracer.spans


def _clear_hypothesis(ref_adjusted, alpha) -> int:
    clear = [j for j, r in enumerate(ref_adjusted) if abs(r - alpha) > workloads.DECISION_MARGIN]
    assert clear, "no decision is clear of alpha in this instance"
    return clear[0]


def _assert_counted(wl, out, spans_, what: str) -> None:
    checks = workloads.Checks()
    wl.check(out, spans_, checks)
    assert checks.failed >= 1 and checks.failed / checks.attempted > 0.0, (what, checks)
    print(f"ok  {wl.name:<12} wrong {what} counted: {checks.reasons[0]}")


def check_wrong_decisions() -> None:
    wl, out, spans_ = _one_pass("gatekeeping")
    doc = json.loads(out["analyze"].stdout)
    j = _clear_hypothesis(wl.ref_adjusted, wl.problem.alpha)
    doc["hypotheses"][j]["rejected"] = not doc["hypotheses"][j]["rejected"]
    wrong = SimpleNamespace(exception=None, exit_code=0, stdout=json.dumps(doc), output="")
    _assert_counted(wl, {"analyze": wrong}, spans_, f"decision on H{j + 1}")

    wl, out, spans_ = _one_pass("full-corr")
    j = _clear_hypothesis(wl.ref_adjusted, wl.alpha)
    rejected = out["analyze"].rejected.copy()
    rejected[j] = not rejected[j]
    wrong = dict(out, analyze=dataclasses.replace(out["analyze"], rejected=rejected))
    _assert_counted(wl, wrong, spans_, f"closure decision on H{j + 1}")

    wl, out, spans_ = _one_pass("fwer-sim")
    rep = out["simulate"]
    wrong = dict(out, simulate=dataclasses.replace(rep, fwer_estimate=wl.scenario.alpha + 0.05))
    _assert_counted(wl, wrong, spans_, "FWER estimate")
    from closedmtp.closure import ConsonanceViolation

    fake = ConsonanceViolation(superset=(0, 1, 2), subset=(0,), hypothesis=0, excess=1.0)
    cons = out["consonance"]
    wrong = dict(out, consonance=dataclasses.replace(cons, violations=cons.violations + (fake,)))
    _assert_counted(wl, wrong, spans_, "consonance violation")


def check_bindings() -> None:
    import closedmtp.cli
    import closedmtp.closure
    import closedmtp.intersection
    import closedmtp.mvnorm
    import closedmtp.simulation

    expected = (
        (closedmtp.intersection, "union_exceedance"),
        (closedmtp.closure, "union_exceedance"),
        (closedmtp.intersection, "solve_monotone"),
        (closedmtp.simulation, "decision_thresholds"),
        (closedmtp.cli, "run_closure"),
        (closedmtp.cli, "check_consonance"),
        (closedmtp.cli, "run_simulation"),
    )
    before = {key: getattr(*key) for key in expected}
    with spans.Tracer().install(spans.LAYER_TARGETS) as patched:
        bound = {(mod, key) for mod, key, _ in patched}
        for mod, key in expected:
            assert (mod, key) in bound and getattr(mod, key) is not before[(mod, key)], (mod, key)
    assert all(getattr(*key) is fn for key, fn in before.items()), "bindings not restored"
    print(f"ok  tracer wraps {len(patched)} bindings, including every by-name import")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bindings()
    check_wrong_decisions()
    check_printed_metrics(spec)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
