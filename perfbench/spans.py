"""In-memory spans around closedmtp's public functions, and the per-layer
metrics computed from them.

A traced function is replaced by a wrapper in *every* module that holds a
binding to it, not only its home module: ``intersection`` and ``closure``
import ``union_exceedance`` by name, ``intersection`` imports
``solve_monotone``, ``simulation`` imports ``decision_thresholds`` and
``cli`` imports ``run_closure``, ``check_consonance`` and ``simulate``.
Patching only the home module would miss every call made through those
names.

Each span records its name, start, end, the index of its parent span and
a small dict of facts taken from the call's arguments and return value
(never from library internals). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import re
import sys
import time
from contextlib import contextmanager

import numpy as np

# digits kept when comparing solve arguments for repeats
_KEY_DIGITS = 12


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _describe_union(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    u = np.asarray(a["thresholds"], dtype=float)
    k = int(np.count_nonzero((u > 0.0) & (u < 1.0)))
    # the kernel samples only when no threshold is 1 and three or more are positive
    qmc = bool(k >= 3 and not np.any(u >= 1.0))
    return {"k": k, "qmc": qmc, "error": float(result.error), "target": float(a["target_error"])}


def _rounded(x) -> tuple:
    return tuple(float(v) for v in np.round(np.asarray(x, dtype=float), _KEY_DIGITS).ravel())


def _block_parts(model, mem, w):
    """(block correlation of the active members, active weights) per block of mem."""
    pos = {j: i for i, j in enumerate(mem)}
    parts = []
    for h, block in enumerate(model.blocks):
        act = [j for j in block if j in pos and w[pos[j]] > 0.0]
        if not act:
            continue
        mat = model.matrices[h]
        if mat is None or len(act) == 1:
            corr = (1.0,)
        else:
            idx = [block.index(j) for j in act]
            corr = _rounded(mat.values[np.ix_(idx, idx)])
        parts.append((corr, _rounded([w[pos[j]] for j in act])))
    return parts


def _as_model(corr):
    # a plain matrix means one fully known block, as in the library
    from closedmtp.intersection import CorrelationModel

    return corr if isinstance(corr, CorrelationModel) else CorrelationModel.full(corr)


def _describe_scale(kind):
    """Solve keys (active sub-correlation, weights, alpha), one per root solve the call needs."""

    def describe(sig, args, kwargs, result):
        a = _bound(sig, args, kwargs)
        mem = tuple(int(j) for j in a["subset"])
        w = np.asarray(a["weights"], dtype=float)
        model = _as_model(a["corr"])
        alpha = round(float(a["alpha"]), _KEY_DIGITS)
        parts = _block_parts(model, mem, w)
        if kind == "common":
            if all(len(wts) <= 1 for _, wts in parts):
                return {"keys": []}
            return {"keys": [(tuple(parts), alpha)]}
        return {"keys": [(part, alpha) for part in parts if len(part[1]) >= 2]}

    return describe


def _describe_thresholds(sig, args, kwargs, result):
    # the array itself is kept for the correctness check of the solved scales
    return {"n": len(result), "value": result}


def _describe_len(attr):
    def describe(sig, args, kwargs, result):
        return {"n": len(getattr(result, attr))}

    return describe


# (home module, function, layer name, describe)
LAYER_TARGETS = (
    ("closedmtp.mvnorm", "union_exceedance", "mvnorm.union", _describe_union),
    ("closedmtp.mvnorm", "solve_monotone", "mvnorm.solve", None),
    ("closedmtp.intersection", "parametric_c", "intersection.scale", _describe_scale("block")),
    ("closedmtp.intersection", "partitioned_subset_scales", "intersection.scale", _describe_scale("block")),
    ("closedmtp.intersection", "partitioned_common_scale", "intersection.scale", _describe_scale("common")),
    ("closedmtp.intersection", "bonferroni_pvalue", "intersection.pvalue", None),
    ("closedmtp.intersection", "parametric_pvalue", "intersection.pvalue", None),
    ("closedmtp.intersection", "xie_pvalue", "intersection.pvalue", None),
    ("closedmtp.intersection", "partitioned_pvalue_subsets", "intersection.pvalue", None),
    ("closedmtp.closure", "run_closure", "closure.run_closure", _describe_len("intersections")),
    ("closedmtp.closure", "decision_thresholds", "closure.thresholds", _describe_thresholds),
    ("closedmtp.closure", "check_consonance", "closure.consonance", _describe_len("violations")),
    ("closedmtp.closure", "xie_shortcut", "closure.xie_shortcut", None),
    ("closedmtp.closure", "weighted_dunnett_single_step", "closure.single_step", None),
    ("closedmtp.simulation", "simulate", "simulation.simulate", None),
    ("closedmtp.weighting", "scheme_from_graph", "weighting.scheme", None),
    ("closedmtp.weighting", "xie_scheme", "weighting.scheme", None),
    ("closedmtp.weighting", "validate", "weighting.validate", None),
    ("closedmtp.fileio", "load_document", "fileio.load", None),
    ("closedmtp.fileio", "parse_problem", "fileio.parse", None),
    ("closedmtp.fileio", "parse_scenario", "fileio.parse", None),
    ("closedmtp.fileio", "analysis_document", "fileio.report", None),
    ("closedmtp.fileio", "consonance_document", "fileio.report", None),
    ("closedmtp.fileio", "simulation_document", "fileio.report", None),
)

# the untraced run times only this, to split simulate into thresholds and replications
STAGE_TARGETS = (
    ("closedmtp.closure", "decision_thresholds", "closure.thresholds", _describe_thresholds),
)


class Tracer:
    """Collects spans; ``install`` patches the targets for the duration of a ``with``."""

    def __init__(self) -> None:
        # [name, start, end, parent index, facts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, describe):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if describe is not None:
                self.spans[idx][4] = describe(sig, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self, targets):
        """Wrap each target in every loaded closedmtp module that binds it."""
        import closedmtp

        # import every submodule first, so that none binds a wrapper by name
        # while patched and keeps it after the restore
        for info in pkgutil.iter_modules(closedmtp.__path__):
            importlib.import_module(f"closedmtp.{info.name}")
        patched = []
        try:
            for home, attr, name, describe in targets:
                fn = getattr(sys.modules[home], attr)
                wrapper = self._wrap(fn, name, describe)
                for modname, mod in list(sys.modules.items()):
                    if modname != "closedmtp" and not modname.startswith("closedmtp."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, fn))
            yield patched
        finally:
            for mod, key, fn in reversed(patched):
                setattr(mod, key, fn)

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, facts in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent}
                if facts:
                    rec["facts"] = {k: v for k, v in facts.items() if k not in ("keys", "value")}
                fh.write(json.dumps(rec) + "\n")


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def inside(spans, idx: int, name: str) -> bool:
    """True when span ``idx`` ran inside a span called ``name``."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _bucket(k: int) -> str:
    return "k2" if k <= 2 else "k3" if k == 3 else "k4" if k == 4 else "k5p"


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    own = _self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    calls = {b: 0 for b in ("k2", "k3", "k4", "k5p")}
    busy = {b: 0.0 for b in calls}
    qmc = misses = 0
    worst = 0.0
    union_in_scale = 0
    for i, (name, start, end, _, facts) in enumerate(spans):
        if name != "mvnorm.union" or facts is None:
            continue
        b = _bucket(facts["k"])
        calls[b] += 1
        busy[b] += end - start
        if facts["qmc"]:
            qmc += 1
            misses += facts["error"] > facts["target"]
            worst = max(worst, facts["error"] / facts["target"])
        if inside(spans, i, "intersection.scale"):
            union_in_scale += 1
    for b in calls:
        out[f"mvnorm.union_calls.{b}"] = (calls[b], "count")
        out[f"mvnorm.union_s.{b}"] = (busy[b], "s")
    out["mvnorm.target_miss_frac"] = (misses / qmc if qmc else 0.0, "ratio")
    out["mvnorm.err_over_target_max"] = (worst, "ratio")
    solves = sum(1 for s in spans if s[0] == "mvnorm.solve")
    out["mvnorm.solve_calls"] = (solves, "count")

    def outermost(name):
        return [i for i, s in enumerate(spans) if s[0] == name and not inside(spans, i, name)]

    scale = outermost("intersection.scale")
    out["intersection.scale_calls"] = (len(scale), "count")
    out["intersection.scale_s"] = (sum(spans[i][2] - spans[i][1] for i in scale), "s")
    out["intersection.union_calls_per_solve"] = (union_in_scale / solves if solves else 0.0, "ratio")
    seen, keys, repeats = set(), 0, 0
    for i in scale:
        for key in (spans[i][4] or {}).get("keys", ()):
            keys += 1
            repeats += key in seen
            seen.add(key)
    out["intersection.repeat_solve_frac"] = (repeats / keys if keys else 0.0, "ratio")
    pv = outermost("intersection.pvalue")
    out["intersection.pvalue_calls"] = (len(pv), "count")
    out["intersection.pvalue_s"] = (sum(spans[i][2] - spans[i][1] for i in pv), "s")

    def facts_n(name):
        return sum(s[4]["n"] for s in spans if s[0] == name and s[4])

    def self_s(name):
        return sum((own[i] for i, s in enumerate(spans) if s[0] == name), 0.0)

    subsets = facts_n("closure.run_closure") + facts_n("closure.thresholds")
    out["closure.subsets"] = (subsets, "count")
    out["closure.run_closure_self_s"] = (self_s("closure.run_closure"), "s")
    out["closure.thresholds_self_s"] = (self_s("closure.thresholds"), "s")
    out["closure.sweep_s"] = (self_s("closure.consonance"), "s")
    out["closure.violations"] = (facts_n("closure.consonance"), "count")
    out["simulation.replicate_s"] = (self_s("simulation.simulate"), "s")
    for layer in ("weighting.scheme", "weighting.validate", "fileio.load", "fileio.parse", "fileio.report"):
        out[f"{layer}_s"] = (self_s(layer), "s")
    return out


def as_shares(layer: dict, window_s: float) -> dict[str, tuple[float, str]]:
    """Busy times as a percentage of the traced window; other metrics unchanged.

    A layer a workload never enters reads 0 on every run; as a share that
    is a plain zero, not a timing that never changes.
    """
    out = {}
    for name, (value, unit) in layer.items():
        if unit == "s":
            out[re.sub(r"_s(?=\.|$)", "_pct", name)] = (100.0 * value / window_s, "%")
        else:
            out[name] = (value, unit)
    return out
