"""JSON input parsing and report document construction.

Files use 1-based hypothesis indices; everything in memory is 0-based.
Inputs are checked against JSON Schemas shipped with the package, then
handed to the library constructors for the semantic checks (partition
structure, positive semidefiniteness, weight sums). All numbers in
output documents are rounded to 10 significant digits.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib.resources import files

import jsonschema
import numpy as np
from referencing import Registry, Resource

from .closure import TestProblem
from .exceptions import InputError
from .intersection import CorrelationModel
from .mvnorm import CorrelationMatrix
from .simulation import SimScenario
from .subsets import mask_of
from .weighting import GraphSpec, WeightingScheme, scheme_from_graph, validate

_INPUT_SCHEMAS = ("problem", "graph", "scenario")
_OUTPUT_SCHEMAS = ("analysis", "scheme", "consonance", "simulation")


def round10(x: float) -> float:
    """Round to 10 significant digits, the output serialization width."""
    return float(f"{float(x):.10g}")


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = files("closedmtp.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def _validator(name: str) -> jsonschema.Draft202012Validator:
    registry = Registry()
    for other in _INPUT_SCHEMAS + _OUTPUT_SCHEMAS:
        schema = _schema(other)
        registry = registry.with_resource(schema["$id"], Resource.from_contents(schema))
    return jsonschema.Draft202012Validator(_schema(name), registry=registry)


def load_document(text: str, kind: str) -> dict:
    """Parse JSON text and check it against the named input schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    check_schema(doc, kind)
    return doc


def check_schema(doc, kind: str) -> None:
    err = jsonschema.exceptions.best_match(_validator(kind).iter_errors(doc))
    if err is not None:
        where = err.json_path
        raise InputError(f"{kind} document invalid at {where}: {err.message}")


def _matrix(raw) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except ValueError:
        raise InputError("matrix rows must all have the same length")


def _indices_from_file(raw, m: int, where: str) -> tuple[int, ...]:
    idx = [int(i) for i in raw]
    if any(i < 1 or i > m for i in idx):
        raise InputError(f"{where}: indices are 1-based and must lie in 1..{m}")
    if idx != sorted(set(idx)):
        raise InputError(f"{where}: indices must be strictly ascending")
    return tuple(i - 1 for i in idx)


def parse_graph(doc: dict) -> GraphSpec:
    rows = doc["transitions"]
    if any(len(r) != len(rows) for r in rows):
        raise InputError("transition matrix rows must all have length m")
    return GraphSpec(int(doc["m"]), doc["weights"], rows)


def parse_scheme_entries(entries, m: int) -> WeightingScheme:
    table: dict[int, list] = {}
    for k, entry in enumerate(entries):
        mem = _indices_from_file(entry["set"], m, f"scheme entry {k}")
        mask = mask_of(mem, m)
        if mask in table:
            raise InputError(f"scheme entry {k}: duplicate subset {list(entry['set'])}")
        if len(entry["weights"]) != len(mem):
            raise InputError(
                f"scheme entry {k}: {len(mem)} members but {len(entry['weights'])} weights"
            )
        table[mask] = entry["weights"]
    return WeightingScheme(m, table)


def parse_weights(doc: dict, m: int) -> WeightingScheme:
    if "graph" in doc:
        graph = parse_graph(doc["graph"])
        if graph.m != m:
            raise InputError(f"graph is for m={graph.m}, problem declares m={m}")
        return scheme_from_graph(graph)
    return parse_scheme_entries(doc["scheme"], m)


def parse_correlation(doc: dict, m: int) -> CorrelationModel:
    blocks = [
        _indices_from_file(raw, m, f"correlation block {k}")
        for k, raw in enumerate(doc["blocks"])
    ]
    if len(doc["matrices"]) != len(blocks):
        raise InputError(
            f"{len(blocks)} correlation blocks but {len(doc['matrices'])} matrices"
        )
    matrices = []
    for k, raw in enumerate(doc["matrices"]):
        if raw is None:
            matrices.append(None)
        else:
            try:
                matrices.append(CorrelationMatrix(_matrix(raw)))
            except InputError as e:
                raise InputError(f"correlation matrix {k}: {e}")
    return CorrelationModel(m, tuple(blocks), tuple(matrices))


def parse_problem(
    doc: dict,
    alpha: float | None = None,
    method: str | None = None,
    seed: int | None = None,
) -> TestProblem:
    """Build a TestProblem from a validated document, with optional
    command-line overrides taking precedence over file fields."""
    m = int(doc["m"])
    if len(doc["pvalues"]) != m:
        raise InputError(f"problem declares m={m} but has {len(doc['pvalues'])} p-values")
    return TestProblem(
        scheme=parse_weights(doc["weights"], m),
        model=parse_correlation(doc["correlation"], m),
        pvalues=np.asarray(doc["pvalues"], dtype=float),
        alpha=float(doc["alpha"] if alpha is None else alpha),
        method=str(doc["method"] if method is None else method),
        seed=int(doc.get("seed", 0) if seed is None else seed),
    )


def parse_scenario(
    doc: dict,
    alpha: float | None = None,
    method: str | None = None,
    seed: int | None = None,
) -> SimScenario:
    m = int(doc["m"])
    gen = _matrix(doc["generator"])
    if gen.shape != (m, m):
        raise InputError(f"generator correlation must be {m} x {m}, got {gen.shape}")
    return SimScenario(
        scheme=parse_weights(doc["weights"], m),
        model=parse_correlation(doc["correlation"], m),
        generator=CorrelationMatrix(gen),
        alpha=float(doc["alpha"] if alpha is None else alpha),
        method=str(doc["method"] if method is None else method),
        true_nulls=doc["true_nulls"],
        mean_shifts=doc["mean_shifts"],
        replications=int(doc["replications"]),
        master_seed=int(doc.get("seed", 0) if seed is None else seed),
    )


def _set_out(members) -> list:
    return [int(j) + 1 for j in members]


def scheme_document(scheme: WeightingScheme) -> dict:
    flags = validate(scheme)
    return {
        "kind": "weights",
        "m": scheme.m,
        "scheme": [
            {"set": _set_out(mem), "weights": [round10(x) for x in w]}
            for _, mem, w in scheme.entries()
        ],
        "valid": bool(flags["valid"]),
        "exhaustive": bool(flags["exhaustive"]),
        "monotone": bool(flags["monotone"]),
    }


def analysis_document(problem: TestProblem, report, target_error: float) -> dict:
    hypotheses = []
    for i in range(report.m):
        hypotheses.append(
            {
                "index": i + 1,
                "p_value": round10(problem.pvalues[i]),
                "adjusted": round10(report.adjusted[i]),
                "rejected": bool(report.rejected[i]),
            }
        )
    intersections = []
    for res in report.intersections:
        if res.local_levels is None:
            raise InputError(
                "the analysis document needs local levels; run the closure with "
                "compute_scales on"
            )
        scheme_w = problem.scheme.weights_for(res.members)
        entry = {
            "set": _set_out(res.members),
            "weights": [round10(x) for x in scheme_w],
            "p_value": round10(res.p_value),
            "scale": None if res.scale is None else round10(res.scale),
            "local_levels": [round10(x) for x in res.local_levels],
            "reject": bool(res.reject),
        }
        if res.block_scales is not None:
            entry["block_scales"] = [
                {"set": _set_out(mem), "scale": round10(c)}
                for mem, c in res.block_scales
            ]
        intersections.append(entry)
    return {
        "kind": "analysis",
        "m": report.m,
        "alpha": round10(report.alpha),
        "method": report.method,
        "seed": problem.seed,
        "target_error": round10(target_error),
        "hypotheses": hypotheses,
        "intersections": intersections,
    }


def consonance_document(report, m: int, alpha: float, seed: int) -> dict:
    return {
        "kind": "consonance",
        "m": m,
        "alpha": round10(alpha),
        "seed": seed,
        "consonant": bool(report.consonant),
        "violations": [
            {
                "superset": _set_out(v.superset),
                "subset": _set_out(v.subset),
                "hypothesis": int(v.hypothesis) + 1,
                "excess": round10(v.excess),
            }
            for v in report.violations
        ],
    }


def simulation_document(scenario: SimScenario, report) -> dict:
    return {
        "kind": "simulation",
        "m": scenario.m,
        "alpha": round10(scenario.alpha),
        "method": scenario.method,
        "seed": scenario.master_seed,
        "replications": report.replications,
        "fwer_estimate": round10(report.fwer_estimate),
        "fwer_stderr": round10(report.fwer_stderr),
        "rejection_rates": [round10(x) for x in report.rejection_rates],
        "true_nulls": [bool(b) for b in scenario.true_nulls],
        "mean_shifts": [round10(x) for x in scenario.mean_shifts],
    }
