"""Command line entry points.

Exit codes: 0 success, 1 numerical failure, 2 invalid input,
3 scheme found non-consonant by check-consonance.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys

import click

from . import fileio
from .closure import check_consonance, run_closure
from .exceptions import InputError, NumericError
from .intersection import METHODS
from .simulation import simulate as run_simulation

_FORMATS = ("json", "csv", "text")
_SEED_ENV = "CLOSEDMTP_SEED"


def _read(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {source}: {e.strerror or e}")


def _seed_value(flag: int | None, file_seed) -> int:
    # precedence: --seed flag, then the file, then the environment; every
    # report schema takes seeds from 0 up
    env = os.environ.get(_SEED_ENV)
    if flag is not None:
        seed, source = flag, "--seed"
    elif file_seed is not None:
        seed, source = int(file_seed), "the file's seed"
    elif env is not None:
        try:
            seed, source = int(env), _SEED_ENV
        except ValueError:
            raise InputError(f"{_SEED_ENV} must be an integer, got {env!r}")
    else:
        return 0
    if seed < 0:
        raise InputError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except InputError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        except NumericError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)

    return wrapper


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _set_label(indices) -> str:
    return "+".join(str(i) for i in indices)


def _csv_blocks(*blocks) -> str:
    parts = []
    for rows in blocks:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [[_cell(x) for x in row] for row in rows]
        )
        parts.append(buf.getvalue().rstrip("\n"))
    return "\n\n".join(parts)


def _text_table(headers, rows) -> str:
    grid = [list(headers)] + [[_cell(x) or "-" for x in row] for row in rows]
    widths = [max(len(r[k]) for r in grid) for k in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in grid]
    return "\n".join(lines)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------- analysis

def _analysis_csv(doc: dict) -> str:
    inter = [["set", "size", "p_value", "scale", "hypothesis", "weight", "level", "reject"]]
    for entry in doc["intersections"]:
        label = _set_label(entry["set"])
        for j, hyp in enumerate(entry["set"]):
            inter.append(
                [
                    label,
                    len(entry["set"]),
                    entry["p_value"],
                    entry["scale"],
                    hyp,
                    entry["weights"][j],
                    entry["local_levels"][j],
                    entry["reject"],
                ]
            )
    hyps = [["hypothesis", "p_value", "adjusted", "rejected"]]
    for h in doc["hypotheses"]:
        hyps.append([h["index"], h["p_value"], h["adjusted"], h["rejected"]])
    return _csv_blocks(inter, hyps)


def _analysis_text(doc: dict) -> str:
    head = (
        f"closed test  m={doc['m']}  alpha={_cell(doc['alpha'])}"
        f"  method={doc['method']}  seed={doc['seed']}"
    )
    hyp_rows = [
        [h["index"], h["p_value"], h["adjusted"], _yes(h["rejected"])]
        for h in doc["hypotheses"]
    ]
    inter_rows = [
        [
            _set_label(e["set"]),
            e["p_value"],
            e["scale"],
            " ".join(_cell(x) for x in e["local_levels"]),
            _yes(e["reject"]),
        ]
        for e in doc["intersections"]
    ]
    return "\n".join(
        [
            head,
            "",
            _text_table(["hypothesis", "p_value", "adjusted", "rejected"], hyp_rows),
            "",
            _text_table(["set", "p_value", "scale", "local_levels", "reject"], inter_rows),
        ]
    )


# ---------------------------------------------------------------- weights

def _weights_csv(doc: dict) -> str:
    rows = [["set", "size", "hypothesis", "weight"]]
    for entry in doc["scheme"]:
        label = _set_label(entry["set"])
        for hyp, w in zip(entry["set"], entry["weights"]):
            rows.append([label, len(entry["set"]), hyp, w])
    return _csv_blocks(rows)


def _weights_text(doc: dict) -> str:
    head = (
        f"weighting scheme  m={doc['m']}  valid={_cell(doc['valid'])}"
        f"  exhaustive={_cell(doc['exhaustive'])}  monotone={_cell(doc['monotone'])}"
    )
    rows = [
        [_set_label(e["set"]), " ".join(_cell(w) for w in e["weights"])]
        for e in doc["scheme"]
    ]
    return "\n".join([head, "", _text_table(["set", "weights"], rows)])


# ---------------------------------------------------------------- consonance

def _consonance_csv(doc: dict) -> str:
    summary = [
        ["m", "alpha", "seed", "consonant"],
        [doc["m"], doc["alpha"], doc["seed"], doc["consonant"]],
    ]
    rows = [["superset", "subset", "hypothesis", "excess"]]
    for v in doc["violations"]:
        rows.append([_set_label(v["superset"]), _set_label(v["subset"]), v["hypothesis"], v["excess"]])
    return _csv_blocks(summary, rows)


def _consonance_text(doc: dict) -> str:
    head = (
        f"consonance check  m={doc['m']}  alpha={_cell(doc['alpha'])}"
        f"  seed={doc['seed']}  consonant={_yes(doc['consonant'])}"
    )
    if not doc["violations"]:
        return head
    rows = [
        [_set_label(v["superset"]), _set_label(v["subset"]), v["hypothesis"], v["excess"]]
        for v in doc["violations"]
    ]
    return "\n".join(
        [head, "", _text_table(["superset", "subset", "hypothesis", "excess"], rows)]
    )


# ---------------------------------------------------------------- simulation

def _simulation_csv(doc: dict) -> str:
    summary = [
        ["m", "alpha", "method", "seed", "replications", "fwer_estimate", "fwer_stderr"],
        [
            doc["m"],
            doc["alpha"],
            doc["method"],
            doc["seed"],
            doc["replications"],
            doc["fwer_estimate"],
            doc["fwer_stderr"],
        ],
    ]
    rows = [["hypothesis", "true_null", "mean_shift", "rejection_rate"]]
    for i in range(doc["m"]):
        rows.append(
            [i + 1, doc["true_nulls"][i], doc["mean_shifts"][i], doc["rejection_rates"][i]]
        )
    return _csv_blocks(summary, rows)


def _simulation_text(doc: dict) -> str:
    head = (
        f"simulation  m={doc['m']}  alpha={_cell(doc['alpha'])}  method={doc['method']}"
        f"  seed={doc['seed']}  replications={doc['replications']}\n"
        f"familywise error rate {_cell(doc['fwer_estimate'])}"
        f"  (std. error {_cell(doc['fwer_stderr'])})"
    )
    rows = [
        [i + 1, _yes(doc["true_nulls"][i]), doc["mean_shifts"][i], doc["rejection_rates"][i]]
        for i in range(doc["m"])
    ]
    return "\n".join(
        [head, "", _text_table(["hypothesis", "true_null", "mean_shift", "rejection_rate"], rows)]
    )


_CSV = {
    "analysis": _analysis_csv,
    "weights": _weights_csv,
    "consonance": _consonance_csv,
    "simulation": _simulation_csv,
}
_TEXT = {
    "analysis": _analysis_text,
    "weights": _weights_text,
    "consonance": _consonance_text,
    "simulation": _simulation_text,
}


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        return _CSV[doc["kind"]](doc)
    return _TEXT[doc["kind"]](doc)


def _format_option(fn):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(_FORMATS),
        default="json",
        show_default=True,
        help="Output format.",
    )(fn)


def _error_option(fn):
    return click.option(
        "--target-error",
        type=float,
        default=1e-6,
        show_default=True,
        help="Target absolute error for probability integrals.",
    )(fn)


@click.group()
def main() -> None:
    """Weighted closed testing with parametric intersection tests."""


@main.command()
@click.argument("problem", metavar="PROBLEM")
@click.option("--alpha", type=float, default=None, help="Override the file's alpha.")
@click.option(
    "--method",
    type=click.Choice(METHODS),
    default=None,
    help="Override the file's intersection test method.",
)
@click.option("--seed", type=int, default=None, help="Override the integration seed.")
@_error_option
@_format_option
@_guarded
def analyze(problem, alpha, method, seed, target_error, fmt):
    """Run the closed procedure on a problem file ('-' reads stdin)."""
    doc = fileio.load_document(_read(problem), "problem")
    prob = fileio.parse_problem(
        doc, alpha=alpha, method=method, seed=_seed_value(seed, doc.get("seed"))
    )
    report = run_closure(prob, target_error=target_error)
    click.echo(_render(fileio.analysis_document(prob, report, target_error), fmt))


@main.command()
@click.argument("graph", metavar="GRAPH")
@_format_option
@_guarded
def weights(graph, fmt):
    """Derive the full weighting scheme from a propagation graph file."""
    doc = fileio.load_document(_read(graph), "graph")
    scheme = fileio.scheme_from_graph(fileio.parse_graph(doc))
    click.echo(_render(fileio.scheme_document(scheme), fmt))


@main.command("check-consonance")
@click.argument("problem", metavar="PROBLEM")
@click.option("--alpha", type=float, default=None, help="Override the file's alpha.")
@click.option("--seed", type=int, default=None, help="Override the integration seed.")
@_error_option
@_format_option
@_guarded
def check_consonance_cmd(problem, alpha, seed, target_error, fmt):
    """Check a problem's scheme for consonance under the common-scale test.

    Exits 3 when violations are found.
    """
    doc = fileio.load_document(_read(problem), "problem")
    prob = fileio.parse_problem(
        doc, alpha=alpha, seed=_seed_value(seed, doc.get("seed"))
    )
    report = check_consonance(
        prob.scheme, prob.model, prob.alpha, seed=prob.seed, target_error=target_error
    )
    click.echo(_render(fileio.consonance_document(report, prob.m, prob.alpha, prob.seed), fmt))
    if not report.consonant:
        sys.exit(3)


@main.command()
@click.argument("scenario", metavar="SCENARIO")
@click.option("--alpha", type=float, default=None, help="Override the file's alpha.")
@click.option(
    "--method",
    type=click.Choice(METHODS),
    default=None,
    help="Override the file's intersection test method.",
)
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@_error_option
@_format_option
@_guarded
def simulate(scenario, alpha, method, seed, target_error, fmt):
    """Estimate the familywise error rate by simulation from a scenario file."""
    doc = fileio.load_document(_read(scenario), "scenario")
    scen = fileio.parse_scenario(
        doc, alpha=alpha, method=method, seed=_seed_value(seed, doc.get("seed"))
    )
    report = run_simulation(scen, target_error=target_error)
    click.echo(_render(fileio.simulation_document(scen, report), fmt))
