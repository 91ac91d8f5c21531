"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
module and name, and reads some of their arguments by parameter name.
These checks fail when a rename or a signature change in the library
would break traced runs."""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
TARGETS = [("layer", *t) for t in spans.LAYER_TARGETS] + [
    ("stage", *t) for t in spans.STAGE_TARGETS
]


def argument_reads(describe) -> tuple[set[str], set[str]]:
    """(names bound to a call's arguments, parameter names read from them)
    in the source of a describe function."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(describe)))
    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "_bound"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    reads = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
        and isinstance(node.slice, ast.Constant)
    }
    return bound, reads


@pytest.mark.parametrize(
    "home, name, describe",
    [t[1:3] + (t[4],) for t in TARGETS],
    ids=[f"{t[0]}-{t[1]}.{t[2]}" for t in TARGETS],
)
def test_target_is_a_function_with_every_parameter_it_reads(home, name, describe):
    fn = getattr(importlib.import_module(home), name, None)
    assert inspect.isfunction(fn), f"{home}.{name} is not a function"
    if describe is not None:
        _, reads = argument_reads(describe)
        missing = reads - set(inspect.signature(fn).parameters)
        assert not missing, f"{home}.{name} lacks parameters {sorted(missing)}"


def test_argument_scan_sees_every_read():
    # a describe that binds a call's arguments reads some of them; an empty
    # scan would mean the check above passes without checking anything
    scanned = 0
    for *_, describe in TARGETS:
        if describe is None:
            continue
        bound, reads = argument_reads(describe)
        if bound:
            assert reads, describe
            scanned += 1
    assert scanned > 0
