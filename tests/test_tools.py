"""The benchmark tools under tools/ read private names of the library and
pin what some of its runs give. These checks fail when a change in the
library would break a tool, or move the floats of the m=8 closure that
``tools/bench_kernel.py --closure`` reports."""

import importlib.util
import os
import re
from pathlib import Path
from unittest import mock

import pytest

import closedmtp.intersection
import closedmtp.mvnorm
import closedmtp.simulation

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the tool pins BLAS threads in the environment it starts with
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_closure_pvalues_row():
    # one intersection is refit past the first pass; the sha1 prefixes pin the floats
    row = load_tool("bench_kernel").closure(1e-6, compute_scales=False)
    assert row["refits"] == 1
    assert row["adjusted_sha1"] == "a456524fc51b"
    assert row["pvalues_sha1"] == "c1c47606645a"


@pytest.mark.parametrize("m, row_solves, sha1", [(6, 0, "7db6de6b2b73"), (7, 1, "c9dffbc08c52")])
def test_dunnett_row_solves(m, row_solves, sha1):
    # the array pass settles every row of six events; the one row of
    # seven is solved alone, and the tool must see that solve
    row = load_tool("bench_kernel").dunnett(m)
    assert row["row_solves"] == row_solves
    assert row["table_sha1"] == sha1


@pytest.mark.parametrize("tool", ["bench_kernel", "bench_simulate"])
def test_private_names_the_tool_reads_exist(tool):
    modules = {
        "intersection": closedmtp.intersection, "mvnorm": closedmtp.mvnorm, "simulation": closedmtp.simulation
    }
    source = (TOOLS / f"{tool}.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\b(intersection|mvnorm|simulation)\.(_\w+(?:\.\w+)*)", source))
    assert names
    for home, path in sorted(names):
        obj = modules[home]
        for part in path.split("."):
            assert hasattr(obj, part), f"{home}.{path}"
            obj = getattr(obj, part)
