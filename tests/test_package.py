"""The public surface: every exported name resolves."""

import os
import subprocess
import sys
import types
from pathlib import Path

import closedmtp


def test_all_names_resolve():
    missing = [name for name in closedmtp.__all__ if not hasattr(closedmtp, name)]
    assert missing == []
    assert len(set(closedmtp.__all__)) == len(closedmtp.__all__)


def test_every_public_name_is_exported():
    # the modules of the package are not exported; every other name without
    # a leading underscore is
    public = {
        name for name, value in vars(closedmtp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(closedmtp.__all__)) == []


def test_star_import():
    namespace = {}
    exec("from closedmtp import *", namespace)
    assert set(closedmtp.__all__) <= set(namespace)


def run_fresh(code: str) -> str:
    src = str(Path(closedmtp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs most of a second and 45 MB to import, and nothing
    # in the package needs it
    code = "import sys, closedmtp, closedmtp.cli; print('scipy.stats' in sys.modules)"
    assert run_fresh(code) == "False"


def test_qmc_union_leaves_scipy_stats_out():
    # a k=7 union is a QMC rule on Sobol' points the package generates
    code = (
        "import sys, numpy as np, closedmtp\n"
        "corr = np.full((7, 7), 0.3); np.fill_diagonal(corr, 1.0)\n"
        "est = closedmtp.union_exceedance(np.full(7, 0.004), corr, target_error=1e-5)\n"
        "print(est.error > 1e-13, 'scipy.stats' in sys.modules)"
    )
    assert run_fresh(code) == "True False"
