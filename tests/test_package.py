"""The public surface: every exported name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import closedmtp


def test_all_names_resolve():
    missing = [name for name in closedmtp.__all__ if not hasattr(closedmtp, name)]
    assert missing == []
    assert len(set(closedmtp.__all__)) == len(closedmtp.__all__)


def test_star_import():
    namespace = {}
    exec("from closedmtp import *", namespace)
    assert set(closedmtp.__all__) <= set(namespace)


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs most of a second to import; only QMC rules need it
    src = str(Path(closedmtp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, closedmtp, closedmtp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
