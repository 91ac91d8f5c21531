"""The public surface: every exported name resolves."""

import closedmtp


def test_all_names_resolve():
    missing = [name for name in closedmtp.__all__ if not hasattr(closedmtp, name)]
    assert missing == []
    assert len(set(closedmtp.__all__)) == len(closedmtp.__all__)


def test_star_import():
    namespace = {}
    exec("from closedmtp import *", namespace)
    assert set(closedmtp.__all__) <= set(namespace)
