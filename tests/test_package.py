"""The package's public surface."""

import circlebops


def test_every_export_imports():
    namespace = {}
    exec("from circlebops import *", namespace)
    missing = [name for name in circlebops.__all__ if name not in namespace]
    assert not missing
    assert len(set(circlebops.__all__)) == len(circlebops.__all__)
