"""Shared test setup: ``python -m cogclust`` children import the package under test."""

import os
import sys

import cogclust

_SRC = os.path.dirname(os.path.dirname(cogclust.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_collection_finish(session):
    # Collecting bench/test_plant.py puts src/ first on sys.path, and a spawn or
    # forkserver pool worker starts from this sys.path: put the package under test first.
    sys.path.insert(0, _SRC)
