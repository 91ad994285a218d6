"""Shared test setup: ``python -m cogclust`` children import the package under test."""

import os

import cogclust

_SRC = os.path.dirname(os.path.dirname(cogclust.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
